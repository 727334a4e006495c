"""Extended MMQL builtins and the EXPLAIN driver API."""

import pytest

from repro.errors import ExecutionError
from repro.models.xml import parse_xml
from repro.query.executor import run_query
from repro.query.functions import builtin_names, call_builtin, is_bridge, is_builtin

from tests.query.test_executor import ListContext


@pytest.fixture()
def ctx():
    return ListContext(items=[{"_id": 1}])


def run1(ctx, text):
    return run_query(ctx, f"RETURN {text}")[0]


class TestStringFunctions:
    def test_starts_with(self, ctx):
        assert run1(ctx, "STARTS_WITH('p1/c9', 'p1/')") is True
        assert run1(ctx, "STARTS_WITH(NULL, 'x')") is False

    def test_split(self, ctx):
        assert run1(ctx, "SPLIT('p1/c9', '/')") == ["p1", "c9"]
        assert run1(ctx, "SPLIT(NULL, '/')") == []

    def test_trim(self, ctx):
        assert run1(ctx, "TRIM('  x ')") == "x"

    def test_reverse_string_and_list(self, ctx):
        assert run1(ctx, "REVERSE('abc')") == "cba"
        assert run1(ctx, "REVERSE([1, 2])") == [2, 1]
        with pytest.raises(ExecutionError):
            run1(ctx, "REVERSE(5)")


class TestListObjectFunctions:
    def test_slice(self, ctx):
        assert run1(ctx, "SLICE([1, 2, 3, 4], 1, 2)") == [2, 3]
        assert run1(ctx, "SLICE([1, 2, 3], 1)") == [2, 3]

    def test_keys_values(self, ctx):
        assert run1(ctx, "KEYS({b: 1, a: 2})") == ["a", "b"]
        assert run1(ctx, "VALUES({b: 1, a: 2})") == [2, 1]

    def test_merge(self, ctx):
        assert run1(ctx, "MERGE({a: 1}, {b: 2}, NULL, {a: 3})") == {"a": 3, "b": 2}

    def test_flatten_one_level(self, ctx):
        assert run1(ctx, "FLATTEN([[1, 2], 3, [4]])") == [1, 2, 3, 4]
        assert run1(ctx, "FLATTEN([[1, [2]]])") == [1, [2]]

    def test_intersection(self, ctx):
        assert run1(ctx, "INTERSECTION([1, 2, 3, 2], [2, 3, 9])") == [2, 3]

    def test_range(self, ctx):
        assert run1(ctx, "RANGE(1, 4)") == [1, 2, 3, 4]
        assert run1(ctx, "RANGE(4, 1, -1)") == [4, 3, 2, 1]
        assert run1(ctx, "RANGE(0, 10, 5)") == [0, 5, 10]
        with pytest.raises(ExecutionError):
            run1(ctx, "RANGE(1, 5, 0)")

    def test_range_feeds_for(self, ctx):
        out = run_query(ctx, "FOR i IN RANGE(1, 3) RETURN i * i")
        assert out == [1, 4, 9]


class TestDateFunctions:
    def test_year_month(self, ctx):
        assert run1(ctx, "DATE_YEAR('2015-03-01')") == 2015
        assert run1(ctx, "DATE_MONTH('2015-03-01')") == 3
        assert run1(ctx, "DATE_YEAR(NULL)") is None

    def test_bad_date_rejected(self, ctx):
        with pytest.raises(ExecutionError):
            run1(ctx, "DATE_YEAR('nope')")

    def test_grouping_orders_by_year(self, small_dataset, loaded_unified):
        out = loaded_unified.query(
            """
            FOR o IN orders
              COLLECT year = DATE_YEAR(o.order_date) AGGREGATE n = COUNT(1)
              SORT year
              RETURN {year, n}
            """
        )
        assert [r["year"] for r in out] == sorted(r["year"] for r in out)
        assert sum(r["n"] for r in out) == len(small_dataset.orders)


class _CtxTouched(Exception):
    pass


class _UntouchableCtx:
    """A query context whose every attribute access raises."""

    def __getattr__(self, name):
        raise _CtxTouched(name)


BUILTIN_SAMPLES = {
    "LENGTH": [[1, 2]], "CONCAT": ["a", 1], "UPPER": ["a"], "LOWER": ["A"],
    "CONTAINS": ["abc", "b"], "SUBSTRING": ["abc", 1, 1], "ROUND": [1.25, 1],
    "FLOOR": [1.5], "CEIL": [1.5], "ABS": [-1], "MIN": [[2, 1]],
    "MAX": [[1, 2]], "SUM": [[1, 2]], "AVG": [[1, 2]], "COUNT": [[1]],
    "UNIQUE": [[1, 1]], "FIRST": [[1]], "APPEND": [[1], 2],
    "HAS": [{"a": 1}, "a"], "NOT_NULL": [None, 1], "TO_NUMBER": ["1.5"],
    "TO_STRING": [1], "STARTS_WITH": ["ab", "a"], "SPLIT": ["a,b", ","],
    "TRIM": [" a "], "REVERSE": [[1, 2]], "SLICE": [[1, 2], 1],
    "KEYS": [{"a": 1}], "VALUES": [{"a": 1}], "MERGE": [{"a": 1}, {"b": 2}],
    "FLATTEN": [[[1], 2]], "INTERSECTION": [[1, 2], [2]], "RANGE": [1, 3],
    "DATE_YEAR": ["2015-01-20"], "DATE_MONTH": ["2015-01-20"],
    "JSONPATH": [{"a": [1]}, "$.a[0]"],
    "XPATH": [parse_xml("<inv><total>5</total></inv>"), "/inv/total/text()"],
    "XMLGET": ["invoices", "o1"], "KVGET": ["feedback", "p1/1"],
    "KV": ["feedback", "p1/"], "TRAVERSE": ["social", 1, 1, 2, "knows"],
    "VERTICES": ["social"], "EDGES": ["social"],
    "SHORTEST_PATH": ["social", 1, 2], "DOCUMENT": ["customers", 1],
}


class TestRegistry:
    def test_builtins_registered(self):
        for name in ("STARTS_WITH", "SPLIT", "MERGE", "RANGE", "DATE_YEAR"):
            assert is_builtin(name)

    def test_builtin_names_sorted(self):
        names = builtin_names()
        assert names == sorted(names)
        assert len(names) >= 40

    def test_only_declared_bridges_touch_ctx(self):
        """A builtin that reads ``ctx`` must be declared a bridge.

        The shard planner pushes every non-bridge builtin into the shard
        workers, where ``ctx`` is one shard's context — an undeclared
        bridge would silently read a slice of its collection.  Every
        builtin needs a sample call here, so a new one cannot skip it.
        """
        assert set(BUILTIN_SAMPLES) == set(builtin_names())
        for name, args in BUILTIN_SAMPLES.items():
            if is_bridge(name):
                with pytest.raises(_CtxTouched):
                    call_builtin(name, _UntouchableCtx(), args)
            else:
                call_builtin(name, _UntouchableCtx(), args)


class TestExplain:
    def test_explain_shows_index_choice(self, loaded_unified):
        text = "FOR o IN orders FILTER o.customer_id == 5 RETURN o"
        plan = loaded_unified.explain(text)
        assert "index: orders.customer_id" in plan

    def test_explain_shows_range_hint(self, loaded_unified):
        plan = loaded_unified.explain("FOR o IN orders FILTER o.total_price > 5 RETURN o")
        assert "range index: orders.total_price" in plan

    def test_explain_shows_scan(self, loaded_unified):
        plan = loaded_unified.explain("FOR o IN orders FILTER o.status LIKE 'ship' RETURN o")
        assert "[scan]" in plan
