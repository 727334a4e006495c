"""The reference interpreter pinned against hand-written answers.

Every differential suite trusts :mod:`repro.query.reference` as its
oracle, so the oracle itself is checked here against answers written
out by hand — never against the engine.  The last test guards the other
side of the split: every physical operator has its own batch body, so
nothing can fall back to a per-row stream the reference once stood in
for.
"""

from __future__ import annotations

import inspect

import pytest

from repro.cluster import operators as cluster_operators
from repro.errors import ExecutionError
from repro.models.xml.node import element, text
from repro.query import analyze, physical
from repro.query.reference import eval_expr, execute

from tests.query.test_compile_parity import _ERROR_EXPRS


class _Ctx:
    """Collections as plain lists; no indexes, so DOCUMENT() scans."""

    def __init__(self, **collections):
        self.collections = collections

    def iter_collection(self, name):
        return iter(self.collections[name])

    def index_lookup(self, collection, field, value):
        return None


ROWS = [
    {"_id": 1, "k": "b", "v": 3},
    {"_id": 2, "k": "a", "v": 1},
    {"_id": 3, "k": "b", "v": 3},
    {"_id": 4, "k": "a", "v": 2},
    {"_id": 5, "k": None, "v": 0},
]


@pytest.fixture()
def ctx():
    invoice = element(
        "invoice", {"id": "I1"},
        element("line", {"sku": "x"}, text("2")),
        element("line", {"sku": "y"}, text("5")),
    )
    return _Ctx(
        rows=ROWS,
        people=[{"_id": "p1", "name": "ada"}, {"_id": "p2", "name": "bob"}],
        invoices=[{"_id": "I1", "root": invoice}],
    )


class TestClauses:
    def test_sort_is_stable_on_ties(self, ctx):
        # v ties (1, 3) and (2, 4) keep their scan order, both directions.
        assert execute(ctx, "FOR r IN rows SORT r.v RETURN r._id") == [5, 2, 4, 1, 3]
        assert execute(ctx, "FOR r IN rows SORT r.v DESC RETURN r._id") == [1, 3, 4, 2, 5]
        assert execute(ctx, "FOR r IN rows SORT r.k, r.v DESC RETURN r._id") == [
            5, 4, 2, 1, 3,
        ]

    def test_limit_window(self, ctx):
        assert execute(ctx, "FOR r IN rows LIMIT 2 RETURN r._id") == [1, 2]
        assert execute(ctx, "FOR r IN rows LIMIT 3, 10 RETURN r._id") == [4, 5]
        assert execute(ctx, "FOR r IN rows LIMIT 0 RETURN r._id") == []

    @pytest.mark.parametrize("window, message", [
        ("-1", "LIMIT count must be a non-negative int, got -1"),
        ("1.5", "LIMIT count must be a non-negative int, got 1.5"),
        ("-2, 1", "LIMIT offset must be a non-negative int, got -2"),
        ("'a', 1", "LIMIT offset must be a non-negative int, got 'a'"),
    ])
    def test_limit_bounds_errors(self, ctx, window, message):
        with pytest.raises(ExecutionError) as info:
            execute(ctx, f"FOR r IN rows LIMIT {window} RETURN r._id")
        assert str(info.value) == message

    def test_collect_emits_groups_in_canonical_order(self, ctx):
        # None sorts before strings; groups appear in key order, not
        # first-seen order ("b" is seen first).
        text_ = (
            "FOR r IN rows COLLECT k = r.k "
            "AGGREGATE n = COUNT(r._id), total = SUM(r.v), lo = MIN(r.v) "
            "RETURN {k, n, total, lo}"
        )
        assert execute(ctx, text_) == [
            {"k": None, "n": 1, "total": 0, "lo": 0},
            {"k": "a", "n": 2, "total": 3, "lo": 1},
            {"k": "b", "n": 2, "total": 6, "lo": 3},
        ]

    def test_collect_into_keeps_whole_bindings_in_scan_order(self, ctx):
        got = execute(ctx, "FOR r IN rows COLLECT k = r.k INTO g RETURN [k, LENGTH(g)]")
        assert got == [[None, 1], ["a", 2], ["b", 2]]
        groups = execute(ctx, "FOR r IN rows FILTER r.k == 'a' COLLECT k = r.k INTO g RETURN g")
        assert groups == [[{"r": ROWS[1]}, {"r": ROWS[3]}]]

    def test_avg_is_exact(self):
        values = _Ctx(xs=[{"x": 0.1}, {"x": 0.2}, {"x": 0.3}])
        text_ = "FOR x IN xs COLLECT one = 1 AGGREGATE a = AVG(x.x), s = SUM(x.x) RETURN [a, s]"
        # Float accumulation gives 0.20000000000000004 and 0.6000000000000001.
        assert execute(values, text_) == [[0.2, 0.6]]

    def test_return_distinct_keeps_first_occurrences(self, ctx):
        assert execute(ctx, "FOR r IN rows RETURN DISTINCT r.k") == ["b", "a", None]
        assert execute(ctx, "FOR r IN rows RETURN DISTINCT {v: r.v}") == [
            {"v": 3}, {"v": 1}, {"v": 2}, {"v": 0},
        ]

    def test_correlated_subquery_sees_the_outer_binding(self, ctx):
        text_ = (
            "FOR r IN rows FILTER r.k == 'a' "
            "LET same = (FOR s IN rows FILTER s.k == r.k AND s._id != r._id RETURN s._id) "
            "RETURN {id: r._id, same}"
        )
        assert execute(ctx, text_) == [{"id": 2, "same": [4]}, {"id": 4, "same": [2]}]

    def test_document_and_xpath(self, ctx):
        assert execute(ctx, "RETURN DOCUMENT('people', 'p2').name") == ["bob"]
        assert execute(ctx, "RETURN DOCUMENT('people', 'nobody')") == [None]
        assert execute(
            ctx, "FOR i IN invoices RETURN XPATH(i.root, '/invoice/line/@sku')"
        ) == [["x", "y"]]
        (lines,) = execute(ctx, "FOR i IN invoices RETURN XPATH(i.root, '/invoice/line')")
        assert [line.attributes["sku"] for line in lines] == ["x", "y"]

    def test_bound_list_shadows_a_collection_name(self, ctx):
        text_ = "LET rows = [{_id: 'mine'}] FOR r IN rows RETURN r._id"
        assert execute(ctx, text_) == ["mine"]
        with pytest.raises(ExecutionError, match="FOR over variable 'rows' requires a list"):
            execute(ctx, "LET rows = 7 FOR r IN rows RETURN r")

    def test_results_are_copies(self, ctx):
        (row,) = execute(ctx, "FOR i IN invoices RETURN i")
        row["root"].children.clear()
        assert ctx.collections["invoices"][0]["root"].children


_ERROR_MESSAGES = {
    "RETURN ghost": "unbound variable 'ghost'",
    "RETURN @absent": "missing query parameter @absent",
    "RETURN 1 / 0": "division by zero",
    "RETURN 1 % 0": "modulo by zero",
    "RETURN 'a' * 2": "arithmetic * on str and int",
    "RETURN -'x'": "unary '-' on str",
    "RETURN NO_SUCH_FN(1)": "unknown function NO_SUCH_FN()",
    "RETURN LENGTH(1)": "LENGTH() of int",
    "RETURN 1 IN 2": "IN requires a list/string, got int",
    'RETURN [1]["k"]': "list index must be an int",
}


def test_error_table_covers_the_parity_cases():
    assert sorted(_ERROR_MESSAGES) == sorted(_ERROR_EXPRS)


@pytest.mark.parametrize("text_", _ERROR_EXPRS)
def test_error_messages(ctx, text_):
    with pytest.raises(ExecutionError) as info:
        execute(ctx, text_)
    assert str(info.value) == _ERROR_MESSAGES[text_]


def test_eval_expr_needs_no_context():
    from repro.query.parser import parse

    expr = parse("RETURN a.b + @p * 2").returning.expr
    assert eval_expr(expr, {"a": {"b": 1}}, {"p": 3}) == 7


def test_every_operator_defines_its_own_batch_body():
    classes = [
        cls
        for module in (physical, cluster_operators, analyze)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, physical.PhysicalOperator)
        and cls is not physical.PhysicalOperator
        and cls.__module__ == module.__name__
    ]
    assert sorted(cls.__name__ for cls in classes) == [
        "EquiJoin", "Filter", "FusedPipeline", "HashAggregate", "Let", "Limit",
        "NestedLoopBind", "Project", "ShardExec", "Sort", "TopK",
    ]
    for cls in classes:
        assert "run_batches" in vars(cls), cls.__name__
        assert not hasattr(cls, "run"), cls.__name__
    assert "run_batches" in vars(analyze._Counted)
    assert not hasattr(analyze._Counted, "run")
    with pytest.raises(NotImplementedError):
        next(physical.PhysicalOperator().run_batches(None, {}))
