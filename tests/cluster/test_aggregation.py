"""Two-phase aggregation over shards: semantics, parity, plan shape.

The pushdown contract under test: a decomposable COLLECT splits into
``HashAggregate(partial)`` below the ShardExec gather plus
``HashAggregate(final)`` above it, only group states cross the gather,
and every answer — NULL handling, empty inputs, group-key typing,
output order — is byte-identical to the single-node plan.
"""

import re

import pytest

from repro.cluster.sharded import ShardedDatabase
from repro.core.workloads import QUERY_BY_ID
from repro.drivers.unified import UnifiedDriver

# Documents exercising the aggregate edge cases: explicit nulls, missing
# fields, a group whose every value is null, and mixed key types that a
# repr/naive-tuple group key would mangle (1 vs 1.0 vs "1" vs True).
EDGE_DOCS = [
    {"_id": "d1", "g": "a", "v": 10},
    {"_id": "d2", "g": "a", "v": None},
    {"_id": "d3", "g": "a"},  # missing field reads as null
    {"_id": "d4", "g": "a", "v": 4},
    {"_id": "d5", "g": "b", "v": None},
    {"_id": "d6", "g": "b"},  # group b: nothing but nulls
    {"_id": "d7", "g": 1, "v": 1},
    {"_id": "d8", "g": 1.0, "v": 2},
    {"_id": "d9", "g": "1", "v": 4},
    {"_id": "d10", "g": True, "v": 8},
]

AGG_QUERY = (
    "FOR d IN edge_docs COLLECT g = d.g "
    "AGGREGATE n = COUNT(d.v), s = SUM(d.v), avg = AVG(d.v), "
    "lo = MIN(d.v), hi = MAX(d.v) RETURN {g, n, s, avg, lo, hi}"
)


def _load_edge_docs(driver):
    driver.create_collection("edge_docs")

    def loader(session):
        for doc in EDGE_DOCS:
            session.doc_insert("edge_docs", dict(doc))

    driver.load(loader)


@pytest.fixture(scope="module")
def edge_sharded4():
    driver = ShardedDatabase(n_shards=4)
    _load_edge_docs(driver)
    yield driver
    driver.close()


@pytest.fixture(scope="module")
def edge_sharded1():
    driver = ShardedDatabase(n_shards=1)
    _load_edge_docs(driver)
    yield driver
    driver.close()


@pytest.fixture(scope="module")
def edge_unified():
    driver = UnifiedDriver()
    _load_edge_docs(driver)
    return driver


class TestNullSemantics:
    def test_nulls_and_missing_fields_skip_aggregates(self, edge_unified):
        rows = {r["g"]: r for r in edge_unified.query(AGG_QUERY)}
        a = rows["a"]
        assert a == {"g": "a", "n": 2, "s": 14.0, "avg": 7.0, "lo": 4, "hi": 10}

    def test_all_null_group_yields_zero_count_null_extremes(self, edge_unified):
        rows = {r["g"]: r for r in edge_unified.query(AGG_QUERY)}
        b = rows["b"]
        assert b == {"g": "b", "n": 0, "s": 0.0, "avg": None, "lo": None, "hi": None}

    def test_zero_row_input_yields_zero_groups(self, edge_unified):
        out = edge_unified.query(
            "FOR d IN edge_docs FILTER d.g == 'missing' "
            "COLLECT g = d.g AGGREGATE n = COUNT(1) RETURN {g, n}"
        )
        assert out == []

    def test_count_star_vs_count_value(self, edge_unified):
        out = edge_unified.query(
            "FOR d IN edge_docs FILTER d.g == 'b' COLLECT g = d.g "
            "AGGREGATE rows = COUNT(1), vals = COUNT(d.v) RETURN {rows, vals}"
        )
        assert out == [{"rows": 2, "vals": 0}]


class TestGroupKeyTyping:
    def test_int_float_str_bool_keys_stay_distinct(self, edge_unified):
        rows = edge_unified.query(AGG_QUERY)
        mixed = [r for r in rows if r["g"] in (1, 1.0, "1", True)]
        assert sorted(r["s"] for r in mixed) == [1.0, 2.0, 4.0, 8.0]

    def test_dict_keys_group_by_content_not_insertion_order(self):
        driver = UnifiedDriver()
        driver.create_collection("pts")

        def loader(session):
            session.doc_insert("pts", {"_id": "p1", "k": {"x": 1, "y": 2}, "v": 1})
            session.doc_insert("pts", {"_id": "p2", "k": {"y": 2, "x": 1}, "v": 2})
            session.doc_insert("pts", {"_id": "p3", "k": {"x": 9, "y": 2}, "v": 4})

        driver.load(loader)
        out = driver.query(
            "FOR p IN pts COLLECT k = p.k AGGREGATE s = SUM(p.v) RETURN s"
        )
        assert sorted(out) == [3.0, 4.0]

    def test_typing_is_placement_independent(self, edge_sharded1, edge_sharded4):
        assert edge_sharded4.query(AGG_QUERY) == edge_sharded1.query(AGG_QUERY)


class TestShardParity:
    def test_edge_semantics_identical_on_shards(
        self, edge_sharded4, edge_sharded1, edge_unified
    ):
        expected = edge_unified.query(AGG_QUERY)
        assert edge_sharded1.query(AGG_QUERY) == expected
        assert edge_sharded4.query(AGG_QUERY) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "FOR o IN orders COLLECT s = o.status AGGREGATE n = COUNT(1) RETURN {s, n}",
            "FOR o IN orders COLLECT c = o.customer_id "
            "AGGREGATE spend = SUM(o.total_price), avg = AVG(o.total_price) "
            "RETURN {c, spend, avg}",
            "FOR o IN orders COLLECT s = o.status "
            "AGGREGATE lo = MIN(o.total_price), hi = MAX(o.total_price) RETURN {s, lo, hi}",
        ],
        ids=["count", "sum_avg", "min_max"],
    )
    def test_grouped_aggregates_byte_identical_1_vs_4(self, text, sharded1, sharded4):
        # Exact equality, unsorted: canonical group ordering plus exact
        # rational SUM/AVG make the answer placement-independent.
        assert sharded4.query(text) == sharded1.query(text)

    def test_order_sensitive_collect_sort_parity(self, sharded1, sharded4):
        text = (
            "FOR o IN orders COLLECT s = o.status "
            "AGGREGATE spend = SUM(o.total_price) "
            "SORT spend DESC RETURN {s, spend}"
        )
        four = sharded4.query(text)
        assert four == sharded1.query(text)
        spends = [row["spend"] for row in four]
        assert spends == sorted(spends, reverse=True)

    def test_collect_into_parity_with_sort(self, sharded1, sharded4):
        # INTO cannot decompose; it must stay single-phase and correct.
        text = (
            "FOR o IN orders COLLECT s = o.status INTO grp "
            "SORT s RETURN {s, k: LENGTH(grp)}"
        )
        assert sharded4.query(text) == sharded1.query(text)

    def test_matches_unified_single_node(self, sharded4, loaded_unified):
        text = (
            "FOR o IN orders COLLECT s = o.status "
            "AGGREGATE n = COUNT(1), spend = SUM(o.total_price) RETURN {s, n, spend}"
        )
        assert sharded4.query(text) == loaded_unified.query(text)


class TestPlanShape:
    AGG = (
        "FOR o IN orders COLLECT s = o.status "
        "AGGREGATE spend = SUM(o.total_price) RETURN {s, spend}"
    )

    def _depth_of(self, plan, operator):
        for line in plan.splitlines():
            if operator in line:
                return len(line) - len(line.lstrip())
        raise AssertionError(f"{operator!r} not in plan:\n{plan}")

    def test_partial_below_gather_final_above(self, sharded4):
        plan = sharded4.explain(self.AGG)
        assert "HashAggregate(partial)" in plan and "HashAggregate(final)" in plan
        assert "COLLECT split into per-shard HashAggregate(partial)" in plan
        final = self._depth_of(plan, "HashAggregate(final)")
        gather = self._depth_of(plan, "ShardExec")
        partial = self._depth_of(plan, "HashAggregate(partial)")
        assert final < gather < partial

    def test_routed_plan_stays_single_phase(self, sharded4):
        plan = sharded4.explain(
            "FOR o IN orders FILTER o._id == @id "
            "COLLECT s = o.status AGGREGATE n = COUNT(1) RETURN {s, n}"
        )
        assert "route: orders._id" in plan
        assert "HashAggregate(single)" in plan
        assert "HashAggregate(partial)" not in plan

    def test_into_stays_single_phase(self, sharded4):
        plan = sharded4.explain(
            "FOR o IN orders COLLECT s = o.status INTO grp RETURN {s, grp}"
        )
        assert "HashAggregate(single)" in plan
        assert "HashAggregate(partial)" not in plan

    def test_pure_builtin_key_splits_and_matches_unified(
        self, sharded4, loaded_unified
    ):
        # A builtin that reads only its argument runs in the shard workers.
        text = (
            "FOR o IN orders COLLECT y = DATE_YEAR(o.order_date) "
            "AGGREGATE n = COUNT(1) RETURN {y, n}"
        )
        plan = sharded4.explain(text)
        assert "HashAggregate(partial)" in plan and "HashAggregate(final)" in plan
        assert self._depth_of(plan, "ShardExec") < self._depth_of(
            plan, "HashAggregate(partial)"
        )
        assert sharded4.query(text) == loaded_unified.query(text)

    def test_bridge_key_stays_single_phase(self, sharded4):
        # DOCUMENT reads another collection: in a worker it would see one
        # shard's slice, so the whole COLLECT stays above the gather.
        plan = sharded4.explain(
            'FOR o IN orders COLLECT c = DOCUMENT("customers", o.customer_id).country '
            "AGGREGATE n = COUNT(1) RETURN {c, n}"
        )
        assert "HashAggregate(single)" in plan
        assert "HashAggregate(partial)" not in plan

    def test_single_node_plan_is_single_phase(self, loaded_unified):
        plan = loaded_unified.explain(self.AGG)
        assert "HashAggregate(single)" in plan
        assert "ShardExec" not in plan


class TestGatherVolume:
    def test_only_group_states_cross_the_gather(self, sharded4, small_dataset):
        report = sharded4.explain_analyze(
            "FOR o IN orders COLLECT s = o.status "
            "AGGREGATE spend = SUM(o.total_price) RETURN {s, spend}"
        )
        rows = {
            name: int(count)
            for name, count in re.findall(r"(\w+)[^\n]*?\(rows=(\d+)", report)
        }
        statuses = {o["status"] for o in small_dataset.orders}
        # Coordinator input == shipped partial states: bounded by
        # shards x groups, far below the matching-row count.
        assert rows["ShardExec"] <= 4 * len(statuses)
        assert rows["ShardExec"] < len(small_dataset.orders)
        assert rows["NestedLoopBind"] == len(small_dataset.orders)
        assert rows["Project"] == len(statuses)

    @pytest.mark.parametrize("threshold", [None, 0])
    def test_q6_ships_at_most_limit_rows_per_shard(
        self, sharded4, small_dataset, threshold
    ):
        # The XPath LET and its FILTER run in the workers, so each shard
        # ships only its partial top-LIMIT: at most 4 x 20 rows cross
        # the gather, not every invoice.  threshold=0 keeps every
        # invoice past the FILTER, so only the per-shard TopK bounds it.
        query = QUERY_BY_ID["Q6"]
        params = query.params(small_dataset)
        if threshold is not None:
            params["threshold"] = threshold
        report = sharded4.explain_analyze(query.text, params)
        rows = {
            name: int(count)
            for name, count in re.findall(r"(\w+)[^\n]*?\(rows=(\d+)", report)
        }
        assert rows["ShardExec"] <= 4 * 20
        assert rows["ShardExec"] < len(small_dataset.invoices)
        assert rows["Project"] == min(20, rows["ShardExec"])
