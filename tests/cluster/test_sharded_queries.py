"""MMQL on the cluster: parity with single-node, routing, and EXPLAIN."""

import pytest

from repro.cluster.sharded import ShardedDatabase
from repro.cluster.partition import RangePartitioner
from repro.core.workloads import EXTENDED_QUERIES, QUERIES
from repro.datagen.load import load_dataset
from repro.query.executor import Executor

ALL_QUERIES = QUERIES + EXTENDED_QUERIES


def _round_floats(value):
    """Aggregation order differs between gather plans and single-node
    plans, so float sums drift at ULP level — same tolerance as the
    unified/polyglot parity suite."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_floats(v) for v in value]
    return value


def _canonical(value):
    return sorted(repr(_round_floats(v)) for v in value)


def _ordered(value):
    return [repr(_round_floats(v)) for v in value]


class TestClusterParity:
    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.query_id)
    def test_four_shards_match_unified(
        self, query, small_dataset, sharded4, loaded_unified
    ):
        params = query.params(small_dataset)
        assert _canonical(sharded4.query(query.text, params)) == _canonical(
            loaded_unified.query(query.text, params)
        )

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.query_id)
    def test_one_shard_matches_four_shards(
        self, query, small_dataset, sharded1, sharded4
    ):
        params = query.params(small_dataset)
        assert _canonical(sharded1.query(query.text, params)) == _canonical(
            sharded4.query(query.text, params)
        )

    @pytest.mark.parametrize(
        "query",
        [q for q in ALL_QUERIES if "SORT" in q.text],
        ids=lambda q: q.query_id,
    )
    def test_sorted_queries_preserve_order(
        self, query, small_dataset, sharded4, loaded_unified
    ):
        """Order-sensitive parity: the ordered merge (and stable tie
        handling) must reproduce the exact single-node output order."""
        params = query.params(small_dataset)
        assert _ordered(sharded4.query(query.text, params)) == _ordered(
            loaded_unified.query(query.text, params)
        )

    @pytest.mark.parametrize("query", ALL_QUERIES, ids=lambda q: q.query_id)
    def test_indexes_do_not_change_cluster_answers(
        self, query, small_dataset, sharded4
    ):
        params = query.params(small_dataset)
        assert _canonical(
            sharded4.query(query.text, params, use_indexes=True)
        ) == _canonical(sharded4.query(query.text, params, use_indexes=False))


class TestRouting:
    def test_shard_key_equality_routes_to_one_shard(self, sharded4, small_dataset):
        order_id = small_dataset.orders[0]["_id"]
        ctx = sharded4.query_context()
        try:
            executor = Executor(ctx)
            rows = executor.execute(
                "FOR o IN orders FILTER o._id == @id RETURN o._id", {"id": order_id}
            )
            assert rows == [order_id]
            assert executor.stats["shard_fanout"] == 1
            # Lazy snapshots: the routed query began a transaction on
            # exactly one shard, not all four.
            assert sum(1 for c in ctx._contexts if c is not None) == 1
        finally:
            ctx.close()

    def test_float_typed_key_routes_like_equality(self, sharded4, small_dataset):
        # MMQL '==' is Python equality, so 3.0 must probe the shard that
        # holds _id == 3 (stable_hash normalises numerically equal keys).
        customer = small_dataset.customers[0]["id"]
        via_int = sharded4.query(
            "FOR c IN customers FILTER c.id == @k RETURN c.last_name", {"k": customer}
        )
        via_float = sharded4.query(
            "FOR c IN customers FILTER c.id == @k RETURN c.last_name",
            {"k": float(customer)},
        )
        assert via_float == via_int and via_int

    def test_non_key_predicates_scatter(self, sharded4):
        ctx = sharded4.query_context()
        try:
            executor = Executor(ctx)
            executor.execute("FOR o IN orders FILTER o.status == 'shipped' RETURN o._id")
            assert executor.stats["shard_fanout"] == 4
        finally:
            ctx.close()

    def test_document_builtin_routes_point_lookups(self, sharded4, small_dataset):
        customer_id = small_dataset.customers[0]["id"]
        rows = sharded4.query(
            "RETURN DOCUMENT('customers', @id)", {"id": customer_id}
        )
        assert rows[0]["id"] == customer_id

    def test_range_partitioner_prunes_shards(self):
        driver = ShardedDatabase(
            n_shards=3,
            shard_keys={"events": "seq"},
            partitioners={"events": RangePartitioner([100, 200])},
        )
        try:
            driver.create_collection("events")
            with driver.transaction() as s:
                for seq in range(0, 300, 10):
                    s.doc_insert("events", {"_id": f"e{seq}", "seq": seq})
            ctx = driver.query_context()
            try:
                executor = Executor(ctx)
                rows = executor.execute(
                    "FOR e IN events FILTER e.seq >= @lo AND e.seq < @hi RETURN e.seq",
                    {"lo": 110, "hi": 190},
                )
                assert sorted(rows) == list(range(110, 190, 10))
                # Both bounds fall inside the middle bucket: one shard.
                assert executor.stats["shard_fanout"] == 1
            finally:
                ctx.close()
            # Placement really is by range: shard 0 has only seq < 100.
            with driver.shards[0].transaction() as s:
                assert all(d["seq"] < 100 for d in s.doc_scan("events"))
        finally:
            driver.close()

    def test_custom_shard_key_routing_in_mmql(self, small_dataset):
        driver = ShardedDatabase(n_shards=4, shard_keys={"orders": "customer_id"})
        load_dataset(driver, small_dataset)
        try:
            customer_id = small_dataset.orders[0]["customer_id"]
            ctx = driver.query_context()
            try:
                executor = Executor(ctx)
                rows = executor.execute(
                    "FOR o IN orders FILTER o.customer_id == @c RETURN o._id",
                    {"c": customer_id},
                )
                expected = sorted(
                    o["_id"] for o in small_dataset.orders
                    if o["customer_id"] == customer_id
                )
                assert sorted(rows) == expected
                assert executor.stats["shard_fanout"] == 1
            finally:
                ctx.close()
        finally:
            driver.close()


class TestClusterExplain:
    def test_routed_plan_names_the_shard_key(self, sharded4):
        plan = sharded4.explain("FOR o IN orders FILTER o._id == @id RETURN o")
        assert "ShardExec [route: orders._id == @id -> 1 of 4 shards" in plan
        assert "sharding: shard-key equality" in plan

    def test_scatter_plan_shows_fanout_and_merge(self, sharded4):
        plan = sharded4.explain(
            "FOR o IN orders SORT o.total_price DESC LIMIT 10 RETURN o._id"
        )
        assert "scatter: all 4 shards" in plan
        assert "ordered merge on 1 keys" in plan
        assert "TopK" in plan  # partial top-k pushed below the gather
        assert "sharding: TopK split into per-shard partial top-k" in plan

    def test_sort_without_limit_becomes_merge_sort(self, sharded4):
        plan = sharded4.explain("FOR o IN orders SORT o.total_price RETURN o._id")
        assert "Sort" in plan and "ordered merge" in plan
        assert "sharding: SORT parallelised into per-shard sort" in plan

    def test_cheap_filters_are_pushed_below_the_gather(self, sharded4):
        plan = sharded4.explain(
            "FOR o IN orders FILTER o.total_price > 100 RETURN o._id"
        )
        shard_line = plan.index("ShardExec")
        assert plan.index("Filter", shard_line) > shard_line  # filter inside subplan

    def test_q6_xpath_let_runs_below_the_gather(self, sharded4):
        # Limit -> ShardExec[ordered merge] -> TopK -> Fused[scan->Let->Filter]:
        # the XPath LET and its FILTER run in the shard workers.
        q6 = next(q for q in QUERIES if q.query_id == "Q6")
        plan = sharded4.explain(q6.text)
        positions = [
            plan.index(fragment)
            for fragment in (
                "Limit [",
                "ShardExec [scatter: all 4 shards; gather: ordered merge",
                "TopK [",
                "FusedPipeline[NestedLoopBind inv→Let total→Filter]",
                "Let total = TO_NUMBER(FIRST(XPATH(inv.root",
            )
        ]
        assert positions == sorted(positions)
        assert "sharding: TopK split into per-shard partial top-k" in plan

    def test_broadcast_and_single_shard_plans_stay_single_node(
        self, sharded4, sharded1
    ):
        # Graph vertices are broadcast: no gather operator.
        assert "ShardExec" not in sharded4.explain("FOR v IN social RETURN v._id")
        # A 1-shard cluster never scatters.
        assert "ShardExec" not in sharded1.explain("FOR o IN orders RETURN o._id")

    def test_unsharded_explain_is_unchanged(self, loaded_unified):
        plan = loaded_unified.explain("FOR o IN orders RETURN o._id")
        assert "ShardExec" not in plan
