"""EXPLAIN ANALYZE-lite: per-operator actual row counts, observable routing."""

import re

from repro.query.analyze import explain_analyze, instrument, render_analyzed
from repro.query.parser import parse
from repro.query.planner import plan


def _rows_of(report: str, operator: str) -> int:
    for line in report.splitlines():
        if operator in line:
            match = re.search(r"rows=(\d+)", line)
            assert match, f"no rows= on line {line!r}"
            return int(match.group(1))
    raise AssertionError(f"operator {operator!r} not in report:\n{report}")


class TestUnifiedAnalyze:
    def test_counts_reflect_filtering(self, loaded_unified, small_dataset):
        # order_date has no index: the fused bind→filter→project chain
        # reports its *output* rows on one node; the scan volume stays
        # visible in the stats line.
        report = loaded_unified.explain_analyze(
            "FOR o IN orders FILTER o.order_date LIKE '2016%' RETURN o._id"
        )
        returned = _rows_of(report, "FusedPipeline")
        expected = sum(
            1 for o in small_dataset.orders if o["order_date"].startswith("2016")
        )
        assert returned == expected
        assert f"rows_scanned={len(small_dataset.orders)}" in report

    def test_fused_node_reports_batches_and_detail(self, loaded_unified):
        report = loaded_unified.explain_analyze(
            "FOR o IN orders FILTER o.status == 'shipped' RETURN o._id"
        )
        assert "FusedPipeline[NestedLoopBind o→Filter→Project]" in report
        # Constituent access paths stay visible as detail lines.
        assert "· NestedLoopBind o: IndexEqLookup" in report
        match = re.search(
            r"FusedPipeline\[[^\]]*\] \(rows=(\d+), batches=(\d+)", report
        )
        assert match is not None
        assert int(match.group(1)) > 0 and int(match.group(2)) >= 1

    def test_index_probe_binds_fewer_rows_than_a_scan(self, loaded_unified):
        # status rides its hash index: the bind emits only the matches.
        report = loaded_unified.explain_analyze(
            "FOR o IN orders FILTER o.status == 'shipped' RETURN o._id"
        )
        assert _rows_of(report, "NestedLoopBind") == _rows_of(report, "Filter")
        assert "index_lookups=1" in report

    def test_topk_shows_bounded_output(self, loaded_unified):
        report = loaded_unified.explain_analyze(
            "FOR o IN orders SORT o.total_price DESC LIMIT 7 RETURN o._id"
        )
        assert _rows_of(report, "TopK") == 7
        assert "stats:" in report

    def test_stats_line_is_complete_and_sorted(self, loaded_unified):
        """Every registered counter renders, zeros included, in sorted
        order — "no index was used" must read index_lookups=0, not as a
        missing key, and the line's shape must not vary per query."""
        report = loaded_unified.explain_analyze(
            "FOR o IN orders SORT o.total_price DESC LIMIT 7 RETURN o._id"
        )
        stats_line = next(
            line for line in report.splitlines() if line.startswith("stats:")
        )
        keys = [
            pair.split("=")[0]
            for pair in stats_line[len("stats: "):].split(", ")
        ]
        assert keys == sorted(keys)
        for key in (
            "index_lookups", "range_lookups", "scans",
            "rows_scanned", "scan_cache_hits",
        ):
            assert f"{key}=" in stats_line

    def test_index_probe_counts_only_matches(self, loaded_unified, small_dataset):
        target = small_dataset.orders[0]["customer_id"]
        report = loaded_unified.explain_analyze(
            "FOR o IN orders FILTER o.customer_id == @c RETURN o._id", {"c": target}
        )
        expected = sum(
            1 for o in small_dataset.orders if o["customer_id"] == target
        )
        assert _rows_of(report, "NestedLoopBind") == expected
        assert "index_lookups=1" in report


class TestShardedAnalyze:
    def test_routed_query_reports_single_shard(self, sharded4, small_dataset):
        order_id = small_dataset.orders[0]["_id"]
        report = sharded4.explain_analyze(
            "FOR o IN orders FILTER o._id == @id RETURN o.status", {"id": order_id}
        )
        assert "route: orders._id" in report
        assert _rows_of(report, "ShardExec") == 1
        assert "shard_fanout=1" in report

    def test_scatter_gather_counts_sum_over_shards(self, sharded4, small_dataset):
        report = sharded4.explain_analyze("FOR o IN orders RETURN o._id")
        assert "scatter: all 4 shards" in report
        assert _rows_of(report, "ShardExec") == len(small_dataset.orders)
        # The per-shard subplan bind sums to the same total.
        assert _rows_of(report, "NestedLoopBind") == len(small_dataset.orders)
        assert "shard_fanout=4" in report

    def test_partial_topk_counts_per_shard_candidates(self, sharded4):
        report = sharded4.explain_analyze(
            "FOR o IN orders SORT o.total_price DESC LIMIT 5 RETURN o._id"
        )
        # Each of 4 shards keeps at most k=5 candidates; the gather sees
        # their union, the global limit trims to 5.
        assert _rows_of(report, "TopK") <= 20
        assert _rows_of(report, "Limit") == 5


class TestAggregationAnalyze:
    AGG = (
        "FOR o IN orders COLLECT s = o.status "
        "AGGREGATE spend = SUM(o.total_price) RETURN {s, spend}"
    )

    def test_single_node_aggregate_reports_rows_in_and_groups(
        self, loaded_unified, small_dataset
    ):
        report = loaded_unified.explain_analyze(self.AGG)
        line = next(
            ln for ln in report.splitlines() if "HashAggregate(single)" in ln
        )
        rows_in = int(re.search(r"rows_in=(\d+)", line).group(1))
        groups = int(re.search(r"groups=(\d+)", line).group(1))
        statuses = {o["status"] for o in small_dataset.orders}
        assert rows_in == len(small_dataset.orders)
        assert groups == len(statuses) == _rows_of(report, "HashAggregate")

    def test_pushdown_row_reduction_is_visible_per_phase(
        self, sharded4, small_dataset
    ):
        report = sharded4.explain_analyze(self.AGG)
        statuses = {o["status"] for o in small_dataset.orders}
        partial = next(
            ln for ln in report.splitlines() if "HashAggregate(partial)" in ln
        )
        final = next(
            ln for ln in report.splitlines() if "HashAggregate(final)" in ln
        )
        # Partial phase: all matching rows in, per-shard group states out.
        assert int(re.search(r"rows_in=(\d+)", partial).group(1)) == len(
            small_dataset.orders
        )
        partial_groups = int(re.search(r"groups=(\d+)", partial).group(1))
        assert partial_groups <= 4 * len(statuses)
        # The gather carries exactly the partial states to the final phase.
        assert _rows_of(report, "ShardExec") == partial_groups
        assert int(re.search(r"rows_in=(\d+)", final).group(1)) == partial_groups
        assert int(re.search(r"groups=(\d+)", final).group(1)) == len(statuses)

    def test_coordinator_input_is_groups_not_rows(self, sharded4, small_dataset):
        report = sharded4.explain_analyze(self.AGG)
        assert _rows_of(report, "ShardExec") < len(small_dataset.orders)
        assert _rows_of(report, "NestedLoopBind") == len(small_dataset.orders)


class TestInstrumentation:
    def test_instrumented_tree_matches_plain_results(self, loaded_unified):
        from repro.query.executor import Executor

        text = "FOR o IN orders SORT o.total_price DESC LIMIT 3 RETURN o._id"
        plain = loaded_unified.query(text)
        ctx = loaded_unified.query_context()
        try:
            counted = instrument(plan(parse(text)).root)
            executor = Executor(ctx)
            executor.analyze = True
            drained = [row for batch in counted.run_batches(executor, {}) for row in batch]
            assert drained == plain
            lines = render_analyzed(counted)
            assert all("rows=" in line for line in lines)
        finally:
            ctx.close()
