"""EXPLAIN golden tests: the physical tree must name its access paths.

``plan().describe()`` is the benchmark's EXPLAIN facility; these tests
pin the operator names and access-path annotations for representative
queries so a plan regression (e.g. a range predicate silently falling
back to a scan) fails loudly.
"""

from repro.query.parser import parse
from repro.query.physical import (
    CollectionScan,
    EquiJoin,
    Filter,
    FusedPipeline,
    HashAggregate,
    IndexEqLookup,
    IndexRangeScan,
    NestedLoopBind,
    Project,
    TopK,
)
from repro.query.planner import plan


def describe(text: str) -> str:
    return plan(parse(text)).describe()


def root_of(text: str):
    return plan(parse(text)).root


class TestAccessPathNaming:
    def test_unfiltered_for_is_a_collection_scan(self):
        out = describe("FOR u IN users RETURN u")
        assert "CollectionScan(users) [scan]" in out

    def test_equality_filter_selects_index_eq_lookup(self):
        out = describe("FOR u IN users FILTER u.country == 'FI' RETURN u")
        assert "IndexEqLookup [index: users.country == 'FI']" in out
        assert "CollectionScan" not in out

    def test_range_filter_selects_index_range_scan(self):
        out = describe("FOR o IN orders FILTER o.total > 10 RETURN o")
        assert "IndexRangeScan [range index: orders.total > 10]" in out

    def test_anded_interval_becomes_one_range_scan(self):
        out = describe(
            "FOR o IN orders FILTER o.total >= 10 AND o.total < 50 RETURN o"
        )
        assert "IndexRangeScan [range index: orders.total >= 10 AND < 50]" in out
        assert out.count("IndexRangeScan") == 1

    def test_unindexable_predicate_scans(self):
        out = describe("FOR o IN orders FILTER o.status LIKE 'ship' RETURN o")
        assert "CollectionScan(orders) [scan]" in out

    def test_dotted_path_is_an_index_candidate(self):
        out = describe("FOR d IN docs FILTER d.address.city == @city RETURN d")
        assert "IndexEqLookup [index: docs.address.city == @city]" in out


class TestOperatorTree:
    def test_physical_chain_shape(self):
        # The whole bind→filter→project spine fuses into one pipeline;
        # the constituent operators stay inspectable in execution order.
        root = root_of("FOR u IN users FILTER u.age > 1 RETURN u.name")
        assert isinstance(root, FusedPipeline)
        assert root.child is None
        bind, filt, project = root.ops
        assert isinstance(bind, NestedLoopBind)
        assert isinstance(bind.access, IndexRangeScan)
        assert isinstance(filt, Filter)
        assert isinstance(project, Project)

    def test_residual_filter_is_kept_above_index_access(self):
        # The index may over-approximate; the predicate must re-check.
        root = root_of("FOR u IN users FILTER u.country == 'FI' RETURN u")
        bind, filt, _ = root.ops
        assert isinstance(filt, Filter)
        assert isinstance(bind.access, IndexEqLookup)

    def test_join_key_probe_on_inner_for(self):
        root = root_of(
            "FOR u IN users FOR o IN orders FILTER o.user == u._id RETURN o"
        )
        # The correlated equality lowers to the join, not to a bind over
        # a per-row IndexEqLookup: residual filter above, outer FOR below.
        filt, _project = root.ops
        assert isinstance(filt, Filter) and not filt.speculative
        join = root.child
        assert isinstance(join, EquiJoin)
        assert join.label() == (
            "EquiJoin [o.user == u._id] (index orders.user, else hash build)"
        )
        # The index key it probes is the one IndexEqLookup used to carry.
        probe = join.probe
        assert isinstance(probe, NestedLoopBind) and probe.var == "o"
        assert isinstance(probe.access, IndexEqLookup)
        assert probe.access.field == "user"
        # The inner side is the FOR alone, with no outer-keyed access path.
        inner = join.subplan
        assert isinstance(inner, NestedLoopBind) and inner.var == "o"
        assert isinstance(inner.access, CollectionScan)
        outer = join.child
        assert isinstance(outer, NestedLoopBind) and outer.var == "u"
        assert isinstance(outer.access, CollectionScan)

    def test_fused_pipeline_renders_one_node_with_detail(self):
        out = describe(
            "FOR u IN users FILTER u.age > 1 LET n = u.name RETURN n"
        )
        assert "FusedPipeline[NestedLoopBind u→Filter→Let n→Project]" in out
        # The access-path annotation stays visible as a detail line.
        assert "· NestedLoopBind u: IndexRangeScan" in out

    def test_blocking_operators_are_not_fused(self):
        root = root_of(
            "FOR o IN orders SORT o.total LIMIT 500 RETURN o._id"
        )
        # Project above TopK cannot fuse across it: the chain splits.
        assert isinstance(root, Project)
        assert isinstance(root.child, TopK)
        assert isinstance(root.child.child, NestedLoopBind)


class TestTopKFusion:
    def test_sort_limit_fuses(self):
        out = describe("FOR o IN orders SORT o.total DESC LIMIT 10 RETURN o._id")
        assert "TopK" in out and "fused SORT+LIMIT" in out
        assert "Sort [" not in out and "Limit [" not in out

    def test_fused_operator_in_tree(self):
        root = root_of("FOR o IN orders SORT o.total DESC LIMIT 2, 10 RETURN o")
        assert isinstance(root.child, TopK)
        assert root.child.offset is not None

    def test_sort_without_limit_stays_sort(self):
        out = describe("FOR o IN orders SORT o.total RETURN o")
        assert "Sort [1 keys]" in out and "TopK" not in out

    def test_limit_without_sort_stays_limit(self):
        out = describe("FOR o IN orders LIMIT 5 RETURN o")
        assert "Limit [5]" in out and "TopK" not in out

    def test_separated_sort_and_limit_do_not_fuse(self):
        # A COLLECT between them re-shapes the stream: no fusion.
        out = describe(
            "FOR o IN orders SORT o.total COLLECT s = o.status LIMIT 3 RETURN s"
        )
        assert "Sort [" in out and "Limit [" in out and "TopK" not in out


class TestHashAggregateNaming:
    def test_collect_lowers_to_single_phase_hash_aggregate(self):
        out = describe(
            "FOR o IN orders COLLECT s = o.status "
            "AGGREGATE n = COUNT(1), t = SUM(o.total) RETURN {s, n, t}"
        )
        assert "HashAggregate(single) [s] (2 aggregates)" in out

    def test_collect_operator_in_tree(self):
        root = root_of("FOR o IN orders COLLECT s = o.status RETURN s")
        agg = root.child
        assert isinstance(agg, HashAggregate)
        assert agg.mode == "single"
        assert agg.clause.keys[0][0] == "s"

    def test_collect_into_renders_keys(self):
        out = describe(
            "FOR o IN orders COLLECT s = o.status, u = o.user INTO g RETURN g"
        )
        assert "HashAggregate(single) [s, u] (0 aggregates)" in out


class TestOptimizerNotes:
    def test_pushdown_note_and_enabled_index(self):
        out = describe(
            "FOR c IN customers FOR o IN orders "
            "FILTER o.customer_id == c.id AND c.country == 'FI' RETURN o"
        )
        assert "pushdown: FILTER c.country == 'FI' hoisted before FOR o" in out
        # The hoisted conjunct makes the outer FOR indexable too.
        assert "IndexEqLookup [index: customers.country == 'FI']" in out
        assert "FOR o: candidate index orders.customer_id (equality)" in out
        assert (
            "EquiJoin [o.customer_id == c.id] "
            "(index orders.customer_id, else hash build)"
        ) in out
        # A correlated key never lowers to a per-row IndexEqLookup as well.
        assert "IndexEqLookup [index: orders" not in out

    def test_dead_let_pruned(self):
        explained = plan(parse(
            "FOR u IN users LET unused = u.age * 2 RETURN u.name"
        ))
        assert "pruned unused LET unused" in explained.describe()
        assert "Let unused" not in explained.describe()

    def test_used_let_survives(self):
        out = describe("FOR u IN users LET a = u.age RETURN a")
        assert "Let a = u.age" in out

    def test_let_feeding_collect_into_survives(self):
        # INTO captures whole bindings: nothing upstream may be pruned.
        out = describe(
            "FOR u IN users LET a = u.age COLLECT c = u.country INTO g RETURN g"
        )
        assert "Let a = u.age" in out
