"""The 1-vs-4-shard half of the engine-vs-reference differential suite.

``tests/query/test_compile_parity.py`` proves the engine equal to the
clause-at-a-time reference interpreter on a single node; this file
proves the same queries stay equal when the plan gains a ShardExec
gather — on a degenerate 1-shard cluster and a 4-shard cluster — so
batch shipping through the scatter/gather cannot reorder, drop, or
duplicate rows.  The oracle runs over the unified store's snapshot of
the same dataset.
"""

from __future__ import annotations

import pytest

from repro.core.workloads import QUERIES

from tests.query.test_compile_parity import _reference

# Queries whose results are deterministically ordered (explicit SORT or
# single-row lookups) compare by value+order; the rest compare as
# multisets because scatter order across shards is topology-dependent.
_ORDERED = {"Q3", "Q5", "Q7"}


def _canon(query, rows):
    if query.query_id in _ORDERED:
        return repr(rows)
    return repr(sorted(rows, key=repr))


_INDEXES = pytest.mark.parametrize("use_indexes", [True, False], ids=["indexes", "scans"])


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.query_id)
class TestShardTopologies:
    @_INDEXES
    @pytest.mark.parametrize("topology", ["sharded1", "sharded4"])
    def test_each_topology_matches_the_reference(
        self, query, topology, use_indexes, request, loaded_unified, small_dataset
    ):
        cluster = request.getfixturevalue(topology)
        params = query.params(small_dataset)
        oracle = _canon(query, _reference(loaded_unified, query.text, params))
        candidate = cluster.query(query.text, params, use_indexes=use_indexes)
        assert _canon(query, candidate) == oracle

    def test_topologies_agree_with_the_unified_store(
        self, query, sharded1, sharded4, loaded_unified, small_dataset
    ):
        params = query.params(small_dataset)
        single = loaded_unified.query(query.text, params)
        one = sharded1.query(query.text, params)
        four = sharded4.query(query.text, params)
        assert _canon(query, one) == _canon(query, four) == _canon(query, single)


def test_tiny_batches_cross_the_gather(sharded4, loaded_unified):
    """batch_size=1 forces a flush at every gather boundary."""
    text = "FOR o IN orders SORT o.total_price DESC LIMIT 7 RETURN o._id"
    oracle = _reference(loaded_unified, text)
    assert sharded4.query(text, batch_size=1) == oracle == sharded4.query(text)


# -- process-pool column of the matrix ----------------------------------------


@pytest.fixture(scope="session")
def sharded4p(small_dataset):
    """The 4-shard cluster again, scattering onto worker processes."""
    from repro.cluster.sharded import ShardedDatabase
    from repro.datagen.load import load_dataset

    driver = ShardedDatabase(n_shards=4, pool="processes")
    load_dataset(driver, small_dataset)
    yield driver
    driver.close()


@_INDEXES
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.query_id)
def test_process_pool_matches_thread_pool(
    query, use_indexes, sharded4, sharded4p, small_dataset
):
    """pool="processes" is a drop-in: same rows, every query, with and
    without indexes.

    Shard subplans run in forked worker processes against synced
    replicas here (with in-process fallback only for subplans that
    cannot serialize), so this column proves the wire protocol —
    subplan shipping, batch/AggPartial result frames, replica sync —
    preserves the exact results of the in-process thread scatter.
    """
    params = query.params(small_dataset)
    threaded = sharded4.query(query.text, params, use_indexes=use_indexes)
    processed = sharded4p.query(query.text, params, use_indexes=use_indexes)
    assert _canon(query, processed) == _canon(query, threaded)


def test_thread_scatter_fallback_is_counted(sharded4, sharded4p, small_dataset):
    """An unpicklable payload still answers — in-process — but never silently.

    ``procpool.local_fallbacks`` stays 0 across the whole Q1–Q12 suite
    (every benchmark subplan and binding crosses the wire) and moves by
    exactly one for a scatter whose parameters carry a lambda.
    """
    for query in QUERIES:
        sharded4p.query(query.text, query.params(small_dataset))
    pool = sharded4p.remote_pool()
    assert pool.local_fallbacks == 0
    text = "FOR o IN orders FILTER o.total_price >= @lo RETURN o._id"
    params = {"lo": 0, "unpicklable": lambda: None}
    frames = pool.metrics()["frames_sent"]
    assert sorted(sharded4p.query(text, params)) == sorted(
        sharded4.query(text, params)
    )
    assert pool.metrics()["frames_sent"] == frames  # ran on threads
    assert sharded4p.metrics()["collected"]["procpool"]["local_fallbacks"] == 1


def test_routed_single_shard_forwards_batches_untouched():
    """fanout == 1 skips the gather: batches cross by reference.

    The routed path must add zero batch copies — the exact list objects
    the shard subplan yields are the ones ShardExec yields upward.
    """
    from dataclasses import fields

    from repro.cluster.operators import ShardExec
    from repro.cluster.sharded import ShardedDatabase
    from repro.query.executor import Executor
    from repro.query.parser import parse
    from repro.query.planner import plan as plan_query

    db = ShardedDatabase(n_shards=4)
    db.create_collection("orders")

    def body(s):
        for i in range(40):
            s.doc_insert("orders", {"_id": i, "total_price": i * 3})

    db.run_transaction(body)

    def find_shard_exec(node):
        if isinstance(node, ShardExec):
            return node
        for f in fields(node):
            value = getattr(node, f.name)
            if hasattr(value, "run_batches"):
                found = find_shard_exec(value)
                if found is not None:
                    return found
        return None

    planned = plan_query(
        parse("FOR o IN orders FILTER o._id == @id RETURN o.total_price"),
        catalog=db.router,
    )
    gather = find_shard_exec(planned.root)
    assert gather is not None and gather.route_expr is not None

    produced = []
    subplan = gather.subplan
    inner = type(subplan).run_batches

    def spy(rt, params, seed=None):
        for batch in inner(subplan, rt, params, seed):
            produced.append(id(batch))
            yield batch

    object.__setattr__(subplan, "run_batches", spy)
    rt = Executor(db.query_context())
    forwarded = [
        id(batch) for batch in gather.run_batches(rt, {"id": 7})
    ]
    assert forwarded == produced and len(produced) >= 1
    db.close()
