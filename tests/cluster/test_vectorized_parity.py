"""The 1-vs-4-shard half of the execution-mode differential matrix.

``tests/query/test_compile_parity.py`` proves the mode matrix
{interpreted, compiled, batched, fused} identical on a single node; this
file proves the same queries stay identical when the plan gains a
ShardExec gather — on a degenerate 1-shard cluster and a 4-shard
cluster — so batch shipping through the scatter/gather cannot reorder,
drop, or duplicate rows.
"""

from __future__ import annotations

import pytest

from repro.core.workloads import QUERIES

from tests.query.test_compile_parity import _VARIANT_MODES, EXECUTION_MODES

# Queries whose results are deterministically ordered (explicit SORT or
# single-row lookups) compare by value+order; the rest compare as
# multisets because scatter order across shards is topology-dependent.
_ORDERED = {"Q3", "Q5", "Q7"}


def _canon(query, rows):
    if query.query_id in _ORDERED:
        return repr(rows)
    return repr(sorted(rows, key=repr))


@pytest.mark.parametrize("mode", _VARIANT_MODES)
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.query_id)
class TestShardModeMatrix:
    def test_modes_match_interpreter_on_each_topology(
        self, query, mode, sharded1, sharded4, small_dataset
    ):
        params = query.params(small_dataset)
        for cluster in (sharded1, sharded4):
            oracle = cluster.query(
                query.text, params, **EXECUTION_MODES["interpreted"]
            )
            candidate = cluster.query(query.text, params, **EXECUTION_MODES[mode])
            assert _canon(query, candidate) == _canon(query, oracle), (
                f"{mode} diverged on {cluster.n_shards}-shard cluster"
            )

    def test_topologies_agree_with_the_unified_store(
        self, query, mode, sharded1, sharded4, loaded_unified, small_dataset
    ):
        params = query.params(small_dataset)
        flags = EXECUTION_MODES[mode]
        single = loaded_unified.query(query.text, params, **flags)
        one = sharded1.query(query.text, params, **flags)
        four = sharded4.query(query.text, params, **flags)
        assert _canon(query, one) == _canon(query, four) == _canon(query, single)


@pytest.mark.parametrize("mode", _VARIANT_MODES)
def test_tiny_batches_cross_the_gather(sharded4, small_dataset, mode):
    """batch_size=1 forces a flush at every gather boundary."""
    text = "FOR o IN orders SORT o.total_price DESC LIMIT 7 RETURN o._id"
    oracle = sharded4.query(text, **EXECUTION_MODES["interpreted"])
    got = sharded4.query(text, batch_size=1, **EXECUTION_MODES[mode])
    assert got == oracle


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


@pytest.mark.parametrize("mode", _VARIANT_MODES)
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.query_id)
def test_process_pool_matches_thread_pool(
    query, mode, sharded4, sharded4p, small_dataset
):
    """pool="processes" is a drop-in: same rows, every query, every mode.

    Shard subplans run in forked worker processes against synced
    replicas here (with in-process fallback only for subplans that
    cannot serialize), so this column proves the wire protocol —
    subplan shipping, batch/AggPartial result frames, replica sync —
    preserves the exact results of the in-process thread scatter.
    """
    params = query.params(small_dataset)
    flags = EXECUTION_MODES[mode]
    threaded = sharded4.query(query.text, params, **flags)
    processed = sharded4p.query(query.text, params, **flags)
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
