"""Worker-process pool: lifecycle, sync, parity, crash recovery, metrics.

Everything here runs the *real* protocol — forked worker processes, the
frame codec, replica sync — against small clusters, so the tests double
as an integration check that a ``pool="processes"`` cluster is a
drop-in for ``pool="threads"``.
"""

from __future__ import annotations

import os

import pytest

from repro.cluster.sharded import ShardedDatabase
from repro.errors import ClusterError

SCATTER = "FOR o IN orders FILTER o.total_price >= @lo RETURN o._id"
TOPK = "FOR o IN orders SORT o.total_price DESC LIMIT 5 RETURN o.total_price"
GROUPED = (
    "FOR o IN orders COLLECT r = o.region AGGREGATE t = SUM(o.total_price) "
    "SORT r RETURN {r: r, t: t}"
)
ROUTED = "FOR o IN orders FILTER o._id == @id RETURN o.total_price"


def _load(db: ShardedDatabase, rows: int = 120) -> None:
    db.create_collection("orders")

    def body(s):
        for i in range(rows):
            s.doc_insert(
                "orders",
                {
                    "_id": i,
                    # Float prices: the exact-Fraction partial-sum path
                    # must merge identically across process boundaries.
                    "total_price": ((i * 7) % 101) + 0.1,
                    "region": f"r{i % 4}",
                },
            )

    db.run_transaction(body)


@pytest.fixture()
def procs4():
    db = ShardedDatabase(n_shards=4, pool="processes")
    _load(db)
    yield db
    db.close()


@pytest.fixture()
def threads4():
    db = ShardedDatabase(n_shards=4, pool="threads")
    _load(db)
    yield db
    db.close()


def test_pool_mode_is_validated():
    with pytest.raises(ClusterError):
        ShardedDatabase(n_shards=2, pool="fibers")


def test_scatter_parity_with_thread_pool(procs4, threads4):
    for text, params in (
        (SCATTER, {"lo": 50}),
        (TOPK, None),
        (GROUPED, None),
        (ROUTED, {"id": 7}),
    ):
        threaded = threads4.query(text, params)
        processed = procs4.query(text, params)
        assert sorted(map(repr, processed)) == sorted(map(repr, threaded)), text


def test_grouped_aggregate_sums_are_exact(procs4, threads4):
    """Float SUMs cross the wire as Fraction partials: byte-identical."""
    assert procs4.query(GROUPED) == threads4.query(GROUPED)


def test_queries_actually_ran_in_worker_processes(procs4):
    procs4.query(SCATTER, {"lo": 0})
    pool = procs4.remote_pool()
    info = pool.ping(0)
    assert info["pid"] != os.getpid()
    assert info["shards"]  # replicas were synced before the run
    metrics = pool.metrics()
    assert metrics["alive"] >= 1
    assert metrics["plans_shipped"] >= 1
    assert metrics["synced_records"] > 0


def test_writes_after_dispatch_are_resynced(procs4):
    assert procs4.query(SCATTER, {"lo": 1000}) == []

    def write(s):
        s.doc_insert(
            "orders", {"_id": 999, "total_price": 1234.5, "region": "rX"}
        )

    procs4.run_transaction(write)
    assert procs4.query(SCATTER, {"lo": 1000}) == [999]


def test_routed_queries_stay_in_process(procs4):
    """A single-target route never pays a process round trip."""
    before = procs4.remote_pool().metrics()["frames_sent"]
    assert procs4.query(ROUTED, {"id": 3}) == [((3 * 7) % 101) + 0.1]
    assert procs4.remote_pool().metrics()["frames_sent"] == before


def test_worker_crash_restarts_and_retries(procs4):
    oracle = procs4.query(SCATTER, {"lo": 50})
    pool = procs4.remote_pool()
    for handle in pool._workers:
        if handle is not None:
            handle.process.kill()
            handle.process.join()
    assert procs4.query(SCATTER, {"lo": 50}) == oracle
    assert pool.restarts >= 1
    # The restarted worker was fully resynced, not left stale.
    assert procs4.query(GROUPED) == procs4.query(GROUPED)


def test_close_is_graceful_and_pool_respawns(procs4):
    oracle = procs4.query(SCATTER, {"lo": 50})
    first = procs4.remote_pool()
    procs4.close()
    assert first.metrics()["alive"] == 0
    # A closed cluster that keeps serving queries builds a fresh pool.
    assert procs4.query(SCATTER, {"lo": 50}) == oracle
    assert procs4.remote_pool() is not first


def test_cluster_crash_recovery_rebuilds_workers(procs4):
    oracle = procs4.query(GROUPED)
    recovered = procs4.crash()
    try:
        assert recovered.query(GROUPED) == oracle
        assert recovered.remote_pool() is not None
    finally:
        recovered.close()


def test_fewer_workers_than_shards():
    db = ShardedDatabase(n_shards=4, pool="processes", pool_workers=1)
    _load(db, rows=60)
    try:
        pool = db.remote_pool()
        assert pool.n_workers == 1
        threaded = ShardedDatabase(n_shards=4, pool="threads")
        _load(threaded, rows=60)
        assert sorted(db.query(SCATTER, {"lo": 0})) == sorted(
            threaded.query(SCATTER, {"lo": 0})
        )
        # All four shards are replicas of the one worker.
        assert pool.ping(0)["pid"] == pool.ping(3)["pid"]
        assert pool.ping(0)["shards"] == [0, 1, 2, 3]
        threaded.close()
    finally:
        db.close()


def test_queue_wait_histogram_fills(procs4):
    obs = procs4.observability
    obs.enable()
    procs4.query(SCATTER, {"lo": 0})
    assert obs.shard_queue_seconds.count == procs4.n_shards
    assert obs.shard_seconds.count == procs4.n_shards
    snap = procs4.metrics()
    assert snap["collected"]["procpool"]["workers"] >= 1


def test_worker_spans_cross_the_boundary(procs4):
    obs = procs4.observability
    obs.enable(tracing=True)
    procs4.query(SCATTER, {"lo": 0})
    trace = obs.last_trace
    workers = [s for s in trace.root.walk() if s.name == "worker"]
    assert len(workers) == procs4.n_shards
    for span in workers:
        assert span.attrs["pid"] != os.getpid()
        assert span.elapsed_ms is not None


def test_unknown_wire_op_propagates_as_error(procs4):
    pool = procs4.remote_pool()
    handle = pool._worker(0)
    with handle.lock:
        op, payload = handle.channel.request(("frobnicate", {}))
    assert op == "error"
    assert "unknown wire op" in payload["message"]
    # The worker survives a bad frame and keeps serving.
    assert pool.ping(0)["pid"] == handle.process.pid
