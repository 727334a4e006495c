"""Request deadlines on the worker wire: timeout → restart → retry.

A wedged worker (hang fault at the ``remote.request`` site) must be
indistinguishable from a crashed one: the coordinator's deadline fires,
the worker is terminated and restarted with a full resync, and the
dispatch is retried once — the query still answers correctly.  And
``close()`` must never stall behind a wedged worker: the shutdown
handshake times out and the reap escalates terminate → kill.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster.sharded import ShardedDatabase
from repro.errors import ClusterError, RemoteTimeout
from repro.faults.registry import FAULTS

SCATTER = "FOR o IN orders FILTER o.total_price >= @lo RETURN o._id"


def _load(db: ShardedDatabase, rows: int = 60) -> None:
    db.create_collection("orders")

    def body(s):
        for i in range(rows):
            s.doc_insert(
                "orders", {"_id": i, "total_price": float((i * 7) % 101)}
            )

    db.run_transaction(body)


@pytest.fixture()
def fast_deadline_db():
    db = ShardedDatabase(
        n_shards=2, pool="processes", pool_workers=1,
        remote_request_timeout=0.75,
    )
    _load(db)
    yield db
    FAULTS.reset()
    db.close()


def test_remote_timeout_is_a_cluster_error():
    assert issubclass(RemoteTimeout, ClusterError)


def test_hung_worker_times_out_and_retry_answers_correctly(fast_deadline_db):
    db = fast_deadline_db
    oracle = db.query(SCATTER, {"lo": 50})
    pool = db.remote_pool()
    assert pool.request_timeouts == 0

    # One-shot hang: consumed parent-side on the first attempt, so the
    # retry against the restarted worker runs clean.
    FAULTS.arm("remote.request", "hang", seconds=30.0)
    started = time.perf_counter()
    assert db.query(SCATTER, {"lo": 50}) == oracle
    elapsed = time.perf_counter() - started

    assert pool.request_timeouts >= 1
    assert pool.retries >= 1
    assert pool.restarts >= 1
    # Bounded by deadline + restart/resync, nowhere near the 30s hang.
    assert elapsed < 20.0
    m = pool.metrics()
    assert m["request_timeouts_total"] == pool.request_timeouts
    assert m["retries_total"] == pool.retries


def test_delay_under_the_deadline_is_not_a_timeout(fast_deadline_db):
    db = fast_deadline_db
    FAULTS.arm("remote.request", "delay", seconds=0.05)
    rows = db.query(SCATTER, {"lo": 0})
    assert len(rows) > 0
    assert db.remote_pool().request_timeouts == 0


def test_timeout_counters_reach_driver_metrics(fast_deadline_db):
    db = fast_deadline_db
    FAULTS.arm("remote.request", "hang", seconds=30.0)
    db.query(SCATTER, {"lo": 0})
    procpool = db.metrics()["collected"]["procpool"]
    assert procpool["request_timeouts_total"] >= 1
    assert procpool["retries_total"] >= 1
    # The fault itself is visible through the faults collector.
    faults = db.metrics()["collected"]["faults"]
    assert faults["injected_remote.request_total"] >= 1


def test_close_escalates_past_a_wedged_worker(fast_deadline_db):
    """Regression: a worker sleeping in a handler ignores the shutdown
    handshake; close() must terminate it instead of joining forever."""
    db = fast_deadline_db
    db.query(SCATTER, {"lo": 0})  # spawn + sync + cache the plan
    pool = db.remote_pool()
    handle = pool._worker(0)
    digest = next(iter(handle.shipped))

    # Fire-and-forget a run frame that makes the worker sleep 60s: it
    # is mid-handler when close() sends the shutdown frame.
    handle.channel.send(
        (
            "run",
            {
                "shard": 0,
                "digest": digest,
                "plan": None,
                "params": {"lo": 0},
                "seed": None,
                "flags": {"use_indexes": True, "batch_size": 256},
                "trace": False,
                "inject": {"op": "hang", "seconds": 60.0},
            },
        )
    )
    time.sleep(0.2)  # let the worker dequeue the frame and start sleeping
    process = handle.process
    assert process.is_alive()

    started = time.perf_counter()
    pool.close()
    elapsed = time.perf_counter() - started

    assert not process.is_alive()
    assert pool.metrics()["alive"] == 0
    # Deadline (0.75s) + escalation grace, never the 60s sleep.
    assert elapsed < 15.0
