"""Worker replicas catch up from a log cursor.

One record index per (worker, shard), compared with ``len(wal)``: reads
log nothing so a read-only stream never syncs, a write ships exactly
the record suffix it appended, undecided transactions stay invisible on
the worker until their verdict ships, and a cursor that no longer fits
its log rebuilds the replica from 0.
"""

from __future__ import annotations

import pytest

from repro.cluster.sharded import ShardedDatabase
from repro.engine.database import MultiModelDatabase
from repro.errors import SimulatedCrash
from repro.replication import ReplicaSetConfig
from repro.replication.replicaset import _rebuild_leader_db

ALL_IDS = "FOR o IN orders RETURN o._id"
ROWS = 40


def _load(db: ShardedDatabase) -> None:
    db.create_collection("orders")

    def body(s):
        for i in range(ROWS):
            s.doc_insert("orders", {"_id": i, "v": i})

    db.run_transaction(body)


@pytest.fixture()
def procs4():
    db = ShardedDatabase(n_shards=4, pool="processes")
    _load(db)
    yield db
    db.close()


def _ids(db: ShardedDatabase) -> list[int]:
    return sorted(db.query(ALL_IDS))


def _leader_ids(db: ShardedDatabase) -> list[int]:
    """The oracle: every leader shard read in-process, no pool involved."""
    out: list[int] = []
    for shard in db.shards:
        with shard.transaction() as s:
            out.extend(d["_id"] for d in s.doc_scan("orders"))
    return sorted(out)


def _log_lengths(db: ShardedDatabase) -> int:
    return sum(len(shard.wal) for shard in db.shards)


def test_read_only_stream_never_syncs(procs4):
    assert _ids(procs4) == list(range(ROWS))  # first scatter ships the load
    pool = procs4.remote_pool()
    rounds, appends = pool.sync_rounds, _log_lengths(procs4)
    for _ in range(50):
        assert len(procs4.query(ALL_IDS)) == ROWS
    assert pool.sync_rounds == rounds
    assert _log_lengths(procs4) == appends


def test_write_syncs_once_per_touched_shard_and_ships_only_the_suffix(procs4):
    _ids(procs4)
    pool = procs4.remote_pool()
    rounds, shipped, logged = (
        pool.sync_rounds, pool.synced_records, _log_lengths(procs4)
    )
    procs4.run_transaction(lambda s: s.doc_insert("orders", {"_id": 900, "v": 0}))
    assert 900 in _ids(procs4)  # the next query sees the write
    assert pool.sync_rounds == rounds + 1  # one shard was touched
    appended = _log_lengths(procs4) - logged
    assert appended == 3  # begin, write, commit
    assert pool.synced_records == shipped + appended
    _ids(procs4)
    assert pool.sync_rounds == rounds + 1  # and the cursor is current again


def test_cross_shard_write_syncs_each_touched_shard(procs4):
    _ids(procs4)
    pool = procs4.remote_pool()
    rounds, shipped, logged = (
        pool.sync_rounds, pool.synced_records, _log_lengths(procs4)
    )
    touched = {procs4.router.shard_for("orders", i) for i in (901, 902, 903, 904)}
    assert len(touched) > 1

    def body(s):
        for i in (901, 902, 903, 904):
            s.doc_insert("orders", {"_id": i, "v": 0})

    procs4.run_transaction(body)
    assert _ids(procs4) == _leader_ids(procs4)
    assert pool.sync_rounds == rounds + len(touched)
    assert pool.synced_records == shipped + _log_lengths(procs4) - logged


def test_crash_before_commit_record_is_invisible_on_the_worker(procs4):
    _ids(procs4)
    shard_id = procs4.router.shard_for("orders", 910)
    procs4.shards[shard_id].manager.crash_before_next_commit_record = True
    with pytest.raises(SimulatedCrash):
        procs4.run_transaction(
            lambda s: s.doc_insert("orders", {"_id": 910, "v": 0})
        )
    # begin + write shipped with no commit: buffered, never applied.
    assert _ids(procs4) == _leader_ids(procs4) == list(range(ROWS))
    procs4.run_transaction(lambda s: s.doc_insert("orders", {"_id": 911, "v": 0}))
    assert _ids(procs4) == _leader_ids(procs4) == [*range(ROWS), 911]


@pytest.mark.parametrize("verdict", ["commit", "abort"])
def test_prepare_synced_before_its_decision_stays_in_doubt(procs4, verdict):
    _ids(procs4)
    pool = procs4.remote_pool()
    shard_id = procs4.router.shard_for("orders", 920)
    participant = procs4.shards[shard_id].begin()
    participant.doc_insert("orders", {"_id": 920, "v": 0})
    participant.prepare(global_id=77)
    rounds = pool.sync_rounds
    # The prepare lands before this sync, the decision after it.
    assert _ids(procs4) == _leader_ids(procs4) == list(range(ROWS))
    assert pool.sync_rounds == rounds + 1
    getattr(participant, f"{verdict}_prepared")()
    expected = [*range(ROWS), 920] if verdict == "commit" else list(range(ROWS))
    assert _ids(procs4) == _leader_ids(procs4) == expected


def test_cursor_past_a_truncated_log_resyncs_from_zero(procs4):
    procs4.run_transaction(lambda s: s.doc_insert("orders", {"_id": 930, "v": 0}))
    assert 930 in _ids(procs4)
    pool = procs4.remote_pool()
    shard_id = procs4.router.shard_for("orders", 930)
    wal = procs4.shards[shard_id].wal
    # Cut the last transaction out of the log and rebuild the leader
    # over the *same* WAL object, as a divergence repair would.
    wal.truncate_to(len(wal) - 3)
    procs4.shards[shard_id] = _rebuild_leader_db(wal, f"shard{shard_id}", shard_id)
    shipped = pool.synced_records
    assert _ids(procs4) == _leader_ids(procs4) == list(range(ROWS))
    assert pool.synced_records == shipped + len(wal)  # the whole log, once


def test_replaced_log_resyncs_from_zero(procs4):
    procs4.run_transaction(lambda s: s.doc_insert("orders", {"_id": 940, "v": 0}))
    assert 940 in _ids(procs4)
    pool = procs4.remote_pool()
    shard_id = procs4.router.shard_for("orders", 940)
    # Recovery compacts into a fresh WAL object whose length has nothing
    # to do with the old cursor; make it longer than the old log so a
    # length-only check would wrongly ship a suffix.
    rebuilt = MultiModelDatabase.recover(procs4.shards[shard_id].wal)
    with rebuilt.transaction() as s:
        for i in range(941, 960):
            s.doc_insert("orders", {"_id": i, "v": 0})
    procs4.shards[shard_id] = rebuilt
    shipped = pool.synced_records
    assert _ids(procs4) == _leader_ids(procs4)
    assert pool.synced_records == shipped + len(rebuilt.wal)


def test_failover_answers_from_the_promoted_log():
    db = ShardedDatabase(
        n_shards=4, pool="processes",
        replication=ReplicaSetConfig(3, write_acks="all"),
    )
    try:
        _load(db)
        assert _ids(db) == list(range(ROWS))
        db.kill_leader(1)
        assert _ids(db) == _leader_ids(db) == list(range(ROWS))
        db.run_transaction(lambda s: s.doc_insert("orders", {"_id": 950, "v": 0}))
        assert _ids(db) == _leader_ids(db) == [*range(ROWS), 950]
    finally:
        db.close()
