"""The 2PC crash matrix: no schedule may tear a cross-shard transaction.

A crash is injected at every protocol step — before any prepare, after
each prepare, just before the coordinator's decision record, just after
it, and after each participant commit during the fan-out — on 2- and
4-shard clusters (plus the single-shard fast path's own commit-point
crash).  After :meth:`ShardedDatabase.crash` recovery the transaction
must be either fully applied or fully absent on *every* shard, decided
purely by whether the coordinator's commit decision was durable.

``TestFailoverDrills`` replays the in-doubt schedules on a replicated
cluster, but instead of a whole-cluster power cycle it kills one
shard's *leader* mid-protocol: the promoted follower (holding the
quorum-shipped prepares) plus the termination protocol must settle the
transaction with the same all-or-nothing verdicts.
"""

from __future__ import annotations

import pytest

from repro.cluster.sharded import ShardedDatabase
from repro.errors import SimulatedCrash
from repro.replication import ReplicaSetConfig


def _build(
    n_shards: int,
    sync_every_append: bool = True,
    replication: ReplicaSetConfig | None = None,
) -> ShardedDatabase:
    db = ShardedDatabase(
        n_shards=n_shards,
        wal_sync_every_append=sync_every_append,
        replication=replication,
    )
    db.create_collection("orders")
    with db.transaction() as s:
        for i in range(40):
            s.doc_insert("orders", {"_id": f"o{i}", "status": "new"})
    return db


def _one_doc_per_shard(db: ShardedDatabase) -> list[str]:
    """One existing doc id routed to each shard, in shard order."""
    by_shard: dict[int, str] = {}
    for i in range(40):
        doc_id = f"o{i}"
        by_shard.setdefault(db.router.shard_for("orders", doc_id), doc_id)
    assert len(by_shard) == db.n_shards
    return [by_shard[shard] for shard in sorted(by_shard)]


def _statuses(db: ShardedDatabase, doc_ids: list[str]) -> list[str]:
    with db.transaction() as s:
        return [s.doc_get("orders", d)["status"] for d in doc_ids]


def _crash_points(n_shards: int) -> list[tuple[str, int | None, bool]]:
    """(attribute, value, expect_commit) for every protocol step."""
    points: list[tuple[str, int | None, bool]] = []
    for k in range(n_shards + 1):  # 0 = before any prepare
        points.append(("crash_after_prepares", k, False))
    points.append(("crash_before_decision", None, False))
    points.append(("crash_after_decision", None, True))
    for k in range(n_shards):  # 0 = decision durable, fan-out not started
        points.append(("crash_after_commits", k, True))
    return points


def _cell_ids(n_shards: int) -> list[str]:
    return [
        f"{attr.removeprefix('crash_')}{'' if value is None else f'_{value}'}"
        for attr, value, _ in _crash_points(n_shards)
    ]


class TestCrashMatrix:
    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize("sync_every_append", [True, False])
    def test_every_schedule_recovers_all_or_nothing(
        self, n_shards: int, sync_every_append: bool
    ):
        points = _crash_points(n_shards)
        for (attr, value, expect_commit), label in zip(points, _cell_ids(n_shards)):
            db = _build(n_shards, sync_every_append)
            targets = _one_doc_per_shard(db)
            setattr(db.coordinator, attr, True if value is None else value)
            session = db.begin()
            for doc_id in targets:
                session.doc_update("orders", doc_id, {"status": "updated"})
            with pytest.raises(SimulatedCrash):
                session.commit()
            recovered = db.crash()
            try:
                statuses = _statuses(recovered, targets)
                assert len(set(statuses)) == 1, f"{label}: torn -> {statuses}"
                expected = "updated" if expect_commit else "new"
                assert statuses[0] == expected, label
                # Recovery settled every in-doubt participant.
                for shard in recovered.shards:
                    assert shard.wal.prepared_in_doubt() == {}, label
                # The cluster keeps working after recovery.
                with recovered.transaction() as s:
                    for doc_id in targets:
                        s.doc_update("orders", doc_id, {"status": "post-crash"})
                assert set(_statuses(recovered, targets)) == {"post-crash"}, label
            finally:
                recovered.close()

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_in_doubt_participants_are_counted(self, n_shards: int):
        db = _build(n_shards)
        targets = _one_doc_per_shard(db)
        db.coordinator.crash_after_decision = True
        session = db.begin()
        for doc_id in targets:
            session.doc_update("orders", doc_id, {"status": "updated"})
        with pytest.raises(SimulatedCrash):
            session.commit()
        recovered = db.crash()
        try:
            # Every participant prepared and none had heard the verdict.
            stats = recovered.stats()["txn"]
            assert stats["recovered_in_doubt"] == n_shards
            assert set(_statuses(recovered, targets)) == {"updated"}
        finally:
            recovered.close()

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_fast_path_commit_point_crash(self, n_shards: int):
        """A single-writer txn has one commit point: losing it aborts."""
        db = _build(n_shards)
        doc_id = _one_doc_per_shard(db)[0]
        shard_id = db.router.shard_for("orders", doc_id)
        db.shards[shard_id].manager.crash_before_next_commit_record = True
        session = db.begin()
        session.doc_update("orders", doc_id, {"status": "updated"})
        with pytest.raises(SimulatedCrash):
            session.commit()
        recovered = db.crash()
        try:
            assert _statuses(recovered, [doc_id]) == ["new"]
            assert recovered.stats()["txn"]["recovered_in_doubt"] == 0
        finally:
            recovered.close()

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_clean_cross_shard_commit_survives_a_crash(self, n_shards: int):
        """No injection: a completed 2PC txn fully survives power loss."""
        db = _build(n_shards)
        targets = _one_doc_per_shard(db)
        with db.transaction() as s:
            for doc_id in targets:
                s.doc_update("orders", doc_id, {"status": "updated"})
        recovered = db.crash()
        try:
            assert set(_statuses(recovered, targets)) == {"updated"}
            assert recovered.stats()["txn"]["recovered_in_doubt"] == 0
        finally:
            recovered.close()

    def test_recovery_truncates_fully_ended_coordinator_records(self):
        """Crash recovery drops decision/end pairs of acknowledged txns,
        so the coordinator log stops growing across crash cycles, while
        global-id allocation stays monotonic."""
        db = _build(2)
        targets = _one_doc_per_shard(db)
        for round_no in range(5):  # 5 fully-acknowledged cross-shard txns
            with db.transaction() as s:
                for doc_id in targets:
                    s.doc_update("orders", doc_id, {"status": f"r{round_no}"})
        high_water = db.coordinator_log.max_global_txn()
        assert len(db.coordinator_log) >= 10  # decision + end per txn
        recovered = db.crash()
        try:
            assert len(recovered.coordinator_log) == 0
            assert recovered.coordinator_log.max_global_txn() == high_water
            # New cross-shard commits keep allocating above the floor
            # and the cluster stays fully usable.
            with recovered.transaction() as s:
                for doc_id in targets:
                    s.doc_update("orders", doc_id, {"status": "after"})
            assert recovered.coordinator_log.max_global_txn() == high_water + 1
            assert set(_statuses(recovered, targets)) == {"after"}
        finally:
            recovered.close()

    def test_recovery_checkpoints_resolved_in_doubt_records(self):
        """A crash-resolved in-doubt txn leaves no permanent coordinator
        record: its verdict lives durably in the participant WALs, so
        recovery checkpoints the whole log — including decision records
        that never got their end marker — and repeated crash cycles
        cannot grow it."""
        db = _build(2)
        targets = _one_doc_per_shard(db)
        with db.transaction() as s:  # fully acknowledged: truncatable
            for doc_id in targets:
                s.doc_update("orders", doc_id, {"status": "done"})
        db.coordinator.crash_after_decision = True
        session = db.begin()
        for doc_id in targets:
            session.doc_update("orders", doc_id, {"status": "in-doubt"})
        with pytest.raises(SimulatedCrash):
            session.commit()
        high_water = db.coordinator_log.max_global_txn()
        recovered = db.crash()
        # The decided-but-unacknowledged txn was redone from its durable
        # commit decision before the log was checkpointed away.
        assert set(_statuses(recovered, targets)) == {"in-doubt"}
        assert len(recovered.coordinator_log) == 0
        assert recovered.coordinator_log.max_global_txn() == high_water
        # A second crash cycle: the redone writes survive WAL replay and
        # nothing resurfaces as in-doubt from the emptied log.
        again = recovered.crash()
        try:
            assert set(_statuses(again, targets)) == {"in-doubt"}
            assert again.stats()["txn"]["recovered_in_doubt"] >= 2
            with again.transaction() as s:
                for doc_id in targets:
                    s.doc_update("orders", doc_id, {"status": "after"})
            assert again.coordinator_log.max_global_txn() == high_water + 1
        finally:
            again.close()


def _failover_points(n_shards: int) -> list[tuple[str, int | None, bool]]:
    """In-doubt schedules where every writer prepared.

    (Earlier prepare crashes leave *active* — never prepared — txns on
    some shards; those are the client's to abort and the whole-cluster
    matrix above already covers them.)
    """
    return [
        ("crash_after_prepares", n_shards, False),
        ("crash_before_decision", None, False),
        ("crash_after_decision", None, True),
        *[("crash_after_commits", k, True) for k in range(n_shards)],
    ]


class TestFailoverDrills:
    """Kill one leader mid-2PC on a 3-replica majority cluster."""

    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize("victim_kind", ["first", "last"])
    def test_no_torn_transaction_after_leader_death(
        self, n_shards: int, victim_kind: str
    ):
        for attr, value, expect_commit in _failover_points(n_shards):
            label = f"{attr}={value}"
            db = _build(
                n_shards, replication=ReplicaSetConfig(write_acks="majority")
            )
            targets = _one_doc_per_shard(db)
            setattr(db.coordinator, attr, True if value is None else value)
            session = db.begin()
            for doc_id in targets:
                session.doc_update("orders", doc_id, {"status": "updated"})
            with pytest.raises(SimulatedCrash):
                session.commit()
            victim = 0 if victim_kind == "first" else n_shards - 1
            db.kill_leader(victim)
            try:
                # No acknowledged write lost, nothing torn: all-or-nothing
                # across every shard, by decision durability alone.
                statuses = _statuses(db, targets)
                assert len(set(statuses)) == 1, f"{label}: torn -> {statuses}"
                expected = "updated" if expect_commit else "new"
                assert statuses[0] == expected, label
                # Every in-doubt participant is settled everywhere.
                for shard in db.shards:
                    assert not shard.manager.prepared, label
                # The promoted follower serves reads *and* writes.
                with db.transaction() as s:
                    for doc_id in targets:
                        s.doc_update("orders", doc_id, {"status": "post"})
                assert set(_statuses(db, targets)) == {"post"}, label
            finally:
                db.close()

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_leader_death_then_power_failure(self, n_shards: int):
        """The compound schedule: coordinator crash, one leader dies and
        fails over, then the whole cluster power-cycles.  The verdict —
        already settled at failover — must survive the second recovery."""
        db = _build(
            n_shards, replication=ReplicaSetConfig(write_acks="majority")
        )
        targets = _one_doc_per_shard(db)
        db.coordinator.crash_after_decision = True
        session = db.begin()
        for doc_id in targets:
            session.doc_update("orders", doc_id, {"status": "updated"})
        with pytest.raises(SimulatedCrash):
            session.commit()
        db.kill_leader(0)
        assert set(_statuses(db, targets)) == {"updated"}
        recovered = db.crash()
        try:
            assert set(_statuses(recovered, targets)) == {"updated"}
            for shard in recovered.shards:
                assert not shard.manager.prepared
        finally:
            recovered.close()
