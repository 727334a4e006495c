"""Cluster-side 2PC behaviour: fast path, _id reservations, counters.

The crash matrix lives in ``tests/txn/test_crash_matrix.py``; this file
covers the commit-protocol surface visible to cluster users: the
single-writer fast path must log exactly what a standalone engine logs,
a cross-shard commit must pay a bounded number of protocol records, the
duplicate-``_id`` race across shards must be gone, and the
``stats()['txn']`` counters must tell the story.
"""

from __future__ import annotations

import pytest

from repro.cluster.sharded import ShardedDatabase
from repro.engine.database import MultiModelDatabase
from repro.errors import TransactionAborted


def _fresh(n_shards: int = 4, **kwargs) -> ShardedDatabase:
    db = ShardedDatabase(n_shards=n_shards, **kwargs)
    db.create_collection("orders")
    db.create_kv_namespace("feedback")
    return db


def _wal_types(db: ShardedDatabase, shard_id: int) -> list[str]:
    return [rec["type"] for rec in db.shards[shard_id].wal.records()]


class TestFastPath:
    def test_single_writer_commit_emits_zero_extra_wal_records(self):
        """The owning shard logs exactly what a standalone engine logs
        for the same two transactions: 2PC adds not one record to a
        single-shard commit, and the coordinator never engages."""
        db = _fresh()
        standalone = MultiModelDatabase()
        standalone.create_collection("orders")
        standalone.create_kv_namespace("feedback")
        for engine in (db, standalone):
            with engine.transaction() as s:
                s.doc_insert("orders", {"_id": "o1", "status": "new"})
            with engine.transaction() as s:
                s.doc_update("orders", "o1", {"status": "shipped"})
        shard_id = db.router.shard_for("orders", "o1")
        expected = [rec["type"] for rec in standalone.wal.records()]
        assert "commit" in expected
        assert _wal_types(db, shard_id) == expected
        assert len(db.coordinator_log) == 0
        db.close()

    def test_single_writer_with_cross_shard_reads_stays_fast(self):
        db = _fresh()
        with db.transaction() as s:
            s.doc_insert("orders", {"_id": "o1", "status": "new"})
            s.doc_insert("orders", {"_id": "o2", "status": "new"})
        before = [len(shard.wal) for shard in db.shards]
        with db.transaction() as s:
            s.doc_get("orders", "o1")  # read on o1's shard
            s.doc_get("orders", "o2")  # read on o2's shard
            s.doc_update("orders", "o1", {"status": "shipped"})  # one writer
        grew = [
            len(shard.wal) - n for shard, n in zip(db.shards, before)
        ]
        writer = db.router.shard_for("orders", "o1")
        for shard_id, delta in enumerate(grew):
            if shard_id == writer:
                assert delta > 0
                types = _wal_types(db, shard_id)[-delta:]
                assert "prepare" not in types and "decision" not in types
            else:
                # Read-only participants add at most their begin record.
                assert delta <= 1
        assert db.stats()["txn"]["fast_path_commits"] >= 1
        db.close()


class TestCrossShardCommit:
    def test_cross_shard_commit_uses_the_protocol(self):
        db = _fresh()
        doc_shard = db.router.shard_for("orders", "o1")
        kv_key = next(  # a feedback key guaranteed on a different shard
            key
            for key in (f"o1/c{i}" for i in range(100))
            if db.router.shard_for("feedback", key) != doc_shard
        )
        with db.transaction() as s:
            s.doc_insert("orders", {"_id": "o1", "status": "new"})
            s.kv_put("feedback", kv_key, {"rating": 5})
        kv_shard = db.router.shard_for("feedback", kv_key)
        assert "prepare" in _wal_types(db, doc_shard)
        assert "decision" in _wal_types(db, kv_shard)
        assert db.coordinator_log.committed_global_txns()
        txn = db.stats()["txn"]
        assert txn["two_phase_commits"] == 1
        assert txn["prepares"] == 2
        db.close()

    def test_cross_shard_protocol_cost_is_bounded(self):
        """Span 2: per participant begin + write + prepare + decision,
        and two coordinator records (the decision and its end marker)."""
        db = _fresh()
        targets: dict[int, str] = {}
        for i in range(100):
            targets.setdefault(db.router.shard_for("orders", f"o{i}"), f"o{i}")
        with db.transaction() as s:
            for doc_id in targets.values():
                s.doc_insert("orders", {"_id": doc_id, "v": 0})
        pair = sorted(targets)[:2]
        wal_before = [len(db.shards[i].wal) for i in pair]
        coord_before = db.coordinator_log.appends
        with db.transaction() as s:
            for shard_id in pair:
                s.doc_update("orders", targets[shard_id], {"v": 1})
        for shard_id, before in zip(pair, wal_before):
            assert _wal_types(db, shard_id)[before:] == [
                "begin", "write", "prepare", "decision"
            ]
        assert db.coordinator_log.appends - coord_before == 2
        db.close()

    def test_abort_in_prepare_counted(self):
        db = _fresh()
        with db.transaction() as s:
            s.doc_insert("orders", {"_id": "o1", "status": "new"})
            s.doc_insert("orders", {"_id": "o2", "status": "new"})
        outer = db.begin()
        outer.doc_update("orders", "o1", {"status": "outer"})
        outer.doc_update("orders", "o2", {"status": "outer"})
        with db.transaction() as interloper:
            interloper.doc_update("orders", "o2", {"status": "mine"})
        with pytest.raises(TransactionAborted):
            outer.commit()
        assert db.stats()["txn"]["aborts_in_prepare"] == 1
        db.close()


class TestDuplicateIdReservation:
    """The ROADMAP race: custom shard key, same _id, different shards."""

    @staticmethod
    def _distinct_customer_shards(db: ShardedDatabase) -> tuple[int, int]:
        """Two customer ids routing to different shards."""
        c1 = 1
        for c2 in range(2, 100):
            if db.router.shard_for("orders", c2) != db.router.shard_for("orders", c1):
                return c1, c2
        raise AssertionError("no shard-distinct customer ids found")

    def test_concurrent_same_id_inserts_cannot_both_commit(self):
        db = ShardedDatabase(n_shards=4, shard_keys={"orders": "customer_id"})
        db.create_collection("orders")
        c1, c2 = self._distinct_customer_shards(db)
        s1 = db.begin()
        s2 = db.begin()
        s1.doc_insert("orders", {"_id": "dup", "customer_id": c1})
        s2.doc_insert("orders", {"_id": "dup", "customer_id": c2})
        s1.commit()
        with pytest.raises(TransactionAborted):
            s2.commit()
        with db.transaction() as s:
            docs = [d for d in s.doc_scan("orders") if d["_id"] == "dup"]
        assert len(docs) == 1
        assert docs[0]["customer_id"] == c1
        db.close()

    def test_sequential_duplicate_still_rejected_early(self):
        from repro.errors import DocumentError

        db = ShardedDatabase(n_shards=4, shard_keys={"orders": "customer_id"})
        db.create_collection("orders")
        c1, c2 = self._distinct_customer_shards(db)
        with db.transaction() as s:
            s.doc_insert("orders", {"_id": "dup", "customer_id": c1})
        with pytest.raises(DocumentError):
            with db.transaction() as s:
                s.doc_insert("orders", {"_id": "dup", "customer_id": c2})
        db.close()

    def test_delete_releases_the_reservation(self):
        db = ShardedDatabase(n_shards=4, shard_keys={"orders": "customer_id"})
        db.create_collection("orders")
        c1, c2 = self._distinct_customer_shards(db)
        with db.transaction() as s:
            s.doc_insert("orders", {"_id": "dup", "customer_id": c1})
        with db.transaction() as s:
            assert s.doc_delete("orders", "dup")
        with db.transaction() as s:  # same _id, new home shard: fine now
            s.doc_insert("orders", {"_id": "dup", "customer_id": c2})
        with db.transaction() as s:
            assert s.doc_get("orders", "dup")["customer_id"] == c2
        db.close()

    def test_reservations_are_invisible_to_user_surfaces(self):
        db = ShardedDatabase(n_shards=4, shard_keys={"orders": "customer_id"})
        db.create_collection("orders")
        with db.transaction() as s:
            s.doc_insert("orders", {"_id": "o1", "customer_id": 1})
        stats = db.stats()
        assert stats["documents"] == 1
        assert stats["collections"] == 1
        with db.transaction() as s:
            assert [d["_id"] for d in s.doc_scan("orders")] == ["o1"]
        db.close()

    def test_reservations_survive_crash_recovery(self):
        db = ShardedDatabase(n_shards=4, shard_keys={"orders": "customer_id"})
        db.create_collection("orders")
        c1, c2 = self._distinct_customer_shards(db)
        with db.transaction() as s:
            s.doc_insert("orders", {"_id": "dup", "customer_id": c1})
        recovered = db.crash()
        try:
            s1 = recovered.begin()
            s2 = recovered.begin()
            # Early broadcast check sees the replayed document...
            from repro.errors import DocumentError

            with pytest.raises(DocumentError):
                s1.doc_insert("orders", {"_id": "dup", "customer_id": c2})
            s1.abort()
            s2.abort()
            with recovered.transaction() as s:
                assert s.doc_get("orders", "dup")["customer_id"] == c1
        finally:
            recovered.close()
