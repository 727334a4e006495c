"""Log work is proportional to what was written.

A transaction's ``begin`` record is written immediately before its first
``write`` record, at commit/prepare time, so anything that never reaches
that point — read-only transactions, ``Driver.query`` snapshots, aborts,
lost first-committer-wins races — leaves the WAL untouched, and there
is no ``abort`` record type.
"""

from __future__ import annotations

import pytest

from repro.drivers.unified import UnifiedDriver
from repro.engine.database import MultiModelDatabase
from repro.errors import SerializationConflict, SimulatedCrash


def _wal_state(db: MultiModelDatabase) -> tuple[int, int, int, int]:
    wal = db.wal
    return (len(wal), wal.appends, wal.syncs, wal.appended_bytes)


def _types(db: MultiModelDatabase, start: int = 0) -> list[str]:
    return [rec["type"] for rec in db.wal.records_from(start)]


@pytest.fixture()
def db() -> MultiModelDatabase:
    database = MultiModelDatabase()
    database.create_collection("t")
    with database.transaction() as tx:
        tx.doc_insert("t", {"_id": 1, "v": 10})
    return database


class TestReadsLogNothing:
    @pytest.mark.parametrize("finish", ["commit", "abort"])
    def test_read_only_transaction(self, db, finish):
        before = _wal_state(db)
        session = db.begin()
        assert session.doc_get("t", 1)["v"] == 10
        assert [d["_id"] for d in session.doc_scan("t")] == [1]
        getattr(session, finish)()
        assert _wal_state(db) == before

    def test_driver_query_and_counters(self, db):
        driver = UnifiedDriver()
        driver.db = db
        before = _wal_state(db)
        aborts = db.manager.aborts
        for _ in range(5):
            assert driver.query("FOR d IN t RETURN d.v") == [10]
        assert _wal_state(db) == before
        # Closing a read snapshot is not an abort.
        assert db.manager.aborts == aborts
        assert driver.metrics()["collected"]["txn"]["aborts"] == aborts

    def test_aborted_writer(self, db):
        before = _wal_state(db)
        session = db.begin()
        session.doc_insert("t", {"_id": 2, "v": 20})
        session.abort()
        assert _wal_state(db) == before
        assert db.manager.aborts == 1

    def test_lost_first_committer_race(self, db):
        loser = db.begin()
        loser.doc_update("t", 1, {"v": 11})
        with db.transaction() as winner:
            winner.doc_update("t", 1, {"v": 12})
        before = _wal_state(db)
        with pytest.raises(SerializationConflict):
            loser.commit()
        assert _wal_state(db) == before


class TestWritersLogOneBracket:
    def test_commit_logs_begin_writes_commit(self, db):
        start = len(db.wal)
        with db.transaction() as tx:
            tx.doc_get("t", 1)  # reads before the writes log nothing
            assert len(db.wal) == start
            tx.doc_insert("t", {"_id": 2, "v": 20})
            tx.doc_insert("t", {"_id": 3, "v": 30})
            assert len(db.wal) == start  # writes are buffered until commit
        assert _types(db, start) == ["begin", "write", "write", "commit"]
        assert len({rec["txn"] for rec in db.wal.records_from(start)}) == 1

    @pytest.mark.parametrize("verdict", ["commit", "abort"])
    def test_prepare_logs_begin_writes_prepare_then_decision(self, db, verdict):
        start = len(db.wal)
        session = db.begin()
        session.doc_insert("t", {"_id": 2, "v": 20})
        session.prepare(global_id=7)
        assert _types(db, start) == ["begin", "write", "prepare"]
        getattr(session, f"{verdict}_prepared")()
        assert _types(db, start) == ["begin", "write", "prepare", "decision"]
        assert db.wal.records_from(start)[-1]["decision"] == verdict

    def test_crash_before_commit_record_is_not_redone(self, db):
        start = len(db.wal)
        db.manager.crash_before_next_commit_record = True
        with pytest.raises(SimulatedCrash):
            with db.transaction() as tx:
                tx.doc_insert("t", {"_id": 2, "v": 20})
        assert _types(db, start) == ["begin", "write"]
        recovered = db.crash()
        with recovered.transaction() as tx:
            assert tx.doc_get("t", 2) is None
            assert tx.doc_get("t", 1)["v"] == 10
