"""Follower-read consistency: parity, staleness bounds, session tokens.

The read-scaling half of replication.  ``read_preference="follower"``
must return the same answers as leader-only reads across the whole
query surface (the parity matrix); ``max_lag_records`` bounds how stale
a serving follower may be; and a session token upgrades follower reads
to read-your-writes + monotonic reads — including across a failover,
where the token's floors (commit timestamps, which survive promotion)
keep this session from ever reading backwards.
"""

from __future__ import annotations

import pytest

from repro.cluster.sharded import ShardedDatabase
from repro.errors import ClusterError
from repro.replication import ReplicaSetConfig

PARITY_QUERIES = [
    "FOR d IN orders RETURN d._id",
    "FOR d IN orders FILTER d.qty > 5 RETURN d",
    "FOR d IN orders FILTER d._id == 7 RETURN d.qty",
    "FOR d IN orders COLLECT status = d.status "
    "AGGREGATE n = COUNT(1) RETURN {status: status, n: n}",
    "FOR r IN people RETURN r.name",
    "FOR r IN people FILTER r.age >= 30 RETURN r",
]


def _loaded(read_preference: str = "follower", **cfg) -> ShardedDatabase:
    db = ShardedDatabase(
        n_shards=2,
        replication=ReplicaSetConfig(
            write_acks="all", read_preference=read_preference, **cfg
        ),
    )
    db.create_collection("orders")
    from repro.models.relational.schema import Column, ColumnType, TableSchema

    db.create_table(TableSchema(
        "people",
        (Column("id", ColumnType.INTEGER, nullable=False),
         Column("name", ColumnType.TEXT),
         Column("age", ColumnType.INTEGER)),
        primary_key=("id",),
    ))
    with db.transaction() as s:
        for i in range(24):
            s.doc_insert("orders", {
                "_id": i, "qty": i % 10, "status": "open" if i % 3 else "done"
            })
        for i in range(12):
            s.sql_insert("people", {"id": i, "name": f"p{i}", "age": 20 + i})
    return db


def _normalise(rows: list) -> list:
    return sorted(rows, key=repr)


class TestParityMatrix:
    def test_follower_reads_match_leader_reads(self):
        follower_db = _loaded("follower")
        leader_db = _loaded("leader")
        for text in PARITY_QUERIES:
            assert _normalise(follower_db.query(text)) == \
                _normalise(leader_db.query(text)), text
        total_follower_reads = sum(
            rs.metrics()["follower_reads_total"]
            for rs in follower_db.replica_sets
        )
        assert total_follower_reads > 0
        assert all(
            rs.metrics()["follower_reads_total"] == 0
            for rs in leader_db.replica_sets
        )

    def test_parity_survives_failover(self):
        db = _loaded("follower")
        expected = {t: _normalise(db.query(t)) for t in PARITY_QUERIES}
        db.kill_leader(0)
        for text, rows in expected.items():
            assert _normalise(db.query(text)) == rows, text

    def test_leader_preference_never_touches_followers(self):
        db = _loaded("leader")
        for text in PARITY_QUERIES:
            db.query(text)
        for rs in db.replica_sets:
            m = rs.metrics()
            assert m["follower_reads_total"] == 0
            assert m["leader_reads_total"] > 0


class TestStalenessBound:
    def test_zero_bound_repairs_before_serving(self):
        # max_lag_records=0 (default): a serving follower is always
        # caught up to the leader's log at read time.
        db = _loaded("follower", max_lag_records=0)
        with db.transaction() as s:
            s.doc_insert("orders", {"_id": 900, "qty": 1, "status": "open"})
        rows = db.query("FOR d IN orders FILTER d._id == 900 RETURN d._id")
        assert rows == [900]

    def test_leader_reads_never_trigger_a_repair(self):
        # Reads log nothing, so a leader-side read cannot put a
        # follower behind: at the tightest bound the next follower read
        # still finds zero lag and ships nothing.
        db = _loaded("follower", max_lag_records=0)
        shipped = [rs.records_shipped for rs in db.replica_sets]
        with db.transaction() as s:  # read-only session on the leaders
            assert len(list(s.doc_scan("orders"))) == 24
            assert s.sql_get("people", (3,))["name"] == "p3"
        for rs in db.replica_sets:
            assert all(rs.lag_records(f) == 0 for f in rs.live_followers())
        assert len(db.query("FOR d IN orders RETURN d._id")) == 24
        assert sum(rs.follower_reads for rs in db.replica_sets) > 0
        assert [rs.records_shipped for rs in db.replica_sets] == shipped

    def test_loose_bound_can_serve_stale(self):
        db = _loaded("follower", max_lag_records=10_000)
        baseline = len(db.query("FOR d IN orders RETURN d._id"))
        # write_acks="all" ships synchronously, so sneak a write past
        # replication: commit on the leader db directly.
        shard_id = db.router.shard_for("orders", 901)
        with db.shards[shard_id].transaction() as s:
            s.doc_insert("orders", {"_id": 901, "qty": 1, "status": "open"})
        stale = db.query("FOR d IN orders RETURN d._id")
        assert len(stale) == baseline  # the lagging follower served
        for rs in db.replica_sets:
            rs.catch_up()
        fresh = db.query("FOR d IN orders RETURN d._id")
        assert len(fresh) == baseline + 1


class TestSessionConsistency:
    def test_read_your_writes_through_followers(self):
        db = _loaded("follower")
        token = db.session_token()
        with db.transaction(session=token) as s:
            s.doc_insert("orders", {"_id": 950, "qty": 2, "status": "open"})
        rows = db.query(
            "FOR d IN orders FILTER d._id == 950 RETURN d._id", session=token
        )
        assert rows == [950]

    def test_token_floors_rise_with_writes(self):
        db = _loaded("follower")
        token = db.session_token()
        assert token.floors == {}
        with db.transaction(session=token) as s:
            s.doc_insert("orders", {"_id": 951, "qty": 2, "status": "open"})
        shard_id = db.router.shard_for("orders", 951)
        assert token.floor(shard_id) > 0
        assert token.floor(1 - shard_id) == 0  # untouched shard: no floor

    def test_session_fallback_to_leader_when_follower_behind(self):
        # Loose staleness bound + a write the followers never saw: the
        # session floor forces the read back to the leader, and the
        # fallback is counted.
        db = _loaded("follower", max_lag_records=10_000)
        token = db.session_token()
        with db.transaction(session=token) as s:
            s.doc_insert("orders", {"_id": 952, "qty": 2, "status": "open"})
        shard_id = db.router.shard_for("orders", 952)
        rs = db.replica_sets[shard_id]
        # The quorum already shipped this write ("all"), so manufacture
        # lag: another leader-local write raises the floor past every
        # follower's applied point.
        with db.shards[shard_id].transaction() as s:
            s.doc_insert("orders", {"_id": 953, "qty": 3, "status": "open"})
        token.observe(shard_id, db.shards[shard_id].manager.current_ts)
        before = rs.metrics()["session_fallbacks_total"]
        rows = db.query(
            "FOR d IN orders FILTER d._id == 953 RETURN d._id", session=token
        )
        assert rows == [953]  # the leader served: no stale miss
        assert rs.metrics()["session_fallbacks_total"] > before

    def test_monotonic_reads_never_go_backwards_across_failover(self):
        db = _loaded("follower")
        token = db.session_token()
        with db.transaction(session=token) as s:
            s.doc_insert("orders", {"_id": 960, "qty": 1, "status": "open"})
        assert db.query(
            "FOR d IN orders FILTER d._id == 960 RETURN d._id", session=token
        ) == [960]
        floors_before = dict(token.floors)
        for shard_id in range(db.n_shards):
            db.kill_leader(shard_id)
        # The floors survive the failover (commit timestamps are
        # preserved by promotion-by-replay), so this session still sees
        # its own write — served by the new regime.
        rows = db.query(
            "FOR d IN orders FILTER d._id == 960 RETURN d._id", session=token
        )
        assert rows == [960]
        for shard_id, floor in floors_before.items():
            assert token.floor(shard_id) >= floor  # monotone, never reset

    def test_session_token_usable_across_transactions(self):
        db = _loaded("follower")
        token = db.session_token()
        for i in range(970, 975):
            with db.transaction(session=token) as s:
                s.doc_insert("orders", {"_id": i, "qty": 1, "status": "open"})
            rows = db.query(
                f"FOR d IN orders FILTER d._id >= 970 AND d._id <= {i} "
                "RETURN d._id",
                session=token,
            )
            assert sorted(rows) == list(range(970, i + 1))


class TestReadPreferenceValidation:
    def test_unknown_preference_rejected_at_config(self):
        with pytest.raises(ClusterError):
            ReplicaSetConfig(read_preference="secondary")
