"""ReplicaSet mechanics: log shipping, quorum acks, election, rejoin.

These tests drive one :class:`~repro.replication.replicaset.ReplicaSet`
directly (and small replicated clusters) to pin the subsystem's
contracts: shipped followers materialise the exact leader state, the
write-ack quorum matches the ``write_acks`` knob, the deterministic
election picks the longest durable log, and a deposed leader's
divergent suffix truncates on rejoin.
"""

from __future__ import annotations

import pytest

from repro.cluster.sharded import ShardedDatabase
from repro.drivers.unified import UnifiedDriver
from repro.engine.database import MultiModelDatabase
from repro.errors import ClusterError
from repro.replication import ReplicaSet, ReplicaSetConfig
from repro.txn import CoordinatorLog


def _query(db: MultiModelDatabase, text: str) -> list:
    """Run one MMQL query against a bare engine database."""
    driver = UnifiedDriver()
    driver.db = db
    return driver.query(text)


def _leader_with_set(
    write_acks="majority", replicas=3, **cfg_kwargs
) -> ReplicaSet:
    db = MultiModelDatabase(name="shard0")
    config = ReplicaSetConfig(
        replicas_per_shard=replicas, write_acks=write_acks, **cfg_kwargs
    )
    return ReplicaSet(0, db, config)


def _write_docs(db: MultiModelDatabase, n: int, start: int = 0) -> None:
    with db.transaction() as s:
        for i in range(start, start + n):
            s.doc_insert("t", {"_id": i, "v": i * 10})


class TestConfig:
    def test_acks_needed_per_mode(self):
        assert ReplicaSetConfig(3, write_acks=1).acks_needed == 1
        assert ReplicaSetConfig(3, write_acks="majority").acks_needed == 2
        assert ReplicaSetConfig(3, write_acks="all").acks_needed == 3
        assert ReplicaSetConfig(5, write_acks="majority").acks_needed == 3

    def test_bad_knobs_rejected(self):
        with pytest.raises(ClusterError):
            ReplicaSetConfig(3, write_acks=4)
        with pytest.raises(ClusterError):
            ReplicaSetConfig(3, write_acks="most")
        with pytest.raises(ClusterError):
            ReplicaSetConfig(0)
        with pytest.raises(ClusterError):
            ReplicaSetConfig(3, read_preference="nearest")


class TestShipping:
    def test_follower_view_matches_leader_state(self):
        rs = _leader_with_set(write_acks="all")
        db = rs.leader_db
        db.create_collection("t")
        _write_docs(db, 20)
        rs.replicate()
        leader_rows = sorted(
            d["_id"] for d in _query(db, "FOR d IN t RETURN d")
        )
        for follower in rs.live_followers():
            rows = sorted(
                d["_id"] for d in _query(follower.db, "FOR d IN t RETURN d")
            )
            assert rows == leader_rows
            # Reads log nothing, so lag means data: still zero after
            # the leader-side read.
            assert rs.lag_records(follower) == 0

    def test_quorum_ships_only_acks_needed_minus_one(self):
        rs = _leader_with_set(write_acks="majority")
        db = rs.leader_db
        db.create_collection("t")
        _write_docs(db, 5)
        rs.replicate()
        lags = sorted(rs.lag_records(f) for f in rs.live_followers())
        # majority of 3 = 2 acks: leader + one follower; the other lags.
        assert lags[0] == 0
        assert lags[1] > 0

    def test_acks_1_ships_nothing(self):
        rs = _leader_with_set(write_acks=1)
        db = rs.leader_db
        db.create_collection("t")
        _write_docs(db, 5)
        rs.replicate()
        assert all(rs.lag_records(f) > 0 for f in rs.live_followers())

    def test_catch_up_clears_all_lag(self):
        rs = _leader_with_set(write_acks=1)
        db = rs.leader_db
        db.create_collection("t")
        _write_docs(db, 5)
        rs.catch_up()
        assert all(rs.lag_records(f) == 0 for f in rs.live_followers())

    def test_quorum_unavailable_raises(self):
        rs = _leader_with_set(write_acks="all")
        rs.kill(2)
        db = rs.leader_db
        db.create_collection("t")
        with pytest.raises(ClusterError, match="quorum unavailable"):
            rs.replicate()

    def test_aborted_txn_never_materialises_on_follower(self):
        rs = _leader_with_set(write_acks="all")
        db = rs.leader_db
        db.create_collection("t")
        _write_docs(db, 3)
        s = db.begin()
        s.doc_insert("t", {"_id": 99, "v": 0})
        s.abort()
        rs.replicate()
        for follower in rs.live_followers():
            ids = [d["_id"] for d in _query(follower.db, "FOR d IN t RETURN d")]
            assert 99 not in ids

    def test_lag_metrics_exposed(self):
        rs = _leader_with_set(write_acks="majority")
        db = rs.leader_db
        db.create_collection("t")
        _write_docs(db, 4)
        rs.replicate()
        m = rs.metrics()
        assert m["live"] == 3
        assert m["quorum_writes_total"] >= 1
        assert m["records_shipped_total"] > 0
        assert m["lag_records_replica1"] == 0
        assert m["lag_records_replica2"] > 0
        assert m["lag_seconds_replica1"] == 0.0
        assert m["lag_seconds_replica2"] > 0.0


class TestElection:
    def test_longest_durable_log_wins(self):
        rs = _leader_with_set(write_acks="majority")
        db = rs.leader_db
        db.create_collection("t")
        _write_docs(db, 10)
        rs.replicate()  # follower 1 caught up, follower 2 lagging
        resolution = rs.fail_over(CoordinatorLog())
        assert resolution == {"recovered_commit": 0, "recovered_abort": 0}
        assert rs.leader_id == 1
        assert rs.term == 2
        assert rs.metrics()["elections_total"] == 1
        assert rs.metrics()["failovers_total"] == 1

    def test_tie_breaks_to_lowest_replica_id(self):
        rs = _leader_with_set(write_acks="all")
        db = rs.leader_db
        db.create_collection("t")
        _write_docs(db, 3)
        rs.replicate()  # both followers fully caught up: a tie
        rs.fail_over(CoordinatorLog())
        assert rs.leader_id == 1

    def test_no_majority_no_election(self):
        rs = _leader_with_set(write_acks=1)
        rs.kill(1)
        with pytest.raises(ClusterError, match="no quorum"):
            rs.fail_over(CoordinatorLog())

    def test_two_replica_set_cannot_survive_leader_death(self):
        # n=2: one survivor is not a majority of two.
        rs = _leader_with_set(write_acks="all", replicas=2)
        with pytest.raises(ClusterError, match="no quorum"):
            rs.fail_over(CoordinatorLog())

    def test_promoted_leader_accepts_writes_and_reads(self):
        rs = _leader_with_set(write_acks="majority")
        db = rs.leader_db
        db.create_collection("t")
        _write_docs(db, 5)
        rs.replicate()
        rs.fail_over(CoordinatorLog())
        promoted = rs.leader_db
        _write_docs(promoted, 5, start=100)
        rs.replicate()
        ids = sorted(d["_id"] for d in _query(promoted, "FOR d IN t RETURN d"))
        assert ids == [0, 1, 2, 3, 4, 100, 101, 102, 103, 104]

    def test_promoted_leader_txn_ids_do_not_collide(self):
        rs = _leader_with_set(write_acks="majority")
        db = rs.leader_db
        db.create_collection("t")
        _write_docs(db, 5)
        rs.replicate()
        old_max = max(
            rec["txn"] for rec in rs.leader.wal.records() if "txn" in rec
        )
        rs.fail_over(CoordinatorLog())
        assert rs.leader_db.manager._next_txn_id > old_max


class TestRejoin:
    def test_deposed_leader_truncates_divergent_suffix(self):
        rs = _leader_with_set(write_acks="majority")
        db = rs.leader_db
        db.create_collection("t")
        _write_docs(db, 5)
        rs.replicate()
        # Divergence: the leader commits more but never ships it, then
        # dies.  Its log now extends past anything the quorum saw — but
        # the suffix here is *synced*, so it survives the node's crash
        # and must be cut by reconciliation, not by durability.
        _write_docs(db, 5, start=50)
        db.wal.sync()
        old_len = len(rs.leader.wal)
        rs.fail_over(CoordinatorLog())
        assert len(rs.replicas[0].wal) == old_len  # still holding it
        dropped = rs.rejoin(0)
        assert dropped > 0
        assert rs.metrics()["truncated_records_total"] == dropped
        rejoined = rs.replicas[0]
        assert rs.lag_records(rejoined) == 0
        ids = sorted(d["_id"] for d in _query(rejoined.db, "FOR d IN t RETURN d"))
        assert ids == [0, 1, 2, 3, 4]  # 50..54 gone with the old regime

    def test_rejoined_follower_resumes_replication(self):
        rs = _leader_with_set(write_acks="all")
        db = rs.leader_db
        db.create_collection("t")
        _write_docs(db, 3)
        rs.replicate()
        rs.fail_over(CoordinatorLog())
        rs.rejoin(0)
        _write_docs(rs.leader_db, 3, start=10)
        rs.replicate()
        assert rs.lag_records(rs.replicas[0]) == 0


class TestClusterWiring:
    def test_ddl_replicates_to_quorum(self):
        db = ShardedDatabase(
            n_shards=2, replication=ReplicaSetConfig(write_acks="all")
        )
        db.create_collection("t")
        db.create_kv_namespace("kv")
        for rs in db.replica_sets:
            for follower in rs.live_followers():
                listing = follower.db.list_collections()
                assert "t" in listing["collections"]
                assert "kv" in listing["kv_namespaces"]

    def test_index_ddl_replicates(self):
        db = ShardedDatabase(
            n_shards=2, replication=ReplicaSetConfig(write_acks="all")
        )
        db.create_collection("t")
        db.create_index("collection", "t", "v")
        with db.transaction() as s:
            s.doc_insert("t", {"_id": 1, "v": 7})
        for rs in db.replica_sets:
            for follower in rs.live_followers():
                assert rs.lag_records(follower) == 0
                # The follower's own index answers the lookup.
                rows = _query(
                    follower.db, "FOR d IN t FILTER d.v == 7 RETURN d._id"
                )
                assert rows in ([1], [])  # the doc lives on one shard

    def test_stats_carries_replication_section(self):
        db = ShardedDatabase(n_shards=2, replication=ReplicaSetConfig())
        db.create_collection("t")
        section = db.stats()["replication"]
        assert section["replicas_per_shard"] == 3
        assert section["write_acks"] == "majority"
        assert set(section["shards"]) == {"shard_0", "shard_1"}

    def test_metrics_collector_registered(self):
        db = ShardedDatabase(n_shards=2, replication=ReplicaSetConfig())
        db.create_collection("t")
        collected = db.metrics()["collected"]["replication"]
        assert collected["coordinator_log_replicas"] == 3
        assert "shard0_lag_records_replica1" in collected
        text = db.metrics_text()
        assert "repro_replication_shard0_live" in text

    def test_unreplicated_cluster_unchanged(self):
        db = ShardedDatabase(n_shards=2)
        db.create_collection("t")
        assert db.replica_sets == []
        assert "replication" not in db.stats()
        assert "replication" not in db.metrics()["collected"]
        with pytest.raises(ClusterError):
            db.kill_leader(0)
