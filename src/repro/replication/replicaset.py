"""One shard's replica set: leader, followers, shipping, election.

Design notes
------------

**Log shipping** is by raw record index over the leader's WAL
(:meth:`~repro.engine.wal.WriteAheadLog.records_from`): the cursor is
just the follower's record count, the same cursor the worker-process
replicas keep.  Shipped records are synced on the
follower *including the leader's unsynced tail* — a follower's copy can
therefore be **more** durable than the leader's own page cache, which
is precisely how a quorum-acked write survives a leader crash that
eats the leader's tail.

**The follower view** is a private :class:`MultiModelDatabase`
materialised incrementally from the shipped records by
:func:`repro.engine.database.redo_record`, the same redo the worker
processes run (write records buffer per transaction; a
commit/commit-decision applies them at the commit timestamp; an abort
decision drops them; a prepare holds them in doubt).  The view's own
WAL stays empty — the replica's *shipped* WAL copy is the replication
truth.

**Election** is deterministic and timeout-free (injectable clock, fault
hooks instead of heartbeats): every live replica votes for the
candidate with the longest durable log (ties to the lowest replica id),
Raft's up-to-date rule; a candidate needs a majority of the *full*
membership, so a partitioned minority can never elect.  Promotion
resolves the winner's in-doubt prepares against the (replicated)
coordinator log, then rebuilds a leader database *over the winner's own
WAL* — no compaction, so surviving followers remain exact prefixes and
keep their cursors.  A deposed leader rejoins as a follower by
truncating its divergent suffix back to the common prefix and
resyncing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from repro.engine.database import MultiModelDatabase, redo_record, replay_log
from repro.engine.records import RecordKey
from repro.engine.transactions import Store, TransactionManager
from repro.engine.wal import WriteAheadLog
from repro.errors import ClusterError, QuorumLostError
from repro.txn import CoordinatorLog, resolve_in_doubt
from repro.txn.replicated_log import _acks_needed

READ_PREFERENCES = ("leader", "follower", "session")


@dataclass
class ReplicaSetConfig:
    """Knobs for every shard's replica set (and the coordinator log's).

    ``write_acks`` gates commit acknowledgement: ``1`` acks as soon as
    the leader's WAL has the records (followers lag until something
    needs them), ``"majority"``/``"all"``/an int ship synchronously to
    that many replicas (the leader counts as one ack).
    ``read_preference`` picks the default MMQL read path: ``"leader"``
    (always fresh), ``"follower"`` (stale-bounded — a follower more
    than ``max_lag_records`` behind catches up before serving), or
    ``"session"`` (a follower serves only when it has applied the
    session token's floor, else the leader does and the fallback is
    counted).  A per-query session token upgrades any mode to
    session-consistent.
    """

    replicas_per_shard: int = 3
    write_acks: int | str = "majority"
    read_preference: str = "leader"
    max_lag_records: int = 0
    # How long replicate() waits for the quorum to come back before
    # declaring the shard degraded (read-only).  0 fails immediately —
    # the pre-deadline behaviour, and what every unit test wants.
    quorum_timeout_s: float = 0.0

    def __post_init__(self) -> None:
        if self.replicas_per_shard < 1:
            raise ClusterError(
                f"replicas_per_shard must be >= 1, got {self.replicas_per_shard}"
            )
        if self.quorum_timeout_s < 0:
            raise ClusterError(
                f"quorum_timeout_s must be >= 0, got {self.quorum_timeout_s}"
            )
        if self.read_preference not in READ_PREFERENCES:
            raise ClusterError(
                f"unknown read_preference {self.read_preference!r} "
                f"(expected one of {READ_PREFERENCES})"
            )
        # Validate eagerly so a bad knob fails at construction.
        _acks_needed(self.write_acks, self.replicas_per_shard)

    @property
    def acks_needed(self) -> int:
        return _acks_needed(self.write_acks, self.replicas_per_shard)


class Replica:
    """One member of a replica set: a WAL copy plus a materialised view."""

    __slots__ = (
        "replica_id", "wal", "db", "role", "alive", "pending", "caught_up_wall",
    )

    def __init__(
        self, replica_id: int, wal: WriteAheadLog, db: MultiModelDatabase,
        role: str, wall: float,
    ) -> None:
        self.replica_id = replica_id
        self.wal = wal
        self.db = db
        self.role = role
        self.alive = True
        # Writes shipped but not yet decided, per txn id (in-doubt
        # prepares hold here until their decision record ships).
        self.pending: dict[int, list[tuple[RecordKey, Any]]] = {}
        self.caught_up_wall = wall

    @property
    def applied_ts(self) -> int:
        """Highest commit timestamp applied to the view — the freshness
        bound session tokens compare against (redo advances the view's
        clock, so the view's manager holds it)."""
        return self.db.manager.current_ts


class ReplicaSet:
    """Leader + followers for one shard, with quorum writes and failover."""

    def __init__(
        self,
        shard_id: int,
        leader_db: MultiModelDatabase,
        config: ReplicaSetConfig,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.shard_id = shard_id
        self.config = config
        self.n_replicas = config.replicas_per_shard
        self.acks_needed = config.acks_needed
        self.clock = clock
        self.term = 1
        self.leader_id = 0
        self.obs: Any = None  # Observability bundle, pushed by the cluster
        # Reentrant: a quorum ship inside read_db holds the same lock.
        self._lock = threading.RLock()
        self._rr = 0
        now = clock()
        self.replicas = [Replica(0, leader_db.wal, leader_db, "leader", now)]
        for i in range(1, self.n_replicas):
            # Follower WALs sync in one batch per ship (_ship), not per
            # append; the view database is private to this follower.
            self.replicas.append(
                Replica(
                    i,
                    WriteAheadLog(sync_every_append=False),
                    MultiModelDatabase(name=f"shard{shard_id}f{i}"),
                    "follower",
                    now,
                )
            )
        for follower in self.replicas[1:]:
            # Tag the shipped WAL copy so wal.append failpoints can
            # target one follower's log (the view db tags its own).
            follower.wal.tag = f"shard{shard_id}f{follower.replica_id}"
        # Degraded (read-only) mode: set when replicate() exhausts its
        # quorum wait, cleared when a later replicate/rejoin/catch_up
        # finds the quorum reachable again.  Reads keep serving
        # throughout; only write acknowledgement is refused.
        self.degraded = False
        self.degraded_entries = 0
        self.degraded_exits = 0
        # Counters (exposed via metrics(); cluster sums them per shard).
        self.elections = 0
        self.failovers = 0
        self.truncated_records = 0
        self.records_shipped = 0
        self.quorum_writes = 0
        self.leader_reads = 0
        self.follower_reads = 0
        self.session_fallbacks = 0

    # -- membership ----------------------------------------------------------

    @property
    def leader(self) -> Replica:
        return self.replicas[self.leader_id]

    @property
    def leader_db(self) -> MultiModelDatabase:
        return self.leader.db

    def live_followers(self) -> list[Replica]:
        return [
            r for r in self.replicas
            if r.alive and r.replica_id != self.leader_id
        ]

    def kill(self, replica_id: int) -> None:
        """Fault hook: a follower node dies (leader death goes through
        :meth:`fail_over`, which elects before anything reads stale)."""
        if replica_id == self.leader_id:
            raise ClusterError(
                f"shard {self.shard_id}: use fail_over() to kill the leader"
            )
        with self._lock:
            self.replicas[replica_id].alive = False

    # -- log shipping & quorum writes ----------------------------------------

    def lag_records(self, replica: Replica) -> int:
        return len(self.leader.wal) - len(replica.wal)

    def _ship(self, follower: Replica) -> int:
        """Ship the leader's outstanding records to one follower."""
        missing = self.leader.wal.records_from(len(follower.wal))
        for rec in missing:
            follower.wal.append(rec)
            redo_record(follower.db, follower.pending, rec)
        if missing:
            follower.wal.sync()  # one fsync per batch: shipped == durable
            self.records_shipped += len(missing)
        if len(follower.wal) == len(self.leader.wal):
            follower.caught_up_wall = self.clock()
        return len(missing)

    def replicate(self) -> None:
        """Quorum write ack: ship to enough live followers, or refuse.

        Called after the leader commits (or logs a prepare/decision).
        The leader's local durability is the first ack; the first
        ``acks_needed - 1`` live followers in id order are the sync
        targets; the rest lag until catch-up, a stale-bounded read, or
        an election needs them.

        When too few followers are alive, the call waits up to
        ``config.quorum_timeout_s`` for the quorum to return (releasing
        the lock between polls so a concurrent :meth:`rejoin` can get
        in), then raises :class:`~repro.errors.QuorumLostError` and
        marks the shard **degraded**: the write is durable on the leader
        but *not acknowledged*, and subsequent writes fail fast through
        :meth:`ensure_writable` while reads keep serving.  A successful
        replicate clears the degraded flag — recovery is automatic once
        followers rejoin and catch up.
        """
        if self.acks_needed <= 1:
            return
        started = perf_counter()
        deadline: float | None = None
        while True:
            with self._lock:
                need = self.acks_needed - 1
                targets = self.live_followers()[:need]
                if len(targets) >= need:
                    for follower in targets:
                        self._ship(follower)
                    self.quorum_writes += 1
                    if self.degraded:
                        self._exit_degraded_locked()
                    break
                if deadline is None:
                    deadline = self.clock() + self.config.quorum_timeout_s
                if self.clock() >= deadline:
                    self._enter_degraded_locked()
                    raise QuorumLostError(
                        f"shard {self.shard_id}: quorum unavailable "
                        f"({1 + len(targets)}/{self.acks_needed} acks reachable)"
                    )
            time.sleep(0.001)
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.replication_quorum_seconds.observe(perf_counter() - started)

    def ensure_writable(self) -> None:
        """Fail fast when the shard is degraded (read-only).

        The guard commits check *before* doing work: a degraded shard
        refuses new writes immediately instead of burning the quorum
        timeout per attempt.  The one replication probe doubles as the
        recovery path — if the quorum is back, it clears the flag and
        the write proceeds.
        """
        if not self.degraded:
            return
        self.replicate()

    def _enter_degraded_locked(self) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.degraded_entries += 1
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.replication_degraded_shards.inc()
            obs.replication_degraded_entries_total.inc()

    def _exit_degraded_locked(self) -> None:
        if not self.degraded:
            return
        self.degraded = False
        self.degraded_exits += 1
        obs = self.obs
        if obs is not None and obs.enabled:
            obs.replication_degraded_shards.dec()
            obs.replication_degraded_exits_total.inc()

    def catch_up(self) -> int:
        """Ship everything outstanding to every live follower."""
        with self._lock:
            shipped = sum(self._ship(f) for f in self.live_followers())
            if (
                self.degraded
                and len(self.live_followers()) >= self.acks_needed - 1
            ):
                self._exit_degraded_locked()
            return shipped

    # -- reads ---------------------------------------------------------------

    def read_replica(self, preference: str, floor_ts: int = 0) -> Replica:
        """Pick the replica that serves one shard-context read.

        ``leader`` always returns the leader.  ``follower`` rotates over
        live followers, repairing any that lag more than
        ``max_lag_records`` before they serve (bounded staleness).
        ``session`` serves from a follower only if it has applied
        *floor_ts* (the session token's floor for this shard); otherwise
        the leader serves and the fallback is counted — the same price
        metric :class:`repro.consistency.sessions.ClientSession` reports
        for the simulated store.
        """
        with self._lock:
            followers = self.live_followers()
            if preference == "leader" or not followers:
                self.leader_reads += 1
                return self.leader
            self._rr += 1
            follower = followers[self._rr % len(followers)]
            # Both follower modes honour the staleness bound first: a
            # follower lagging more than max_lag_records is repaired
            # before it may serve (bounded staleness; with the default
            # bound of 0 it reads the leader's current log).
            if self.lag_records(follower) > self.config.max_lag_records:
                self._ship(follower)
            if preference == "session" and follower.applied_ts < floor_ts:
                self.session_fallbacks += 1
                self.leader_reads += 1
                return self.leader
            self.follower_reads += 1
            return follower

    # -- election & failover -------------------------------------------------

    def elect_leader(self) -> Replica:
        """Term + log-position voting over the live membership.

        Raft's up-to-date rule, made deterministic: every live replica
        grants its vote to the candidate whose durable log is longest
        (ties to the lowest replica id).  A majority of the *full*
        membership must be alive — a minority partition cannot elect.
        """
        with self._lock:
            live = [r for r in self.replicas if r.alive]
            if 2 * len(live) <= self.n_replicas:
                raise ClusterError(
                    f"shard {self.shard_id}: only {len(live)}/{self.n_replicas} "
                    "replicas alive — no quorum to elect a leader"
                )

            def log_position(replica: Replica) -> tuple[int, int]:
                return (replica.wal.durable_length, -replica.replica_id)

            candidate = max(live, key=log_position)
            votes = sum(
                1 for voter in live
                if log_position(candidate) >= log_position(voter)
            )
            assert votes == len(live)  # deterministic rule: unanimous
            self.term += 1
            self.elections += 1
            obs = self.obs
            if obs is not None and obs.enabled:
                obs.replication_elections_total.inc()
            return candidate

    def fail_over(self, coordinator_log: CoordinatorLog) -> dict[str, int]:
        """The leader died: elect, resolve in-doubt, promote.

        The dead leader's unsynced WAL tail is gone with its page cache
        — it must not (and cannot) survive into the new leadership.
        Returns :func:`repro.txn.recovery.resolve_in_doubt`'s counters
        for the winner's WAL (``recovered_commit``/``recovered_abort``).
        """
        with self._lock:
            old = self.leader
            old.alive = False
            old.role = "dead"
            old.wal.crash()
            winner = self.elect_leader()
            resolution = resolve_in_doubt(winner.wal, coordinator_log)
            self._promote(winner)
            for replica in self.live_followers():
                self._reconcile(replica)
            self.failovers += 1
            obs = self.obs
            if obs is not None and obs.enabled:
                obs.replication_failovers_total.inc()
            return resolution

    def recover_all(self, coordinator_log: CoordinatorLog) -> dict[str, int]:
        """Whole-cluster power failure: every node restarts and re-elects.

        Every replica (dead ones included — a power cycle restarts the
        box) loses its unsynced tail, the longest durable log wins the
        election, in-doubt prepares resolve against the coordinator log,
        and every other replica reconciles to a prefix of the new leader
        and catches up fully — so the caller may checkpoint the
        coordinator log afterwards (no replica anywhere can still be in
        doubt).
        """
        with self._lock:
            old_leader_id = self.leader_id
            corrupt: set[int] = set()
            for replica in self.replicas:
                replica.alive = True
                replica.wal.crash()
                # Restart re-reads the log from disk: checksums verify
                # now, and a torn/bit-rotted record truncates *before*
                # the election — shrinking this replica's durable
                # length so an intact copy wins and reships the cut
                # suffix (bit rot repaired by replication, zero loss).
                if replica.wal.truncate_corrupt():
                    corrupt.add(replica.replica_id)
            winner = self.elect_leader()
            resolution = resolve_in_doubt(winner.wal, coordinator_log)
            self._promote(winner)
            for replica in self.replicas:
                if replica is not winner:
                    replica.role = "follower"
                    self._reconcile(
                        replica,
                        force_rebuild=replica.replica_id in corrupt,
                    )
                    self._ship(replica)
            if winner.replica_id != old_leader_id:
                self.failovers += 1
            return resolution

    def rejoin(self, replica_id: int) -> int:
        """A dead node returns as a follower; divergent entries truncate.

        The deposed leader's log may extend past what it ever shipped —
        entries the new leadership never saw.  They are cut back to the
        common prefix with the new leader's log (counted in
        ``truncated_records``), the view is rebuilt, and the follower
        resyncs.  Returns the number of records truncated.
        """
        with self._lock:
            replica = self.replicas[replica_id]
            if replica_id == self.leader_id and replica.alive:
                return 0
            replica.alive = True
            replica.role = "follower"
            # A rejoining node re-reads its log from disk: verify
            # checksums and cut any corrupt suffix before reconciling
            # (the reship repairs it from the leader's intact copy).
            corrupt_dropped = replica.wal.truncate_corrupt()
            dropped = self._reconcile(
                replica, force_rebuild=bool(corrupt_dropped)
            )
            self._ship(replica)
            if (
                self.degraded
                and len(self.live_followers()) >= self.acks_needed - 1
            ):
                self._exit_degraded_locked()
            return dropped + corrupt_dropped

    def _promote(self, winner: Replica) -> None:
        """Rebuild a leader database over the winner's own WAL.

        Unlike :meth:`MultiModelDatabase.recover` this does *not*
        compact into a fresh WAL: the winner's log must stay
        prefix-comparable with every other replica's copy, and its
        record count is the shipping cursor.  The new manager's txn-id
        allocator starts above every id in the log (a reused id would
        merge two transactions at the next replay) and its commit clock
        resumes at the highest replayed timestamp.
        """
        winner.db = _rebuild_leader_db(
            winner.wal, name=f"shard{self.shard_id}", shard_id=self.shard_id
        )
        winner.role = "leader"
        winner.pending.clear()
        winner.caught_up_wall = self.clock()
        self.leader_id = winner.replica_id

    def _reconcile(self, replica: Replica, force_rebuild: bool = False) -> int:
        """Truncate *replica*'s log to its common prefix with the leader.

        Surviving followers are exact prefixes (they only ever received
        the shared stream) and truncate nothing; a deposed leader can
        hold a divergent suffix.  After a truncation the view is rebuilt
        from the surviving records — the materialised state may have
        included the truncated writes.  A deposed leader's view rebuilds
        unconditionally: its database *is* the old leader database
        (recognisable because it shares the replica's WAL object), whose
        state already contains every logged write — shipping on top of
        it would double-apply.  ``force_rebuild`` covers the third case:
        a corruption truncation happened *before* this call, so the
        prefix check sees nothing to drop but the view still holds
        writes past the cut.
        """
        leader_records = self.leader.wal.records_from(0)
        mine = replica.wal.records_from(0)
        limit = min(len(mine), len(leader_records))
        prefix = limit
        for i in range(limit):
            a, b = mine[i], leader_records[i]
            if a is not b and a != b:
                prefix = i
                break
        dropped = replica.wal.truncate_to(prefix)
        self.truncated_records += dropped
        if dropped or force_rebuild or replica.db.wal is replica.wal:
            self._rebuild_view(replica)
        return dropped

    def _rebuild_view(self, replica: Replica) -> None:
        """Re-materialise *replica*'s view from its surviving records."""
        replica.db = MultiModelDatabase(
            name=f"shard{self.shard_id}f{replica.replica_id}"
        )
        replica.pending = {}
        for rec in replica.wal.records_from(0):
            redo_record(replica.db, replica.pending, rec)

    # -- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        """Flat gauge/counter snapshot (cluster prefixes it per shard)."""
        with self._lock:
            now = self.clock()
            out: dict[str, Any] = {
                "replicas": self.n_replicas,
                "live": sum(1 for r in self.replicas if r.alive),
                "term": self.term,
                "leader_id": self.leader_id,
                "acks_needed": self.acks_needed,
                "degraded": int(self.degraded),
                "degraded_entries_total": self.degraded_entries,
                "degraded_exits_total": self.degraded_exits,
                "elections_total": self.elections,
                "failovers_total": self.failovers,
                "truncated_records_total": self.truncated_records,
                "records_shipped_total": self.records_shipped,
                "quorum_writes_total": self.quorum_writes,
                "leader_reads_total": self.leader_reads,
                "follower_reads_total": self.follower_reads,
                "session_fallbacks_total": self.session_fallbacks,
            }
            for replica in self.replicas:
                if replica.replica_id == self.leader_id:
                    continue
                lag = self.lag_records(replica)
                rid = replica.replica_id
                out[f"lag_records_replica{rid}"] = lag
                out[f"lag_seconds_replica{rid}"] = (
                    0.0 if lag == 0 else max(0.0, now - replica.caught_up_wall)
                )
            return out


def _rebuild_leader_db(
    wal: WriteAheadLog, name: str, shard_id: int
) -> MultiModelDatabase:
    """WAL replay into a fresh database that keeps *wal* as its log.

    The promotion-time twin of :meth:`MultiModelDatabase.recover`,
    minus the compaction (see :meth:`ReplicaSet._promote` for why).
    """
    from repro.cluster.sharded import _EDGE_ID_STRIDE

    db = MultiModelDatabase.__new__(MultiModelDatabase)
    db.name = name
    db.store = Store()
    db.wal = wal
    db.manager = TransactionManager(db.store, wal)
    db._table_schemas = {}
    db._graphs = {}
    db._next_edge_id = 1 + shard_id * _EDGE_ID_STRIDE
    db._indexes = {}
    db.catalog_epoch = 0
    db.store.on_apply.append(db._maintain_indexes)
    db.store.on_apply.append(db._maintain_adjacency)
    replay_log(db, wal, wal.records_from(0))
    return db
