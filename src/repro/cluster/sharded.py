"""ShardedDatabase: N MultiModelDatabase shards behind the Driver interface.

The cluster facade of the reproduction.  Every model's collections are
partitioned across N independent :class:`MultiModelDatabase` shards by a
:class:`~repro.cluster.partition.ShardRouter`; MMQL, the workload
runner, the loader and the benchmarks run unchanged because the facade
implements the same :class:`~repro.drivers.base.Driver` surface as the
single-node drivers.

Placement defaults (overridable per collection at construction):

====================  =====================================================
Container             Placement
====================  =====================================================
relational table      hash on the primary key (single-column PKs route
                      ``_id``/point lookups; composite PKs hash the tuple)
document collection   hash on ``_id``
XML collection        hash on the document id
KV namespace          hash on the key string
graph vertices        broadcast (replicated to every shard) — so edge
                      endpoint checks stay local
graph edges           hash on the source vertex — one shard owns all
                      out-edges of a vertex, so BFS hops are single-shard
====================  =====================================================

Transactions: a :class:`ShardedSession` buffers writes in per-shard
sessions.  A transaction that wrote on **one** shard commits through
that shard's ordinary commit path (the fast path — zero extra WAL
records, single commit point, full engine atomicity).  A transaction
that wrote on **several** shards runs two-phase commit through
:class:`repro.txn.TwoPhaseCoordinator`: prepare-all (each shard makes
the writes durable behind a PREPARE record and pins the write locks),
one durable decision record in the coordinator log (the commit point),
then commit-all.  Crash recovery (:meth:`ShardedDatabase.crash`)
resolves every in-doubt participant against the coordinator log, so no
failure schedule leaves a cross-shard transaction torn.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator

from repro.cluster.partition import (
    PK_SENTINEL,
    HashPartitioner,
    Partitioner,
    ShardRouter,
    ShardSpec,
    edges_placement_name,
)
from repro.drivers.base import Driver
from repro.drivers.unified import UnifiedQueryContext
from repro.engine.database import MultiModelDatabase, Session
from repro.engine.records import Model
from repro.engine.transactions import IsolationLevel
from repro.errors import (
    ClusterError,
    EngineError,
    GraphError,
    SimulatedCrash,
    TransactionAborted,
)
from repro.txn import (
    CoordinatorLog,
    ReplicatedCoordinatorLog,
    TwoPhaseCoordinator,
    resolve_in_doubt,
)
from repro.consistency.sessions import ClusterSessionToken
from repro.replication.replicaset import ReplicaSet, ReplicaSetConfig
from repro.models.graph.property_graph import Edge, Vertex
from repro.models.graph.traversal import bfs_depth_range
from repro.models.relational.predicate import Predicate
from repro.models.xml.node import XmlElement
from repro.models.xml.xpath import XPath

# Edge-id stripes keep per-shard allocators disjoint without coordination.
_EDGE_ID_STRIDE = 1_000_000_000


class ShardedDatabase(Driver):
    """N-shard cluster of MultiModelDatabase instances (system under test)."""

    name = "sharded"

    def __init__(
        self,
        n_shards: int = 4,
        shard_keys: dict[str, str] | None = None,
        partitioners: dict[str, Partitioner] | None = None,
        broadcast: set[str] | None = None,
        isolation: IsolationLevel = IsolationLevel.SNAPSHOT,
        max_retries: int = 10,
        wal_sync_every_append: bool = True,
        pool: str = "threads",
        pool_workers: int | None = None,
        replication: ReplicaSetConfig | None = None,
        remote_request_timeout: float = 30.0,
    ) -> None:
        if pool not in ("threads", "processes"):
            raise ClusterError(f"unknown pool mode {pool!r}")
        self.remote_request_timeout = remote_request_timeout
        self.n_shards = n_shards
        self.pool_mode = pool
        # Scatter concurrency.  "threads" keeps the historical default of
        # one thread per shard (threads only reduce *work* per shard —
        # the GIL serialises them — so oversubscription is harmless);
        # "processes" defaults to one worker per core, capped at the
        # shard count, because worker processes genuinely compete for
        # cores.  An explicit pool_workers overrides either.
        if pool_workers is not None:
            self.pool_workers = max(1, min(pool_workers, n_shards))
        elif pool == "processes":
            self.pool_workers = max(1, min(n_shards, os.cpu_count() or 1))
        else:
            self.pool_workers = n_shards
        self.isolation = isolation
        self.max_retries = max_retries
        self.replication = replication
        # With replica sets under the shards, the coordinator log — the
        # commit point of every cross-shard transaction — gets its own
        # replica copies with the same quorum knob, so a coordinator
        # crash cannot orphan in-doubt participants.
        if replication is not None:
            self.coordinator_log: CoordinatorLog = ReplicatedCoordinatorLog(
                n_replicas=replication.replicas_per_shard,
                write_acks=replication.write_acks,
            )
        else:
            self.coordinator_log = CoordinatorLog()
        self.coordinator = TwoPhaseCoordinator(self.coordinator_log)
        self.router = ShardRouter(n_shards)
        self.shards: list[MultiModelDatabase] = []
        for i in range(n_shards):
            shard = MultiModelDatabase(
                name=f"shard{i}", wal_sync_every_append=wal_sync_every_append
            )
            shard._next_edge_id = 1 + i * _EDGE_ID_STRIDE
            self.shards.append(shard)
        # Each shard becomes a replica set: shards[i] stays the live
        # leader database (every existing code path keeps working) and
        # is swapped for the promoted follower's on failover.
        self.replica_sets: list[ReplicaSet] = []
        if replication is not None:
            self.replica_sets = [
                ReplicaSet(i, shard, replication)
                for i, shard in enumerate(self.shards)
            ]
        self._shard_keys = dict(shard_keys or {})
        self._partitioners = dict(partitioners or {})
        self._broadcast = set(broadcast or ())
        # One lock per shard serialises transaction begin/finish against
        # that shard's manager (queries from concurrent client threads).
        self._shard_locks = [threading.Lock() for _ in range(n_shards)]
        self._pool: ThreadPoolExecutor | None = None
        self._remote_pool: Any = None  # ProcessShardPool, lazy
        self._pool_lock = threading.Lock()

    # -- scatter pools (threads always; worker processes when configured) ----

    def pool(self) -> ThreadPoolExecutor | None:
        """The scatter thread pool (lazy; None for a 1-shard cluster).

        Used by both modes: in ``pool="threads"`` the threads run shard
        subplans in-process; in ``pool="processes"`` they only do frame
        I/O to the worker processes (blocking on a pipe releases the
        GIL), so sizing them to ``pool_workers`` matches the workers.
        """
        if self.n_shards == 1:
            return None
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.pool_workers, thread_name_prefix="shard"
                )
            return self._pool

    def remote_pool(self) -> Any:
        """The worker-process pool; None unless ``pool="processes"``.

        Lazy like :meth:`pool` — a process-mode cluster that only ever
        runs routed point queries never forks a worker.
        """
        if self.pool_mode != "processes" or self.n_shards == 1:
            return None
        with self._pool_lock:
            if self._remote_pool is None:
                from repro.cluster.remote import ProcessShardPool

                self._remote_pool = ProcessShardPool(
                    self,
                    self.pool_workers,
                    request_timeout=self.remote_request_timeout,
                )
            return self._remote_pool

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            if self._remote_pool is not None:
                self._remote_pool.close()
                self._remote_pool = None

    # -- DDL (broadcast to every shard) -------------------------------------

    def _spec_for(
        self, name: str, kind: str, default_key: str | None, record_id: bool
    ) -> ShardSpec:
        if name in self._broadcast:
            return ShardSpec(kind, None)
        key = self._shard_keys.get(name, default_key)
        partitioner = self._partitioners.get(name, HashPartitioner())
        record_id = record_id and key == default_key
        return ShardSpec(kind, key, partitioner, key_is_record_id=record_id)

    def create_table(self, schema: Any) -> None:
        pk = schema.primary_key
        default_key = pk[0] if len(pk) == 1 else None
        spec = self._spec_for(schema.name, "table", default_key, record_id=True)
        if spec.key is None and schema.name not in self._broadcast and len(pk) != 1:
            # Composite primary key without an explicit shard key: hash
            # the whole pk tuple (routes inserts/gets, not MMQL filters).
            spec = ShardSpec("table", PK_SENTINEL, HashPartitioner())
        self.router.register(schema.name, spec)
        for shard in self.shards:
            shard.create_table(schema)
        self._replicate_all()

    def create_collection(self, name: str) -> None:
        self.router.register(
            name, self._spec_for(name, "collection", "_id", record_id=True)
        )
        for shard in self.shards:
            shard.create_collection(name)
        self._replicate_all()

    def create_xml_collection(self, name: str) -> None:
        self.router.register(name, self._spec_for(name, "xml", "_id", record_id=True))
        for shard in self.shards:
            shard.create_xml_collection(name)
        self._replicate_all()

    def create_kv_namespace(self, name: str) -> None:
        self.router.register(name, self._spec_for(name, "kv", "_key", record_id=True))
        for shard in self.shards:
            shard.create_kv_namespace(name)
        self._replicate_all()

    def create_graph(self, name: str) -> None:
        # Vertices broadcast; edges hash on their source vertex.
        self.router.register(name, ShardSpec("graph_vertex", None))
        self.router.register(
            edges_placement_name(name), ShardSpec("graph_edge", "_src", HashPartitioner())
        )
        for shard in self.shards:
            shard.create_graph(name)
        self._replicate_all()

    def create_index(
        self, kind: str, collection: str, field: str, index_type: str = "hash"
    ) -> None:
        model = Model.RELATIONAL if kind == "table" else Model.DOCUMENT
        for shard in self.shards:
            shard.create_index(model, collection, field, kind=index_type)
        self._replicate_all()

    def set_table_schema(self, schema: Any) -> None:
        for shard in self.shards:
            shard.set_table_schema(schema)
        self._replicate_all()

    def _replicate_all(self) -> None:
        """Quorum-ship every shard's outstanding WAL records (DDL path)."""
        for replica_set in self.replica_sets:
            replica_set.replicate()

    def table_schema(self, name: str) -> Any:
        return self.shards[0].table_schema(name)

    # -- transactions --------------------------------------------------------

    def begin(
        self,
        isolation: IsolationLevel | None = None,
        session: ClusterSessionToken | None = None,
    ) -> "ShardedSession":
        return ShardedSession(self, isolation or self.isolation, token=session)

    def session_token(self) -> ClusterSessionToken:
        """A read-your-writes/monotonic-reads token for follower reads.

        Pass it to :meth:`begin`/:meth:`transaction` (writes raise its
        per-shard floors) and to :meth:`query` (a follower serves a
        shard's read only once it has applied that floor).
        """
        return ClusterSessionToken()

    @contextlib.contextmanager
    def transaction(
        self,
        isolation: IsolationLevel | None = None,
        session: ClusterSessionToken | None = None,
    ) -> Iterator["ShardedSession"]:
        txn = self.begin(isolation, session=session)
        try:
            yield txn
        except BaseException:
            if txn.active:
                txn.abort()
            raise
        else:
            if txn.active:
                txn.commit()

    def load(self, loader: Callable[["ShardedSession"], None]) -> None:
        with self.transaction(IsolationLevel.SNAPSHOT) as session:
            loader(session)

    def run_transaction(self, body: Callable[["ShardedSession"], Any]) -> Any:
        attempts = 0
        while True:
            attempts += 1
            session = self.begin(self.isolation)
            try:
                result = body(session)
                session.commit()
                return result
            except TransactionAborted:
                if session.active:
                    session.abort()
                if attempts > self.max_retries:
                    raise
            except BaseException:
                if session.active:
                    session.abort()
                raise

    # -- crash & recovery ----------------------------------------------------

    def kill_leader(self, shard_id: int) -> dict[str, int]:
        """Fault hook: one shard's leader node dies; fail over in place.

        The dead leader's unsynced WAL tail is lost; the most caught-up
        live follower wins the election and is promoted (its in-doubt
        prepares resolved against the coordinator log), ``shards[i]``
        now points at the promoted database, and the termination
        protocol settles any transactions left prepared on the *other*
        shards by a coordinator that died mid-2PC.  Worker processes are
        discarded — their sync cursors pointed into the dead leader's
        WAL.  Returns the resolution counters.  Must not race
        in-flight 2PC on other threads (it is a fault drill, like the
        ``crash_*`` injection attributes).
        """
        if not self.replica_sets:
            raise ClusterError("kill_leader requires replication=ReplicaSetConfig(...)")
        replica_set = self.replica_sets[shard_id]
        resolution = replica_set.fail_over(self.coordinator_log)
        self.shards[shard_id] = replica_set.leader_db
        with self._pool_lock:
            if self._remote_pool is not None:
                self._remote_pool.close()
                self._remote_pool = None
        promoted = sum(resolution.values())
        if promoted:
            self.coordinator.stats.incr("recovered_in_doubt", promoted)
        self.recover_in_doubt()  # counts its own resolutions
        return resolution

    def recover_in_doubt(self) -> int:
        """Termination protocol: settle prepared txns on *live* shards.

        After a coordinator failure (simulated crash mid-2PC), shards
        that prepared and never heard the verdict still hold the write
        locks pinned.  Each one asks the (replicated) coordinator log:
        durable commit decision → commit, otherwise presumed abort.
        Counted into ``recovered_in_doubt``; decisions are quorum-shipped
        like any other write.  Returns the number settled.
        """
        committed = self.coordinator_log.committed_global_txns()
        resolved = 0
        for shard_id, shard in enumerate(self.shards):
            with self._shard_locks[shard_id]:
                in_doubt = list(shard.manager.prepared.values())
                for txn in in_doubt:
                    if txn.global_id in committed:
                        shard.manager.commit_prepared(txn)
                    else:
                        shard.manager.abort_prepared(txn)
                    resolved += 1
            if in_doubt and self.replica_sets:
                self.replica_sets[shard_id].replicate()
        if resolved:
            self.coordinator.stats.incr("recovered_in_doubt", resolved)
        return resolved

    def crash(self) -> "ShardedDatabase":
        """Simulate a whole-cluster power failure and recover.

        Every shard WAL and the coordinator log lose their unsynced
        tails; each shard's in-doubt prepared transactions are resolved
        against the coordinator log (durable commit decision → redo,
        otherwise presumed abort); every shard is rebuilt by WAL replay.
        Returns the recovered cluster — the original instance must not
        be used afterwards (same contract as
        :meth:`MultiModelDatabase.crash`).
        """
        self.close()
        if not self.replica_sets:
            # With replication each replica set crashes its own members
            # (every replica's WAL, not just the leader's) in
            # recover_all below.
            for shard in self.shards:
                shard.wal.crash()
        self.coordinator_log.crash()
        recovered = ShardedDatabase.__new__(ShardedDatabase)
        # Configuration carries over wholesale (attributes added to
        # __init__ later survive recovery by default); only the rebuilt
        # runtime state below is replaced.
        recovered.__dict__.update(self.__dict__)
        recovered.coordinator = TwoPhaseCoordinator(
            self.coordinator_log, self.coordinator.stats
        )
        # Metrics are process-local operational state, not durable data:
        # drop the bundle so its collectors (and the coordinator hook)
        # rebind to the recovered instance rather than the dead one.
        # The switches survive — a cluster crashed with tracing on
        # recovers with tracing on; the counters restart from zero.
        old_obs = recovered.__dict__.pop("_observability", None)
        recovered._shard_locks = [threading.Lock() for _ in range(self.n_shards)]
        recovered._pool = None
        # Worker processes died with close() above and must not be
        # reused anyway: wal.crash() cuts the unsynced tail and the
        # recovered log regrows past the cut, so a surviving replica's
        # cursor could fit the new log while still holding the
        # discarded tail.  A fresh pool spawns lazily and resyncs every
        # replica from the recovered shards.
        recovered._remote_pool = None
        recovered._pool_lock = threading.Lock()
        recovered.shards = []
        in_doubt_resolved = 0
        if self.replica_sets:
            # Whole-cluster power failure with replica sets: every node
            # of every set restarts, drops its unsynced tail, re-elects
            # by durable log length, resolves in-doubt prepares, and
            # resyncs its peers (replica sets mutate in place; the
            # recovered cluster shares them via the __dict__ carry-over).
            for replica_set in self.replica_sets:
                resolution = replica_set.recover_all(self.coordinator_log)
                in_doubt_resolved += sum(resolution.values())
                recovered.shards.append(replica_set.leader_db)
        else:
            for i, shard in enumerate(self.shards):
                resolution = resolve_in_doubt(shard.wal, self.coordinator_log)
                in_doubt_resolved += sum(resolution.values())
                rebuilt = MultiModelDatabase.recover(shard.wal)
                rebuilt.name = f"shard{i}"
                rebuilt._next_edge_id = max(
                    rebuilt._next_edge_id, 1 + i * _EDGE_ID_STRIDE
                )
                recovered.shards.append(rebuilt)
        if in_doubt_resolved:
            recovered.coordinator.stats.incr("recovered_in_doubt", in_doubt_resolved)
        # Every in-doubt participant now carries a durable verdict in its
        # own WAL (resolve_in_doubt force-syncs), so no coordinator record
        # — ended, in-flight, or crash-resolved — can ever be consulted
        # again.  Checkpoint the whole durable log; it stops growing
        # across crash/recovery cycles (global-id floor preserved).
        recovered.coordinator_log.checkpoint()
        if old_obs is not None:
            from repro.obs.core import Observability

            fresh = Observability(
                enabled=old_obs.enabled,
                tracing=old_obs.tracing,
                slow_query_ms=old_obs.slow_log.threshold_ms,
                slow_log_capacity=old_obs.slow_log.capacity,
            )
            recovered._register_observability(fresh)
            recovered.__dict__["_observability"] = fresh
        return recovered

    # -- queries -------------------------------------------------------------

    def query_context(self) -> "ShardedQueryContext":
        return ShardedQueryContext(self)

    def query(
        self,
        text: str,
        params: dict[str, Any] | None = None,
        use_indexes: bool = True,
        batch_size: int | None = None,
        session: ClusterSessionToken | None = None,
    ) -> list[Any]:
        """One MMQL query on a fresh context, optionally session-bound.

        With replication, *session* upgrades the read to session
        consistency: each shard's snapshot may come from a follower only
        once that follower has applied the token's per-shard floor
        (read-your-writes), and the snapshot observed raises the floor
        (monotonic reads — this session never reads backwards, even
        across a failover).  Without a token, reads route by the
        cluster's configured ``read_preference``.
        """
        return self._execute_on(
            ShardedQueryContext(self, session=session), text, params,
            use_indexes, batch_size,
        )

    def plan_catalog(self) -> ShardRouter:
        """Planning catalog: EXPLAIN and the plan cache see routing."""
        return self.router

    def catalog_epoch(self) -> int:
        """Cluster plan-cache version: shard-map + per-shard index DDL.

        Both components only grow, so the sum is monotonic; any shard-map
        registration or index create on any shard invalidates cached
        plans cluster-wide.
        """
        return self.router.epoch + sum(
            shard.catalog_epoch for shard in self.shards
        )

    # -- observability -------------------------------------------------------

    def _register_observability(self, obs) -> None:
        """Plan cache (base) + cluster-wide sums of per-shard engine state.

        WAL and lock-table collectors sum across the *current*
        ``self.shards`` list at snapshot time, so after crash recovery
        (which replaces the shard instances) a rebuilt bundle reads the
        live shards.  The coordinator additionally gets the bundle
        pushed onto it for 2PC latency/outcome instrumentation.
        """
        super()._register_observability(obs)
        from repro.faults.registry import FAULTS

        obs.registry.register_collector("faults", FAULTS.metrics)
        obs.registry.register_collector("wal", self._wal_metrics)
        obs.registry.register_collector("locks", self._lock_metrics)
        obs.registry.register_collector("txn", self._txn_metrics)
        if self.pool_mode == "processes":
            obs.registry.register_collector("procpool", self._procpool_metrics)
        if self.replica_sets:
            obs.registry.register_collector(
                "replication", self._replication_metrics
            )
            for replica_set in self.replica_sets:
                replica_set.obs = obs
        self.coordinator.obs = obs

    def _sum_shard_metrics(self, metrics_of) -> dict[str, int]:
        totals: dict[str, int] = {}
        for shard in self.shards:
            for key, value in metrics_of(shard).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def _wal_metrics(self) -> dict[str, int]:
        return self._sum_shard_metrics(lambda shard: shard.wal.metrics())

    def _procpool_metrics(self) -> dict[str, int]:
        pool = self._remote_pool
        return pool.metrics() if pool is not None else {"workers": 0}

    def _lock_metrics(self) -> dict[str, int]:
        return self._sum_shard_metrics(lambda shard: shard.manager.locks.metrics())

    def _replication_metrics(self) -> dict[str, Any]:
        """Per-shard replica-set gauges plus the coordinator log's copies.

        Rendered by the registry as ``repro_replication_<key>`` gauges —
        the per-follower ``shardN_lag_records_replicaM`` /
        ``lag_seconds`` values are the follower-freshness signal.
        """
        out: dict[str, Any] = {}
        if isinstance(self.coordinator_log, ReplicatedCoordinatorLog):
            for key, value in self.coordinator_log.replication_metrics().items():
                out[key] = value
        for replica_set in self.replica_sets:
            for key, value in replica_set.metrics().items():
                out[f"shard{replica_set.shard_id}_{key}"] = value
        return out

    def _txn_metrics(self) -> dict[str, Any]:
        out = self._sum_shard_metrics(
            lambda shard: {
                "commits": shard.manager.commits,
                "aborts": shard.manager.aborts,
                "conflicts": shard.manager.conflicts,
            }
        )
        out.update(self.coordinator.stats.as_dict())
        out["coordinator_log_appends"] = self.coordinator_log.appends
        out["coordinator_log_syncs"] = self.coordinator_log.syncs
        return out

    # -- introspection -------------------------------------------------------

    def list_collections(self) -> dict[str, list[str]]:
        """Names per model family (identical DDL on every shard)."""
        return self.shards[0].list_collections()

    def stats(self) -> dict[str, Any]:
        """Cluster-correct entity counts.

        Sharded collections sum across shards; broadcast containers
        (graph vertices, any configured broadcast table/collection)
        count one replica.  A ``shards`` section carries per-shard
        record totals for ops visibility.  Each (shard, collection)
        chain is walked exactly once; both views derive from that pass.
        """
        counts: dict[str, Any] = {
            "tables": 0, "rows": 0, "collections": 0, "documents": 0,
            "xml_collections": 0, "xml_documents": 0, "kv_namespaces": 0,
            "kv_pairs": 0, "graphs": 0, "vertices": 0, "edges": 0,
        }
        per_shard = [
            {"rows": 0, "documents": 0, "xml_documents": 0, "kv_pairs": 0,
             "vertices": 0, "edges": 0}
            for _ in self.shards
        ]
        # One snapshot timestamp per shard, captured up front, so every
        # collection of a shard is counted at the same instant.
        snapshots = [shard.manager.current_ts for shard in self.shards]

        def tally(model: Model, name: str, placement_name: str, key: str) -> int:
            """Count once per shard; feed the shard section; return the
            dedup-aware cluster total."""
            by_shard = [
                shard.count_live(model, name, ts)
                for shard, ts in zip(self.shards, snapshots)
            ]
            for section, n in zip(per_shard, by_shard):
                section[key] += n
            if self.router.spec(placement_name).broadcast:
                return by_shard[0]
            return sum(by_shard)

        listing = self.list_collections()
        for name in listing["tables"]:
            counts["tables"] += 1
            counts["rows"] += tally(Model.RELATIONAL, name, name, "rows")
        for name in listing["collections"]:
            counts["collections"] += 1
            counts["documents"] += tally(Model.DOCUMENT, name, name, "documents")
        for name in listing["xml_collections"]:
            counts["xml_collections"] += 1
            counts["xml_documents"] += tally(Model.XML, name, name, "xml_documents")
        for name in listing["kv_namespaces"]:
            counts["kv_namespaces"] += 1
            counts["kv_pairs"] += tally(Model.KEY_VALUE, name, name, "kv_pairs")
        for name in listing["graphs"]:
            counts["graphs"] += 1
            counts["vertices"] += tally(Model.GRAPH_VERTEX, name, name, "vertices")
            counts["edges"] += tally(
                Model.GRAPH_EDGE, name, edges_placement_name(name), "edges"
            )
        counts["shards"] = {
            f"shard_{i}": section for i, section in enumerate(per_shard)
        }
        counts["placement"] = self.router.describe()
        counts["txn"] = self.coordinator.stats.as_dict()
        if self.replica_sets:
            config = self.replication
            counts["replication"] = {
                "replicas_per_shard": config.replicas_per_shard,
                "write_acks": config.write_acks,
                "read_preference": config.read_preference,
                "max_lag_records": config.max_lag_records,
                "shards": {
                    f"shard_{rs.shard_id}": rs.metrics()
                    for rs in self.replica_sets
                },
            }
        return counts

    # -- internals -----------------------------------------------------------

    def _begin_shard(self, shard_id: int, isolation: IsolationLevel) -> Session:
        with self._shard_locks[shard_id]:
            return self.shards[shard_id].begin(isolation)

    def _finish_shard(self, shard_id: int, session: Session, commit: bool) -> None:
        with self._shard_locks[shard_id]:
            if session.txn.state.value != "active":
                return
            had_writes = not session.txn.is_read_only
            if commit and had_writes and self.replica_sets:
                # Degraded fail-fast: a shard that already lost its
                # quorum refuses the write *before* committing locally
                # (committing first would leave a durable-but-never-
                # acknowledged record per attempt).  The probe doubles
                # as auto-recovery once followers are back.
                try:
                    self.replica_sets[shard_id].ensure_writable()
                except ClusterError:
                    session.abort()
                    raise
            if commit:
                session.commit()
            else:
                session.abort()
        if commit and had_writes and self.replica_sets:
            # The write-ack quorum: the commit is durable on the leader;
            # acknowledgement additionally requires the WAL to reach
            # acks_needed replicas (raises ClusterError when it cannot).
            self.replica_sets[shard_id].replicate()


class _ShardParticipant:
    """One shard's view of a 2PC transaction, for the coordinator.

    Serialises every protocol step through the cluster's per-shard lock
    — the same discipline transaction begin/finish already follows.
    """

    def __init__(self, db: ShardedDatabase, shard_id: int, session: Session) -> None:
        self.db = db
        self.shard_id = shard_id
        self.session = session

    def prepare(self, global_id: int) -> None:
        sets = self.db.replica_sets
        if sets:
            # Degraded fail-fast: refuse the YES vote while this
            # shard's quorum is lost — a prepare that cannot quorum-
            # replicate would wedge the global txn in doubt anyway.
            sets[self.shard_id].ensure_writable()
        with self.db._shard_locks[self.shard_id]:
            self.session.prepare(global_id)
        try:
            self._replicate()
        except ClusterError:
            # The YES vote never reached a quorum, so this shard may
            # still abort unilaterally — and must, or the prepared txn
            # stays pinned forever: the coordinator only releases
            # participants whose prepare() returned.  The abort decision
            # ships to the replicas when they rejoin.
            with self.db._shard_locks[self.shard_id]:
                self.session.abort_prepared()
            raise

    def commit_prepared(self) -> int:
        with self.db._shard_locks[self.shard_id]:
            commit_ts = self.session.commit_prepared()
        self._replicate()
        return commit_ts

    def abort_prepared(self) -> None:
        with self.db._shard_locks[self.shard_id]:
            self.session.abort_prepared()
        self._replicate()

    def _replicate(self) -> None:
        """Quorum-ship each protocol step's WAL records to the replicas.

        Prepares must reach the quorum *before* the coordinator's
        decision (a promoted follower has to know about the in-doubt
        txn to resolve it), and the commit/abort verdict must reach it
        before the coordinator acknowledges.
        """
        sets = self.db.replica_sets
        if sets:
            sets[self.shard_id].replicate()


class ShardedSession:
    """Routes the Session API across per-shard transactions.

    Per-shard sessions open lazily on first touch; commit/abort closes
    every open one.  Routing mirrors the placement table in the module
    docstring; operations without a routable key broadcast (writes) or
    gather (reads) across all shards.
    """

    def __init__(
        self,
        db: ShardedDatabase,
        isolation: IsolationLevel,
        token: ClusterSessionToken | None = None,
    ) -> None:
        self.db = db
        self.isolation = isolation
        self._token = token
        self._sessions: dict[int, Session] = {}
        self.active = True
        # With tracing on, each write transaction gets its own trace id,
        # stamped onto the coordinator's 2PC decision record so a commit
        # point can be correlated with client-side activity.  Read from
        # the instance dict directly: a cluster that never built its
        # observability bundle pays nothing here.
        obs = db.__dict__.get("_observability")
        self.trace_id: int | None = (
            obs.next_trace_id() if obs is not None and obs.tracing else None
        )

    # -- lifecycle -----------------------------------------------------------

    def commit(self) -> None:
        """Commit every touched shard.

        One shard wrote → that shard's ordinary atomic commit (the fast
        path).  Several shards wrote → two-phase commit (all-or-nothing).
        """
        self._close(commit=True)

    def abort(self) -> None:
        self._close(commit=False)

    def _close(self, commit: bool) -> None:
        if not self.active:
            return
        self.active = False
        sessions = sorted(self._sessions.items())
        try:
            writers = [(sid, s) for sid, s in sessions if not s.txn.is_read_only]
            if commit and len(writers) > 1:
                self._close_two_phase(sessions, writers)
            else:
                self._close_per_shard(sessions, commit)
                if commit and writers:
                    self.db.coordinator.stats.incr("fast_path_commits")
            if commit and self._token is not None:
                # Raise the session's read-your-writes floors: a follower
                # may serve this session's reads on a shard only once it
                # has applied past the commit we just made there.
                for shard_id, _ in writers:
                    self._token.observe(
                        shard_id, self.db.shards[shard_id].manager.current_ts
                    )
        finally:
            self._sessions.clear()

    def _close_per_shard(
        self, sessions: list[tuple[int, Session]], commit: bool
    ) -> None:
        """Abort every shard, or commit the single-writer fast path.

        On commit at most one shard has writes, so its ordinary commit
        is the only commit point and no extra WAL records exist.
        Read-only shards cannot fail to commit, so a conflict never
        leaves the transaction partially applied.
        """
        error: BaseException | None = None
        for shard_id, session in sessions:
            try:
                self.db._finish_shard(shard_id, session, commit and error is None)
            except BaseException as exc:  # conflict: abort the remainder
                error = exc
        if error is not None:
            raise error

    def _close_two_phase(
        self,
        sessions: list[tuple[int, Session]],
        writers: list[tuple[int, Session]],
    ) -> None:
        """Cross-shard commit: prepare-all → durable decision → commit-all."""
        # Read-only participants vote READ-ONLY and drop out: nothing to
        # make durable, nothing to redo.
        for shard_id, session in sessions:
            if session.txn.is_read_only:
                self.db._finish_shard(shard_id, session, commit=True)
        participants = [
            (shard_id, _ShardParticipant(self.db, shard_id, session))
            for shard_id, session in writers
        ]
        try:
            self.db.coordinator.commit(participants, trace_id=self.trace_id)
        except SimulatedCrash:
            # A crash mid-protocol must leave prepared participants in
            # doubt — that is the state recovery exists to resolve.
            raise
        except BaseException:
            # The coordinator already aborted every *prepared*
            # participant; abort the still-active rest (the NO voter was
            # aborted by its own manager during prepare).
            for shard_id, session in writers:
                self.db._finish_shard(shard_id, session, commit=False)
            raise

    def _shard(self, shard_id: int) -> Session:
        session = self._sessions.get(shard_id)
        if session is None:
            session = self.db._begin_shard(shard_id, self.isolation)
            self._sessions[shard_id] = session
        return session

    def _route(self, collection: str, key_value: Any) -> Session:
        return self._shard(self.db.router.shard_for(collection, key_value))

    def _all(self) -> list[Session]:
        return [self._shard(i) for i in range(self.db.n_shards)]

    def _spec(self, collection: str) -> ShardSpec:
        return self.db.router.spec(collection)

    # -- relational ----------------------------------------------------------

    def _table_route_value(self, table: str, row_or_pk: Any, is_pk: bool) -> Any:
        spec = self._spec(table)
        if spec.key == PK_SENTINEL:  # composite primary key: route by tuple
            if is_pk:
                return tuple(row_or_pk)
            schema = self.db.table_schema(table)
            return tuple(row_or_pk[c] for c in schema.primary_key)
        if is_pk:
            return row_or_pk[0]
        return row_or_pk.get(spec.key)

    def sql_insert(self, table: str, values: dict[str, Any]) -> tuple[Any, ...]:
        spec = self._spec(table)
        if spec.broadcast:
            results = [s.sql_insert(table, values) for s in self._all()]
            return results[0]
        schema = self.db.table_schema(table)
        row = schema.validate_row(dict(values))
        return self._route(
            table, self._table_route_value(table, row, is_pk=False)
        ).sql_insert(table, values)

    def sql_get(self, table: str, pk: tuple[Any, ...]) -> dict[str, Any] | None:
        spec = self._spec(table)
        if spec.broadcast:
            return self._shard(0).sql_get(table, pk)
        if spec.key_is_record_id or spec.key == PK_SENTINEL:
            return self._route(
                table, self._table_route_value(table, tuple(pk), is_pk=True)
            ).sql_get(table, pk)
        for session in self._all():  # custom shard key: search
            row = session.sql_get(table, pk)
            if row is not None:
                return row
        return None

    def sql_update(
        self, table: str, pk: tuple[Any, ...], changes: dict[str, Any]
    ) -> dict[str, Any]:
        spec = self._spec(table)
        if spec.broadcast:
            results = [s.sql_update(table, pk, changes) for s in self._all()]
            return results[0]
        if spec.key_is_record_id or spec.key == PK_SENTINEL:
            return self._route(
                table, self._table_route_value(table, tuple(pk), is_pk=True)
            ).sql_update(table, pk, changes)
        for session in self._all():
            current = session.sql_get(table, pk)
            if current is not None:
                if spec.key in changes and changes[spec.key] != current.get(spec.key):
                    from repro.errors import ConstraintError

                    raise ConstraintError(
                        f"cannot change shard key {spec.key!r} of a row "
                        f"in sharded table {table!r}"
                    )
                return session.sql_update(table, pk, changes)
        from repro.errors import ConstraintError

        raise ConstraintError(f"no row {pk!r} in {table!r}")

    def sql_delete(self, table: str, pk: tuple[Any, ...]) -> bool:
        spec = self._spec(table)
        if spec.broadcast:
            return any([s.sql_delete(table, pk) for s in self._all()])
        if spec.key_is_record_id or spec.key == PK_SENTINEL:
            return self._route(
                table, self._table_route_value(table, tuple(pk), is_pk=True)
            ).sql_delete(table, pk)
        return any(session.sql_delete(table, pk) for session in self._all())

    def sql_scan(
        self, table: str, predicate: Predicate | None = None
    ) -> Iterator[dict[str, Any]]:
        sessions = [self._shard(0)] if self._spec(table).broadcast else self._all()
        for session in sessions:
            yield from session.sql_scan(table, predicate)

    def sql_find(self, table: str, field: str, value: Any) -> list[dict[str, Any]]:
        spec = self._spec(table)
        if spec.broadcast:
            return self._shard(0).sql_find(table, field, value)
        if field == spec.key:
            return self._route(table, value).sql_find(table, field, value)
        out: list[dict[str, Any]] = []
        for session in self._all():
            out.extend(session.sql_find(table, field, value))
        return out

    # -- documents -----------------------------------------------------------

    def _doc_route_value(self, collection: str, doc_id: Any) -> Session | None:
        """Session owning *doc_id*, or None when the key is not the id."""
        spec = self._spec(collection)
        if spec.broadcast:
            return self._shard(0)
        if spec.key_is_record_id:
            return self._route(collection, doc_id)
        return None

    def doc_insert(self, collection: str, doc: dict[str, Any]) -> str | int:
        spec = self._spec(collection)
        if spec.broadcast:
            results = [s.doc_insert(collection, doc) for s in self._all()]
            return results[0]
        key_value = doc.get(spec.key)
        if spec.key != "_id":
            if spec.key not in doc:
                raise EngineError(
                    f"document for sharded collection {collection!r} lacks "
                    f"shard key {spec.key!r}"
                )
            # The _id no longer determines placement, so the per-shard
            # duplicate check cannot see a same-_id doc on another shard
            # — enforce cluster-wide _id uniqueness here.  The broadcast
            # read catches already-committed duplicates early; it is
            # *not* atomic, so the _id is also reserved on its
            # hash-owner shard inside the same transaction: two
            # concurrent same-_id inserts, wherever their shard keys
            # route them, become a write-write conflict on the owner and
            # the prepare round aborts one.
            if "_id" in doc and self.doc_get(collection, doc["_id"]) is not None:
                from repro.errors import DocumentError

                raise DocumentError(
                    f"duplicate _id {doc['_id']!r} in {collection!r}"
                )
            if "_id" in doc:
                owner = self.db.router.id_owner_shard(doc["_id"])
                self._shard(owner).reserve_id(collection, doc["_id"])
        return self._route(collection, key_value).doc_insert(collection, doc)

    def doc_get(self, collection: str, doc_id: str | int) -> dict[str, Any] | None:
        routed = self._doc_route_value(collection, doc_id)
        if routed is not None:
            return routed.doc_get(collection, doc_id)
        for session in self._all():
            doc = session.doc_get(collection, doc_id)
            if doc is not None:
                return doc
        return None

    def doc_update(
        self, collection: str, doc_id: str | int, changes: dict[str, Any]
    ) -> dict[str, Any]:
        spec = self._spec(collection)
        if spec.broadcast:
            results = [s.doc_update(collection, doc_id, changes) for s in self._all()]
            return results[0]
        routed = self._doc_route_value(collection, doc_id)
        if routed is not None:
            return routed.doc_update(collection, doc_id, changes)
        for session in self._all():
            current = session.doc_get(collection, doc_id)
            if current is not None:
                # Placement follows the shard key: changing it would
                # strand the document on the wrong shard, so reject —
                # the same stance the engine takes on _id changes.
                if spec.key in changes and changes[spec.key] != current.get(spec.key):
                    from repro.errors import DocumentError

                    raise DocumentError(
                        f"cannot change shard key {spec.key!r} of a document "
                        f"in sharded collection {collection!r}"
                    )
                return session.doc_update(collection, doc_id, changes)
        from repro.errors import DocumentError

        raise DocumentError(f"no document {doc_id!r} in {collection!r}")

    def doc_delete(self, collection: str, doc_id: str | int) -> bool:
        spec = self._spec(collection)
        if spec.broadcast:
            return any([s.doc_delete(collection, doc_id) for s in self._all()])
        routed = self._doc_route_value(collection, doc_id)
        if routed is not None:
            return routed.doc_delete(collection, doc_id)
        deleted = any(session.doc_delete(collection, doc_id) for session in self._all())
        if deleted:
            # Custom shard key: the insert reserved this _id on its
            # owner shard — release it in the same transaction so the
            # registry tracks the live id population.
            owner = self.db.router.id_owner_shard(doc_id)
            self._shard(owner).release_id(collection, doc_id)
        return deleted

    def doc_scan(self, collection: str) -> Iterator[dict[str, Any]]:
        sessions = [self._shard(0)] if self._spec(collection).broadcast else self._all()
        for session in sessions:
            yield from session.doc_scan(collection)

    def doc_find(self, collection: str, field: str, value: Any) -> list[dict[str, Any]]:
        spec = self._spec(collection)
        if spec.broadcast:
            return self._shard(0).doc_find(collection, field, value)
        if field == spec.key:
            return self._route(collection, value).doc_find(collection, field, value)
        out: list[dict[str, Any]] = []
        for session in self._all():
            out.extend(session.doc_find(collection, field, value))
        return out

    # -- XML -----------------------------------------------------------------

    def xml_put(self, collection: str, doc_id: str | int, tree: XmlElement) -> None:
        self._route(collection, doc_id).xml_put(collection, doc_id, tree)

    def xml_get(self, collection: str, doc_id: str | int) -> XmlElement | None:
        return self._route(collection, doc_id).xml_get(collection, doc_id)

    def xml_delete(self, collection: str, doc_id: str | int) -> bool:
        return self._route(collection, doc_id).xml_delete(collection, doc_id)

    def xml_scan(self, collection: str) -> Iterator[tuple[str | int, XmlElement]]:
        for session in self._all():
            yield from session.xml_scan(collection)

    def xml_xpath(self, collection: str, doc_id: str | int, path: str) -> list[Any]:
        tree = self.xml_get(collection, doc_id)
        if tree is None:
            return []
        return XPath(path).find(tree)

    # -- key-value -----------------------------------------------------------

    def kv_put(self, namespace: str, key: str, value: Any) -> None:
        self._route(namespace, key).kv_put(namespace, key, value)

    def kv_get(self, namespace: str, key: str, default: Any = None) -> Any:
        return self._route(namespace, key).kv_get(namespace, key, default)

    def kv_delete(self, namespace: str, key: str) -> bool:
        return self._route(namespace, key).kv_delete(namespace, key)

    def kv_scan_prefix(self, namespace: str, prefix: str) -> list[tuple[str, Any]]:
        out: list[tuple[str, Any]] = []
        for session in self._all():
            out.extend(session.kv_scan_prefix(namespace, prefix))
        out.sort(key=lambda pair: pair[0])
        return out

    def kv_scan_range(
        self, namespace: str, low: str, high: str, limit: int | None = None
    ) -> list[tuple[str, Any]]:
        out: list[tuple[str, Any]] = []
        for session in self._all():
            # Per-shard limit bounds the gather to n_shards*limit pairs;
            # the global sort+cut below keeps the answer exact.
            out.extend(session.kv_scan_range(namespace, low, high, limit))
        out.sort(key=lambda pair: pair[0])
        return out if limit is None else out[:limit]

    # -- graph ---------------------------------------------------------------

    def _edge_shard(self, graph: str, src: Any) -> Session:
        return self._shard(self.db.router.shard_for(edges_placement_name(graph), src))

    def graph_add_vertex(
        self, graph: str, vertex_id: Any, label: str, **properties: Any
    ) -> Vertex:
        results = [
            s.graph_add_vertex(graph, vertex_id, label, **properties)
            for s in self._all()
        ]
        return results[0]

    def graph_vertex(self, graph: str, vertex_id: Any) -> Vertex | None:
        return self._shard(0).graph_vertex(graph, vertex_id)

    def graph_update_vertex(self, graph: str, vertex_id: Any, **changes: Any) -> Vertex:
        results = [
            s.graph_update_vertex(graph, vertex_id, **changes) for s in self._all()
        ]
        return results[0]

    def graph_add_edge(
        self, graph: str, src: Any, dst: Any, label: str, **properties: Any
    ) -> Edge:
        return self._edge_shard(graph, src).graph_add_edge(
            graph, src, dst, label, **properties
        )

    def graph_remove_edge(self, graph: str, edge_id: int) -> bool:
        # Edge ids are striped per shard, so at most one shard has it.
        return any(s.graph_remove_edge(graph, edge_id) for s in self._all())

    def graph_out_edges(
        self, graph: str, vertex_id: Any, label: str | None = None
    ) -> list[Edge]:
        return self._edge_shard(graph, vertex_id).graph_out_edges(
            graph, vertex_id, label
        )

    def graph_in_edges(
        self, graph: str, vertex_id: Any, label: str | None = None
    ) -> list[Edge]:
        out: list[Edge] = []
        for session in self._all():
            out.extend(session.graph_in_edges(graph, vertex_id, label))
        return out

    def graph_out_neighbors(
        self, graph: str, vertex_id: Any, label: str | None = None
    ) -> list[Vertex]:
        out = []
        for edge in self.graph_out_edges(graph, vertex_id, label):
            v = self.graph_vertex(graph, edge.dst)
            if v is not None:
                out.append(v)
        return out

    def graph_in_neighbors(
        self, graph: str, vertex_id: Any, label: str | None = None
    ) -> list[Vertex]:
        out = []
        for edge in self.graph_in_edges(graph, vertex_id, label):
            v = self.graph_vertex(graph, edge.src)
            if v is not None:
                out.append(v)
        return out

    def graph_traverse(
        self,
        graph: str,
        start: Any,
        min_depth: int,
        max_depth: int,
        edge_label: str | None = None,
    ) -> list[Any]:
        """Cross-shard BFS: each hop reads the source vertex's edge shard."""
        if self.graph_vertex(graph, start) is None:
            raise GraphError(f"no vertex {start!r} in {graph!r}")
        return bfs_depth_range(
            start, min_depth, max_depth,
            lambda vid: self.graph_out_edges(graph, vid, edge_label),
        )

    def graph_vertices(self, graph: str, label: str | None = None) -> Iterator[Vertex]:
        yield from self._shard(0).graph_vertices(graph, label)

    def graph_edges(self, graph: str, label: str | None = None) -> Iterator[Edge]:
        for session in self._all():
            yield from session.graph_edges(graph, label)


class ShardedQueryContext:
    """QueryContext over per-shard read snapshots, plus the catalog.

    Carries the :class:`ShardRouter` as ``catalog`` so the executor's
    ``plan(query, catalog=...)`` call produces ShardExec scatter-gather
    plans, exposes per-shard contexts to those operators, and implements
    the full single-node protocol itself for everything above the gather
    (joins, COLLECT, builtin bridges).

    Shard snapshots open *lazily*, guarded by the cluster's per-shard
    locks (transaction begin/finish on a shard's manager is not
    thread-safe on its own): a routed point query begins exactly one
    per-shard transaction, not N.  Consequently each shard's snapshot is
    taken when the query first touches that shard — per-shard
    consistency, no cross-shard snapshot point (there never was one:
    eager opening also begins shard transactions at N different
    timestamps).
    """

    def __init__(
        self, db: ShardedDatabase, session: ClusterSessionToken | None = None
    ) -> None:
        self.db = db
        self.catalog = db.router
        self._token = session
        self._contexts: list[UnifiedQueryContext | None] = [None] * db.n_shards
        # The lock each open context's lifecycle is serialised under:
        # the cluster's per-shard lock for a leader snapshot, the
        # replica set's lock for a follower snapshot.
        self._ctx_locks: list[threading.Lock | None] = [None] * db.n_shards
        self._open_lock = threading.Lock()

    @property
    def n_shards(self) -> int:
        return self.db.n_shards

    def shard_context(self, shard_id: int) -> UnifiedQueryContext:
        ctx = self._contexts[shard_id]
        if ctx is None:
            with self._open_lock:
                ctx = self._contexts[shard_id]
                if ctx is None:
                    ctx = self._open_shard_context(shard_id)
                    self._contexts[shard_id] = ctx
        return ctx

    def _open_shard_context(self, shard_id: int) -> UnifiedQueryContext:
        """Open one shard's read snapshot, picking leader or follower.

        Without replication (or with ``read_preference="leader"`` and no
        session token) this is the classic path: a snapshot on the
        shard's live database under the cluster's per-shard lock.  With
        replication, :meth:`ReplicaSet.read_replica` routes by the
        configured preference — a session token upgrades the read to
        session consistency (the follower must have applied the token's
        per-shard floor, else the leader serves it).
        """
        sets = self.db.replica_sets
        if not sets:
            lock = self.db._shard_locks[shard_id]
            with lock:
                ctx = UnifiedQueryContext(self.db.shards[shard_id])
            self._ctx_locks[shard_id] = lock
            return ctx
        replica_set = sets[shard_id]
        preference = (
            "session" if self._token is not None
            else replica_set.config.read_preference
        )
        floor = self._token.floor(shard_id) if self._token is not None else 0
        replica = replica_set.read_replica(preference, floor)
        if replica.db is self.db.shards[shard_id]:
            lock = self.db._shard_locks[shard_id]
            with lock:
                ctx = UnifiedQueryContext(replica.db)
            if self._token is not None:
                self._token.observe(shard_id, replica.db.manager.current_ts)
        else:
            lock = replica_set._lock
            with lock:
                ctx = UnifiedQueryContext(replica.db)
            if self._token is not None:
                self._token.observe(shard_id, replica.applied_ts)
        self._ctx_locks[shard_id] = lock
        return ctx

    def run_parallel(self, tasks: list[Callable[[], Any]]) -> list[Any]:
        """Run thunks concurrently on the cluster pool (ordered results)."""
        pool = self.db.pool()
        if pool is None or len(tasks) <= 1:
            return [task() for task in tasks]
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]

    def remote_pool(self) -> Any:
        """The cluster's worker-process pool (None in ``pool="threads"``).

        ShardExec's scatter probes this to decide whether a multi-target
        subplan ships to worker processes or runs on the thread pool.
        """
        return self.db.remote_pool()

    def close(self) -> None:
        with self._open_lock:
            for shard_id, ctx in enumerate(self._contexts):
                if ctx is not None:
                    lock = self._ctx_locks[shard_id] or self.db._shard_locks[shard_id]
                    with lock:
                        ctx.close()
            self._contexts = [None] * self.db.n_shards
            self._ctx_locks = [None] * self.db.n_shards

    # -- placement helpers ---------------------------------------------------

    def _spec(self, collection: str) -> ShardSpec:
        return self.catalog.spec(collection)

    def _all_contexts(self) -> list[UnifiedQueryContext]:
        return [self.shard_context(i) for i in range(self.db.n_shards)]

    def _read_contexts(self, collection: str) -> list[UnifiedQueryContext]:
        if self._spec(collection).broadcast:
            return [self.shard_context(0)]
        return self._all_contexts()

    # -- QueryContext protocol -----------------------------------------------

    def iter_collection(self, name: str) -> Iterable[Any]:
        for ctx in self._read_contexts(name):
            yield from ctx.iter_collection(name)

    def index_lookup(
        self, collection: str, field: str, value: Any
    ) -> Iterable[Any] | None:
        spec = self._spec(collection)
        if spec.broadcast:
            return self.shard_context(0).index_lookup(collection, field, value)
        if field == spec.key or (field == "_id" and self.catalog.routes_record_id(collection)):
            # Shard-key (or record-id) equality: only one shard can hold it.
            ctx = self.shard_context(self.catalog.shard_for(collection, value))
            rows = ctx.index_lookup(collection, field, value)
            if rows is not None:
                return rows
            # No index on the routed shard: over-approximate with that
            # shard's scan — still 1/N of the data; the residual FILTER
            # keeps the answer exact.
            return list(ctx.iter_collection(collection))
        gathered: list[Any] = []
        for ctx in self._all_contexts():
            rows = ctx.index_lookup(collection, field, value)
            if rows is None:
                return None  # uniform DDL: no shard has the index
            gathered.extend(rows)
        return gathered

    def range_lookup(
        self,
        collection: str,
        field: str,
        low: Any,
        high: Any,
        include_low: bool,
        include_high: bool,
    ) -> Iterable[Any] | None:
        spec = self._spec(collection)
        if spec.broadcast:
            return self.shard_context(0).range_lookup(
                collection, field, low, high, include_low, include_high
            )
        shard_ids = None
        if field == spec.key:
            shard_ids = self.catalog.shards_for_range(collection, low, high)
        if shard_ids is None:
            shard_ids = self.catalog.all_shards()
        gathered: list[Any] = []
        for shard_id in shard_ids:
            rows = self.shard_context(shard_id).range_lookup(
                collection, field, low, high, include_low, include_high
            )
            if rows is None:
                return None
            gathered.extend(rows)
        return gathered

    # -- graph ---------------------------------------------------------------

    def _edge_ctx(self, graph: str, src: Any) -> UnifiedQueryContext:
        return self.shard_context(self.catalog.shard_for(edges_placement_name(graph), src))

    def traverse(
        self,
        graph: str,
        start: Any,
        min_depth: int,
        max_depth: int,
        edge_label: str | None,
    ) -> Iterable[Any]:
        """Cross-shard BFS over routed edge shards; vertices from shard 0."""
        v0 = self.shard_context(0)
        if v0.session.graph_vertex(graph, start) is None:
            raise GraphError(f"no vertex {start!r} in {graph!r}")
        order = bfs_depth_range(
            start, min_depth, max_depth,
            lambda vid: self._edge_ctx(graph, vid).session.graph_out_edges(
                graph, vid, edge_label
            ),
        )
        for vid in order:
            vertex = v0.session.graph_vertex(graph, vid)
            if vertex is not None:
                yield v0._vertex_dict(vertex)

    def vertices(self, graph: str, label: str | None) -> Iterable[Any]:
        yield from self.shard_context(0).vertices(graph, label)

    def edges(self, graph: str, label: str | None) -> Iterable[Any]:
        for ctx in self._all_contexts():
            yield from ctx.edges(graph, label)

    def shortest_path(
        self, graph: str, start: Any, goal: Any, edge_label: str | None
    ) -> list[Any] | None:
        if start == goal:
            return [start]
        from collections import deque

        parents: dict[Any, Any] = {start: start}
        queue: deque[Any] = deque([start])
        while queue:
            vid = queue.popleft()
            edge_session = self._edge_ctx(graph, vid).session
            for edge in edge_session.graph_out_edges(graph, vid, edge_label):
                if edge.dst in parents:
                    continue
                parents[edge.dst] = vid
                if edge.dst == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                queue.append(edge.dst)
        return None

    # -- KV / XML bridges ----------------------------------------------------

    def kv_get(self, namespace: str, key: str) -> Any:
        shard_id = self.catalog.shard_for(namespace, key)
        return self.shard_context(shard_id).kv_get(namespace, key)

    def kv_prefix(self, namespace: str, prefix: str) -> Iterable[Any]:
        gathered: list[Any] = []
        for ctx in self._all_contexts():
            gathered.extend(ctx.kv_prefix(namespace, prefix))
        gathered.sort(key=lambda pair: pair["key"])
        return gathered

    def xml_get(self, collection: str, doc_id: Any) -> Any:
        shard_id = self.catalog.shard_for(collection, doc_id)
        return self.shard_context(shard_id).xml_get(collection, doc_id)
