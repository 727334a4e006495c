"""Transactions: isolation levels, MVCC snapshots, commit protocol.

Isolation ladder (what E3 sweeps, weakest to strongest):

- ``READ_UNCOMMITTED`` — reads may see other *active* transactions'
  buffered writes (dirty reads possible).
- ``READ_COMMITTED`` — every read sees the latest committed version at
  the moment of the read (no dirty reads; non-repeatable reads, fractured
  multi-model reads and lost updates possible).
- ``SNAPSHOT`` — all reads see the database as of the transaction's start
  timestamp; commits use first-committer-wins on the write set (no lost
  updates; write skew possible).
- ``SERIALIZABLE`` — snapshot reads *plus* strict two-phase locking:
  shared locks on reads (collection-level for scans, record-level for
  point reads), exclusive locks on writes, all held to commit.  Lock
  conflicts raise :class:`repro.engine.locks.WouldBlock` for the schedule
  executor; deadlocks abort the requester.

Writes are always buffered in the transaction's private write set and
applied atomically at commit, so no isolation level ever exposes *partial*
transactions to `READ_COMMITTED` and above — which is exactly the
multi-model atomicity property the benchmark probes.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Iterator

from repro.engine.locks import LockManager, LockMode, WouldBlock
from repro.engine.records import Model, RecordKey, Version, VersionChain, copy_value
from repro.engine.wal import WriteAheadLog
from repro.errors import (
    DeadlockError,
    SerializationConflict,
    SimulatedCrash,
    TransactionError,
)


class IsolationLevel(enum.Enum):
    READ_UNCOMMITTED = "read_uncommitted"
    READ_COMMITTED = "read_committed"
    SNAPSHOT = "snapshot"
    SERIALIZABLE = "serializable"


class TxnState(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Store:
    """The committed record store: collections of version chains.

    One instance per database; the transaction manager is its only
    writer (via :meth:`apply_committed_write`).
    """

    def __init__(self) -> None:
        self._collections: dict[tuple[Model, str], dict[Any, VersionChain]] = {}
        # apply-time hooks installed by the database facade (index and
        # adjacency maintenance): fn(record_key, old_value, new_value)
        self.on_apply: list[Callable[[RecordKey, Any, Any], None]] = []

    def register_collection(self, model: Model, name: str) -> None:
        self._collections.setdefault((model, name), {})

    def drop_collection(self, model: Model, name: str) -> None:
        self._collections.pop((model, name), None)

    def has_collection(self, model: Model, name: str) -> bool:
        return (model, name) in self._collections

    def collection(self, model: Model, name: str) -> dict[Any, VersionChain]:
        return self._collections[(model, name)]

    def collection_names(self, model: Model) -> list[str]:
        return [n for (m, n) in self._collections if m is model]

    def chain(self, key: RecordKey) -> VersionChain | None:
        coll = self._collections.get((key.model, key.collection))
        if coll is None:
            return None
        return coll.get(key.key)

    def apply_committed_write(self, ts: int, key: RecordKey, value: Any, txn_id: int) -> None:
        """Append one committed version and fire maintenance hooks."""
        coll = self._collections.setdefault((key.model, key.collection), {})
        chain = coll.get(key.key)
        old_value = None
        if chain is None:
            chain = VersionChain()
            coll[key.key] = chain
        else:
            latest = chain.latest()
            old_value = latest.value if latest is not None else None
        chain.append(Version(ts, copy_value(value) if value is not None else None, txn_id))
        for hook in self.on_apply:
            hook(key, old_value, value)

    def vacuum(self, keep_ts: int) -> int:
        """Prune versions invisible to every snapshot >= keep_ts."""
        pruned = 0
        for coll in self._collections.values():
            dead_keys = []
            for key, chain in coll.items():
                pruned += chain.prune_before(keep_ts)
                if chain.is_dead():
                    dead_keys.append(key)
            for key in dead_keys:
                del coll[key]
        return pruned


def keyspace_resource(model: Model, collection: str) -> tuple[str, str, str]:
    """The coarse lock resource guarding a collection's key population.

    Serializable scans take it shared; serializable inserts/deletes take
    it exclusive — a collection-granularity predicate lock that rules out
    phantoms at the cost of writer concurrency (documented trade-off).
    """
    return ("keyspace", model.value, collection)


class Transaction:
    """One multi-model transaction.  Created via ``TransactionManager.begin``."""

    def __init__(
        self,
        manager: "TransactionManager",
        txn_id: int,
        isolation: IsolationLevel,
        start_ts: int,
    ) -> None:
        self.manager = manager
        self.txn_id = txn_id
        self.isolation = isolation
        self.start_ts = start_ts
        self.state = TxnState.ACTIVE
        # Ordered write buffer: RecordKey -> new value (None = delete).
        self.write_set: dict[RecordKey, Any] = {}
        self.read_set: set[RecordKey] = set()
        self.commit_ts: int | None = None
        # Global (cross-shard) transaction id, set when this txn becomes
        # a 2PC participant at prepare time.
        self.global_id: int | None = None

    # -- core record operations --------------------------------------------

    def read(self, key: RecordKey) -> Any:
        """Read one record under this transaction's isolation level.

        Returns the stored object itself — borrowed, shared with the
        store and never to be mutated (the ownership rule of
        :mod:`repro.engine.records`); ``Session`` copies it out.
        """
        self._check_active()
        if key in self.write_set:
            return self.write_set[key]
        if self.isolation is IsolationLevel.SERIALIZABLE:
            self.manager.locks.acquire(self.txn_id, key, LockMode.SHARED)
        self.read_set.add(key)
        if self.isolation is IsolationLevel.READ_UNCOMMITTED:
            dirty = self.manager.latest_dirty_write(key, exclude=self.txn_id)
            if dirty is not _MISSING:
                return dirty
        chain = self.manager.store.chain(key)
        if chain is None:
            return None
        version = chain.visible_at(self._read_ts())
        return version.value if version is not None else None

    def write(self, key: RecordKey, value: Any) -> None:
        """Buffer a write (value None = delete) in the private write set."""
        self._check_active()
        if self.isolation is IsolationLevel.SERIALIZABLE:
            self.manager.locks.acquire(self.txn_id, key, LockMode.EXCLUSIVE)
        self.write_set[key] = copy_value(value) if value is not None else None

    def delete(self, key: RecordKey) -> None:
        self.write(key, None)

    def scan(
        self,
        model: Model,
        collection: str,
        key_filter: Callable[[Any], bool] | None = None,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield (key, value) for every record visible in a collection.

        Own buffered writes overlay the committed state: additions appear,
        deletions disappear, updates show the new value — for writes made
        while the scan is suspended too, from the next record on.  *key_filter*
        narrows the scan to the raw keys it accepts, tested before any
        visibility check is spent on a record.  Values are borrowed,
        exactly as :meth:`read` hands them back.
        """
        self._check_active()
        if self.isolation is IsolationLevel.SERIALIZABLE:
            self.manager.locks.acquire(
                self.txn_id, keyspace_resource(model, collection), LockMode.SHARED
            )
        read_ts = self._read_ts()
        coll = (
            self.manager.store.collection(model, collection)
            if self.manager.store.has_collection(model, collection)
            else {}
        )
        write_set = self.write_set
        dirty_reads = self.isolation is IsolationLevel.READ_UNCOMMITTED
        emitted: set[Any] = set()  # only the dirty-insert pass reads it
        for raw_key, chain in list(coll.items()):
            if key_filter is not None and not key_filter(raw_key):
                continue
            if write_set or dirty_reads:
                # Tested per record, not per scan: a query snapshot (nothing
                # buffered, ever) never builds a RecordKey, and a write made
                # while this generator is suspended still overlays.
                record_key = RecordKey(model, collection, raw_key)
                if record_key in write_set:
                    continue  # handled by the overlay pass below
                if dirty_reads:
                    dirty = self.manager.latest_dirty_write(
                        record_key, exclude=self.txn_id
                    )
                    if dirty is not _MISSING:
                        if dirty is not None:
                            emitted.add(raw_key)
                            yield raw_key, dirty
                        continue
            version = chain.visible_at(read_ts)
            if version is not None and version.value is not None:
                if dirty_reads:
                    emitted.add(raw_key)
                yield raw_key, version.value
        if dirty_reads:
            # Dirty *inserts* by other active transactions have no chain
            # yet, so the committed pass above cannot surface them.
            for record_key, value in self.manager.dirty_inserts(
                model, collection, exclude=self.txn_id
            ):
                if (
                    record_key.key not in emitted
                    and record_key not in self.write_set
                    and record_key.key not in coll
                    and (key_filter is None or key_filter(record_key.key))
                ):
                    emitted.add(record_key.key)
                    yield record_key.key, value
        for record_key, value in list(self.write_set.items()):
            if record_key.model is model and record_key.collection == collection:
                if value is not None and (
                    key_filter is None or key_filter(record_key.key)
                ):
                    yield record_key.key, value

    def declare_insert(self, model: Model, collection: str) -> None:
        """Serializable phantom protection for an insert/delete."""
        if self.isolation is IsolationLevel.SERIALIZABLE:
            self.manager.locks.acquire(
                self.txn_id, keyspace_resource(model, collection), LockMode.EXCLUSIVE
            )

    # -- lifecycle -----------------------------------------------------------

    def commit(self) -> int:
        """Commit; returns the commit timestamp."""
        self._check_active()
        return self.manager.commit(self)

    def abort(self) -> None:
        self._check_active()
        self.manager.abort(self)

    @property
    def is_read_only(self) -> bool:
        return not self.write_set

    def _read_ts(self) -> int:
        """The snapshot timestamp reads use at this isolation level.

        SNAPSHOT pins the start timestamp.  SERIALIZABLE reads the latest
        committed state: strict 2PL already guarantees that state cannot
        change under the transaction's locks, and a blocked-then-granted
        reader must observe the commit it waited for.
        """
        if self.isolation is IsolationLevel.SNAPSHOT:
            return self.start_ts
        return self.manager.current_ts

    def _check_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}"
            )


_MISSING = object()


class TransactionManager:
    """Begins, commits, and aborts transactions against one Store."""

    def __init__(self, store: Store, wal: WriteAheadLog) -> None:
        self.store = store
        self.wal = wal
        self.locks = LockManager()
        self.current_ts = 0
        self._next_txn_id = 1
        self.active: dict[int, Transaction] = {}
        # 2PC participants that voted YES and await the coordinator's
        # verdict.  Their write locks stay pinned until the decision.
        self.prepared: dict[int, Transaction] = {}
        self.commits = 0
        self.aborts = 0
        self.conflicts = 0
        self.prepares = 0
        # Fault injection (E6): crash after the write records are durable
        # but before the commit record — the worst possible moment.
        self.crash_before_next_commit_record = False

    # -- lifecycle -----------------------------------------------------------

    def begin(
        self, isolation: IsolationLevel = IsolationLevel.SNAPSHOT
    ) -> Transaction:
        txn = Transaction(self, self._next_txn_id, isolation, self.current_ts)
        self._next_txn_id += 1
        self.active[txn.txn_id] = txn
        return txn

    def _log_writes(self, txn: Transaction) -> None:
        """The transaction's first durable records: ``begin``, then its
        writes.  Nothing is logged before commit/prepare, so read-only
        and aborted transactions never touch the WAL."""
        self.wal.log_begin(txn.txn_id)
        for key, value in txn.write_set.items():
            self.wal.log_write(txn.txn_id, key, value)

    def commit(self, txn: Transaction) -> int:
        if txn.txn_id not in self.active:
            raise TransactionError(f"transaction {txn.txn_id} is not active")
        if txn.is_read_only:
            txn.state = TxnState.COMMITTED
            txn.commit_ts = self.current_ts
            self._finish(txn)
            return self.current_ts
        if txn.isolation in (IsolationLevel.SNAPSHOT, IsolationLevel.SERIALIZABLE):
            self._first_committer_wins_check(txn)
            self._prepared_overlap_check(txn)
        commit_ts = self.current_ts + 1
        self._log_writes(txn)
        if self.crash_before_next_commit_record:
            self.crash_before_next_commit_record = False
            self._finish_crashed(txn)
            raise SimulatedCrash(
                f"txn {txn.txn_id}: crash injected before the commit record"
            )
        self.wal.log_commit(txn.txn_id, commit_ts)
        # The WAL record is durable; now apply to the in-memory store.
        self.current_ts = commit_ts
        for key, value in txn.write_set.items():
            self.store.apply_committed_write(commit_ts, key, value, txn.txn_id)
        txn.state = TxnState.COMMITTED
        txn.commit_ts = commit_ts
        self.commits += 1
        self._finish(txn)
        return commit_ts

    def abort(self, txn: Transaction) -> None:
        if txn.txn_id not in self.active:
            raise TransactionError(f"transaction {txn.txn_id} is not active")
        txn.state = TxnState.ABORTED
        self.aborts += 1
        self._finish(txn)

    # -- two-phase commit (participant side) ---------------------------------

    def prepare(self, txn: Transaction, global_id: int) -> None:
        """Phase one: validate, make the writes durable, vote YES.

        On success the transaction moves to PREPARED: its writes are in
        the WAL behind a prepare record, its write locks are pinned, and
        only :meth:`commit_prepared` / :meth:`abort_prepared` (the
        coordinator's verdict) can release it.  Any validation or lock
        failure aborts the transaction — a NO vote — and raises
        :class:`SerializationConflict`.
        """
        if txn.txn_id not in self.active:
            raise TransactionError(f"transaction {txn.txn_id} is not active")
        if txn.is_read_only:
            raise TransactionError(
                f"transaction {txn.txn_id} is read-only; nothing to prepare"
            )
        if txn.isolation in (IsolationLevel.SNAPSHOT, IsolationLevel.SERIALIZABLE):
            self._first_committer_wins_check(txn)
            self._prepared_overlap_check(txn)
        # Pin exclusive locks on the write set so serializable readers
        # and writers block on the in-doubt records until the decision.
        for key in txn.write_set:
            try:
                self.locks.acquire(txn.txn_id, key, LockMode.EXCLUSIVE)
            except (WouldBlock, DeadlockError) as exc:
                self.conflicts += 1
                self.abort(txn)
                raise SerializationConflict(
                    f"txn {txn.txn_id}: cannot pin {key} at prepare: {exc}"
                ) from exc
        self._log_writes(txn)
        self.wal.log_prepare(txn.txn_id, global_id)
        txn.state = TxnState.PREPARED
        txn.global_id = global_id
        self.prepared[txn.txn_id] = txn
        del self.active[txn.txn_id]
        self.prepares += 1

    def commit_prepared(self, txn: Transaction) -> int:
        """Phase two, COMMIT verdict: log the decision, apply the writes."""
        if txn.txn_id not in self.prepared:
            raise TransactionError(f"transaction {txn.txn_id} is not prepared")
        commit_ts = self.current_ts + 1
        self.wal.log_decision(txn.txn_id, "commit", commit_ts, txn.global_id)
        self.current_ts = commit_ts
        for key, value in txn.write_set.items():
            self.store.apply_committed_write(commit_ts, key, value, txn.txn_id)
        txn.state = TxnState.COMMITTED
        txn.commit_ts = commit_ts
        self.commits += 1
        self._release_prepared(txn)
        return commit_ts

    def abort_prepared(self, txn: Transaction) -> None:
        """Phase two, ABORT verdict: the buffered writes never apply."""
        if txn.txn_id not in self.prepared:
            raise TransactionError(f"transaction {txn.txn_id} is not prepared")
        self.wal.log_decision(txn.txn_id, "abort", None, txn.global_id)
        txn.state = TxnState.ABORTED
        self.aborts += 1
        self._release_prepared(txn)

    def _release_prepared(self, txn: Transaction) -> None:
        self.locks.release_all(txn.txn_id)
        del self.prepared[txn.txn_id]

    def _prepared_overlap_check(self, txn: Transaction) -> None:
        """Conflict with an in-doubt write set: the requester loses.

        A prepared transaction's writes are not in the store yet, so
        first-committer-wins cannot see them; without this check a
        concurrent commit could slip a version under a pinned record and
        be silently overwritten when the verdict lands.
        """
        for other in self.prepared.values():
            clash = [key for key in txn.write_set if key in other.write_set]
            if clash:
                self.conflicts += 1
                self.abort(txn)
                raise SerializationConflict(
                    f"txn {txn.txn_id}: record {clash[0]} is pinned by "
                    f"prepared txn {other.txn_id} (global {other.global_id})"
                )

    def _finish(self, txn: Transaction) -> None:
        self.locks.release_all(txn.txn_id)
        del self.active[txn.txn_id]

    def _finish_crashed(self, txn: Transaction) -> None:
        """Tear down a transaction interrupted by an injected crash."""
        txn.state = TxnState.ABORTED
        self._finish(txn)

    def _first_committer_wins_check(self, txn: Transaction) -> None:
        """Abort if any written record changed since the snapshot."""
        for key in txn.write_set:
            chain = self.store.chain(key)
            if chain is not None and chain.latest_begin_ts() > txn.start_ts:
                self.conflicts += 1
                self.abort(txn)
                raise SerializationConflict(
                    f"txn {txn.txn_id}: record {key} was modified at "
                    f"ts {chain.latest_begin_ts()} after snapshot "
                    f"ts {txn.start_ts}"
                )

    # -- dirty-read support (READ_UNCOMMITTED) ----------------------------------

    def latest_dirty_write(self, key: RecordKey, exclude: int) -> Any:
        """The newest buffered write to *key* by another active txn.

        Returns the sentinel ``_MISSING`` when no active transaction has
        written the record.
        """
        latest: Any = _MISSING
        for txn_id in sorted(self.active):
            if txn_id == exclude:
                continue
            txn = self.active[txn_id]
            if key in txn.write_set:
                latest = txn.write_set[key]
        return latest

    def dirty_inserts(
        self, model: Model, collection: str, exclude: int
    ) -> list[tuple[RecordKey, Any]]:
        """Buffered non-delete writes to a collection by other active txns."""
        out: list[tuple[RecordKey, Any]] = []
        for txn_id in sorted(self.active):
            if txn_id == exclude:
                continue
            for key, value in self.active[txn_id].write_set.items():
                if key.model is model and key.collection == collection and value is not None:
                    out.append((key, value))
        return out

    # -- maintenance ----------------------------------------------------------

    def oldest_active_snapshot(self) -> int:
        """The smallest start_ts among active txns (current_ts if none)."""
        if not self.active:
            return self.current_ts
        return min(t.start_ts for t in self.active.values())

    def vacuum(self) -> int:
        """Prune versions no active snapshot can see."""
        return self.store.vacuum(self.oldest_active_snapshot())
