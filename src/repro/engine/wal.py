"""A redo-only write-ahead log with crash simulation and recovery.

The log is a list of records; ``sync()`` advances the *durable
watermark*.  :meth:`WriteAheadLog.crash` discards everything after the
watermark — exactly what a power failure does to an OS page cache — and
recovery replays only transactions whose COMMIT record survived.  The
atomicity experiment (E6) crashes the engine mid-commit and checks that
multi-model invariants still hold after replay; the polyglot baseline,
which has one log per store and therefore several commit points, fails
the same check.

Record shapes (plain dicts so they serialise trivially):

- ``{"type": "begin", "txn": id}`` — written immediately before the
  transaction's first ``write`` record, at commit/prepare time
- ``{"type": "write", "txn": id, "key": RecordKey, "value": ...}``
  (``value is None`` encodes a delete)
- ``{"type": "commit", "txn": id, "ts": commit_ts}``
- ``{"type": "checkpoint", "ts": ts}``

Writes are buffered in the transaction and only reach the log at
commit/prepare, so log work is proportional to what was written: a
read-only transaction leaves no record at all, and there is no
``abort`` record type — a transaction that gives up before commit has
logged nothing to revoke (a *prepared* one is revoked by an abort
``decision``, below).

Two-phase commit adds participant-side records (``repro.txn`` is the
coordinator; the shard WAL only stores the participant's view):

- ``{"type": "prepare", "txn": id, "gtxn": global_id}`` — the
  transaction's writes (logged just before) are durable and validated,
  the participant votes YES and may no longer unilaterally abort.
- ``{"type": "decision", "txn": id, "gtxn": global_id,
  "decision": "commit"|"abort", "ts": commit_ts|None}`` — the
  coordinator's verdict reached this participant (or was re-derived by
  recovery from the coordinator log).

A prepared transaction with no decision/commit record is
*in-doubt*: :meth:`replay` holds its writes back (neither redone nor
forgotten) and :meth:`prepared_in_doubt` surfaces it so recovery can ask
the coordinator log for the verdict.  Prepare and decision appends
force a sync even when ``sync_every_append`` is off — the protocol is
meaningless unless its votes and verdicts are durable.

Checksums: every append stores a CRC32 of the record's serialized form
(the same ``repr`` bytes the byte accounting already pays for), the
in-memory stand-in for the per-record checksum a real log writes to
disk.  Torn writes and bit rot — injectable at the ``wal.append``
failpoint or via :meth:`WriteAheadLog.corrupt` — leave a record whose
stored checksum can no longer re-validate; recovery calls
:meth:`truncate_corrupt` to cut the log at the *first* bad record
instead of replaying garbage, and the corruption counters surface
through :meth:`metrics` into the observability registry.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterator

from repro.engine.records import RecordKey, copy_value
from repro.errors import WalError
from repro.faults.registry import FAULTS


class WriteAheadLog:
    """An append-only redo log with an explicit durability watermark."""

    def __init__(self, sync_every_append: bool = True) -> None:
        self._records: list[dict[str, Any]] = []
        # Parallel per-record CRC32s over the record's repr bytes —
        # every mutation of _records mirrors into _crcs.
        self._crcs: list[int] = []
        self._durable = 0
        self.sync_every_append = sync_every_append
        # Owner label for fault-site targeting ("shard0", "shard1f2");
        # set by whoever constructs the owning database.
        self.tag = ""
        self.appends = 0
        self.syncs = 0
        # Byte accounting for the metrics surface: appended_bytes grows
        # per append (repr-encoded size — an approximation of what a
        # serialised log would write), synced_bytes advances to it at
        # each sync (what an fsync would have flushed).  Both are
        # monotonic process-lifetime counters; crash() does not rewind
        # them, exactly like appends/syncs.
        self.appended_bytes = 0
        self.synced_bytes = 0
        # Corruption accounting (monotonic, like appends/syncs):
        # detections = truncate_corrupt calls that found a bad record,
        # dropped = records cut by those truncations.
        self.corrupt_records_detected = 0
        self.corrupt_records_dropped = 0

    # -- appending ---------------------------------------------------------

    def append(self, record: dict[str, Any]) -> None:
        """Append one record; auto-syncs when configured (default)."""
        if "type" not in record:
            raise WalError(f"WAL record missing 'type': {record!r}")
        data = repr(record).encode()
        crc = zlib.crc32(data)
        if FAULTS.enabled:
            action = FAULTS.fire("wal.append", tag=self.tag, type=record["type"])
            if action is not None:
                if action.kind == "torn_write":
                    # Partially flushed: the stored checksum covers only
                    # a prefix of the record's bytes, so it can never
                    # re-validate — exactly what a sector-split write
                    # under power loss leaves behind.
                    crc = zlib.crc32(data[: len(data) // 2])
                elif action.kind == "bit_flip":
                    crc ^= 1 << (action.payload.get("bit", 0) % 32)
        self._records.append(record)
        self._crcs.append(crc)
        self.appends += 1
        self.appended_bytes += len(data)
        if self.sync_every_append:
            self.sync()

    def log_begin(self, txn_id: int) -> None:
        self.append({"type": "begin", "txn": txn_id})

    def log_write(self, txn_id: int, key: RecordKey, value: Any) -> None:
        self.append(
            {"type": "write", "txn": txn_id, "key": key, "value": copy_value(value)}
        )

    def log_commit(self, txn_id: int, commit_ts: int) -> None:
        self.append({"type": "commit", "txn": txn_id, "ts": commit_ts})

    def log_prepare(self, txn_id: int, global_id: int) -> None:
        """Participant PREPARE vote; forced durable regardless of config."""
        self.append({"type": "prepare", "txn": txn_id, "gtxn": global_id})
        if not self.sync_every_append:
            self.sync()

    def log_decision(
        self,
        txn_id: int,
        decision: str,
        ts: int | None = None,
        global_id: int | None = None,
    ) -> None:
        """Coordinator verdict for a prepared txn; forced durable."""
        if decision not in ("commit", "abort"):
            raise WalError(f"bad 2PC decision {decision!r}")
        if decision == "commit" and ts is None:
            raise WalError("a commit decision requires a commit timestamp")
        self.append(
            {"type": "decision", "txn": txn_id, "gtxn": global_id,
             "decision": decision, "ts": ts}
        )
        if not self.sync_every_append:
            self.sync()

    def log_checkpoint(self, ts: int) -> None:
        self.append({"type": "checkpoint", "ts": ts})

    def sync(self) -> None:
        """Advance the durable watermark to the end of the log."""
        self._durable = len(self._records)
        self.syncs += 1
        self.synced_bytes = self.appended_bytes

    def metrics(self) -> dict[str, int]:
        """Counter snapshot for the observability registry's collector."""
        return {
            "appends": self.appends,
            "syncs": self.syncs,
            "appended_bytes": self.appended_bytes,
            "synced_bytes": self.synced_bytes,
            "durable_records": self._durable,
            "records": len(self._records),
            "corrupt_records_total": self.corrupt_records_detected,
            "corrupt_records_dropped_total": self.corrupt_records_dropped,
        }

    # -- crash & recovery -----------------------------------------------------

    def crash(self) -> int:
        """Discard every record after the durable watermark.

        Returns the number of records lost.  Simulates a machine failure:
        buffered-but-unsynced appends vanish.
        """
        lost = len(self._records) - self._durable
        del self._records[self._durable :]
        del self._crcs[self._durable :]
        return lost

    # -- checksums & corruption ---------------------------------------------

    def corrupt(self, index: int, mode: str = "bit_flip", bit: int = 0) -> None:
        """Fault hook: simulate on-disk corruption of one stored record.

        ``bit_flip`` flips one bit of the record's stored bytes (modelled
        by flipping the stored checksum — detection-equivalent, since
        verification only compares recomputed vs stored CRC); ``torn``
        re-checksums a byte prefix, modelling a partially flushed
        record.  Either way :meth:`first_corrupt` now reports *index*.
        """
        if not 0 <= index < len(self._records):
            raise WalError(
                f"cannot corrupt record {index} of a {len(self._records)}-record log"
            )
        if mode == "bit_flip":
            self._crcs[index] ^= 1 << (bit % 32)
        elif mode == "torn":
            data = repr(self._records[index]).encode()
            self._crcs[index] = zlib.crc32(data[: len(data) // 2])
        else:
            raise WalError(f"unknown corruption mode {mode!r}")

    def first_corrupt(self) -> int | None:
        """Index of the first durable record failing its checksum, or None."""
        for i in range(self._durable):
            if zlib.crc32(repr(self._records[i]).encode()) != self._crcs[i]:
                return i
        return None

    def truncate_corrupt(self) -> int:
        """Cut the log at the first checksum failure; returns records dropped.

        The recovery-time guard: replaying past a torn or bit-flipped
        record would deserialize garbage, so everything from the first
        bad record onward is discarded — corruption bounds loss to the
        corrupted suffix, never to silent wrong answers.  Counted in
        ``corrupt_records_detected`` / ``corrupt_records_dropped``.
        """
        bad = self.first_corrupt()
        if bad is None:
            return 0
        dropped = len(self._records) - bad
        del self._records[bad:]
        del self._crcs[bad:]
        self._durable = min(self._durable, bad)
        self.corrupt_records_detected += 1
        self.corrupt_records_dropped += dropped
        return dropped

    def records(self) -> Iterator[dict[str, Any]]:
        """Iterate durable records (used by recovery and tests)."""
        return iter(self._records[: self._durable])

    def __len__(self) -> int:
        return len(self._records)

    @property
    def durable_length(self) -> int:
        return self._durable

    def committed_transactions(self) -> dict[int, int]:
        """Map txn_id -> commit_ts for every durably committed txn.

        A 2PC commit decision is a commit: the participant's writes were
        made durable at prepare time, the verdict makes them real.
        """
        out: dict[int, int] = {}
        for rec in self.records():
            if rec["type"] == "commit":
                out[rec["txn"]] = rec["ts"]
            elif rec["type"] == "decision" and rec["decision"] == "commit":
                out[rec["txn"]] = rec["ts"]
        return out

    def prepared_in_doubt(self) -> dict[int, int]:
        """Map txn_id -> global txn id for every unresolved prepared txn.

        A txn is in-doubt when its prepare record is durable but no
        commit or decision record follows.  Recovery must not
        redo its writes (the coordinator may have aborted) nor drop them
        (the coordinator may have committed) until the coordinator log
        settles the verdict.
        """
        out: dict[int, int] = {}
        for rec in self.records():
            if rec["type"] == "prepare":
                out[rec["txn"]] = rec["gtxn"]
            elif rec["type"] in ("commit", "decision"):
                out.pop(rec["txn"], None)
        return out

    def max_commit_ts(self) -> int:
        """The largest durable commit timestamp (0 when none)."""
        committed = self.committed_transactions()
        return max(committed.values(), default=0)

    def replay(self) -> Iterator[tuple[int, RecordKey, Any]]:
        """Yield (commit_ts, key, value) for every durably committed write.

        Writes of uncommitted or aborted transactions are skipped — this
        is the redo pass of ARIES restricted to redo-only logging (no
        undo needed because uncommitted writes never reach the store).
        Within a transaction, write order is preserved; transactions are
        yielded in commit-timestamp order.  Values are the log records'
        own (``log_write`` copied them in): read-only to the caller.
        """
        committed = self.committed_transactions()
        writes: dict[int, list[tuple[RecordKey, Any]]] = {}
        for rec in self.records():
            if rec["type"] == "write" and rec["txn"] in committed:
                writes.setdefault(rec["txn"], []).append((rec["key"], rec["value"]))
        for txn_id in sorted(committed, key=lambda t: committed[t]):
            ts = committed[txn_id]
            for key, value in writes.get(txn_id, []):
                yield ts, key, value

    # -- log shipping (replication) -------------------------------------------

    def records_from(self, start: int) -> list[dict[str, Any]]:
        """Raw records at index >= *start* — the log-shipping feed.

        Includes the unsynced tail on purpose: a follower that syncs a
        shipped record makes it *more* durable than the leader's page
        cache, which is exactly how a quorum ack can survive a leader
        crash.  Record dicts are treated as immutable after append, so
        sharing them with an in-process follower is safe; a remote
        follower serialises them anyway.  The cursor is a plain record
        index (``len(wal)`` after the ship); replica-set followers and
        worker-process replicas both keep one.
        """
        return self._records[start:]

    def truncate_to(self, length: int) -> int:
        """Discard every record at index >= *length*; returns count dropped.

        Follower-side divergence repair: a deposed leader rejoining the
        replica set cuts its log back to the common prefix with the new
        leader before resyncing.  The durable watermark clamps with the
        log — records that no longer exist cannot be durable.
        """
        dropped = len(self._records) - length
        if dropped <= 0:
            return 0
        del self._records[length:]
        del self._crcs[length:]
        self._durable = min(self._durable, length)
        return dropped

    def truncate_before_checkpoint(self) -> int:
        """Drop records preceding the last checkpoint; returns count dropped.

        A checkpoint asserts the store has materialised everything before
        it, so recovery only needs the suffix.
        """
        last_cp = -1
        for i, rec in enumerate(self._records[: self._durable]):
            if rec["type"] == "checkpoint":
                last_cp = i
        if last_cp <= 0:
            return 0
        dropped = last_cp
        del self._records[:last_cp]
        del self._crcs[:last_cp]
        self._durable -= dropped
        return dropped
