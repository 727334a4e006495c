"""Process-parallel shard execution: worker processes + a wire protocol.

Shard scatter used to fan out onto threads, which the GIL serialises —
N shards reduced *work* per shard (routing, pushdown, partial
aggregation) but bought no wall-clock.  This module makes the shard
boundary a real one: each shard's subplan runs in a **worker process**
that holds a synced replica of the shard, and everything crossing the
boundary — subplan trees, run parameters, result rows, ``AggPartial``
states, stats and trace spans, errors — travels as serialized frames.

Wire format (the whole protocol, deliberately small)::

    frame    := length payload
    length   := 4-byte big-endian unsigned int, len(payload)
    payload  := pickle.dumps((op, body), HIGHEST_PROTOCOL)

Coordinator → worker ops, each answered by exactly one reply frame:

=============  ==========================================================
``sync``       ship the shard WAL's record suffix past the worker's cursor
               so its shard replica catches up to the coordinator's shard
               state; cursor 0 rebuilds the replica from scratch
               (reply ``ok``)
``run``        execute a serialized subplan against one shard replica
               (reply ``result``, or ``need_plan`` when the referenced
               plan digest is not cached worker-side)
``ping``       health check (reply ``pong`` with pid + held replicas)
``shutdown``   graceful exit (reply ``bye``, then the process ends)
=============  ==========================================================

Any worker-side exception becomes an ``error`` reply carrying the
exception's module/class/message/traceback; the coordinator re-raises
the original class when it can be imported, else a
:class:`~repro.errors.ClusterError` with the remote traceback attached.

The communication-avoiding design (cf. the 2.5D-LU lineage in
PAPERS.md) is inherited from the planner: only pushed-down results
cross the boundary — partial top-k prefixes, O(groups) ``AggPartial``
states with exact ``Fraction`` sums and typed frozen group keys — so
frames stay small exactly when parallelism matters most.

Replica sync: the coordinator owns the authoritative shards in its own
process; workers hold read replicas rebuilt from the shard WAL by the
same incremental redo replica-set followers use
(:func:`repro.engine.database.redo_record`).  The staleness check is a
log cursor — one record index per (worker, shard), compared with
``len(wal)`` — and a sync ships only ``wal.records_from(cursor)``.
Read-only transactions log nothing, so a read-only stream never
syncs and a loaded-then-queried benchmark ships its data exactly once;
a cursor that no longer fits its log (another WAL object after
failover or recovery, a log truncated below it) resyncs from 0.

Lifecycle: workers spawn lazily (``fork`` start method when available),
restart transparently on crash (full resync + one retry, counted in
``restarts``), shut down gracefully with the cluster's ``close()``, and
are torn down and respawned by cluster crash/recovery.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import struct
import threading
import time
import traceback
from collections import OrderedDict
from time import perf_counter
from typing import Any

from repro.errors import ClusterError, FrameError, RemoteTimeout, WorkerDied
from repro.faults.registry import FAULTS

PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_LENGTH = struct.Struct(">I")
# A frame is one subplan, one sync delta or one shard's results — far
# below this; anything larger means a corrupt length prefix.
MAX_FRAME_BYTES = 1 << 30
# Worker-side compiled-subplan cache (per process, LRU).
WORKER_PLAN_CACHE = 64


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


def encode_frame(message: Any) -> bytes:
    """One wire frame: 4-byte big-endian length prefix + pickle payload."""
    payload = pickle.dumps(message, PICKLE_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload of {len(payload)} bytes exceeds bound")
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(data: bytes) -> Any:
    """Decode one full frame, validating the length prefix."""
    if len(data) < _LENGTH.size:
        raise FrameError(f"truncated frame header ({len(data)} bytes)")
    (length,) = _LENGTH.unpack_from(data)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds bound")
    if len(data) != _LENGTH.size + length:
        raise FrameError(
            f"frame length prefix says {length} payload bytes, got "
            f"{len(data) - _LENGTH.size}"
        )
    return pickle.loads(data[_LENGTH.size :])


def plan_digest(encoded: bytes) -> str:
    """Cache key for an encoded subplan (content-addressed)."""
    return hashlib.sha1(encoded).hexdigest()


class FrameChannel:
    """Framed request/response transport over one duplex pipe end.

    Frames are encoded/decoded by this module's codec; the underlying
    :class:`multiprocessing.connection.Connection` moves the raw bytes
    (and hands us spawn-compatible fd inheritance for free).  Byte and
    frame counters feed the pool's metrics collector.
    """

    def __init__(self, conn: Any) -> None:
        self.conn = conn
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, message: Any) -> None:
        self.send_bytes(encode_frame(message))

    def send_bytes(self, frame: bytes) -> None:
        self.conn.send_bytes(frame)
        self.frames_sent += 1
        self.bytes_sent += len(frame)

    def recv(self, timeout: float | None = None) -> Any:
        """Receive one frame; *timeout* (seconds) bounds the wait.

        A deadline miss raises :class:`~repro.errors.RemoteTimeout`
        without consuming anything from the pipe — the caller decides
        whether to retry against a restarted worker.
        """
        if timeout is not None and not self.conn.poll(timeout):
            raise RemoteTimeout(
                f"no reply frame within {timeout:.3f}s deadline"
            )
        frame = self.conn.recv_bytes()
        self.frames_received += 1
        self.bytes_received += len(frame)
        return decode_frame(frame)

    def request(self, message: Any, timeout: float | None = None) -> Any:
        self.send(message)
        return self.recv(timeout)

    def close(self) -> None:
        self.conn.close()


# ---------------------------------------------------------------------------
# Structured error propagation
# ---------------------------------------------------------------------------


def describe_exception(exc: BaseException) -> dict[str, Any]:
    """The wire form of a worker-side exception."""
    return {
        "module": type(exc).__module__,
        "name": type(exc).__qualname__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def rebuild_exception(payload: dict[str, Any]) -> BaseException:
    """Reconstruct a worker-side exception on the coordinator.

    The original class is re-raised when it can be imported and is an
    exception type with a plain ``(message)`` constructor; anything else
    degrades to :class:`~repro.errors.ClusterError`.  Either way the
    remote traceback text rides along as ``remote_traceback``.
    """
    exc: BaseException | None = None
    try:
        module = __import__(payload["module"], fromlist=[payload["name"]])
        cls = getattr(module, payload["name"])
        if isinstance(cls, type) and issubclass(cls, BaseException):
            exc = cls(payload["message"])
    except Exception:
        exc = None
    if exc is None:
        exc = ClusterError(
            f"shard worker failed: {payload['name']}: {payload['message']}"
        )
    exc.remote_traceback = payload.get("traceback", "")  # type: ignore[attr-defined]
    return exc


# ---------------------------------------------------------------------------
# Worker process (child side)
# ---------------------------------------------------------------------------


class _ShardReplica:
    """One shard's read replica inside a worker process.

    Built and kept current purely from ``sync`` frames, redone record
    by record with the function replica-set followers use.  The replica
    serves reads through a long-lived snapshot context reopened after
    every applied sync, so a query dispatched after a write always sees
    it.
    """

    def __init__(self, shard_id: int) -> None:
        from repro.engine.database import MultiModelDatabase

        self.db = MultiModelDatabase(name=f"replica{shard_id}")
        # Shipped writes not yet decided, per txn id (see redo_record).
        self.pending: dict[int, list[tuple[Any, Any]]] = {}
        self._ctx: Any = None

    def apply_sync(self, records: list[dict[str, Any]]) -> None:
        from repro.engine.database import redo_record

        for rec in records:
            redo_record(self.db, self.pending, rec)
        if self._ctx is not None:
            self._ctx.close()
            self._ctx = None

    def context(self) -> Any:
        if self._ctx is None:
            from repro.drivers.unified import UnifiedQueryContext

            self._ctx = UnifiedQueryContext(self.db)
        return self._ctx


def _handle_sync(
    payload: dict[str, Any], replicas: dict[int, _ShardReplica]
) -> tuple[str, dict[str, Any]]:
    shard_id = payload["shard"]
    if payload["cursor"] == 0:
        # First sync, or the coordinator's cursor no longer fit its
        # log: (re)build the replica from the start of the log.
        replicas[shard_id] = _ShardReplica(shard_id)
    replicas[shard_id].apply_sync(payload["records"])
    return ("ok", {"shard": shard_id})


def _handle_run(
    payload: dict[str, Any],
    replicas: dict[int, _ShardReplica],
    plans: OrderedDict[str, Any],
) -> tuple[str, dict[str, Any]]:
    from repro.query.executor import Executor

    shard_id = payload["shard"]
    replica = replicas.get(shard_id)
    if replica is None:
        raise ClusterError(f"run before sync for shard {shard_id}")
    digest = payload["digest"]
    plan = plans.get(digest)
    if plan is None:
        encoded = payload.get("plan")
        if encoded is None:
            # The coordinator thought this plan was already shipped
            # (e.g. the LRU evicted it) — ask for a resend.
            return ("need_plan", {"digest": digest})
        plan = pickle.loads(encoded)
        plans[digest] = plan
    plans.move_to_end(digest)
    while len(plans) > WORKER_PLAN_CACHE:
        plans.popitem(last=False)
    inject = payload.get("inject")
    if inject is not None:
        # Fault shipped by the coordinator (evaluated parent-side so a
        # one-shot rule is consumed exactly once even though forked
        # workers inherit a copy of the registry): a wedged or slow
        # worker is modelled as a sleep before doing the work.
        time.sleep(inject.get("seconds") or 3600.0)
    flags = payload["flags"]
    executor = Executor(
        replica.context(),
        use_indexes=flags["use_indexes"],
        batch_size=flags["batch_size"],
    )
    params = payload["params"]
    seed = payload["seed"]
    span = None
    if payload.get("trace"):
        from repro.obs.trace import Span

        span = Span("worker", shard=shard_id, pid=os.getpid())
    started = perf_counter()
    rows: list[Any] = []
    for batch in plan.run_batches(executor, params, dict(seed) if seed else None):
        rows.extend(batch)
    elapsed = perf_counter() - started
    if span is not None:
        span.attrs["rows"] = len(rows)
        span.finish_at(elapsed)
    return (
        "result",
        {
            "rows": rows,
            "stats": executor.stats,
            "elapsed": elapsed,
            "span": span,
        },
    )


def shard_worker_main(conn: Any, worker_id: int) -> None:
    """Entry point of one worker process: a strict frame request loop.

    Every received frame produces exactly one reply frame; any failure
    — handler exception or an unpicklable reply — degrades to an
    ``error`` frame so the coordinator never hangs on a silent worker.
    A closed pipe means the coordinator is gone: exit quietly.
    """
    channel = FrameChannel(conn)
    replicas: dict[int, _ShardReplica] = {}
    plans: OrderedDict[str, Any] = OrderedDict()
    while True:
        try:
            op, payload = channel.recv()
        except (EOFError, OSError):
            return
        try:
            if op == "sync":
                reply = _handle_sync(payload, replicas)
            elif op == "run":
                reply = _handle_run(payload, replicas, plans)
            elif op == "ping":
                reply = (
                    "pong",
                    {
                        "worker": worker_id,
                        "pid": os.getpid(),
                        "shards": sorted(replicas),
                        "plans": len(plans),
                    },
                )
            elif op == "shutdown":
                try:
                    channel.send(("bye", {"worker": worker_id}))
                finally:
                    return
            else:
                raise ClusterError(f"unknown wire op {op!r}")
        except BaseException as exc:  # noqa: BLE001 — shipped, not swallowed
            reply = ("error", describe_exception(exc))
        try:
            frame = encode_frame(reply)
        except Exception as exc:  # e.g. an unpicklable row value
            frame = encode_frame(("error", describe_exception(exc)))
        try:
            channel.send_bytes(frame)
        except (EOFError, OSError, BrokenPipeError):
            return


# ---------------------------------------------------------------------------
# Coordinator side: worker handles + the pool
# ---------------------------------------------------------------------------


class RemoteResult:
    """One shard's gathered result frame, decoded."""

    __slots__ = ("rows", "stats", "elapsed", "span")

    def __init__(
        self, rows: list[Any], stats: dict[str, int], elapsed: float, span: Any
    ) -> None:
        self.rows = rows
        self.stats = stats
        self.elapsed = elapsed
        self.span = span


class _WorkerHandle:
    """Coordinator-side state for one worker process.

    ``lock`` serialises the (sync?, run) exchange per worker — frames on
    one pipe must never interleave across query threads.  ``shipped``
    tracks plan digests this worker holds; ``synced`` maps shard_id →
    ``(wal, cursor)``: the WAL object the replica was built from and
    how many of its records the worker has redone.
    """

    __slots__ = ("index", "process", "channel", "lock", "shipped", "synced")

    def __init__(self, index: int, process: Any, channel: FrameChannel) -> None:
        self.index = index
        self.process = process
        self.channel = channel
        self.lock = threading.Lock()
        self.shipped: set[str] = set()
        self.synced: dict[int, tuple[Any, int]] = {}

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class ProcessShardPool:
    """Shard worker processes for a :class:`ShardedDatabase`.

    ``n_workers`` may be smaller than the shard count: shard *i* is
    served by worker ``i % n_workers`` and a worker holds one replica
    per shard it serves, so a 2-worker pool over 4 shards still executes
    every shard's subplan — two at a time.  Workers spawn lazily on
    first dispatch and are restarted (with a full resync) when their
    process dies mid-exchange; a dispatch is retried once against the
    restarted worker before :class:`~repro.errors.WorkerDied` surfaces.

    Every wire request carries a deadline (``request_timeout`` seconds);
    a worker that does not answer in time — wedged, not dead — is
    treated exactly like a crashed one: terminated, restarted with a
    full resync, and the dispatch retried once after an exponential
    backoff (``retry_backoff * 2**attempt``).  Timeouts and retries are
    counted for the metrics surface.
    """

    def __init__(
        self,
        db: Any,
        n_workers: int,
        request_timeout: float = 30.0,
        retry_backoff: float = 0.05,
    ) -> None:
        self.db = db
        self.n_workers = max(1, min(n_workers, db.n_shards))
        self.request_timeout = request_timeout
        self.retry_backoff = retry_backoff
        methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: list[_WorkerHandle | None] = [None] * self.n_workers
        self._spawn_lock = threading.Lock()
        self._closed = False
        self.spawned = 0
        self.restarts = 0
        self.sync_rounds = 0
        self.synced_records = 0
        self.plans_shipped = 0
        # Scatters that had this pool but ran on in-process threads
        # because the subplan or its bindings could not be pickled
        # (bumped by ShardExec._scatter).
        self.local_fallbacks = 0
        self.request_timeouts = 0
        self.retries = 0

    # -- lifecycle ---------------------------------------------------------

    def worker_index(self, shard_id: int) -> int:
        return shard_id % self.n_workers

    def _spawn(self, index: int) -> _WorkerHandle:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=shard_worker_main,
            args=(child_conn, index),
            name=f"shard-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.spawned += 1
        return _WorkerHandle(index, process, FrameChannel(parent_conn))

    def _worker(self, shard_id: int) -> _WorkerHandle:
        if self._closed:
            raise ClusterError("worker pool is closed")
        index = self.worker_index(shard_id)
        handle = self._workers[index]
        if handle is None:
            with self._spawn_lock:
                handle = self._workers[index]
                if handle is None:
                    handle = self._workers[index] = self._spawn(index)
        return handle

    @staticmethod
    def _reap(process: Any, grace: float = 5.0) -> None:
        """Make *process* exit, escalating: join → terminate → kill.

        A plain ``join(timeout)`` can return with the process still
        alive (a worker wedged in a handler ignores pipe EOF); each
        escalation step is checked and the next signal only sent when
        the previous one did not stick.  SIGKILL cannot be ignored, so
        the final join is bounded in practice.
        """
        process.join(timeout=grace)
        if process.is_alive():
            process.terminate()
            process.join(timeout=grace)
        if process.is_alive():
            process.kill()
            process.join(timeout=grace)

    def _restart(self, index: int) -> None:
        """Replace a dead/wedged worker; its replicas/plans go with it."""
        with self._spawn_lock:
            handle = self._workers[index]
            if handle is not None:
                try:
                    handle.channel.close()
                except OSError:
                    pass
                if handle.process.is_alive():
                    handle.process.terminate()
                self._reap(handle.process)
            self._workers[index] = self._spawn(index)
            self.restarts += 1

    def close(self) -> None:
        """Graceful shutdown: one ``shutdown`` frame each, then reap.

        The shutdown handshake runs under the request deadline and the
        join escalates terminate → kill, so a worker wedged in a
        handler (e.g. a hang fault) cannot stall ``close()`` forever.
        """
        self._closed = True
        for index, handle in enumerate(self._workers):
            if handle is None:
                continue
            graceful = True
            with handle.lock:
                try:
                    handle.channel.request(
                        ("shutdown", {}), timeout=self.request_timeout
                    )
                except (EOFError, OSError, BrokenPipeError, RemoteTimeout):
                    graceful = False
                try:
                    handle.channel.close()
                except OSError:
                    pass
            # A worker that missed the handshake deadline is wedged —
            # no point granting it the polite join window.
            self._reap(handle.process, grace=5.0 if graceful else 0.1)
            self._workers[index] = None

    # -- health + metrics ---------------------------------------------------

    def ping(self, shard_id: int) -> dict[str, Any]:
        """Round-trip a health probe through shard_id's worker."""
        handle = self._worker(shard_id)
        with handle.lock:
            op, payload = handle.channel.request(
                ("ping", {}), timeout=self.request_timeout
            )
        if op != "pong":
            raise ClusterError(f"bad ping reply {op!r}")
        return payload

    def metrics(self) -> dict[str, int]:
        """Counter snapshot for the observability registry's collector."""
        out = {
            "workers": self.n_workers,
            "alive": sum(
                1 for h in self._workers if h is not None and h.alive
            ),
            "spawned": self.spawned,
            "restarts": self.restarts,
            "sync_rounds": self.sync_rounds,
            "synced_records": self.synced_records,
            "plans_shipped": self.plans_shipped,
            "local_fallbacks": self.local_fallbacks,
            "request_timeouts_total": self.request_timeouts,
            "retries_total": self.retries,
            "frames_sent": 0,
            "frames_received": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
        }
        for handle in self._workers:
            if handle is None:
                continue
            out["frames_sent"] += handle.channel.frames_sent
            out["frames_received"] += handle.channel.frames_received
            out["bytes_sent"] += handle.channel.bytes_sent
            out["bytes_received"] += handle.channel.bytes_received
        return out

    # -- replica sync --------------------------------------------------------

    def _sync_locked(self, handle: _WorkerHandle, shard_id: int) -> None:
        """Catch shard_id's replica up to the coordinator shard (holding
        the handle lock).  O(1) when nothing was logged since the last
        sync — the cursor equals ``len(wal)`` — otherwise only the
        record suffix past the cursor ships.  A cursor that no longer
        fits its log (another WAL object after failover or recovery, a
        log truncated below it) restarts at 0, which makes the worker
        rebuild the replica instead of redoing onto stale state.
        """
        wal = self.db.shards[shard_id].wal
        synced_wal, cursor = handle.synced.get(shard_id, (None, 0))
        if synced_wal is not wal or cursor > len(wal):
            cursor = 0
        elif cursor == len(wal):
            return
        records = wal.records_from(cursor)
        op, reply = handle.channel.request(
            ("sync", {"shard": shard_id, "cursor": cursor, "records": records}),
            timeout=self.request_timeout,
        )
        if op == "error":
            raise rebuild_exception(reply)
        if op != "ok":
            raise ClusterError(f"bad sync reply {op!r}")
        handle.synced[shard_id] = (wal, cursor + len(records))
        self.sync_rounds += 1
        self.synced_records += len(records)

    # -- dispatch ------------------------------------------------------------

    def run_subplan(
        self,
        shard_id: int,
        encoded_plan: bytes,
        digest: str,
        params: dict[str, Any] | None,
        seed: dict[str, Any] | None,
        flags: dict[str, Any],
        trace: bool,
    ) -> RemoteResult:
        """Execute one shard subplan remotely; sync + ship plan as needed.

        One retry after a worker death or deadline miss (terminate +
        restart + full resync, with exponential backoff before the
        retry); a second failure raises
        :class:`~repro.errors.WorkerDied`.
        """
        last_error: BaseException | None = None
        for attempt in range(2):
            inject = None
            if FAULTS.enabled:
                # Worker faults are evaluated HERE, parent-side, and
                # shipped in the payload: forked workers inherit a copy
                # of the registry, so firing in the child would both
                # desynchronise the seeded schedule and re-fire one-shot
                # rules in every restarted worker (making the retry hang
                # again).  Consuming the rule in the coordinator gives
                # each armed fault exactly one firing, cluster-wide.
                action = FAULTS.fire(
                    "remote.request", shard=shard_id, attempt=attempt
                )
                if action is not None:
                    if action.kind == "raise":
                        raise action.exception()
                    if action.kind in ("hang", "delay"):
                        inject = {
                            "op": action.kind,
                            "seconds": action.seconds,
                        }
            if attempt > 0:
                self.retries += 1
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            handle = self._worker(shard_id)
            try:
                return self._dispatch_locked(
                    handle, shard_id, encoded_plan, digest, params, seed,
                    flags, trace, inject,
                )
            except RemoteTimeout as exc:
                last_error = exc
                self.request_timeouts += 1
                if self._closed:
                    break
                self._restart(handle.index)
            except (EOFError, OSError, BrokenPipeError) as exc:
                last_error = exc
                if self._closed:
                    break
                self._restart(handle.index)
        raise WorkerDied(
            f"worker for shard {shard_id} died and retry failed: {last_error!r}"
        )

    def _dispatch_locked(
        self,
        handle: _WorkerHandle,
        shard_id: int,
        encoded_plan: bytes,
        digest: str,
        params: dict[str, Any] | None,
        seed: dict[str, Any] | None,
        flags: dict[str, Any],
        trace: bool,
        inject: dict[str, Any] | None = None,
    ) -> RemoteResult:
        with handle.lock:
            self._sync_locked(handle, shard_id)
            payload = {
                "shard": shard_id,
                "digest": digest,
                "plan": None if digest in handle.shipped else encoded_plan,
                "params": params,
                "seed": seed,
                "flags": flags,
                "trace": trace,
            }
            if inject is not None:
                payload["inject"] = inject
            if payload["plan"] is not None:
                self.plans_shipped += 1
            op, reply = handle.channel.request(
                ("run", payload), timeout=self.request_timeout
            )
            if op == "need_plan":
                # Worker-side LRU evicted it; resend with the plan bytes.
                payload["plan"] = encoded_plan
                self.plans_shipped += 1
                op, reply = handle.channel.request(
                    ("run", payload), timeout=self.request_timeout
                )
            handle.shipped.add(digest)
        if op == "error":
            raise rebuild_exception(reply)
        if op != "result":
            raise ClusterError(f"bad run reply {op!r}")
        return RemoteResult(
            reply["rows"], reply["stats"], reply["elapsed"], reply["span"]
        )
