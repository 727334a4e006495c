"""Bench-side span recorder: wrappers around the layers' public callables.

Nothing under ``src/`` knows about this file.  :class:`Recorder.install`
replaces the binding each caller actually uses (a class attribute, or a
module global such as ``plancache.parse``) with a timing wrapper, and
:meth:`Recorder.uninstall` puts the originals back.  Every call records
one span — name, start, end, parent span, op — into a per-thread
in-memory list; nothing is written until the run ends.

A layer's *self time* is its span's duration minus what its child spans
on the same thread cover.  Spans recorded on a thread that is not
running a benchmark op (the cluster's scatter-pool threads) have no op
and no parent: they count as busy time of their own layer and are not
subtracted from anything, so a scatter's self time is the time the
client thread spent waiting for its slowest shard.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, Callable

# Span fields, by position: name, start, end, parent index within the
# same thread's list (-1 = root), op label (None off the client threads).
NAME, START, END, PARENT, OP = range(5)


class _ThreadSpans:
    __slots__ = ("spans", "stack", "op")

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.op: str | None = None


class Recorder:
    """Per-thread span buffers plus the install/uninstall bookkeeping."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadSpans:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadSpans()
            with self._lock:
                self._threads.append(state)
        return state

    def enter(self, name: str) -> tuple[_ThreadSpans, int]:
        state = self._state()
        index = len(state.spans)
        stack = state.stack
        state.spans.append(
            [name, perf_counter(), 0.0, stack[-1] if stack else -1, state.op]
        )
        stack.append(index)
        return state, index

    @staticmethod
    def exit(token: tuple[_ThreadSpans, int]) -> None:
        state, index = token
        state.spans[index][END] = perf_counter()
        stack = state.stack
        if stack and stack[-1] == index:
            stack.pop()
        elif index in stack:  # a generator closed out of order
            stack.remove(index)

    def begin_op(self, label: str) -> tuple[_ThreadSpans, int]:
        """Open the root span of one benchmark op on this client thread."""
        self._state().op = label
        return self.enter("op")

    def end_op(self, token: tuple[_ThreadSpans, int]) -> None:
        self.exit(token)
        token[0].op = None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, original: Callable, name: str, generator: bool) -> Callable:
        enter, leave = self.enter, self.exit
        if generator:
            def traced_generator(*args, **kwargs):
                token = enter(name)
                try:
                    yield from original(*args, **kwargs)
                finally:
                    leave(token)
            return traced_generator

        def traced(*args, **kwargs):
            token = enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                leave(token)
        return traced

    def install(self, targets: list[tuple[Any, str, str, bool]]) -> None:
        """Wrap every ``(owner, attribute, span name, is_generator)``."""
        for owner, attr, name, generator in targets:
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, generator))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def threads(self) -> list[list[list[Any]]]:
        with self._lock:
            return [state.spans for state in self._threads]

    def summary(self, op_prefix: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: ``self_s``, ``total_s`` and ``calls``.

        With *op_prefix*, only spans of ops whose label starts with it
        (and, since they carry no op, every off-thread span) count.
        """
        out: dict[str, dict[str, float]] = {}
        for spans in self.threads():
            covered = [0.0] * len(spans)
            for span in spans:
                if span[PARENT] >= 0:
                    covered[span[PARENT]] += span[END] - span[START]
            for index, span in enumerate(spans):
                if (
                    op_prefix is not None
                    and span[OP] is not None
                    and not span[OP].startswith(op_prefix)
                ):
                    continue
                duration = span[END] - span[START]
                entry = out.setdefault(
                    span[NAME], {"self_s": 0.0, "total_s": 0.0, "calls": 0}
                )
                entry["self_s"] += duration - covered[index]
                entry["total_s"] += duration
                entry["calls"] += 1
        return out

    def dump(self) -> list[dict[str, Any]]:
        """Every span as a JSON-ready row (thread, name, start, end, parent, op)."""
        rows = []
        for thread, spans in enumerate(self.threads()):
            for span in spans:
                rows.append({
                    "thread": thread, "name": span[NAME], "start": span[START],
                    "end": span[END], "parent": span[PARENT], "op": span[OP],
                })
        return rows


def layer_targets() -> list[tuple[Any, str, str, bool]]:
    """The layer boundaries the traced run wraps, by package.

    Imported lazily so that importing this module needs no ``repro``.
    Private names appear only where the layer offers no public seam
    for the same step (scatter dispatch, worker sync, the 2PC
    participant adapter).
    """
    from repro.cluster import planning, remote
    from repro.cluster.operators import ShardExec
    from repro.cluster.sharded import (
        ShardedQueryContext,
        ShardedSession,
        _ShardParticipant,
    )
    from repro.drivers.unified import UnifiedQueryContext
    from repro.engine.database import Session
    from repro.engine.transactions import TransactionManager
    from repro.engine.wal import WriteAheadLog
    from repro.models.xml.xpath import XPath
    from repro.query import plancache
    from repro.query.executor import Executor
    from repro.replication.replicaset import ReplicaSet
    from repro.txn.coordinator import CoordinatorLog, TwoPhaseCoordinator

    plain = [
        (UnifiedQueryContext, "__init__", "drivers.context"),
        (UnifiedQueryContext, "close", "drivers.context"),
        (ShardedQueryContext, "__init__", "drivers.context"),
        (ShardedQueryContext, "close", "drivers.context"),
        (plancache.PlanCache, "get_or_plan", "query.plancache"),
        (plancache, "parse", "query.parse"),
        (plancache, "parameterize", "query.parameterize"),
        (plancache, "plan", "query.plan"),
        (Executor, "execute", "query.execute"),
        (XPath, "__init__", "models.xml.xpath_parse"),
        (XPath, "find", "models.xml.xpath"),
        (UnifiedQueryContext, "shortest_path", "models.graph.traverse"),
        (ShardedQueryContext, "shortest_path", "models.graph.traverse"),
        (Session, "kv_scan_prefix", "models.kv.prefix_scan"),
        (TransactionManager, "begin", "engine.begin"),
        (TransactionManager, "commit", "engine.commit"),
        (TransactionManager, "abort", "engine.commit"),
        (TransactionManager, "prepare", "engine.commit"),
        (TransactionManager, "commit_prepared", "engine.commit"),
        (TransactionManager, "abort_prepared", "engine.commit"),
        (WriteAheadLog, "append", "engine.wal_append"),
        (planning, "apply_sharding", "cluster.plan"),
        (ShardExec, "_scatter", "cluster.scatter"),
        (remote.ProcessShardPool, "run_subplan", "cluster.remote_request"),
        (remote.ProcessShardPool, "_sync_locked", "cluster.worker_sync"),
        (remote, "encode_frame", "cluster.encode"),
        (remote, "decode_frame", "cluster.decode"),
        (ShardedSession, "commit", "cluster.session_commit"),
        (TwoPhaseCoordinator, "commit", "txn.twopc_commit"),
        (_ShardParticipant, "prepare", "txn.prepare"),
        (CoordinatorLog, "log_decision", "txn.decision_log"),
        (CoordinatorLog, "log_end", "txn.decision_log"),
        (ReplicaSet, "replicate", "replication.replicate"),
    ]
    generators = [
        (UnifiedQueryContext, "traverse", "models.graph.traverse"),
        (ShardedQueryContext, "traverse", "models.graph.traverse"),
    ]
    return (
        [(owner, attr, name, False) for owner, attr, name in plain]
        + [(owner, attr, name, True) for owner, attr, name in generators]
    )
