"""Observability: one object wiring metrics, tracing and the slow log.

Every :class:`~repro.drivers.base.Driver` owns one (lazily created, like
its plan cache).  The object bundles:

- a :class:`~repro.obs.metrics.MetricsRegistry` the driver's engine
  layers register collectors into (WAL, lock manager, plan cache, 2PC
  coordinator) and whose push instruments the query/commit paths feed;
- a :class:`~repro.obs.slowlog.SlowQueryLog`;
- the **switches**: ``enabled`` gates all push instrumentation (when
  off, ``Driver.query`` runs the exact pre-observability path — the
  CI overhead smoke holds the enabled path within 5% of this);
  ``tracing`` additionally builds a :class:`~repro.obs.trace.Tracer`
  span tree per query and threads it through the executor into
  scatter workers.

The per-query cost with ``enabled=True, tracing=False`` is two
``perf_counter`` calls, one histogram observe, and a handful of counter
increments — all per *query*, never per row.  Tracing adds one span per
pipeline stage and per shard, still O(operators + shards) per query.
"""

from __future__ import annotations

import threading
from datetime import datetime, timezone
from time import perf_counter
from typing import Any

from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Tracer

# Executor access-path stats mirrored into registry counters per query.
_STAT_COUNTERS = {
    "index_lookups": "repro_exec_index_lookups_total",
    "range_lookups": "repro_exec_range_lookups_total",
    "scans": "repro_exec_scans_total",
    "rows_scanned": "repro_exec_rows_scanned_total",
    "scan_cache_hits": "repro_exec_scan_cache_hits_total",
    "index_fallback_scans": "repro_exec_index_fallback_scans_total",
    "join_builds": "repro_exec_join_builds_total",
    "join_build_rows": "repro_exec_join_build_rows_total",
    "join_index_probes": "repro_exec_join_index_probes_total",
    "join_unhashable_rows": "repro_exec_join_unhashable_rows_total",
    "rows_copied_out": "repro_exec_rows_copied_out_total",
    "shard_fanout": "repro_exec_shard_fanout_total",
}


def _first_line(text: str, limit: int = 120) -> str:
    squeezed = " ".join(text.split())
    return squeezed if len(squeezed) <= limit else squeezed[: limit - 1] + "…"


class Observability:
    """Metrics + tracing + slow-query log for one driver/cluster."""

    def __init__(
        self,
        enabled: bool = True,
        tracing: bool = False,
        slow_query_ms: float = 100.0,
        slow_log_capacity: int = 128,
    ) -> None:
        self.enabled = enabled
        self.tracing = tracing
        self.registry = MetricsRegistry()
        self.slow_log = SlowQueryLog(slow_log_capacity, slow_query_ms)
        self.last_trace: Tracer | None = None
        self._id_lock = threading.Lock()
        self._next_trace_id = 1
        # Pre-resolved hot-path instruments (get-or-create is locked;
        # resolving once here keeps the per-query path to pure pushes).
        reg = self.registry
        self.queries_total = reg.counter("repro_queries_total")
        self.query_errors_total = reg.counter("repro_query_errors_total")
        self.query_seconds = reg.histogram("repro_query_seconds")
        self.query_rows_total = reg.counter("repro_query_rows_returned_total")
        self.shard_seconds = reg.histogram("repro_shard_scatter_seconds")
        # Time a scatter task spent waiting for a pool slot (thread or
        # worker-process) before it started executing — the signal that
        # pool_workers is undersized for the shard fanout.
        self.shard_queue_seconds = reg.histogram("repro_shard_queue_seconds")
        self.shard_fanout = reg.histogram(
            "repro_shard_fanout", buckets=COUNT_BUCKETS
        )
        self.twopc_commit_seconds = reg.histogram("repro_txn_2pc_commit_seconds")
        self.twopc_prepare_seconds = reg.histogram("repro_txn_2pc_prepare_seconds")
        # Replication (populated only by a cluster with replica sets):
        # time a commit waited for its write-ack quorum, plus election
        # and failover totals pushed at promotion time.  Per-follower
        # lag gauges come from the cluster's "replication" collector.
        self.replication_quorum_seconds = reg.histogram(
            "repro_replication_quorum_wait_seconds"
        )
        self.replication_elections_total = reg.counter(
            "repro_replication_elections_total"
        )
        self.replication_failovers_total = reg.counter(
            "repro_replication_failovers_total"
        )
        # Degraded (read-only) shards: the gauge tracks how many replica
        # sets currently cannot reach their write quorum; the entry/exit
        # counters record every transition for alerting on flapping.
        self.replication_degraded_shards = reg.gauge(
            "repro_replication_degraded_shards"
        )
        self.replication_degraded_entries_total = reg.counter(
            "repro_replication_degraded_entries_total"
        )
        self.replication_degraded_exits_total = reg.counter(
            "repro_replication_degraded_exits_total"
        )
        self._stat_counters = {
            stat: reg.counter(name) for stat, name in _STAT_COUNTERS.items()
        }
        self._outcomes = {
            outcome: reg.counter("repro_txn_2pc_outcomes_total", outcome=outcome)
            for outcome in ("commit", "abort", "in_doubt")
        }

    # -- switches -------------------------------------------------------------

    def enable(self, tracing: bool | None = None) -> None:
        self.enabled = True
        if tracing is not None:
            self.tracing = tracing

    def disable(self) -> None:
        self.enabled = False
        self.tracing = False

    def next_trace_id(self) -> int:
        with self._id_lock:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            return trace_id

    # -- the per-query hot path ----------------------------------------------

    def observe_query(
        self, executor: Any, text: str, params: dict[str, Any] | None
    ) -> list[Any]:
        """Run *text* on *executor* with instrumentation attached.

        Only called when :attr:`enabled` is true; the disabled path in
        ``Driver.query`` never reaches here.
        """
        tracer: Tracer | None = None
        executor.obs = self
        if self.tracing:
            tracer = Tracer(
                self.next_trace_id(), "query", query=_first_line(str(text))
            )
            executor.tracer = tracer
            executor.trace_id = tracer.trace_id
        started_wall = datetime.now(timezone.utc)
        started = perf_counter()
        try:
            result = executor.execute(text, params)
        except BaseException:
            self.query_errors_total.inc()
            raise
        elapsed = perf_counter() - started
        if tracer is not None:
            tracer.finish()
            self.last_trace = tracer
        self.queries_total.inc()
        self.query_seconds.observe(elapsed)
        self.query_rows_total.inc(len(result))
        for stat, counter in self._stat_counters.items():
            value = executor.stats.get(stat, 0)
            if value:
                counter.inc(value)
        duration_ms = elapsed * 1000.0
        if self.slow_log.should_capture(duration_ms):
            shape = None
            if isinstance(text, str):
                shape = executor.plans.shape_id(
                    text, executor.epoch, executor.use_indexes
                )
            self.slow_log.record({
                "query": _first_line(str(text)),
                "shape": shape,
                "duration_ms": round(duration_ms, 4),
                "rows": len(result),
                "stats": dict(executor.stats),
                "trace_id": tracer.trace_id if tracer is not None else None,
                "trace": tracer.to_dict() if tracer is not None else None,
                "started_at": started_wall.isoformat(),
            })
        return result

    # -- commit-protocol instruments (2PC coordinator) ------------------------

    def observe_2pc_outcome(self, outcome: str) -> None:
        self._outcomes[outcome].inc()

    # -- exposition -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Stable dict of every metric — ``Driver.metrics()``'s payload."""
        snap = self.registry.snapshot()
        snap["slow_log"] = {
            "captured": self.slow_log.captured,
            "buffered": len(self.slow_log),
            "capacity": self.slow_log.capacity,
            "threshold_ms": self.slow_log.threshold_ms,
        }
        snap["config"] = {"enabled": self.enabled, "tracing": self.tracing}
        return snap

    def to_prometheus(self) -> str:
        return self.registry.to_prometheus()
