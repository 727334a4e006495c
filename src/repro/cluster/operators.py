"""Scatter-gather physical operators for the sharded cluster layer.

:class:`ShardExec` is the one new operator the shard-aware planner
inserts: it owns a *subplan* — a shard-local pipeline segment built from
the ordinary single-node operators (CollectionScan / IndexEqLookup /
IndexRangeScan access paths, Filter, Let, Sort, TopK, Limit, and
HashAggregate(partial) for the two-phase aggregation split) — and runs
that subplan once per target shard, each against the shard's own
:class:`~repro.drivers.unified.UnifiedQueryContext`, in parallel on the
cluster's thread pool.  Gather either concatenates (shard order, so
results match a single-node scan's concat order) or merge-sorts the
per-shard streams when a SORT/TopK was pushed below the gather.

Routing happens at run time, when parameters are known:

- an equality predicate on the shard key pins execution to one shard;
- range bounds on the shard key prune shards under a range partitioner;
- otherwise every shard is scattered.

Shard workers share nothing mutable: each owns one shard context and a
private stats dict (merged after the gather), bindings are copied per
worker, and every expression the planner pushes below the gather is
pure and row-local (``planning.shard_safe``: operators, arithmetic and
builtins that read only their arguments, XPATH included — bridges and
subqueries stay above the gather), so worker threads never touch the
global query context.

Execution of a multi-target scatter is pool-agnostic: when the cluster
is configured with ``pool="processes"`` each shard's subplan is pickled
once (content-addressed, cached on the plan object) and shipped to a
worker *process* over the wire protocol in :mod:`repro.cluster.remote`;
the coordinator's threads then only do frame I/O — blocking on the pipe
releases the GIL — so N shards buy real wall-clock parallelism.  The
``pool="threads"`` mode, EXPLAIN ANALYZE, and any payload that cannot
cross a process boundary all take the in-process thread path instead;
results, stats, spans and histogram observations are identical either
way because every merge happens here, after the gather.
"""

from __future__ import annotations

import heapq
import pickle
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from repro.cluster.remote import PICKLE_PROTOCOL, plan_digest
from repro.query.ast import Expr, SortKey
from repro.query.compile import compile_expr
from repro.query.physical import (
    DEFAULT_BATCH_SIZE,
    Binding,
    PhysicalOperator,
    _chunks,
    batch_size,
    compile_sort_keys,
    render_expr,
)


class _ShardRuntime:
    """Executor facade for one shard worker: shard-local ctx + stats.

    ``ctx`` points at the shard's own context so access paths scan/probe
    only that shard's data; compiled closures are pure plan-time state,
    safe to share per worker.
    """

    __slots__ = (
        "_parent", "ctx", "use_indexes", "batch_size", "stats", "analyze",
        "observed", "scan_cache", "tracer", "obs", "trace_id",
    )

    def __init__(self, parent: Any, ctx: Any, stats: dict[str, int]) -> None:
        self._parent = parent
        self.ctx = ctx
        self.use_indexes = parent.use_indexes
        self.batch_size = getattr(parent, "batch_size", DEFAULT_BATCH_SIZE)
        self.stats = stats
        self.analyze = getattr(parent, "analyze", False)
        # Per-operator observation channel (EXPLAIN ANALYZE group counts).
        # Only non-None under ANALYZE, whose scatter runs sequentially —
        # so sharing the parent's dict across shard runtimes is safe.
        self.observed = getattr(parent, "observed", None)
        # Scan blocks are shard-local: this runtime's ctx sees only one
        # shard's data, so it must never share the parent's cache.
        self.scan_cache: dict[str, list[Any]] = {}
        # The trace id rides into the worker so shard-local events can
        # correlate with the query's span tree; the tracer itself must
        # not — its span stack belongs to the query thread (workers fill
        # pre-created child spans instead), and a worker never pushes
        # observability instruments of its own.
        self.tracer = None
        self.obs = None
        self.trace_id = getattr(parent, "trace_id", None)

    def run_subquery(self, query: Any, binding: Binding, params: dict[str, Any]) -> Any:
        # Subqueries are never pushed below the gather (``shard_safe``
        # rejects them), but stay correct if one ever reaches a worker:
        # the parent executor runs it through the shared plan cache.
        return self._parent.run_subquery(query, binding, params)


def _fresh_stats() -> dict[str, int]:
    return {
        "index_lookups": 0, "range_lookups": 0, "scans": 0, "rows_scanned": 0,
        "scan_cache_hits": 0,
    }


def _observed_task(task, scatter_span, shard_id, latencies, waits, index):
    """Wrap one shard task thunk with timing + its pre-created span.

    The span is created *here*, on the query thread, before the pool
    dispatch; the task only mutates its own span object (attrs +
    ``finish_at``) and its own ``latencies``/``waits`` slots.  Crucially
    the task takes **no locks**: pushing the latency histogram from
    inside the workers made N threads contend on one instrument mutex at
    the exact moment they all finish — the caller drains both lists into
    their histograms sequentially after the gather instead.

    ``waits[index]`` records submit→start queue wait (how long the thunk
    sat waiting for a pool slot) — the undersized-``pool_workers``
    signal, exposed as the ``repro_shard_queue_seconds`` histogram.

    The task yields ``(rows, stats, remote)`` where ``remote`` is the
    :class:`~repro.cluster.remote.RemoteResult` for process-pool
    dispatches (None for in-process runs); its worker-measured span is
    grafted under this shard's span so traces show the process boundary.
    """
    span = (
        scatter_span.child(f"shard-{shard_id}", shard=shard_id)
        if scatter_span is not None else None
    )
    created = perf_counter()

    def run_task():
        started = perf_counter()
        waits[index] = started - created
        rows, stats, remote = task()
        elapsed = perf_counter() - started
        if span is not None:
            span.attrs["rows"] = len(rows)
            if remote is not None:
                span.attrs["remote"] = True
                if remote.span is not None:
                    span.children.append(remote.span)
            span.finish_at(elapsed)
        latencies[index] = elapsed
        return rows, stats, remote

    return run_task


def _traced_routed_batches(stream, scatter_span, shard_id):
    """Stream the routed single-shard path's batches under its shard span.

    The routed path never materialises, so the span's elapsed covers
    the full pull-through (including parent consumption) — labelled
    ``routed=True`` to distinguish it from worker-measured drains.
    """
    span = scatter_span.child(f"shard-{shard_id}", shard=shard_id, routed=True)
    started = perf_counter()
    rows = 0
    for batch in stream:
        rows += len(batch)
        yield batch
    span.attrs["rows"] = rows
    span.finish_at(perf_counter() - started)
    scatter_span.finish()


@dataclass(frozen=True)
class ShardExec(PhysicalOperator):
    """Scatter a shard-local subplan, gather (and optionally merge) results.

    ``merge_keys`` non-empty means each shard's subplan emits a stream
    already sorted on those keys and the gather is an ordered k-way
    merge (heapq.merge is stable across inputs in shard order, so ties
    keep the exact order a single-node stable sort over the concatenated
    scan would produce).
    """

    subplan: PhysicalOperator
    collection: str
    n_shards: int
    merge_keys: tuple[SortKey, ...] = ()
    route_field: str | None = None
    route_expr: Expr | None = None
    range_field: str | None = None
    range_low: Expr | None = None
    range_high: Expr | None = None
    child: PhysicalOperator | None = None  # always a leaf: the gather boundary

    def __post_init__(self) -> None:
        object.__setattr__(self, "_c_merge", compile_sort_keys(self.merge_keys))
        for name, expr in (
            ("_c_route", self.route_expr),
            ("_c_range_low", self.range_low),
            ("_c_range_high", self.range_high),
        ):
            object.__setattr__(
                self, name, compile_expr(expr) if expr is not None else None
            )

    def run_batches(self, rt, params, seed=None):
        """Scatter, then gather: whole batches cross the shard boundary.

        Each shard worker drains its subplan's ``run_batches`` stream;
        the gather then re-chunks the merged/concatenated rows to the
        parent's batch size.  A single target (routed, or a shadowing
        seed) streams straight through that shard — no pool and no
        materialisation.
        """
        ctx = rt.ctx  # ShardedQueryContext
        targets = self._targets(rt, ctx, params, seed)
        rt.stats["shard_fanout"] = rt.stats.get("shard_fanout", 0) + len(targets)
        scatter_span, obs = self._observe_scatter(rt, targets)
        if len(targets) == 1:
            shard_rt = _ShardRuntime(rt, ctx.shard_context(targets[0]), rt.stats)
            stream = self.subplan.run_batches(shard_rt, params, seed)
            if scatter_span is None:
                yield from stream
            else:
                yield from _traced_routed_batches(stream, scatter_span, targets[0])
            return
        chunks = self._scatter(rt, ctx, targets, params, seed, scatter_span, obs)
        size = batch_size(rt)
        gather_span = None
        if scatter_span is not None:
            gather_span = scatter_span.child(
                "gather",
                mode="merge" if self.merge_keys else "concat",
                rows=sum(len(chunk) for chunk in chunks),
            )
            gather_started = perf_counter()
        if self.merge_keys:
            keyfn = self._c_merge
            merged = heapq.merge(*chunks, key=lambda b: keyfn(rt, b, params))
            yield from _chunks(merged, size)
        else:
            for chunk in chunks:
                yield from _chunks(chunk, size)
        if gather_span is not None:
            gather_span.finish_at(perf_counter() - gather_started)
            scatter_span.finish()

    def _scatter(self, rt, ctx, targets, params, seed, scatter_span, obs):
        """Run the subplan once per target shard; return per-shard row lists.

        The dispatch seam between shard *placement* (``_targets``) and
        shard *execution*: when the cluster carries a worker-process pool
        (``pool="processes"``) and the run payload can cross a process
        boundary, each shard's subplan is shipped over the wire protocol
        and the coordinator thread blocks on the reply — frame I/O
        releases the GIL, so worker processes compute in true parallel.
        Otherwise every shard runs in-process on its own thread (the
        ``pool="threads"`` mode), which is also the fallback for EXPLAIN
        ANALYZE (its ``observed`` dict is shared and unserializable by
        design) and — counted in the pool's ``local_fallbacks`` — for an
        unpicklable subplan or params/seeds.  Stats merges and
        histogram drains happen here, sequentially, after the gather —
        shard workers never touch shared instruments.
        """
        analyze = getattr(rt, "analyze", False)
        remote = None
        if not analyze:
            remote_pool = getattr(ctx, "remote_pool", None)
            remote = remote_pool() if remote_pool is not None else None
        wire = self._wire_subplan() if remote is not None else None
        if wire is not None and (params or seed):
            try:
                pickle.dumps((params, seed), PICKLE_PROTOCOL)
            except Exception:
                wire = None  # this execution's bindings can't cross over
        if remote is not None and wire is None:
            remote.local_fallbacks += 1  # counted, never silent
            remote = None

        if remote is None:
            tasks = [
                self._local_task(
                    _ShardRuntime(rt, ctx.shard_context(i), _fresh_stats()),
                    params, seed,
                )
                for i in targets
            ]
        else:
            encoded, digest = wire
            flags = {
                "use_indexes": getattr(rt, "use_indexes", True),
                "batch_size": batch_size(rt),
            }
            tasks = [
                self._remote_task(
                    remote, shard_id, encoded, digest, params, seed, flags,
                    trace=scatter_span is not None,
                )
                for shard_id in targets
            ]
        latencies = waits = None
        if scatter_span is not None or obs is not None:
            latencies = [0.0] * len(tasks)
            waits = [0.0] * len(tasks)
            tasks = [
                _observed_task(task, scatter_span, shard_id, latencies, waits, i)
                for i, (task, shard_id) in enumerate(zip(tasks, targets))
            ]
        if analyze:
            # EXPLAIN ANALYZE shares row counters across shards; run the
            # scatter sequentially so the counts are exact.
            outcomes = [task() for task in tasks]
        else:
            outcomes = ctx.run_parallel(tasks)
        for _, stats, _remote in outcomes:
            for key, value in stats.items():
                rt.stats[key] = rt.stats.get(key, 0) + value
        if obs is not None and latencies is not None:
            observe = obs.shard_seconds.observe
            for elapsed in latencies:
                observe(elapsed)
            observe_wait = obs.shard_queue_seconds.observe
            for wait in waits:
                observe_wait(wait)
        return [rows for rows, _, _ in outcomes]

    def _local_task(self, srt, params, seed):
        """In-process thunk for one shard: run the subplan on its runtime."""
        def task():
            rows: list[Binding] = []
            for batch in self.subplan.run_batches(
                srt, params, dict(seed) if seed else None
            ):
                rows.extend(batch)
            return rows, srt.stats, None

        return task

    def _remote_task(self, pool, shard_id, encoded, digest, params, seed, flags, trace):
        """Process-pool thunk for one shard: ship the subplan, gather rows."""
        def task():
            result = pool.run_subplan(
                shard_id, encoded, digest, params, seed, flags, trace=trace
            )
            return result.rows, result.stats, result

        return task

    def _wire_subplan(self):
        """Cached ``(encoded bytes, digest)`` of the subplan; None when it
        cannot cross a process boundary.

        Computed at most once per plan object (plans are cached and
        reused across executions), stored via ``object.__setattr__``
        exactly like the compiled closures from ``__post_init__``;
        ``False`` memoises "unpicklable" so the pickle attempt never
        repeats.
        """
        cached = getattr(self, "_wire", None)
        if cached is None:
            try:
                encoded = pickle.dumps(self.subplan, PICKLE_PROTOCOL)
                cached = (encoded, plan_digest(encoded))
            except Exception:
                cached = False
            object.__setattr__(self, "_wire", cached)
        return cached if cached else None

    def _observe_scatter(self, rt, targets):
        """This scatter's (span, obs) instrumentation pair; Nones when off.

        One ``getattr`` pair per run — executors without the
        observability channel (plain single-node runs, shard workers)
        resolve both to None and the operator behaves exactly as before
        instrumentation existed.
        """
        obs = getattr(rt, "obs", None)
        if obs is not None:
            obs.shard_fanout.observe(len(targets))
        tracer = getattr(rt, "tracer", None)
        if tracer is None:
            return None, obs
        span = tracer.current.child(
            "ShardExec",
            collection=self.collection,
            fanout=len(targets),
            gather="merge" if self.merge_keys else "concat",
        )
        return span, obs

    def _targets(self, rt, ctx, params, seed: Binding | None) -> list[int]:
        if seed and self.collection in seed:
            # A bound variable shadows the collection name: the subplan's
            # scan yields the bound list, identically on any shard — run
            # it exactly once.
            return [0]
        if self.route_expr is not None:
            value = self._c_route(rt, dict(seed or {}), params)
            return [ctx.catalog.shard_for(self.collection, value)]
        if self.range_field is not None:
            binding = dict(seed or {})
            low = (
                self._c_range_low(rt, binding, params)
                if self._c_range_low is not None else None
            )
            high = (
                self._c_range_high(rt, binding, params)
                if self._c_range_high is not None else None
            )
            pruned = ctx.catalog.shards_for_range(self.collection, low, high)
            if pruned is not None:
                return pruned
        return list(range(self.n_shards))

    def label(self) -> str:
        if self.route_expr is not None:
            routing = (
                f"route: {self.collection}.{self.route_field} == "
                f"{render_expr(self.route_expr)} -> 1 of {self.n_shards} shards"
            )
        elif self.range_field is not None:
            routing = (
                f"scatter: {self.collection}.{self.range_field} range-pruned "
                f"over {self.n_shards} shards"
            )
        else:
            routing = f"scatter: all {self.n_shards} shards"
        gather = (
            f"ordered merge on {len(self.merge_keys)} keys"
            if self.merge_keys else "concat"
        )
        return f"ShardExec [{routing}; gather: {gather}]"
