"""MMQL execution: a thin physical-plan driver.

The executor does not interpret clauses.  :meth:`Executor.execute`
resolves the physical operator tree through a versioned
:class:`~repro.query.plancache.PlanCache` (parse + plan happen only on
a cache miss) and drains the root's batch stream — all pipeline shape
(access paths, filter placement, TopK fusion) was decided at plan time,
and every expression the plan holds was closure-compiled when the plan
was built (:mod:`repro.query.compile`).  The clause-at-a-time
interpreter the engine is tested against lives apart from it, in
:mod:`repro.query.reference`.

What remains here is the *runtime* the operators call back into
(operators pass the executor around as ``rt``):

- :meth:`Executor.run_subquery` — sub-pipelines lower through the same
  plan cache, keyed by the (value-hashable) Query AST; nothing is
  pinned by ``id()`` and equal subqueries share one plan.
- ``stats`` — access-path counters (``index_lookups``, ``range_lookups``,
  ``scans``, ``rows_scanned``) that the benchmarks and tests assert on,
  plus the counted fallbacks: ``index_fallback_scans`` (an index hint
  that found no index and scanned) and the ``join_*`` counters saying
  which side of each :class:`~repro.query.physical.EquiJoin` ran, and
  ``rows_copied_out`` (rows deep-copied at the result boundary — set
  against ``rows_scanned`` it states what borrowing reads saves).
- ``use_indexes`` — the E1 ablation switch; when off, index access paths
  degrade to scans at run time without replanning.
"""

from __future__ import annotations

from typing import Any

from repro.engine.records import copy_value
from repro.models.xml.node import XmlElement, XmlText
from repro.query.ast import Query
from repro.query.context import QueryContext
from repro.query.physical import DEFAULT_BATCH_SIZE
from repro.query.plancache import PlanCache

Binding = dict[str, Any]


class Executor:
    """Runs planned MMQL queries against a :class:`QueryContext`.

    *plans* is the plan cache to resolve queries and subqueries through;
    drivers pass their long-lived shared cache so repeated calls skip
    parse + plan entirely, while a standalone executor gets a private
    one.  *epoch* is the owning catalog's version counter — part of the
    cache key, so index/shard-map DDL invalidates stale plans.
    """

    def __init__(
        self,
        ctx: QueryContext,
        use_indexes: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
        plans: PlanCache | None = None,
        epoch: int = 0,
    ) -> None:
        self.ctx = ctx
        self.use_indexes = use_indexes
        self.batch_size = batch_size
        # A sharded context carries the cluster catalog; plan() then
        # inserts scatter-gather operators.  Single-node contexts don't.
        self.catalog = getattr(ctx, "catalog", None)
        # EXPLAIN ANALYZE sets this: shard scatters run sequentially so
        # per-operator row counters stay exact.
        self.analyze = False
        # ANALYZE also hands out an observation dict (operator id ->
        # extra actuals, e.g. HashAggregate's rows_in/groups); operators
        # skip the bookkeeping entirely when it is None.
        self.observed: dict[int, dict[str, int]] | None = None
        # The observability channel, populated by the driver when its
        # Observability is enabled: `tracer` carries the per-query span
        # tree (None = tracing off, the default — operators check once
        # per run, never per row), `obs` gives scatter operators the
        # shard-latency/fanout histograms, and `trace_id` rides into
        # per-shard workers so cross-layer events correlate.
        self.tracer = None
        self.obs = None
        self.trace_id: int | None = None
        self.stats = {
            "index_lookups": 0, "range_lookups": 0, "scans": 0, "rows_scanned": 0,
            "scan_cache_hits": 0, "index_fallback_scans": 0,
            "join_builds": 0, "join_build_rows": 0, "join_index_probes": 0,
            "join_unhashable_rows": 0, "rows_copied_out": 0,
        }
        # Scan materialization: collection name -> the scanned
        # block, so nested-loop inner scans re-serve one materialized
        # pass instead of re-scanning the store per outer row.  Scoped to
        # one top-level execute() — cleared there, shared by subqueries.
        self.scan_cache: dict[str, list[Any]] = {}
        # EquiJoin build tables, same scope: id(operator) -> (operator,
        # table), so a join inside a correlated subquery builds once.
        self.join_tables: dict[int, tuple[Any, Any]] = {}
        self.plans = plans if plans is not None else PlanCache(capacity=64)
        self.epoch = epoch
        # Per-executor memo in front of the shared cache for subqueries:
        # a correlated subquery resolves once per executor instead of
        # deep-hashing its AST per row.  Keyed by id() with the Query
        # pinned in the value so ids cannot recycle while memoized; the
        # plan itself stays owned by (and shared through) self.plans.
        self._subplan_memo: dict[int, tuple[Query, Any]] = {}

    # -- public ---------------------------------------------------------------

    def execute(
        self, query: Query | str, params: dict[str, Any] | None = None
    ) -> list[Any]:
        """Plan (or fetch the cached plan), run, materialise all values.

        Text queries resolve to a :class:`PreparedPlan`: the cached plan
        is shared across literal-differing texts, and the extracted
        literal vector merges under the caller's parameters here —
        prepared-statement execution.

        With a tracer attached, the two pipeline stages get spans: a
        ``plan`` span covering parse/parameterize/cache resolution (with
        a ``cached`` attr) and an ``execute`` span covering the drain —
        scatter operators hang their per-shard subspans below the
        latter.

        The context lends its rows (they are the store's own objects);
        the returned list is the one place they are copied, so callers
        own every value in it outright.
        """
        tracer = self.tracer
        if tracer is None:
            prepared = self.plans.get_or_plan(
                query, self.catalog, self.epoch, self.use_indexes
            )
        else:
            span = tracer.push("plan")
            # `cached` from the miss-counter delta rather than a peek():
            # the hot path must not pay an extra cache-lock round trip.
            # Informational only — a concurrent thread's miss can skew it.
            misses = self.plans.misses
            try:
                prepared = self.plans.get_or_plan(
                    query, self.catalog, self.epoch, self.use_indexes
                )
            finally:
                span.attrs["cached"] = self.plans.misses == misses
                span.attrs["epoch"] = self.epoch
                tracer.pop()
        # Scan blocks are only valid within one query's snapshot: a
        # reused executor must not serve a previous query's scans.
        self.scan_cache.clear()
        self.join_tables.clear()
        run_params = dict(params) if params else {}
        if prepared.binds:
            run_params.update(prepared.binds)
        if tracer is None:
            return self._copy_out(self._drain(prepared.plan.root, run_params))
        span = tracer.push("execute")
        try:
            result = self._copy_out(self._drain(prepared.plan.root, run_params))
            span.attrs["rows"] = len(result)
        finally:
            tracer.pop()
        return result

    def _copy_out(self, rows: list[Any]) -> list[Any]:
        """The result boundary: deep-copy *rows*, counted in ``stats``."""
        self.stats["rows_copied_out"] += len(rows)
        return [_copy_result(row) for row in rows]

    def run_subquery(
        self, query: Query, binding: Binding, params: dict[str, Any]
    ) -> list[Any]:
        """Run a sub-pipeline seeded with the current binding; returns a list.

        Subquery plans live in the same cache as top-level plans, keyed
        by the Query value itself — the cache owns the plan outright,
        and value-equal subqueries (even across executors) share one
        plan.  A per-executor memo avoids re-hashing the AST on every
        row of a correlated subquery.
        """
        memoized = self._subplan_memo.get(id(query))
        if memoized is not None and memoized[0] is query:
            return self._drain(memoized[1], params, seed=binding)
        root = self.plans.get_or_plan(
            query, self.catalog, self.epoch, self.use_indexes
        ).root
        self._subplan_memo[id(query)] = (query, root)
        return self._drain(root, params, seed=binding)

    def _drain(
        self, root: Any, params: dict[str, Any], seed: Binding | None = None
    ) -> list[Any]:
        """Materialise a plan's output by draining its batch stream."""
        out: list[Any] = []
        for batch in root.run_batches(self, params, seed=seed):
            out.extend(batch)
        return out


def _copy_result(value: Any) -> Any:
    """Deep copy of one result value: JSON containers with XML nodes at
    any depth (``{"_id": …, "root": <XmlElement>}``, XPATH hits, groups)."""
    if isinstance(value, dict):
        return {key: _copy_result(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copy_result(item) for item in value]
    if isinstance(value, (XmlElement, XmlText)):
        return copy_value(value)
    return value


def run_query(
    ctx: QueryContext,
    text: str,
    params: dict[str, Any] | None = None,
    use_indexes: bool = True,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> list[Any]:
    """Parse, plan and execute MMQL *text* in one call."""
    return Executor(ctx, use_indexes=use_indexes, batch_size=batch_size).execute(text, params)
