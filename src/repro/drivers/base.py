"""The abstract driver interface every system under test implements."""

from __future__ import annotations

import abc
import threading
from typing import Any, Callable

from repro.query.context import QueryContext
from repro.query.plancache import PlanCache


class Driver(abc.ABC):
    """Uniform access to one system under test.

    Responsibilities:

    - DDL: create the five model containers for the benchmark scenario.
    - Loading: bulk-insert generated data.
    - Queries: expose a :class:`QueryContext` so MMQL runs unchanged.
    - Transactions: run a multi-model read-write unit atomically (or as
      atomically as the architecture permits — the polyglot baseline's
      weaker guarantee is itself a measured result).

    Every driver owns one :class:`~repro.query.plancache.PlanCache`:
    repeated queries (and the subqueries they contain) skip parse +
    plan, and the cache key carries :meth:`catalog_epoch` so index and
    shard-map DDL invalidates stale plans instead of serving them.

    Every driver also owns one :class:`~repro.obs.core.Observability`
    (same lazy pattern): metrics registry, per-query tracing, and the
    slow-query log, exposed through :meth:`metrics`,
    :meth:`metrics_text` and :meth:`slow_queries`.  Subclasses hook
    :meth:`_register_observability` to register collectors over their
    engine internals (WAL, lock manager, 2PC coordinator).
    """

    name: str = "driver"
    plan_cache_capacity: int = 128
    # Guards lazy cache creation only (rare); shared across drivers is
    # fine.  Without it, two threads racing a cold driver's first query
    # would each build a cache and one would silently clobber the other.
    _plan_cache_init_lock = threading.Lock()

    @property
    def plan_cache(self) -> PlanCache:
        """The driver's shared plan cache (created lazily — subclasses
        need not call any base ``__init__``)."""
        cache = self.__dict__.get("_plan_cache")
        if cache is None:
            with Driver._plan_cache_init_lock:
                cache = self.__dict__.get("_plan_cache")
                if cache is None:
                    cache = PlanCache(self.plan_cache_capacity)
                    self.__dict__["_plan_cache"] = cache
        return cache

    @property
    def observability(self):
        """The driver's observability bundle (created lazily, like the
        plan cache — subclasses need not call any base ``__init__``)."""
        obs = self.__dict__.get("_observability")
        if obs is None:
            from repro.obs.core import Observability

            with Driver._plan_cache_init_lock:
                obs = self.__dict__.get("_observability")
                if obs is None:
                    obs = Observability()
                    self._register_observability(obs)
                    self.__dict__["_observability"] = obs
        return obs

    def _register_observability(self, obs) -> None:
        """Register this driver's metric collectors into *obs*.

        Called exactly once, when the lazy :attr:`observability` is
        first built.  Collectors are zero-overhead pulls — callables
        invoked only at snapshot time, reading counters the engine
        already keeps.  Subclasses extend this with their engine
        internals; the base registers the shared plan cache.
        """
        obs.registry.register_collector("plan_cache", self._plan_cache_metrics)

    def _plan_cache_metrics(self) -> dict[str, Any]:
        stats = self.plan_cache.stats()
        resolved = stats["hits"] + stats["misses"]
        stats["hit_rate"] = round(stats["hits"] / resolved, 6) if resolved else 0.0
        return stats

    def metrics(self) -> dict[str, Any]:
        """Stable nested dict of every registered metric and collector."""
        return self.observability.snapshot()

    def metrics_text(self) -> str:
        """The same metrics in Prometheus text exposition format."""
        return self.observability.to_prometheus()

    def slow_queries(self, n: int | None = None) -> list[dict[str, Any]]:
        """Captured slow-query entries, slowest first (all when *n* is None)."""
        return self.observability.slow_log.slowest(n)

    def catalog_epoch(self) -> int:
        """Monotonic version of the planning catalog (indexes, shard map).

        Drivers whose DDL changes planning inputs must bump this; the
        default (a constant) means plans are never invalidated.
        """
        return 0

    def plan_catalog(self) -> Any:
        """The catalog handed to ``plan()`` (a ShardRouter, or None)."""
        return None

    # -- DDL -------------------------------------------------------------

    @abc.abstractmethod
    def create_table(self, schema: Any) -> None:
        """Create a relational table from a TableSchema."""

    @abc.abstractmethod
    def create_collection(self, name: str) -> None:
        """Create a JSON document collection."""

    @abc.abstractmethod
    def create_xml_collection(self, name: str) -> None:
        """Create an XML document collection."""

    @abc.abstractmethod
    def create_kv_namespace(self, name: str) -> None:
        """Create a key-value namespace."""

    @abc.abstractmethod
    def create_graph(self, name: str) -> None:
        """Create a property graph."""

    @abc.abstractmethod
    def create_index(
        self, kind: str, collection: str, field: str, index_type: str = "hash"
    ) -> None:
        """Create a secondary index; *kind* is 'table' or 'collection'.

        *index_type* selects the structure: ``"hash"`` (equality),
        ``"sorted"`` or ``"btree"`` (ordered, serve range scans).
        Drivers without ordered structures may ignore it — the query
        layer falls back to scans when a range probe is unanswerable.
        *field* may be a dotted path into nested documents.
        """

    # -- loading -----------------------------------------------------------

    @abc.abstractmethod
    def load(self, loader: Callable[[Any], None]) -> None:
        """Run *loader(session)* as one bulk-load unit."""

    # -- queries ------------------------------------------------------------

    @abc.abstractmethod
    def query_context(self) -> QueryContext:
        """A QueryContext over the system's current committed state."""

    def query(
        self,
        text: str,
        params: dict[str, Any] | None = None,
        use_indexes: bool = True,
        batch_size: int | None = None,
    ) -> list[Any]:
        """Convenience: run one MMQL query on a fresh context.

        The plan comes from the driver's shared cache.  *use_indexes* is
        the index ablation axis; *batch_size* tunes the vectorization
        width.

        When the driver's observability is enabled (the default) the
        run is timed into the metrics registry and, over the slow-query
        threshold, captured into the slow log; with tracing on it also
        produces a span tree.  Disabling observability restores the
        exact pre-instrumentation path.
        """
        return self._execute_on(
            self.query_context(), text, params, use_indexes, batch_size
        )

    def _execute_on(
        self,
        ctx: QueryContext,
        text: str,
        params: dict[str, Any] | None,
        use_indexes: bool,
        batch_size: int | None,
    ) -> list[Any]:
        """Run one query on an already-built context (closing it after).

        Split out of :meth:`query` so drivers that choose the context
        per call — e.g. a replicated cluster routing a session token's
        reads to followers — reuse the execution/observability path
        without duplicating it.
        """
        from repro.query.executor import Executor
        from repro.query.physical import DEFAULT_BATCH_SIZE

        try:
            executor = Executor(
                ctx,
                use_indexes=use_indexes,
                batch_size=batch_size or DEFAULT_BATCH_SIZE,
                plans=self.plan_cache,
                epoch=self.catalog_epoch(),
            )
            obs = self.observability
            if obs.enabled:
                return obs.observe_query(executor, text, params)
            return executor.execute(text, params)
        finally:
            close = getattr(ctx, "close", None)
            if close is not None:
                close()

    def explain(self, text: str) -> str:
        """Human-readable plan for an MMQL query (index choices, clause order).

        A plan already resident in the driver's cache renders with a
        ``plan: cached epoch=N`` header instead of the bare ``plan:``.
        """
        epoch = self.catalog_epoch()
        cached = self.plan_cache.peek(text, epoch) is not None
        planned = self.plan_cache.get_or_plan(
            text, self.plan_catalog(), epoch
        )
        header = f"plan: cached epoch={epoch}" if cached else "plan:"
        return planned.describe(header=header)

    def explain_analyze(
        self,
        text: str,
        params: dict[str, Any] | None = None,
        use_indexes: bool = True,
    ) -> str:
        """Execute the query and render the plan with actual row counts.

        EXPLAIN ANALYZE-lite: every operator line carries ``rows=N`` (the
        bindings it produced), followed by the access-path counters.  On
        a sharded driver this shows routing (``shard_fanout=1``) versus
        scatter-gather, and the per-shard subplan's gathered row totals.
        """
        from repro.query.analyze import explain_analyze

        ctx = self.query_context()
        try:
            report, _ = explain_analyze(ctx, text, params, use_indexes)
            return report
        finally:
            close = getattr(ctx, "close", None)
            if close is not None:
                close()

    # -- transactions ------------------------------------------------------------

    @abc.abstractmethod
    def run_transaction(self, body: Callable[[Any], Any]) -> Any:
        """Execute *body(session)* as one multi-model transaction.

        The session object is driver-specific but must provide the same
        method names as :class:`repro.engine.database.Session` for the
        operations the benchmark workloads use.
        """

    # -- introspection -------------------------------------------------------------

    @abc.abstractmethod
    def stats(self) -> dict[str, int]:
        """Entity counts for the dataset report (Figure 1 reproduction)."""
