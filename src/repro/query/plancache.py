"""A versioned, parameter-insensitive LRU cache of planned MMQL queries.

``Executor.execute`` used to call ``plan()`` unconditionally, so every
repeated query re-parsed and re-optimised its text; subquery plans were
pinned forever in ``Executor._subplans`` keyed by ``id()`` — a leak that
could even collide after garbage collection.  :class:`PlanCache` fixes
both, and behaves like a **prepared-statement cache**: query
text is parsed once, its literals are normalised into synthetic
parameters (:func:`~repro.query.planner.parameterize`), and the cache
keys plans by the resulting *shape*, so ``FILTER o.status == 'new'`` and
``== 'paid'`` resolve to one cached plan.  Each lookup returns a
:class:`PreparedPlan` — the shared plan plus the caller's literal vector,
which travels to execution like statement arguments.

Two levels of bookkeeping:

- ``_texts``: text → (shape key, binds).  A parse memo, so the warm
  path for repeated text is two dict lookups — no parse, no literal
  extraction.
- ``_entries``: shape key → :class:`ExplainedPlan`.  The bounded LRU of
  actual plans.  Hits/misses are counted here, so a *new* text that
  resolves to an already-cached shape counts as a hit — that is the
  prepared-statement win ``tests/query/test_plancache.py`` asserts.

Already-parsed :class:`Query` values (subqueries, constructed ASTs) skip
parameterization and cache by AST value, exactly as before.

Versioning: the *catalog epoch* is a monotonically increasing counter
bumped by DDL that changes planning inputs — index create/drop
(:attr:`MultiModelDatabase.catalog_epoch`) and shard-map registration
(:attr:`ShardRouter.epoch`).  The epoch is part of every key, so a bump
makes older plans (and text memos) unreachable; stale entries are also
purged eagerly the first time a newer epoch is seen.

Plans are immutable operator trees (frozen dataclasses with compiled
expression closures attached at construction) and are therefore safe to
share across threads; the cache's own bookkeeping is lock-protected.
Planning happens outside the lock — two racing threads may both plan a
cold shape, and the last insert wins, which is harmless because equal
keys produce equivalent plans.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.query.ast import Query
from repro.query.parser import parse
from repro.query.planner import ExplainedPlan, parameterize, plan


@dataclass(frozen=True)
class PreparedPlan:
    """A cache lookup result: the shared plan + this caller's literals.

    ``binds`` maps synthetic parameter names (``%p0``, ``%p1``, …) to the
    literal values extracted from the original text; the executor merges
    them under the user's parameters at run time.  AST-keyed lookups have
    empty binds.
    """

    plan: ExplainedPlan
    binds: dict[str, Any] = field(default_factory=dict)

    @property
    def root(self):
        return self.plan.root

    @property
    def query(self) -> Query:
        return self.plan.query

    @property
    def notes(self) -> tuple[str, ...]:
        return self.plan.notes

    def describe(self, header: str = "plan:") -> str:
        text = self.plan.describe(header)
        if self.binds:
            rendered = ", ".join(f"@{k}={v!r}" for k, v in self.binds.items())
            text += f"\nbinds: {rendered}"
        return text


class PlanCache:
    """Bounded LRU map of planned query shapes, invalidated by epoch."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # text key -> (shape key, binds): the parse/parameterize memo.
        self._texts: OrderedDict[Hashable, tuple[Hashable, dict[str, Any]]] = (
            OrderedDict()
        )
        # shape or AST key -> plan: the actual plan LRU.
        self._entries: OrderedDict[Hashable, ExplainedPlan] = OrderedDict()
        self._lock = threading.Lock()
        self._epoch_seen = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        # Warm-text resolutions through the parse/parameterize memo —
        # the "no parse happened at all" wins, distinct from plan hits
        # (a new text can plan-hit an already-cached shape cold).
        self.memo_hits = 0

    # -- lookup ---------------------------------------------------------------

    def get_or_plan(
        self,
        query: Query | str,
        catalog: Any = None,
        epoch: int = 0,
        use_indexes: bool = True,
    ) -> PreparedPlan:
        """The cached plan for *query*, planning (and caching) on a miss.

        *query* may be MMQL text — parsed and literal-parameterized only
        the first time that exact text is seen; afterwards the warm path
        is two dict lookups — or an already-parsed :class:`Query`
        (subqueries cache per value-equal AST, so equal sub-pipelines
        share one plan and nothing is keyed by ``id()``).
        """
        if isinstance(query, str):
            text_key = ("text", query, epoch, use_indexes)
            with self._lock:
                self._purge_stale(epoch)
                memo = self._texts.get(text_key)
            if memo is None:
                shape, binds = parameterize(parse(query))
                key = self._shape_key(shape, epoch, use_indexes)
                if key is None:
                    # Unhashable pinned literal: plan uncached.
                    return PreparedPlan(plan(shape, catalog), binds)
                with self._lock:
                    self._texts[text_key] = (key, binds)
                    while len(self._texts) > 4 * self.capacity:
                        self._texts.popitem(last=False)
            else:
                key, binds = memo
                shape = None
                self.memo_hits += 1
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return PreparedPlan(cached, binds)
                self.misses += 1
            if shape is None:
                shape, _ = parameterize(parse(query))
            planned = plan(shape, catalog)
            self._insert(key, planned)
            return PreparedPlan(planned, binds)

        key = self._shape_key(query, epoch, use_indexes, tag="ast")
        if key is None:
            # Unhashable literal somewhere in a constructed AST: plan
            # uncached rather than refuse the query.
            return PreparedPlan(plan(query, catalog))
        with self._lock:
            self._purge_stale(epoch)
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return PreparedPlan(cached)
            self.misses += 1
        planned = plan(query, catalog)
        self._insert(key, planned)
        return PreparedPlan(planned)

    def peek(
        self, query: Query | str, epoch: int = 0, use_indexes: bool = True
    ) -> PreparedPlan | None:
        """The cached plan if present — no planning, no LRU promotion.

        Text lookups resolve through the parse memo only (a text never
        seen by :meth:`get_or_plan` peeks as absent even when a
        shape-equal plan exists — peeking must not parse).
        """
        if isinstance(query, str):
            with self._lock:
                memo = self._texts.get(("text", query, epoch, use_indexes))
                if memo is None:
                    return None
                key, binds = memo
                cached = self._entries.get(key)
                return None if cached is None else PreparedPlan(cached, binds)
        key = self._shape_key(query, epoch, use_indexes, tag="ast")
        if key is None:
            return None
        with self._lock:
            cached = self._entries.get(key)
            return None if cached is None else PreparedPlan(cached)

    # -- maintenance ----------------------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._texts.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "texts": len(self._texts),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "memo_hits": self.memo_hits,
            }

    def shape_id(
        self, text: str, epoch: int = 0, use_indexes: bool = True
    ) -> str | None:
        """A compact id of *text*'s normalized (literal-parameterized) shape.

        Literal-differing instances of one query shape get the same id,
        so the slow-query log can aggregate them.  Resolved through the
        parse memo only (no parsing; ``None`` for never-executed text)
        and derived from the shape key's hash — stable within a process,
        not across processes (``PYTHONHASHSEED``).
        """
        with self._lock:
            memo = self._texts.get(("text", text, epoch, use_indexes))
        if memo is None:
            return None
        return f"{hash(memo[0]) & 0xFFFFFFFFFFFFFFFF:016x}"

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _shape_key(
        query: Query, epoch: int, use_indexes: bool, tag: str = "shape"
    ) -> Hashable | None:
        try:
            hash(query)
        except TypeError:
            return None
        return (tag, query, epoch, use_indexes)

    def _insert(self, key: Hashable, planned: ExplainedPlan) -> None:
        with self._lock:
            self._entries[key] = planned
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def _purge_stale(self, epoch: int) -> None:
        """Drop every entry keyed under an older epoch (lock held).

        Epoch-in-key already makes stale plans unreachable; purging
        keeps them from occupying LRU slots until natural eviction.
        """
        if epoch <= self._epoch_seen:
            return
        self._epoch_seen = epoch
        for entries in (self._entries, self._texts):
            stale = [key for key in entries if key[2] != epoch]
            for key in stale:
                del entries[key]
            self.invalidations += len(stale)
