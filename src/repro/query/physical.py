"""MMQL physical operators: the batch-at-a-time execution pipeline.

The planner lowers a clause list into a tree of physical operators; the
executor then drains the root's :meth:`PhysicalOperator.run_batches`
stream.  Operators are frozen dataclasses so a plan is an immutable,
inspectable value — :func:`explain_tree` renders the tree that EXPLAIN
shows, including the chosen access path for every FOR.

Operator inventory (one class per shape of work):

=================  ========================================================
Operator           Role
=================  ========================================================
NestedLoopBind     FOR: bind a variable per item of an access path
EquiJoin           FOR block tied to outer bindings by ``==``: index probe
                   when the context has the index, else one hash build/query
CollectionScan     access path: full scan of a named collection
IndexEqLookup      access path: equality probe of a secondary index
IndexRangeScan     access path: bounded scan of a sorted/B+tree index
ExpressionSource   access path: FOR over a list-valued expression/variable
Filter             FILTER: drop bindings failing a predicate
Let                LET: extend each binding with a computed value
Sort               SORT: full materialising sort
TopK               fused SORT+LIMIT: bounded-heap top-k, no full sort
Limit              LIMIT: offset/count window over the stream
HashAggregate      COLLECT: hash grouping + Aggregator states, three modes
Project            RETURN: map bindings to output values (DISTINCT here)
FusedPipeline      a straight-line bind/filter/let/project chain, one closure
=================  ========================================================

Operators receive the running :class:`~repro.query.executor.Executor`
(duck-typed as ``rt``) for the data context, the ``use_indexes``
switch, the batch size and the stats counters.  Access paths re-check
nothing themselves: the planner always keeps the original FILTER as a
residual predicate, so an access path may safely over-approximate (e.g.
a latest-committed index) — correctness never depends on index choice.

Every expression an operator holds is **closure-compiled once** when the
operator is constructed (``__post_init__`` calls
:func:`~repro.query.compile.compile_expr`), so the per-row inner loop
runs pre-dispatched closures instead of a recursive isinstance walk.

**Batch-at-a-time execution**: every operator produces and consumes
*lists* of bindings (target size ``rt.batch_size``, default 1024)
instead of one binding per ``next()``.  Access paths emit whole chunks
directly — bulk stats counting, no generator hop per row — and
Filter/Let/Project run the batch kernels of :mod:`repro.query.compile`
over each batch in a single Python-level loop.  The fusion pass
(:func:`fuse_pipelines`) then collapses maximal straight-line chains of
NestedLoopBind/Filter/Let/Project into one :class:`FusedPipeline` node
whose per-batch closure chain eliminates the remaining operator hops
and intermediate dict churn.  The differential oracle for all of it is
the standalone clause-at-a-time interpreter in
:mod:`repro.query.reference`, which shares none of this module's
operators.

Laziness caveat: batch execution evaluates up to one chunk of rows
ahead of a LIMIT's cut-off, so a predicate that *errors* on a row a
row-at-a-time interpreter would never have pulled can surface the
error — the standard vectorized-engine trade, bounded by the batch
size.  An :class:`EquiJoin` that takes its hash side reads ahead
further: the whole inner block, once, on the first outer row (an empty
outer side never touches it).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, fields, replace
from itertools import islice
from typing import Any, Callable, Iterator

from repro.errors import ExecutionError
from repro.query.aggregates import AggPartial, get_aggregator, group_key, ordered_group_keys
from repro.query.ast import (
    Binary,
    CollectClause,
    Expr,
    FieldAccess,
    FunctionCall,
    IndexAccess,
    ListExpr,
    Literal,
    ParamRef,
    ReturnClause,
    SortKey,
    Unary,
    VarRef,
)
from repro.query.compile import (
    CompiledExpr,
    compile_expr,
    filter_batch,
    let_batch,
    project_batch,
)

Binding = dict[str, Any]

DEFAULT_BATCH_SIZE = 1024


def batch_size(rt: Any) -> int:
    """The executor's configured batch size (default 1024)."""
    return getattr(rt, "batch_size", DEFAULT_BATCH_SIZE) or DEFAULT_BATCH_SIZE


def _chunks(iterable: Any, size: int) -> Iterator[list[Any]]:
    """Re-chunk any iterable into non-empty lists of at most *size*."""
    iterator = iter(iterable)
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


# ---------------------------------------------------------------------------
# Expression rendering (for EXPLAIN)
# ---------------------------------------------------------------------------


def render_expr(expr: Expr, limit: int = 40) -> str:
    """Compact, best-effort text for an expression in EXPLAIN output."""
    text = _render(expr)
    if len(text) > limit:
        text = text[: limit - 1] + "…"
    return text


def _render(expr: Expr) -> str:
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, ParamRef):
        return f"@{expr.name}"
    if isinstance(expr, FieldAccess):
        return f"{_render(expr.base)}.{expr.field}"
    if isinstance(expr, IndexAccess):
        return f"{_render(expr.base)}[{_render(expr.index)}]"
    if isinstance(expr, Binary):
        return f"{_render(expr.left)} {expr.op} {_render(expr.right)}"
    if isinstance(expr, Unary):
        return f"{expr.op} {_render(expr.operand)}"
    if isinstance(expr, FunctionCall):
        return f"{expr.name}({', '.join(_render(a) for a in expr.args)})"
    if isinstance(expr, ListExpr):
        return f"[{len(expr.items)} items]"
    return "<expr>"


def field_path(expr: Expr, var: str) -> str | None:
    """Dotted field path of *expr* when rooted at *var*, else None.

    ``u.address.city`` rooted at ``u`` gives ``"address.city"`` — the
    string a dotted-path secondary index is registered under.
    """
    parts: list[str] = []
    node = expr
    while isinstance(node, FieldAccess):
        parts.append(node.field)
        node = node.base
    if isinstance(node, VarRef) and node.name == var and parts:
        return ".".join(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# Access paths (the inner input of NestedLoopBind)
# ---------------------------------------------------------------------------


def _plan_node_state(node: Any) -> dict[str, Any]:
    """Pickle state of a plan node: declared dataclass fields only.

    Every operator's ``__post_init__`` injects compiled closures
    (``_c_*``, ``_k_batch``) via ``object.__setattr__``;
    closures are process-local and unpicklable, so serialization ships
    the declared fields and :func:`_restore_plan_node` recompiles on the
    receiving side.  This is what lets a shard subplan cross the worker
    process boundary byte-compactly (``repro.cluster.remote``).
    """
    return {f.name: getattr(node, f.name) for f in fields(node)}


def _restore_plan_node(node: Any, state: dict[str, Any]) -> None:
    """Rebuild a plan node from pickled fields, re-running compilation."""
    for name, value in state.items():
        object.__setattr__(node, name, value)
    post_init = getattr(node, "__post_init__", None)
    if post_init is not None:
        post_init()


class AccessPath:
    """Produces the items one FOR iterates, given the outer binding."""

    def __getstate__(self) -> dict[str, Any]:
        return _plan_node_state(self)

    def __setstate__(self, state: dict[str, Any]) -> None:
        _restore_plan_node(self, state)

    def batches(
        self, rt: Any, binding: Binding, params: dict[str, Any], size: int
    ) -> Iterator[list[Any]]:
        """The items, in non-empty chunks of at most *size*."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


def _count(rt: Any, stat: str, by: int = 1) -> None:
    """Bump a counter that shard-local stats dicts do not pre-register."""
    rt.stats[stat] = rt.stats.get(stat, 0) + by


def _scan_batches(rt: Any, collection: str, size: int) -> Iterator[list[Any]]:
    """Full-scan fallback emitting chunks, counting stats per chunk.

    Each collection scan is *materialized* once per query
    (``rt.scan_cache``), and repeated scans of the same collection are
    served from the cached block: the inner scan of a nested loop
    costs one pass over the store instead of one pass per outer row.
    The snapshot is immutable for the duration of a query and MMQL
    operators never mutate source documents, so re-serving the same
    block (sharing, not re-copying, the document dicts) is safe.  A scan
    abandoned early — e.g. cut off by LIMIT — is never cached.  ``scans``
    and ``rows_scanned`` keep counting actual store traffic only;
    ``scan_cache_hits`` counts the re-uses, so EXPLAIN ANALYZE shows the
    saving directly.
    """
    cache = getattr(rt, "scan_cache", None)
    docs = cache.get(collection) if cache is not None else None
    if docs is not None:
        _count(rt, "scan_cache_hits")
        yield from _chunks(docs, size)
        return
    rt.stats["scans"] += 1
    block: list[Any] = []
    for chunk in _chunks(rt.ctx.iter_collection(collection), size):
        rt.stats["rows_scanned"] += len(chunk)
        block.extend(chunk)
        yield chunk
    if cache is not None:
        cache[collection] = block


def _shadowed_list(source_name: str, binding: Binding) -> list[Any] | None:
    """A bound variable holding a list shadows any collection name."""
    if source_name in binding:
        value = binding[source_name]
        if not isinstance(value, list):
            raise ExecutionError(
                f"FOR over variable {source_name!r} requires a list, "
                f"got {type(value).__name__}"
            )
        return value
    return None


@dataclass(frozen=True)
class CollectionScan(AccessPath):
    """Full scan of a named collection."""

    collection: str

    def batches(self, rt, binding, params, size):
        shadowed = _shadowed_list(self.collection, binding)
        if shadowed is not None:
            yield from _chunks(shadowed, size)
            return
        yield from _scan_batches(rt, self.collection, size)

    def describe(self) -> str:
        return f"CollectionScan({self.collection}) [scan]"


@dataclass(frozen=True)
class IndexEqLookup(AccessPath):
    """Equality probe of a secondary index; falls back to a scan.

    The context decides at run time whether a usable index exists
    (``index_lookup`` returning None means no), so the same plan runs on
    indexed and unindexed stores — the E1 ablation flips ``use_indexes``.
    """

    collection: str
    field: str
    key_expr: Expr

    def __post_init__(self) -> None:
        object.__setattr__(self, "_c_key", compile_expr(self.key_expr))

    def batches(self, rt, binding, params, size):
        shadowed = _shadowed_list(self.collection, binding)
        if shadowed is not None:
            yield from _chunks(shadowed, size)
            return
        if rt.use_indexes:
            key = self._c_key(rt, binding, params)
            matches = rt.ctx.index_lookup(self.collection, self.field, key)
            if matches is not None:
                rt.stats["index_lookups"] += 1
                yield from _chunks(matches, size)
                return
        _count(rt, "index_fallback_scans")
        yield from _scan_batches(rt, self.collection, size)

    def describe(self) -> str:
        return (
            f"IndexEqLookup [index: {self.collection}.{self.field} "
            f"== {render_expr(self.key_expr)}]"
        )


@dataclass(frozen=True)
class IndexRangeScan(AccessPath):
    """Bounded scan of a sorted/B+tree index; falls back to a scan.

    Either bound may be None (open); inclusivity mirrors the comparison
    operators the planner matched.  Contexts without ``range_lookup``
    (or without a sorted index on the field) scan — the residual FILTER
    keeps the answer exact either way.
    """

    collection: str
    field: str
    low_expr: Expr | None = None
    high_expr: Expr | None = None
    include_low: bool = True
    include_high: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_c_low",
            compile_expr(self.low_expr) if self.low_expr is not None else None,
        )
        object.__setattr__(
            self, "_c_high",
            compile_expr(self.high_expr) if self.high_expr is not None else None,
        )

    def batches(self, rt, binding, params, size):
        shadowed = _shadowed_list(self.collection, binding)
        if shadowed is not None:
            yield from _chunks(shadowed, size)
            return
        range_lookup = getattr(rt.ctx, "range_lookup", None)
        if rt.use_indexes and range_lookup is not None:
            low = self._c_low(rt, binding, params) if self._c_low is not None else None
            high = self._c_high(rt, binding, params) if self._c_high is not None else None
            matches = range_lookup(
                self.collection, self.field,
                low, high, self.include_low, self.include_high,
            )
            if matches is not None:
                rt.stats["range_lookups"] += 1
                yield from _chunks(matches, size)
                return
        _count(rt, "index_fallback_scans")
        yield from _scan_batches(rt, self.collection, size)

    def describe(self) -> str:
        bounds = []
        if self.low_expr is not None:
            op = ">=" if self.include_low else ">"
            bounds.append(f"{op} {render_expr(self.low_expr)}")
        if self.high_expr is not None:
            op = "<=" if self.include_high else "<"
            bounds.append(f"{op} {render_expr(self.high_expr)}")
        return (
            f"IndexRangeScan [range index: {self.collection}.{self.field} "
            f"{' AND '.join(bounds)}]"
        )


@dataclass(frozen=True)
class ExpressionSource(AccessPath):
    """FOR over a list-valued expression or an already-bound variable."""

    source: Expr
    is_var: bool = False  # statically known to be a bound variable

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_c_source", None if self.is_var else compile_expr(self.source)
        )

    def batches(self, rt, binding, params, size):
        if self.is_var:
            assert isinstance(self.source, VarRef)
            shadowed = _shadowed_list(self.source.name, binding)
            if shadowed is None:
                raise ExecutionError(f"unbound variable {self.source.name!r}")
            yield from _chunks(shadowed, size)
            return
        value = self._c_source(rt, binding, params)
        if value is None:
            return
        if not isinstance(value, list):
            raise ExecutionError(
                f"FOR source must evaluate to a list, got {type(value).__name__}"
            )
        yield from _chunks(value, size)

    def describe(self) -> str:
        return f"ExpressionSource({render_expr(self.source)})"


# ---------------------------------------------------------------------------
# Binding-stream operators
# ---------------------------------------------------------------------------


class PhysicalOperator:
    """One node of the physical plan; pulls bindings from its child."""

    child: "PhysicalOperator | None"

    def __getstate__(self) -> dict[str, Any]:
        return _plan_node_state(self)

    def __setstate__(self, state: dict[str, Any]) -> None:
        _restore_plan_node(self, state)

    def run_batches(
        self, rt: Any, params: dict[str, Any], seed: Binding | None = None
    ) -> Iterator[list[Any]]:
        """Non-empty lists of bindings (or of output values at the
        Project root).  Every operator has its own body; there is no
        per-row fallback to bridge through."""
        raise NotImplementedError(f"{type(self).__name__} has no run_batches")

    def label(self) -> str:
        raise NotImplementedError

    def _input_batches(
        self, rt: Any, params: dict[str, Any], seed: Binding | None
    ) -> Iterator[list[Binding]]:
        if self.child is None:
            yield [dict(seed) if seed else {}]
            return
        yield from self.child.run_batches(rt, params, seed)


@dataclass(frozen=True)
class NestedLoopBind(PhysicalOperator):
    """FOR: per input binding, bind *var* to each item of the access path."""

    var: str
    access: AccessPath
    child: PhysicalOperator | None = None

    def run_batches(self, rt, params, seed=None):
        size = batch_size(rt)
        var = self.var
        access = self.access
        out: list[Binding] = []
        append = out.append
        for batch in self._input_batches(rt, params, seed):
            for binding in batch:
                for chunk in access.batches(rt, binding, params, size):
                    for item in chunk:
                        extended = dict(binding)
                        extended[var] = item
                        append(extended)
                    if len(out) >= size:
                        yield out
                        out = []
                        append = out.append
        if out:
            yield out

    def label(self) -> str:
        return f"NestedLoopBind {self.var}: {self.access.describe()}"


# (block rows, key -> positions in rows, positions whose key has no hash)
_JoinTable = tuple[list[Binding], dict[Any, list[int]], list[int]]

_NO_KEY = object()  # an outer key that raised: the residual FILTER re-raises it


@dataclass(frozen=True)
class EquiJoin(PhysicalOperator):
    """FOR block joined to the bindings in scope on ``inner_key == outer_key``.

    ``subplan`` is the inner side: the block (a collection FOR plus the
    unnests, LETs and filters that read only its own variables) lowered
    as a plan of its own, with no child.  Per outer binding the operator
    emits a *superset* of the block rows whose key equals the outer key,
    in the order the block produces them; the planner keeps the original
    FILTER above as the strict residual, so the output is row-for-row
    the nested loop's and ``==`` keeps Python semantics (``None == None``,
    ``1 == 1.0 == True``, NaN) without being re-implemented here.

    Which side finds the matches is decided per outer row from what the
    context reports, and from nothing else:

    - ``probe`` is set when the block is one collection FOR keyed on a
      field path — the index nested loop.  If ``rt.use_indexes`` and the
      context has that index, its lookup is the match list.
    - Otherwise the block runs **once per top-level query** — lazily, on
      the first outer row that needs it — into key → row buckets cached
      on the executor (``rt.join_tables``, cleared with ``scan_cache``).
      Build rows whose key cannot be hashed or evaluated go to an
      always-probed overflow, and such an outer key probes every row:
      never dropped, never an exception — the residual decides.

    An outer binding that holds a variable named like ``collection`` (a
    subquery seed) shadows the collection, so that row runs the block
    seeded with it: the nested loop.
    """

    subplan: PhysicalOperator
    inner_key: Expr
    outer_key: Expr
    collection: str
    probe: NestedLoopBind | None = None
    child: PhysicalOperator | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_c_inner", compile_expr(self.inner_key))
        object.__setattr__(self, "_c_outer", compile_expr(self.outer_key))

    def run_batches(self, rt, params, seed=None):
        size = batch_size(rt)
        outer_key = self._c_outer
        collection = self.collection
        index = self.probe.access if self.probe is not None and rt.use_indexes else None
        table: _JoinTable | None = None
        rows: list[Binding] = []
        # Counted as it happens: a LIMIT above may never drain this stream.
        seen = {"build_rows": 0, "probes": 0, "index_probes": 0}
        observed = getattr(rt, "observed", None)
        if observed is not None:
            seen = observed.setdefault(id(self), seen)
        out: list[Binding] = []
        append = out.append
        for batch in self._input_batches(rt, params, seed):
            for binding in batch:
                if collection in binding:
                    for chunk in self.subplan.run_batches(rt, params, binding):
                        out.extend(chunk)
                    continue
                try:
                    key = outer_key(rt, binding, params)
                except ExecutionError:
                    key = _NO_KEY
                matches = None
                if index is not None and key is not _NO_KEY:
                    matches = rt.ctx.index_lookup(index.collection, index.field, key)
                if matches is not None:
                    rt.stats["index_lookups"] += 1
                    _count(rt, "join_index_probes")
                    seen["index_probes"] += 1
                    var = self.probe.var
                    for item in matches:
                        extended = dict(binding)
                        extended[var] = item
                        append(extended)
                else:
                    if table is None:
                        table = self._table(rt, params)
                        rows = table[0]
                        seen["build_rows"] = len(rows)
                    seen["probes"] += 1
                    for position in _join_matches(table, key):
                        extended = dict(binding)
                        extended.update(rows[position])
                        append(extended)
                if len(out) >= size:
                    yield out
                    out = []
                    append = out.append
        if out:
            yield out

    def _table(self, rt: Any, params: dict[str, Any]) -> _JoinTable:
        """This query's build of the inner side, made on first use."""
        cache = getattr(rt, "join_tables", None)
        if cache is not None and id(self) in cache:
            return cache[id(self)][1]
        inner_key = self._c_inner
        rows: list[Binding] = []
        buckets: dict[Any, list[int]] = {}
        overflow: list[int] = []
        for batch in self.subplan.run_batches(rt, params):
            for row in batch:
                try:
                    buckets.setdefault(inner_key(rt, row, params), []).append(len(rows))
                except (ExecutionError, TypeError):
                    overflow.append(len(rows))
                rows.append(row)
        _count(rt, "join_builds")
        _count(rt, "join_build_rows", len(rows))
        _count(rt, "join_unhashable_rows", len(overflow))
        table = (rows, buckets, overflow)
        if cache is not None:
            # Pinning the operator keeps its id() from being recycled
            # while the entry lives.
            cache[id(self)] = (self, table)
        return table

    def label(self) -> str:
        how = "hash build"
        if self.probe is not None:
            access = self.probe.access
            how = f"index {access.collection}.{access.field}, else hash build"
        return (
            f"EquiJoin [{render_expr(self.inner_key)} == "
            f"{render_expr(self.outer_key)}] ({how})"
        )


def _join_matches(table: _JoinTable, key: Any) -> Any:
    """Positions of the build rows that may equal *key*, in block order."""
    rows, buckets, overflow = table
    if key is _NO_KEY:
        return range(len(rows))
    try:
        hits = buckets.get(key, ())
    except TypeError:  # unhashable outer key
        return range(len(rows))
    return sorted([*hits, *overflow]) if overflow else hits


@dataclass(frozen=True)
class Filter(PhysicalOperator):
    """FILTER: keep bindings whose predicate is truthy.

    A *speculative* filter is a planner-hoisted copy of a predicate
    whose strict original runs later in the pipeline: it prunes early
    when the predicate evaluates cleanly to false, but an evaluation
    error keeps the binding — the interpreter never evaluated the
    predicate this early, so erroring here would invent failures (the
    strict copy downstream still raises if the binding survives to it).
    """

    condition: Expr
    child: PhysicalOperator | None = None
    speculative: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "_c_condition", compile_expr(self.condition))
        object.__setattr__(
            self, "_k_batch", filter_batch(self._c_condition, self.speculative)
        )

    def run_batches(self, rt, params, seed=None):
        kernel = self._k_batch
        for batch in self._input_batches(rt, params, seed):
            kept = kernel(rt, batch, params)
            if kept:
                yield kept

    def label(self) -> str:
        tag = " (speculative)" if self.speculative else ""
        return f"Filter [{render_expr(self.condition)}]{tag}"


@dataclass(frozen=True)
class Let(PhysicalOperator):
    """LET: extend each binding with a computed value."""

    var: str
    value: Expr
    child: PhysicalOperator | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_c_value", compile_expr(self.value))
        object.__setattr__(self, "_k_batch", let_batch(self.var, self._c_value))

    def run_batches(self, rt, params, seed=None):
        kernel = self._k_batch
        for batch in self._input_batches(rt, params, seed):
            yield kernel(rt, batch, params)

    def label(self) -> str:
        return f"Let {self.var} = {render_expr(self.value)}"


@dataclass(frozen=True)
class Sort(PhysicalOperator):
    """SORT: materialise the stream and sort it (stable)."""

    keys: tuple[SortKey, ...]
    child: PhysicalOperator | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_c_keys", compile_sort_keys(self.keys))

    def run_batches(self, rt, params, seed=None):
        keyfn = self._c_keys
        materialised: list[Binding] = []
        for batch in self._input_batches(rt, params, seed):
            materialised.extend(batch)
        materialised.sort(key=lambda b: keyfn(rt, b, params))
        yield from _chunks(materialised, batch_size(rt))

    def label(self) -> str:
        return f"Sort [{len(self.keys)} keys]"


@dataclass(frozen=True)
class TopK(PhysicalOperator):
    """Fused SORT+LIMIT: bounded heap of the best offset+count bindings.

    Keeps at most k = offset+count candidates, so memory and comparison
    cost scale with k, not with the stream (the full Sort materialises
    everything).  Output order is identical to stable-Sort-then-Limit:
    ties break by arrival order via a sequence number in the heap key.
    """

    keys: tuple[SortKey, ...]
    count: Expr
    offset: Expr | None = None
    child: PhysicalOperator | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_c_keys", compile_sort_keys(self.keys))
        object.__setattr__(self, "_c_count", compile_expr(self.count))
        object.__setattr__(
            self, "_c_offset",
            compile_expr(self.offset) if self.offset is not None else None,
        )

    def run_batches(self, rt, params, seed=None):
        keyfn = self._c_keys
        count, offset = _limit_window(rt, self._c_count, self._c_offset, params)
        k = count + offset
        if k == 0:
            return
        heap: list[_HeapEntry] = []
        seq = 0
        for batch in self._input_batches(rt, params, seed):
            for binding in batch:
                entry = _HeapEntry((keyfn(rt, binding, params), seq), binding)
                seq += 1
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif entry.key < heap[0].key:
                    heapq.heapreplace(heap, entry)
        kept = sorted(heap, key=lambda e: e.key)
        yield from _chunks(
            (entry.binding for entry in kept[offset:]), batch_size(rt)
        )

    def label(self) -> str:
        window = render_expr(self.count)
        if self.offset is not None:
            window = f"{render_expr(self.offset)}, {window}"
        return f"TopK [k={window}, {len(self.keys)} keys] (fused SORT+LIMIT, bounded heap)"


class _HeapEntry:
    """Max-heap adaptor: heapq's min slot holds the *worst* kept entry."""

    __slots__ = ("key", "binding")

    def __init__(self, key: tuple, binding: Binding) -> None:
        self.key = key
        self.binding = binding

    def __lt__(self, other: "_HeapEntry") -> bool:
        return other.key < self.key


@dataclass(frozen=True)
class Limit(PhysicalOperator):
    """LIMIT: skip *offset* bindings, emit at most *count*."""

    count: Expr
    offset: Expr | None = None
    child: PhysicalOperator | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_c_count", compile_expr(self.count))
        object.__setattr__(
            self, "_c_offset",
            compile_expr(self.offset) if self.offset is not None else None,
        )

    def run_batches(self, rt, params, seed=None):
        count, offset = _limit_window(rt, self._c_count, self._c_offset, params)
        if count == 0:
            return
        to_skip = offset
        remaining = count
        # Stop pulling child batches the moment the window is filled —
        # cross-batch laziness is what keeps LIMIT cheap.
        for batch in self._input_batches(rt, params, seed):
            if to_skip:
                if len(batch) <= to_skip:
                    to_skip -= len(batch)
                    continue
                batch = batch[to_skip:]
                to_skip = 0
            if len(batch) >= remaining:
                yield batch[:remaining]
                return
            remaining -= len(batch)
            yield batch

    def label(self) -> str:
        window = render_expr(self.count)
        if self.offset is not None:
            window = f"{render_expr(self.offset)}, {window}"
        return f"Limit [{window}]"


def _limit_window(
    rt: Any, count_ev: CompiledExpr, offset_ev: CompiledExpr | None, params: dict[str, Any]
) -> tuple[int, int]:
    """A LIMIT's (count, offset), evaluated once and bounds-checked."""
    count = count_ev(rt, {}, params)
    offset = offset_ev(rt, {}, params) if offset_ev is not None else 0
    if not isinstance(count, int) or count < 0:
        raise ExecutionError(f"LIMIT count must be a non-negative int, got {count!r}")
    if not isinstance(offset, int) or offset < 0:
        raise ExecutionError(f"LIMIT offset must be a non-negative int, got {offset!r}")
    return count, offset


@dataclass(frozen=True)
class HashAggregate(PhysicalOperator):
    """COLLECT: hash-group the stream, fold :class:`Aggregator` states.

    One operator, three phases of the two-phase aggregation framework:

    ``single``
        The classic plan: group, accumulate each row, finalize at the
        end.  Grouped ``INTO g`` collection only exists here.
    ``partial``
        The shard-local half below a ShardExec gather: group and
        accumulate as usual, but emit :class:`AggPartial` states instead
        of finalized values — one row per *group*, not per input row,
        which is the O(rows) → O(groups) data-movement win.
    ``final``
        The coordinator half above the gather: re-group the partial rows
        on the (already computed) key columns, ``merge`` the shipped
        states, then finalize.  AVG merges its (sum, count) pairs here,
        so the decomposed average is exact.

    Single and final modes emit groups in canonical group-key order
    (see :func:`~repro.query.aggregates.ordered_group_keys`), so COLLECT
    output is deterministic and identical between the single-node plan
    and any shard placement.  Partial mode skips the ordering — its only
    consumer is the final phase's hash re-group, where order is moot.
    """

    clause: CollectClause
    mode: str = "single"  # "single" | "partial" | "final"
    child: PhysicalOperator | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_c_keys",
            tuple((name, compile_expr(expr)) for name, expr in self.clause.keys),
        )
        object.__setattr__(
            self, "_c_args",
            tuple(compile_expr(agg.arg) for agg in self.clause.aggregations),
        )

    def run_batches(self, rt, params, seed=None):
        source = (
            binding
            for batch in self._input_batches(rt, params, seed)
            for binding in batch
        )
        yield from _chunks(self._execute(rt, params, source), batch_size(rt))

    def _execute(self, rt, params, source):
        clause = self.clause
        key_evs = self._c_keys
        arg_evs = self._c_args
        aggs = [(agg, get_aggregator(agg.func)) for agg in clause.aggregations]
        groups: dict[tuple, dict[str, Any]] = {}
        rows_in = 0
        for binding in source:
            rows_in += 1
            key_values = [
                (name, ev(rt, binding, params)) for name, ev in key_evs
            ]
            marker = group_key([value for _, value in key_values])
            group = groups.get(marker)
            if group is None:
                group = {
                    "keys": dict(key_values),
                    "states": [aggregator.init() for _, aggregator in aggs],
                    "members": [],
                }
                groups[marker] = group
            states = group["states"]
            for i, (agg, aggregator) in enumerate(aggs):
                value = arg_evs[i](rt, binding, params)
                if self.mode == "final":
                    states[i] = aggregator.merge(states[i], _unwrap(value, agg.func))
                else:
                    states[i] = aggregator.accumulate(states[i], value)
            if clause.into is not None:
                group["members"].append(dict(binding))
        observed = getattr(rt, "observed", None)
        if observed is not None:
            slot = observed.setdefault(id(self), {"rows_in": 0, "groups": 0})
            slot["rows_in"] += rows_in
            slot["groups"] += len(groups)
        # Partial-mode output feeds a hash re-group at the coordinator,
        # so its order is irrelevant — skip the canonical sort there.
        markers = groups if self.mode == "partial" else ordered_group_keys(groups)
        for marker in markers:
            group = groups[marker]
            out: Binding = dict(group["keys"])
            for (agg, aggregator), state in zip(aggs, group["states"]):
                if self.mode == "partial":
                    out[agg.var] = AggPartial(agg.func, state)
                else:
                    out[agg.var] = aggregator.finalize(state)
            if clause.into is not None:
                out[clause.into] = group["members"]
            yield out

    def label(self) -> str:
        keys = ", ".join(name for name, _ in self.clause.keys)
        return (
            f"HashAggregate({self.mode}) [{keys}] "
            f"({len(self.clause.aggregations)} aggregates)"
        )


def _unwrap(value: Any, func: str) -> Any:
    """The state inside an AggPartial; a loud failure for anything else."""
    if not isinstance(value, AggPartial):
        raise ExecutionError(
            f"HashAggregate(final) expected a partial {func} state, "
            f"got {type(value).__name__}"
        )
    if value.func != func:
        raise ExecutionError(
            f"HashAggregate(final) cannot merge a {value.func} state into {func}"
        )
    return value.state


@dataclass(frozen=True)
class Project(PhysicalOperator):
    """RETURN: map each surviving binding to an output value."""

    returning: ReturnClause
    child: PhysicalOperator | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_c_expr", compile_expr(self.returning.expr))
        object.__setattr__(self, "_k_batch", project_batch(self._c_expr))

    def run_batches(self, rt, params, seed=None):
        kernel = self._k_batch
        if not self.returning.distinct:
            for batch in self._input_batches(rt, params, seed):
                yield kernel(rt, batch, params)
            return
        seen: set[str] = set()
        for batch in self._input_batches(rt, params, seed):
            fresh: list[Any] = []
            for value in kernel(rt, batch, params):
                marker = repr(value)
                if marker not in seen:
                    seen.add(marker)
                    fresh.append(value)
            if fresh:
                yield fresh

    def label(self) -> str:
        distinct = " DISTINCT" if self.returning.distinct else ""
        return f"Project [RETURN{distinct} {render_expr(self.returning.expr)}]"


# ---------------------------------------------------------------------------
# Operator fusion
# ---------------------------------------------------------------------------

_FUSABLE = (NestedLoopBind, Filter, Let, Project)


def _short_label(op: PhysicalOperator) -> str:
    if isinstance(op, NestedLoopBind):
        return f"NestedLoopBind {op.var}"
    if isinstance(op, Let):
        return f"Let {op.var}"
    if isinstance(op, Filter):
        return "Filter"
    return "Project"


@dataclass(frozen=True)
class FusedPipeline(PhysicalOperator):
    """A maximal straight-line chain of bind/filter/let/project operators
    compiled into one per-batch closure chain.

    ``ops`` is in bottom-up (execution) order.  Each constituent becomes
    one small closure calling the next — a continuation chain ending in
    ``out.append`` — so a whole batch flows through the chain in a
    single Python loop with no operator re-entry, no generator hops and
    (for LETs over bindings the chain itself allocated) no intermediate
    dict copies.
    """

    ops: tuple[PhysicalOperator, ...]
    child: PhysicalOperator | None = None

    @property
    def fused_ops(self) -> tuple[PhysicalOperator, ...]:
        return self.ops

    def run_batches(self, rt, params, seed=None):
        size = batch_size(rt)
        out: list[Any] = []
        bottom = self.ops[0]
        if self.child is None and isinstance(bottom, NestedLoopBind):
            # Drive the bottom access path chunk-at-a-time ourselves so
            # a LIMIT above still stops the scan between chunks; the
            # bindings this loop allocates are chain-owned, so LETs
            # downstream may extend them in place.
            step = _build_fused_steps(self.ops[1:], rt, params, out.append, owned=True)
            seed_binding = dict(seed) if seed else {}
            var = bottom.var
            for chunk in bottom.access.batches(rt, seed_binding, params, size):
                for item in chunk:
                    extended = dict(seed_binding)
                    extended[var] = item
                    step(extended)
                if out:
                    yield out[:]
                    del out[:]
            return
        step = _build_fused_steps(self.ops, rt, params, out.append, owned=False)
        for batch in self._input_batches(rt, params, seed):
            for binding in batch:
                step(binding)
            if out:
                yield out[:]
                del out[:]

    def label(self) -> str:
        return "FusedPipeline[" + "→".join(_short_label(op) for op in self.ops) + "]"


def _build_fused_steps(
    ops: tuple[PhysicalOperator, ...],
    rt: Any,
    params: dict[str, Any],
    emit: Callable[[Any], None],
    owned: bool,
) -> Callable[[Any], None]:
    """Compose the continuation chain for one fused run.

    ``owned`` tracks whether bindings reaching a step were allocated
    inside this chain (by a bind, or by a copying LET further down) —
    only then may a LET extend its binding in place instead of copying.
    """
    flags: list[bool] = []
    for op in ops:
        flags.append(owned)
        if isinstance(op, (NestedLoopBind, Let)):
            owned = True
    fn = emit
    for op, owned_here in zip(reversed(ops), reversed(flags)):
        fn = _fused_step(op, rt, params, fn, owned_here)
    return fn


def _fused_step(
    op: PhysicalOperator,
    rt: Any,
    params: dict[str, Any],
    nxt: Callable[[Any], None],
    owned: bool,
) -> Callable[[Any], None]:
    """One closure of the continuation chain for a fusable operator."""
    if isinstance(op, Filter):
        cond = op._c_condition
        if op.speculative:

            def spec_filter_step(binding: Binding) -> None:
                try:
                    keep = bool(cond(rt, binding, params))
                except ExecutionError:
                    keep = True
                if keep:
                    nxt(binding)

            return spec_filter_step

        def filter_step(binding: Binding) -> None:
            if cond(rt, binding, params):
                nxt(binding)

        return filter_step
    if isinstance(op, Let):
        value = op._c_value
        let_var = op.var
        if owned:

            def let_step(binding: Binding) -> None:
                binding[let_var] = value(rt, binding, params)
                nxt(binding)

            return let_step

        def let_copy_step(binding: Binding) -> None:
            computed = value(rt, binding, params)
            extended = dict(binding)
            extended[let_var] = computed
            nxt(extended)

        return let_copy_step
    if isinstance(op, NestedLoopBind):
        access = op.access
        bind_var = op.var
        size = batch_size(rt)

        def bind_step(binding: Binding) -> None:
            for chunk in access.batches(rt, binding, params, size):
                for item in chunk:
                    extended = dict(binding)
                    extended[bind_var] = item
                    nxt(extended)

        return bind_step
    if isinstance(op, Project):
        proj = op._c_expr
        if op.returning.distinct:
            seen: set[str] = set()

            def distinct_step(binding: Binding) -> None:
                value = proj(rt, binding, params)
                marker = repr(value)
                if marker not in seen:
                    seen.add(marker)
                    nxt(value)

            return distinct_step

        def project_step(binding: Binding) -> None:
            nxt(proj(rt, binding, params))

        return project_step
    raise AssertionError(f"unfusable operator {type(op).__name__}")


def fuse_pipelines(
    root: PhysicalOperator | None, notes: list[str] | None = None
) -> PhysicalOperator | None:
    """Collapse maximal straight-line fusable chains into FusedPipeline
    nodes, bottom-up over the child spine.

    Recurses into any ``subplan`` attribute (the cluster gather's
    per-shard pipeline), so it must run AFTER sharding — the sharding
    rewriter pattern-matches the unfused operators.
    """
    if root is None:
        return None
    spine: list[PhysicalOperator] = []
    node: PhysicalOperator | None = root
    while node is not None:
        spine.append(node)
        node = node.child
    pending: list[PhysicalOperator] = []

    def flush(below: PhysicalOperator | None) -> PhysicalOperator | None:
        if len(pending) >= 2:
            fused = FusedPipeline(tuple(pending), below)
            if notes is not None:
                notes.append(f"fused {len(pending)}-operator chain: {fused.label()}")
            below = fused
        elif pending:
            below = replace(pending[0], child=below)
        pending.clear()
        return below

    rebuilt: PhysicalOperator | None = None
    for op in reversed(spine):
        if isinstance(op, _FUSABLE):
            pending.append(op)
            continue
        rebuilt = flush(rebuilt)
        subplan = getattr(op, "subplan", None)
        if subplan is not None:
            op = replace(op, subplan=fuse_pipelines(subplan, notes))
        rebuilt = replace(op, child=rebuilt)
    return flush(rebuilt)


# ---------------------------------------------------------------------------
# Shared runtime helpers
# ---------------------------------------------------------------------------


SortKeyFn = Callable[[Any, Binding, dict], tuple]


def compile_sort_keys(keys: tuple[SortKey, ...]) -> SortKeyFn:
    """One closure computing the full heterogeneous-order sort key."""
    compiled: tuple[tuple[CompiledExpr, bool], ...] = tuple(
        (compile_expr(sk.expr), sk.ascending) for sk in keys
    )

    def keyfn(rt: Any, binding: Binding, params: dict) -> tuple:
        return tuple(
            Orderable(ev(rt, binding, params), ascending)
            for ev, ascending in compiled
        )

    return keyfn


class Orderable:
    """Total order over heterogeneous values: None < bool < number < str < other."""

    __slots__ = ("rank", "value", "ascending")

    def __init__(self, value: Any, ascending: bool) -> None:
        if value is None:
            rank, key = 0, 0
        elif isinstance(value, bool):
            rank, key = 1, int(value)
        elif isinstance(value, (int, float)):
            rank, key = 2, value
        elif isinstance(value, str):
            rank, key = 3, value
        else:
            rank, key = 4, repr(value)
        self.rank = rank
        self.value = key
        self.ascending = ascending

    def __lt__(self, other: "Orderable") -> bool:
        mine = (self.rank, self.value)
        theirs = (other.rank, other.value)
        if self.rank != other.rank:
            less = self.rank < other.rank
        else:
            less = mine < theirs
        return less if self.ascending else not less and mine != theirs

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Orderable)
            and self.rank == other.rank
            and self.value == other.value
        )


# ---------------------------------------------------------------------------
# Tree rendering
# ---------------------------------------------------------------------------


def explain_tree(root: PhysicalOperator) -> list[str]:
    """Indented operator-tree lines, root first (EXPLAIN's body).

    Operators with a ``subplan`` attribute (the cluster layer's
    ShardExec gather) render the subplan as a nested block, one level
    deeper — the per-shard pipeline below the scatter boundary.
    """
    lines: list[str] = []

    def walk(node: PhysicalOperator | None, depth: int) -> None:
        while node is not None:
            lines.append("  " * depth + node.label())
            for op in getattr(node, "fused_ops", ()):
                lines.append("  " * (depth + 1) + "· " + op.label())
            subplan = getattr(node, "subplan", None)
            if subplan is not None:
                walk(subplan, depth + 1)
            node = node.child
            depth += 1

    walk(root, 0)
    return lines
