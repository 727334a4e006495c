"""MMQL planner: logical → physical lowering with a rule-based optimizer.

``plan()`` turns the parsed clause list (the logical plan) into a tree of
physical operators (:mod:`repro.query.physical`) that the executor pulls
bindings through.  The contract:

1. **Predicate pushdown** — every FILTER is split into its AND-conjuncts
   and each cheap conjunct is hoisted (as a speculative copy whose strict
   original stays in place) to the earliest point of its FOR/LET/FILTER
   segment where all its variables are bound — never across SORT, LIMIT
   or COLLECT, which re-shape the stream.
2. **Dead-binding pruning** — LET bindings that no downstream clause or
   RETURN uses are dropped, so their expressions are never evaluated.
3. **Access-path selection** — each ``FOR var IN collection`` gets one of
   three access paths: an equality index probe when an adjacent filter
   has ``var.field == expr`` with *expr* already bound, a sorted-index
   range scan when adjacent filters bound ``var.field`` with ``<`` /
   ``<=`` / ``>`` / ``>=`` (AND-ed intervals combine into one scan), or a
   full collection scan.  Fields may be dotted paths (``address.city``).
   The chosen path is advisory: the executor falls back to a scan when
   the context has no matching index (counted: ``index_fallback_scans``),
   and the original predicates remain as residual filters, so
   over-approximating access paths stay correct.
4. **TopK fusion** — SORT immediately followed by LIMIT becomes a single
   bounded-heap TopK operator instead of a full materialising sort.
5. **Join selection** — a ``FOR x IN collection`` with bindings already
   in scope lowers to one :class:`~repro.query.physical.EquiJoin`
   instead of a nested loop when an equality ties it to them:

   - its equality hint (rule 3) has a key that reads bound variables —
     ``o.customer_id == c.id``.  The FOR alone is the inner side and the
     join probes that index when the context has it; ``IndexEqLookup``
     is left serving only keys evaluable before its FOR (parameters,
     literals), so the same shape never lowers two ways; or
   - the FOR plus the clauses after it that read only the block's own
     variables (unnests like ``FOR it IN o.items``, LETs, filters) form
     an inner block, and a filter among those that follow has a conjunct
     ``inner_expr == outer_expr`` — one side reading only the block, the
     other only the bindings in scope.

   The inner side is always the FOR's block, never the smaller input:
   per outer row the join emits matches in the order the block produces
   them, so the output is row-for-row the nested loop's and LIMIT
   without SORT, DISTINCT and COLLECT INTO see the same stream.  The
   predicate's FILTER stays above the join as the strict residual.  A
   correlated inner FOR, a source that names a bound variable, and
   ``!=``/``<`` predicates keep the nested loop.  Laziness: the hash
   side reads the *whole* inner block on the first outer row, so a
   LIMIT above no longer bounds how much of the inner side is read or
   which of its erroring rows surface — and, as with any access path,
   clauses between the FOR and its predicate see only candidate rows.
6. **Operator fusion** — after sharding, maximal straight-line chains of
   bind/filter/let/project collapse into :class:`FusedPipeline` nodes
   (:func:`repro.query.physical.fuse_pipelines`) whose per-batch closure
   chains drop the remaining per-row operator hops; a join's inner block
   fuses as a plan of its own.

:func:`parameterize` is the prepared-statement half of the plan cache:
it normalises literals into synthetic parameters so literal-differing
query texts share one plan *shape* (and one cached plan), with the bound
literal vector travelling alongside the lookup like statement arguments.

``plan()`` returns an :class:`ExplainedPlan` carrying both the annotated
logical clauses (``.query``, with ``index_hint``/``range_hint`` on each
FOR for introspection) and the physical tree (``.root``);  ``describe()``
renders the physical operator tree with the chosen access paths — the
benchmark's EXPLAIN facility.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.query import physical
from repro.query.ast import (
    Binary,
    Clause,
    CollectClause,
    Expr,
    FieldAccess,
    FilterClause,
    ForClause,
    FunctionCall,
    IndexAccess,
    IndexHint,
    LetClause,
    LimitClause,
    ListExpr,
    Literal,
    ObjectExpr,
    ParamRef,
    Query,
    RangeHint,
    ReturnClause,
    SortClause,
    SortKey,
    Unary,
    VarRef,
    free_variables,
)
from repro.query.physical import (
    AccessPath,
    CollectionScan,
    EquiJoin,
    ExpressionSource,
    Filter,
    HashAggregate,
    IndexEqLookup,
    IndexRangeScan,
    Let,
    Limit,
    NestedLoopBind,
    PhysicalOperator,
    Project,
    Sort,
    TopK,
    field_path,
    fuse_pipelines,
    render_expr,
)


@dataclass(frozen=True)
class ExplainedPlan:
    """A planned query: annotated logical clauses + the physical tree."""

    query: Query
    notes: tuple[str, ...]
    root: PhysicalOperator

    def describe(self, header: str = "plan:") -> str:
        """Render the physical tree; *header* lets EXPLAIN mark cache hits
        (``plan: cached epoch=N``)."""
        lines = [header]
        lines.extend("  " + line for line in physical.explain_tree(self.root))
        if self.notes:
            lines.append("notes:")
            lines.extend(f"  - {note}" for note in self.notes)
        return "\n".join(lines)


def plan(query: Query, catalog: Any = None) -> ExplainedPlan:
    """Optimise *query* and lower it to a physical operator tree.

    *catalog* (a :class:`~repro.cluster.partition.ShardRouter`, or any
    object with ``is_sharded``/``shard_key``/``n_shards``) enables the
    shard-aware phase: the bottom pipeline segment is rewritten into a
    scatter-gather ShardExec with shard-key routing and per-shard
    sort/top-k pushdown.  Without a catalog the plan is single-node and
    byte-identical to previous behaviour.
    """
    notes: list[str] = []
    clauses = _push_down_filters(list(query.clauses), notes)
    clauses = _prune_dead_lets(clauses, query.returning, notes)
    clauses = _select_access_paths(clauses, notes)
    annotated = Query(tuple(clauses), query.returning, query.text)
    root = _lower(annotated, notes)
    if catalog is not None:
        from repro.cluster.planning import apply_sharding

        root = apply_sharding(root, catalog, notes)
    # Fusion runs last: the sharding rewriter above pattern-matches the
    # unfused operator spine, and fusion recurses into its subplans.
    root = fuse_pipelines(root, notes)
    return ExplainedPlan(annotated, tuple(notes), root)


# ---------------------------------------------------------------------------
# Literal parameterization (prepared-statement plan sharing)
# ---------------------------------------------------------------------------

# Synthetic parameter names start with a character the parser rejects in
# @refs, so they can never collide with user-supplied parameters.
SHAPE_PARAM_PREFIX = "%p"


def parameterize(query: Query) -> tuple[Query, dict[str, Any]]:
    """Normalise literals into synthetic parameters (``@%pN``).

    Returns the *shape* query plus the extracted literal vector.  Two
    texts differing only in literals produce value-equal shapes, so the
    plan cache stores one plan and replays it with different binds —
    prepared-statement semantics without a PREPARE step.

    Literals whose value feeds *plan-time* compilation are pinned (kept
    inline) rather than extracted, so queries that genuinely need
    different plans never falsely share one.  Today that is the RHS of
    ``LIKE``: a literal pattern compiles to a cached regex inside the
    plan's closures.  Subquery bodies are left untouched — inner queries
    cache by AST value through the same cache.
    """
    binds: dict[str, Any] = {}

    def fresh(value: Any) -> ParamRef:
        name = f"{SHAPE_PARAM_PREFIX}{len(binds)}"
        binds[name] = value
        return ParamRef(name)

    def rewrite(expr: Expr) -> Expr:
        if isinstance(expr, Literal):
            return fresh(expr.value)
        if isinstance(expr, Binary):
            if expr.op == "LIKE" and isinstance(expr.right, Literal):
                return Binary(expr.op, rewrite(expr.left), expr.right)
            return Binary(expr.op, rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, Unary):
            return Unary(expr.op, rewrite(expr.operand))
        if isinstance(expr, FieldAccess):
            return FieldAccess(rewrite(expr.base), expr.field)
        if isinstance(expr, IndexAccess):
            return IndexAccess(rewrite(expr.base), rewrite(expr.index))
        if isinstance(expr, FunctionCall):
            return FunctionCall(expr.name, tuple(rewrite(a) for a in expr.args))
        if isinstance(expr, ListExpr):
            return ListExpr(tuple(rewrite(item) for item in expr.items))
        if isinstance(expr, ObjectExpr):
            return ObjectExpr(
                tuple((name, rewrite(value)) for name, value in expr.fields)
            )
        # VarRef, ParamRef, Subquery (cached separately by AST value).
        return expr

    def rewrite_clause(clause: Clause) -> Clause:
        if isinstance(clause, ForClause):
            return replace(clause, source=rewrite(clause.source))
        if isinstance(clause, FilterClause):
            return replace(clause, condition=rewrite(clause.condition))
        if isinstance(clause, LetClause):
            return replace(clause, value=rewrite(clause.value))
        if isinstance(clause, SortClause):
            return SortClause(
                tuple(SortKey(rewrite(k.expr), k.ascending) for k in clause.keys)
            )
        if isinstance(clause, LimitClause):
            return LimitClause(
                rewrite(clause.count),
                rewrite(clause.offset) if clause.offset is not None else None,
            )
        if isinstance(clause, CollectClause):
            return CollectClause(
                tuple((name, rewrite(expr)) for name, expr in clause.keys),
                tuple(
                    replace(agg, arg=rewrite(agg.arg))
                    for agg in clause.aggregations
                ),
                clause.into,
            )
        return clause

    shape = Query(
        tuple(rewrite_clause(c) for c in query.clauses),
        replace(query.returning, expr=rewrite(query.returning.expr)),
        query.text,
    )
    return shape, binds


# ---------------------------------------------------------------------------
# Rule 1 — predicate pushdown
# ---------------------------------------------------------------------------


def _push_down_filters(clauses: list[Clause], notes: list[str]) -> list[Clause]:
    """Split FILTERs into conjuncts; hoist each to its earliest safe slot.

    Operates per maximal FOR/LET/FILTER segment — SORT, LIMIT and COLLECT
    are barriers because a filter does not commute with them.  A hoisted
    conjunct is a *speculative copy*: the strict original stays at its
    position, so AND short-circuiting and empty inner FORs still shield
    erroring predicates exactly as the interpreter's evaluation order
    would (the copy prunes on clean false, defers on error), and the
    surviving bindings are provably identical.
    """
    out: list[Clause] = []
    bound: set[str] = set()
    i = 0
    n = len(clauses)
    while i < n:
        clause = clauses[i]
        if isinstance(clause, (SortClause, LimitClause)):
            out.append(clause)
            i += 1
            continue
        if isinstance(clause, CollectClause):
            out.append(clause)
            bound = {name for name, _ in clause.keys}
            bound |= {a.var for a in clause.aggregations}
            if clause.into:
                bound.add(clause.into)
            i += 1
            continue
        segment: list[Clause] = []
        while i < n and isinstance(clauses[i], (ForClause, LetClause, FilterClause)):
            segment.append(clauses[i])
            i += 1
        out.extend(_reorder_segment(segment, bound, notes))
        for c in segment:
            if isinstance(c, (ForClause, LetClause)):
                bound.add(c.var)
    return out


def _reorder_segment(
    segment: list[Clause], bound_before: set[str], notes: list[str]
) -> list[Clause]:
    producers = [c for c in segment if isinstance(c, (ForClause, LetClause))]
    # bound_at[k] = variables available after the first k producers.
    bound_at = [set(bound_before)]
    for producer in producers:
        bound_at.append(bound_at[-1] | {producer.var})
    # slots[k] = filters to run after the first k producers.
    slots: list[list[FilterClause]] = [[] for _ in range(len(producers) + 1)]
    producer_seen = 0
    for clause in segment:
        if isinstance(clause, (ForClause, LetClause)):
            producer_seen += 1
            continue
        assert isinstance(clause, FilterClause)
        for conjunct in _conjuncts(clause.condition):
            needed = free_variables(conjunct)
            slot = producer_seen
            if _is_cheap(conjunct):
                for k in range(producer_seen + 1):
                    if needed <= bound_at[k]:
                        slot = k
                        break
            if slot < producer_seen:
                notes.append(
                    f"pushdown: FILTER {render_expr(conjunct)} hoisted before "
                    f"{type(producers[slot]).__name__.replace('Clause', '').upper()} "
                    f"{producers[slot].var}"
                )
                slots[slot].append(FilterClause(conjunct, speculative=True))
            slots[producer_seen].append(FilterClause(conjunct))
    reordered: list[Clause] = list(slots[0])
    for k, producer in enumerate(producers):
        reordered.append(producer)
        reordered.extend(slots[k + 1])
    return reordered


def _conjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, Binary) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


_CHEAP_OPS = frozenset({"==", "!=", "<", "<=", ">", ">=", "LIKE", "AND", "OR"})


def _is_cheap(expr: Expr) -> bool:
    """True when *expr* is cheap enough to evaluate twice.

    Hoisted conjuncts run speculatively AND again at their original
    position, so hoisting only pays for inexpensive predicates:
    comparisons and boolean logic over literals, parameters and field
    paths.  Function calls, subqueries and arithmetic stay where the
    query wrote them.
    """
    if isinstance(expr, (Literal, VarRef, ParamRef)):
        return True
    if isinstance(expr, FieldAccess):
        return _is_cheap(expr.base)
    if isinstance(expr, Binary):
        return (
            expr.op in _CHEAP_OPS
            and _is_cheap(expr.left)
            and _is_cheap(expr.right)
        )
    if isinstance(expr, Unary):
        return expr.op == "NOT" and _is_cheap(expr.operand)
    return False


# ---------------------------------------------------------------------------
# Rule 2 — dead-binding pruning
# ---------------------------------------------------------------------------


def _prune_dead_lets(
    clauses: list[Clause], returning: ReturnClause, notes: list[str]
) -> list[Clause]:
    """Drop LET clauses whose variable nothing downstream reads.

    A backward liveness pass; COLLECT resets liveness to its own inputs
    (its output bindings carry only keys/aggregates/INTO), and COLLECT
    INTO makes every upstream binding live because the INTO groups embed
    whole bindings.
    """
    keep: list[bool] = [True] * len(clauses)
    live = set(free_variables(returning.expr))
    all_live = False
    for idx in range(len(clauses) - 1, -1, -1):
        clause = clauses[idx]
        if isinstance(clause, SortClause):
            for key in clause.keys:
                live |= free_variables(key.expr)
        elif isinstance(clause, LimitClause):
            live |= free_variables(clause.count)
            if clause.offset is not None:
                live |= free_variables(clause.offset)
        elif isinstance(clause, CollectClause):
            collect_reads: set[str] = set()
            for _, expr in clause.keys:
                collect_reads |= free_variables(expr)
            for agg in clause.aggregations:
                collect_reads |= free_variables(agg.arg)
            live = collect_reads
            all_live = clause.into is not None
        elif isinstance(clause, FilterClause):
            live |= free_variables(clause.condition)
        elif isinstance(clause, ForClause):
            live.discard(clause.var)
            live |= free_variables(clause.source)
        elif isinstance(clause, LetClause):
            if clause.var not in live and not all_live:
                keep[idx] = False
                notes.append(f"pruned unused LET {clause.var}")
                continue
            live.discard(clause.var)
            live |= free_variables(clause.value)
    return [clause for idx, clause in enumerate(clauses) if keep[idx]]


# ---------------------------------------------------------------------------
# Rule 3 — access-path selection
# ---------------------------------------------------------------------------


def _select_access_paths(clauses: list[Clause], notes: list[str]) -> list[Clause]:
    """Annotate each collection FOR with its best index hint, if any."""
    clauses = list(clauses)
    bound: set[str] = set()
    for i, clause in enumerate(clauses):
        if isinstance(clause, ForClause):
            if isinstance(clause.source, VarRef) and clause.source.name not in bound:
                hint = _find_eq_hint(clauses, i, clause, bound)
                if hint is not None:
                    clauses[i] = replace(clause, index_hint=hint)
                    notes.append(
                        f"FOR {clause.var}: candidate index "
                        f"{hint.collection}.{hint.field} (equality)"
                    )
                else:
                    range_hint = _find_range_hint(clauses, i, clause, bound)
                    if range_hint is not None:
                        clauses[i] = replace(clause, range_hint=range_hint)
                        notes.append(
                            f"FOR {clause.var}: candidate range index "
                            f"{range_hint.collection}.{range_hint.field}"
                        )
            bound.add(clause.var)
        elif isinstance(clause, LetClause):
            bound.add(clause.var)
        elif isinstance(clause, CollectClause):
            bound = {name for name, _ in clause.keys}
            bound |= {a.var for a in clause.aggregations}
            if clause.into:
                bound.add(clause.into)
    return clauses


def _lookahead_filters(clauses: list[Clause], for_index: int) -> list[FilterClause]:
    """The FILTERs that still restrict this FOR's scan 1:1.

    Stops at the next clause that re-shapes the stream (another FOR, a
    COLLECT, SORT or LIMIT); LETs are transparent.
    """
    filters: list[FilterClause] = []
    for clause in clauses[for_index + 1 :]:
        if isinstance(clause, FilterClause):
            filters.append(clause)
        elif isinstance(clause, LetClause):
            continue
        else:
            break
    return filters


def _find_eq_hint(
    clauses: list[Clause], for_index: int, for_clause: ForClause, bound: set[str]
) -> IndexHint | None:
    assert isinstance(for_clause.source, VarRef)
    collection = for_clause.source.name
    var = for_clause.var
    for clause in _lookahead_filters(clauses, for_index):
        hint = _equality_on(clause.condition, var, collection, bound)
        if hint is not None:
            return hint
    return None


def _equality_on(
    expr: Expr, var: str, collection: str, bound: set[str]
) -> IndexHint | None:
    """Find ``var.field == key`` (or reversed) inside an AND-tree."""
    if isinstance(expr, Binary) and expr.op == "AND":
        return _equality_on(expr.left, var, collection, bound) or _equality_on(
            expr.right, var, collection, bound
        )
    if not (isinstance(expr, Binary) and expr.op == "=="):
        return None
    for lhs, rhs in ((expr.left, expr.right), (expr.right, expr.left)):
        path = field_path(lhs, var)
        if path is not None and free_variables(rhs) <= bound:
            return IndexHint(collection, path, rhs)
    return None


def _find_range_hint(
    clauses: list[Clause], for_index: int, for_clause: ForClause, bound: set[str]
) -> RangeHint | None:
    """Combine inequality predicates into one interval per field.

    Bounds accumulate across *all* adjacent filters (pushdown has already
    split AND-trees into separate FILTER clauses), so ``x >= 10`` and
    ``x < 50`` merge into a single half-open range scan.  The field whose
    interval is bounded on both sides wins; otherwise the first bounded
    field found.
    """
    assert isinstance(for_clause.source, VarRef)
    collection = for_clause.source.name
    var = for_clause.var
    bounds: dict[str, RangeHint] = {}
    for clause in _lookahead_filters(clauses, for_index):
        _collect_inequalities(clause.condition, var, collection, bound, bounds)
    candidates = [
        hint for hint in bounds.values()
        if hint.low_expr is not None or hint.high_expr is not None
    ]
    if not candidates:
        return None
    for hint in candidates:
        if hint.low_expr is not None and hint.high_expr is not None:
            return hint
    return candidates[0]


def _collect_inequalities(
    expr: Expr, var: str, collection: str, bound: set[str],
    bounds: dict[str, RangeHint],
) -> None:
    if isinstance(expr, Binary) and expr.op == "AND":
        _collect_inequalities(expr.left, var, collection, bound, bounds)
        _collect_inequalities(expr.right, var, collection, bound, bounds)
        return
    if not (isinstance(expr, Binary) and expr.op in ("<", "<=", ">", ">=")):
        return
    for lhs, rhs, op in (
        (expr.left, expr.right, expr.op),
        (expr.right, expr.left, _flip(expr.op)),
    ):
        path = field_path(lhs, var)
        if path is not None and free_variables(rhs) <= bound:
            current = bounds.get(path, RangeHint(collection, path))
            if op in (">", ">="):
                current = replace(current, low_expr=rhs, include_low=(op == ">="))
            else:
                current = replace(current, high_expr=rhs, include_high=(op == "<="))
            bounds[path] = current
            return


def _flip(op: str) -> str:
    return {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


# ---------------------------------------------------------------------------
# Rules 4-5 + lowering — physical operator tree (TopK fusion, join selection)
# ---------------------------------------------------------------------------


def _lower(query: Query, notes: list[str]) -> PhysicalOperator:
    return Project(query.returning, _lower_clauses(query.clauses, notes))


def _lower_clauses(
    clauses: tuple[Clause, ...], notes: list[str]
) -> PhysicalOperator | None:
    node: PhysicalOperator | None = None
    bound: set[str] = set()
    i = 0
    while i < len(clauses):
        clause = clauses[i]
        if isinstance(clause, ForClause):
            join = _join_block(clauses, i, bound)
            if join is not None:
                # The inner block lowers as a plan of its own: nothing is
                # bound where it runs, so outer-keyed hints drop out.
                size, inner_key, outer_key, probe = join
                node = EquiJoin(
                    subplan=_lower_clauses(clauses[i : i + size], notes),
                    inner_key=inner_key,
                    outer_key=outer_key,
                    collection=clause.source.name,
                    probe=probe,
                    child=node,
                )
                notes.append(f"FOR {clause.var}: {node.label()}")
                bound.update(
                    c.var for c in clauses[i : i + size]
                    if isinstance(c, (ForClause, LetClause))
                )
                i += size
                continue
            node = NestedLoopBind(clause.var, _access_path(clause, bound), node)
            bound.add(clause.var)
        elif isinstance(clause, FilterClause):
            node = Filter(clause.condition, node, clause.speculative)
        elif isinstance(clause, LetClause):
            node = Let(clause.var, clause.value, node)
            bound.add(clause.var)
        elif isinstance(clause, SortClause):
            nxt = clauses[i + 1] if i + 1 < len(clauses) else None
            if isinstance(nxt, LimitClause):
                node = TopK(clause.keys, nxt.count, nxt.offset, node)
                notes.append("fused SORT+LIMIT into bounded-heap TopK")
                i += 2
                continue
            node = Sort(clause.keys, node)
        elif isinstance(clause, LimitClause):
            node = Limit(clause.count, clause.offset, node)
        elif isinstance(clause, CollectClause):
            # Single-phase lowering; the cluster rewrite may later split
            # this into partial (below the gather) + final (above it).
            node = HashAggregate(clause, child=node)
            bound = {name for name, _ in clause.keys}
            bound |= {a.var for a in clause.aggregations}
            if clause.into:
                bound.add(clause.into)
        else:
            raise AssertionError(f"unknown clause {type(clause).__name__}")
        i += 1
    return node


def _join_block(
    clauses: tuple[Clause, ...], i: int, bound: set[str]
) -> tuple[int, Expr, Expr, NestedLoopBind | None] | None:
    """Contract rule 5: ``(block size, inner key, outer key, index probe)``
    when ``clauses[i]`` starts the inner side of an equi-join, else None."""
    clause = clauses[i]
    source = clause.source
    if not bound or not isinstance(source, VarRef) or source.name in bound:
        return None
    hint = clause.index_hint
    if hint is not None and free_variables(hint.key_expr):
        # What used to be a correlated IndexEqLookup: the FOR alone is
        # the inner side, so the join can probe the same index.
        inner_key: Expr = VarRef(clause.var)
        for part in hint.field.split("."):
            inner_key = FieldAccess(inner_key, part)
        probe = NestedLoopBind(
            clause.var, IndexEqLookup(hint.collection, hint.field, hint.key_expr)
        )
        return 1, inner_key, hint.key_expr, probe
    inner = {clause.var}
    j = i + 1
    while j < len(clauses):
        c = clauses[j]
        if isinstance(c, ForClause):
            reads = free_variables(c.source)  # an unnest of the block's own rows
        elif isinstance(c, LetClause):
            reads = free_variables(c.value)
        elif isinstance(c, FilterClause):
            reads = free_variables(c.condition)
        else:
            break
        if not reads <= inner or (isinstance(c, ForClause) and not reads):
            break
        if not isinstance(c, FilterClause):
            inner.add(c.var)
        j += 1
    for filt in _lookahead_filters(clauses, j - 1):
        for conjunct in _conjuncts(filt.condition):
            if not (isinstance(conjunct, Binary) and conjunct.op == "=="):
                continue
            for lhs, rhs in (
                (conjunct.left, conjunct.right), (conjunct.right, conjunct.left)
            ):
                inner_reads, outer_reads = free_variables(lhs), free_variables(rhs)
                if inner_reads and outer_reads and inner_reads <= inner and outer_reads <= bound:
                    return j - i, lhs, rhs, None
    return None


def _access_path(clause: ForClause, bound: set[str]) -> AccessPath:
    source = clause.source
    if isinstance(source, VarRef) and source.name in bound:
        return ExpressionSource(source, is_var=True)
    if isinstance(source, VarRef):
        # A hint is usable only where its keys can be evaluated: on the
        # inner side of a join nothing outside the block is bound.
        hint = clause.index_hint
        if hint is not None and free_variables(hint.key_expr) <= bound:
            return IndexEqLookup(hint.collection, hint.field, hint.key_expr)
        rh = clause.range_hint
        if rh is not None and all(
            free_variables(e) <= bound
            for e in (rh.low_expr, rh.high_expr) if e is not None
        ):
            return IndexRangeScan(
                rh.collection, rh.field,
                rh.low_expr, rh.high_expr, rh.include_low, rh.include_high,
            )
        return CollectionScan(source.name)
    return ExpressionSource(source)
