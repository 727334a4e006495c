"""Shard-aware planning: rewrite a physical plan for scatter-gather.

``apply_sharding`` runs as the last optimizer phase when ``plan()`` is
given a catalog (a :class:`~repro.cluster.partition.ShardRouter`).  It
rewrites the *bottom* of the operator chain — the first FOR's
NestedLoopBind over a sharded collection plus the maximal shard-safe
segment above it — into a single :class:`~repro.cluster.operators.ShardExec`
whose subplan runs per shard:

- **Routing** — an equality predicate on the collection's shard key
  (with a parameter/literal key) pins the subplan to one shard; range
  bounds on the shard key let a range partitioner prune shards.
- **Pushdown below the gather** — Filters/LETs whose expressions are
  pure and row-local (:func:`shard_safe`: field paths, operators,
  arithmetic, ``IN``, object/list literals and builtins that read only
  their arguments, XPATH included) run inside the shard workers, so a
  per-row computation such as an XPath total is evaluated where the
  data lives and only the rows that survive cross the gather; bridges
  and subqueries stay above it.  A SORT becomes per-shard sort + ordered
  merge (a parallel MergeSort); a fused TopK becomes per-shard partial
  top-(offset+count) + ordered merge + a global LIMIT; a bare LIMIT
  becomes a per-shard limit + global re-limit.
- **Two-phase aggregation** — a COLLECT whose keys and aggregate
  arguments are shard-safe (and which has no ``INTO`` group collection)
  splits into a per-shard ``HashAggregate(partial)`` below the gather
  plus a coordinator-side ``HashAggregate(final)`` that re-groups the
  shipped states and merges them (AVG merges exact ``(sum, count)``
  pairs).  Only partial group states cross the gather: the dominant
  cross-shard data movement for grouped queries drops from O(matching
  rows) to O(groups).  Grouped ``INTO`` stays single-phase above the
  gather — its member lists cannot decompose — and a plan already
  routed to one shard skips the split, since there is nothing to merge.

Everything above the gather still runs single-threaded against the
:class:`~repro.cluster.sharded.ShardedQueryContext`, which implements
the full QueryContext protocol — so joins, COLLECT, subqueries and
builtin bridges (DOCUMENT, KVGET, TRAVERSE...) are always correct even
when they cannot be parallelised.  A bridge must stay there: inside a
shard worker its ``ctx`` is that one shard's context, which would see
only a slice of the collection it reads.

**Serializability contract**: the subplan handed to ShardExec must be
a pure tree of physical operators over AST expressions — no captured
contexts, no open snapshots, no references above the gather.  The
:func:`shard_safe` pushdown predicate enforces this (no subqueries, no
bridges: nothing below the gather reads beyond its own row), which is
what lets the process pool (``repro.cluster.remote``) pickle the
subplan and ship it to shard worker processes byte-for-byte, and what
keeps worker threads off shared state: the compiled closures are
plan-time derivatives, dropped by ``__getstate__`` and rebuilt by
``__post_init__`` on the worker.  Anything unpicklable falls back to
the in-process thread scatter at dispatch time, never to a wrong
answer.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.cluster.operators import ShardExec
from repro.query.aggregates import DECOMPOSABLE
from repro.query.ast import (
    Aggregation,
    Binary,
    CollectClause,
    Expr,
    FunctionCall,
    Subquery,
    VarRef,
    free_variables,
    walk_expr,
)
from repro.query.functions import is_bridge, is_builtin
from repro.query.physical import (
    ExpressionSource,
    Filter,
    HashAggregate,
    IndexEqLookup,
    IndexRangeScan,
    Let,
    Limit,
    NestedLoopBind,
    PhysicalOperator,
    Sort,
    TopK,
    field_path,
    render_expr,
)


def apply_sharding(
    root: PhysicalOperator, catalog: Any, notes: list[str]
) -> PhysicalOperator:
    """Rewrite *root* with a ShardExec gather when the bottom FOR is sharded."""
    chain: list[PhysicalOperator] = []
    node: PhysicalOperator | None = root
    while node is not None:
        chain.append(node)
        node = node.child
    bottom = chain[-1]
    if not isinstance(bottom, NestedLoopBind):
        return root
    collection = getattr(bottom.access, "collection", None)
    if collection is None or not catalog.is_sharded(collection):
        return root
    shard_key = catalog.shard_key(collection)

    # -- shard-safe segment: bottom bind + pure Filters/LETs/inner FORs -----
    segment: list[PhysicalOperator] = [bottom]  # bottom-first
    idx = len(chain) - 2
    while idx >= 0:
        op = chain[idx]
        if isinstance(op, Filter) and shard_safe(op.condition):
            segment.append(op)
        elif isinstance(op, Let) and shard_safe(op.value):
            segment.append(op)
        elif (
            isinstance(op, NestedLoopBind)
            and isinstance(op.access, ExpressionSource)
            and not op.access.is_var
            and shard_safe(op.access.source)
        ):
            segment.append(op)  # e.g. FOR it IN o.items
        else:
            break
        idx -= 1

    route_field, route_expr = _find_route(bottom, segment, shard_key)
    range_field = range_low = range_high = None
    if route_expr is None and shard_key is not None:
        access = bottom.access
        if isinstance(access, IndexRangeScan) and access.field == shard_key:
            if _param_only(access.low_expr) and _param_only(access.high_expr):
                range_field = shard_key
                range_low, range_high = access.low_expr, access.high_expr

    subplan: PhysicalOperator | None = None
    for op in segment:
        subplan = replace(op, child=subplan)

    # -- split COLLECT into partial below / final above the gather ----------
    merge_keys: tuple = ()
    wrapper: PhysicalOperator | None = None
    final_agg: PhysicalOperator | None = None
    if idx >= 0 and route_expr is None and _splittable(chain[idx]):
        op = chain[idx]
        assert isinstance(op, HashAggregate)
        subplan = replace(op, mode="partial", child=subplan)
        final_agg = HashAggregate(_final_clause(op.clause), mode="final")
        notes.append(
            "sharding: COLLECT split into per-shard HashAggregate(partial) "
            "below the gather + HashAggregate(final) merging group states"
        )
        idx -= 1

    # -- push SORT / TopK / LIMIT below the gather --------------------------
    if final_agg is None and idx >= 0:
        op = chain[idx]
        if isinstance(op, TopK) and all(shard_safe(k.expr) for k in op.keys):
            subplan = TopK(op.keys, _window(op.count, op.offset), None, subplan)
            merge_keys = op.keys
            wrapper = Limit(op.count, op.offset, None)
            notes.append(
                "sharding: TopK split into per-shard partial top-k "
                "+ ordered merge + global LIMIT"
            )
            idx -= 1
        elif isinstance(op, Sort) and all(shard_safe(k.expr) for k in op.keys):
            subplan = Sort(op.keys, subplan)
            merge_keys = op.keys
            notes.append("sharding: SORT parallelised into per-shard sort + ordered merge")
            idx -= 1
        elif isinstance(op, Limit):
            subplan = Limit(_window(op.count, op.offset), None, subplan)
            wrapper = Limit(op.count, op.offset, None)
            notes.append("sharding: LIMIT pushed below the gather (per-shard prefix)")
            idx -= 1

    gather: PhysicalOperator = ShardExec(
        subplan=subplan,
        collection=collection,
        n_shards=catalog.n_shards,
        merge_keys=tuple(merge_keys),
        route_field=route_field,
        route_expr=route_expr,
        range_field=range_field,
        range_low=range_low,
        range_high=range_high,
    )
    if route_expr is not None:
        notes.append(
            f"sharding: shard-key equality {collection}.{route_field} == "
            f"{render_expr(route_expr)} routed to a single shard"
        )
    elif range_field is not None:
        notes.append(
            f"sharding: range bounds on {collection}.{range_field} "
            "prune shards at run time"
        )
    else:
        notes.append(
            f"sharding: scatter-gather over {catalog.n_shards} shards "
            f"for {collection}"
        )
    if final_agg is not None:
        gather = replace(final_agg, child=gather)
    if wrapper is not None:
        gather = replace(wrapper, child=gather)
    for j in range(idx, -1, -1):
        gather = replace(chain[j], child=gather)
    return gather


def shard_safe(expr: Expr) -> bool:
    """True when *expr* may be evaluated inside a shard worker.

    Accepts every pure, row-local expression: literals, parameters,
    variables, field and index access, all unary and binary operators
    (arithmetic and ``IN`` included), object and list literals, and
    calls to builtins that read only their arguments.  Rejects
    subqueries and bridge builtins (``functions.is_bridge``), which
    read other collections through ``ctx`` — in a worker that is one
    shard's context — and calls to unknown functions, whose error is
    raised above the gather.
    """
    for node in walk_expr(expr):
        if isinstance(node, Subquery):
            return False
        if isinstance(node, FunctionCall) and (
            is_bridge(node.name) or not is_builtin(node.name)
        ):
            return False
    return True


def _splittable(op: PhysicalOperator) -> bool:
    """Can this COLLECT run as partial-per-shard + final-at-coordinator?

    Requires a single-phase HashAggregate whose key and aggregate
    expressions are shard-safe (pure and row-local), whose
    functions all decompose (their ``merge`` is exact over any input
    partitioning), and which collects no ``INTO`` member lists — those
    embed whole bindings and cannot merge from partial states.
    """
    if not isinstance(op, HashAggregate) or op.mode != "single":
        return False
    clause = op.clause
    return (
        clause.into is None
        and all(agg.func in DECOMPOSABLE for agg in clause.aggregations)
        and all(shard_safe(expr) for _, expr in clause.keys)
        and all(shard_safe(agg.arg) for agg in clause.aggregations)
    )


def _final_clause(clause: CollectClause) -> CollectClause:
    """The coordinator-side clause: re-group partial rows by name.

    Partial rows already carry the computed key columns and the wrapped
    aggregate states under their output names, so the final phase reads
    plain variables — no re-evaluation of the original expressions.
    """
    return CollectClause(
        keys=tuple((name, VarRef(name)) for name, _ in clause.keys),
        aggregations=tuple(
            Aggregation(agg.var, agg.func, VarRef(agg.var))
            for agg in clause.aggregations
        ),
    )


def _window(count: Expr, offset: Expr | None) -> Expr:
    """The per-shard keep window: offset + count (offset may be None)."""
    return count if offset is None else Binary("+", count, offset)


def _param_only(expr: Expr | None) -> bool:
    """True when *expr* is evaluable before any binding exists (or absent)."""
    return expr is None or not free_variables(expr)


def _find_route(
    bottom: NestedLoopBind, segment: list[PhysicalOperator], shard_key: str | None
) -> tuple[str | None, Expr | None]:
    """An equality on the shard key that pins the bottom FOR to one shard."""
    if shard_key is None:
        return None, None
    access = bottom.access
    if (
        isinstance(access, IndexEqLookup)
        and access.field == shard_key
        and _param_only(access.key_expr)
    ):
        return shard_key, access.key_expr
    for op in segment:
        if isinstance(op, Filter) and not op.speculative:
            key_expr = _equality_key(op.condition, bottom.var, shard_key)
            if key_expr is not None:
                return shard_key, key_expr
    return None, None


def _equality_key(expr: Expr, var: str, shard_key: str) -> Expr | None:
    """Find ``var.<shard_key> == key`` (or reversed) inside an AND-tree."""
    if isinstance(expr, Binary) and expr.op == "AND":
        return _equality_key(expr.left, var, shard_key) or _equality_key(
            expr.right, var, shard_key
        )
    if not (isinstance(expr, Binary) and expr.op == "=="):
        return None
    for lhs, rhs in ((expr.left, expr.right), (expr.right, expr.left)):
        if field_path(lhs, var) == shard_key and _param_only(rhs):
            return rhs
    return None
