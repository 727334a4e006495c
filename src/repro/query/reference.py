"""Reference MMQL interpreter: the parsed query, one clause at a time.

The differential oracle the engine is tested against; no driver,
executor or shard worker imports it.  Every clause is a lazy generator
over the bindings of the clause before, every expression a recursive
walk of its AST (:func:`eval_expr`).  It shares with the engine only
what fixes the language's meaning — the parser, the builtins,
:func:`~repro.query.compile.arith` and
:func:`~repro.query.compile.like_match`, SORT's
:class:`~repro.query.physical.Orderable`, the aggregators and group keys
of :mod:`repro.query.aggregates`, and the result copier — and nothing
from the planner, the physical operators, the compiled closures or the
plan cache.  It ignores indexes: every collection FOR scans
``ctx.iter_collection``.

A comparison with the engine must allow for what a plan may change:

- **order** — without a SORT, rows come in scan order here, while the
  engine's index access paths and shard gathers may produce another
  (single-node ``use_indexes=False`` scans in this order too);
- **errors on rows the plan never evaluates** — the engine drops unused
  LETs, reads a batch (and a hash join's whole inner block) ahead of a
  LIMIT, and shows the clauses between an indexed FOR and its FILTER
  only candidate rows.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Iterator

from repro.errors import ExecutionError, PlanError
from repro.query import functions
from repro.query.aggregates import get_aggregator, group_key, ordered_group_keys
from repro.query.ast import (
    Binary,
    CollectClause,
    Expr,
    FieldAccess,
    FilterClause,
    ForClause,
    FunctionCall,
    IndexAccess,
    LetClause,
    LimitClause,
    ListExpr,
    Literal,
    ObjectExpr,
    ParamRef,
    Query,
    SortClause,
    Subquery,
    Unary,
    VarRef,
)
from repro.query.compile import arith, like_match
from repro.query.executor import _copy_result
from repro.query.parser import parse
from repro.query.physical import Orderable

Binding = dict[str, Any]
Bindings = Iterator[Binding]
Params = dict[str, Any]


def execute(ctx: Any, query: Query | str, params: Params | None = None) -> list[Any]:
    """Run *query* against *ctx*; the result rows are the caller's copies."""
    if isinstance(query, str):
        query = parse(query)
    rows = _run(ctx, query, dict(params) if params else {}, {})
    return [_copy_result(row) for row in rows]


def _run(ctx: Any, query: Query, params: Params, seed: Binding) -> list[Any]:
    """The RETURN values of *query*, its bindings seeded with *seed*."""
    bindings: Bindings = iter([dict(seed)])
    for clause in query.clauses:
        apply = _CLAUSES.get(type(clause))
        if apply is None:
            raise PlanError(f"unknown clause {type(clause).__name__}")
        bindings = apply(ctx, clause, bindings, params)
    out: list[Any] = []
    seen: set[str] = set()
    for binding in bindings:
        value = eval_expr(query.returning.expr, binding, params, ctx)
        if query.returning.distinct:
            marker = repr(value)
            if marker in seen:
                continue
            seen.add(marker)
        out.append(value)
    return out


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------


def _for(ctx: Any, clause: ForClause, bindings: Bindings, params: Params) -> Bindings:
    for binding in bindings:
        for item in _for_items(ctx, clause.source, binding, params):
            out = dict(binding)
            out[clause.var] = item
            yield out


def _for_items(ctx: Any, source: Expr, binding: Binding, params: Params) -> Any:
    if isinstance(source, VarRef):
        if source.name not in binding:
            return ctx.iter_collection(source.name)
        # A bound variable holding a list shadows any collection name.
        value = binding[source.name]
        if not isinstance(value, list):
            raise ExecutionError(
                f"FOR over variable {source.name!r} requires a list, "
                f"got {type(value).__name__}"
            )
        return value
    value = eval_expr(source, binding, params, ctx)
    if value is None:
        return ()
    if not isinstance(value, list):
        raise ExecutionError(
            f"FOR source must evaluate to a list, got {type(value).__name__}"
        )
    return value


def _filter(ctx: Any, clause: FilterClause, bindings: Bindings, params: Params) -> Bindings:
    for binding in bindings:
        if eval_expr(clause.condition, binding, params, ctx):
            yield binding


def _let(ctx: Any, clause: LetClause, bindings: Bindings, params: Params) -> Bindings:
    for binding in bindings:
        out = dict(binding)
        out[clause.var] = eval_expr(clause.value, binding, params, ctx)
        yield out


def _sort(ctx: Any, clause: SortClause, bindings: Bindings, params: Params) -> Bindings:
    def key(binding: Binding) -> tuple:
        return tuple(
            Orderable(eval_expr(sk.expr, binding, params, ctx), sk.ascending)
            for sk in clause.keys
        )

    yield from sorted(bindings, key=key)


def _limit(ctx: Any, clause: LimitClause, bindings: Bindings, params: Params) -> Bindings:
    count = eval_expr(clause.count, {}, params, ctx)
    offset = 0 if clause.offset is None else eval_expr(clause.offset, {}, params, ctx)
    if not isinstance(count, int) or count < 0:
        raise ExecutionError(f"LIMIT count must be a non-negative int, got {count!r}")
    if not isinstance(offset, int) or offset < 0:
        raise ExecutionError(f"LIMIT offset must be a non-negative int, got {offset!r}")
    if count:
        yield from islice(bindings, offset, offset + count)


def _collect(ctx: Any, clause: CollectClause, bindings: Bindings, params: Params) -> Bindings:
    aggregators = [get_aggregator(agg.func) for agg in clause.aggregations]
    groups: dict[tuple, tuple[Binding, list[Any], list[Binding]]] = {}
    for binding in bindings:
        keys = [(name, eval_expr(expr, binding, params, ctx)) for name, expr in clause.keys]
        marker = group_key([value for _, value in keys])
        if marker not in groups:
            groups[marker] = (dict(keys), [agg.init() for agg in aggregators], [])
        _, states, members = groups[marker]
        for i, (agg, aggregator) in enumerate(zip(clause.aggregations, aggregators)):
            states[i] = aggregator.accumulate(states[i], eval_expr(agg.arg, binding, params, ctx))
        if clause.into is not None:
            members.append(dict(binding))
    for marker in ordered_group_keys(groups):
        keys, states, members = groups[marker]
        out = dict(keys)
        for agg, aggregator, state in zip(clause.aggregations, aggregators, states):
            out[agg.var] = aggregator.finalize(state)
        if clause.into is not None:
            out[clause.into] = members
        yield out


_CLAUSES = {
    ForClause: _for,
    FilterClause: _filter,
    LetClause: _let,
    SortClause: _sort,
    LimitClause: _limit,
    CollectClause: _collect,
}


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def eval_expr(expr: Expr, binding: Binding, params: Params, ctx: Any = None) -> Any:
    """The value of *expr* under *binding*: a recursive walk of the AST."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, VarRef):
        if expr.name not in binding:
            raise ExecutionError(f"unbound variable {expr.name!r}")
        return binding[expr.name]
    if isinstance(expr, ParamRef):
        if expr.name not in params:
            raise ExecutionError(f"missing query parameter @{expr.name}")
        return params[expr.name]
    if isinstance(expr, FieldAccess):
        base = eval_expr(expr.base, binding, params, ctx)
        if base is None:
            return None
        if isinstance(base, dict):
            return base.get(expr.field)
        raise ExecutionError(f"field access .{expr.field} on {type(base).__name__}")
    if isinstance(expr, IndexAccess):
        base = eval_expr(expr.base, binding, params, ctx)
        index = eval_expr(expr.index, binding, params, ctx)
        if base is None:
            return None
        if isinstance(base, list):
            if not isinstance(index, int):
                raise ExecutionError("list index must be an int")
            if -len(base) <= index < len(base):
                return base[index]
            return None
        if isinstance(base, dict):
            return base.get(index)
        raise ExecutionError(f"indexing into {type(base).__name__}")
    if isinstance(expr, Binary):
        return _eval_binary(expr, binding, params, ctx)
    if isinstance(expr, Unary):
        value = eval_expr(expr.operand, binding, params, ctx)
        if expr.op == "NOT":
            return not value
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"unary '-' on {type(value).__name__}")
        return -value
    if isinstance(expr, FunctionCall):
        args = [eval_expr(arg, binding, params, ctx) for arg in expr.args]
        return functions.call_builtin(expr.name, ctx, args)
    if isinstance(expr, ObjectExpr):
        return {name: eval_expr(value, binding, params, ctx) for name, value in expr.fields}
    if isinstance(expr, ListExpr):
        return [eval_expr(item, binding, params, ctx) for item in expr.items]
    if isinstance(expr, Subquery):
        return _run(ctx, expr.query, params, binding)
    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def _eval_binary(expr: Binary, binding: Binding, params: Params, ctx: Any) -> Any:
    op = expr.op
    if op == "AND":
        return bool(eval_expr(expr.left, binding, params, ctx)) and bool(
            eval_expr(expr.right, binding, params, ctx)
        )
    if op == "OR":
        return bool(eval_expr(expr.left, binding, params, ctx)) or bool(
            eval_expr(expr.right, binding, params, ctx)
        )
    left = eval_expr(expr.left, binding, params, ctx)
    right = eval_expr(expr.right, binding, params, ctx)
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op in ("<", "<=", ">", ">="):
        if left is None or right is None:
            return False
        try:
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            return left >= right
        except TypeError:
            return False
    if op == "IN":
        if right is None:
            return False
        if isinstance(right, (list, str, dict)):
            return left in right
        raise ExecutionError(f"IN requires a list/string, got {type(right).__name__}")
    if op == "LIKE":
        return like_match(left, right)
    if op in ("+", "-", "*", "/", "%"):
        return arith(op, left, right)
    raise ExecutionError(f"unknown operator {op!r}")
