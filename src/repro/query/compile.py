"""Closure compilation of MMQL expressions: the hot-path evaluator.

:func:`compile_expr` walks an expression AST exactly **once** and
returns a nested-closure evaluator ``(rt, binding, params) -> value``.
Every decision the reference interpreter
(:func:`repro.query.reference.eval_expr`) re-makes per row —
"which node type is this?", "which binary operator?", "which builtin?"
— is made here at plan time and baked into the closure:

- ``Literal`` becomes a constant closure;
- ``VarRef``/``ParamRef`` become direct dict lookups;
- ``Binary`` dispatches to a pre-selected operator closure (comparisons
  pick their ``operator`` function, AND/OR keep short-circuiting over
  the compiled operands, a literal LIKE pattern compiles its regex
  once);
- ``FieldAccess``/``IndexAccess``/``FunctionCall``/``ObjectExpr``/
  ``ListExpr`` close over their compiled children, with builtins
  resolved from the registry at compile time;
- ``Subquery`` defers to ``rt.run_subquery`` so sub-pipelines share the
  executor's plan cache.

The physical operators compile their expressions when the plan is
built (see the ``__post_init__`` hooks in :mod:`repro.query.physical`)
and evaluate them no other way; the reference interpreter is the
differential-test oracle the closures are checked against
(``tests/query/test_compile_parity``).

Shared runtime helpers (:func:`arith`, :func:`like_match`) live here so
both evaluators agree on operator semantics by construction.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Any, Callable

from repro.errors import ExecutionError, UnknownFunctionError
from repro.query import functions
from repro.query.ast import (
    Binary,
    Expr,
    FieldAccess,
    FunctionCall,
    IndexAccess,
    ListExpr,
    Literal,
    ObjectExpr,
    ParamRef,
    Subquery,
    Unary,
    VarRef,
)

Binding = dict[str, Any]

# A compiled expression: call it with the running executor (duck-typed
# as ``rt``), the current binding, and the query parameters.
CompiledExpr = Callable[[Any, Binding, dict[str, Any]], Any]


# ---------------------------------------------------------------------------
# Batch kernels (the vectorized operator bodies)
# ---------------------------------------------------------------------------

# A batch kernel maps one batch of bindings to its output batch in a
# single Python-level loop — no per-row operator re-entry.  The physical
# operators build these once at plan time from their compiled closures.
BatchKernel = Callable[[Any, list[Binding], dict[str, Any]], list[Any]]


def filter_batch(cond: CompiledExpr, speculative: bool = False) -> BatchKernel:
    """Keep the bindings of a batch whose predicate is truthy.

    Speculative filters defer evaluation errors (the strict original
    downstream still raises), mirroring :class:`physical.Filter`.
    """
    if speculative:

        def kernel_spec(rt: Any, batch: list[Binding], params: dict[str, Any]) -> list[Any]:
            out: list[Binding] = []
            append = out.append
            for binding in batch:
                try:
                    keep = bool(cond(rt, binding, params))
                except ExecutionError:
                    keep = True
                if keep:
                    append(binding)
            return out

        return kernel_spec

    def kernel(rt: Any, batch: list[Binding], params: dict[str, Any]) -> list[Any]:
        return [binding for binding in batch if cond(rt, binding, params)]

    return kernel


def let_batch(var: str, value: CompiledExpr) -> BatchKernel:
    """Extend every binding of a batch with ``var`` = *value*."""

    def kernel(rt: Any, batch: list[Binding], params: dict[str, Any]) -> list[Any]:
        out: list[Binding] = []
        append = out.append
        for binding in batch:
            computed = value(rt, binding, params)
            extended = dict(binding)
            extended[var] = computed
            append(extended)
        return out

    return kernel


def project_batch(expr: CompiledExpr) -> BatchKernel:
    """Map a batch of bindings to their RETURN values (no DISTINCT —
    cross-batch dedup state lives in the operator)."""

    def kernel(rt: Any, batch: list[Binding], params: dict[str, Any]) -> list[Any]:
        return [expr(rt, binding, params) for binding in batch]

    return kernel


# ---------------------------------------------------------------------------
# Shared operator semantics (used by both evaluators)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def like_regex(pattern: str) -> "re.Pattern[str]":
    """The compiled regex for one LIKE pattern (``%`` any run, ``_`` one char).

    Everything else matches literally; the whole subject must match
    (SQL LIKE semantics, no implicit substring search).  Cached so a
    parameter-driven pattern still compiles once per distinct value.
    """
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts), re.DOTALL)


def like_match(subject: Any, pattern: Any) -> bool:
    """``subject LIKE pattern`` — NULL on either side is False."""
    if subject is None or pattern is None:
        return False
    return like_regex(str(pattern)).fullmatch(str(subject)) is not None


def arith(op: str, left: Any, right: Any) -> Any:
    """MMQL arithmetic: string/list ``+`` concatenation, NULL propagation."""
    if op == "+" and isinstance(left, str) and isinstance(right, str):
        return left + right
    if op == "+" and isinstance(left, list) and isinstance(right, list):
        return left + right
    if left is None or right is None:
        return None
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise ExecutionError(
            f"arithmetic {op} on {type(left).__name__} and {type(right).__name__}"
        )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        return left / right
    if op == "%":
        if right == 0:
            raise ExecutionError("modulo by zero")
        return left % right
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


# ---------------------------------------------------------------------------
# Node compilers
# ---------------------------------------------------------------------------


def compile_expr(expr: Expr) -> CompiledExpr:
    """Compile *expr* into a nested-closure evaluator.

    The result is pure plan-time state: safe to share across queries,
    bindings and shard-worker threads (closures capture only immutable
    AST fragments and pre-resolved callables).
    """
    if isinstance(expr, Literal):
        value = expr.value

        def ev_literal(rt: Any, binding: Binding, params: dict[str, Any]) -> Any:
            return value

        return ev_literal
    if isinstance(expr, VarRef):
        return _compile_varref(expr.name)
    if isinstance(expr, ParamRef):
        return _compile_paramref(expr.name)
    if isinstance(expr, FieldAccess):
        return _compile_field(expr)
    if isinstance(expr, IndexAccess):
        return _compile_index(expr)
    if isinstance(expr, Binary):
        return _compile_binary(expr)
    if isinstance(expr, Unary):
        return _compile_unary(expr)
    if isinstance(expr, FunctionCall):
        return _compile_call(expr)
    if isinstance(expr, ObjectExpr):
        return _compile_object(expr)
    if isinstance(expr, ListExpr):
        items = tuple(compile_expr(item) for item in expr.items)

        def ev_list(rt: Any, binding: Binding, params: dict[str, Any]) -> list[Any]:
            return [item(rt, binding, params) for item in items]

        return ev_list
    if isinstance(expr, Subquery):
        query = expr.query

        def ev_subquery(rt: Any, binding: Binding, params: dict[str, Any]) -> list[Any]:
            return rt.run_subquery(query, binding, params)

        return ev_subquery
    raise ExecutionError(f"cannot compile {type(expr).__name__}")


def _compile_varref(name: str) -> CompiledExpr:
    def ev(rt: Any, binding: Binding, params: dict[str, Any]) -> Any:
        try:
            return binding[name]
        except KeyError:
            raise ExecutionError(f"unbound variable {name!r}") from None

    return ev


def _compile_paramref(name: str) -> CompiledExpr:
    def ev(rt: Any, binding: Binding, params: dict[str, Any]) -> Any:
        try:
            return params[name]
        except KeyError:
            raise ExecutionError(f"missing query parameter @{name}") from None

    return ev


def _compile_field(expr: FieldAccess) -> CompiledExpr:
    base = compile_expr(expr.base)
    field = expr.field

    def ev(rt: Any, binding: Binding, params: dict[str, Any]) -> Any:
        value = base(rt, binding, params)
        if value is None:
            return None
        if isinstance(value, dict):
            return value.get(field)
        raise ExecutionError(f"field access .{field} on {type(value).__name__}")

    return ev


def _compile_index(expr: IndexAccess) -> CompiledExpr:
    base = compile_expr(expr.base)
    index = compile_expr(expr.index)

    def ev(rt: Any, binding: Binding, params: dict[str, Any]) -> Any:
        value = base(rt, binding, params)
        key = index(rt, binding, params)
        if value is None:
            return None
        if isinstance(value, list):
            if not isinstance(key, int):
                raise ExecutionError("list index must be an int")
            if -len(value) <= key < len(value):
                return value[key]
            return None
        if isinstance(value, dict):
            return value.get(key)
        raise ExecutionError(f"indexing into {type(value).__name__}")

    return ev


def _compile_unary(expr: Unary) -> CompiledExpr:
    operand = compile_expr(expr.operand)
    if expr.op == "NOT":

        def ev_not(rt: Any, binding: Binding, params: dict[str, Any]) -> bool:
            return not bool(operand(rt, binding, params))

        return ev_not

    def ev_neg(rt: Any, binding: Binding, params: dict[str, Any]) -> Any:
        value = operand(rt, binding, params)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ExecutionError(f"unary '-' on {type(value).__name__}")
        return -value

    return ev_neg


_COMPARISONS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compile_binary(expr: Binary) -> CompiledExpr:
    op = expr.op
    left = compile_expr(expr.left)
    right = compile_expr(expr.right)
    if op == "AND":

        def ev_and(rt: Any, binding: Binding, params: dict[str, Any]) -> bool:
            return bool(left(rt, binding, params)) and bool(right(rt, binding, params))

        return ev_and
    if op == "OR":

        def ev_or(rt: Any, binding: Binding, params: dict[str, Any]) -> bool:
            return bool(left(rt, binding, params)) or bool(right(rt, binding, params))

        return ev_or
    if op == "==":

        def ev_eq(rt: Any, binding: Binding, params: dict[str, Any]) -> bool:
            return left(rt, binding, params) == right(rt, binding, params)

        return ev_eq
    if op == "!=":

        def ev_ne(rt: Any, binding: Binding, params: dict[str, Any]) -> bool:
            return left(rt, binding, params) != right(rt, binding, params)

        return ev_ne
    if op in _COMPARISONS:
        cmp = _COMPARISONS[op]

        def ev_cmp(rt: Any, binding: Binding, params: dict[str, Any]) -> bool:
            lhs = left(rt, binding, params)
            rhs = right(rt, binding, params)
            if lhs is None or rhs is None:
                return False
            try:
                return cmp(lhs, rhs)
            except TypeError:
                return False

        return ev_cmp
    if op == "IN":

        def ev_in(rt: Any, binding: Binding, params: dict[str, Any]) -> bool:
            # Operand order matters for error parity: left first, like
            # the interpreter.
            lhs = left(rt, binding, params)
            rhs = right(rt, binding, params)
            if rhs is None:
                return False
            if isinstance(rhs, (list, str, dict)):
                return lhs in rhs
            raise ExecutionError(
                f"IN requires a list/string, got {type(rhs).__name__}"
            )

        return ev_in
    if op == "LIKE":
        if isinstance(expr.right, Literal) and expr.right.value is not None:
            # The common case: a literal pattern compiles its regex at
            # plan time — zero per-row pattern work.
            pattern = like_regex(str(expr.right.value))

            def ev_like_const(rt: Any, binding: Binding, params: dict[str, Any]) -> bool:
                subject = left(rt, binding, params)
                if subject is None:
                    return False
                return pattern.fullmatch(str(subject)) is not None

            return ev_like_const

        def ev_like(rt: Any, binding: Binding, params: dict[str, Any]) -> bool:
            return like_match(left(rt, binding, params), right(rt, binding, params))

        return ev_like
    if op in ("+", "-", "*", "/", "%"):

        def ev_arith(rt: Any, binding: Binding, params: dict[str, Any]) -> Any:
            return arith(op, left(rt, binding, params), right(rt, binding, params))

        return ev_arith

    def ev_unknown(rt: Any, binding: Binding, params: dict[str, Any]) -> Any:
        raise ExecutionError(f"unknown operator {op!r}")

    return ev_unknown


def _compile_call(expr: FunctionCall) -> CompiledExpr:
    name = expr.name
    fn = functions.lookup_builtin(name)
    args = tuple(compile_expr(arg) for arg in expr.args)
    if fn is None:
        # Defer the failure to evaluation time, and still evaluate the
        # arguments first — the interpreter does, so an erroring argument
        # must win over the unknown-function error in both evaluators.

        def ev_unknown(rt: Any, binding: Binding, params: dict[str, Any]) -> Any:
            for arg in args:
                arg(rt, binding, params)
            raise UnknownFunctionError(f"unknown function {name}()")

        return ev_unknown

    def ev(rt: Any, binding: Binding, params: dict[str, Any]) -> Any:
        return fn(rt.ctx, [arg(rt, binding, params) for arg in args])

    return ev


def _compile_object(expr: ObjectExpr) -> CompiledExpr:
    fields = tuple((name, compile_expr(value)) for name, value in expr.fields)

    def ev(rt: Any, binding: Binding, params: dict[str, Any]) -> dict[str, Any]:
        return {name: value(rt, binding, params) for name, value in fields}

    return ev
