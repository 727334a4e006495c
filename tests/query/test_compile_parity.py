"""Differential tests: the engine vs the standalone reference interpreter.

The engine runs one way — batch-at-a-time operators over closure-
compiled expressions, fused where the plan allows.  The oracle is
:mod:`repro.query.reference`, which shares no planner, operator or
compiled code with it: it walks the parsed query one clause at a time
and scans every collection.  Layers of evidence:

1. every query of the E1 suite (Q1-Q12) runs end-to-end through the
   engine with and without indexes, at the default batch size and at
   batch sizes 1 and 7, and must return the reference's rows;
2. randomized expression trees (deterministic RNG, hundreds of shapes
   over a mixed-type binding) evaluate identically through
   ``reference.eval_expr`` and the compiled closures, *including*
   raising the same error type and message;
3. the same randomized trees embedded in tiny pipelines run end-to-end
   through the engine and the reference, comparing values and errors;
4. targeted error-semantics cases (unbound variables, bad arithmetic,
   unknown functions, speculative-filter deferral) where the
   implementations could plausibly diverge.

Order rule: without indexes the engine scans like the reference, so the
rows must match exactly, order included.  With indexes a query whose
FOR reads an index and has no SORT above it returns the index's order
(``_INDEX_ORDERED``), so those compare as multisets; everything else
stays exact.  The 1-vs-4-shard half lives in
``tests/cluster/test_vectorized_parity.py`` (it needs the sharded
fixtures).
"""

from __future__ import annotations

import pytest

from repro.core.workloads import EXTENDED_QUERIES, QUERIES
from repro.errors import ExecutionError
from repro.query import reference
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
    Unary,
    VarRef,
)
from repro.query.compile import compile_expr
from repro.query.executor import Executor, run_query
from repro.util.rng import DeterministicRng, derive_seed

# Q4 probes orders.customer_id per friend (DISTINCT keeps the first-seen
# product, so the index order shows); Q11 reads a range index, which
# yields rows sorted by total_price.  The reference scans both.
_INDEX_ORDERED = {"Q4", "Q11"}


def _reference(driver, text, params=None):
    """The reference's rows over one of *driver*'s snapshots."""
    ctx = driver.query_context()
    try:
        return reference.execute(ctx, text, params)
    finally:
        close = getattr(ctx, "close", None)
        if close is not None:
            close()


def _multiset(rows):
    return sorted(map(repr, rows))


# ---------------------------------------------------------------------------
# 1. E1 suite parity, end to end
# ---------------------------------------------------------------------------


# Batch sizes the E1 suite runs at: the default, 1 (a flush at every
# row) and 7 (batches that straddle every operator's input unevenly).
_BATCH_SIZES = {"default": None, "batch1": 1, "batch7": 7}


@pytest.mark.parametrize("batch_size", list(_BATCH_SIZES.values()), ids=list(_BATCH_SIZES))
@pytest.mark.parametrize("query", QUERIES + EXTENDED_QUERIES, ids=lambda q: q.query_id)
def test_e1_suite_matches_the_reference(query, batch_size, loaded_unified, small_dataset):
    params = query.params(small_dataset)
    oracle = _reference(loaded_unified, query.text, params)
    engine = loaded_unified.query(query.text, params, batch_size=batch_size)
    if query.query_id in _INDEX_ORDERED:
        assert _multiset(engine) == _multiset(oracle)
    else:
        assert repr(engine) == repr(oracle)


@pytest.mark.parametrize("batch_size", list(_BATCH_SIZES.values()), ids=list(_BATCH_SIZES))
@pytest.mark.parametrize("query", QUERIES + EXTENDED_QUERIES, ids=lambda q: q.query_id)
def test_e1_suite_without_indexes_matches_the_reference_exactly(
    query, batch_size, loaded_unified, small_dataset
):
    """Scans on both sides: same rows in the same order."""
    params = query.params(small_dataset)
    oracle = _reference(loaded_unified, query.text, params)
    candidate = loaded_unified.query(
        query.text, params, use_indexes=False, batch_size=batch_size
    )
    assert repr(candidate) == repr(oracle)


@pytest.mark.parametrize("query", QUERIES[:5], ids=lambda q: q.query_id)
def test_e1_suite_parity_with_tiny_batches(query, loaded_unified, small_dataset):
    """A pathological batch size (1) exercises every flush boundary."""
    params = query.params(small_dataset)
    tiny = loaded_unified.query(query.text, params, batch_size=1)
    assert repr(tiny) == repr(loaded_unified.query(query.text, params))
    oracle = _reference(loaded_unified, query.text, params)
    assert _multiset(tiny) == _multiset(oracle)
    scans = loaded_unified.query(query.text, params, use_indexes=False, batch_size=1)
    assert repr(scans) == repr(oracle)


# ---------------------------------------------------------------------------
# 2. Randomized expression trees
# ---------------------------------------------------------------------------

_BINARY_OPS = (
    "==", "!=", "<", "<=", ">", ">=", "AND", "OR", "IN", "LIKE",
    "+", "-", "*", "/", "%",
)

_LEAF_VALUES = (
    None, True, False, 0, 1, -3, 2.5, 0.0, "", "abc", "a%c", "sh_p",
)

_FIELDS = ("name", "total", "tags", "missing")


def _random_expr(rng: DeterministicRng, depth: int) -> Expr:
    """One random expression tree; leans on leaves as depth runs out."""
    choices = 4 if depth <= 0 else 11
    pick = rng.randint(0, choices - 1)
    if pick == 0:
        return Literal(_LEAF_VALUES[rng.randint(0, len(_LEAF_VALUES) - 1)])
    if pick == 1:
        # Mostly bound variables, sometimes an unbound name (error path).
        return VarRef(("u", "xs", "n", "s", "ghost")[rng.randint(0, 4)])
    if pick == 2:
        return ParamRef(("p", "q", "absent")[rng.randint(0, 2)])
    if pick == 3:
        return FieldAccess(
            _random_expr(rng, 0), _FIELDS[rng.randint(0, len(_FIELDS) - 1)]
        )
    if pick == 4:
        return Binary(
            _BINARY_OPS[rng.randint(0, len(_BINARY_OPS) - 1)],
            _random_expr(rng, depth - 1),
            _random_expr(rng, depth - 1),
        )
    if pick == 5:
        return Unary(
            "NOT" if rng.randint(0, 1) else "-", _random_expr(rng, depth - 1)
        )
    if pick == 6:
        return IndexAccess(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if pick == 7:
        name = ("LENGTH", "UPPER", "CONCAT", "NO_SUCH_FN")[rng.randint(0, 3)]
        n_args = 1 if name in ("LENGTH", "UPPER") else rng.randint(0, 2)
        return FunctionCall(
            name, tuple(_random_expr(rng, depth - 1) for _ in range(n_args))
        )
    if pick == 8:
        return ListExpr(
            tuple(_random_expr(rng, depth - 1) for _ in range(rng.randint(0, 3)))
        )
    if pick == 9:
        return ObjectExpr(
            tuple(
                (f"k{i}", _random_expr(rng, depth - 1))
                for i in range(rng.randint(0, 2))
            )
        )
    return FieldAccess(
        _random_expr(rng, depth - 1), _FIELDS[rng.randint(0, len(_FIELDS) - 1)]
    )


def _outcome(fn):
    """(value repr, None) on success, (None, error type + message) on raise.

    TypeError is a comparable outcome too: a few shared-semantics edges
    (e.g. indexing a dict with an unhashable key) raise it identically
    from both evaluators today.
    """
    try:
        return repr(fn()), None
    except (ExecutionError, TypeError) as exc:  # incl. UnknownFunctionError
        return None, (type(exc).__name__, str(exc))


_BINDING = {
    "u": {"name": "ada", "total": 42.5, "tags": ["x", "y"]},
    "xs": [1, 2, 3],
    "n": 7,
    "s": "shipped",
}
_PARAMS = {"p": 10, "q": "sh%"}


@pytest.mark.parametrize("seed", range(8))
def test_randomized_trees_agree_values_and_errors(seed):
    rng = DeterministicRng(derive_seed(42, "compile-parity", seed))
    rt = Executor(ctx=None)
    for _ in range(150):
        expr = _random_expr(rng, depth=4)
        interpreted = _outcome(lambda: reference.eval_expr(expr, _BINDING, _PARAMS))
        compiled_fn = compile_expr(expr)
        compiled = _outcome(lambda: compiled_fn(rt, _BINDING, _PARAMS))
        assert compiled == interpreted, f"divergence on {expr!r}"


# ---------------------------------------------------------------------------
# 3. Randomized trees embedded in pipelines, engine vs reference
# ---------------------------------------------------------------------------


def _pipeline_query(expr: Expr):
    """A tiny FOR/LET pipeline binding the reference binding, then RETURN
    *expr* — so the random tree runs through the full operator stack
    (bind, lets, project; fused)."""
    from repro.query.ast import (
        ForClause,
        LetClause,
        Query,
        ReturnClause,
    )

    clauses = (
        ForClause("row", ListExpr((Literal(0),))),
        LetClause("u", ParamRef("__u")),
        LetClause("xs", ParamRef("__xs")),
        LetClause("n", ParamRef("__n")),
        LetClause("s", ParamRef("__s")),
    )
    return Query(clauses, ReturnClause(expr))


@pytest.mark.parametrize("seed", range(4))
def test_randomized_pipelines_agree_with_the_reference(seed):
    rng = DeterministicRng(derive_seed(42, "vector-parity", seed))
    run_params = dict(_PARAMS)
    run_params.update({f"__{k}": v for k, v in _BINDING.items()})
    for _ in range(60):
        expr = _random_expr(rng, depth=4)
        query = _pipeline_query(expr)
        oracle = _outcome(lambda: reference.execute(None, query, run_params))
        engine = _outcome(lambda: Executor(ctx=None).execute(query, run_params))
        assert engine == oracle, f"engine diverged on {expr!r}"


# ---------------------------------------------------------------------------
# 4. Targeted error semantics
# ---------------------------------------------------------------------------


class _TinyContext:
    def __init__(self, **collections):
        self.collections = collections

    def iter_collection(self, name):
        return iter(self.collections[name])

    def index_lookup(self, collection, field, value):
        return None


@pytest.fixture()
def tiny_ctx():
    return _TinyContext(
        rows=[{"_id": 1, "v": 5, "s": "abc"}, {"_id": 2, "v": 0, "s": None}]
    )


_ERROR_EXPRS = [
    "RETURN ghost",                    # unbound variable
    "RETURN @absent",                  # missing parameter
    "RETURN 1 / 0",                    # division by zero
    "RETURN 1 % 0",                    # modulo by zero
    "RETURN 'a' * 2",                  # bad arithmetic operands
    "RETURN -'x'",                     # unary minus on a string
    "RETURN NO_SUCH_FN(1)",            # unknown builtin
    "RETURN LENGTH(1)",                # builtin argument type error
    "RETURN 1 IN 2",                   # IN over a non-container
    "RETURN [1][\"k\"]",               # non-int list index
]


def _both(ctx, text, **engine_flags):
    """{"reference": outcome, "engine": outcome} for *text* on *ctx*."""
    return {
        "reference": _outcome(lambda: reference.execute(ctx, text)),
        "engine": _outcome(lambda: run_query(ctx, text, **engine_flags)),
    }


@pytest.mark.parametrize("text", _ERROR_EXPRS)
def test_error_parity(tiny_ctx, text):
    outcomes = _both(tiny_ctx, text)
    assert outcomes["reference"][1] is not None
    assert outcomes["engine"] == outcomes["reference"]


def test_erroring_argument_beats_unknown_function(tiny_ctx):
    """Both evaluate arguments before raising unknown-function."""
    with pytest.raises(ExecutionError, match="unbound variable"):
        reference.execute(tiny_ctx, "RETURN NO_SUCH_FN(ghost)")
    with pytest.raises(ExecutionError, match="unbound variable"):
        run_query(tiny_ctx, "RETURN NO_SUCH_FN(ghost)")


def test_speculative_filter_defers_errors(tiny_ctx):
    """A hoisted conjunct that errors must not invent failures — the
    strict original still raises when reached."""
    text = (
        "FOR r IN rows FOR x IN [1] "
        "FILTER x == 1 AND r.v * 2 > 4 RETURN r._id"
    )
    assert _both(tiny_ctx, text) == {"reference": ("[1]", None), "engine": ("[1]", None)}


def test_like_compiles_pattern_once_and_agrees(tiny_ctx):
    text = "FOR r IN rows FILTER r.s LIKE '_b%' RETURN r._id"
    assert reference.execute(tiny_ctx, text) == run_query(tiny_ctx, text) == [1]


def test_subqueries_agree(tiny_ctx):
    text = (
        "FOR r IN rows "
        "LET doubled = (FOR x IN [1, 2] RETURN x * r.v) "
        "RETURN {id: r._id, doubled}"
    )
    oracle = reference.execute(tiny_ctx, text)
    assert run_query(tiny_ctx, text) == oracle
    assert oracle == [{"id": 1, "doubled": [5, 10]}, {"id": 2, "doubled": [0, 0]}]


def test_distinct_dedupes_across_batch_boundaries():
    # 5 distinct values, each repeated; batch_size=2 forces the DISTINCT
    # seen-set to carry across many batches.
    ctx = _TinyContext(rows=[{"k": i % 5} for i in range(40)])
    text = "FOR r IN rows RETURN DISTINCT r.k"
    oracle = reference.execute(ctx, text)
    assert run_query(ctx, text, batch_size=2) == oracle == [0, 1, 2, 3, 4]
