"""EquiJoin: the join operator against oracles that share no join code.

The bench's polyglot oracle runs the same executor, so it cannot catch a
join bug; these tests compare the operator with the standalone reference
interpreter (:mod:`repro.query.reference`, a clause-at-a-time nested
loop that never reads an index) and with plain Python comprehensions
and hand-rolled dict joins over the raw data.
"""

from __future__ import annotations

import math
import pickle
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.sharded import ShardedDatabase
from repro.core.workloads import QUERY_BY_ID
from repro.datagen.load import load_dataset
from repro.errors import ExecutionError
from repro.query import reference
from repro.query.executor import Executor
from repro.query.parser import parse
from repro.query.physical import EquiJoin, explain_tree
from repro.query.planner import plan

from tests.query.test_compile_parity import _reference


class _Ctx:
    """In-memory QueryContext whose "index" is a filtered scan, so every
    configuration yields matches in collection order."""

    def __init__(self, indexed=(), **collections):
        self.collections = collections
        self.indexed = set(indexed)
        self.scans: dict[str, int] = defaultdict(int)

    def iter_collection(self, name):
        self.scans[name] += 1
        return iter(self.collections[name])

    def index_lookup(self, collection, field, value):
        if (collection, field) not in self.indexed:
            return None
        return [d for d in self.collections[collection] if d.get(field) == value]


def _joins(root) -> list[EquiJoin]:
    found = []

    def walk(node):
        while node is not None:
            if isinstance(node, EquiJoin):
                found.append(node)
                walk(node.subplan)
            node = node.child

    walk(root)
    return found


def _plan_of(text: str):
    return plan(parse(text)).root


# ---------------------------------------------------------------------------
# (a) hypothesis differential
# ---------------------------------------------------------------------------

_ABSENT = object()
_KEYS = st.sampled_from([
    _ABSENT, None, 0, 1, 1.0, True, False, 2, float("nan"), "a", "1",
    [1], [1, 2], {"k": 1},
])


def _row(i, key, **extra):
    row = {"_id": i, **extra}
    if key is not _ABSENT:
        row["k"] = key
    return row


@st.composite
def _sides(draw):
    outer = [
        _row(i, key) for i, key in enumerate(draw(st.lists(_KEYS, max_size=6)))
    ]
    inner = []
    for i, key in enumerate(draw(st.lists(_KEYS, max_size=7))):
        items = [
            _row(n, item_key)
            for n, item_key in enumerate(draw(st.lists(_KEYS, max_size=3)))
        ]
        inner.append(_row(i, key, flag=draw(st.booleans()), items=items))
    return outer, inner


# (query, comprehension over (outer, inner), inner rows reaching the build)
_SHAPES = [
    (
        "FOR a IN outer FOR b IN inner FILTER b.k == a.k RETURN [a._id, b._id]",
        lambda outer, inner: [
            [a["_id"], b["_id"]]
            for a in outer for b in inner if b.get("k") == a.get("k")
        ],
        lambda inner: [b.get("k") for b in inner],
    ),
    (
        "FOR a IN outer FOR b IN inner FILTER a.k == b.k AND b.flag "
        "RETURN [a._id, b._id]",
        lambda outer, inner: [
            [a["_id"], b["_id"]]
            for a in outer for b in inner
            if a.get("k") == b.get("k") and b["flag"]
        ],
        lambda inner: [b.get("k") for b in inner],
    ),
    (
        "FOR a IN outer FOR b IN inner FILTER b.flag FOR it IN b.items "
        "FILTER it.k == a.k RETURN [a._id, b._id, it._id]",
        lambda outer, inner: [
            [a["_id"], b["_id"], it["_id"]]
            for a in outer for b in inner if b["flag"]
            for it in b["items"] if it.get("k") == a.get("k")
        ],
        lambda inner: [
            it.get("k") for b in inner if b["flag"] for it in b["items"]
        ],
    ),
    (
        "FOR a IN outer FOR b IN inner LET kk = b.k FILTER kk == a.k "
        "RETURN [a._id, b._id]",
        lambda outer, inner: [
            [a["_id"], b["_id"]]
            for a in outer for b in inner if b.get("k") == a.get("k")
        ],
        lambda inner: [b.get("k") for b in inner],
    ),
]


def _unhashable(keys) -> int:
    return sum(isinstance(key, (list, dict)) for key in keys)


@pytest.mark.parametrize("shape", range(len(_SHAPES)))
@settings(max_examples=60, deadline=None)
@given(sides=_sides(), batch=st.sampled_from([1, 2, 1024]))
def test_join_matches_nested_loop_and_comprehension(shape, sides, batch):
    text, comprehension, build_keys = _SHAPES[shape]
    outer, inner = sides
    expected = comprehension(outer, inner)
    assert len(_joins(_plan_of(text))) == 1
    configs = [
        (dict(), True),                                  # hash side
        (dict(indexed={("inner", "k")}), True),          # index side, if eligible
        (dict(indexed={("inner", "k")}), False),         # ablation: hash side
    ]
    for ctx_kwargs, use_indexes in configs:
        ctx = _Ctx(outer=outer, inner=inner, **ctx_kwargs)
        native = Executor(ctx, use_indexes=use_indexes, batch_size=batch)
        assert native.execute(text) == reference.execute(ctx, text) == expected
        stats = native.stats
        probed_index = stats["join_index_probes"] > 0
        if not outer:
            assert stats["join_builds"] == 0 and not probed_index
        elif probed_index:
            # Only the single-FOR, field-path shapes can take the index.
            assert shape < 2 and use_indexes and ctx_kwargs
            assert stats["join_builds"] == 0
            assert stats["index_lookups"] == stats["join_index_probes"] == len(outer)
        else:
            assert stats["join_builds"] == 1
            keys = build_keys(inner)
            assert stats["join_build_rows"] == len(keys)
            assert stats["join_unhashable_rows"] == _unhashable(keys)
            assert ctx.scans["inner"] == 1 + len(outer)  # 1 build + the reference


def test_index_side_is_taken_exactly_when_the_context_has_the_index():
    text = _SHAPES[0][0]
    outer = [_row(0, 1), _row(1, "a")]
    inner = [_row(0, 1.0), _row(1, "a"), _row(2, True)]
    for indexed, use_indexes, index_side in [
        (set(), True, False),
        ({("inner", "k")}, True, True),
        ({("inner", "k")}, False, False),
        ({("inner", "other")}, True, False),
    ]:
        executor = Executor(
            _Ctx(indexed, outer=outer, inner=inner), use_indexes=use_indexes
        )
        assert executor.execute(text) == [[0, 0], [0, 2], [1, 1]]
        assert (executor.stats["join_index_probes"] == 2) is index_side
        assert (executor.stats["join_builds"] == 1) is not index_side
        # A hint that could not probe is no longer a scan per outer row.
        assert executor.stats["index_fallback_scans"] == 0


def test_unindexed_hint_with_a_constant_key_counts_its_fallback_scan():
    ctx = _Ctx(inner=[_row(0, 1), _row(1, 2)])
    executor = Executor(ctx)
    assert executor.execute("FOR b IN inner FILTER b.k == 2 RETURN b._id") == [1]
    assert executor.stats["index_fallback_scans"] == 1
    assert executor.stats["join_builds"] == 0


# ---------------------------------------------------------------------------
# (b) order-sensitive consumers above the join
# ---------------------------------------------------------------------------

_OUTER = [_row(i, i % 3) for i in range(7)]
_INNER = [_row(i, i % 4, tag="xy"[i % 2]) for i in range(9)]


@pytest.mark.parametrize("text", [
    "FOR a IN outer FOR b IN inner FILTER b.k == a.k LIMIT 3, 4 "
    "RETURN [a._id, b._id]",
    "FOR a IN outer FOR b IN inner FILTER b.k == a.k RETURN DISTINCT b.tag",
    "FOR a IN outer FOR b IN inner FILTER b.k == a.k "
    "COLLECT k = a.k INTO members RETURN {k, members}",
])
@pytest.mark.parametrize("batch", [1, 3, 1024])
def test_order_sensitive_consumers_are_unchanged(text, batch):
    ctx = _Ctx(outer=_OUTER, inner=_INNER)
    native = Executor(ctx, batch_size=batch).execute(text)
    assert native == reference.execute(ctx, text) and native


# ---------------------------------------------------------------------------
# (c) laziness and the lifetime of a build
# ---------------------------------------------------------------------------

_RAISING = (
    "FOR a IN outer FOR b IN inner FILTER b._id / 0 > 1 FOR it IN b.items "
    "FILTER it.k == a.k RETURN it"
)


def test_empty_outer_side_never_runs_the_inner_side():
    assert len(_joins(_plan_of(_RAISING))) == 1
    ctx = _Ctx(outer=[], inner=[_row(0, 1, items=[])])
    executor = Executor(ctx)
    assert executor.execute(_RAISING) == []
    assert ctx.scans["inner"] == 0 and executor.stats["join_builds"] == 0
    ctx = _Ctx(outer=[_row(0, 1)], inner=[_row(0, 1, items=[])])
    for run in (Executor(ctx).execute, lambda text: reference.execute(ctx, text)):
        with pytest.raises(ExecutionError, match="division by zero"):
            run(_RAISING)


def test_erroring_keys_reach_the_residual_filter_instead_of_being_dropped():
    # b.k.x raises on a string k; the nested loop raises it in the FILTER.
    text = "FOR a IN outer FOR b IN inner FILTER b.k.x == a.k RETURN b._id"
    ctx = _Ctx(outer=[_row(0, 1)], inner=[_row(0, {"x": 1}), _row(1, "s")])
    for run in (Executor(ctx).execute, lambda text: reference.execute(ctx, text)):
        with pytest.raises(ExecutionError, match="field access"):
            run(text)
    text = "FOR a IN outer FOR b IN inner FILTER b.k == a.k.x RETURN b._id"
    ctx = _Ctx(outer=[_row(0, "s")], inner=[_row(0, 1)])
    for run in (Executor(ctx).execute, lambda text: reference.execute(ctx, text)):
        with pytest.raises(ExecutionError, match="field access"):
            run(text)


def test_build_runs_once_per_execute_and_never_outlives_it():
    text = (
        "FOR u IN us LET xs = (FOR a IN outer FOR b IN inner "
        "FILTER b.k == a.k RETURN b._id) RETURN xs"
    )
    inner = [_row(0, 1), _row(1, 2)]
    ctx = _Ctx(us=[1, 2, 3], outer=[_row(0, 1), _row(1, 2)], inner=inner)
    executor = Executor(ctx)
    assert executor.execute(text) == [[0, 1]] * 3
    assert executor.stats["join_builds"] == 1
    assert ctx.scans["inner"] == 1
    inner.append(_row(2, 1))
    assert executor.execute(text) == [[0, 2, 1]] * 3
    assert executor.stats["join_builds"] == 2
    assert reference.execute(ctx, text) == [[0, 2, 1]] * 3


# ---------------------------------------------------------------------------
# (d) not a join
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", [
    # the inner FOR reads the outer row
    "FOR a IN outer FOR it IN a.items FILTER it.k == a.k RETURN it._id",
    # a bound list variable shadows the collection name, statically
    "LET inner = [{k: 1, _id: 9}] FOR a IN outer FOR b IN inner "
    "FILTER b.k == a.k RETURN b._id",
    "FOR a IN outer FOR b IN inner FILTER b.k != a.k RETURN b._id",
    "FOR a IN outer FOR b IN inner FILTER b.k < a.k RETURN b._id",
    # both sides read the inner row only
    "FOR a IN outer FOR b IN inner FILTER b.k == b._id RETURN b._id",
    # nothing is in scope for the first FOR to join to
    "FOR b IN inner FILTER b.k == @key RETURN b._id",
])
def test_shapes_that_keep_the_nested_loop(text):
    explained = plan(parse(text))
    assert _joins(explained.root) == []
    assert "EquiJoin" not in explained.describe()
    outer = [_row(0, 1, items=[_row(5, 1), _row(6, 2)]), _row(1, 2, items=[])]
    ctx = _Ctx(outer=outer, inner=[_row(0, 1), _row(1, 2), _row(2, 2)])
    params = {"key": 2}
    native = Executor(ctx).execute(text, params)
    assert native == reference.execute(ctx, text, params)
    assert native


def test_collection_shadowed_through_a_subquery_seed_keeps_its_answer():
    # Inside the subquery `inner` looks like a collection, so it plans as
    # a join; at run time the seed binds a list of that name.
    text = (
        "LET inner = [{k: 1, _id: 'var'}] FOR u IN us "
        "LET xs = (FOR a IN outer FOR b IN inner FILTER b.k == a.k RETURN b._id) "
        "RETURN xs"
    )
    subquery = parse(text).clauses[2].value.query
    assert len(_joins(plan(subquery).root)) == 1
    ctx = _Ctx(
        {("inner", "k")}, us=[1, 2], outer=[_row(0, 1)], inner=[_row("coll", 1)]
    )
    for use_indexes in (True, False):
        executor = Executor(ctx, use_indexes=use_indexes)
        assert executor.execute(text) == [["var"], ["var"]]
        assert executor.stats["join_builds"] == 0
        assert executor.stats["join_index_probes"] == 0
    assert reference.execute(ctx, text) == [["var"], ["var"]]


# ---------------------------------------------------------------------------
# (e) Q7 against a hand-rolled dict join, on every topology
# ---------------------------------------------------------------------------


def _q7_by_hand(dataset):
    name_of = {v["id"]: v["name"] for v in dataset.vendors}
    vendor_of = {
        p["_id"]: name_of[p["vendor_id"]]
        for p in dataset.products if p["vendor_id"] in name_of
    }
    revenue: dict[str, float] = defaultdict(float)
    for order in dataset.orders:
        for item in order["items"]:
            if item["product_id"] in vendor_of:
                revenue[vendor_of[item["product_id"]]] += item["amount"]
    return sorted(revenue.items(), key=lambda pair: -pair[1])[:5]


def _assert_q7(rows, dataset):
    expected = _q7_by_hand(dataset)
    assert [r["vendor"] for r in rows] == [vendor for vendor, _ in expected]
    for row, (_, revenue) in zip(rows, expected):
        assert math.isclose(row["revenue"], revenue, rel_tol=1e-9)


@pytest.mark.parametrize("fixture", ["loaded_unified", "loaded_polyglot"])
def test_q7_equals_hand_rolled_join_single_node(fixture, request, small_dataset):
    driver = request.getfixturevalue(fixture)
    for use_indexes in (True, False):
        _assert_q7(driver.query(QUERY_BY_ID["Q7"].text, use_indexes=use_indexes), small_dataset)
    _assert_q7(_reference(driver, QUERY_BY_ID["Q7"].text), small_dataset)


@pytest.mark.parametrize("pool", ["threads", "processes"])
def test_q7_equals_hand_rolled_join_on_four_shards(pool, small_dataset):
    db = ShardedDatabase(n_shards=4, pool=pool)
    try:
        load_dataset(db, small_dataset)
        _assert_q7(db.query(QUERY_BY_ID["Q7"].text), small_dataset)
        assert "EquiJoin [it.product_id == p._id] (hash build)" in db.explain(
            QUERY_BY_ID["Q7"].text
        )
    finally:
        db.close()


# ---------------------------------------------------------------------------
# (f) pickling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", range(len(_SHAPES)))
def test_plan_with_a_join_survives_pickling(shape):
    text = _SHAPES[shape][0]
    root = _plan_of(text)
    clone = pickle.loads(pickle.dumps(root))
    assert explain_tree(clone) == explain_tree(root)
    outer = [_row(i, i % 3) for i in range(5)]
    inner = [
        _row(i, i % 3, flag=i % 2 == 0, items=[_row(0, i % 3), _row(1, 1)])
        for i in range(6)
    ]
    executor = Executor(_Ctx(outer=outer, inner=inner))
    rows = [v for batch in clone.run_batches(executor, {}) for v in batch]
    assert rows == _SHAPES[shape][1](outer, inner) and rows
    assert executor.stats["join_builds"] == 1


# ---------------------------------------------------------------------------
# EXPLAIN goldens: the plan names the join, ANALYZE says which side ran
# ---------------------------------------------------------------------------


def _join_lines(report: str) -> list[str]:
    return [
        line.strip() for line in report.splitlines()
        if line.strip().startswith("EquiJoin")
    ]


class TestExplainGoldens:
    def test_q7_is_two_joins_over_one_pass_of_each_collection(
        self, loaded_unified, small_dataset
    ):
        text = QUERY_BY_ID["Q7"].text
        assert _join_lines(loaded_unified.explain(text)) == [
            "EquiJoin [it.product_id == p._id] (hash build)",
            "EquiJoin [p.vendor_id == v.id] "
            "(index products.vendor_id, else hash build)",
        ]
        report = loaded_unified.explain_analyze(text)
        items = sum(len(o["items"]) for o in small_dataset.orders)
        products, vendors = len(small_dataset.products), len(small_dataset.vendors)
        assert _join_lines(report) == [
            f"EquiJoin [it.product_id == p._id] (hash build) "
            f"(rows={items}, batches={-(-items // 1024)}, build_rows={items}, "
            f"probes={products}, index_probes=0)",
            f"EquiJoin [p.vendor_id == v.id] "
            f"(index products.vendor_id, else hash build) "
            f"(rows={products}, batches=1, build_rows={products}, "
            f"probes={vendors}, index_probes=0)",
        ]
        assert "FusedPipeline[NestedLoopBind o→NestedLoopBind it]" in report
        scanned = vendors + products + len(small_dataset.orders)
        assert f"join_build_rows={items + products}, join_builds=2" in report
        assert f"rows_scanned={scanned}, scan_cache_hits=0, scans=3" in report

    @pytest.mark.parametrize("qid", ["Q2", "Q4"])
    def test_q2_and_q4_probe_the_customer_id_index(
        self, qid, loaded_unified, small_dataset
    ):
        query = QUERY_BY_ID[qid]
        golden = (
            "EquiJoin [o.customer_id == "
            + ("c.id" if qid == "Q2" else "friend._id")
            + "] (index orders.customer_id, else hash build)"
        )
        assert _join_lines(loaded_unified.explain(query.text)) == [golden]
        params = query.params(small_dataset)
        (line,) = _join_lines(loaded_unified.explain_analyze(query.text, params))
        assert line.startswith(golden)
        assert "build_rows=0, probes=0, index_probes=" in line
        assert "index_probes=0" not in line
        # Without the index the same plan hashes orders once instead.
        (line,) = _join_lines(
            loaded_unified.explain_analyze(query.text, params, use_indexes=False)
        )
        assert f"build_rows={len(small_dataset.orders)}, probes=" in line
        assert line.endswith("index_probes=0)")
