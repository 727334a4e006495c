"""Extension experiments E7-E9 + the YCSB baseline suite.

These go beyond the paper's four pillars into the design-choice ablations
DESIGN.md §5 calls out:

- **E7** — secondary-index backend ablation: hash vs flat sorted list vs
  B+tree, under write churn and range queries.
- **E8** — quorum reads and session guarantees over the replicated store
  (the price of read-your-writes as lag grows).
- **E9** — eager vs lazy schema migration (upfront rewrite vs
  repair-on-read vs upgrade-every-read).
- **YCSB** — the single-model workloads A-F the paper cites as *not*
  sufficient for multi-model evaluation, run as a baseline sanity suite.
- **E10** — the sharded cluster layer: scatter-gather scan / merge-sort
  / partial top-k versus single-shard routing across 1..N shards.
- **E12** — distributed commit: single-shard fast path vs two-phase
  commit by transaction span (latency, WAL and coordinator-log traffic).
- **E13** — the compiled hot path: closure-compiled expression
  evaluation vs the reference interpreter per row, and plan-cache hit
  vs cold plan latency.
- **E15** — the observability layer: metrics-only and full-tracing
  overhead against the uninstrumented path on the sharded Q7 join,
  plus structural verification of the per-shard span tree.
- **E16** — process-parallel scatter: shard subplans dispatched to
  worker processes over the wire protocol vs the GIL-bound thread
  pool, on the communication-avoiding E10 scan mix.
- **E17** — replicated shards: write-ack latency as the quorum widens
  (1 / majority / all on 3-replica shards) and follower-read
  throughput vs leader-only, with a leader/follower/session parity
  gate before any timing.
"""

from __future__ import annotations

import os

from repro.cluster.sharded import ShardedDatabase
from repro.consistency.replication import ReplicatedStore, ReplicationConfig
from repro.consistency.sessions import quorum_freshness, session_fallback_rate
from repro.core.ycsb import WORKLOADS, YcsbRunner
from repro.datagen.config import GeneratorConfig
from repro.datagen.generator import DatasetGenerator
from repro.datagen.load import load_dataset
from repro.drivers.polyglot import PolyglotDriver
from repro.drivers.unified import UnifiedDriver
from repro.replication import ReplicaSetConfig
from repro.engine.indexes import BTreeIndex, HashIndex, SortedIndex, field_extractor
from repro.schema.evolution import AddField, NestFields, RenameField
from repro.schema.lazy import LazyMigrator
from repro.schema.registry import SchemaRegistry, migrate_collection
from repro.schema.shapes import orders_shape
from repro.util.rng import DeterministicRng, derive_seed
from repro.util.tables import Table
from repro.util.timing import Stopwatch


# ---------------------------------------------------------------------------
# E7 — index backend ablation
# ---------------------------------------------------------------------------


def experiment_e7_index_backends(
    sizes: list[int] | None = None, churn: int = 2000, seed: int = 42
) -> Table:
    """Maintenance and range-scan cost per index backend.

    For each corpus size N: build the index, apply *churn* random updates
    (the maintenance path), then run 100 range scans.  The flat sorted
    list pays O(N) per update; the B+tree O(log N) — the crossover is the
    point of the ablation.
    """
    sizes = sizes or [1_000, 10_000]
    table = Table(
        "E7: secondary index backends (ms)",
        ["backend", "records", "build_ms", "churn_ms", "range_ms", "supports_range"],
    )
    for n in sizes:
        rng = DeterministicRng(derive_seed(seed, "e7", n))
        docs = {i: {"_id": i, "n": rng.randint(0, n * 10)} for i in range(n)}
        updates = [
            (rng.randint(0, n - 1), rng.randint(0, n * 10)) for _ in range(churn)
        ]
        for backend_name, factory, has_range in (
            ("hash", lambda: HashIndex("i", field_extractor("n")), False),
            ("sorted-list", lambda: SortedIndex("i", field_extractor("n")), True),
            ("btree", lambda: BTreeIndex("i", field_extractor("n")), True),
        ):
            index = factory()
            with Stopwatch() as build:
                for key, doc in docs.items():
                    index.on_write(key, None, doc)
            snapshot = {k: dict(v) for k, v in docs.items()}
            with Stopwatch() as churn_sw:
                for key, new_n in updates:
                    old = snapshot[key]
                    new = dict(old, n=new_n)
                    index.on_write(key, old, new)
                    snapshot[key] = new
            range_ms = 0.0
            if has_range:
                with Stopwatch() as scan_sw:
                    for q in range(100):
                        low = (q * 37) % (n * 10)
                        _ = sum(1 for _ in index.range(low, low + n // 10))
                range_ms = scan_sw.elapsed * 1000.0
            table.add_row(
                [
                    backend_name,
                    n,
                    round(build.elapsed * 1000.0, 2),
                    round(churn_sw.elapsed * 1000.0, 2),
                    round(range_ms, 2),
                    has_range,
                ]
            )
    return table


# ---------------------------------------------------------------------------
# E8 — quorum reads and session guarantees
# ---------------------------------------------------------------------------


def experiment_e8_sessions(
    lags: list[int] | None = None, replicas: int = 5
) -> Table:
    """Quorum freshness per R (probed mid-delivery-window) and the
    session-guarantee fallback price at three think times."""
    lags = lags or [2, 8, 32]
    table = Table(
        "E8: quorum reads and session guarantees",
        ["base_lag", "R=1_fresh", "R=majority_fresh", "R=N_fresh",
         "fallback@1_tick", "fallback@lag", "fallback@2xlag"],
    )
    majority = replicas // 2 + 1
    for lag in lags:
        def factory(lag: int = lag) -> ReplicatedStore:
            return ReplicatedStore(
                ReplicationConfig(replicas=replicas, base_lag=lag,
                                  jitter=max(1, lag), seed=7)
            )

        freshness = quorum_freshness(factory, [1, majority, replicas])
        fallbacks = []
        for think in (1, lag, 2 * lag):
            stats = session_fallback_rate(factory, trials=300, think_ticks=think)
            fallbacks.append(round(stats.fallback_rate, 3))
        table.add_row(
            [
                lag,
                round(freshness[1], 3),
                round(freshness[majority], 3),
                round(freshness[replicas], 3),
                *fallbacks,
            ]
        )
    return table


# ---------------------------------------------------------------------------
# E9 — eager vs lazy migration
# ---------------------------------------------------------------------------

_E9_CHAIN = [
    AddField("orders", "currency", "string", default="EUR"),
    RenameField("orders", "total_price", "total"),
    NestFields("orders", ("order_date", "status"), "meta"),
]


def experiment_e9_migration_strategies(
    scale_factor: float = 0.1, reads: int = 200, seed: int = 42
) -> Table:
    """Upfront vs per-read cost of eager and lazy migration."""
    table = Table(
        "E9: migration strategies (orders collection)",
        ["strategy", "upfront_ms", "first_reads_ms", "second_reads_ms",
         "docs_rewritten"],
    )
    dataset = DatasetGenerator(GeneratorConfig(seed=seed, scale_factor=scale_factor)).generate()
    read_ids = [
        dataset.orders[i % len(dataset.orders)]["_id"] for i in range(reads)
    ]

    def fresh_driver() -> UnifiedDriver:
        driver = UnifiedDriver()
        load_dataset(driver, dataset, with_indexes=False)
        return driver

    def registry() -> SchemaRegistry:
        reg = SchemaRegistry()
        reg.register(orders_shape())
        for op in _E9_CHAIN:
            reg.apply(op)
        return reg

    # Eager: rewrite everything now, reads are plain afterwards.
    driver = fresh_driver()
    with Stopwatch() as upfront:
        result = migrate_collection(driver, "orders", _E9_CHAIN)
    with Stopwatch() as first:
        for doc_id in read_ids:
            driver.run_transaction(lambda s, d=doc_id: s.doc_get("orders", d))
    with Stopwatch() as second:
        for doc_id in read_ids:
            driver.run_transaction(lambda s, d=doc_id: s.doc_get("orders", d))
    table.add_row(
        ["eager", round(upfront.elapsed * 1000, 1), round(first.elapsed * 1000, 1),
         round(second.elapsed * 1000, 1), result.documents_migrated]
    )

    # Lazy with repair-on-read: first read pays, second is clean.
    driver = fresh_driver()
    migrator = LazyMigrator(driver, registry(), "orders", repair=True)
    with Stopwatch() as first:
        for doc_id in read_ids:
            migrator.get(doc_id)
    with Stopwatch() as second:
        for doc_id in read_ids:
            migrator.get(doc_id)
    table.add_row(
        ["lazy+repair", 0.0, round(first.elapsed * 1000, 1),
         round(second.elapsed * 1000, 1), migrator.stats.repair_writes]
    )

    # Lazy without repair: every read pays the upgrade.
    driver = fresh_driver()
    migrator = LazyMigrator(driver, registry(), "orders", repair=False)
    with Stopwatch() as first:
        for doc_id in read_ids:
            migrator.get(doc_id)
    with Stopwatch() as second:
        for doc_id in read_ids:
            migrator.get(doc_id)
    table.add_row(
        ["lazy_no_repair", 0.0, round(first.elapsed * 1000, 1),
         round(second.elapsed * 1000, 1), 0]
    )
    return table


# ---------------------------------------------------------------------------
# YCSB baseline suite
# ---------------------------------------------------------------------------


def experiment_ycsb(
    record_count: int = 1000, operations: int = 500, seed: int = 77
) -> Table:
    """Workloads A-F on both drivers' key-value model."""
    table = Table(
        "YCSB baseline: single-model KV workloads (ops/sec)",
        ["workload", "unified", "polyglot", "unified_aborts"],
    )
    runners = {}
    for driver in (UnifiedDriver(), PolyglotDriver()):
        runner = YcsbRunner(driver, record_count=record_count, seed=seed)
        runner.load()
        runners[driver.name] = runner
    for workload in sorted(WORKLOADS):
        unified = runners["unified"].run(workload, operations)
        polyglot = runners["polyglot"].run(workload, operations)
        table.add_row(
            [
                workload,
                round(unified.ops_per_sec, 0),
                round(polyglot.ops_per_sec, 0),
                unified.aborted,
            ]
        )
    return table


# ---------------------------------------------------------------------------
# E10 — sharded cluster: routing vs scatter-gather
# ---------------------------------------------------------------------------

# The four plan shapes the cluster layer distinguishes; `routed` must do
# ~1/N of the work, the others scatter with per-shard pushdown.
_E10_QUERIES = {
    "routed_point": (
        "FOR o IN orders FILTER o._id == @order_id RETURN o.status",
        lambda ds: {"order_id": ds.orders[len(ds.orders) // 2]["_id"]},
    ),
    "scatter_filter": (
        "FOR o IN orders FILTER o.total_price >= @lo RETURN o._id",
        lambda ds: {"lo": sorted(o["total_price"] for o in ds.orders)[-20]},
    ),
    # The sorted shapes return the sort key itself: ties at a top-k
    # boundary break by arrival order, which legitimately differs
    # between placements, so _id output would flake the cross-shard
    # equality gate while the key sequence is placement-invariant.
    "merge_sort": (
        "FOR o IN orders SORT o.total_price DESC RETURN o.total_price",
        lambda ds: {},
    ),
    "partial_topk": (
        "FOR o IN orders SORT o.total_price DESC LIMIT 10 RETURN o.total_price",
        lambda ds: {},
    ),
}


def experiment_e10_sharding(
    scale_factor: float = 0.1,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    repetitions: int = 5,
    seed: int = 42,
) -> Table:
    """Latency of the four cluster plan shapes across shard counts.

    Every configuration must return the same answers as one shard; the
    table records per-shape mean latency plus the measured shard fanout
    of the routed point query (the 1/N work guarantee, asserted by the
    bench harness rather than wall-clock, which the GIL makes noisy).
    """
    from repro.query.executor import Executor

    dataset = DatasetGenerator(
        GeneratorConfig(seed=seed, scale_factor=scale_factor)
    ).generate()
    table = Table(
        f"E10: sharded scatter-gather (SF={scale_factor}, ms per query)",
        ["shards", "load_ms", *(name for name in _E10_QUERIES), "routed_fanout"],
    )
    baseline: dict[str, list[str]] = {}
    for n_shards in shard_counts:
        driver = ShardedDatabase(n_shards=n_shards)
        with Stopwatch() as load_sw:
            load_dataset(driver, dataset)
        row: list[object] = [n_shards, round(load_sw.elapsed * 1000.0, 1)]
        for name, (text, params_fn) in _E10_QUERIES.items():
            params = params_fn(dataset)
            result = driver.query(text, params)  # warmup
            canonical = sorted(repr(r) for r in result)
            if name not in baseline:
                baseline[name] = canonical
            elif baseline[name] != canonical:
                raise AssertionError(
                    f"E10: {name} diverged between shard counts"
                )
            with Stopwatch() as sw:
                for _ in range(repetitions):
                    driver.query(text, params)
            row.append(round(sw.elapsed * 1000.0 / repetitions, 3))
        ctx = driver.query_context()
        executor = Executor(ctx)
        text, params_fn = _E10_QUERIES["routed_point"]
        executor.execute(text, params_fn(dataset))
        ctx.close()
        row.append(executor.stats.get("shard_fanout", 0))
        driver.close()
        table.add_row(row)
    return table


# ---------------------------------------------------------------------------
# E11 — two-phase aggregation pushdown
# ---------------------------------------------------------------------------

# Grouped aggregate shapes the two-phase rewrite targets.  All results
# must be byte-identical across shard counts: canonical group ordering
# plus exact (rational) SUM/AVG accumulation make the merged answer
# placement-independent, so the gate is plain equality, not canonicalised.
_E11_QUERIES = {
    "grouped_count": (
        "FOR o IN orders COLLECT s = o.status AGGREGATE n = COUNT(1) RETURN {s, n}"
    ),
    "grouped_sum_avg": (
        "FOR o IN orders COLLECT cid = o.customer_id "
        "AGGREGATE spend = SUM(o.total_price), avg_spend = AVG(o.total_price) "
        "RETURN {cid, spend, avg_spend}"
    ),
    "grouped_minmax_sorted": (
        "FOR o IN orders COLLECT s = o.status "
        "AGGREGATE lo = MIN(o.total_price), hi = MAX(o.total_price) "
        "SORT s RETURN {s, lo, hi}"
    ),
}


def _aggregation_actuals(driver, text: str) -> tuple[int | None, int]:
    """(rows crossing the shard gather, final group count) for one query.

    Runs the plan under the ANALYZE instrumentation and reads the
    ShardExec / top aggregate row counters — the direct measurement of
    the O(rows) → O(groups) data-movement claim.  A plan with no gather
    (a 1-shard cluster never builds a ShardExec) reports ``None``, not
    0: no rows crossed a boundary because no boundary exists.
    """
    from repro.query.analyze import instrument
    from repro.query.executor import Executor
    from repro.query.parser import parse
    from repro.query.planner import plan

    ctx = driver.query_context()
    try:
        executor = Executor(ctx)
        executor.analyze = True
        executor.observed = {}
        counted = instrument(plan(parse(text), executor.catalog).root)
        for _ in counted.run_batches(executor, {}):
            pass
        gather_rows: int | None = None
        groups = 0
        node = counted
        while node is not None:
            label = node.label()
            if label.startswith("ShardExec"):
                gather_rows = node.rows
            elif label.startswith("HashAggregate(final)") or label.startswith(
                "HashAggregate(single)"
            ):
                groups = node.rows
            node = node.child
        return gather_rows, groups
    finally:
        ctx.close()


def experiment_e11_aggregation(
    scale_factor: float = 0.1,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    repetitions: int = 5,
    seed: int = 42,
) -> Table:
    """Grouped COUNT/SUM/AVG/MIN/MAX latency across shard counts.

    Alongside per-shape mean latency the table records, for the
    ``grouped_sum_avg`` shape, how many rows crossed the shard gather
    (``gather_rows``) against the matching row count — with the partial
    pushdown this is the number of per-shard group states, not the
    number of matching rows — plus the final group count.
    """
    dataset = DatasetGenerator(
        GeneratorConfig(seed=seed, scale_factor=scale_factor)
    ).generate()
    table = Table(
        f"E11: two-phase aggregation pushdown (SF={scale_factor}, ms per query)",
        ["shards", "load_ms", *(name for name in _E11_QUERIES),
         "match_rows", "gather_rows", "groups"],
    )
    baseline: dict[str, list] = {}
    for n_shards in shard_counts:
        driver = ShardedDatabase(n_shards=n_shards)
        with Stopwatch() as load_sw:
            load_dataset(driver, dataset)
        row: list[object] = [n_shards, round(load_sw.elapsed * 1000.0, 1)]
        for name, text in _E11_QUERIES.items():
            result = driver.query(text)  # warmup
            if name not in baseline:
                baseline[name] = result
            elif baseline[name] != result:
                raise AssertionError(
                    f"E11: {name} not byte-identical across shard counts"
                )
            with Stopwatch() as sw:
                for _ in range(repetitions):
                    driver.query(text)
            row.append(round(sw.elapsed * 1000.0 / repetitions, 3))
        gather_rows, groups = _aggregation_actuals(
            driver, _E11_QUERIES["grouped_sum_avg"]
        )
        row.extend([
            len(dataset.orders),
            "n/a" if gather_rows is None else gather_rows,
            groups,
        ])
        driver.close()
        table.add_row(row)
    return table


# ---------------------------------------------------------------------------
# E12 — distributed commit: fast path vs two-phase commit
# ---------------------------------------------------------------------------


def experiment_e12_commit(
    n_docs: int = 400,
    n_shards: int = 4,
    spans: tuple[int, ...] = (1, 2, 4),
    transactions: int = 200,
    seed: int = 42,
) -> Table:
    """Commit latency and WAL traffic by transaction span.

    For each span (how many distinct shards a transaction writes) the
    table compares the best-effort shard-by-shard commit against 2PC:
    mean commit latency, WAL records appended per commit across all
    shards, and coordinator-log records per commit.  Span 1 is the fast
    path — both modes must produce identical WAL traffic (asserted),
    which is the "zero extra records" guarantee; the 2PC overhead shows
    up from span 2 as the prepare/decision records plus the coordinator
    decision, and buys atomic cross-shard aborts and crash recovery.
    """
    table = Table(
        f"E12: commit protocols ({n_shards} shards, ms per commit)",
        ["span_shards", "best_effort_ms", "two_pc_ms", "overhead_x",
         "wal_recs_best", "wal_recs_2pc", "coord_recs_2pc"],
    )
    rng = DeterministicRng(derive_seed(seed, "e12"))
    for span in spans:
        timings: dict[bool, float] = {}
        wal_recs: dict[bool, float] = {}
        coord_recs: dict[bool, float] = {}
        for two_pc in (False, True):
            db = ShardedDatabase(n_shards=n_shards, two_phase_commit=two_pc)
            db.create_collection("orders")
            with db.transaction() as s:
                for i in range(n_docs):
                    s.doc_insert(
                        "orders",
                        {"_id": f"o{i}", "v": 0, "pad": rng.random()},
                    )
            by_shard: dict[int, str] = {}
            for i in range(n_docs):
                by_shard.setdefault(db.router.shard_for("orders", f"o{i}"), f"o{i}")
            targets = [by_shard[shard] for shard in sorted(by_shard)][:span]
            wal_before = sum(shard.wal.appends for shard in db.shards)
            coord_before = db.coordinator_log.appends
            with Stopwatch() as sw:
                for t in range(transactions):
                    with db.transaction() as s:
                        for doc_id in targets:
                            s.doc_update("orders", doc_id, {"v": t + 1})
            timings[two_pc] = sw.elapsed * 1000.0 / transactions
            wal_recs[two_pc] = (
                sum(shard.wal.appends for shard in db.shards) - wal_before
            ) / transactions
            coord_recs[two_pc] = (db.coordinator_log.appends - coord_before) / transactions
            db.close()
        if span == 1 and wal_recs[True] != wal_recs[False]:
            raise AssertionError(
                "E12: the single-shard fast path must not add WAL records "
                f"({wal_recs[True]} vs {wal_recs[False]} per commit)"
            )
        table.add_row([
            span,
            round(timings[False], 4),
            round(timings[True], 4),
            round(timings[True] / timings[False], 2),
            round(wal_recs[False], 1),
            round(wal_recs[True], 1),
            round(coord_recs[True], 1),
        ])
    return table


# ---------------------------------------------------------------------------
# E13 — compiled expressions + plan cache vs pure interpretation
# ---------------------------------------------------------------------------

_E13_EXPR = (
    "o.total_price * 1.21 + o.customer_id % 7 > @cutoff "
    "AND o.status != 'cancelled' "
    "AND (o.total_price - o.customer_id % 3 >= 10 OR o.status LIKE 'ship%')"
)


def experiment_e13_compile(
    scale_factor: float = 0.05,
    repetitions: int = 20,
    eval_rows: int = 20_000,
    plan_hits: int = 2_000,
    seed: int = 42,
) -> Table:
    """Closure compilation and plan caching on the MMQL hot path.

    Two measurements, one row each:

    - ``expr_eval``: the per-row cost of one expression-heavy predicate
      over *eval_rows* synthetic bindings — the reference interpreter's
      recursive isinstance walk (:func:`repro.query.reference.eval_expr`,
      baseline) against the compiled nested-closure evaluator
      (optimized).  This is the per-row metric the E13 acceptance gate
      asserts (>= 2x at full scale, >= 1.5x in the CI smoke).
    - ``plan cold vs cached``: parse+plan latency against a plan-cache
      hit for the same text — the amortization the versioned LRU cache
      buys every repeated query.

    Neither row depends on dataset size: *scale_factor* only labels the
    table, so the CLI and the benchmark's ``BENCH_COMPILE_SF`` knob keep
    their meaning for the runs they are compared with.
    """
    from repro.core.workloads import QUERY_BY_ID
    from repro.query import reference
    from repro.query.compile import compile_expr
    from repro.query.executor import Executor
    from repro.query.parser import parse
    from repro.query.plancache import PlanCache

    table = Table(
        f"E13: compiled hot path (SF={scale_factor}, ms)",
        ["case", "baseline_ms", "optimized_ms", "speedup_x"],
    )
    rng = DeterministicRng(derive_seed(seed, "e13"))

    def row(case: str, baseline_s: float, optimized_s: float) -> None:
        table.add_row([
            case,
            round(baseline_s * 1000.0, 4),
            round(optimized_s * 1000.0, 4),
            round(baseline_s / optimized_s, 2) if optimized_s else float("inf"),
        ])

    # -- per-row expression evaluation --------------------------------------
    expr = parse(f"RETURN {_E13_EXPR}").returning.expr
    statuses = ("shipped", "shipping", "new", "cancelled")
    bindings = [
        {
            "o": {
                "total_price": round(rng.random() * 400.0, 2),
                "customer_id": rng.randint(1, 500),
                "status": statuses[rng.randint(0, len(statuses) - 1)],
            }
        }
        for _ in range(eval_rows)
    ]
    params = {"cutoff": 120.0}
    rt = Executor(ctx=None)
    compiled = compile_expr(expr)
    # Warm both paths (regex cache, bytecode) before timing.
    for binding in bindings[:100]:
        assert reference.eval_expr(expr, binding, params) == compiled(rt, binding, params)
    with Stopwatch() as sw_interp:
        for binding in bindings:
            reference.eval_expr(expr, binding, params)
    with Stopwatch() as sw_compiled:
        for binding in bindings:
            compiled(rt, binding, params)
    row(f"expr_eval ({eval_rows} rows)", sw_interp.elapsed, sw_compiled.elapsed)

    # -- plan cache: cold plan vs hit ----------------------------------------
    text = QUERY_BY_ID["Q2"].text
    with Stopwatch() as sw_cold:
        for _ in range(repetitions):
            PlanCache().get_or_plan(text)
    cache = PlanCache()
    cache.get_or_plan(text)
    with Stopwatch() as sw_hit:
        for _ in range(plan_hits):
            cache.get_or_plan(text)
    row(
        f"plan cold vs cached ({plan_hits} hits)",
        sw_cold.elapsed / repetitions,
        sw_hit.elapsed / plan_hits,
    )
    return table


# ---------------------------------------------------------------------------
# E15 — observability overhead + span-tree verification
# ---------------------------------------------------------------------------

_E15_MODES = ("disabled", "metrics", "tracing")


def experiment_e15_observability(
    scale_factor: float = 0.05,
    repetitions: int = 15,
    seed: int = 42,
) -> Table:
    """Cost of the observability layer on the cluster's Q7 hot path.

    One 4-shard cluster, the Q7 join, three instrumentation modes:

    - ``disabled``: the exact pre-observability execution path;
    - ``metrics``: counters + latency histograms, no tracing (the
      default production posture);
    - ``tracing``: full per-query span trees threaded through the
      scatter workers.

    Repetitions are *interleaved* (every mode runs once per round) and
    the table reports the per-mode minimum, so transient host noise
    cannot brand one mode slow; ``overhead_x`` is the ratio against the
    disabled floor — the CI smoke gates the tracing ratio at 1.05.

    Before timing, the tracing mode's span tree is verified for shape:
    a ShardExec span with one timed ``shard-N`` subspan per shard plus
    a gather span — the structural acceptance criterion of the
    observability layer.
    """
    from repro.core.workloads import QUERY_BY_ID

    n_shards = 4
    dataset = DatasetGenerator(
        GeneratorConfig(seed=seed, scale_factor=scale_factor)
    ).generate()
    driver = ShardedDatabase(n_shards=n_shards)
    load_dataset(driver, dataset)
    q7 = QUERY_BY_ID["Q7"]
    params = q7.params(dataset)
    obs = driver.observability
    obs.slow_log.threshold_ms = float("inf")  # capture cost, not entries

    def set_mode(mode: str) -> None:
        if mode == "disabled":
            obs.disable()
        else:
            obs.enable(tracing=mode == "tracing")

    # Correctness + span-shape gate before anything is timed.
    results = {}
    for mode in _E15_MODES:
        set_mode(mode)
        results[mode] = driver.query(q7.text, params)
    baseline = repr(results["disabled"])
    for mode, rows in results.items():
        if repr(rows) != baseline:
            raise AssertionError(f"E15: Q7 diverged under {mode}")
    trace = obs.last_trace
    if trace is None:
        raise AssertionError("E15: tracing mode produced no trace")
    scatters = [s for s in trace.root.walk() if s.name == "ShardExec"]
    if not scatters:
        raise AssertionError("E15: Q7 trace has no ShardExec span")
    shard_spans = [
        c for c in scatters[0].children if c.name.startswith("shard-")
    ]
    if len(shard_spans) != n_shards or any(
        s.elapsed_ms is None for s in shard_spans
    ):
        raise AssertionError(
            f"E15: expected {n_shards} timed per-shard subspans, got "
            f"{[(s.name, s.elapsed_ms) for s in shard_spans]}"
        )

    best = {mode: float("inf") for mode in _E15_MODES}
    for _ in range(repetitions):
        for mode in _E15_MODES:
            set_mode(mode)
            with Stopwatch() as sw:
                driver.query(q7.text, params)
            best[mode] = min(best[mode], sw.elapsed)
    set_mode("metrics")
    driver.close()

    table = Table(
        f"E15: observability overhead (SF={scale_factor}, {n_shards} shards, "
        f"Q7, min of {repetitions} interleaved reps)",
        ["mode", "q7_ms", "overhead_x"],
    )
    for mode in _E15_MODES:
        table.add_row([
            mode,
            round(best[mode] * 1000.0, 4),
            round(best[mode] / best["disabled"], 3)
            if best["disabled"] else float("inf"),
        ])
    return table


# ---------------------------------------------------------------------------
# E16 — process-parallel scatter: worker processes vs the thread pool
# ---------------------------------------------------------------------------

# The communication-avoiding scatter shapes: each ships O(matches),
# O(k) or O(groups) rows back per shard, so the wall-clock is dominated
# by per-shard scan work — exactly where process parallelism should
# show up and the GIL-bound thread pool cannot.  (Q7's join is *not*
# here: its shard-safe segment is just the vendors scan, so the join
# runs at the coordinator under either pool and measures nothing about
# the scatter.)
_E16_QUERIES = {
    "scatter_filter": (
        "FOR o IN orders FILTER o.total_price >= @lo RETURN o._id",
        False,
    ),
    "partial_topk": (
        "FOR o IN orders SORT o.total_price DESC LIMIT 10 "
        "RETURN o.total_price",
        True,
    ),
    "grouped_agg": (
        "FOR o IN orders COLLECT s = o.status "
        "AGGREGATE t = SUM(o.total_price), n = COUNT(o._id) "
        "SORT s RETURN {s: s, t: t, n: n}",
        True,
    ),
}


def _amplified_orders(dataset, min_rows: int) -> list[dict]:
    """The dataset's orders tiled (fresh ``_id`` per copy) to >= min_rows.

    Scatter wall-clock only separates the pools when per-shard work is
    measurable next to the per-query dispatch overhead (~1 frame round
    trip per shard); tiling scales the scan without changing the value
    distribution the queries see.
    """
    base = dataset.orders
    rows = [dict(order) for order in base]
    copy = 1
    while len(rows) < min_rows:
        for order in base:
            clone = dict(order)
            clone["_id"] = f"{order['_id']}~{copy}"
            rows.append(clone)
        copy += 1
    return rows


def _load_orders(driver, rows: list[dict], chunk: int = 2000) -> None:
    driver.create_collection("orders")
    for start in range(0, len(rows), chunk):
        part = rows[start : start + chunk]

        def body(s, part=part):
            for order in part:
                s.doc_insert("orders", dict(order))

        driver.run_transaction(body)


def experiment_e16_procpool(
    scale_factor: float = 0.05,
    repetitions: int = 5,
    seed: int = 42,
    n_shards: int = 4,
    min_rows: int = 20_000,
) -> Table:
    """Worker-process scatter vs the thread pool on the E10 scan mix.

    Three drivers over the identical amplified orders collection — the
    unified single-node store (the correctness oracle), an N-shard
    cluster with ``pool="threads"``, and the same topology with
    ``pool="processes"`` — so the table isolates exactly one variable:
    whether shard subplans run under one GIL or on real cores.

    Every query's results are checked byte-identical across all three
    drivers *before* anything is timed (sorted canonically for the
    unordered filter shape).  Timing interleaves the two pools every
    round and keeps per-case minima (the E15 noise discipline); the
    ``scan_mix`` row sums the minima — the figure the CI bench gates,
    conditional on the host actually having more than one core.
    """
    dataset = DatasetGenerator(
        GeneratorConfig(seed=seed, scale_factor=scale_factor)
    ).generate()
    rows = _amplified_orders(dataset, min_rows)
    lo = sorted(o["total_price"] for o in rows)[int(len(rows) * 0.98)]
    params_for = {name: {} for name in _E16_QUERIES}
    params_for["scatter_filter"] = {"lo": lo}

    unified = UnifiedDriver()
    threads = ShardedDatabase(
        n_shards=n_shards, pool="threads", wal_sync_every_append=False
    )
    processes = ShardedDatabase(
        n_shards=n_shards, pool="processes", wal_sync_every_append=False
    )
    for driver in (unified, threads, processes):
        _load_orders(driver, rows)

    # Correctness gate: identical answers everywhere, before any timing.
    for name, (text, ordered) in _E16_QUERIES.items():
        results = [
            driver.query(text, params_for[name])
            for driver in (unified, threads, processes)
        ]
        canon = [
            repr(r) if ordered else repr(sorted(r, key=repr)) for r in results
        ]
        if len(set(canon)) != 1:
            raise AssertionError(f"E16: {name} diverged across drivers/pools")

    best: dict[str, dict[str, float]] = {
        name: {"threads": float("inf"), "processes": float("inf")}
        for name in _E16_QUERIES
    }
    for _ in range(repetitions):
        for name, (text, _ordered) in _E16_QUERIES.items():
            for mode, driver in (("threads", threads), ("processes", processes)):
                with Stopwatch() as sw:
                    driver.query(text, params_for[name])
                best[name][mode] = min(best[name][mode], sw.elapsed)

    pool_metrics = processes.remote_pool().metrics()
    threads.close()
    processes.close()

    table = Table(
        f"E16: process-parallel scatter (SF={scale_factor}, "
        f"{len(rows)} orders, {n_shards} shards, "
        f"{pool_metrics['workers']} workers, {os.cpu_count()} cpus, "
        f"min of {repetitions} interleaved reps)",
        ["case", "threads_ms", "processes_ms", "speedup_x"],
    )
    mix = {"threads": 0.0, "processes": 0.0}
    for name in _E16_QUERIES:
        timings = best[name]
        mix["threads"] += timings["threads"]
        mix["processes"] += timings["processes"]
        table.add_row([
            name,
            round(timings["threads"] * 1000.0, 3),
            round(timings["processes"] * 1000.0, 3),
            round(timings["threads"] / timings["processes"], 2)
            if timings["processes"] else float("inf"),
        ])
    table.add_row([
        "scan_mix",
        round(mix["threads"] * 1000.0, 3),
        round(mix["processes"] * 1000.0, 3),
        round(mix["threads"] / mix["processes"], 2)
        if mix["processes"] else float("inf"),
    ])
    return table


# ---------------------------------------------------------------------------
# E17 — replicated shards: quorum write acks and follower reads
# ---------------------------------------------------------------------------

_E17_READ_QUERIES = {
    "point": ("FOR d IN orders FILTER d._id == @id RETURN d", True),
    "filter": (
        "FOR d IN orders FILTER d.total_price >= @lo RETURN d._id", False
    ),
    "aggregate": (
        "FOR d IN orders COLLECT status = d.status "
        "AGGREGATE n = COUNT(1) RETURN {status: status, n: n}",
        False,
    ),
}


def experiment_e17_replication(
    scale_factor: float = 0.05,
    repetitions: int = 5,
    seed: int = 42,
    n_shards: int = 2,
    min_rows: int = 6_000,
    write_batch: int = 100,
    read_rounds: int = 30,
) -> Table:
    """Quorum write acks and follower reads on 3-replica shards.

    Two measurements over the identical amplified orders collection:

    - **write-ack latency** per single-doc commit as the quorum widens —
      an unreplicated cluster, then ``write_acks`` 1 / majority / all on
      3-replica shards (majority ships the WAL synchronously to one
      follower per shard, all to two);
    - **read throughput** of a point/filter/aggregate mix on the leader
      vs round-robined followers vs session-consistent follower reads.

    Before any timing, every read query must return identical answers
    through the leader, the followers (``write_acks="all"`` keeps them
    exactly current) and a session token — the parity gate the CI smoke
    exists for.  Timing keeps per-case minima across interleaved
    repetitions.
    """
    dataset = DatasetGenerator(
        GeneratorConfig(seed=seed, scale_factor=scale_factor)
    ).generate()
    rows = _amplified_orders(dataset, min_rows)
    lo = sorted(o["total_price"] for o in rows)[int(len(rows) * 0.9)]
    ids = [o["_id"] for o in rows[: max(write_batch, read_rounds)]]

    def build(replication: ReplicaSetConfig | None) -> ShardedDatabase:
        db = ShardedDatabase(
            n_shards=n_shards,
            wal_sync_every_append=False,
            replication=replication,
        )
        _load_orders(db, rows)
        return db

    write_modes: list[tuple[str, ReplicaSetConfig | None]] = [
        ("unreplicated", None),
        ("write_acks=1", ReplicaSetConfig(3, write_acks=1)),
        ("write_acks=majority", ReplicaSetConfig(3, write_acks="majority")),
        ("write_acks=all", ReplicaSetConfig(3, write_acks="all")),
    ]
    writers = {name: build(cfg) for name, cfg in write_modes}
    # Followers stay exactly current under write_acks="all", so the
    # same cluster serves the read comparison without a staleness
    # asterisk; the leader-read baseline is the unreplicated cluster.
    reader = ShardedDatabase(
        n_shards=n_shards,
        wal_sync_every_append=False,
        replication=ReplicaSetConfig(
            3, write_acks="all", read_preference="follower"
        ),
    )
    _load_orders(reader, rows)
    leader_baseline = writers["unreplicated"]
    token = reader.session_token()

    # Parity gate: leader, follower and session reads must agree on
    # every query shape before anything is timed.
    params_for = {"point": {"id": ids[0]}, "filter": {"lo": lo}, "aggregate": {}}
    for name, (text, ordered) in _E17_READ_QUERIES.items():
        results = [
            leader_baseline.query(text, params_for[name]),
            reader.query(text, params_for[name]),
            reader.query(text, params_for[name], session=token),
        ]
        canon = [
            repr(r) if ordered else repr(sorted(r, key=repr)) for r in results
        ]
        if len(set(canon)) != 1:
            raise AssertionError(
                f"E17: {name} diverged across leader/follower/session reads"
            )

    best_write = {name: float("inf") for name, _ in write_modes}
    best_read = {
        "reads_leader": float("inf"),
        "reads_follower": float("inf"),
        "reads_session": float("inf"),
    }
    n_read_queries = read_rounds * len(_E17_READ_QUERIES)
    for _ in range(repetitions):
        for name, _cfg in write_modes:
            db = writers[name]
            with Stopwatch() as sw:
                for i in range(write_batch):
                    with db.transaction() as s:
                        s.doc_update("orders", ids[i], {"bumped": name})
            best_write[name] = min(best_write[name], sw.elapsed)
        for case, db, session in (
            ("reads_leader", leader_baseline, None),
            ("reads_follower", reader, None),
            ("reads_session", reader, token),
        ):
            with Stopwatch() as sw:
                for r in range(read_rounds):
                    params_for["point"]["id"] = ids[r % len(ids)]
                    for name, (text, _ordered) in _E17_READ_QUERIES.items():
                        db.query(text, params_for[name], session=session)
            best_read[case] = min(best_read[case], sw.elapsed)

    follower_reads = sum(
        rs.metrics()["follower_reads_total"] for rs in reader.replica_sets
    )
    fallbacks = sum(
        rs.metrics()["session_fallbacks_total"] for rs in reader.replica_sets
    )
    for db in (*writers.values(), reader):
        db.close()

    table = Table(
        f"E17: replicated shards (SF={scale_factor}, {len(rows)} orders, "
        f"{n_shards} shards x 3 replicas, {write_batch}-txn write batch, "
        f"min of {repetitions} reps)",
        ["case", "commit_ms_per_txn", "read_qps", "detail"],
    )
    for name, cfg in write_modes:
        table.add_row([
            name,
            round(best_write[name] / write_batch * 1000.0, 4),
            "",
            "no replica sets" if cfg is None
            else f"acks_needed={cfg.acks_needed}/3",
        ])
    for case, detail in (
        ("reads_leader", "unreplicated baseline"),
        ("reads_follower", f"follower_reads={follower_reads}"),
        ("reads_session", f"session_fallbacks={fallbacks}"),
    ):
        table.add_row([
            case,
            "",
            round(n_read_queries / best_read[case], 1),
            detail,
        ])
    return table


EXTENSION_EXPERIMENTS = {
    "E7": experiment_e7_index_backends,
    "E8": experiment_e8_sessions,
    "E9": experiment_e9_migration_strategies,
    "E10": experiment_e10_sharding,
    "E11": experiment_e11_aggregation,
    "E12": experiment_e12_commit,
    "E13": experiment_e13_compile,
    "E15": experiment_e15_observability,
    "E16": experiment_e16_procpool,
    "E17": experiment_e17_replication,
    "YCSB": experiment_ycsb,
}
