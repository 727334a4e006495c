"""Extension experiments that ``bench/`` does not replace yet.

``bench/run.py`` is the repository's benchmark: six workloads with
checked answers and bounded end-to-end metrics.  Each table below stays
until the ROADMAP item named with it takes it over:

- **E8** — quorum reads and session guarantees over the replicated
  store simulator.  Its session half moves into the consistency item
  (the paper's consistency pillar measured on the served replica set).
- **E15** — the observability layer: metrics-only and full-tracing
  overhead against the uninstrumented path on the sharded Q7 join,
  plus structural verification of the per-shard span tree.  The ≤5 %
  bound moves into the benchmark item that moves the gate off the
  knee (step 3, re-home the observability-overhead gate).
- **E16** — process-parallel scatter: shard subplans dispatched to
  worker processes vs the GIL-bound thread pool on a scan mix.  The
  ≥1.3× multi-core floor moves into the same benchmark item (step 4,
  an unpinned multi-CPU ``analytic-sharded``).
- **YCSB** — the single-model workloads A-F the paper cites as *not*
  sufficient for multi-model evaluation, run as a baseline sanity
  suite.  The north star counts it as part of the paper's workload;
  the benchmark item that puts the paper's comparison in the
  trajectory brings it into ``bench/``.
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
from repro.util.tables import Table
from repro.util.timing import Stopwatch



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
    """Worker-process scatter vs the thread pool on a scan mix.

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


EXTENSION_EXPERIMENTS = {
    "E8": experiment_e8_sessions,
    "E15": experiment_e15_observability,
    "E16": experiment_e16_procpool,
    "YCSB": experiment_ycsb,
}
