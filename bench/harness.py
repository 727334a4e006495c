"""Run one workload: set up, measure, trace, recover, check.

Closed loop: every client sends its next op only when the previous one
returned, with no think time, over a fixed seeded op stream.  The work
is fixed (rounds x ops per round), not the time, so final state, counts
and recovery are the same on every commit; ``--seconds`` scales the
number of rounds.  The WAL under test is in memory and ``sync()`` moves
a watermark, so every latency here is sandbox CPU time and every flush
is a count, not a device wait.
"""

from __future__ import annotations

import gc
import multiprocessing
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from repro.cluster.sharded import ShardedDatabase
from repro.datagen.config import GeneratorConfig
from repro.datagen.generator import DatasetGenerator
from repro.datagen.load import load_dataset
from repro.drivers.unified import UnifiedDriver
from repro.errors import TransactionAborted
from repro.replication import ReplicaSetConfig
from repro.util.timing import Timer

import checks
import metricdefs
from tracing import Recorder, layer_targets
from workloads import (
    DATASET_SEED,
    RUN_SECONDS,
    WORKLOADS,
    Op,
    OpStream,
    Workload,
    stream_digest,
)

SETUP_REPEATS = 3
# Crash + recover at least three times, and go on (to eight at most) until
# 2.5 s have gone into it: a short recovery needs more tries to land in a
# quiet moment of the machine.
RECOVERY_REPEATS = (3, 8)
RECOVERY_MIN_SECONDS = 2.5
TRACED_ROUNDS = 2
# A caller whose transaction was aborted waits and sends it again: 1 ms,
# doubled each time, at most 64 ms, twelve times (half a second in all)
# after the driver's own 10 busy retries.  Two clients conflict only while
# one holds a prepared write set, which lasts under a millisecond unless
# its thread lost the processor; half a second outlasts that, so no op of
# the stream ends up failed and `failed` is 0 on every run.
CLIENT_RESUBMITS = 12
RESUBMIT_BACKOFF_S = 0.001
RESUBMIT_BACKOFF_MAX_S = 0.064
SMOKE_SCALE_FACTOR = 0.05
SMOKE_ROUND_OPS = {"point": 144, "analytic": 50, "txn": 200}


# -- topologies ------------------------------------------------------------------


def build_driver(topology: str) -> Any:
    if topology == "unified":
        return UnifiedDriver()
    if topology == "sharded":
        return ShardedDatabase(n_shards=4, pool="processes")
    return ShardedDatabase(
        n_shards=4, replication=ReplicaSetConfig(3, write_acks="majority")
    )


def close_driver(driver: Any) -> None:
    close = getattr(driver, "close", None)
    if close is not None:
        close()


def settle() -> None:
    """Put the collector in the same state before every timed section.

    Cyclic garbage is collected now, outside the timer, and what is left
    is frozen out of the collector's reach.  A full collection inside the
    timed section then walks what that section allocated, not the loaded
    dataset, the oracle's answers or the previous section's leftovers.
    Without this, whether one, two or no full collection fell into a
    crash + recover cycle moved it between 0.24 and 0.40 s on an idle
    machine; with it the same cycles take 0.198 to 0.209 s.
    """
    gc.collect()
    gc.freeze()


def recover(
    topology: str, driver: Any, repeats: tuple[int, int]
) -> tuple[Any, list[float]]:
    """Crash + recover the post-run state *repeats* (at least, at most) times.

    Every cycle crashes the object whose log the run left behind, so all
    of them replay that same log (``MultiModelDatabase.recover`` compacts:
    chained cycles would replay the history only once).  The instance a
    cycle built is dropped before the next one starts.  Returns the live
    driver and every cycle's seconds.
    """
    post_run = driver.db if topology == "unified" else driver
    recovered = None
    times: list[float] = []
    while len(times) < repeats[0] or (
        len(times) < repeats[1] and sum(times) < RECOVERY_MIN_SECONDS
    ):
        recovered = None
        settle()
        started = perf_counter()
        recovered = post_run.crash()
        times.append(perf_counter() - started)
    if topology == "unified":
        driver.db = recovered
        return driver, times
    return recovered, times


# -- set-up ----------------------------------------------------------------------


@dataclass
class Setup:
    driver: Any
    dataset: Any
    generate_s: float
    load_s: float
    index_build_s: float
    warmup_s: float
    warmup: list["Outcome"]

    @property
    def total_s(self) -> float:
        return self.generate_s + self.load_s + self.index_build_s + self.warmup_s


def setup_once(
    workload: Workload, scale_factor: float, warmup_ops: Callable[[Any], list[Op]]
) -> Setup:
    """Generate, build a fresh driver, load, index, and warm it up.

    The warm-up (one op of every type: forks workers, ships plans, fills
    caches) is part of every set-up, so that ``setup_s`` is a median of
    whole set-ups.  Building the ops is the harness's work and untimed.
    """
    started = perf_counter()
    dataset = DatasetGenerator(
        GeneratorConfig(seed=DATASET_SEED, scale_factor=scale_factor)
    ).generate()
    generate_s = perf_counter() - started
    ops = warmup_ops(dataset)
    started = perf_counter()
    driver = build_driver(workload.topology)
    # Index builds are timed from outside, around the driver's public
    # create_index, so load_dataset stays the one loader.
    index_s = 0.0
    create_index = driver.create_index

    def timed_create_index(*args: Any, **kwargs: Any) -> None:
        nonlocal index_s
        t0 = perf_counter()
        create_index(*args, **kwargs)
        index_s += perf_counter() - t0

    driver.create_index = timed_create_index
    load_dataset(driver, dataset)
    del driver.create_index
    loaded = perf_counter()
    warmup = [submit(driver, op, None) for op in ops]
    warmup_s = perf_counter() - loaded
    return Setup(
        driver, dataset, generate_s, loaded - started - index_s, index_s,
        warmup_s, warmup,
    )


def set_up(
    workload: Workload,
    scale_factor: float,
    repeats: int,
    warmup_ops: Callable[[Any], list[Op]],
) -> list[Setup]:
    """Set up *repeats* times on fresh drivers; only the last one stays open."""
    built: list[Setup] = []
    for _ in range(repeats):
        if built:
            close_driver(built[-1].driver)
            built[-1].driver = built[-1].dataset = None
            built[-1].warmup = []
        settle()
        built.append(setup_once(workload, scale_factor, warmup_ops))
    return built


# -- running ops -----------------------------------------------------------------


@dataclass
class Outcome:
    op: Op
    elapsed: float
    rows: Any
    log: list[tuple]
    error: BaseException | None
    resubmits: int


def submit(driver: Any, op: Op, recorder: Recorder | None) -> Outcome:
    """Send one op the way a caller would and time it, retries included."""
    log: list[tuple] = []
    rows, error, resubmits = None, None, 0
    token = recorder.begin_op(op.op_id) if recorder is not None else None
    started = perf_counter()
    try:
        if op.make is None:
            rows = driver.query(op.text, op.params)
        else:
            while True:
                try:
                    driver.run_transaction(checks.recording(op.make(), log))
                    break
                except TransactionAborted:
                    if resubmits == CLIENT_RESUBMITS:
                        raise
                    time.sleep(
                        min(RESUBMIT_BACKOFF_S * 2 ** resubmits, RESUBMIT_BACKOFF_MAX_S)
                    )
                    resubmits += 1
    except Exception as exc:  # the op failed; the run goes on and counts it
        error = exc
    elapsed = perf_counter() - started
    if token is not None:
        recorder.end_op(token)
    return Outcome(op, elapsed, rows, log, error, resubmits)


def run_round(
    driver: Any, per_client: list[list[Op]], recorder: Recorder | None = None
) -> tuple[float, list[list[Outcome]]]:
    """One round; returns its wall time and every client's outcomes."""
    if len(per_client) == 1:
        started = perf_counter()
        outcomes = [[submit(driver, op, recorder) for op in per_client[0]]]
        return perf_counter() - started, outcomes
    outcomes = [[] for _ in per_client]
    barrier = threading.Barrier(len(per_client) + 1)

    def client(index: int) -> None:
        out = outcomes[index]
        barrier.wait()
        for op in per_client[index]:
            out.append(submit(driver, op, recorder))

    threads = [
        threading.Thread(target=client, args=(i,), name=f"client-{i}")
        for i in range(len(per_client))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = perf_counter()
    for thread in threads:
        thread.join()
    return perf_counter() - started, outcomes


# -- statistics ------------------------------------------------------------------


def fastest_rounds(walls: list[float]) -> list[int]:
    """Indices of the fastest half of the rounds (at least one).

    Every point and analytic round holds the same work, and the machine's
    other tenants only ever slow a round down, so the fastest rounds are
    the least disturbed ones and every number is taken over them.
    Measured on the 2-core sandbox: whole stretches of ten seconds and
    more run 30 to 60 percent slow, so a median over all rounds still
    moved by more than 10 percent between identical runs.  Half of the
    rounds, not fewer, so that the 95th percentile of the smallest
    workload (10 rounds of 50 ops) has more than ten samples beyond it.
    """
    keep = max(1, len(walls) // 2)
    return sorted(sorted(range(len(walls)), key=walls.__getitem__)[:keep])


def own_rss_mb() -> float:
    """This process's peak resident set (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workers_rss_mb() -> float:
    """Peak resident sets of the live worker processes, summed."""
    total = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            pass  # no /proc here: the parent's own peak still reports
    return total


# -- the run ---------------------------------------------------------------------


@dataclass
class RunState:
    """What verification carries from round to round."""

    oracle: checks.Oracle | None
    model: checks.WriteModel | None
    dataset_orders: dict[Any, dict]
    shipped_by_client: dict[int, set]
    attempted: int = 0
    failed: int = 0
    resubmits: int = 0
    wrong: int = 0
    # Wrong answers, unexpected errors and broken invariants make the run
    # incorrect.  A transaction still aborted after every resubmit is a
    # failed op (it counts against throughput) but not a wrong output.
    problems: list[str] = field(default_factory=list)
    aborted: list[str] = field(default_factory=list)

    def verify(self, outcomes: list[list[Outcome]], fold: bool = True) -> int:
        """Check one round's outcomes; returns the number that were correct.

        *fold* is off for the warm-up, whose committed writes the model
        already read from the driver.
        """
        correct = 0
        for client, client_outcomes in enumerate(outcomes):
            shipped = self.shipped_by_client.setdefault(client, set())
            for outcome in client_outcomes:
                self.attempted += 1
                self.resubmits += outcome.resubmits
                op, ok = outcome.op, outcome.error is None
                if op.make is not None:
                    if not ok:
                        self.model.fail(outcome.log)
                    elif fold:
                        shipped |= self.model.commit(outcome.log)
                elif ok and self.oracle is not None:
                    ok = self.oracle.matches(op, outcome.rows)
                elif ok:
                    ok = checks.check_txn_read(
                        op, outcome.rows, self.dataset_orders, shipped
                    )
                if ok:
                    correct += 1
                    continue
                self.failed += 1
                label = f"{op.op_id}#{op.n}: {outcome.error or 'wrong answer'!r}"
                if isinstance(outcome.error, TransactionAborted):
                    self.aborted.append(label)
                else:
                    self.wrong += 1
                    if self.wrong <= 5:
                        self.problems.append(label)
        return correct

    def check_state(self, driver: Any, when: str) -> None:
        """The workload's invariants against the live (or recovered) driver."""
        if self.model is not None:
            self.problems += [f"{when}: {p}" for p in self.model.problems(driver)]
        self.problems += [f"{when}: {p}" for p in checks.follower_problems(driver)]


def run_workload(
    name: str,
    seed: int,
    seconds: float = RUN_SECONDS,
    trace: bool = False,
    smoke: bool = False,
    corrupt_oracle: bool = False,
    keep_spans: bool = False,
) -> dict[str, Any]:
    """Run workload *name*; returns the result record (see README)."""
    run_started = perf_counter()
    workload = WORKLOADS[name]
    scale_factor = SMOKE_SCALE_FACTOR if smoke else workload.scale_factor
    if smoke:
        round_ops = SMOKE_ROUND_OPS[workload.kind]
        measured_rounds, traced_rounds, setups, recoveries = 1, 1, 1, (1, 1)
    else:
        round_ops = workload.round_ops
        measured_rounds = max(3, round(workload.rounds * seconds / RUN_SECONDS))
        traced_rounds, setups, recoveries = (
            TRACED_ROUNDS, SETUP_REPEATS, RECOVERY_REPEATS
        )
    if not trace:
        traced_rounds = 0

    # The fixed stream is built once, on the first set-up's dataset (the
    # dataset is the same every time: DATASET_SEED).
    streams: list[OpStream] = []

    def warmup_ops(dataset: Any) -> list[Op]:
        if not streams:
            streams.append(OpStream(workload, dataset, seed, round_ops))
        return streams[0].warmup()

    built = set_up(workload, scale_factor, setups, warmup_ops)
    stream, driver, warmup = streams[0], built[-1].driver, built[-1].warmup
    dataset = built[-1].dataset = stream.dataset
    datagen = {
        "datagen.generate_s": statistics.median(s.generate_s for s in built),
        "datagen.load_s": statistics.median(s.load_s for s in built),
        "datagen.index_build_s": statistics.median(s.index_build_s for s in built),
        "datagen.warmup_s": statistics.median(s.warmup_s for s in built),
    }
    setup_s = statistics.median(s.total_s for s in built)

    # The rounds, and the answers they must produce.
    rounds = [
        stream.round(i) for i in range(measured_rounds + traced_rounds)
    ]
    focus_ops = (
        [stream.op("focus", i, workload.focus_op) for i in range(workload.focus_reps)]
        if trace and workload.focus_op and not smoke else []
    )
    state = RunState(
        oracle=None if workload.kind == "txn" else checks.Oracle(dataset),
        model=checks.WriteModel(driver) if workload.kind == "txn" else None,
        dataset_orders={o["_id"]: o for o in dataset.orders},
        shipped_by_client={},
    )
    if state.oracle is not None:
        every_op = [op for per_client in rounds for ops in per_client for op in ops]
        state.oracle.prepare(every_op + [w.op for w in warmup] + focus_ops)
        if corrupt_oracle:
            state.oracle.corrupt_one()
    state.verify([warmup], fold=False)  # the kept driver's warm-up
    state.attempted = 0  # failures in the warm-up still count as failures

    # Measured rounds, untraced, each from a settled collector.
    walls: list[float] = []
    correct_per_round: list[int] = []
    samples: list[list[tuple[str, float]]] = []
    for per_client in rounds[:measured_rounds]:
        settle()
        wall, outcomes = run_round(driver, per_client)
        walls.append(wall)
        correct_per_round.append(state.verify(outcomes))
        samples.append(
            [(o.op.op_id, o.elapsed * 1e3) for outs in outcomes for o in outs]
        )
    kept = fastest_rounds(walls)
    latencies = Timer([ms for i in kept for _, ms in samples[i]])
    by_op: dict[str, list[float]] = {}
    for i in kept:
        for op_id, ms in samples[i]:
            by_op.setdefault(op_id, []).append(ms)

    # Traced rounds: the next rounds of the same stream, wrappers on.
    layers: dict[str, float] = {}
    traced_walls: list[float] = []
    tables: dict[str, Any] = {}
    spans: list[dict[str, Any]] = []
    if trace:
        recorder, traced_walls, layers = trace_rounds(
            driver, rounds[measured_rounds:], state
        )
        layers["obs.trace_overhead_share"] = (
            statistics.fmean(traced_walls[i] for i in fastest_rounds(traced_walls))
            / statistics.fmean(walls[i] for i in kept) - 1.0
        )
        spans = recorder.dump() if keep_spans else []
        if focus_ops:
            tables[workload.focus_op] = focus_table(driver, focus_ops, state)

    lag = follower_lag_max(driver.metrics()) if workload.topology == "replicated" else 0
    # Memory is read before recovery: how many recovery cycles run depends
    # on how fast they are, and each leaves a rebuilt instance behind.
    peak_rss_mb = own_rss_mb() + workers_rss_mb()

    # Invariants on the live state, then crash + recover, then again.
    catch_up_started = perf_counter()
    for replica_set in getattr(driver, "replica_sets", ()):
        replica_set.catch_up()
    catch_up_s = perf_counter() - catch_up_started
    state.check_state(driver, "after run")
    wal_records = driver.metrics()["collected"]["wal"]["records"]
    driver, recovery_cycles = recover(workload.topology, driver, recoveries)
    recovery_s = min(recovery_cycles)
    gc.unfreeze()
    state.check_state(driver, "after recovery")
    state.verify([[submit(driver, w.op, None) for w in warmup if w.op.make is None]])
    close_driver(driver)

    digest = stream_digest(rounds[:measured_rounds])
    end_to_end = {
        "setup_s": setup_s,
        "throughput_ops_s": (
            sum(correct_per_round[i] for i in kept) / sum(walls[i] for i in kept)
        ),
        "latency_p50_ms": latencies.p50,
        "latency_p95_ms": latencies.p95,
        "recovery_s": recovery_s,
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer: dict[str, float] = {}
    if trace:
        per_layer = {name: 0.0 for name, _, _ in metricdefs.PER_LAYER}
        per_layer.update(datagen)
        per_layer.update(layers)
        for op_id, values in by_op.items():
            per_layer[f"drivers.op.{op_id}.p50_ms"] = Timer(values).p50
        per_layer["drivers.latency_p99_ms"] = latencies.p99
        per_layer["drivers.client_resubmits"] = state.resubmits
        per_layer["engine.recover_records_per_s"] = wal_records / recovery_s
        per_layer["replication.follower_lag_records_max"] = lag
        per_layer["replication.catch_up_s"] = (
            catch_up_s if workload.topology == "replicated" else 0.0
        )
    attempted = state.attempted
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not state.problems,
        "attempted": attempted,
        "failed": state.failed,
        "problems": state.problems,
        "aborted": state.aborted,
        "end_to_end": end_to_end,
        "per_layer": per_layer if trace else {},
        "info": {
            "clients": workload.clients,
            "scale_factor": scale_factor,
            "rounds": measured_rounds,
            "round_ops": round_ops,
            "rounds_kept": len(kept),
            "latency_samples": latencies.count,
            "traced_client_s": sum(traced_walls) * workload.clients,
            "run_s": perf_counter() - run_started,
            "failed_share": state.failed / attempted,
            "stream_digest": digest,
            "round_walls_s": walls,
            "recovery_cycles_s": recovery_cycles,
            "setups_s": [s.total_s for s in built],
            "tables": tables,
        },
        "spans": spans,
    }


# -- per-layer numbers -------------------------------------------------------------


def _delta(before: dict, after: dict, *path: str) -> float:
    def dig(snapshot: dict) -> float:
        node: Any = snapshot
        for key in path:
            if not isinstance(node, dict) or key not in node:
                return 0.0
            node = node[key]
        return float(node)

    return dig(after) - dig(before)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def follower_lag_max(snapshot: dict) -> float:
    replication = snapshot["collected"].get("replication", {})
    return float(max(
        (v for k, v in replication.items() if "_lag_records_replica" in k), default=0
    ))


def layer_metrics(
    summary: dict[str, dict[str, float]],
    before: dict,
    after: dict,
    txns: int,
) -> dict[str, float]:
    """Self times from the spans, counts from ``driver.metrics()`` deltas."""

    def self_s(*names: str) -> float:
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(name: str) -> float:
        return float(summary.get(name, {}).get("calls", 0))

    def counter(name: str) -> float:
        return _delta(before, after, "counters", name)

    def collected(section: str, key: str) -> float:
        return _delta(before, after, "collected", section, key)

    def histogram(name: str, key: str) -> float:
        return _delta(before, after, "histograms", name, key)

    queries = counter("repro_queries_total")
    lookups = collected("plan_cache", "hits") + collected("plan_cache", "misses")
    two_phase = collected("txn", "two_phase_commits")
    write_commits = two_phase + collected("txn", "fast_path_commits")
    shipped = sum(
        _delta(before, after, "collected", "replication", key)
        for key in after["collected"].get("replication", {})
        if key.endswith("_records_shipped_total")
    )
    op = summary.get("op", {"self_s": 0.0, "total_s": 0.0})
    return {
        "drivers.context_s": self_s("drivers.context"),
        "query.parse_s": self_s("query.parse"),
        "query.parameterize_s": self_s("query.parameterize"),
        "query.plancache_s": self_s("query.plancache"),
        "query.plan_s": self_s("query.plan"),
        "query.plancache_hit_rate": _ratio(collected("plan_cache", "hits"), lookups),
        "query.memo_hit_rate": _ratio(collected("plan_cache", "memo_hits"), queries),
        "query.execute_s": self_s("query.execute"),
        "query.rows_scanned_per_row_returned": _ratio(
            counter("repro_exec_rows_scanned_total"),
            counter("repro_query_rows_returned_total"),
        ),
        "query.index_lookups_per_query": _ratio(
            counter("repro_exec_index_lookups_total")
            + counter("repro_exec_range_lookups_total"),
            queries,
        ),
        "query.scans_per_query": _ratio(counter("repro_exec_scans_total"), queries),
        "models.xml.xpath_s": self_s("models.xml.xpath", "models.xml.xpath_parse"),
        "models.xml.xpath_calls": calls("models.xml.xpath"),
        "models.graph.traverse_s": self_s("models.graph.traverse"),
        "models.graph.traverse_calls": calls("models.graph.traverse"),
        "models.kv.prefix_scan_s": self_s("models.kv.prefix_scan"),
        "models.kv.prefix_scan_calls": calls("models.kv.prefix_scan"),
        "engine.begin_s": self_s("engine.begin"),
        "engine.commit_s": self_s("engine.commit"),
        "engine.wal_append_s": self_s("engine.wal_append"),
        "engine.wal_appends_per_txn": _ratio(collected("wal", "appends"), txns),
        "engine.wal_bytes_per_txn": _ratio(collected("wal", "appended_bytes"), txns),
        "engine.wal_syncs_per_txn": _ratio(collected("wal", "syncs"), txns),
        "engine.lock_waits": collected("locks", "lock_waits"),
        "engine.conflicts": collected("txn", "conflicts"),
        "engine.aborts": collected("txn", "aborts"),
        "cluster.plan_s": self_s("cluster.plan"),
        "cluster.routed_share": _ratio(
            _delta(before, after, "histograms", "repro_shard_fanout", "buckets", "1.0"),
            histogram("repro_shard_fanout", "count"),
        ),
        "cluster.fanout_mean": _ratio(
            histogram("repro_shard_fanout", "sum"),
            histogram("repro_shard_fanout", "count"),
        ),
        "cluster.scatter_s": self_s("cluster.scatter"),
        "cluster.queue_s": histogram("repro_shard_queue_seconds", "sum"),
        "cluster.remote_request_s": self_s("cluster.remote_request"),
        "cluster.encode_s": self_s("cluster.encode"),
        "cluster.decode_s": self_s("cluster.decode"),
        "cluster.bytes_sent_per_query": _ratio(
            collected("procpool", "bytes_sent"), queries
        ),
        "cluster.bytes_received_per_query": _ratio(
            collected("procpool", "bytes_received"), queries
        ),
        "cluster.plans_shipped": collected("procpool", "plans_shipped"),
        "cluster.worker_sync_s": self_s("cluster.worker_sync"),
        "cluster.worker_restarts": collected("procpool", "restarts"),
        "cluster.request_retries": collected("procpool", "retries_total"),
        "cluster.session_commit_s": self_s("cluster.session_commit"),
        "cluster.cross_shard_share": _ratio(two_phase, write_commits),
        "txn.twopc_commit_s": self_s("txn.twopc_commit"),
        "txn.prepare_s": self_s("txn.prepare"),
        "txn.decision_log_s": self_s("txn.decision_log"),
        "txn.twopc_share": _ratio(
            summary.get("txn.twopc_commit", {}).get("total_s", 0.0), op["total_s"]
        ),
        "txn.aborts_in_prepare": collected("txn", "aborts_in_prepare"),
        "txn.coordinator_log_appends_per_2pc": _ratio(
            collected("txn", "coordinator_log_appends"), two_phase
        ),
        "replication.replicate_s": self_s("replication.replicate"),
        "replication.quorum_wait_s": histogram(
            "repro_replication_quorum_wait_seconds", "sum"
        ),
        "replication.records_shipped_per_txn": _ratio(shipped, txns),
        "replication.coordinator_log_ships_per_2pc": _ratio(
            collected("replication", "coordinator_log_ships"), two_phase
        ),
        "obs.unattributed_share": _ratio(op["self_s"], op["total_s"]),
    }


def trace_rounds(
    driver: Any, rounds: list[list[list[Op]]], state: "RunState"
) -> tuple[Recorder, list[float], dict[str, float]]:
    """Run *rounds* with the wrappers installed, between two metric snapshots.

    Returns the recorder, the round walls and the per-layer numbers.
    """
    recorder = Recorder()
    before = driver.metrics()
    walls: list[float] = []
    txns = 0
    recorder.install(layer_targets())
    try:
        for per_client in rounds:
            settle()
            wall, outcomes = run_round(driver, per_client, recorder)
            walls.append(wall)
            state.verify(outcomes)
            txns += sum(
                1 for outs in outcomes for o in outs
                if o.op.make is not None and o.error is None
            )
    finally:
        recorder.uninstall()
    layers = layer_metrics(recorder.summary(), before, driver.metrics(), txns)
    return recorder, walls, layers


def focus_table(driver: Any, ops: list[Op], state: RunState) -> dict[str, Any]:
    """Where one op type spends its time: a single-client traced pass.

    Run alone so that spans from scatter-pool threads, which carry no
    op, can only belong to this op.
    """
    recorder = Recorder()
    recorder.install(layer_targets())
    try:
        outcomes = [submit(driver, op, recorder) for op in ops]
    finally:
        recorder.uninstall()
    state.verify([outcomes])
    summary = recorder.summary()
    op_total = summary.pop("op")
    rows = {
        name: {
            "self_ms_per_op": entry["self_s"] * 1e3 / len(ops),
            "calls_per_op": entry["calls"] / len(ops),
        }
        for name, entry in sorted(summary.items())
    }
    return {
        "ops": len(ops),
        "wall_ms_per_op": op_total["total_s"] * 1e3 / len(ops),
        "unattributed_ms_per_op": op_total["self_s"] * 1e3 / len(ops),
        "layers": rows,
    }
