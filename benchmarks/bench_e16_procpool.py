"""Process-pool scatter: correctness parity always, wall-clock when it can.

Regenerates the E16 table (worker-process vs thread-pool scatter on the
amplified orders scan mix) and gates two things:

- **parity**, unconditionally: the experiment itself raises before any
  timing if the scan mix's results are not byte-identical across the
  unified store, the thread-pool cluster and the process-pool cluster —
  so a broken wire protocol fails this bench on any host;
- **wall-clock**, conditionally: the ``scan_mix`` speedup of
  ``pool="processes"`` over ``pool="threads"`` must clear
  ``BENCH_PROC_MIN_SPEEDUP`` (default 1.3x) — but only when the host
  actually has more than one core.  Process parallelism cannot exist on
  one core (the pool sizes itself to ``min(n_shards, cpus)``), so a
  1-CPU host runs the full protocol, checks parity, prints the table,
  and skips the floor rather than asserting fiction.

Noise discipline matches E15: rounds interleave the two pools and
the table keeps per-case minima; across trials the gate is
best-of-``BENCH_PROC_TRIALS``, so a scheduler hiccup fails one trial,
not the bench.  ``BENCH_PROC_SF`` / ``BENCH_PROC_MIN_ROWS`` size the
dataset (CI smoke: SF=0.01 with the default row floor, which tiles the
orders to a measurable scan either way).
"""

import os

from conftest import record_table

from repro.core.experiments_ext import experiment_e16_procpool

PROC_SF = float(os.environ.get("BENCH_PROC_SF", "0.05"))
PROC_REPS = int(os.environ.get("BENCH_PROC_REPS", "5"))
PROC_TRIALS = int(os.environ.get("BENCH_PROC_TRIALS", "3"))
PROC_MIN_ROWS = int(os.environ.get("BENCH_PROC_MIN_ROWS", "20000"))
MIN_SPEEDUP = float(os.environ.get("BENCH_PROC_MIN_SPEEDUP", "1.3"))


def _mix_speedup(table) -> float:
    by_case = {r["case"]: r for r in table.to_records()}
    return by_case["scan_mix"]["speedup_x"]


def bench_e16_procpool_table(benchmark):
    """Regenerate and print the E16 table; gate the scan-mix speedup."""
    table = benchmark.pedantic(
        lambda: experiment_e16_procpool(
            scale_factor=PROC_SF,
            repetitions=PROC_REPS,
            min_rows=PROC_MIN_ROWS,
        ),
        rounds=1,
        iterations=1,
    )
    record_table(table)
    cpus = os.cpu_count() or 1
    if cpus < 2:
        return  # parity checked above; no cores, no parallelism to gate
    speedup = _mix_speedup(table)
    for _ in range(PROC_TRIALS - 1):
        if speedup >= MIN_SPEEDUP:
            break
        retry = experiment_e16_procpool(
            scale_factor=PROC_SF,
            repetitions=PROC_REPS,
            min_rows=PROC_MIN_ROWS,
        )
        record_table(retry)
        speedup = max(speedup, _mix_speedup(retry))
    assert speedup >= MIN_SPEEDUP, (
        f"process-pool scatter speedup {speedup}x below the "
        f"{MIN_SPEEDUP}x floor on {cpus} cpus in each of "
        f"{PROC_TRIALS} trials"
    )
