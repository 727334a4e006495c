"""Compiled MMQL hot path: closure-compiled expressions + plan cache.

Per-case timings of the E13 experiment table (expression-heavy per-row
evaluation, reference interpreter vs compiled closure, and plan-cache
hit vs cold plan latency), plus the perf-regression smoke CI runs at
SF=0.01:

- the **per-row speedup** of compiled vs interpreted evaluation on the
  expression-heavy predicate must stay above
  ``BENCH_COMPILE_MIN_SPEEDUP`` (default 1.5x — comfortably below the
  measured ~3x, so CI flags a real regression rather than host noise);
- a **plan-cache hit** must be at least 10x cheaper than a cold
  parse+plan of the same text;
- compiled and interpreted evaluation must return identical values on
  the rows the table warms up with (the experiment raises otherwise).

Scale: ``BENCH_COMPILE_SF`` (default 0.05; CI smoke uses 0.01) labels
the table; both rows are dataset-size independent.
"""

import os

from conftest import record_table

from repro.core.experiments_ext import experiment_e13_compile

COMPILE_SF = float(os.environ.get("BENCH_COMPILE_SF", "0.05"))
MIN_SPEEDUP = float(os.environ.get("BENCH_COMPILE_MIN_SPEEDUP", "1.5"))
MIN_PLAN_CACHE_SPEEDUP = 10.0


def bench_e13_compile_table(benchmark):
    """Regenerate and print the E13 table; gate the speedup floors."""
    table = benchmark.pedantic(
        lambda: experiment_e13_compile(scale_factor=COMPILE_SF),
        rounds=1,
        iterations=1,
    )
    record_table(table)
    by_case = {r["case"]: r for r in table.to_records()}
    expr_row = next(r for c, r in by_case.items() if c.startswith("expr_eval"))
    plan_row = next(r for c, r in by_case.items() if c.startswith("plan cold"))
    # The perf-regression smoke: per-row compiled evaluation must beat
    # the interpreter by the configured floor, and a plan-cache hit must
    # dominate a cold parse+plan.
    assert expr_row["speedup_x"] >= MIN_SPEEDUP, (
        f"compiled/interpreted per-row speedup regressed: "
        f"{expr_row['speedup_x']}x < {MIN_SPEEDUP}x"
    )
    assert plan_row["speedup_x"] >= MIN_PLAN_CACHE_SPEEDUP, (
        f"plan-cache hit vs cold plan regressed: "
        f"{plan_row['speedup_x']}x < {MIN_PLAN_CACHE_SPEEDUP}x"
    )
