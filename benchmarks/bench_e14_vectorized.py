"""Vectorized MMQL execution: batch streams + fused operator chains.

Per-case timings of the E14 experiment table (per-row interpreted vs
batched vs fused execution on scan/filter/project shapes and the Q7
join), plus the perf-regression smoke CI runs at SF=0.01:

- the **end-to-end speedup** of the default engine over the per-row
  interpreter on the Q7 join must stay above
  ``BENCH_VECTOR_MIN_SPEEDUP`` (default 1.5x).  The two sides no longer
  run the same algorithm: batch mode runs Q7's two ``EquiJoin``s on
  their hash side (one build per query), while ``use_batches=False`` is
  the reference mode that rebuilds the nested loop, so the ratio is
  hash join + fusion over nested loop + interpreter — ~2.5x at smoke
  scale, ~10x at SF 0.05, and growing with scale (both sides borrow
  the rows they scan, so neither side's time contains a per-row copy
  any more; the ratio is evaluation work only).  The floor still
  catches the batch path losing its join or its kernels;
- every mode must return identical results on every query the table
  times (the experiment raises otherwise).

Scale: ``BENCH_VECTOR_SF`` (default 0.05; CI smoke uses 0.01) sizes the
dataset for all rows.
"""

import os

from conftest import record_table

from repro.core.experiments_ext import experiment_e14_vectorized

VECTOR_SF = float(os.environ.get("BENCH_VECTOR_SF", "0.05"))
MIN_SPEEDUP = float(os.environ.get("BENCH_VECTOR_MIN_SPEEDUP", "1.5"))


def bench_e14_vectorized_table(benchmark):
    """Regenerate and print the E14 table; gate the Q7 speedup floor."""
    table = benchmark.pedantic(
        lambda: experiment_e14_vectorized(scale_factor=VECTOR_SF),
        rounds=1,
        iterations=1,
    )
    record_table(table)
    by_case = {r["case"]: r for r in table.to_records()}
    q7 = by_case["Q7"]
    # The perf-regression smoke: the default engine must beat the per-row
    # interpreter end-to-end on the join-heavy Q7 by the configured
    # floor (hash EquiJoin vs the reference nested loop carries most of
    # it, fused kernels the rest).
    assert q7["speedup_x"] >= MIN_SPEEDUP, (
        f"fused/interpreted Q7 speedup regressed: "
        f"{q7['speedup_x']}x < {MIN_SPEEDUP}x"
    )
    # Batching alone (no fusion) must already not be a regression.
    assert q7["batched_ms"] <= q7["interpreted_ms"] * 1.2, (
        "batched (unfused) execution slower than the per-row interpreter"
    )
