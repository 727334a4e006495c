"""Observability overhead: the always-cheap guarantee, enforced.

Regenerates the E15 table (disabled vs metrics vs tracing on the
4-shard Q7 join) and gates the overhead ratios CI runs at SF=0.01:

- **tracing on vs off** must stay under ``BENCH_OBS_MAX_OVERHEAD``
  (default 1.05x) — the headline guarantee of the observability layer:
  full span trees through the scatter workers cost under 5% on the
  cluster hot path;
- the metrics-only mode (the default production posture) is held to
  the same bound;
- the experiment itself raises before timing anything if Q7's results
  diverge across modes or the traced run fails the span-shape check
  (ShardExec span with one timed ``shard-N`` subspan per shard).

The measurement is noise-hardened two ways.  Within a trial, modes are
interleaved every round and the table keeps per-mode minima (the E16
pattern), so a host hiccup cannot brand one mode slow.  Across
trials, the gate is best-of-``BENCH_OBS_TRIALS``: the measured margin
(~1-4% overhead vs the 5% ceiling) is real but thinner than CI-runner
jitter, and a genuine regression fails *every* trial while a noise
spike fails only one.  ``BENCH_OBS_SF`` (default 0.05; CI smoke uses
0.01) sizes the dataset, ``BENCH_OBS_REPS`` the rounds per trial.
"""

import os

from conftest import record_table

from repro.core.experiments_ext import experiment_e15_observability

OBS_SF = float(os.environ.get("BENCH_OBS_SF", "0.05"))
OBS_REPS = int(os.environ.get("BENCH_OBS_REPS", "40"))
OBS_TRIALS = int(os.environ.get("BENCH_OBS_TRIALS", "3"))
MAX_OVERHEAD = float(os.environ.get("BENCH_OBS_MAX_OVERHEAD", "1.05"))


def _gated_modes(table) -> dict[str, float]:
    by_mode = {r["mode"]: r for r in table.to_records()}
    return {m: by_mode[m]["overhead_x"] for m in ("metrics", "tracing")}


def bench_e15_observability_table(benchmark):
    """Regenerate and print the E15 table; gate the overhead ceiling."""
    table = benchmark.pedantic(
        lambda: experiment_e15_observability(
            scale_factor=OBS_SF, repetitions=OBS_REPS
        ),
        rounds=1,
        iterations=1,
    )
    record_table(table)
    worst = _gated_modes(table)
    for _ in range(OBS_TRIALS - 1):
        if all(ratio <= MAX_OVERHEAD for ratio in worst.values()):
            break
        retry = experiment_e15_observability(
            scale_factor=OBS_SF, repetitions=OBS_REPS
        )
        record_table(retry)
        for mode, ratio in _gated_modes(retry).items():
            worst[mode] = min(worst[mode], ratio)
    for mode, ratio in worst.items():
        assert ratio <= MAX_OVERHEAD, (
            f"observability overhead regressed: {mode} mode at {ratio}x "
            f"the disabled floor in each of {OBS_TRIALS} trials "
            f"(ceiling {MAX_OVERHEAD}x)"
        )
