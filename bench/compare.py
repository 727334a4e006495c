"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py BASE.json NEW.json   # verdict per workload x metric
    python3 bench/compare.py RUNS.json            # spread of one set of runs

Each file is what ``bench/run.py --out FILE`` appends to: untraced runs
of one commit, at least ten per workload, each with another seed.  To
compare two commits, run them in interleaved pairs — base then new, new
then base, and so on — so that drift of the machine lands on both sides
(see README, "Comparing two commits").

For every workload and end-to-end metric the table gives the base and
new medians, the ratio new/base, the bound from ``BENCHMARK.json`` and
a verdict:

- ``unresolved``  either side's spread (interquartile range over the
  median) is wider than the bound, so the runs cannot tell (not applied
  to ``setup_s``, a median of only three set-ups per run: its medians are
  compared whatever its spread, as the benchmark's driver does);
- ``regressed``   the new median is worse than the base by more than
  the bound;
- ``improved``    the new side wins at least nine tenths of the pairs
  and the medians differ by more than the base's own interquartile range;
- ``unchanged``   anything else.

Exit code 1 when any row is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds() -> dict[str, tuple[str, float]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def load_runs(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, in run order, untraced runs only."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    out: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        if run["trace"]:
            continue
        metrics = out.setdefault(run["workload"], {})
        for name, value in run["end_to_end"].items():
            metrics.setdefault(name, []).append(value)
    return out


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median, interquartile range, and the range as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q3 - q1, (q3 - q1) / median if median else 0.0


def verdict(
    base: list[float], new: list[float], better: str, bound: float,
    spread_gates: bool = True,
) -> tuple[str, dict[str, Any]]:
    base_median, base_iqr, base_spread = spread(base)
    new_median, _, new_spread = spread(new)
    ratio = new_median / base_median if base_median else float("inf")
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if (n < b if better == "lower" else n > b))
    ties = sum(1 for b, n in pairs if n == b)
    decided = len(pairs) - ties
    detail = {
        "base": base_median, "new": new_median, "ratio": ratio,
        "base_spread": base_spread, "new_spread": new_spread,
        "wins": wins, "pairs": decided,
    }
    if spread_gates and max(base_spread, new_spread) > bound:
        return "unresolved", detail
    if worse > bound:
        return "regressed", detail
    if (
        decided and wins >= 0.9 * decided and worse < 0
        and abs(new_median - base_median) > base_iqr
    ):
        return "improved", detail
    return "unchanged", detail


def report_spread(path: str, bounds: dict[str, tuple[str, float]]) -> int:
    wide = 0
    print(f"{'workload':18s} {'metric':18s} {'n':>3s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, metrics in load_runs(path).items():
        for name, values in metrics.items():
            median, _, share = spread(values)
            bound = bounds[name][1]
            flag = ""
            if name != "setup_s" and share > bound:
                flag, wide = "  WIDER THAN BOUND", wide + 1
            elif name != "setup_s" and share > bound / 3:
                flag = "  over a third of the bound"
            print(
                f"{workload:18s} {name:18s} {len(values):3d} {median:12.4f} "
                f"{share:8.4f} {bound:6.2f}{flag}"
            )
    return 1 if wide else 0


def report_comparison(
    base_path: str, new_path: str, bounds: dict[str, tuple[str, float]]
) -> int:
    base_runs, new_runs = load_runs(base_path), load_runs(new_path)
    bad = 0
    print(
        f"{'workload':18s} {'metric':18s} {'base':>12s} {'new':>12s} "
        f"{'new/base':>9s} {'bound':>6s} {'wins':>7s}  verdict"
    )
    for workload, metrics in base_runs.items():
        for name, base in metrics.items():
            new = new_runs.get(workload, {}).get(name)
            if not new:
                continue
            better, bound = bounds[name]
            status, d = verdict(base, new, better, bound, name != "setup_s")
            if status in ("regressed", "unresolved"):
                bad += 1
            print(
                f"{workload:18s} {name:18s} {d['base']:12.4f} {d['new']:12.4f} "
                f"{d['ratio']:9.4f} {bound:6.2f} {d['wins']:3d}/{d['pairs']:<3d}  {status}"
                + (
                    f" (spread {max(d['base_spread'], d['new_spread']):.3f})"
                    if status == "unresolved" else ""
                )
            )
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bounds = load_bounds()
    if len(argv) == 1:
        return report_spread(argv[0], bounds)
    return report_comparison(argv[0], argv[1], bounds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
