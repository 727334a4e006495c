"""Command-line entry point: regenerate experiment tables.

Usage::

    python -m repro                 # run every experiment, print all tables
    python -m repro F1 E3a E6       # run a subset
    python -m repro --list          # show available experiment ids
    python -m repro --out report.txt
    python -m repro metrics         # observability survey: run the query
                                    # mix, print Prometheus metrics +
                                    # slowest traces (see --help)
    python -m repro chaos --seed 7  # seeded chaos soak on a live
                                    # replicated cluster (see --help)

Core experiments come from :mod:`repro.core.experiments` (F1, E1-E6) and
extensions from :mod:`repro.core.experiments_ext` (E8, E15, E16, YCSB).
The benchmark itself is ``python3 bench/run.py``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.experiments import ALL_EXPERIMENTS
from repro.core.experiments_ext import EXTENSION_EXPERIMENTS


def _registry() -> dict[str, object]:
    combined: dict[str, object] = dict(ALL_EXPERIMENTS)
    combined.update(EXTENSION_EXPERIMENTS)
    return combined


def main(argv: list[str] | None = None) -> int:
    args_in = sys.argv[1:] if argv is None else argv
    # `metrics` is a subcommand, not an experiment id — dispatch before
    # the experiment parser rejects it (or its own flags).
    if args_in and args_in[0] == "metrics":
        from repro.obs.cli import main as metrics_main

        return metrics_main(args_in[1:])
    if args_in and args_in[0] == "chaos":
        from repro.faults.cli import main as chaos_main

        return chaos_main(args_in[1:])

    registry = _registry()
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate UDBMS-benchmark experiment tables.",
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="EXP",
        help=f"experiment ids (default: all). Available: {', '.join(registry)}",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument("--out", metavar="FILE", help="also write tables to FILE")
    args = parser.parse_args(argv)

    if args.list:
        for name in registry:
            print(name)
        return 0

    wanted = args.experiments or list(registry)
    unknown = [name for name in wanted if name not in registry]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    rendered: list[str] = []
    for name in wanted:
        started = time.perf_counter()
        table = registry[name]()
        text = table.render()
        rendered.append(text)
        print(text)
        print(f"[{name}: {time.perf_counter() - started:.1f}s]\n")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n\n".join(rendered) + "\n")
        print(f"wrote {len(rendered)} tables to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
