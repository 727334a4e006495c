"""One command for the six workloads: every metric by name, answers checked.

    python3 bench/run.py                      # all six, untraced then traced
    python3 bench/run.py --workload txn-unified --seed 7 --seconds 8 --trace 0
    python3 bench/run.py --smoke              # SF 0.05, one short round each

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every answer and invariant checked out.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
from typing import Any

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SRC = os.path.join(ROOT, "src")
if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, SRC)

SANDBOX_NOTE = (
    "closed loop, fixed seeded stream; the WAL is in memory and sync() moves a "
    "watermark, so latencies are sandbox CPU time and flushes are counts"
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append",
        help="workload to run in this process (repeatable; default: all six, "
        "each in a fresh child process, untraced then traced)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="run length the round count is scaled to (default: run_seconds)",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=None,
        help="1: traced run, per-layer metrics; 0: untraced, end-to-end metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="SF 0.05, one short untraced and one traced round, in this process",
    )
    parser.add_argument("--out", help="append the run records to this JSON file")
    parser.add_argument("--spans-dir", help="write each traced run's spans here")
    parser.add_argument(
        "--corrupt-oracle", action="store_true",
        help="test hook: damage one expected answer; the run must then fail",
    )
    return parser.parse_args(argv)


# -- output ----------------------------------------------------------------------


def print_record(record: dict[str, Any], units: dict[str, str]) -> None:
    info = record["info"]
    print(
        f"== {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"SF={info['scale_factor']} clients={info['clients']} "
        f"rounds={info['rounds']}x{info['round_ops']} ops"
    )
    print(f"   ({SANDBOX_NOTE})")
    print(f"   stream_digest {info['stream_digest']}")
    for name, value in record.get("end_to_end", {}).items():
        note = ""
        if name.startswith("latency"):
            note = f"   ({info['latency_samples']} samples)"
        print(f"   {name:44s} {value:14.4f} {units[name]}{note}")
    print(
        f"   {'failed_share':44s} {info['failed_share']:14.6f} share"
        f"   ({record['failed']} of {record['attempted']})"
    )
    client_s = info["traced_client_s"]
    for name, value in record.get("per_layer", {}).items():
        share = ""
        if client_s and units[name] == "s" and not name.startswith(
            ("datagen.", "replication.catch_up")
        ):
            share = f"   {100.0 * value / client_s:5.1f}% of traced client time"
        print(f"   {name:44s} {value:14.6f} {units[name]}{share}")
    for op_id, table in info.get("tables", {}).items():
        print(
            f"   -- where one {op_id} spends its time ({table['ops']} ops alone, "
            f"{table['wall_ms_per_op']:.3f} ms each) --"
        )
        for layer, row in table["layers"].items():
            print(
                f"      {layer:32s} {row['self_ms_per_op']:10.4f} ms self "
                f"{row['calls_per_op']:8.2f} calls"
            )
        print(f"      {'(unattributed)':32s} {table['unattributed_ms_per_op']:10.4f} ms")
    for problem in record["problems"]:
        print(f"   PROBLEM {problem}")
    for label in record["aborted"]:
        print(f"   ABORTED after every resubmit: {label}")
    print(f"   correct={record['correct']}   (whole run {info['run_s']:.1f} s)")


def append_records(path: str, records: list[dict[str, Any]]) -> None:
    document: dict[str, Any] = {"schema": 1, "runs": []}
    if os.path.exists(path):
        with open(path) as handle:
            document = json.load(handle)
    document["runs"].extend(records)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def final_line(records: list[dict[str, Any]], units: dict[str, str], single: bool) -> str:
    """The contract's result object, as the last line of stdout."""
    metrics: dict[str, Any] = {}
    for record in records:
        chosen = record["per_layer"] if record["trace"] else record["end_to_end"]
        for name, value in chosen.items():
            key = name if single else f"{record['workload']}/{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    return json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    })


# -- running ---------------------------------------------------------------------


def one_processor() -> None:
    """Confine this process, its threads and the workers it forks to one
    processor (the highest-numbered one allowed, away from processor 0's
    interrupt work).

    Two clients beside two worker processes on two shared processors
    measure where the scheduler happened to put them: a pipe round trip
    between a client and a worker took 16 us on one processor and 81 us
    across two, so the routed reads of `point-sharded` ran at 570 to 870
    ops/s from one run to the next, and the two client threads of
    `txn-replicated` settled into one of two lock hand-over regimes (2200
    or 3150 ops/s).  On one processor the same runs gave 770 to 850 and
    2800 to 3300.  Every workload is confined alike, so the unified and
    the sharded numbers compare.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_here(args: argparse.Namespace, names: list[str]) -> list[dict[str, Any]]:
    """Run *names* in this process, one after the other."""
    one_processor()
    import harness
    import metricdefs
    from workloads import RUN_SECONDS

    records = []
    for name in names:
        record = harness.run_workload(
            name,
            args.seed,
            seconds=args.seconds if args.seconds is not None else RUN_SECONDS,
            trace=bool(args.trace) or (args.smoke and args.trace is None),
            smoke=args.smoke,
            corrupt_oracle=args.corrupt_oracle,
            keep_spans=bool(args.spans_dir),
        )
        spans = record.pop("spans")
        if args.spans_dir and spans:
            os.makedirs(args.spans_dir, exist_ok=True)
            with open(os.path.join(args.spans_dir, f"{name}.spans.json"), "w") as out:
                json.dump(spans, out)
        print_record(record, metricdefs.UNITS)
        records.append(record)
    if args.out:
        append_records(args.out, records)
    return records


def run_children(args: argparse.Namespace, names: list[str]) -> list[dict[str, Any]]:
    """Each workload untraced then traced, each run in a fresh process
    (clean peak RSS, cold caches); children append to the records file."""
    path = args.out
    if path is None:
        path = os.path.join(OUT_DIR, "last_run.json")
        if os.path.exists(path):
            os.remove(path)
    already = 0
    if os.path.exists(path):
        with open(path) as handle:
            already = len(json.load(handle)["runs"])
    for name in names:
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--trace", str(trace), "--out", path,
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.spans_dir:
                command += ["--spans-dir", args.spans_dir]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode not in (0, 1):
                raise SystemExit(f"{name} --trace {trace} exited {child.returncode}")
    with open(path) as handle:
        return json.load(handle)["runs"][already:]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        import metricdefs
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"bench: unknown workload {unknown}; have {list(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        if args.workload or args.smoke:
            records = run_here(args, names)
        else:
            records = run_children(args, names)
    finally:
        # Nothing this run started may outlive it.
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
    single = len(names) == 1
    print(final_line(records, metricdefs.UNITS, single))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
