"""Smoke test of the benchmark harness (collected by the tier-1 command).

Drives ``bench/run.py --smoke`` the way a user would — as a child
process — and checks the contract the rest of the repo relies on: every
metric named in ``BENCHMARK.json`` is emitted with its unit, the op
stream and the exact counts are a function of the seed, and a wrong
answer makes the command fail.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
ONE_CLIENT = ("point-unified", "analytic-unified", "txn-unified")
# Counts a one-client run must reproduce exactly from its seed.
EXACT_COUNTS = (
    "engine.wal_appends_per_txn",
    "engine.wal_bytes_per_txn",
    "engine.wal_syncs_per_txn",
    "models.xml.xpath_calls",
    "models.graph.traverse_calls",
    "models.kv.prefix_scan_calls",
    "query.index_lookups_per_query",
    "query.scans_per_query",
    "query.rows_scanned_per_row_returned",
)


def run_smoke(tmp_path, tag, *extra):
    out = tmp_path / f"{tag}.json"
    child = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke",
         "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    records = {}
    if out.exists():
        records = {r["workload"]: r for r in json.loads(out.read_text())["runs"]}
    return child, records


def test_smoke_emits_every_metric_and_is_seeded(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    child, records = run_smoke(tmp_path, "all", "--seed", "42")
    assert child.returncode == 0, child.stdout[-2000:] + child.stderr[-2000:]
    assert list(records) == [w["name"] for w in spec["workloads"]]
    last = json.loads(child.stdout.rstrip().rsplit("\n", 1)[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] > 0

    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for record in records.values():
        assert record["correct"], record["problems"]
        for section in ("end_to_end", "per_layer"):
            emitted = record[section]
            for metric in spec[section]:
                assert metric["name"] in emitted, (record["workload"], metric["name"])
                assert name_ok.fullmatch(metric["name"])
                assert f"{metric['name']:44s}" in child.stdout
            assert len(emitted) == len(spec[section])
        for value in record["end_to_end"].values():
            assert value > 0

    # Units travel with every value on the result line.
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key, entry in last["metrics"].items():
        assert entry["unit"] == units[key.split("/", 1)[1]]

    # Same seed: same stream, same exact counts (one client, no timers).
    again_args = [arg for name in ONE_CLIENT for arg in ("--workload", name)]
    child, again = run_smoke(tmp_path, "again", "--seed", "42", *again_args)
    assert child.returncode == 0, child.stdout[-2000:] + child.stderr[-2000:]
    for name in ONE_CLIENT:
        first, second = records[name], again[name]
        assert first["info"]["stream_digest"] == second["info"]["stream_digest"]
        assert first["attempted"] == second["attempted"]
        for metric in EXACT_COUNTS:
            assert first["per_layer"][metric] == second["per_layer"][metric], metric

    # Another seed: another stream.
    child, other = run_smoke(
        tmp_path, "other", "--seed", "43", "--workload", "point-unified"
    )
    assert child.returncode == 0
    assert (
        other["point-unified"]["info"]["stream_digest"]
        != records["point-unified"]["info"]["stream_digest"]
    )


def test_benchmark_json_repeats_the_metric_definitions():
    spec = importlib.util.spec_from_file_location(
        "bench_metricdefs", os.path.join(BENCH_DIR, "metricdefs.py")
    )
    metricdefs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(metricdefs)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == metricdefs.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == metricdefs.PER_LAYER


def test_corrupted_expected_answer_fails_the_command(tmp_path):
    child, records = run_smoke(
        tmp_path, "corrupt", "--workload", "point-unified", "--corrupt-oracle"
    )
    assert child.returncode != 0
    assert records["point-unified"]["correct"] is False
    assert json.loads(child.stdout.rstrip().rsplit("\n", 1)[-1])["correct"] is False
