"""Shared state for the two remaining pytest-benchmark gates.

``bench_e15_observability.py`` and ``bench_e16_procpool.py`` each
regenerate one experiment table and print it (run with ``-s`` to see the
tables inline; they are also collected into ``bench_report.txt`` in the
working directory at the end of the session).  The repository's
benchmark is ``python3 bench/run.py``; these two stay until it gates
the observability overhead and the multi-core scatter floor itself.

Machine-readable output: pass ``--bench-json PATH`` (or set the
``BENCH_JSON`` environment variable — ``1`` picks the default
``BENCH_RESULTS.json``) and the session also writes every recorded table
as JSON records.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone

_collected_tables: list[str] = []
_collected_records: list[dict] = []
# Wall-clock start of the harness session, stamped into the JSON
# artifact so runs can be ordered without relying on mtime.
_session_started = datetime.now(timezone.utc).isoformat()


def _git_sha() -> str | None:
    """The checkout's HEAD sha, or None outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except OSError:
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def record_table(table) -> str:
    """Render, remember, and return one experiment table."""
    rendered = table.render()
    _collected_tables.append(rendered)
    _collected_records.append(
        {"title": table.title, "headers": list(table.headers),
         "records": table.to_records()}
    )
    print("\n" + rendered)
    return rendered


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        default=None,
        metavar="PATH",
        help="also write recorded experiment tables as JSON to PATH "
        "(env BENCH_JSON=1 writes BENCH_RESULTS.json)",
    )


def _json_path(session) -> str | None:
    from_cli = session.config.getoption("--bench-json", default=None)
    if from_cli:
        return from_cli
    from_env = os.environ.get("BENCH_JSON", "").strip()
    if not from_env or from_env.lower() in ("0", "false", "no", "off"):
        return None
    return from_env if from_env.lower() not in ("1", "true", "yes") else "BENCH_RESULTS.json"


def pytest_sessionfinish(session, exitstatus):
    if _collected_tables:
        with open("bench_report.txt", "w") as handle:
            handle.write("\n\n".join(_collected_tables) + "\n")
    path = _json_path(session)
    if path and _collected_records:
        # Each table title carries the scale factor it ran at.
        payload = {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "platform": sys.platform,
            "started_at": _session_started,
            "tables": _collected_records,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, default=str)
            handle.write("\n")
