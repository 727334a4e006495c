"""Plan-shape golden: EXPLAIN of Q1-Q12 on every topology.

Renders ``driver.explain`` for each benchmark query on a unified
driver, a 4-shard cluster and a 4-shard x 3-replica cluster loaded with
the SF 0.05 dataset, and compares the text with the checked-in
``plan_golden.txt``.  A planner change that moves any query's plan on
any topology shows up here as a diff, so a change meant to alter one
plan proves it altered no other.

After an intended plan change, regenerate the golden from the repo
root and review its diff::

    PYTHONPATH=src python tests/query/test_plan_golden.py
"""

from __future__ import annotations

import difflib
from pathlib import Path

from repro.cluster.sharded import ShardedDatabase
from repro.core.workloads import QUERY_BY_ID
from repro.datagen.config import GeneratorConfig
from repro.datagen.generator import DatasetGenerator
from repro.datagen.load import load_dataset
from repro.drivers.unified import UnifiedDriver
from repro.replication import ReplicaSetConfig

GOLDEN = Path(__file__).with_name("plan_golden.txt")
DATASET = GeneratorConfig(seed=42, scale_factor=0.05)

TOPOLOGIES = {
    "unified": UnifiedDriver,
    "sharded4": lambda: ShardedDatabase(n_shards=4),
    "replicated4x3": lambda: ShardedDatabase(
        n_shards=4, replication=ReplicaSetConfig(3, write_acks="majority")
    ),
}


def render_plans() -> str:
    """Every topology's EXPLAIN of Q1-Q12, one titled section each."""
    dataset = DatasetGenerator(DATASET).generate()
    sections = []
    for topology, make in TOPOLOGIES.items():
        driver = make()
        try:
            load_dataset(driver, dataset)
            for query_id, query in QUERY_BY_ID.items():
                sections.append(
                    f"=== {topology} {query_id}\n{driver.explain(query.text)}\n"
                )
        finally:
            if isinstance(driver, ShardedDatabase):
                driver.close()
    return "\n".join(sections)


def test_plans_match_golden():
    rendered = render_plans()
    golden = GOLDEN.read_text()
    if rendered != golden:
        diff = "".join(
            difflib.unified_diff(
                golden.splitlines(keepends=True),
                rendered.splitlines(keepends=True),
                fromfile=str(GOLDEN.name),
                tofile="rendered",
            )
        )
        raise AssertionError(
            "EXPLAIN output moved; if intended, regenerate with "
            "`PYTHONPATH=src python tests/query/test_plan_golden.py`\n" + diff
        )


if __name__ == "__main__":
    GOLDEN.write_text(render_plans())
    print(f"wrote {GOLDEN}")
