"""EXPLAIN ANALYZE-lite: run a plan with per-operator actual row counts.

``explain_analyze`` instruments every physical operator with a
transparent counting wrapper, executes the plan for real, and renders
the tree with ``rows=N`` annotations plus the executor's access-path
counters.  This is how scatter-gather behaviour becomes observable: a
routed shard-key lookup shows a small ShardExec row count and
``shard_fanout=1``, while a scatter shows the full gather and
``shard_fanout=N``.

Counts are *output* rows (bindings an operator yielded to its parent).
For a ShardExec subplan the counter sums across shards; the scatter runs
sequentially under ANALYZE so those shared counters stay exact (the
normal execution path keeps its thread pool).

``HashAggregate`` operators additionally report ``rows_in=`` (bindings
consumed) and ``groups=`` (distinct group keys built) per phase, so the
two-phase pushdown's row reduction is directly visible: the partial
phase shows the matching-row input and the small per-shard group
output, and the ShardExec above it shows that only those group states
crossed the gather into the final phase.  ``EquiJoin`` lines say which
side ran: ``build_rows=`` and ``probes=`` for the once-per-query hash
table, ``index_probes=`` for the index nested loop; its inner subplan
renders indented below it, before the outer side.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.query.executor import Executor
from repro.query.parser import parse
from repro.query.physical import PhysicalOperator
from repro.query.planner import plan


class _Counted:
    """Transparent row- and batch-counting wrapper around one operator."""

    __slots__ = ("inner", "rows", "batches")

    def __init__(self, inner: PhysicalOperator) -> None:
        self.inner = inner
        self.rows = 0
        self.batches = 0

    @property
    def child(self):
        return self.inner.child

    @property
    def subplan(self):
        return getattr(self.inner, "subplan", None)

    @property
    def fused_ops(self):
        return getattr(self.inner, "fused_ops", ())

    def label(self) -> str:
        return self.inner.label()

    def run_batches(self, rt, params, seed=None):
        for batch in self.inner.run_batches(rt, params, seed):
            self.rows += len(batch)
            self.batches += 1
            yield batch


def instrument(root: PhysicalOperator) -> "_Counted":
    """Rebuild the tree so every node (and ShardExec subplan) counts rows."""
    kwargs: dict[str, Any] = {}
    if root.child is not None:
        kwargs["child"] = instrument(root.child)
    subplan = getattr(root, "subplan", None)
    if subplan is not None:
        kwargs["subplan"] = instrument(subplan)
    rebuilt = replace(root, **kwargs) if kwargs else root
    return _Counted(rebuilt)


def render_analyzed(
    root: "_Counted", observed: dict[int, dict[str, int]] | None = None
) -> list[str]:
    """Indented tree lines with the observed row counts.

    *observed* is the executor's per-operator observation dict; entries
    (keyed by the id of the operator instance that ran) render as extra
    ``key=value`` actuals after ``rows=`` — HashAggregate reports
    ``rows_in`` and ``groups`` through it.
    """
    lines: list[str] = []

    def walk(node, depth: int) -> None:
        while node is not None:
            if isinstance(node, _Counted):
                actuals = [f"rows={node.rows}", f"batches={node.batches}"]
                if observed is not None:
                    extra = observed.get(id(node.inner))
                    if extra:
                        actuals.extend(
                            f"{key}={value}" for key, value in extra.items()
                        )
            else:
                actuals = ["rows=?"]
            lines.append("  " * depth + f"{node.label()} ({', '.join(actuals)})")
            for op in getattr(node, "fused_ops", ()):
                lines.append("  " * (depth + 1) + "· " + op.label())
            subplan = getattr(node, "subplan", None)
            if subplan is not None:
                walk(subplan, depth + 1)
            node = node.child
            depth += 1

    walk(root, 0)
    return lines


def explain_analyze(
    ctx: Any,
    text: str,
    params: dict[str, Any] | None = None,
    use_indexes: bool = True,
) -> tuple[str, list[Any]]:
    """Execute *text* against *ctx*; return (annotated report, results)."""
    query = parse(text)
    planned = plan(query, getattr(ctx, "catalog", None))
    counted = instrument(planned.root)
    executor = Executor(ctx, use_indexes=use_indexes)
    executor.analyze = True
    executor.observed = {}
    # Every operator line reports the batches it yielded, too.
    results: list[Any] = []
    for batch in counted.run_batches(executor, params or {}):
        results.extend(batch)
    results = executor._copy_out(results)
    lines = ["plan (analyzed):"]
    lines.extend("  " + line for line in render_analyzed(counted, executor.observed))
    if planned.notes:
        lines.append("notes:")
        lines.extend(f"  - {note}" for note in planned.notes)
    # Every registered counter renders, zeros included — a dropped
    # zero made "no index was used" indistinguishable from "index
    # counters don't exist", and the line's shape varied per query.
    stats = ", ".join(f"{k}={v}" for k, v in sorted(executor.stats.items()))
    lines.append(f"stats: {stats or 'none'}")
    return "\n".join(lines), results
