"""Versioned multi-model schema registry + data migration driver.

The registry tracks, per collection, the full shape history and the ops
between versions; :func:`migrate_collection` rewrites a live collection
on any driver to the current version and reports migration cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EvolutionError
from repro.models.document.document import deep_copy_json
from repro.schema.evolution import EvolutionOp
from repro.schema.shapes import DocumentShape


@dataclass
class _History:
    versions: list[DocumentShape] = field(default_factory=list)
    ops: list[EvolutionOp] = field(default_factory=list)


class SchemaRegistry:
    """Tracks shape versions per collection and applies evolution ops."""

    def __init__(self) -> None:
        self._histories: dict[str, _History] = {}

    def register(self, shape: DocumentShape) -> None:
        if shape.collection in self._histories:
            raise EvolutionError(f"collection {shape.collection!r} already registered")
        self._histories[shape.collection] = _History(versions=[shape])

    def current(self, collection: str) -> DocumentShape:
        history = self._require(collection)
        return history.versions[-1]

    def version(self, collection: str, number: int) -> DocumentShape:
        history = self._require(collection)
        for shape in history.versions:
            if shape.version == number:
                return shape
        raise EvolutionError(f"no version {number} of {collection!r}")

    def versions(self, collection: str) -> list[DocumentShape]:
        return list(self._require(collection).versions)

    def ops(self, collection: str) -> list[EvolutionOp]:
        return list(self._require(collection).ops)

    def apply(self, op: EvolutionOp) -> DocumentShape:
        """Apply one op, producing and recording the next version."""
        history = self._require(op.collection)
        new_shape = op.apply_to_shape(history.versions[-1])
        history.versions.append(new_shape)
        history.ops.append(op)
        return new_shape

    def ops_between(self, collection: str, from_version: int, to_version: int) -> list[EvolutionOp]:
        """The ops migrating from one version to a later one."""
        history = self._require(collection)
        if from_version > to_version:
            raise EvolutionError("from_version must be <= to_version")
        numbers = [s.version for s in history.versions]
        if from_version not in numbers or to_version not in numbers:
            raise EvolutionError("unknown version number")
        start = numbers.index(from_version)
        end = numbers.index(to_version)
        return history.ops[start:end]

    def _require(self, collection: str) -> _History:
        history = self._histories.get(collection)
        if history is None:
            raise EvolutionError(f"collection {collection!r} is not registered")
        return history


@dataclass
class MigrationResult:
    """Outcome of migrating one collection's data."""

    collection: str
    documents_migrated: int
    seconds: float
    ops_applied: int


def migrate_documents(
    docs: list[dict[str, Any]], ops: list[EvolutionOp]
) -> list[dict[str, Any]]:
    """Pure migration of a document list through an op chain."""
    out = docs
    for op in ops:
        out = [op.migrate_document(d) for d in out]
    return out


def migrate_collection(driver: Any, collection: str, ops: list[EvolutionOp]) -> MigrationResult:
    """Rewrite a live document collection through *ops* on any driver.

    Runs as driver transactions in batches; returns cost accounting used
    by the E2 table's "migration cost" column.
    """
    start = time.perf_counter()
    ctx = driver.query_context()
    try:
        docs = [deep_copy_json(d) for d in ctx.iter_collection(collection)]
    finally:
        close = getattr(ctx, "close", None)
        if close is not None:
            close()
    migrated = migrate_documents(docs, ops)
    batch = 500
    for i in range(0, len(migrated), batch):
        chunk = migrated[i : i + batch]

        def rewrite(session: Any, chunk: list[dict[str, Any]] = chunk) -> None:
            for doc in chunk:
                existing = session.doc_get(collection, doc["_id"])
                if existing is None:
                    session.doc_insert(collection, doc)
                    continue
                # Replace wholesale: delete stale fields, then merge.
                session.doc_delete(collection, doc["_id"])
                session.doc_insert(collection, doc)

        driver.run_transaction(rewrite)
    return MigrationResult(
        collection=collection,
        documents_migrated=len(migrated),
        seconds=time.perf_counter() - start,
        ops_applied=len(ops),
    )
