"""Lazy schema migration: upgrade documents on first read.

Eager migration (:func:`repro.schema.registry.migrate_collection`)
rewrites the whole collection at evolution time; *lazy* migration tags
each document with its schema version and applies the pending operator
chain when the document is next read, optionally writing the upgraded
form back (repair-on-read).  E9 measures the trade: eager pays one big
upfront cost, lazy amortises it over reads and never touches cold data.

Documents carry their version in ``_sv`` (absent = version 1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import EvolutionError
from repro.models.document.document import deep_copy_json
from repro.schema.registry import SchemaRegistry

VERSION_FIELD = "_sv"


@dataclass
class LazyStats:
    """Accounting for a lazy-migrating collection."""

    reads: int = 0
    upgrades: int = 0
    ops_applied: int = 0
    repair_writes: int = 0
    upgrade_seconds: float = 0.0

    @property
    def upgrade_rate(self) -> float:
        return self.upgrades / self.reads if self.reads else 0.0


@dataclass
class LazyMigrator:
    """Read-path adapter that upgrades stale documents on access.

    ``repair`` controls write-back: True persists the upgraded document
    (first read pays, later reads are free); False upgrades in memory on
    every read (no write amplification, steady per-read tax).
    """

    driver: Any
    registry: SchemaRegistry
    collection: str
    repair: bool = True
    stats: LazyStats = field(default_factory=LazyStats)

    def current_version(self) -> int:
        return self.registry.current(self.collection).version

    def get(self, doc_id: Any) -> dict[str, Any] | None:
        """Read one document at the *current* schema version."""
        target = self.current_version()
        upgraded: dict[str, Any] | None = None

        def body(session):
            nonlocal upgraded
            doc = session.doc_get(self.collection, doc_id)
            if doc is None:
                return None
            doc, changed = self._upgrade(doc, target)
            if changed and self.repair:
                session.doc_delete(self.collection, doc_id)
                session.doc_insert(self.collection, doc)
                self.stats.repair_writes += 1
            upgraded = doc
            return doc

        self.driver.run_transaction(body)
        self.stats.reads += 1
        return upgraded

    def scan(self) -> list[dict[str, Any]]:
        """Read the whole collection at the current version (no repair)."""
        target = self.current_version()
        out: list[dict[str, Any]] = []
        ctx = self.driver.query_context()
        try:
            for doc in ctx.iter_collection(self.collection):
                upgraded, _ = self._upgrade(deep_copy_json(doc), target)
                out.append(upgraded)
                self.stats.reads += 1
        finally:
            close = getattr(ctx, "close", None)
            if close is not None:
                close()
        return out

    def _upgrade(
        self, doc: dict[str, Any], target: int
    ) -> tuple[dict[str, Any], bool]:
        version = doc.get(VERSION_FIELD, 1)
        if version == target:
            return doc, False
        if version > target:
            raise EvolutionError(
                f"document {doc.get('_id')!r} is at schema v{version}, newer "
                f"than the registry's v{target}"
            )
        started = time.perf_counter()
        ops = self.registry.ops_between(self.collection, version, target)
        for op in ops:
            doc = op.migrate_document(doc)
        doc[VERSION_FIELD] = target
        self.stats.upgrades += 1
        self.stats.ops_applied += len(ops)
        self.stats.upgrade_seconds += time.perf_counter() - started
        return doc, True
