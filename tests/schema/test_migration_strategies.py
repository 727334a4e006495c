"""Eager vs lazy migration: which documents each strategy rewrites.

Counted from the engine's WAL (the distinct ``orders`` keys written
after the migration starts), not from the migrators' own counters:

- eager (:func:`migrate_collection`) rewrites every document up front;
- lazy with repair-on-read rewrites exactly the documents it read, once;
- lazy without repair rewrites nothing, however often it reads.
"""

from __future__ import annotations

import pytest

from repro.engine.records import Model
from repro.schema.evolution import AddField, NestFields, RenameField
from repro.schema.lazy import VERSION_FIELD, LazyMigrator
from repro.schema.registry import SchemaRegistry, migrate_collection
from repro.schema.shapes import orders_shape

CHAIN = [
    AddField("orders", "currency", "string", default="EUR"),
    RenameField("orders", "total_price", "total"),
    NestFields("orders", ("order_date", "status"), "meta"),
]


def _registry() -> SchemaRegistry:
    registry = SchemaRegistry()
    registry.register(orders_shape())
    for op in CHAIN:
        registry.apply(op)
    return registry


def _orders_written_since(driver, mark: int) -> set:
    return {
        rec["key"].key
        for rec in driver.db.wal.records_from(mark)
        if rec["type"] == "write"
        and rec["key"].model is Model.DOCUMENT
        and rec["key"].collection == "orders"
    }


@pytest.fixture()
def read_ids(small_dataset) -> list:
    """Every third order, each read twice."""
    ids = [o["_id"] for o in small_dataset.orders[::3]]
    return ids + ids


def test_eager_rewrites_every_document(fresh_unified, small_dataset, read_ids):
    mark = len(fresh_unified.db.wal)
    result = migrate_collection(fresh_unified, "orders", CHAIN)
    all_ids = {o["_id"] for o in small_dataset.orders}
    assert result.documents_migrated == len(all_ids)
    assert _orders_written_since(fresh_unified, mark) == all_ids
    # Reads afterwards are plain: nothing more is written.
    mark = len(fresh_unified.db.wal)
    for doc_id in read_ids:
        fresh_unified.run_transaction(lambda s, d=doc_id: s.doc_get("orders", d))
    assert _orders_written_since(fresh_unified, mark) == set()


def test_lazy_repair_rewrites_only_what_it_read(fresh_unified, read_ids):
    migrator = LazyMigrator(fresh_unified, _registry(), "orders", repair=True)
    mark = len(fresh_unified.db.wal)
    docs = [migrator.get(doc_id) for doc_id in read_ids]
    assert all(doc[VERSION_FIELD] == 4 for doc in docs)
    assert _orders_written_since(fresh_unified, mark) == set(read_ids)
    # The second read of each document found it already repaired.
    assert migrator.stats.repair_writes == len(set(read_ids))
    assert migrator.stats.upgrades == len(set(read_ids))


def test_lazy_without_repair_rewrites_nothing(fresh_unified, read_ids):
    migrator = LazyMigrator(fresh_unified, _registry(), "orders", repair=False)
    mark = len(fresh_unified.db.wal)
    docs = [migrator.get(doc_id) for doc_id in read_ids]
    assert all(doc[VERSION_FIELD] == 4 for doc in docs)
    assert _orders_written_since(fresh_unified, mark) == set()
    # Every read pays the upgrade again.
    assert migrator.stats.upgrades == len(read_ids)
    assert migrator.stats.repair_writes == 0
