"""MultiModelDatabase: five data models, one transactional backend.

This is the "unified DBMS" the benchmark evaluates.  Every model API is
available inside a single transaction::

    db = MultiModelDatabase()
    db.create_table(order_schema)
    db.create_collection("orders")
    db.create_kv_namespace("feedback")
    db.create_xml_collection("invoices")
    db.create_graph("social")

    with db.transaction() as tx:
        tx.doc_update("orders", "o1", {"status": "shipped"})
        tx.kv_put("feedback", "p1/c1", {"rating": 5})
        tx.xml_put("invoices", "o1", invoice_tree)
        # ... all-or-nothing across the three models

DDL (create_table & friends) is autocommitted and WAL-logged so crash
recovery restores structure as well as data.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterable, Iterator

from repro.engine.indexes import (
    BTreeIndex,
    HashIndex,
    SortedIndex,
    extract_path,
    field_extractor,
)
from repro.engine.records import Model, RecordKey, copy_value
from repro.engine.transactions import (
    IsolationLevel,
    Store,
    Transaction,
    TransactionManager,
)
from repro.engine.wal import WriteAheadLog
from repro.errors import (
    ConstraintError,
    DocumentError,
    DuplicateCollectionError,
    EngineError,
    GraphError,
    NoSuchCollectionError,
    TransactionError,
)
from repro.models.document.document import validate_json_value
from repro.models.graph.property_graph import Edge, Vertex
from repro.models.graph.traversal import bfs_depth_range
from repro.models.relational.predicate import Predicate
from repro.models.relational.schema import TableSchema
from repro.models.xml.node import XmlElement
from repro.models.xml.xpath import XPath


class _GraphMeta:
    """Committed adjacency index for one named graph (latest-committed view)."""

    def __init__(self) -> None:
        self.out_edges: dict[Any, set[Any]] = {}
        self.in_edges: dict[Any, set[Any]] = {}


class MultiModelDatabase:
    """The unified multi-model database (system under test)."""

    def __init__(self, name: str = "udbms", wal_sync_every_append: bool = True) -> None:
        self.name = name
        self.store = Store()
        self.wal = WriteAheadLog(sync_every_append=wal_sync_every_append)
        self.wal.tag = name
        self.manager = TransactionManager(self.store, self.wal)
        self._table_schemas: dict[str, TableSchema] = {}
        self._graphs: dict[str, _GraphMeta] = {}
        self._next_edge_id = 1
        # indexes[(model, collection)][index_name] = HashIndex | SortedIndex
        self._indexes: dict[tuple[Model, str], dict[str, Any]] = {}
        # Bumped by DDL that changes planning inputs (index create/drop);
        # part of every plan-cache key, so cached plans go stale safely.
        self.catalog_epoch = 0
        self.store.on_apply.append(self._maintain_indexes)
        self.store.on_apply.append(self._maintain_adjacency)

    # ------------------------------------------------------------------
    # DDL (autocommitted, WAL-logged)
    # ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        """Register a relational table."""
        if self.store.has_collection(Model.RELATIONAL, schema.name):
            raise DuplicateCollectionError(f"table {schema.name!r} exists")
        self.store.register_collection(Model.RELATIONAL, schema.name)
        self._table_schemas[schema.name] = schema
        self.wal.append({"type": "ddl", "op": "create_table", "schema": schema})

    def set_table_schema(self, schema: TableSchema) -> None:
        """Swap in an evolved schema version (schema-evolution pillar)."""
        if schema.name not in self._table_schemas:
            raise NoSuchCollectionError(f"no table {schema.name!r}")
        self._table_schemas[schema.name] = schema
        self.wal.append({"type": "ddl", "op": "set_table_schema", "schema": schema})

    def table_schema(self, name: str) -> TableSchema:
        schema = self._table_schemas.get(name)
        if schema is None:
            raise NoSuchCollectionError(f"no table {name!r}")
        return schema

    def create_collection(self, name: str) -> None:
        """Register a JSON document collection."""
        if self.store.has_collection(Model.DOCUMENT, name):
            raise DuplicateCollectionError(f"collection {name!r} exists")
        self.store.register_collection(Model.DOCUMENT, name)
        self.wal.append({"type": "ddl", "op": "create_collection", "name": name})

    def create_xml_collection(self, name: str) -> None:
        """Register an XML document collection."""
        if self.store.has_collection(Model.XML, name):
            raise DuplicateCollectionError(f"xml collection {name!r} exists")
        self.store.register_collection(Model.XML, name)
        self.wal.append({"type": "ddl", "op": "create_xml_collection", "name": name})

    def create_kv_namespace(self, name: str) -> None:
        """Register a key-value namespace."""
        if self.store.has_collection(Model.KEY_VALUE, name):
            raise DuplicateCollectionError(f"kv namespace {name!r} exists")
        self.store.register_collection(Model.KEY_VALUE, name)
        self.wal.append({"type": "ddl", "op": "create_kv_namespace", "name": name})

    def create_graph(self, name: str) -> None:
        """Register a property graph."""
        if name in self._graphs:
            raise DuplicateCollectionError(f"graph {name!r} exists")
        self.store.register_collection(Model.GRAPH_VERTEX, name)
        self.store.register_collection(Model.GRAPH_EDGE, name)
        self._graphs[name] = _GraphMeta()
        self.wal.append({"type": "ddl", "op": "create_graph", "name": name})

    def create_index(
        self,
        model: Model,
        collection: str,
        field: str,
        kind: str = "hash",
        extractor: Callable[[Any], Any] | None = None,
    ) -> str:
        """Create a secondary index on a field of a collection.

        Returns the index name.  Existing committed records are back-filled.
        """
        index_name = self._build_index(model, collection, field, kind, extractor)
        self.wal.append(
            {"type": "ddl", "op": "create_index", "model": model,
             "collection": collection, "field": field, "kind": kind}
        )
        return index_name

    def _build_index(
        self,
        model: Model,
        collection: str,
        field: str,
        kind: str = "hash",
        extractor: Callable[[Any], Any] | None = None,
    ) -> str:
        """Register + back-fill an index without logging DDL.

        DDL replay (:meth:`_replay_ddl`) must come through here, not
        :meth:`create_index`: replaying a logged record may never append
        a fresh one, or recovery/promotion would duplicate the DDL tail
        of the very log it is replaying.
        """
        if not self.store.has_collection(model, collection):
            raise NoSuchCollectionError(f"no {model.value} collection {collection!r}")
        index_name = f"{model.value}:{collection}:{field}:{kind}"
        extract = extractor if extractor is not None else field_extractor(field)
        if kind == "hash":
            index: Any = HashIndex(index_name, extract)
        elif kind == "sorted":
            index = SortedIndex(index_name, extract)
        elif kind == "btree":
            index = BTreeIndex(index_name, extract)
        else:
            raise EngineError(f"unknown index kind {kind!r}")
        bucket = self._indexes.setdefault((model, collection), {})
        if index_name in bucket:
            raise DuplicateCollectionError(f"index {index_name!r} exists")
        # Back-fill from the latest committed state.
        for raw_key, chain in self.store.collection(model, collection).items():
            latest = chain.latest()
            if latest is not None and latest.value is not None:
                index.on_write(
                    RecordKey(model, collection, raw_key), None, latest.value
                )
        bucket[index_name] = index
        self.catalog_epoch += 1
        return index_name

    def index(self, model: Model, collection: str, field: str, kind: str = "hash"):
        """Look up an index object, or None if absent."""
        bucket = self._indexes.get((model, collection), {})
        return bucket.get(f"{model.value}:{collection}:{field}:{kind}")

    def list_collections(self) -> dict[str, list[str]]:
        """Collection names per model family (for tooling and reports)."""
        return {
            "tables": sorted(self._table_schemas),
            "collections": sorted(self.store.collection_names(Model.DOCUMENT)),
            "xml_collections": sorted(self.store.collection_names(Model.XML)),
            "kv_namespaces": sorted(self.store.collection_names(Model.KEY_VALUE)),
            "graphs": sorted(self._graphs),
        }

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(
        self, isolation: IsolationLevel = IsolationLevel.SNAPSHOT
    ) -> "Session":
        """Begin an explicit transaction; caller commits or aborts."""
        return Session(self, self.manager.begin(isolation))

    @contextlib.contextmanager
    def transaction(
        self, isolation: IsolationLevel = IsolationLevel.SNAPSHOT
    ) -> Iterator["Session"]:
        """Context manager: commit on success, abort on exception."""
        session = self.begin(isolation)
        try:
            yield session
        except BaseException:
            if session.txn.state.value == "active":
                session.abort()
            raise
        else:
            if session.txn.state.value == "active":
                session.commit()

    # ------------------------------------------------------------------
    # Maintenance and fault injection
    # ------------------------------------------------------------------

    def vacuum(self) -> int:
        """Garbage-collect record versions hidden from all snapshots."""
        return self.manager.vacuum()

    def checkpoint(self) -> None:
        """Write a checkpoint record (call only with no active txns)."""
        if self.manager.active or self.manager.prepared:
            raise TransactionError("checkpoint requires a quiescent database")
        self.wal.log_checkpoint(self.manager.current_ts)

    def crash(self) -> "MultiModelDatabase":
        """Simulate a crash: lose unsynced WAL tail, recover a fresh instance.

        Returns the recovered database; the original instance must not be
        used afterwards.
        """
        self.wal.crash()
        return MultiModelDatabase.recover(self.wal)

    @classmethod
    def recover(cls, wal: WriteAheadLog) -> "MultiModelDatabase":
        """Rebuild a database from a WAL: replay DDL, then committed writes.

        Checksums are verified first: a torn or bit-flipped record (and
        everything after it) is cut before replay, so corruption bounds
        loss to the damaged suffix instead of deserialising garbage.
        """
        wal.truncate_corrupt()
        db = cls.__new__(cls)
        db.name = "recovered"
        db.store = Store()
        fresh_wal = WriteAheadLog(sync_every_append=wal.sync_every_append)
        fresh_wal.tag = wal.tag
        # Corruption counters survive recovery: the fresh WAL is the same
        # logical log, and obs collectors re-read them after rebuild.
        fresh_wal.corrupt_records_detected = wal.corrupt_records_detected
        fresh_wal.corrupt_records_dropped = wal.corrupt_records_dropped
        db.wal = fresh_wal
        db.manager = TransactionManager(db.store, fresh_wal)
        db._table_schemas = {}
        db._graphs = {}
        db._next_edge_id = 1
        db._indexes = {}
        # Fresh planning epoch: replayed create_index DDL bumps it just
        # like live DDL (recovery crashed on the += before this existed).
        db.catalog_epoch = 0
        db.store.on_apply.append(db._maintain_indexes)
        db.store.on_apply.append(db._maintain_adjacency)
        final_state = replay_log(db, wal, wal.records())
        # Re-log structure and final state into the fresh WAL so a second
        # crash also recovers (a compaction, effectively).
        for rec in wal.records():
            if rec["type"] == "ddl":
                fresh_wal.append(dict(rec))
        if final_state:
            for key, value in final_state.items():
                fresh_wal.log_write(0, key, value)
            fresh_wal.log_commit(0, db.manager.current_ts)
        return db

    def _replay_ddl(self, rec: dict[str, Any]) -> None:
        op = rec["op"]
        if op == "create_table":
            self.store.register_collection(Model.RELATIONAL, rec["schema"].name)
            self._table_schemas[rec["schema"].name] = rec["schema"]
        elif op == "set_table_schema":
            self._table_schemas[rec["schema"].name] = rec["schema"]
        elif op == "create_collection":
            self.store.register_collection(Model.DOCUMENT, rec["name"])
        elif op == "create_xml_collection":
            self.store.register_collection(Model.XML, rec["name"])
        elif op == "create_kv_namespace":
            self.store.register_collection(Model.KEY_VALUE, rec["name"])
        elif op == "create_graph":
            self.store.register_collection(Model.GRAPH_VERTEX, rec["name"])
            self.store.register_collection(Model.GRAPH_EDGE, rec["name"])
            self._graphs[rec["name"]] = _GraphMeta()
        elif op == "create_index":
            self._build_index(
                rec["model"], rec["collection"], rec["field"], rec["kind"]
            )
        else:
            raise EngineError(f"unknown DDL op {op!r} in WAL")

    # ------------------------------------------------------------------
    # Apply-path hooks
    # ------------------------------------------------------------------

    def _maintain_indexes(self, key: RecordKey, old_value: Any, new_value: Any) -> None:
        bucket = self._indexes.get((key.model, key.collection))
        if not bucket:
            return
        for index in bucket.values():
            index.on_write(key, old_value, new_value)

    def _maintain_adjacency(self, key: RecordKey, old_value: Any, new_value: Any) -> None:
        if key.model is not Model.GRAPH_EDGE:
            return
        meta = self._graphs.get(key.collection)
        if meta is None:
            return
        if old_value is not None:
            meta.out_edges.get(old_value["src"], set()).discard(key.key)
            meta.in_edges.get(old_value["dst"], set()).discard(key.key)
        if new_value is not None:
            meta.out_edges.setdefault(new_value["src"], set()).add(key.key)
            meta.in_edges.setdefault(new_value["dst"], set()).add(key.key)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def count_live(self, model: Model, name: str, ts: int | None = None) -> int:
        """Live record count for one collection at snapshot *ts*
        (default: latest committed).

        Shared by :meth:`stats` and the cluster layer's per-shard /
        aggregated statistics (broadcast collections must count one
        replica, which family-level sums cannot express).  Callers
        counting several collections should capture one timestamp and
        pass it, so the counts describe a single snapshot.
        """
        coll = self.store.collection(model, name)
        if ts is None:
            ts = self.manager.current_ts
        n = 0
        for chain in coll.values():
            v = chain.visible_at(ts)
            if v is not None and v.value is not None:
                n += 1
        return n

    def stats(self) -> dict[str, int]:
        """Latest-committed record counts per model family (one snapshot)."""
        counts = {
            "tables": 0, "rows": 0, "collections": 0, "documents": 0,
            "xml_collections": 0, "xml_documents": 0, "kv_namespaces": 0,
            "kv_pairs": 0, "graphs": len(self._graphs), "vertices": 0, "edges": 0,
        }
        ts = self.manager.current_ts
        for name in self._table_schemas:
            counts["tables"] += 1
            counts["rows"] += self.count_live(Model.RELATIONAL, name, ts)
        for name in self.store.collection_names(Model.DOCUMENT):
            counts["collections"] += 1
            counts["documents"] += self.count_live(Model.DOCUMENT, name, ts)
        for name in self.store.collection_names(Model.XML):
            counts["xml_collections"] += 1
            counts["xml_documents"] += self.count_live(Model.XML, name, ts)
        for name in self.store.collection_names(Model.KEY_VALUE):
            counts["kv_namespaces"] += 1
            counts["kv_pairs"] += self.count_live(Model.KEY_VALUE, name, ts)
        for name in self._graphs:
            counts["vertices"] += self.count_live(Model.GRAPH_VERTEX, name, ts)
            counts["edges"] += self.count_live(Model.GRAPH_EDGE, name, ts)
        return counts

    def allocate_edge_id(self) -> int:
        edge_id = self._next_edge_id
        self._next_edge_id += 1
        return edge_id


def replay_log(
    db: MultiModelDatabase, wal: WriteAheadLog, records: Iterable[dict[str, Any]]
) -> dict[RecordKey, Any]:
    """Whole-log redo onto an empty *db*: DDL, then committed writes.

    The one replay shared by crash recovery and replica promotion.
    *records* is the slice of *wal* whose DDL counts (recovery trusts
    the durable prefix, promotion the whole shipped log).  Leaves the
    commit clock at the highest replayed timestamp and the edge-id and
    transaction-id counters past every id in the log; returns the
    committed history collapsed to one value per record, in commit
    order — what recovery re-logs as its compaction.
    """
    max_txn_id = 0
    for rec in records:
        if rec["type"] == "ddl":
            db._replay_ddl(rec)
        max_txn_id = max(max_txn_id, rec.get("txn") or 0)
    final_state: dict[RecordKey, Any] = {}
    max_ts = 0
    for ts, key, value in wal.replay():
        db.store.apply_committed_write(ts, key, value, txn_id=0)
        final_state[key] = value
        max_ts = max(max_ts, ts)
        if key.model is Model.GRAPH_EDGE and isinstance(key.key, int):
            db._next_edge_id = max(db._next_edge_id, key.key + 1)
    db.manager.current_ts = max_ts
    db.manager._next_txn_id = max_txn_id + 1
    return final_state


def redo_record(
    db: MultiModelDatabase,
    pending: dict[int, list[tuple[RecordKey, Any]]],
    rec: dict[str, Any],
) -> None:
    """Incremental redo: one shipped WAL record onto a replica's view.

    The one redo shared by replica-set followers and worker-process
    read replicas.  Write records buffer in *pending* per transaction;
    a commit (or a 2PC commit decision) applies them at its timestamp
    and advances the view's clock; an abort decision drops them; a
    prepare leaves them pending — in doubt — until its decision ships.
    DDL goes through the non-logging replay path.
    """
    kind = rec["type"]
    if kind == "write":
        pending.setdefault(rec["txn"], []).append((rec["key"], rec["value"]))
    elif kind == "commit" or (kind == "decision" and rec["decision"] == "commit"):
        ts = rec["ts"]
        for key, value in pending.pop(rec["txn"], ()):
            db.store.apply_committed_write(ts, key, value, txn_id=0)
            if key.model is Model.GRAPH_EDGE and isinstance(key.key, int):
                db._next_edge_id = max(db._next_edge_id, key.key + 1)
        db.manager.current_ts = max(db.manager.current_ts, ts)
    elif kind == "decision":
        pending.pop(rec["txn"], None)
    elif kind == "ddl":
        db._replay_ddl(rec)
    # begin / prepare / checkpoint: nothing to materialise.


class Session:
    """The per-transaction multi-model API surface.

    Thin, validated wrappers that translate model operations into record
    reads/writes on the underlying :class:`Transaction`.  The transaction
    hands back stored objects; every value a public read returns leaves
    through :attr:`_out`, the one copy-out seam, so no caller can alias
    committed state, a WAL record or another caller's result.
    """

    _out = staticmethod(copy_value)

    def __init__(self, db: MultiModelDatabase, txn: Transaction) -> None:
        self.db = db
        self.txn = txn

    # -- lifecycle ---------------------------------------------------------

    def commit(self) -> int:
        return self.txn.commit()

    def abort(self) -> None:
        self.txn.abort()

    # -- two-phase commit (participant surface for the cluster layer) -------

    def prepare(self, global_id: int) -> None:
        """Vote on global txn *global_id*: durable writes, pinned locks."""
        self.txn.manager.prepare(self.txn, global_id)

    def commit_prepared(self) -> int:
        return self.txn.manager.commit_prepared(self.txn)

    def abort_prepared(self) -> None:
        self.txn.manager.abort_prepared(self.txn)

    def reserve_id(self, collection: str, doc_id: Any) -> None:
        """Stake a transactional claim on *doc_id* of *collection*.

        The reservation is an ordinary buffered write (value ``True``,
        tombstoned by :meth:`release_id`) on a :attr:`Model.SYSTEM`
        record, so it rides the full commit/prepare/recovery machinery:
        two transactions claiming the same id are a write-write conflict
        and first-committer-wins (or the prepare-time validation) aborts
        one.  The cluster layer reserves each inserted ``_id`` on its
        hash-owner shard to make cluster-wide ``_id`` uniqueness atomic.
        """
        self.txn.write(RecordKey(Model.SYSTEM, collection, doc_id), True)

    def release_id(self, collection: str, doc_id: Any) -> None:
        self.txn.delete(RecordKey(Model.SYSTEM, collection, doc_id))

    # -- relational ----------------------------------------------------------

    def sql_insert(self, table: str, values: dict[str, Any]) -> tuple[Any, ...]:
        schema = self.db.table_schema(table)
        row = schema.validate_row(dict(values))
        pk = schema.primary_key_of(row)
        key = RecordKey(Model.RELATIONAL, table, pk)
        self.txn.declare_insert(Model.RELATIONAL, table)
        if self.txn.read(key) is not None:
            raise ConstraintError(f"duplicate primary key {pk!r} in {table!r}")
        self.txn.write(key, row)
        return pk

    def sql_get(self, table: str, pk: tuple[Any, ...]) -> dict[str, Any] | None:
        self.db.table_schema(table)  # existence check
        return self._out(self.txn.read(RecordKey(Model.RELATIONAL, table, tuple(pk))))

    def sql_update(
        self, table: str, pk: tuple[Any, ...], changes: dict[str, Any]
    ) -> dict[str, Any]:
        schema = self.db.table_schema(table)
        key = RecordKey(Model.RELATIONAL, table, tuple(pk))
        row = copy_value(self.txn.read(key))
        if row is None:
            raise ConstraintError(f"no row {pk!r} in {table!r}")
        row.update(changes)
        row = schema.validate_row(row)
        if schema.primary_key_of(row) != tuple(pk):
            raise ConstraintError("primary-key updates are not supported")
        self.txn.write(key, row)
        return row

    def sql_delete(self, table: str, pk: tuple[Any, ...]) -> bool:
        self.db.table_schema(table)
        key = RecordKey(Model.RELATIONAL, table, tuple(pk))
        self.txn.declare_insert(Model.RELATIONAL, table)
        if self.txn.read(key) is None:
            return False
        self.txn.delete(key)
        return True

    def sql_scan(
        self, table: str, predicate: Predicate | None = None
    ) -> Iterator[dict[str, Any]]:
        self.db.table_schema(table)
        out = self._out
        for _, row in self.txn.scan(Model.RELATIONAL, table):
            if predicate is None or predicate.matches(row):
                yield out(row)

    def sql_find(self, table: str, field: str, value: Any) -> list[dict[str, Any]]:
        """Equality lookup, via a hash index when one exists."""
        return self._indexed_find(Model.RELATIONAL, table, field, value)

    # -- documents ------------------------------------------------------------

    def doc_insert(self, collection: str, doc: dict[str, Any]) -> str | int:
        self._require(Model.DOCUMENT, collection)
        if "_id" not in doc:
            raise DocumentError("document requires an '_id' field")
        validate_json_value(doc)
        key = RecordKey(Model.DOCUMENT, collection, doc["_id"])
        self.txn.declare_insert(Model.DOCUMENT, collection)
        if self.txn.read(key) is not None:
            raise DocumentError(f"duplicate _id {doc['_id']!r} in {collection!r}")
        self.txn.write(key, dict(doc))
        return doc["_id"]

    def doc_get(self, collection: str, doc_id: str | int) -> dict[str, Any] | None:
        self._require(Model.DOCUMENT, collection)
        return self._out(self.txn.read(RecordKey(Model.DOCUMENT, collection, doc_id)))

    def doc_update(
        self, collection: str, doc_id: str | int, changes: dict[str, Any]
    ) -> dict[str, Any]:
        self._require(Model.DOCUMENT, collection)
        key = RecordKey(Model.DOCUMENT, collection, doc_id)
        doc = copy_value(self.txn.read(key))
        if doc is None:
            raise DocumentError(f"no document {doc_id!r} in {collection!r}")
        if changes.get("_id", doc_id) != doc_id:
            raise DocumentError("cannot change a document's _id")
        doc.update(changes)
        validate_json_value(doc)
        self.txn.write(key, doc)
        return doc

    def doc_delete(self, collection: str, doc_id: str | int) -> bool:
        self._require(Model.DOCUMENT, collection)
        key = RecordKey(Model.DOCUMENT, collection, doc_id)
        self.txn.declare_insert(Model.DOCUMENT, collection)
        if self.txn.read(key) is None:
            return False
        self.txn.delete(key)
        return True

    def doc_scan(self, collection: str) -> Iterator[dict[str, Any]]:
        self._require(Model.DOCUMENT, collection)
        out = self._out
        for _, doc in self.txn.scan(Model.DOCUMENT, collection):
            yield out(doc)

    def doc_find(self, collection: str, field: str, value: Any) -> list[dict[str, Any]]:
        """Equality lookup, via a hash index when one exists."""
        return self._indexed_find(Model.DOCUMENT, collection, field, value)

    # -- XML --------------------------------------------------------------------

    def xml_put(self, collection: str, doc_id: str | int, tree: XmlElement) -> None:
        self._require(Model.XML, collection)
        if not isinstance(tree, XmlElement):
            raise EngineError("xml_put requires an XmlElement root")
        self.txn.declare_insert(Model.XML, collection)
        self.txn.write(RecordKey(Model.XML, collection, doc_id), tree)

    def xml_get(self, collection: str, doc_id: str | int) -> XmlElement | None:
        self._require(Model.XML, collection)
        return self._out(self.txn.read(RecordKey(Model.XML, collection, doc_id)))

    def xml_delete(self, collection: str, doc_id: str | int) -> bool:
        self._require(Model.XML, collection)
        key = RecordKey(Model.XML, collection, doc_id)
        self.txn.declare_insert(Model.XML, collection)
        if self.txn.read(key) is None:
            return False
        self.txn.delete(key)
        return True

    def xml_scan(self, collection: str) -> Iterator[tuple[str | int, XmlElement]]:
        self._require(Model.XML, collection)
        out = self._out
        for doc_id, tree in self.txn.scan(Model.XML, collection):
            yield doc_id, out(tree)

    def xml_xpath(self, collection: str, doc_id: str | int, path: str) -> list[Any]:
        """Evaluate an XPath against one stored XML document."""
        self._require(Model.XML, collection)
        tree = self.txn.read(RecordKey(Model.XML, collection, doc_id))
        if tree is None:
            return []
        return [self._out(hit) for hit in XPath(path).find(tree)]

    # -- key-value -----------------------------------------------------------------

    def kv_put(self, namespace: str, key: str, value: Any) -> None:
        self._require(Model.KEY_VALUE, namespace)
        if not isinstance(key, str) or not key:
            raise EngineError("kv keys must be non-empty strings")
        validate_json_value(value)
        self.txn.declare_insert(Model.KEY_VALUE, namespace)
        self.txn.write(RecordKey(Model.KEY_VALUE, namespace, key), value)

    def kv_get(self, namespace: str, key: str, default: Any = None) -> Any:
        self._require(Model.KEY_VALUE, namespace)
        value = self.txn.read(RecordKey(Model.KEY_VALUE, namespace, key))
        return self._out(value) if value is not None else default

    def kv_delete(self, namespace: str, key: str) -> bool:
        self._require(Model.KEY_VALUE, namespace)
        record_key = RecordKey(Model.KEY_VALUE, namespace, key)
        self.txn.declare_insert(Model.KEY_VALUE, namespace)
        if self.txn.read(record_key) is None:
            return False
        self.txn.delete(record_key)
        return True

    def kv_scan_prefix(self, namespace: str, prefix: str) -> list[tuple[str, Any]]:
        self._require(Model.KEY_VALUE, namespace)
        return self._kv_scan(
            namespace, lambda k: isinstance(k, str) and k.startswith(prefix)
        )

    def kv_scan_range(
        self, namespace: str, low: str, high: str, limit: int | None = None
    ) -> list[tuple[str, Any]]:
        """Ordered pairs with ``low <= key < high``, optionally limited."""
        self._require(Model.KEY_VALUE, namespace)
        if low > high:
            raise EngineError(f"bad kv range [{low!r}, {high!r})")
        return self._kv_scan(
            namespace, lambda k: isinstance(k, str) and low <= k < high, limit
        )

    def _kv_scan(
        self, namespace: str, key_filter: Callable[[Any], bool], limit: int | None = None
    ) -> list[tuple[str, Any]]:
        """Key-ordered pairs of the keys *key_filter* accepts, copied out."""
        pairs = sorted(
            self.txn.scan(Model.KEY_VALUE, namespace, key_filter),
            key=lambda pair: pair[0],
        )
        return [(key, self._out(value)) for key, value in pairs[:limit]]

    # -- graph ------------------------------------------------------------------------

    def graph_add_vertex(
        self, graph: str, vertex_id: Any, label: str, **properties: Any
    ) -> Vertex:
        self._require_graph(graph)
        key = RecordKey(Model.GRAPH_VERTEX, graph, vertex_id)
        self.txn.declare_insert(Model.GRAPH_VERTEX, graph)
        if self.txn.read(key) is not None:
            raise GraphError(f"vertex {vertex_id!r} already exists in {graph!r}")
        self.txn.write(key, {"label": label, "props": dict(properties)})
        return Vertex(vertex_id, label, dict(properties))

    def graph_vertex(self, graph: str, vertex_id: Any) -> Vertex | None:
        self._require_graph(graph)
        value = self.txn.read(RecordKey(Model.GRAPH_VERTEX, graph, vertex_id))
        if value is None:
            return None
        return Vertex(vertex_id, value["label"], self._out(value["props"]))

    def graph_update_vertex(self, graph: str, vertex_id: Any, **changes: Any) -> Vertex:
        self._require_graph(graph)
        key = RecordKey(Model.GRAPH_VERTEX, graph, vertex_id)
        value = copy_value(self.txn.read(key))
        if value is None:
            raise GraphError(f"no vertex {vertex_id!r} in {graph!r}")
        value["props"].update(changes)
        self.txn.write(key, value)
        return Vertex(vertex_id, value["label"], value["props"])

    def graph_add_edge(
        self, graph: str, src: Any, dst: Any, label: str, **properties: Any
    ) -> Edge:
        self._require_graph(graph)
        if self.txn.read(RecordKey(Model.GRAPH_VERTEX, graph, src)) is None:
            raise GraphError(f"edge source {src!r} does not exist in {graph!r}")
        if self.txn.read(RecordKey(Model.GRAPH_VERTEX, graph, dst)) is None:
            raise GraphError(f"edge target {dst!r} does not exist in {graph!r}")
        edge_id = self.db.allocate_edge_id()
        self.txn.declare_insert(Model.GRAPH_EDGE, graph)
        self.txn.write(
            RecordKey(Model.GRAPH_EDGE, graph, edge_id),
            {"src": src, "dst": dst, "label": label, "props": dict(properties)},
        )
        return Edge(edge_id, src, dst, label, dict(properties))

    def graph_remove_edge(self, graph: str, edge_id: int) -> bool:
        self._require_graph(graph)
        key = RecordKey(Model.GRAPH_EDGE, graph, edge_id)
        self.txn.declare_insert(Model.GRAPH_EDGE, graph)
        if self.txn.read(key) is None:
            return False
        self.txn.delete(key)
        return True

    def graph_out_edges(self, graph: str, vertex_id: Any, label: str | None = None) -> list[Edge]:
        return self._adjacent(graph, vertex_id, label, direction="out")

    def graph_in_edges(self, graph: str, vertex_id: Any, label: str | None = None) -> list[Edge]:
        return self._adjacent(graph, vertex_id, label, direction="in")

    def graph_out_neighbors(
        self, graph: str, vertex_id: Any, label: str | None = None
    ) -> list[Vertex]:
        out = []
        for edge in self.graph_out_edges(graph, vertex_id, label):
            v = self.graph_vertex(graph, edge.dst)
            if v is not None:
                out.append(v)
        return out

    def graph_in_neighbors(
        self, graph: str, vertex_id: Any, label: str | None = None
    ) -> list[Vertex]:
        out = []
        for edge in self.graph_in_edges(graph, vertex_id, label):
            v = self.graph_vertex(graph, edge.src)
            if v is not None:
                out.append(v)
        return out

    def graph_traverse(
        self,
        graph: str,
        start: Any,
        min_depth: int,
        max_depth: int,
        edge_label: str | None = None,
    ) -> list[Any]:
        """BFS vertex ids whose depth from *start* is in [min_depth, max_depth].

        This is the engine-side primitive behind MMQL's TRAVERSE clause;
        the BFS itself is shared with the cluster layer's cross-shard
        traversal (:func:`repro.models.graph.traversal.bfs_depth_range`).
        """
        if min_depth < 0 or max_depth < min_depth:
            raise GraphError(f"bad depth range {min_depth}..{max_depth}")
        self._require_graph(graph)
        if self.txn.read(RecordKey(Model.GRAPH_VERTEX, graph, start)) is None:
            raise GraphError(f"no vertex {start!r} in {graph!r}")
        return bfs_depth_range(
            start, min_depth, max_depth,
            lambda vid: self.graph_out_edges(graph, vid, edge_label),
        )

    def graph_vertices(self, graph: str, label: str | None = None) -> Iterator[Vertex]:
        self._require_graph(graph)
        for vid, value in self.txn.scan(Model.GRAPH_VERTEX, graph):
            if label is None or value["label"] == label:
                yield Vertex(vid, value["label"], self._out(value["props"]))

    def graph_edges(self, graph: str, label: str | None = None) -> Iterator[Edge]:
        self._require_graph(graph)
        for eid, value in self.txn.scan(Model.GRAPH_EDGE, graph):
            if label is None or value["label"] == label:
                yield self._edge(eid, value)

    # -- internals ------------------------------------------------------------------------

    def _adjacent(
        self, graph: str, vertex_id: Any, label: str | None, direction: str
    ) -> list[Edge]:
        """Adjacency lookup: committed index + own write-set overlay."""
        meta = self._require_graph(graph)
        index = meta.out_edges if direction == "out" else meta.in_edges
        candidate_ids = set(index.get(vertex_id, ()))
        # Overlay: edges this transaction added or deleted.
        for record_key, value in self.txn.write_set.items():
            if record_key.model is not Model.GRAPH_EDGE or record_key.collection != graph:
                continue
            if value is None:
                candidate_ids.discard(record_key.key)
            else:
                endpoint = value["src"] if direction == "out" else value["dst"]
                if endpoint == vertex_id:
                    candidate_ids.add(record_key.key)
        edges: list[Edge] = []
        for edge_id in sorted(candidate_ids, key=lambda e: (str(type(e)), str(e))):
            value = self.txn.read(RecordKey(Model.GRAPH_EDGE, graph, edge_id))
            if value is None:
                continue  # not visible at this snapshot
            endpoint = value["src"] if direction == "out" else value["dst"]
            if endpoint != vertex_id:
                continue
            if label is not None and value["label"] != label:
                continue
            edges.append(self._edge(edge_id, value))
        return edges

    def _edge(self, edge_id: Any, value: dict[str, Any]) -> Edge:
        return Edge(
            edge_id, value["src"], value["dst"], value["label"], self._out(value["props"])
        )

    def _indexed_find(
        self, model: Model, collection: str, field: str, value: Any
    ) -> list[dict[str, Any]]:
        """Equality lookup using a hash index when available, else a scan.

        Index lookups reflect the latest committed state; each candidate
        is re-read through the transaction so visibility and own-write
        overlays still apply.
        """
        self._require(model, collection)
        index = self.db.index(model, collection, field)
        results: list[dict[str, Any]] = []
        if index is not None:
            seen_keys: set[Any] = set()
            for record_key in index.lookup(value):
                seen_keys.add(record_key.key)
                row = self.txn.read(record_key)
                if row is not None and extract_path(row, field) == value:
                    results.append(self._out(row))
            # Own uncommitted writes are not in the committed index.
            for record_key, buffered in self.txn.write_set.items():
                if (
                    record_key.model is model
                    and record_key.collection == collection
                    and record_key.key not in seen_keys
                    and buffered is not None
                    and extract_path(buffered, field) == value
                ):
                    results.append(self._out(buffered))
            return results
        for _, row in self.txn.scan(model, collection):
            if isinstance(row, dict) and extract_path(row, field) == value:
                results.append(self._out(row))
        return results

    def _require(self, model: Model, collection: str) -> None:
        if not self.store_has(model, collection):
            raise NoSuchCollectionError(
                f"no {model.value} collection {collection!r}"
            )

    def store_has(self, model: Model, collection: str) -> bool:
        return self.db.store.has_collection(model, collection)

    def _require_graph(self, graph: str) -> _GraphMeta:
        meta = self.db._graphs.get(graph)
        if meta is None:
            raise NoSuchCollectionError(f"no graph {graph!r}")
        return meta


class _BorrowingSession(Session):
    """The query engine's side of the seam: reads return stored objects.

    Only :class:`~repro.drivers.unified.UnifiedQueryContext` opens one;
    the rows a query returns are copied out by ``Executor.execute``.
    """

    _out = staticmethod(lambda value: value)
