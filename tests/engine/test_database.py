"""MultiModelDatabase: DDL, per-model session APIs, indexes, recovery."""

import pytest

from repro.engine.database import MultiModelDatabase
from repro.engine.records import Model
from repro.engine.transactions import IsolationLevel
from repro.errors import (
    DocumentError,
    DuplicateCollectionError,
    GraphError,
    NoSuchCollectionError,
    SimulatedCrash,
    TransactionError,
)
from repro.models.relational.schema import Column, ColumnType, TableSchema
from repro.models.xml.node import element, text

SCHEMA = TableSchema(
    "customers",
    (Column("id", ColumnType.INTEGER, nullable=False),
     Column("name", ColumnType.TEXT),
     Column("country", ColumnType.TEXT)),
    primary_key=("id",),
)


@pytest.fixture()
def db() -> MultiModelDatabase:
    database = MultiModelDatabase()
    database.create_table(SCHEMA)
    database.create_collection("orders")
    database.create_kv_namespace("kv")
    database.create_xml_collection("xml")
    database.create_graph("g")
    return database


class TestDDL:
    def test_duplicate_table_rejected(self, db):
        with pytest.raises(DuplicateCollectionError):
            db.create_table(SCHEMA)

    def test_duplicate_collection_rejected(self, db):
        with pytest.raises(DuplicateCollectionError):
            db.create_collection("orders")

    def test_duplicate_graph_rejected(self, db):
        with pytest.raises(DuplicateCollectionError):
            db.create_graph("g")

    def test_unknown_table_rejected(self, db):
        with db.transaction() as tx:
            with pytest.raises(NoSuchCollectionError):
                tx.sql_get("nope", (1,))

    def test_unknown_collection_rejected(self, db):
        with db.transaction() as tx:
            with pytest.raises(NoSuchCollectionError):
                tx.doc_get("nope", 1)

    def test_list_collections(self, db):
        listing = db.list_collections()
        assert listing["tables"] == ["customers"]
        assert listing["graphs"] == ["g"]

    def test_set_table_schema_requires_existing(self, db):
        other = TableSchema("zzz", SCHEMA.columns, primary_key=("id",))
        with pytest.raises(NoSuchCollectionError):
            db.set_table_schema(other)

    def test_checkpoint_requires_quiescence(self, db):
        session = db.begin()
        with pytest.raises(TransactionError):
            db.checkpoint()
        session.abort()
        db.checkpoint()


class TestDocumentSession:
    def test_insert_requires_id(self, db):
        with db.transaction() as tx:
            with pytest.raises(DocumentError):
                tx.doc_insert("orders", {"no_id": 1})

    def test_duplicate_id_rejected(self, db):
        with db.transaction() as tx:
            tx.doc_insert("orders", {"_id": "a"})
            with pytest.raises(DocumentError):
                tx.doc_insert("orders", {"_id": "a"})

    def test_update_missing_rejected(self, db):
        with db.transaction() as tx:
            with pytest.raises(DocumentError):
                tx.doc_update("orders", "zz", {"x": 1})

    def test_update_cannot_change_id(self, db):
        with db.transaction() as tx:
            tx.doc_insert("orders", {"_id": "a"})
            with pytest.raises(DocumentError):
                tx.doc_update("orders", "a", {"_id": "b"})

    def test_scan_sees_own_writes(self, db):
        with db.transaction() as tx:
            tx.doc_insert("orders", {"_id": "a", "v": 1})
            assert [d["_id"] for d in tx.doc_scan("orders")] == ["a"]

    def test_delete_then_scan(self, db):
        with db.transaction() as tx:
            tx.doc_insert("orders", {"_id": "a"})
        with db.transaction() as tx:
            tx.doc_delete("orders", "a")
            assert list(tx.doc_scan("orders")) == []


class TestXmlKvSession:
    def test_xml_roundtrip(self, db):
        tree = element("inv", {"id": "1"}, element("total", {}, text("5.00")))
        with db.transaction() as tx:
            tx.xml_put("xml", "1", tree)
        with db.transaction() as tx:
            assert tx.xml_get("xml", "1") == tree
            assert tx.xml_xpath("xml", "1", "/inv/total/text()") == ["5.00"]

    def test_xml_requires_element(self, db):
        with db.transaction() as tx:
            with pytest.raises(Exception):
                tx.xml_put("xml", "1", "<not-a-tree/>")

    def test_xml_stored_copy_isolated(self, db):
        tree = element("inv", {}, element("a"))
        with db.transaction() as tx:
            tx.xml_put("xml", "1", tree)
        tree.set("mutated", "yes")
        with db.transaction() as tx:
            assert tx.xml_get("xml", "1").get("mutated") is None

    def test_xpath_on_missing_doc_is_empty(self, db):
        with db.transaction() as tx:
            assert tx.xml_xpath("xml", "zz", "/a") == []

    def test_kv_put_get_delete(self, db):
        with db.transaction() as tx:
            tx.kv_put("kv", "a/1", {"r": 5})
        with db.transaction() as tx:
            assert tx.kv_get("kv", "a/1") == {"r": 5}
            assert tx.kv_get("kv", "zz", default="d") == "d"
            assert tx.kv_delete("kv", "a/1")
            assert not tx.kv_delete("kv", "a/1")

    def test_kv_prefix_scan_sorted(self, db):
        with db.transaction() as tx:
            for k in ["b/2", "a/1", "a/2", "c/1"]:
                tx.kv_put("kv", k, k)
        with db.transaction() as tx:
            assert [k for k, _ in tx.kv_scan_prefix("kv", "a/")] == ["a/1", "a/2"]

    @pytest.mark.parametrize("isolation", list(IsolationLevel))
    def test_kv_scans_filter_keys_in_every_pass_of_the_scan(self, db, isolation):
        """The key predicate runs inside Transaction.scan — before the
        committed pass, the READ_UNCOMMITTED dirty-insert pass and the
        write-set overlay — and must equal filtering a full scan."""
        with db.transaction() as tx:
            for k in ["a/1", "a/2", "a/3", "b/1", "c/1"]:
                tx.kv_put("kv", k, {"v": k})
        other = db.begin()
        other.kv_put("kv", "a/9", "dirty insert")
        other.kv_put("kv", "b/9", "dirty insert")
        other.kv_put("kv", "a/2", "dirty update")
        reader = db.begin(isolation)
        reader.kv_put("kv", "a/0", "own insert")
        reader.kv_put("kv", "c/0", "own insert")
        reader.kv_put("kv", "a/1", "own update")
        reader.kv_delete("kv", "a/3")
        full = sorted(reader.txn.scan(Model.KEY_VALUE, "kv"))
        assert reader.kv_scan_prefix("kv", "a/") == [
            pair for pair in full if pair[0].startswith("a/")
        ]
        assert reader.kv_scan_range("kv", "a/1", "b/9") == [
            pair for pair in full if "a/1" <= pair[0] < "b/9"
        ]
        assert reader.kv_scan_range("kv", "a/", "z", limit=2) == full[:2]
        keys = [k for k, _ in reader.kv_scan_prefix("kv", "a/")]
        dirty = isolation is IsolationLevel.READ_UNCOMMITTED
        assert keys == ["a/0", "a/1", "a/2"] + (["a/9"] if dirty else [])
        assert dict(full)["a/2"] == ("dirty update" if dirty else {"v": "a/2"})
        other.abort()
        reader.abort()

    @pytest.mark.parametrize("isolation", list(IsolationLevel))
    def test_kv_scans_of_a_transaction_with_nothing_buffered(self, db, isolation):
        """The same differential for a reader that has written nothing:
        below READ_UNCOMMITTED its scan is the committed pass alone (no
        write-set probe, no overlay) — same contract, same rows."""
        with db.transaction() as tx:
            for k in ["a/1", "a/2", "a/3", "b/1", "c/1"]:
                tx.kv_put("kv", k, {"v": k})
        reader = db.begin(isolation)
        other = db.begin()
        other.kv_put("kv", "a/9", "dirty insert")
        other.kv_put("kv", "a/2", "dirty update")
        other.kv_delete("kv", "a/3")
        with db.transaction() as tx:
            tx.kv_delete("kv", "b/1")
            tx.kv_put("kv", "a/5", "committed after the reader began")
        full = sorted(reader.txn.scan(Model.KEY_VALUE, "kv"))
        assert reader.kv_scan_prefix("kv", "a/") == [
            pair for pair in full if pair[0].startswith("a/")
        ]
        assert reader.kv_scan_range("kv", "a/2", "c/") == [
            pair for pair in full if "a/2" <= pair[0] < "c/"
        ]
        assert reader.kv_scan_range("kv", "a/", "z", limit=2) == full[:2]
        expected = {
            IsolationLevel.READ_UNCOMMITTED: ["a/1", "a/2", "a/5", "a/9", "c/1"],
            IsolationLevel.READ_COMMITTED: ["a/1", "a/2", "a/3", "a/5", "c/1"],
            IsolationLevel.SNAPSHOT: ["a/1", "a/2", "a/3", "b/1", "c/1"],
            IsolationLevel.SERIALIZABLE: ["a/1", "a/2", "a/3", "a/5", "c/1"],
        }
        assert [k for k, _ in full] == expected[isolation]
        dirty = isolation is IsolationLevel.READ_UNCOMMITTED
        assert dict(full)["a/2"] == ("dirty update" if dirty else {"v": "a/2"})
        assert not reader.txn.write_set
        other.abort()
        reader.abort()

    def test_kv_requires_string_key(self, db):
        with db.transaction() as tx:
            with pytest.raises(Exception):
                tx.kv_put("kv", 5, "x")


class TestGraphSession:
    def test_vertex_lifecycle(self, db):
        with db.transaction() as tx:
            tx.graph_add_vertex("g", 1, "p", name="x")
            tx.graph_update_vertex("g", 1, name="y")
        with db.transaction() as tx:
            assert tx.graph_vertex("g", 1).properties["name"] == "y"

    def test_duplicate_vertex_rejected(self, db):
        with db.transaction() as tx:
            tx.graph_add_vertex("g", 1, "p")
            with pytest.raises(GraphError):
                tx.graph_add_vertex("g", 1, "p")

    def test_edge_requires_vertices(self, db):
        with db.transaction() as tx:
            tx.graph_add_vertex("g", 1, "p")
            with pytest.raises(GraphError):
                tx.graph_add_edge("g", 1, 2, "e")

    def test_neighbors_within_txn(self, db):
        with db.transaction() as tx:
            tx.graph_add_vertex("g", 1, "p")
            tx.graph_add_vertex("g", 2, "p")
            tx.graph_add_edge("g", 1, 2, "knows")
            # edge visible before commit (own writes)
            assert [v.id for v in tx.graph_out_neighbors("g", 1)] == [2]

    def test_neighbors_after_commit(self, db):
        with db.transaction() as tx:
            tx.graph_add_vertex("g", 1, "p")
            tx.graph_add_vertex("g", 2, "p")
            tx.graph_add_edge("g", 1, 2, "knows")
        with db.transaction() as tx:
            assert [v.id for v in tx.graph_in_neighbors("g", 2)] == [1]

    def test_remove_edge_updates_adjacency(self, db):
        with db.transaction() as tx:
            tx.graph_add_vertex("g", 1, "p")
            tx.graph_add_vertex("g", 2, "p")
            edge = tx.graph_add_edge("g", 1, 2, "knows")
        with db.transaction() as tx:
            assert tx.graph_remove_edge("g", edge.id)
        with db.transaction() as tx:
            assert tx.graph_out_neighbors("g", 1) == []

    def test_traverse_depth_range(self, db):
        with db.transaction() as tx:
            for i in range(4):
                tx.graph_add_vertex("g", i, "p")
            for i in range(3):
                tx.graph_add_edge("g", i, i + 1, "n")
        with db.transaction() as tx:
            assert tx.graph_traverse("g", 0, 1, 2, "n") == [1, 2]
            assert tx.graph_traverse("g", 0, 0, 1, "n") == [0, 1]

    def test_traverse_missing_start_rejected(self, db):
        with db.transaction() as tx:
            with pytest.raises(GraphError):
                tx.graph_traverse("g", 99, 1, 2)

    def test_snapshot_isolation_for_adjacency(self, db):
        with db.transaction() as tx:
            tx.graph_add_vertex("g", 1, "p")
            tx.graph_add_vertex("g", 2, "p")
        reader = db.begin(IsolationLevel.SNAPSHOT)
        with db.transaction() as writer:
            writer.graph_add_edge("g", 1, 2, "knows")
        assert reader.graph_out_neighbors("g", 1) == []
        reader.abort()


class TestIndexes:
    def test_backfill_and_lookup(self, db):
        with db.transaction() as tx:
            tx.sql_insert("customers", {"id": 1, "name": "a", "country": "FI"})
            tx.sql_insert("customers", {"id": 2, "name": "b", "country": "SE"})
        db.create_index(Model.RELATIONAL, "customers", "country")
        with db.transaction() as tx:
            assert [r["id"] for r in tx.sql_find("customers", "country", "FI")] == [1]

    def test_index_maintained_on_commit(self, db):
        db.create_index(Model.RELATIONAL, "customers", "country")
        with db.transaction() as tx:
            tx.sql_insert("customers", {"id": 1, "name": "a", "country": "FI"})
        with db.transaction() as tx:
            tx.sql_update("customers", (1,), {"country": "SE"})
        with db.transaction() as tx:
            assert tx.sql_find("customers", "country", "FI") == []
            assert len(tx.sql_find("customers", "country", "SE")) == 1

    def test_find_sees_own_uncommitted_writes(self, db):
        db.create_index(Model.DOCUMENT, "orders", "status")
        with db.transaction() as tx:
            tx.doc_insert("orders", {"_id": "a", "status": "new"})
            assert len(tx.doc_find("orders", "status", "new")) == 1

    def test_find_without_index_scans(self, db):
        with db.transaction() as tx:
            tx.doc_insert("orders", {"_id": "a", "status": "new"})
        with db.transaction() as tx:
            assert len(tx.doc_find("orders", "status", "new")) == 1

    def test_duplicate_index_rejected(self, db):
        db.create_index(Model.DOCUMENT, "orders", "status")
        with pytest.raises(DuplicateCollectionError):
            db.create_index(Model.DOCUMENT, "orders", "status")

    def test_sorted_index_kind(self, db):
        with db.transaction() as tx:
            for i in range(5):
                tx.doc_insert("orders", {"_id": f"o{i}", "total": float(i)})
        db.create_index(Model.DOCUMENT, "orders", "total", kind="sorted")
        index = db.index(Model.DOCUMENT, "orders", "total", kind="sorted")
        assert [v for v, _ in index.range(1.0, 3.0)] == [1.0, 2.0]


class TestCrashRecovery:
    def _populate(self, db):
        with db.transaction() as tx:
            tx.sql_insert("customers", {"id": 1, "name": "a", "country": "FI"})
            tx.doc_insert("orders", {"_id": "o1", "v": 1})
            tx.kv_put("kv", "k", "v")
            tx.xml_put("xml", "x", element("a", {}, text("1")))
            tx.graph_add_vertex("g", 1, "p")
            tx.graph_add_vertex("g", 2, "p")
            tx.graph_add_edge("g", 1, 2, "knows")

    def test_recovery_restores_all_models(self, db):
        self._populate(db)
        recovered = db.crash()
        with recovered.transaction() as tx:
            assert tx.sql_get("customers", (1,))["name"] == "a"
            assert tx.doc_get("orders", "o1")["v"] == 1
            assert tx.kv_get("kv", "k") == "v"
            assert tx.xml_get("xml", "x").text_content() == "1"
            assert [v.id for v in tx.graph_out_neighbors("g", 1)] == [2]

    def test_recovery_preserves_ddl(self, db):
        recovered = db.crash()
        assert recovered.list_collections() == db.list_collections()

    def test_uncommitted_writes_lost_on_crash(self, db):
        self._populate(db)
        session = db.begin()
        session.doc_insert("orders", {"_id": "o2"})
        recovered = db.crash()
        with recovered.transaction() as tx:
            assert tx.doc_get("orders", "o2") is None

    def test_crash_before_commit_record_is_atomic(self, db):
        self._populate(db)
        db.manager.crash_before_next_commit_record = True
        session = db.begin()
        session.doc_update("orders", "o1", {"v": 2})
        session.kv_put("kv", "k", "v2")
        with pytest.raises(SimulatedCrash):
            session.commit()
        recovered = db.crash()
        with recovered.transaction() as tx:
            assert tx.doc_get("orders", "o1")["v"] == 1
            assert tx.kv_get("kv", "k") == "v"

    def test_edge_ids_continue_after_recovery(self, db):
        self._populate(db)
        recovered = db.crash()
        with recovered.transaction() as tx:
            edge = tx.graph_add_edge("g", 2, 1, "knows")
        with recovered.transaction() as tx:
            assert len(list(tx.graph_edges("g"))) == 2
        assert edge.id >= 2

    def test_double_crash(self, db):
        self._populate(db)
        once = db.crash()
        twice = once.crash()
        with twice.transaction() as tx:
            assert tx.doc_get("orders", "o1")["v"] == 1

    def test_double_crash_with_index(self, db):
        """Replaying a create_index record must not log a fresh one:
        recovery used to append the re-logged index DDL *before* the
        compaction loop copied create_collection, so the second crash
        replayed them out of order and blew up."""
        db.create_index(Model.DOCUMENT, "orders", "v")
        self._populate(db)
        once = db.crash()
        ddl = [r for r in once.wal.records() if r["type"] == "ddl"]
        assert sum(1 for r in ddl if r["op"] == "create_index") == 1
        twice = once.crash()
        assert twice.index(Model.DOCUMENT, "orders", "v") is not None
        with twice.transaction() as tx:
            assert tx.doc_get("orders", "o1")["v"] == 1

    def test_writes_after_recovery_survive_next_crash(self, db):
        self._populate(db)
        recovered = db.crash()
        with recovered.transaction() as tx:
            tx.doc_update("orders", "o1", {"v": 7})
        final = recovered.crash()
        with final.transaction() as tx:
            assert tx.doc_get("orders", "o1")["v"] == 7


class TestStats:
    def test_stats_counts_live_records(self, db):
        with db.transaction() as tx:
            tx.sql_insert("customers", {"id": 1, "name": "a", "country": "FI"})
            tx.doc_insert("orders", {"_id": "o1"})
        with db.transaction() as tx:
            tx.doc_delete("orders", "o1")
        stats = db.stats()
        assert stats["rows"] == 1
        assert stats["documents"] == 0
