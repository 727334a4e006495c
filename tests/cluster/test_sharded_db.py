"""ShardedDatabase driver surface: DDL, session routing, stats, transactions."""

import pytest

from repro.cluster.sharded import ShardedDatabase
from repro.datagen.load import load_dataset
from repro.engine.records import Model
from repro.errors import TransactionAborted


class TestPlacement:
    def test_every_shard_gets_the_ddl(self, sharded4):
        for shard in sharded4.shards:
            names = shard.list_collections()
            assert names["tables"] == ["customers", "vendors"]
            assert names["collections"] == ["orders", "products"]
            assert names["graphs"] == ["social"]

    def test_documents_are_partitioned_not_duplicated(self, sharded4, small_dataset):
        per_shard = [
            shard.count_live(Model.DOCUMENT, "orders") for shard in sharded4.shards
        ]
        assert sum(per_shard) == len(small_dataset.orders)
        assert all(n > 0 for n in per_shard)  # hash spread reaches every shard

    def test_vertices_are_broadcast(self, sharded4, small_dataset):
        for shard in sharded4.shards:
            assert shard.count_live(Model.GRAPH_VERTEX, "social") == len(
                small_dataset.persons
            )

    def test_edges_are_partitioned(self, sharded4, small_dataset):
        per_shard = [
            shard.count_live(Model.GRAPH_EDGE, "social") for shard in sharded4.shards
        ]
        assert sum(per_shard) == len(small_dataset.knows_edges)


class TestStatsAggregation:
    def test_totals_match_unified(self, sharded4, loaded_unified):
        expected = loaded_unified.stats()
        actual = sharded4.stats()
        for key, value in expected.items():
            assert actual[key] == value, f"stats[{key!r}]"

    def test_shards_section_present_and_consistent(self, sharded4, small_dataset):
        stats = sharded4.stats()
        shards = stats["shards"]
        assert len(shards) == 4
        assert sum(s["documents"] for s in shards.values()) == stats["documents"]
        # Vertices are broadcast: every shard holds a full replica, the
        # aggregate counts exactly one.
        assert all(
            s["vertices"] == len(small_dataset.persons) for s in shards.values()
        )
        assert stats["vertices"] == len(small_dataset.persons)

    def test_placement_summary(self, sharded4):
        placement = sharded4.stats()["placement"]
        assert placement["orders"] == "hash(_id)"
        assert placement["social"] == "broadcast"
        assert placement["social#edges"] == "hash(_src)"

    def test_list_collections_matches_unified(self, sharded4, loaded_unified):
        assert sharded4.list_collections() == loaded_unified.db.list_collections()


class TestSessionRouting:
    def test_point_reads_find_rows_wherever_they_live(
        self, sharded4, small_dataset
    ):
        with sharded4.transaction() as s:
            for order in small_dataset.orders[:20]:
                doc = s.doc_get("orders", order["_id"])
                assert doc is not None and doc["_id"] == order["_id"]
            for customer in small_dataset.customers[:10]:
                row = s.sql_get("customers", (customer["id"],))
                assert row is not None and row["id"] == customer["id"]

    def test_kv_round_trip_routes_by_key(self, fresh_sharded):
        with fresh_sharded.transaction() as s:
            s.kv_put("feedback", "probe/key", {"rating": 5})
        with fresh_sharded.transaction() as s:
            assert s.kv_get("feedback", "probe/key") == {"rating": 5}
        owner = fresh_sharded.router.shard_for("feedback", "probe/key")
        others = [
            i for i in range(fresh_sharded.n_shards)
            if i != owner
        ]
        with fresh_sharded.transaction() as s:
            for i in others:
                shard_session = s._shard(i)
                assert shard_session.kv_get("feedback", "probe/key") is None

    def test_graph_edges_follow_their_source(self, fresh_sharded):
        with fresh_sharded.transaction() as s:
            s.graph_add_vertex("social", 9001, "person", name="A", country="FI")
            s.graph_add_vertex("social", 9002, "person", name="B", country="FI")
            s.graph_add_edge("social", 9001, 9002, "knows", since=2026)
        with fresh_sharded.transaction() as s:
            out = s.graph_out_edges("social", 9001, "knows")
            assert [e.dst for e in out] == [9002]
            incoming = s.graph_in_edges("social", 9002, "knows")
            assert [e.src for e in incoming] == [9001]

    def test_cross_shard_traverse_matches_unified(
        self, sharded4, loaded_unified, small_dataset
    ):
        start = small_dataset.persons[0]["id"]
        with sharded4.transaction() as s_sh:
            sharded = sorted(s_sh.graph_traverse("social", start, 1, 2, "knows"))
        with loaded_unified.db.transaction() as s_un:
            unified = sorted(s_un.graph_traverse("social", start, 1, 2, "knows"))
        assert sharded == unified

    def test_doc_scan_covers_all_shards(self, sharded4, small_dataset):
        with sharded4.transaction() as s:
            ids = sorted(d["_id"] for d in s.doc_scan("orders"))
        assert ids == sorted(o["_id"] for o in small_dataset.orders)


class TestTransactions:
    def test_multi_model_transaction_commits_across_shards(self, fresh_sharded):
        def body(s):
            s.doc_update("orders", "o1", {"status": "audited"})
            s.kv_put("feedback", "audit/o1", {"ok": True})
            return True

        assert fresh_sharded.run_transaction(body)
        with fresh_sharded.transaction() as s:
            assert s.doc_get("orders", "o1")["status"] == "audited"
            assert s.kv_get("feedback", "audit/o1") == {"ok": True}

    def test_abort_discards_all_shard_writes(self, fresh_sharded):
        class Boom(RuntimeError):
            pass

        with pytest.raises(Boom):
            with fresh_sharded.transaction() as s:
                s.doc_update("orders", "o1", {"status": "ghost"})
                s.kv_put("feedback", "ghost/o1", {"ok": False})
                raise Boom()
        with fresh_sharded.transaction() as s:
            assert s.doc_get("orders", "o1")["status"] != "ghost"
            assert s.kv_get("feedback", "ghost/o1") is None

    def test_conflicts_retry_like_the_unified_driver(self, fresh_sharded):
        # Two sequential updates of the same document must both land.
        for status in ("first", "second"):
            fresh_sharded.run_transaction(
                lambda s, status=status: s.doc_update("orders", "o2", {"status": status})
            )
        with fresh_sharded.transaction() as s:
            assert s.doc_get("orders", "o2")["status"] == "second"

    def test_conflict_surfaces_as_transaction_aborted(self, fresh_sharded):
        outer = fresh_sharded.begin()
        outer.doc_update("orders", "o3", {"status": "outer"})
        inner = fresh_sharded.begin()
        inner.doc_update("orders", "o3", {"status": "inner"})
        inner.commit()
        with pytest.raises(TransactionAborted):
            outer.commit()
        # The conflicting shard was the only writer: nothing durable.
        with fresh_sharded.transaction() as s:
            assert s.doc_get("orders", "o3")["status"] == "inner"

    @staticmethod
    def _two_docs_on_distinct_shards(driver) -> tuple[str, str]:
        router = driver.router
        ids = [o["_id"] for o in driver.query("FOR o IN orders RETURN o")]
        by_shard: dict[int, str] = {}
        for doc_id in ids:
            by_shard.setdefault(router.shard_for("orders", doc_id), doc_id)
        assert len(by_shard) >= 2
        return by_shard[min(by_shard)], by_shard[max(by_shard)]

    def test_cross_shard_conflict_aborts_atomically(self, fresh_sharded):
        """A late-shard conflict rolls back *every* shard: the earlier
        shard's write must not survive, although its shard sorts first
        and a shard-by-shard commit would already have made it durable."""
        low_doc, high_doc = self._two_docs_on_distinct_shards(fresh_sharded)
        outer = fresh_sharded.begin()
        outer.doc_update("orders", low_doc, {"status": "outer"})
        outer.doc_update("orders", high_doc, {"status": "outer"})
        interloper = fresh_sharded.begin()
        interloper.doc_update("orders", high_doc, {"status": "interloper"})
        interloper.commit()
        with pytest.raises(TransactionAborted):
            outer.commit()
        with fresh_sharded.transaction() as s:
            assert s.doc_get("orders", low_doc)["status"] != "outer"
            assert s.doc_get("orders", high_doc)["status"] == "interloper"

    def test_cross_shard_conflict_retries_and_succeeds(self, fresh_sharded):
        """Because aborts are now atomic, run_transaction can safely
        retry a conflicted cross-shard transaction to success."""
        low_doc, high_doc = self._two_docs_on_distinct_shards(fresh_sharded)
        attempts = 0

        def body(s):
            nonlocal attempts
            attempts += 1
            s.doc_update("orders", low_doc, {"status": f"attempt{attempts}"})
            s.doc_update("orders", high_doc, {"status": f"attempt{attempts}"})
            if attempts == 1:  # conflict the first try only
                interloper = fresh_sharded.begin()
                interloper.doc_update("orders", high_doc, {"status": "interloper"})
                interloper.commit()

        fresh_sharded.run_transaction(body)
        assert attempts == 2
        with fresh_sharded.transaction() as s:
            assert s.doc_get("orders", low_doc)["status"] == "attempt2"
            assert s.doc_get("orders", high_doc)["status"] == "attempt2"


class TestCustomPolicies:
    def test_custom_shard_key_routes_inserts(self, small_dataset):
        driver = ShardedDatabase(n_shards=3, shard_keys={"orders": "customer_id"})
        load_dataset(driver, small_dataset)
        try:
            # All of one customer's orders must be co-located.
            by_customer: dict[int, set[int]] = {}
            for shard_id, shard in enumerate(driver.shards):
                with shard.transaction() as s:
                    for doc in s.doc_scan("orders"):
                        by_customer.setdefault(doc["customer_id"], set()).add(shard_id)
            assert by_customer and all(len(v) == 1 for v in by_customer.values())
            # Reads by _id still work (broadcast search).
            with driver.transaction() as s:
                doc = s.doc_get("orders", small_dataset.orders[0]["_id"])
                assert doc is not None
        finally:
            driver.close()

    def test_custom_shard_key_cannot_be_changed_by_update(self, small_dataset):
        """Placement follows the shard key; moving a record is not
        supported, so the update must be rejected (engine-_id-change
        stance), not applied in place on the wrong shard."""
        from repro.errors import DocumentError

        driver = ShardedDatabase(n_shards=3, shard_keys={"orders": "customer_id"})
        load_dataset(driver, small_dataset)
        try:
            order = small_dataset.orders[0]
            with pytest.raises(DocumentError):
                with driver.transaction() as s:
                    s.doc_update(
                        "orders", order["_id"],
                        {"customer_id": order["customer_id"] + 1},
                    )
            # Same-value "changes" and other fields still update fine.
            with driver.transaction() as s:
                s.doc_update(
                    "orders", order["_id"],
                    {"customer_id": order["customer_id"], "status": "kept"},
                )
            with driver.transaction() as s:
                assert s.doc_get("orders", order["_id"])["status"] == "kept"
        finally:
            driver.close()

    def test_custom_shard_key_keeps_ids_globally_unique(self, small_dataset):
        """_id no longer decides placement, but duplicate _ids must still
        fail cluster-wide exactly as on a single node."""
        from repro.errors import DocumentError

        driver = ShardedDatabase(n_shards=3, shard_keys={"orders": "customer_id"})
        load_dataset(driver, small_dataset)
        try:
            order = small_dataset.orders[0]
            clone = dict(order, customer_id=order["customer_id"] + 7)
            with pytest.raises(DocumentError):
                with driver.transaction() as s:
                    s.doc_insert("orders", clone)
        finally:
            driver.close()

    def test_broadcast_collection_is_fully_replicated(self, small_dataset):
        driver = ShardedDatabase(n_shards=3, broadcast={"products"})
        load_dataset(driver, small_dataset)
        try:
            for shard in driver.shards:
                assert shard.count_live(Model.DOCUMENT, "products") == len(
                    small_dataset.products
                )
            assert driver.stats()["documents"] == len(small_dataset.products) + len(
                small_dataset.orders
            )
        finally:
            driver.close()
