"""Value ownership: copied in at write, copied out at the API, shared between.

The read path borrows — ``Transaction.read``/``scan`` hand back the
store's own objects — so aliasing is the failure mode, and no answer
comparison can see it: a query that returns a committed document *and*
lets the caller edit it is still "correct" until the next reader.  Every
test here therefore vandalises what it was given (recursively: dict
keys, list items, XML attributes/children, graph property dicts) and
then checks that nothing else moved — a second read, the store's version
chains, the indexes, the WAL records, follower views and worker
replicas.  The oracle is independent of the engine's copier: snapshots
are taken with ``copy.deepcopy`` and compared with ``==`` or through
:func:`canon`.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.sharded import ShardedDatabase, ShardedSession
from repro.core.workloads import EXTENDED_QUERIES, QUERIES
from repro.datagen.load import load_dataset
from repro.drivers.unified import UnifiedDriver
from repro.engine.database import MultiModelDatabase, Session, _BorrowingSession
from repro.engine.records import Model, RecordKey
from repro.engine.transactions import _MISSING, IsolationLevel, keyspace_resource
from repro.faults import chaos
from repro.models.graph.property_graph import Edge, Vertex
from repro.models.relational.schema import Column, ColumnType, TableSchema
from repro.models.xml.node import XmlElement, XmlText, element, text
from repro.query.analyze import explain_analyze
from repro.query.executor import Executor
from repro.replication import ReplicaSetConfig
from repro.schema.evolution import EvolutionOp, NestFields
from repro.schema.lazy import LazyMigrator
from repro.schema.registry import SchemaRegistry, migrate_collection
from repro.schema.shapes import orders_shape

from tests.query.test_compile_parity import _reference

# ---------------------------------------------------------------------------
# The vandal and the independent canonical form
# ---------------------------------------------------------------------------


def scramble(value: Any) -> None:
    """Mutate, in place, everything mutable that is reachable from *value*."""
    if isinstance(value, dict):
        for item in list(value.values()):
            scramble(item)
        value.clear()
        value["scrambled"] = True
    elif isinstance(value, list):
        for item in value:
            scramble(item)
        value.clear()
        value.append("scrambled")
    elif isinstance(value, tuple):
        for item in value:
            scramble(item)
    elif isinstance(value, XmlElement):
        for child in value.children:
            scramble(child)
        value.tag = "scrambled"
        value.attributes.clear()
        value.attributes["scrambled"] = "1"
        value.children.clear()
    elif isinstance(value, XmlText):
        value.value = "scrambled"
    elif isinstance(value, (Vertex, Edge)):
        scramble(value.properties)
        value.label = "scrambled"


def canon(value: Any) -> Any:
    """Order-insensitive (for dicts), type-tagged, repr-able form."""
    if isinstance(value, dict):
        return ("dict", sorted((repr(k), canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [canon(v) for v in value])
    if isinstance(value, XmlElement):
        return (
            "xml", value.tag, sorted(value.attributes.items()),
            [canon(c) for c in value.children],
        )
    if isinstance(value, XmlText):
        return ("text", value.value)
    if isinstance(value, Vertex):
        return ("vertex", repr(value.id), value.label, canon(value.properties))
    if isinstance(value, Edge):
        return (
            "edge", repr(value.id), repr(value.src), repr(value.dst), value.label,
            canon(value.properties),
        )
    return (type(value).__name__, repr(value))


def rows_canon(rows: list[Any]) -> list[str]:
    """A result list as sorted canonical strings (gather order is free)."""
    return sorted(repr(canon(row)) for row in rows)


def db_digest(db: MultiModelDatabase) -> str:
    """Every version of every record, every index entry, every WAL record."""
    h = hashlib.sha256()
    for (model, name), coll in sorted(
        db.store._collections.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
    ):
        h.update(repr((model.value, name)).encode())
        for raw_key, chain in coll.items():
            versions = [(v.begin_ts, canon(v.value)) for v in chain.versions]
            h.update(repr((repr(raw_key), versions)).encode())
    for (model, name), bucket in sorted(
        db._indexes.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
    ):
        for index_name, index in sorted(bucket.items()):
            if hasattr(index, "_buckets"):
                entries = sorted(
                    (repr(value), sorted(map(repr, keys)))
                    for value, keys in index._buckets.items()
                )
            else:
                entries = [
                    (repr(value), repr(key))
                    for value, key in index.range(None, None, True, True)
                ]
            h.update(repr((index_name, entries)).encode())
    for rec in db.wal.records_from(0):
        h.update(repr(canon(rec)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# A small five-model fixture, written through the Driver surface so the
# same script loads one engine, a sharded cluster and a replicated one
# ---------------------------------------------------------------------------

PEOPLE = TableSchema(
    "people",
    (Column("id", ColumnType.INTEGER, nullable=False),
     Column("name", ColumnType.TEXT),
     Column("country", ColumnType.TEXT)),
    primary_key=("id",),
)


def invoice(n: int) -> XmlElement:
    return element(
        "invoice", {"id": str(n)},
        element("lines", {},
                element("line", {"sku": f"s{n}"}, element("amount", {}, text(f"{n}.50"))),
                element("line", {"sku": f"t{n}"}, element("amount", {}, text(f"{n}.75")))),
        element("total", {}, text(f"{2 * n}.25")),
    )


def order(n: int) -> dict[str, Any]:
    return {
        "_id": n, "customer_id": n % 3, "status": "open" if n % 2 else "done",
        "items": [{"sku": f"s{n}", "qty": n, "notes": ["a", {"deep": [n]}]}],
        "meta": {"tags": ["x", "y"], "dims": {"w": n}},
    }


def feedback(n: int) -> dict[str, Any]:
    return {"rating": n % 5, "history": [{"at": n, "by": ["u", n]}]}


def build(driver: Any, n: int = 6) -> None:
    driver.create_table(PEOPLE)
    driver.create_collection("orders")
    driver.create_xml_collection("invoices")
    driver.create_kv_namespace("feedback")
    driver.create_graph("social")
    driver.create_index("table", "people", "country")
    driver.create_index("collection", "orders", "customer_id")
    driver.create_index("collection", "orders", "meta.dims.w", index_type="sorted")

    def body(s: Any) -> None:
        for i in range(n):
            s.sql_insert("people", {"id": i, "name": f"p{i}", "country": f"c{i % 2}"})
            s.doc_insert("orders", order(i))
            s.xml_put("invoices", i, invoice(i))
            s.kv_put("feedback", f"p/{i}", feedback(i))
            s.graph_add_vertex("social", i, "person", name=f"p{i}", langs=["en", {"l": i}])
        for i in range(n):
            s.graph_add_edge("social", i, (i + 1) % n, "knows", since=2000 + i, via=["w", [i]])
            s.graph_add_edge("social", i, (i + 2) % n, "knows", since=1990 + i, via=["v", [i]])

    driver.run_transaction(body)


# Every public read of the Session surface, as name -> thunk.  Scans are
# drained so the generator's rows can be vandalised too.
READS: dict[str, Callable[[Any], Any]] = {
    "sql_get": lambda s: s.sql_get("people", (1,)),
    "sql_scan": lambda s: list(s.sql_scan("people")),
    "sql_find_indexed": lambda s: s.sql_find("people", "country", "c1"),
    "sql_find_scan": lambda s: s.sql_find("people", "name", "p2"),
    "doc_get": lambda s: s.doc_get("orders", 2),
    "doc_scan": lambda s: list(s.doc_scan("orders")),
    "doc_find_indexed": lambda s: s.doc_find("orders", "customer_id", 1),
    "doc_find_scan": lambda s: s.doc_find("orders", "status", "open"),
    "xml_get": lambda s: s.xml_get("invoices", 3),
    "xml_scan": lambda s: list(s.xml_scan("invoices")),
    "xml_xpath_elements": lambda s: s.xml_xpath("invoices", 3, "/invoice/lines/line"),
    "xml_xpath_root": lambda s: s.xml_xpath("invoices", 3, "/invoice"),
    "xml_xpath_text": lambda s: s.xml_xpath("invoices", 3, "/invoice/total/text()"),
    "kv_get": lambda s: s.kv_get("feedback", "p/4"),
    "kv_scan_prefix": lambda s: s.kv_scan_prefix("feedback", "p/"),
    "kv_scan_range": lambda s: s.kv_scan_range("feedback", "p/1", "p/5", limit=3),
    "graph_vertex": lambda s: s.graph_vertex("social", 2),
    "graph_vertices": lambda s: list(s.graph_vertices("social")),
    "graph_edges": lambda s: list(s.graph_edges("social", "knows")),
    "graph_out_edges": lambda s: s.graph_out_edges("social", 2),
    "graph_in_edges": lambda s: s.graph_in_edges("social", 2),
    "graph_out_neighbors": lambda s: s.graph_out_neighbors("social", 2),
    "graph_in_neighbors": lambda s: s.graph_in_neighbors("social", 2),
}


def write_some(s: Any) -> dict[str, Any]:
    """One write per model (new records and updates of loaded ones), SYSTEM
    included; returns what the mutating calls handed back."""
    returned = {
        "sql_update": s.sql_update("people", (1,), {"name": "renamed"}),
        "doc_update": s.doc_update("orders", 2, {"meta": {"tags": ["z"], "dims": {"w": 99}}}),
        "graph_update_vertex": s.graph_update_vertex("social", 2, langs=["fi", {"l": 9}]),
        "graph_add_vertex": s.graph_add_vertex("social", 100, "person", langs=["sv"]),
    }
    s.sql_insert("people", {"id": 100, "name": "new", "country": "c1"})
    s.doc_insert("orders", order(100) | {"customer_id": 1})
    s.xml_put("invoices", 3, invoice(33))
    s.xml_put("invoices", 100, invoice(100))
    s.kv_put("feedback", "p/4", feedback(44))
    s.kv_put("feedback", "p/100", feedback(100))
    returned["graph_add_edge"] = s.graph_add_edge("social", 2, 100, "knows", via=["n", [1]])
    s.doc_delete("orders", 5)
    if isinstance(s, Session):
        s.reserve_id("orders", 100)
    return returned


class Engine:
    """Topology: one MultiModelDatabase behind a UnifiedDriver."""

    def __init__(self) -> None:
        self.driver = UnifiedDriver()
        build(self.driver)

    def begin(self) -> Any:
        return self.driver.db.begin()

    def databases(self) -> list[MultiModelDatabase]:
        return [self.driver.db]

    def worker_answers(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


class Cluster:
    """Topology: 2 shards x 3 replicas, worker-process scatter."""

    def __init__(self) -> None:
        self.driver = ShardedDatabase(
            n_shards=2, pool="processes", pool_workers=2,
            replication=ReplicaSetConfig(3, write_acks="all"),
        )
        build(self.driver)

    def begin(self) -> Any:
        return self.driver.begin()

    def databases(self) -> list[MultiModelDatabase]:
        """Leader and follower views, followers caught up first."""
        out = []
        for replica_set in self.driver.replica_sets:
            replica_set.catch_up()
            out.extend(replica.db for replica in replica_set.replicas)
        return out

    def worker_answers(self) -> list[str]:
        """What the worker-process replicas serve (scatter subplans)."""
        answers = []
        for name in ("orders", "people", "invoices"):
            answers.extend(rows_canon(self.driver.query(f"FOR x IN {name} RETURN x")))
        assert self.driver.remote_pool().metrics()["plans_shipped"] > 0
        return answers

    def close(self) -> None:
        self.driver.close()


def state_of(topology: Any) -> list[Any]:
    digests = [db_digest(db) for db in topology.databases()]
    follower_logs = [
        [canon(rec) for rec in replica.wal.records_from(0)]
        for replica_set in getattr(topology.driver, "replica_sets", ())
        for replica in replica_set.replicas
    ]
    return [digests, follower_logs, topology.worker_answers()]


def run_script(topology: Any, vandalise: bool, reads: list[str]) -> list[Any]:
    """Reads outside the writing transaction, a writing transaction that
    reads its own buffered values, and reads after its commit.  Returns
    every observation (snapshotted before any vandalism) plus the final
    state; the vandalised run must observe exactly what its twin does."""
    seen: list[Any] = []

    def observe(label: str, value: Any) -> None:
        seen.append((label, repr(canon(copy.deepcopy(value)))))
        if vandalise:
            scramble(value)

    def read_all(session: Any, phase: str) -> None:
        for name in reads:
            observe(f"{phase}:{name}", READS[name](session))
            # The same session must not serve back the vandalised value.
            observe(f"{phase}:{name}:again", READS[name](session))

    before = topology.begin()
    read_all(before, "before")
    before.commit()
    writer = topology.begin()
    for label, value in write_some(writer).items():
        observe(f"returned:{label}", value)
    read_all(writer, "inside")
    writer.commit()
    after = topology.begin()
    read_all(after, "after")
    after.commit()
    seen.append(("state", state_of(topology)))
    return seen


def assert_twins_agree(make: Callable[[], Any], reads: list[str]) -> None:
    vandal, twin = make(), make()
    try:
        got = run_script(vandal, True, reads)
        want = run_script(twin, False, reads)
    finally:
        vandal.close()
        twin.close()
    for (label, observed), (_, expected) in zip(got, want):
        assert observed == expected, label
    assert len(got) == len(want)


class TestSessionReadsNeverAlias:
    """(a) every public read, inside and outside the writing transaction."""

    @pytest.mark.parametrize("read", sorted(READS))
    def test_engine_session(self, read):
        assert_twins_agree(Engine, [read])

    def test_engine_session_all_reads_in_one_transaction(self):
        assert_twins_agree(Engine, sorted(READS))

    def test_cluster_session_followers_and_worker_replicas(self):
        assert_twins_agree(Cluster, sorted(READS))

    def test_the_vandal_reaches_everything(self):
        """A scrambled value shares nothing with its snapshot — so an
        aliased store would have been caught."""
        topology = Engine()
        session = topology.begin()
        for name, read in READS.items():
            value = read(session)
            snapshot = repr(canon(copy.deepcopy(value)))
            scramble(value)
            if name != "xml_xpath_text":  # strings are immutable
                assert repr(canon(value)) != snapshot, name

    def test_the_borrowing_side_really_borrows(self):
        """The seam is real: the context's session hands out the store's
        own objects (which is why nothing else may reach it)."""
        topology = Engine()
        ctx = topology.driver.query_context()
        try:
            assert type(ctx.session) is _BorrowingSession
            stored = topology.driver.db.store.chain(
                RecordKey(Model.DOCUMENT, "orders", 2)
            ).latest().value
            assert ctx.session.doc_get("orders", 2) is stored
            assert any(row is stored for row in ctx.iter_collection("orders"))
        finally:
            ctx.close()


# ---------------------------------------------------------------------------
# (b) query results on every driver/topology
# ---------------------------------------------------------------------------

EXTRA_QUERIES = {
    "xml_rows": ("FOR i IN invoices RETURN i", {}),
    "xml_nested": ("FOR i IN invoices RETURN {root: i.root, wrap: [i.root, {again: i.root}]}", {}),
    "xpath_elements": (
        'FOR i IN invoices RETURN XPATH(i.root, "/invoice/lines/line")', {},
    ),
    "collect_into": (
        "FOR o IN orders COLLECT s = o.status INTO members RETURN {s, members}", {},
    ),
    "correlated_subquery": (
        "FOR c IN customers LIMIT 8 RETURN {c: c, orders: "
        "(FOR o IN orders FILTER o.customer_id == c.id RETURN o)}", {},
    ),
    "document": (
        'FOR o IN orders LIMIT 20 RETURN DOCUMENT("products", o.items[0].product_id)', {},
    ),
    "document_relational": ('RETURN DOCUMENT("customers", 3)', {}),
    "let_alias": ("FOR o IN orders LET items = o.items RETURN {items, o}", {}),
    "vertices": ("FOR v IN social RETURN v", {}),
    "traverse": ('FOR v IN TRAVERSE("social", 1, 1, 2, "knows") RETURN v', {}),
    "kv_rows": ("FOR f IN feedback RETURN f", {}),
    "kv_prefix": ('FOR f IN KV("feedback", "p1/") RETURN f', {}),
    "kvget": ('RETURN KVGET("feedback", "p1/1")', {}),
    "xmlget": ('RETURN XMLGET("invoices", "o1")', {}),
    "params_echo": ("RETURN {given: @p}", {"p": {"list": [1, {"x": [2]}]}}),
    "range_index": ("FOR o IN orders FILTER o.total_price > 4000 RETURN o", {}),
}


def suite(dataset) -> list[tuple[str, str, dict[str, Any]]]:
    out = [(q.query_id, q.text, q.params(dataset)) for q in QUERIES + EXTENDED_QUERIES]
    out.extend((name, text_, params) for name, (text_, params) in EXTRA_QUERIES.items())
    return out


def cluster_dbs(driver: Any) -> list[MultiModelDatabase]:
    if isinstance(driver, UnifiedDriver):
        return [driver.db]
    if not driver.replica_sets:
        return list(driver.shards)
    for replica_set in driver.replica_sets:
        replica_set.catch_up()
    return [r.db for rs in driver.replica_sets for r in rs.replicas]


TOPOLOGIES = {
    "unified": lambda: UnifiedDriver(),
    "sharded4_threads": lambda: ShardedDatabase(n_shards=4),
    "sharded4_processes": lambda: ShardedDatabase(n_shards=4, pool="processes", pool_workers=2),
    "replicated4x3_followers": lambda: ShardedDatabase(
        n_shards=4,
        replication=ReplicaSetConfig(3, write_acks="all", read_preference="follower"),
    ),
}


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def loaded(request, small_dataset):
    driver = TOPOLOGIES[request.param]()
    load_dataset(driver, small_dataset)
    yield driver
    close = getattr(driver, "close", None)
    if close is not None:
        close()


class TestQueryResultsNeverAlias:
    def test_vandalised_rows_do_not_change_the_next_answer(self, loaded, small_dataset):
        before = [db_digest(db) for db in cluster_dbs(loaded)]
        for name, text_, params in suite(small_dataset):
            given = copy.deepcopy(params)
            first = loaded.query(text_, params)
            want = rows_canon(copy.deepcopy(first))
            assert first, name  # an empty answer would prove nothing
            scramble(first)
            second = loaded.query(text_, params)
            assert rows_canon(second) == want, name
            scramble(second)
            # Two results of one query never share structure either.
            third = loaded.query(text_, given)
            assert rows_canon(third) == want, name
            assert params == given or name == "params_echo", name
        assert [db_digest(db) for db in cluster_dbs(loaded)] == before

    def test_rows_of_one_result_share_nothing(self, loaded):
        """A join returns the same customer once per order: each copy is
        the caller's own."""
        rows = loaded.query(
            "FOR c IN customers FILTER c.id == 1 FOR o IN orders "
            "FILTER o.customer_id == c.id RETURN {c, o}"
        )
        assert len(rows) > 1
        want = rows_canon(copy.deepcopy(rows[1:]))
        scramble(rows[0])
        assert rows_canon(rows[1:]) == want

    def test_follower_reads_were_followers(self, loaded):
        if getattr(loaded, "replica_sets", None):
            loaded.query("FOR o IN orders RETURN o")
            assert sum(
                rs.metrics()["follower_reads_total"] for rs in loaded.replica_sets
            ) > 0


# ---------------------------------------------------------------------------
# (c) no operator or function mutates a borrowed value
# ---------------------------------------------------------------------------

MODES = {
    "default": {},
    "scan_only": {"use_indexes": False},
}


class TestOperatorsLeaveTheStoreAlone:
    @pytest.mark.parametrize("mode", sorted(MODES) + ["explain_analyze", "reference"])
    def test_store_digest_is_unchanged_by_the_query_suite(
        self, loaded, small_dataset, mode
    ):
        before = [db_digest(db) for db in cluster_dbs(loaded)]
        for name, text_, params in suite(small_dataset):
            if mode == "explain_analyze":
                assert "rows_copied_out=" in loaded.explain_analyze(text_, params), name
            elif mode == "reference":
                # The reference reads the same borrowed rows the engine does.
                _reference(loaded, text_, params)
            else:
                loaded.query(text_, params, **MODES[mode])
        assert [db_digest(db) for db in cluster_dbs(loaded)] == before

    def test_every_mode_gives_the_default_answer(self, loaded, small_dataset):
        for name, text_, params in suite(small_dataset):
            want = rows_canon(loaded.query(text_, params))
            for mode, flags in MODES.items():
                assert rows_canon(loaded.query(text_, params, **flags)) == want, (name, mode)
            assert rows_canon(_reference(loaded, text_, params)) == want, (name, "reference")


# ---------------------------------------------------------------------------
# (d) copy-in still holds
# ---------------------------------------------------------------------------


class TestCopyInStillHolds:
    def test_arguments_mutated_after_the_call_and_after_commit(self):
        topology = Engine()
        db = topology.driver.db
        doc, row, tree = order(200), {"id": 200, "name": "n", "country": "c0"}, invoice(200)
        value, langs = feedback(200), ["en", {"l": 200}]
        want = copy.deepcopy((doc, row, tree, value, langs))
        session = db.begin()
        session.doc_insert("orders", doc)
        session.sql_insert("people", row)
        session.xml_put("invoices", 200, tree)
        session.kv_put("feedback", "p/200", value)
        vertex = session.graph_add_vertex("social", 200, "person", langs=langs)
        for victim in (doc, row, tree, value, langs, vertex):
            scramble(victim)

        def reads(s: Session) -> tuple[Any, ...]:
            return (
                s.doc_get("orders", 200), s.sql_get("people", (200,)),
                s.xml_get("invoices", 200), s.kv_get("feedback", "p/200"),
                s.graph_vertex("social", 200).properties["langs"],
            )

        assert reads(session) == want  # buffered values were copied in
        session.commit()
        digest = db_digest(db)
        logged = {
            rec["key"].model: rec["value"]
            for rec in db.wal.records_from(0)
            if rec["type"] == "write" and rec["key"].key in (200, (200,), "p/200")
        }
        assert logged[Model.DOCUMENT] == want[0] and logged[Model.XML] == want[2]
        assert logged[Model.GRAPH_VERTEX]["props"]["langs"] == want[4]
        for victim in reads(db.begin()):  # and again after commit
            scramble(victim)
        assert reads(db.begin()) == want
        assert db_digest(db) == digest
        assert reads(db.crash().begin()) == want  # the log replays clean


# ---------------------------------------------------------------------------
# (e) a random history against a plain-dict model
# ---------------------------------------------------------------------------

DOC_IDS = st.integers(0, 5)
PAYLOADS = st.fixed_dictionaries({
    "n": st.integers(0, 3),
    "tags": st.lists(st.integers(0, 9), max_size=3),
    "sub": st.fixed_dictionaries({"k": st.lists(st.integers(0, 2), max_size=2)}),
})
STEPS = st.one_of(
    st.tuples(st.just("insert"), DOC_IDS, PAYLOADS),
    st.tuples(st.just("update"), DOC_IDS, PAYLOADS),
    st.tuples(st.just("delete"), DOC_IDS),
    st.tuples(st.just("get"), DOC_IDS),
    st.tuples(st.just("scan")),
    st.tuples(st.just("find"), st.integers(0, 3)),
    st.tuples(st.just("query"), st.integers(0, 3)),
    st.tuples(st.just("read_own_write"), DOC_IDS, PAYLOADS),
)


class TestRandomHistoryAgainstAModel:
    @settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
    @given(st.lists(STEPS, max_size=25))
    def test_post_hoc_mutation_never_shows(self, steps):
        driver = UnifiedDriver()
        driver.create_collection("docs")
        driver.create_index("collection", "docs", "n")
        model: dict[int, dict[str, Any]] = {}

        def check(got: Any, want: Any) -> None:
            assert got == want
            scramble(got)

        def by_id(rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
            return sorted(rows, key=lambda d: d["_id"])

        for step in steps:
            kind = step[0]
            with driver.db.transaction() as s:
                if kind == "insert" and step[1] not in model:
                    doc = {"_id": step[1], **copy.deepcopy(step[2])}
                    s.doc_insert("docs", doc)
                    model[step[1]] = copy.deepcopy(doc)
                    scramble(doc)
                elif kind == "update" and step[1] in model:
                    changes = copy.deepcopy(step[2])
                    model[step[1]].update(copy.deepcopy(changes))
                    check(s.doc_update("docs", step[1], changes), model[step[1]])
                    scramble(changes)
                elif kind == "delete":
                    assert s.doc_delete("docs", step[1]) == (step[1] in model)
                    model.pop(step[1], None)
                elif kind == "get":
                    check(s.doc_get("docs", step[1]), model.get(step[1]))
                elif kind == "scan":
                    check(by_id(list(s.doc_scan("docs"))), by_id(list(model.values())))
                elif kind == "find":
                    want = by_id([d for d in model.values() if d["n"] == step[1]])
                    check(by_id(s.doc_find("docs", "n", step[1])), want)
                elif kind == "read_own_write" and step[1] not in model:
                    doc = {"_id": step[1], **copy.deepcopy(step[2])}
                    s.doc_insert("docs", doc)
                    model[step[1]] = copy.deepcopy(doc)
                    check(s.doc_get("docs", step[1]), model[step[1]])
                    check(by_id(s.doc_find("docs", "n", doc["n"])),
                          by_id([d for d in model.values() if d["n"] == doc["n"]]))
            if kind == "query":
                want = by_id([d for d in model.values() if d["n"] == step[1]])
                check(by_id(driver.query("FOR d IN docs FILTER d.n == @n RETURN d",
                                         {"n": step[1]})), want)
                check(driver.query("FOR d IN docs SORT d._id RETURN {d, tags: d.tags}"),
                      [{"d": d, "tags": d["tags"]} for d in by_id(list(model.values()))])
        final = by_id(list(model.values()))
        assert by_id(driver.query("FOR d IN docs RETURN d")) == final
        with driver.db.crash().transaction() as s:
            assert by_id(list(s.doc_scan("docs"))) == final


# ---------------------------------------------------------------------------
# (f) the scan rider: one behaviour with and without buffered writes
# ---------------------------------------------------------------------------


def reference_scan_iter(txn, model: Model, collection: str, key_filter=None):
    """Transaction.scan as it was before the rider, lazy like the real
    one: committed pass with a write-set probe per key, dirty pass,
    own-writes overlay."""
    manager = txn.manager
    read_ts = txn._read_ts()
    coll = manager.store.collection(model, collection)
    dirty_level = txn.isolation is IsolationLevel.READ_UNCOMMITTED
    emitted = set()
    for raw_key, chain in list(coll.items()):
        if key_filter is not None and not key_filter(raw_key):
            continue
        record_key = RecordKey(model, collection, raw_key)
        if record_key in txn.write_set:
            continue
        if dirty_level:
            dirty = manager.latest_dirty_write(record_key, exclude=txn.txn_id)
            if dirty is not _MISSING:
                if dirty is not None:
                    emitted.add(raw_key)
                    yield raw_key, dirty
                continue
        version = chain.visible_at(read_ts)
        if version is not None and version.value is not None:
            emitted.add(raw_key)
            yield raw_key, version.value
    if dirty_level:
        for record_key, value in manager.dirty_inserts(model, collection, exclude=txn.txn_id):
            if (
                record_key.key not in emitted
                and record_key not in txn.write_set
                and record_key.key not in coll
                and (key_filter is None or key_filter(record_key.key))
            ):
                emitted.add(record_key.key)
                yield record_key.key, value
    for record_key, value in list(txn.write_set.items()):
        if record_key.model is model and record_key.collection == collection:
            if value is not None and (key_filter is None or key_filter(record_key.key)):
                yield record_key.key, value


def reference_scan(txn, model: Model, collection: str, key_filter=None) -> list[tuple]:
    return list(reference_scan_iter(txn, model, collection, key_filter))


class TestScanRider:
    @pytest.mark.parametrize("buffered", [False, True], ids=["read_only", "buffered_writes"])
    @pytest.mark.parametrize("isolation", list(IsolationLevel))
    def test_scan_matches_the_reference(self, isolation, buffered):
        db = MultiModelDatabase()
        db.create_kv_namespace("kv")
        with db.transaction() as tx:
            for k in ["a/1", "a/2", "a/3", "a/4", "b/1", "c/1"]:
                tx.kv_put("kv", k, {"v": [k]})
        reader = db.begin(isolation)  # snapshot taken before what follows
        with db.transaction() as tx:
            tx.kv_delete("kv", "a/4")  # committed delete after the snapshot
            tx.kv_put("kv", "a/5", "late insert")
            tx.kv_put("kv", "b/1", "late update")
        other = db.begin()
        other.kv_put("kv", "a/9", "dirty insert")
        other.kv_put("kv", "a/2", "dirty update")
        other.kv_delete("kv", "c/1")  # dirty delete
        if buffered:
            reader.kv_put("kv", "a/0", "own insert")
            reader.kv_put("kv", "a/1", "own update")
            reader.kv_delete("kv", "a/3")
        prefix_a = lambda k: k.startswith("a/")
        for key_filter in (None, prefix_a):
            got = list(reader.txn.scan(Model.KEY_VALUE, "kv", key_filter))
            want = reference_scan(reader.txn, Model.KEY_VALUE, "kv", key_filter)
            assert got == want
            # Borrowed: the very objects the store / write sets hold.
            assert all(a[1] is b[1] for a, b in zip(got, want))
        keys = sorted(k for k, _ in reader.txn.scan(Model.KEY_VALUE, "kv"))
        snapshot = isolation is IsolationLevel.SNAPSHOT
        dirty = isolation is IsolationLevel.READ_UNCOMMITTED
        want_keys = {"a/1", "a/2", "a/3", "b/1", "c/1"}
        want_keys |= {"a/4"} if snapshot else {"a/5"}  # delete hides, insert shows
        if dirty:
            want_keys = (want_keys | {"a/9"}) - {"c/1"}
        if buffered:
            want_keys = (want_keys | {"a/0"}) - {"a/3"}
        assert keys == sorted(want_keys)
        assert reader.kv_scan_prefix("kv", "a/") == sorted(
            pair for pair in reader.txn.scan(Model.KEY_VALUE, "kv") if prefix_a(pair[0])
        )
        other.abort()
        reader.abort()

    @pytest.mark.parametrize("isolation", list(IsolationLevel))
    def test_writes_made_during_a_lazy_scan_still_overlay(self, isolation):
        """The first write lands while the scan is suspended: rows deleted
        from then on hide, updated ones come out of the overlay."""
        db = MultiModelDatabase()
        db.create_collection("docs")
        with db.transaction() as tx:
            for n in range(1, 6):
                tx.doc_insert("docs", {"_id": n, "v": "old"})
        s = db.begin(isolation)
        assert not s.txn.write_set
        real = s.txn.scan(Model.DOCUMENT, "docs")
        reference = reference_scan_iter(s.txn, Model.DOCUMENT, "docs")
        assert next(real) == next(reference) == (1, {"_id": 1, "v": "old"})
        s.doc_delete("docs", 3)
        s.doc_update("docs", 4, {"v": "new"})
        s.doc_insert("docs", {"_id": 9, "v": "new"})
        s.doc_update("docs", 1, {"v": "new"})  # already emitted: comes again
        rest = list(real)
        assert rest == list(reference)
        assert [(k, d["v"]) for k, d in rest] == [
            (2, "old"), (5, "old"), (4, "new"), (9, "new"), (1, "new"),
        ]
        s.abort()
        # The same through the public, lazy accessors.
        with db.transaction(isolation) as tx:
            seen = []
            for doc in tx.doc_scan("docs"):
                seen.append((doc["_id"], doc["v"]))
                if doc["_id"] == 2:
                    tx.doc_delete("docs", 3)
                    tx.doc_update("docs", 5, {"v": "new"})
            assert seen == [(1, "old"), (2, "old"), (4, "old"), (5, "new")]

    def test_read_only_scan_skips_the_overlay_but_not_the_locks(self):
        db = MultiModelDatabase()
        db.create_collection("docs")
        with db.transaction() as tx:
            tx.doc_insert("docs", {"_id": 1})
        reader = db.begin(IsolationLevel.SERIALIZABLE)
        assert [d["_id"] for d in reader.doc_scan("docs")] == [1]
        held = db.manager.locks.held_by(reader.txn.txn_id)
        assert keyspace_resource(Model.DOCUMENT, "docs") in held
        reader.commit()
        assert list(db.begin().doc_scan("docs")) == [{"_id": 1}]
        empty = db.begin()
        assert list(empty.txn.scan(Model.DOCUMENT, "never_created")) == []


# ---------------------------------------------------------------------------
# Callers that read a context outside the executor and then edit
# ---------------------------------------------------------------------------


@dataclass
class EditsNestedInPlace(EvolutionOp):
    """A rogue op: breaks the "never mutates the input" contract one
    level down, where a shallow ``dict(doc)`` does not protect."""

    collection: str

    def apply_to_shape(self, shape):
        return shape.with_fields(shape.fields)

    def migrate_document(self, doc):
        doc["items"][0]["quantity"] = -1
        doc["items"].append("edited")
        return doc

    def describe(self) -> str:
        return f"EDIT {self.collection}.items"


class TestSchemaCallersOwnWhatTheyEdit:
    def registry(self) -> SchemaRegistry:
        registry = SchemaRegistry()
        registry.register(orders_shape())
        registry.apply(NestFields("orders", ("order_date", "status"), "meta"))
        registry.apply(EditsNestedInPlace("orders"))
        return registry

    def test_lazy_scan_upgrades_a_private_copy(self, fresh_unified):
        before = db_digest(fresh_unified.db)
        migrator = LazyMigrator(fresh_unified, self.registry(), "orders", repair=False)
        upgraded = migrator.scan()
        assert upgraded and all(d["items"][-1] == "edited" for d in upgraded)
        scramble(upgraded)
        assert db_digest(fresh_unified.db) == before
        assert all(d["items"][-1] == "edited" for d in migrator.scan())

    def test_migration_leaves_older_snapshots_intact(self, fresh_unified, small_dataset):
        want = copy.deepcopy(small_dataset.orders[0])
        old_snapshot = fresh_unified.db.begin()
        result = migrate_collection(fresh_unified, "orders", self.registry().ops("orders"))
        assert result.documents_migrated == len(small_dataset.orders)
        assert old_snapshot.doc_get("orders", want["_id"]) == want
        migrated = fresh_unified.db.begin().doc_get("orders", want["_id"])
        assert migrated["items"][0]["quantity"] == -1 and "meta" in migrated


# ---------------------------------------------------------------------------
# The seam: unreachable by accident, visible when used
# ---------------------------------------------------------------------------


def assert_copying(session: Any, read: Callable[[Any], Any]) -> None:
    first = read(session)
    want = copy.deepcopy(first)
    assert first is not None
    scramble(first)
    assert read(session) == want


class TestTheSeam:
    def test_public_session_factories_all_copy(self):
        engine = Engine()
        db = engine.driver.db
        doc = lambda s: s.doc_get("orders", 2)
        assert type(db.begin()) is Session
        assert_copying(db.begin(), doc)
        with db.transaction() as s:
            assert type(s) is Session
            assert_copying(s, doc)
        engine.driver.run_transaction(
            lambda s: (assert_copying(s, doc), assert_copying(s, READS["xml_get"]))
        )
        assert Session._out is not _BorrowingSession._out
        sharded = ShardedDatabase(n_shards=2)
        build(sharded)
        try:
            session = sharded.begin()
            assert type(session) is ShardedSession
            for name in sorted(READS):
                assert_copying(session, READS[name])
            assert all(type(s) is Session for s in session._all())
            with sharded.transaction() as s:
                assert_copying(s, doc)
            sharded.run_transaction(lambda s: assert_copying(s, doc))
        finally:
            sharded.close()

    def test_chaos_workload_sessions_copy(self):
        soak = chaos.ChaosSoak(seed=3, rounds=1)
        try:
            soak._load()
            read = lambda s: s.doc_get(chaos.DOCS, "d3")
            with soak.db.transaction() as s:
                assert type(s) is ShardedSession
                assert all(type(shard) is Session for shard in s._all())
                assert_copying(s, read)
            soak.db.run_transaction(lambda s: assert_copying(s, read))
            soak._check_invariants("ownership test")
        finally:
            soak.db.close()

    def test_rows_copied_out_counts_the_result_boundary(self, small_dataset):
        driver = UnifiedDriver()
        load_dataset(driver, small_dataset)
        ctx = driver.query_context()
        try:
            executor = Executor(ctx)
            rows = executor.execute(
                "FOR o IN orders FILTER o.total_price > 4000 "
                "RETURN {o, n: LENGTH((FOR x IN orders RETURN x._id))}"
            )
            # Subquery rows stay inside the engine: only the result is copied.
            assert executor.stats["rows_copied_out"] == len(rows) > 0
            assert executor.stats["rows_scanned"] > 10 * len(rows)
            executor.execute("FOR o IN orders LIMIT 3 RETURN o")
            assert executor.stats["rows_copied_out"] == len(rows) + 3
            report, results = explain_analyze(ctx, "FOR o IN orders LIMIT 4 RETURN o")
            assert "rows_copied_out=4" in report.splitlines()[-1]
            stored = driver.db.store.chain(
                RecordKey(Model.DOCUMENT, "orders", results[0]["_id"])
            ).latest().value
            assert results[0] == stored and results[0] is not stored
        finally:
            ctx.close()
        assert "rows_copied_out=" in driver.explain_analyze("FOR o IN orders RETURN o")
        before = driver.metrics()["counters"].get("repro_exec_rows_copied_out_total", 0)
        got = driver.query("FOR o IN orders LIMIT 5 RETURN o")
        after = driver.metrics()["counters"]["repro_exec_rows_copied_out_total"]
        assert after - before == len(got) == 5
