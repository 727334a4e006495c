"""Driver for the unified multi-model engine.

Queries read the latest committed state through a long-lived snapshot
session that is refreshed before each query; transactions run through
``db.transaction()`` with configurable isolation.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.engine.database import MultiModelDatabase, Session, _BorrowingSession
from repro.engine.records import Model
from repro.engine.transactions import IsolationLevel
from repro.errors import NoSuchCollectionError, TransactionAborted
from repro.drivers.base import Driver


class UnifiedQueryContext:
    """QueryContext over one read-only snapshot session.

    The session borrows: everything this context yields is the store's
    own object, read-only, and copied once by ``Executor.execute``.
    """

    def __init__(self, db: MultiModelDatabase) -> None:
        self.db = db
        self.session: Session = _BorrowingSession(
            db, db.manager.begin(IsolationLevel.SNAPSHOT)
        )

    def close(self) -> None:
        # The snapshot is read-only, so commit is free (no WAL record)
        # and keeps ``aborts`` meaning transactions that really aborted.
        if self.session.txn.state.value == "active":
            self.session.commit()

    # -- collection resolution ------------------------------------------------

    def _model_of(self, name: str) -> Model:
        if self.db.store.has_collection(Model.RELATIONAL, name):
            return Model.RELATIONAL
        if self.db.store.has_collection(Model.DOCUMENT, name):
            return Model.DOCUMENT
        if self.db.store.has_collection(Model.XML, name):
            return Model.XML
        if name in self.db._graphs:
            return Model.GRAPH_VERTEX
        if self.db.store.has_collection(Model.KEY_VALUE, name):
            return Model.KEY_VALUE
        raise NoSuchCollectionError(f"no collection {name!r}")

    def iter_collection(self, name: str) -> Iterable[Any]:
        model = self._model_of(name)
        if model is Model.RELATIONAL:
            yield from self.session.sql_scan(name)
        elif model is Model.DOCUMENT:
            yield from self.session.doc_scan(name)
        elif model is Model.XML:
            for doc_id, tree in self.session.xml_scan(name):
                yield {"_id": doc_id, "root": tree}
        elif model is Model.GRAPH_VERTEX:
            yield from self.vertices(name, None)
        else:  # KEY_VALUE
            for key, value in self.session.txn.scan(Model.KEY_VALUE, name):
                yield {"key": key, "value": value}

    def index_lookup(
        self, collection: str, field: str, value: Any
    ) -> Iterable[Any] | None:
        model = self._model_of(collection)
        if model is Model.RELATIONAL and field == "_id":
            # MMQL's DOCUMENT() uses "_id"; relational PK is the id column.
            schema = self.db.table_schema(collection)
            if len(schema.primary_key) == 1:
                row = self.session.sql_get(collection, (value,))
                return [row] if row is not None else []
        if model is Model.DOCUMENT and field == "_id":
            doc = self.session.doc_get(collection, value)
            return [doc] if doc is not None else []
        index = self.db.index(
            Model.RELATIONAL if model is Model.RELATIONAL else Model.DOCUMENT,
            collection,
            field,
        )
        if index is None:
            return None
        if model is Model.RELATIONAL:
            return self.session.sql_find(collection, field, value)
        return self.session.doc_find(collection, field, value)

    def range_lookup(
        self,
        collection: str,
        field: str,
        low: Any,
        high: Any,
        include_low: bool,
        include_high: bool,
    ) -> Iterable[Any] | None:
        """Range lookup via a sorted or B+tree index, if one exists.

        Candidates are re-read through the transaction for visibility;
        the executor re-applies the filter, so over-approximation from a
        latest-committed index stays correct.  Bounds that don't compare
        with the indexed values (e.g. a string bound over a numeric
        index) degrade to a scan — the residual filter then evaluates
        the mismatched comparison to False, exactly as without an index.
        """
        model = self._model_of(collection)
        if model not in (Model.RELATIONAL, Model.DOCUMENT):
            return None
        index = None
        for kind in ("sorted", "btree"):
            index = self.db.index(model, collection, field, kind=kind)
            if index is not None:
                break
        if index is None:
            return None
        out = []
        try:
            for _, record_key in index.range(low, high, include_low, include_high):
                row = self.session.txn.read(record_key)
                if row is not None:
                    out.append(row)
        except TypeError:
            return None
        return out

    # -- graph -------------------------------------------------------------------

    def _vertex_dict(self, vertex: Any) -> dict[str, Any]:
        out = {"_id": vertex.id, "label": vertex.label}
        out.update(vertex.properties)
        return out

    def traverse(
        self,
        graph: str,
        start: Any,
        min_depth: int,
        max_depth: int,
        edge_label: str | None,
    ) -> Iterable[Any]:
        for vid in self.session.graph_traverse(
            graph, start, min_depth, max_depth, edge_label
        ):
            vertex = self.session.graph_vertex(graph, vid)
            if vertex is not None:
                yield self._vertex_dict(vertex)

    def vertices(self, graph: str, label: str | None) -> Iterable[Any]:
        for vertex in self.session.graph_vertices(graph, label):
            yield self._vertex_dict(vertex)

    def edges(self, graph: str, label: str | None) -> Iterable[Any]:
        for edge in self.session.graph_edges(graph, label):
            out = {
                "_id": edge.id, "_src": edge.src, "_dst": edge.dst,
                "label": edge.label,
            }
            out.update(edge.properties)
            yield out

    def shortest_path(
        self, graph: str, start: Any, goal: Any, edge_label: str | None
    ) -> list[Any] | None:
        """BFS shortest path over committed adjacency."""
        if start == goal:
            return [start]
        from collections import deque

        parents: dict[Any, Any] = {start: start}
        queue: deque[Any] = deque([start])
        while queue:
            vid = queue.popleft()
            for edge in self.session.graph_out_edges(graph, vid, edge_label):
                if edge.dst in parents:
                    continue
                parents[edge.dst] = vid
                if edge.dst == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                queue.append(edge.dst)
        return None

    # -- KV / XML bridges ------------------------------------------------------------

    def kv_get(self, namespace: str, key: str) -> Any:
        return self.session.kv_get(namespace, key)

    def kv_prefix(self, namespace: str, prefix: str) -> Iterable[Any]:
        for key, value in self.session.kv_scan_prefix(namespace, prefix):
            yield {"key": key, "value": value}

    def xml_get(self, collection: str, doc_id: Any) -> Any:
        return self.session.xml_get(collection, doc_id)


class UnifiedDriver(Driver):
    """The multi-model engine behind the uniform driver interface."""

    name = "unified"

    def __init__(
        self,
        isolation: IsolationLevel = IsolationLevel.SNAPSHOT,
        max_retries: int = 10,
        wal_sync_every_append: bool = True,
    ) -> None:
        self.db = MultiModelDatabase(wal_sync_every_append=wal_sync_every_append)
        self.isolation = isolation
        self.max_retries = max_retries

    # -- DDL ---------------------------------------------------------------

    def create_table(self, schema: Any) -> None:
        self.db.create_table(schema)

    def create_collection(self, name: str) -> None:
        self.db.create_collection(name)

    def create_xml_collection(self, name: str) -> None:
        self.db.create_xml_collection(name)

    def create_kv_namespace(self, name: str) -> None:
        self.db.create_kv_namespace(name)

    def create_graph(self, name: str) -> None:
        self.db.create_graph(name)

    def create_index(
        self, kind: str, collection: str, field: str, index_type: str = "hash"
    ) -> None:
        model = Model.RELATIONAL if kind == "table" else Model.DOCUMENT
        self.db.create_index(model, collection, field, kind=index_type)

    # -- loading -------------------------------------------------------------

    def load(self, loader: Callable[[Session], None]) -> None:
        with self.db.transaction(IsolationLevel.SNAPSHOT) as session:
            loader(session)

    # -- queries -------------------------------------------------------------

    def query_context(self) -> UnifiedQueryContext:
        return UnifiedQueryContext(self.db)

    def catalog_epoch(self) -> int:
        return self.db.catalog_epoch

    # -- observability -----------------------------------------------------------

    def _register_observability(self, obs) -> None:
        """Plan cache (base) + this engine's WAL, lock table and txn manager.

        Collectors close over ``self`` (not the current ``db.wal`` etc.)
        so they keep reading the live objects even if the database is
        rebuilt under the driver.
        """
        super()._register_observability(obs)
        obs.registry.register_collector("wal", lambda: self.db.wal.metrics())
        obs.registry.register_collector(
            "locks", lambda: self.db.manager.locks.metrics()
        )
        obs.registry.register_collector(
            "txn",
            lambda: {
                "commits": self.db.manager.commits,
                "aborts": self.db.manager.aborts,
                "conflicts": self.db.manager.conflicts,
            },
        )

    # -- transactions ------------------------------------------------------------

    def run_transaction(self, body: Callable[[Session], Any]) -> Any:
        """Run *body* with retry-on-conflict (first-committer-wins aborts)."""
        attempts = 0
        while True:
            attempts += 1
            try:
                with self.db.transaction(self.isolation) as session:
                    return body(session)
            except TransactionAborted:
                if attempts > self.max_retries:
                    raise

    def stats(self) -> dict[str, int]:
        return self.db.stats()
