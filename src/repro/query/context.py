"""QueryContext: the interface MMQL execution needs from a database.

Any system that implements this protocol can run the benchmark's MMQL
workload — the unified engine and the polyglot baseline both do, which is
how one shared query set evaluates two architectures (the paper's call
for "unified" benchmark queries).
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol


class QueryContext(Protocol):
    """Data access surface for the MMQL executor.

    Everything a context yields is read-only and owned by the store: a
    context may hand out the committed objects themselves, and only
    ``Executor.execute`` copies the rows it returns.  A caller that
    reads a context directly and wants to edit what it got deep-copies
    it first.
    """

    def iter_collection(self, name: str) -> Iterable[Any]:
        """Iterate a named collection.

        Relational tables yield row dicts; document collections yield
        document dicts; XML collections yield ``{"_id": ..., "root":
        XmlElement}``; graph names yield vertex dicts ``{"_id", "label",
        ...props}``.  Raises if *name* is unknown.
        """
        ...

    def index_lookup(
        self, collection: str, field: str, value: Any
    ) -> Iterable[Any] | None:
        """Equality lookup via a secondary index.

        Returns None when no usable index exists (executor falls back to
        a scan); otherwise an iterable of the same shape as
        :meth:`iter_collection`.  *field* may be a dotted path
        (``address.city``) when the index was created on one.
        """
        ...

    def range_lookup(
        self,
        collection: str,
        field: str,
        low: Any,
        high: Any,
        include_low: bool,
        include_high: bool,
    ) -> Iterable[Any] | None:
        """Range lookup via an ordered secondary index.

        Serves the planner's :class:`~repro.query.physical.IndexRangeScan`
        access path.  ``None`` bounds are open; inclusivity flags mirror
        the comparison operators the planner matched.  Returns None when
        no usable index exists (executor falls back to a scan).  May
        over-approximate — the residual FILTER keeps the answer exact.
        """
        ...

    def traverse(
        self,
        graph: str,
        start: Any,
        min_depth: int,
        max_depth: int,
        edge_label: str | None,
    ) -> Iterable[Any]:
        """BFS neighbourhood; yields vertex dicts like iter_collection."""
        ...

    def vertices(self, graph: str, label: str | None) -> Iterable[Any]:
        """All vertices of a graph, as dicts."""
        ...

    def edges(self, graph: str, label: str | None) -> Iterable[Any]:
        """All edges of a graph, as dicts {_id, _src, _dst, label, ...props}."""
        ...

    def kv_get(self, namespace: str, key: str) -> Any:
        """Point key-value lookup (None when absent)."""
        ...

    def kv_prefix(self, namespace: str, prefix: str) -> Iterable[Any]:
        """Prefix scan; yields ``{"key": k, "value": v}`` dicts."""
        ...

    def xml_get(self, collection: str, doc_id: Any) -> Any:
        """Fetch one XML tree (or None)."""
        ...

    def shortest_path(
        self, graph: str, start: Any, goal: Any, edge_label: str | None
    ) -> list[Any] | None:
        """Unweighted shortest path between two vertices (vertex ids)."""
        ...
