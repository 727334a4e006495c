"""The correctness gate: oracle answers, canonical comparison, invariants.

Query answers are compared with answers computed once per distinct
(query, parameters) on a ``PolyglotDriver`` loaded from the same
dataset — a different storage stack under the same MMQL front end.
Transaction workloads are checked against a client-side model built
from what each committed body wrote (:class:`WriteModel`), after the
run and again after crash recovery.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable

from repro.core.workloads import QUERY_BY_ID
from repro.datagen.load import load_dataset
from repro.drivers.polyglot import PolyglotDriver
from repro.drivers.unified import UnifiedQueryContext
from repro.models.xml.node import XmlElement

SCENARIO_COLLECTIONS = (
    "customers", "vendors", "orders", "products", "invoices", "feedback",
)


# -- canonical form -------------------------------------------------------------


def canonical(value: Any) -> Any:
    """Order-free, float-tolerant, hashable form of a result value.

    Floats keep 9 significant digits; dict keys sort; XML trees compare
    by their serialised repr of tag, attributes and children.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return tuple(sorted((str(k), canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, XmlElement):
        return (
            "xml", value.tag, canonical(dict(value.attributes)),
            tuple(
                canonical(child) if isinstance(child, XmlElement) else repr(child)
                for child in value.children
            ),
        )
    return repr(value)


def canonical_rows(query_id: str, rows: list[Any]) -> Any:
    """A whole answer: rows as a sorted multiset.

    Q9 returns one shortest path and shortest paths tie, so it compares
    by length and endpoints only.
    """
    if query_id == "Q9":
        if not rows:
            return ("path", 0, None, None)
        return ("path", len(rows), canonical(rows[0]), canonical(rows[-1]))
    return tuple(sorted((canonical(row) for row in rows), key=repr))


# -- the oracle ----------------------------------------------------------------


class Oracle:
    """Expected answers from a PolyglotDriver over the same dataset."""

    def __init__(self, dataset: Any) -> None:
        self.driver = PolyglotDriver()
        load_dataset(self.driver, dataset)
        self.expected: dict[tuple, Any] = {}

    def prepare(self, ops: list[Any]) -> None:
        """Compute the answer of every distinct (query, params) in *ops*."""
        for op in ops:
            if op.key is None or op.key in self.expected:
                continue
            query_id = op.key[0]
            rows = self.driver.query(QUERY_BY_ID[query_id].text, json.loads(op.key[1]))
            self.expected[op.key] = canonical_rows(query_id, rows)

    def corrupt_one(self) -> None:
        """Test hook: damage one expected answer so the gate must trip."""
        key = sorted(self.expected)[0]
        self.expected[key] = ("corrupted", self.expected[key])

    def matches(self, op: Any, rows: list[Any]) -> bool:
        return canonical_rows(op.key[0], rows) == self.expected[op.key]


# -- the client-side model of committed writes ---------------------------------


class _Recorder:
    """Session proxy that notes the writes one transaction body makes."""

    __slots__ = ("_session", "_log")
    WRITES = frozenset(
        ("doc_insert", "doc_update", "xml_put", "kv_put", "graph_add_edge")
    )

    def __init__(self, session: Any, log: list[tuple]) -> None:
        self._session = session
        self._log = log

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._session, name)
        if name not in self.WRITES:
            return attr
        log = self._log

        def call(*args: Any, **kwargs: Any) -> Any:
            log.append((name, args))
            return attr(*args, **kwargs)

        return call


def recording(body: Callable[[Any], Any], log: list[tuple]) -> Callable[[Any], Any]:
    """Wrap *body* so *log* holds the writes of its latest attempt."""

    def run(session: Any) -> Any:
        log.clear()
        return body(_Recorder(session, log))

    return run


class WriteModel:
    """What the database must contain, given the acknowledged commits."""

    def __init__(self, driver: Any) -> None:
        state = read_state(driver)
        self.order_ids: set[Any] = set(state["orders"])
        self.edges: int = state["edges"]
        self.recommendations: set[str] = set(state["recommendations"])
        self.rating_count: int = state["rating_count"]
        self.shipped: set[Any] = set()
        self.absent_ids: set[Any] = set()

    def commit(self, log: list[tuple]) -> set[Any]:
        """Fold one committed body's writes in; returns the orders it shipped."""
        shipped = set()
        for name, args in log:
            if name == "doc_insert" and args[0] == "orders":
                self.order_ids.add(args[1]["_id"])
            elif name == "doc_update" and args[0] == "orders":
                if args[2].get("status") == "shipped":
                    shipped.add(args[1])
            elif name == "doc_update" and args[0] == "products":
                if "rating_count" in args[2]:
                    self.rating_count += 1
            elif name == "kv_put" and args[1].startswith("recommendation/"):
                self.recommendations.add(args[1])
            elif name == "graph_add_edge":
                self.edges += 1
        self.shipped |= shipped
        return shipped

    def fail(self, log: list[tuple]) -> None:
        """A transaction that never committed must leave neither half."""
        for name, args in log:
            if name == "doc_insert" and args[0] == "orders":
                self.absent_ids.add(args[1]["_id"])

    def problems(self, driver: Any) -> list[str]:
        state = read_state(driver)
        found: list[str] = []
        orders, invoices = set(state["orders"]), set(state["invoices"])
        if orders != self.order_ids:
            found.append(
                f"orders: {len(orders)} stored, {len(self.order_ids)} acknowledged"
            )
        if invoices != orders:
            found.append(f"{len(orders ^ invoices)} orders and invoices not 1:1")
        leaked = self.absent_ids & (orders | invoices)
        if leaked:
            found.append(f"{len(leaked)} failed T1 left an order or invoice")
        if state["edges"] != self.edges:
            found.append(f"social edges {state['edges']} != {self.edges}")
        if set(state["recommendations"]) != self.recommendations:
            found.append("recommendation/* keys differ from committed T4")
        if state["rating_count"] != self.rating_count:
            found.append(
                f"sum(rating_count) {state['rating_count']} != {self.rating_count}"
            )
        unshipped = self.shipped - {
            oid for oid, status in state["status"].items() if status == "shipped"
        }
        if unshipped:
            found.append(f"{len(unshipped)} committed T2 orders are not shipped")
        return found


def read_state(driver: Any) -> dict[str, Any]:
    """The facts the invariants need, read through plain MMQL."""
    rows = driver.query("FOR o IN orders RETURN {id: o._id, status: o.status}")
    return {
        "orders": [row["id"] for row in rows],
        "status": {row["id"]: row["status"] for row in rows},
        "invoices": driver.query("FOR i IN invoices RETURN i._id"),
        "edges": len(driver.query('FOR e IN EDGES("social") RETURN e._id')),
        "recommendations": driver.query(
            'FOR kv IN KV("feedback", "recommendation/") RETURN kv.key'
        ),
        "rating_count": sum(
            count or 0
            for count in driver.query("FOR p IN products RETURN p.rating_count")
        ),
    }


def check_txn_read(op: Any, rows: list[Any], dataset_orders: dict, shipped: set) -> bool:
    """A Q1/Q10 read beside the writers: the fields no transaction changes
    must equal the dataset, and status is the original or ``shipped``
    (always ``shipped`` once this client's own T2 committed on it)."""
    if len(rows) != 1:
        return False
    row, order_id = rows[0], op.params["order_id"]
    order = dataset_orders[order_id]
    if row.get("id") != order_id:
        return False
    if row.get("invoice_total") != f"{order['total_price']:.2f}":
        return False
    if op.op_id == "Q1":
        allowed = {"shipped"} if order_id in shipped else {"shipped", order["status"]}
        return row.get("status") in allowed
    return True


# -- follower views -------------------------------------------------------------


def database_digest(db: Any) -> str:
    """Content digest of one MultiModelDatabase's scenario collections."""
    ctx = UnifiedQueryContext(db)
    digest = hashlib.sha256()
    try:
        for name in SCENARIO_COLLECTIONS:
            rows = sorted(repr(canonical(row)) for row in ctx.iter_collection(name))
            digest.update(f"{name}:{len(rows)}\n".encode())
            for row in rows:
                digest.update(row.encode())
        for part in ("vertices", "edges"):
            rows = sorted(
                repr(canonical(row)) for row in getattr(ctx, part)("social", None)
            )
            digest.update(f"{part}:{len(rows)}\n".encode())
            for row in rows:
                digest.update(row.encode())
    finally:
        ctx.close()
    return digest.hexdigest()


def follower_problems(driver: Any) -> list[str]:
    """After ``catch_up()`` every follower view must equal its leader."""
    found = []
    for replica_set in getattr(driver, "replica_sets", ()):
        replica_set.catch_up()
        leader = database_digest(replica_set.leader_db)
        for replica in replica_set.live_followers():
            if database_digest(replica.db) != leader:
                found.append(
                    f"shard {replica_set.shard_id} follower {replica.replica_id} "
                    "differs from its leader"
                )
    return found
