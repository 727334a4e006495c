"""The six named workloads: topology, clients, and the seeded op streams.

Every op is drawn from its own ``derive_seed(seed, workload, client, n)``
stream, so a retried or resubmitted op never shifts the ops after it.
The program under test sees only the generated inputs: MMQL text plus
parameters, or a transaction body from ``repro.core.workloads``.

Mix weights and pool sizes are constants of the benchmark.  They are
not tuned to a commit; changing one redefines the metric and needs the
baseline measured again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.workloads import QUERY_BY_ID, TRANSACTION_BY_ID
from repro.datagen.generator import Dataset
from repro.util.rng import DeterministicRng, derive_seed

# The run length the round counts below are sized for (BENCHMARK.json's
# run_seconds).  ``--seconds`` scales the number of rounds, never the
# ops per round, so the per-round numbers stay comparable.
RUN_SECONDS = 8

# The dataset is the same for every --seed; the seed drives the op
# streams (parameter draws, round order, transaction bodies).  Datasets
# of different seeds differ in total work by more than any bound could
# absorb: at SF 0.5, Q4 over every customer took 1.75 to 2.21 s and Q9
# over 300 pairs 1.32 to 2.14 s across seeds 100-105, because the cost
# follows the shape of the generated social graph.
DATASET_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    topology: str  # "unified" | "sharded" | "replicated"
    scale_factor: float
    clients: int
    kind: str  # "point" | "analytic" | "txn"
    round_ops: int  # ops per round, all clients together
    rounds: int  # measured rounds at RUN_SECONDS
    focus_op: str | None = None  # the op the per-layer table is printed for
    focus_reps: int = 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "point-unified",
            "0.1-3 ms point reads: parse, parameterize, plan cache, context "
            "open/close and index/route reads dominate; operators do little",
            "unified", 0.5, 1, "point", 480, 20,
        ),
        Workload(
            "analytic-unified",
            "scans, XPath, KV prefix and the Q7 join: query/physical.py and "
            "models/ do nearly all the work; the front end is under 1 percent",
            "unified", 0.25, 1, "analytic", 50, 10,
        ),
        Workload(
            "point-sharded",
            "same point stream on 4 process-pool shards with 2 clients: routed "
            "reads should cost about unified, tiny ranges pay a full scatter",
            "sharded", 0.5, 2, "point", 252, 20,
        ),
        Workload(
            "analytic-sharded",
            "the analytic stream dealt to 2 clients on 4 shards: cluster/ "
            "planning, ShardExec, wire encode/pipe/decode, gather is the delta",
            "sharded", 0.25, 2, "analytic", 50, 10, "Q7", 4,
        ),
        Workload(
            "txn-unified",
            "75 percent T1-T4, 25 percent Q1/Q10 on one engine, 1 client: "
            "begin/commit/WAL/locks with no cluster, 2PC or replication",
            "unified", 0.5, 1, "txn", 1250, 18,
        ),
        Workload(
            "txn-replicated",
            "same mix, 2 clients, 4 shards x 3 replicas, majority acks: mostly "
            "cross-shard commits, so 2PC rounds and quorum shipping dominate",
            "replicated", 0.5, 2, "txn", 500, 18, "T2", 200,
        ),
    ]
}

# One point cycle: 12 ops, repeated round_ops // 12 times per round.  The
# cheap routed reads are two thirds of it, so the median op lies inside
# their run on both topologies and the 95th percentile inside the
# dearest type's (Q4 on one node, the scattered Q11/Q11L on four shards).
# With every type equally often, the median of the sharded stream sat on
# the steep low tail of the graph queries and moved by 30 percent.
POINT_CYCLE = (
    ("Q1", 3), ("Q10", 3), ("Q1L", 2), ("Q11", 1), ("Q11L", 1), ("Q4", 1), ("Q9", 1),
)
# One analytic cycle: 50 ops.  The weights put the 50th and the 95th
# percentile op well inside a run of one query type (Q2 or Q12, and Q6)
# on both topologies; between two types a percentile interpolates across
# a twofold cost gap and moves with every reordering.
ANALYTIC_CYCLE = (
    ("Q2", 20), ("Q12", 10), ("Q3", 6), ("Q5", 6), ("Q8", 4), ("Q6", 3), ("Q7", 1),
)
CYCLES = {"point": POINT_CYCLE, "analytic": ANALYTIC_CYCLE}
TXN_IDS = ("T1", "T2", "T3", "T4")
TXN_READ_IDS = ("Q1", "Q10")
TXN_WRITE_SHARE = 0.75

ANALYTIC_POOL = 8  # at most this many distinct parameter values per analytic query
RANGE_WIDTH = 10  # orders covered by one Q11 window
PATH_DEPTH = 3  # Q9 destinations lie this many hops out (or as far as it goes)


def op_ids(kind: str) -> tuple[str, ...]:
    if kind == "txn":
        return TXN_IDS + TXN_READ_IDS
    return tuple(qid for qid, _ in CYCLES[kind])


def cycle_of(kind: str, round_ops: int) -> list[str]:
    """The op types of one point or analytic round, before shuffling."""
    once = [qid for qid, weight in CYCLES[kind] for _ in range(weight)]
    return once * max(1, round_ops // len(once))


@dataclass
class Op:
    """One generated operation.

    Query ops carry ``text``/``params`` and the ``key`` their expected
    answer is stored under; transaction ops carry ``make`` (a fresh body
    per submission, so a client resubmit replays the same draws).
    """

    op_id: str
    n: int
    tag: str  # what the stream digest hashes: the parameters or the body seed
    text: str | None = None
    params: dict[str, Any] | None = None
    key: tuple | None = None
    make: Callable[[], Callable[[Any], Any]] | None = None


def _literal(value: Any) -> str:
    return json.dumps(value) if isinstance(value, str) else repr(value)


def _inline(text: str, params: dict[str, Any]) -> str:
    # Longest names first so "@lo" never eats the head of a longer name.
    for name in sorted(params, key=len, reverse=True):
        text = text.replace("@" + name, _literal(params[name]))
    return text


def _top(counts: dict[Any, int], k: int) -> list[Any]:
    return sorted(counts, key=lambda key: (-counts[key], str(key)))[:k]


def _one_per_stratum(ranked: list[Any], m: int) -> list[Any]:
    """The middle element of each of *m* equal slices of *ranked*."""
    width = len(ranked) / m
    return [ranked[int((i + 0.5) * width)] for i in range(m)]


class OpStream:
    """Seeded op generator for one workload over one dataset.

    Point and analytic rounds all hold the same multiset of work in a
    seeded order, so a slow round means the machine was disturbed, not
    that the round drew harder ops.  The parameters that set an op's cost
    are the same for every seed as well, so that two runs differ by the
    machine and not by their draw: the two heavy-tailed point queries
    (Q4, Q9: cost follows the size of a customer's social neighbourhood)
    get the middle customer of each stratum of that size, and analytic
    parameters are picked by rank (largest countries, most-ordered
    products, fixed quantiles), each value equally often in a round.
    With seeded picks the 95th percentile op of `point-unified`, a Q4,
    moved by 15 percent between seeds on an idle machine.  The seed
    drives the order of every round and the parameters of the
    uniform-cost point queries, drawn afresh every round, which is what
    keeps the inlined-literal texts of Q1L/Q11L (7 x 57 x 12 rounds,
    against a text memo of 4 x 128) missing the plan cache's memo.
    """

    def __init__(
        self, workload: Workload, dataset: Dataset, seed: int, round_ops: int
    ) -> None:
        self.workload = workload
        self.dataset = dataset
        self.seed = seed
        self.round_ops = round_ops
        orders = dataset.orders
        self.order_ids = [o["_id"] for o in orders]
        self.totals = sorted(o["total_price"] for o in orders)
        self.fixed: dict[str, list[dict[str, Any]]] = {}
        if workload.kind == "point":
            self._fix_graph_params(cycle_of("point", round_ops).count("Q4"))
        elif workload.kind == "analytic":
            self._fix_analytic_params(cycle_of("analytic", round_ops).count("Q7"))

    def _fix_graph_params(self, per_type: int) -> None:
        adjacency: dict[int, list[int]] = {}
        for src, dst, _ in self.dataset.knows_edges:
            adjacency.setdefault(src, []).append(dst)

        def levels(src: int, depth: int) -> list[list[int]]:
            seen, frontier, out = {src}, [src], []
            for _ in range(depth):
                frontier = [
                    w for v in frontier for w in adjacency.get(v, ())
                    if w not in seen and not seen.add(w)
                ]
                if not frontier:
                    break
                out.append(frontier)
            return out

        customers = [c["id"] for c in self.dataset.customers]
        reach = {c: sum(len(level) for level in levels(c, 2)) for c in customers}
        ranked = sorted(customers, key=lambda c: (reach[c], c))
        self.fixed["Q4"] = [
            {"customer_id": c} for c in _one_per_stratum(ranked, per_type)
        ]
        self.fixed["Q9"] = []
        for src in _one_per_stratum(ranked, per_type):
            far = levels(src, PATH_DEPTH)
            dst = min(far[-1]) if far else src
            self.fixed["Q9"].append({"src": src, "dst": dst})

    def _fix_analytic_params(self, cycles: int) -> None:
        by_country: dict[str, int] = {}
        for c in self.dataset.customers:
            by_country[c["country"]] = by_country.get(c["country"], 0) + 1
        by_product: dict[str, int] = {}
        for o in self.dataset.orders:
            for item in o["items"]:
                pid = item["product_id"]
                by_product[pid] = by_product.get(pid, 0) + 1
        by_category: dict[str, int] = {}
        for p in self.dataset.products:
            by_category[p["category"]] = by_category.get(p["category"], 0) + 1
        totals = self.totals
        # As many values as divide the query's weight, so that a round
        # takes each value equally often.
        size = {
            qid: max(n for n in range(1, ANALYTIC_POOL + 1) if weight % n == 0)
            for qid, weight in ANALYTIC_CYCLE
        }
        pools = {
            "Q2": [{"country": c} for c in _top(by_country, size["Q2"])],
            "Q3": [{"product_id": p} for p in _top(by_product, size["Q3"])],
            "Q6": [
                {"threshold": totals[int(len(totals) * (0.5 + 0.4 * i / size["Q6"]))]}
                for i in range(size["Q6"])
            ],
            "Q8": [{"category": c} for c in _top(by_category, size["Q8"])],
        }
        for qid, weight in ANALYTIC_CYCLE:
            pool = pools.get(qid, [{}])
            self.fixed[qid] = pool * (weight // len(pool)) * cycles

    # -- op construction -----------------------------------------------------

    def _query(self, op_id: str, n: int, params: dict[str, Any]) -> Op:
        literal = op_id.endswith("L")
        base = QUERY_BY_ID[op_id[:-1] if literal else op_id]
        tag = json.dumps(params, sort_keys=True)
        key = (base.query_id, tag)
        if literal:
            return Op(op_id, n, tag, _inline(base.text, params), None, key)
        return Op(op_id, n, tag, base.text, params, key)

    def _drawn(self, op_id: str, rng: DeterministicRng) -> dict[str, Any]:
        """Fresh parameters for a uniform-cost point query."""
        if op_id in ("Q1", "Q10", "Q1L"):
            return {"order_id": rng.choice(self.order_ids)}
        totals = self.totals  # Q11, Q11L
        start = rng.randint(0, max(0, len(totals) - 1 - RANGE_WIDTH))
        return {
            "lo": totals[start],
            "hi": totals[min(start + RANGE_WIDTH, len(totals) - 1)],
        }

    def _txn(self, op_id: str, n: int, client: int, op_seed: int) -> Op:
        if op_id in TXN_READ_IDS:
            return self._query(op_id, n, self._drawn(op_id, DeterministicRng(op_seed)))
        definition = TRANSACTION_BY_ID[op_id]
        # T1 names its order after the sequence number: keep it unique
        # across clients and away from the warm-up ops.
        sequence = (client + 1) * 10_000_000 + n
        dataset = self.dataset

        def make() -> Callable[[Any], Any]:
            return definition.make(dataset, DeterministicRng(op_seed), sequence)

        return Op(op_id, n, f"seed={op_seed}", make=make)

    def op(
        self, client: int | str, n: int, op_id: str | None = None, slot: int = 0
    ) -> Op:
        """Op *n* of *client*.

        *op_id* pins the type (cycles, warm-up, the focus pass); *slot*
        says which of the run's fixed parameters a fixed-parameter type
        takes.
        """
        op_seed = derive_seed(self.seed, self.workload.name, client, n)
        rng = DeterministicRng(op_seed)
        if self.workload.kind == "txn":
            if op_id is None:
                ids = TXN_IDS if rng.random() < TXN_WRITE_SHARE else TXN_READ_IDS
                op_id = rng.choice(ids)
            client_no = client if isinstance(client, int) else 9
            return self._txn(op_id, n, client_no, derive_seed(op_seed, "body"))
        fixed = self.fixed.get(op_id)
        if fixed is not None:
            return self._query(op_id, n, fixed[slot % len(fixed)])
        return self._query(op_id, n, self._drawn(op_id, rng))

    # -- rounds --------------------------------------------------------------

    def round(self, index: int) -> list[list[Op]]:
        """Round *index* as one op list per client."""
        wl, round_ops = self.workload, self.round_ops
        if wl.kind == "txn":
            share = round_ops // wl.clients
            return [
                [self.op(client, index * share + i) for i in range(share)]
                for client in range(wl.clients)
            ]
        cycle = cycle_of(wl.kind, round_ops)
        DeterministicRng(derive_seed(self.seed, wl.name, "order", index)).shuffle(cycle)
        per_client: list[list[Op]] = [[] for _ in range(wl.clients)]
        seen: dict[str, int] = {}
        for position, qid in enumerate(cycle):  # dealt alternately
            client = position % wl.clients
            slot = seen[qid] = seen.get(qid, -1) + 1
            n = index * len(cycle) + position
            per_client[client].append(self.op(client, n, qid, slot))
        return per_client

    def warmup(self) -> list[Op]:
        """One op of every type, outside the measured stream."""
        return [
            self.op("warmup", i, op_id)
            for i, op_id in enumerate(op_ids(self.workload.kind))
        ]


def stream_digest(rounds: list[list[list[Op]]]) -> str:
    """SHA-256 over every op of every client of every round, in order."""
    digest = hashlib.sha256()
    for per_client in rounds:
        for ops in per_client:
            for op in ops:
                digest.update(f"{op.op_id}|{op.tag}".encode("utf-8"))
                digest.update(b"\n")
    return digest.hexdigest()
