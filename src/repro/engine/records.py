"""Record identity and MVCC version chains.

Every datum in the engine — a relational row, a JSON document, an XML
tree, a graph vertex or edge, a key-value pair — is one *record*
addressed by a :class:`RecordKey` and stored as a :class:`VersionChain`
of timestamped immutable values.  This single abstraction is what makes
cross-model transactions natural: the transaction layer never needs to
know which model a record belongs to.

Ownership rule: a value is copied in at ``Transaction.write``, copied
out at ``Session``'s public accessors and at ``Executor.execute``'s
result, immutable and shared in between (write set, version chain,
scans, operators), and never handed to a caller uncopied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.models.document.document import deep_copy_json
from repro.models.xml.node import XmlElement, XmlText


class Model(enum.Enum):
    """The five data models of Figure 1 (graph split into V and E records).

    ``SYSTEM`` is not a user-facing model: it addresses engine-internal
    bookkeeping records (e.g. the cluster's ``_id`` ownership
    reservations) that must ride the same transactional machinery —
    MVCC, WAL, conflict detection, recovery — without ever appearing in
    collection listings or statistics.
    """

    RELATIONAL = "relational"
    DOCUMENT = "document"
    XML = "xml"
    GRAPH_VERTEX = "graph_vertex"
    GRAPH_EDGE = "graph_edge"
    KEY_VALUE = "key_value"
    SYSTEM = "system"


class RecordKey(NamedTuple):
    """(model, collection, key) — the global address of one record."""

    model: Model
    collection: str
    key: Any

    def __str__(self) -> str:
        return f"{self.model.value}/{self.collection}/{self.key!r}"


def copy_value(value: Any) -> Any:
    """Deep-copy a record value of any model.

    JSON-ish values are copied structurally; XML trees are rebuilt node by
    node.  This is the copy of the ownership rule above: once on the way
    in (``Transaction.write``), once on the way out (``Session``
    accessors; ``Executor.execute`` for query rows) — never per record
    touched, since everything in between only reads.
    """
    if isinstance(value, XmlElement):
        return XmlElement(
            value.tag,
            dict(value.attributes),
            [copy_value(c) for c in value.children],
        )
    if isinstance(value, XmlText):
        return XmlText(value.value)
    return deep_copy_json(value)


@dataclass
class Version:
    """One committed version.  ``value is None`` encodes a tombstone."""

    begin_ts: int
    value: Any
    txn_id: int = 0


@dataclass
class VersionChain:
    """Committed versions of one record, oldest first.

    Invariant: ``begin_ts`` strictly increases along the chain (enforced
    by the single commit path; asserted in tests).
    """

    versions: list[Version] = field(default_factory=list)

    def visible_at(self, ts: int) -> Version | None:
        """The version a snapshot at *ts* sees (None = record unborn)."""
        chosen: Version | None = None
        for v in self.versions:
            if v.begin_ts <= ts:
                chosen = v
            else:
                break
        return chosen

    def latest(self) -> Version | None:
        """The most recent committed version."""
        return self.versions[-1] if self.versions else None

    def latest_begin_ts(self) -> int:
        """Timestamp of the newest version, 0 if the chain is empty."""
        return self.versions[-1].begin_ts if self.versions else 0

    def append(self, version: Version) -> None:
        if self.versions and version.begin_ts <= self.versions[-1].begin_ts:
            raise AssertionError(
                "version chain timestamps must strictly increase "
                f"({version.begin_ts} after {self.versions[-1].begin_ts})"
            )
        self.versions.append(version)

    def prune_before(self, ts: int) -> int:
        """Garbage-collect versions not visible to any snapshot >= *ts*.

        Keeps the newest version with ``begin_ts <= ts`` (it is still the
        visible one) and everything after.  Returns versions removed.
        """
        if not self.versions:
            return 0
        keep_from = 0
        for i, v in enumerate(self.versions):
            if v.begin_ts <= ts:
                keep_from = i
            else:
                break
        removed = keep_from
        if removed:
            del self.versions[:keep_from]
        return removed

    def is_dead(self) -> bool:
        """True if the record's only remaining state is a tombstone."""
        return len(self.versions) == 1 and self.versions[0].value is None

    def __len__(self) -> int:
        return len(self.versions)
