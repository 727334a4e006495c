"""Secondary indexes over committed record state.

Indexes map an extracted field value to the set of record keys holding
it.  They are maintained at commit time (the engine's single apply path)
and always reflect the *latest committed* state; snapshot reads therefore
re-check visibility of each candidate before returning it, which keeps
index maintenance simple and correct under MVCC.

Two flavours:

- :class:`HashIndex`   — equality lookups, O(1)
- :class:`SortedIndex` — range lookups via bisection, O(log n + k)
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Hashable, Iterator

from repro.errors import EngineError

Extractor = Callable[[Any], Hashable]


def extract_path(value: Any, field: str) -> Any:
    """Value at *field* of a dict-shaped record, following dotted paths.

    Each dot descends one nested dict — mirroring how MMQL's chained
    field access (``u.address.city``) evaluates, so an index keyed by
    this extractor always agrees with the query predicate it serves (a
    literal ``"address.city"`` key is unreachable from MMQL and is not
    consulted).  Returns None when any step is missing or not a dict.
    """
    node: Any = value
    for part in field.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def field_extractor(field: str) -> Extractor:
    """Extractor for a field of a dict-shaped record value.

    *field* may be a dotted path (``"address.city"``) into nested
    documents; container-valued results are unindexable and map to None.
    """

    def extract(value: Any) -> Hashable:
        got = extract_path(value, field)
        if isinstance(got, (list, dict)):
            return None  # unindexable nested value
        return got

    return extract


class HashIndex:
    """field value -> set of record keys."""

    def __init__(self, name: str, extractor: Extractor) -> None:
        self.name = name
        self.extractor = extractor
        self._buckets: dict[Hashable, set[Any]] = {}

    def on_write(self, record_key: Any, old_value: Any, new_value: Any) -> None:
        """Maintain the index across one committed write (None = absent)."""
        old_field = self.extractor(old_value) if old_value is not None else None
        new_field = self.extractor(new_value) if new_value is not None else None
        if old_value is not None and old_field is not None:
            bucket = self._buckets.get(old_field)
            if bucket is not None:
                bucket.discard(record_key)
                if not bucket:
                    del self._buckets[old_field]
        if new_value is not None and new_field is not None:
            self._buckets.setdefault(new_field, set()).add(record_key)

    def lookup(self, value: Hashable) -> set[Any]:
        """Record keys whose indexed field equals *value* (latest-committed)."""
        return set(self._buckets.get(value, ()))

    def distinct_values(self) -> list[Hashable]:
        return list(self._buckets.keys())

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())


class SortedIndex:
    """Ordered (field value, record key) pairs for range scans.

    Values must be mutually comparable; mixed-type fields raise at
    maintenance time so corruption is caught at the write, not the read.
    Record keys are disambiguated by ``repr`` so heterogeneous keys never
    get compared directly.
    """

    def __init__(self, name: str, extractor: Extractor) -> None:
        self.name = name
        self.extractor = extractor
        # Sorted by (value, repr(record_key)).
        self._pairs: list[tuple[Any, str, Any]] = []

    def on_write(self, record_key: Any, old_value: Any, new_value: Any) -> None:
        """Maintain the index across one committed write (None = absent)."""
        old_field = self.extractor(old_value) if old_value is not None else None
        new_field = self.extractor(new_value) if new_value is not None else None
        if old_value is not None and old_field is not None:
            self._remove(old_field, record_key)
        if new_value is not None and new_field is not None:
            self._insert(new_field, record_key)

    def _insert(self, value: Any, record_key: Any) -> None:
        entry = (value, repr(record_key), record_key)
        try:
            idx = bisect.bisect_left(self._pairs, entry[:2], key=lambda e: e[:2])
        except TypeError as exc:
            raise EngineError(
                f"index {self.name!r}: value {value!r} is not comparable with "
                "existing entries"
            ) from exc
        self._pairs.insert(idx, entry)

    def _remove(self, value: Any, record_key: Any) -> None:
        probe = (value, repr(record_key))
        try:
            idx = bisect.bisect_left(self._pairs, probe, key=lambda e: e[:2])
        except TypeError:
            return
        if idx < len(self._pairs) and self._pairs[idx][:2] == probe:
            del self._pairs[idx]

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield (field value, record key) for values inside the bounds.

        ``None`` bounds are open.  Defaults give the half-open interval
        ``[low, high)``.
        """
        if low is None:
            start = 0
        else:
            start = bisect.bisect_left(self._pairs, low, key=lambda e: e[0])
        for i in range(start, len(self._pairs)):
            value, _, record_key = self._pairs[i]
            if low is not None and not include_low and value == low:
                continue
            if high is not None:
                if value > high or (not include_high and value == high):
                    break
            yield value, record_key

    def min_value(self) -> Any:
        return self._pairs[0][0] if self._pairs else None

    def max_value(self) -> Any:
        return self._pairs[-1][0] if self._pairs else None

    def __len__(self) -> int:
        return len(self._pairs)


class BTreeIndex:
    """Range index backed by :class:`repro.engine.btree.BPlusTree`.

    Same interface as :class:`SortedIndex`, but maintenance costs
    O(log n) per write where the flat sorted list pays O(n).
    """

    def __init__(self, name: str, extractor: Extractor, order: int = 32) -> None:
        from repro.engine.btree import BPlusTree

        self.name = name
        self.extractor = extractor
        # Tree keys are (value, repr(record_key)) so duplicates of the
        # indexed value coexist; the record key is the payload.
        self._tree = BPlusTree(order=order)

    def on_write(self, record_key: Any, old_value: Any, new_value: Any) -> None:
        """Maintain the index across one committed write (None = absent)."""
        old_field = self.extractor(old_value) if old_value is not None else None
        new_field = self.extractor(new_value) if new_value is not None else None
        if old_value is not None and old_field is not None:
            self._tree.delete((old_field, repr(record_key)))
        if new_value is not None and new_field is not None:
            try:
                self._tree.insert((new_field, repr(record_key)), record_key)
            except TypeError as exc:
                raise EngineError(
                    f"index {self.name!r}: value {new_field!r} is not comparable "
                    "with existing entries"
                ) from exc

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield (field value, record key) for values inside the bounds."""
        for (value, _), record_key in self._tree.items() if low is None and high is None else self._scan(low, high):
            if low is not None:
                if value < low or (not include_low and value == low):
                    continue
            if high is not None:
                if value > high or (not include_high and value == high):
                    break
            yield value, record_key

    def _scan(self, low: Any, high: Any) -> Iterator[tuple[tuple[Any, str], Any]]:
        tree_low = (low, "") if low is not None else None
        # High bound handled by the caller (needs inclusivity semantics on
        # the *value*, not the composite key).
        yield from self._tree.range(tree_low, None)

    def min_value(self) -> Any:
        key = self._tree.min_key()
        return key[0] if key is not None else None

    def max_value(self) -> Any:
        key = self._tree.max_key()
        return key[0] if key is not None else None

    def __len__(self) -> int:
        return len(self._tree)
