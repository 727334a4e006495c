"""An in-memory B+tree.

Backs :class:`repro.engine.indexes.BTreeIndex` (index kind ``"btree"``);
the ``"sorted"`` kind, :class:`~repro.engine.indexes.SortedIndex`, is a
flat bisect list.  Leaves are linked for ordered range scans, internal nodes hold separator keys, and the fanout is a
constructor knob so tests can force deep trees.

Keys must be mutually comparable; values are opaque.  Duplicate keys are
rejected at insert (the index layer namespaces keys to avoid them).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import EngineError


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: list[Any] = []
        self.children: list[_Node] = []  # internal nodes
        self.values: list[Any] = []  # leaves
        self.next_leaf: _Node | None = None


class BPlusTree:
    """B+tree with insert, delete, point get, and ordered range scans.

    >>> t = BPlusTree(order=4)
    >>> for i in [5, 1, 9, 3, 7]:
    ...     t.insert(i, str(i))
    >>> [k for k, _ in t.range(2, 8)]
    [3, 5, 7]
    """

    def __init__(self, order: int = 32) -> None:
        if order < 3:
            raise EngineError("B+tree order must be >= 3")
        self.order = order
        self._root = _Node(is_leaf=True)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # -- search ------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        while not node.is_leaf:
            idx = self._child_index(node, key)
            node = node.children[idx]
        return node

    @staticmethod
    def _child_index(node: _Node, key: Any) -> int:
        idx = 0
        while idx < len(node.keys) and key >= node.keys[idx]:
            idx += 1
        return idx

    def get(self, key: Any, default: Any = None) -> Any:
        leaf = self._find_leaf(key)
        for k, v in zip(leaf.keys, leaf.values):
            if k == key:
                return v
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    # -- insert ------------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert a new key; raises on duplicates."""
        split = self._insert(self._root, key, value)
        if split is not None:
            sep, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
        self._size += 1

    def _insert(self, node: _Node, key: Any, value: Any):
        if node.is_leaf:
            idx = 0
            while idx < len(node.keys) and node.keys[idx] < key:
                idx += 1
            if idx < len(node.keys) and node.keys[idx] == key:
                raise EngineError(f"duplicate key {key!r} in B+tree")
            node.keys.insert(idx, key)
            node.values.insert(idx, value)
            if len(node.keys) >= self.order:
                return self._split_leaf(node)
            return None
        idx = self._child_index(node, key)
        split = self._insert(node.children[idx], key, value)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(idx, sep)
        node.children.insert(idx + 1, right)
        if len(node.children) > self.order:
            return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Node):
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_internal(self, node: _Node):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        return sep, right

    # -- delete -------------------------------------------------------------------

    def delete(self, key: Any) -> bool:
        """Delete *key*; returns whether it was present.

        Uses lazy deletion (no rebalancing): leaves may underflow but
        stay correct; the tree never grows taller from deletes.  This is
        the classic trade for in-memory indexes with churn, and keeps the
        code honest-to-verify.  Empty nodes are pruned on the way down.
        """
        leaf = self._find_leaf(key)
        for i, k in enumerate(leaf.keys):
            if k == key:
                del leaf.keys[i]
                del leaf.values[i]
                self._size -= 1
                return True
        return False

    # -- scans -----------------------------------------------------------------------

    def _leftmost_leaf(self) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    def items(self) -> Iterator[tuple[Any, Any]]:
        """All (key, value) pairs in key order."""
        leaf: _Node | None = self._leftmost_leaf()
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next_leaf

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = False,
    ) -> Iterator[tuple[Any, Any]]:
        """Ordered (key, value) pairs inside the bounds (default [low, high))."""
        if low is None:
            leaf: _Node | None = self._leftmost_leaf()
            start = 0
        else:
            leaf = self._find_leaf(low)
            start = 0
            while start < len(leaf.keys) and (
                leaf.keys[start] < low or (not include_low and leaf.keys[start] == low)
            ):
                start += 1
        while leaf is not None:
            for i in range(start, len(leaf.keys)):
                key = leaf.keys[i]
                if high is not None and (
                    key > high or (not include_high and key == high)
                ):
                    return
                yield key, leaf.values[i]
            leaf = leaf.next_leaf
            start = 0

    def min_key(self) -> Any:
        leaf = self._leftmost_leaf()
        return leaf.keys[0] if leaf.keys else None

    def max_key(self) -> Any:
        node = self._root
        while not node.is_leaf:
            node = node.children[-1]
        # rightmost leaf may be empty after lazy deletes; walk items if so
        if node.keys:
            return node.keys[-1]
        last = None
        for key, _ in self.items():
            last = key
        return last

    # -- validation (tests) --------------------------------------------------------------

    def check_invariants(self) -> None:
        """Structural checks: sorted keys, correct separators, linked leaves."""
        keys_in_order = [k for k, _ in self.items()]
        if keys_in_order != sorted(keys_in_order):
            raise EngineError("B+tree leaf chain is out of order")
        if len(keys_in_order) != self._size:
            raise EngineError(
                f"B+tree size {self._size} != {len(keys_in_order)} reachable keys"
            )
        self._check_node(self._root, None, None)

    def _check_node(self, node: _Node, low: Any, high: Any) -> None:
        if sorted(node.keys) != node.keys:
            raise EngineError("node keys out of order")
        for k in node.keys:
            if low is not None and k < low:
                raise EngineError("separator below subtree lower bound")
            if high is not None and k > high:
                raise EngineError("separator above subtree upper bound")
        if node.is_leaf:
            return
        if len(node.children) != len(node.keys) + 1:
            raise EngineError("internal fanout mismatch")
        for i, child in enumerate(node.children):
            child_low = node.keys[i - 1] if i > 0 else low
            child_high = node.keys[i] if i < len(node.keys) else high
            self._check_node(child, child_low, child_high)
