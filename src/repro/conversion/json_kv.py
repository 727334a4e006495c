"""JSON <-> key-value conversions via path flattening.

A document becomes a set of (path, scalar) pairs — the standard trick
for storing documents in a plain KV store — and the inverse rebuilds the
document.  The round trip is exact for documents whose keys contain no
'/' or '#' (the path separators), which the generator guarantees.

Encoding::

    {"a": 1, "b": {"c": [2, 3]}}
      ->  a      = 1
          b/c#0  = 2
          b/c#1  = 3

Empty objects/arrays are encoded with a type marker so the inverse is
faithful: ``path = {}`` / ``path = []``.  The markers are strings that
start with ``"\x00"``, so a string scalar starting with it is escaped
with one more ``"\x00"`` on the way out and unescaped on the way back —
no stored string can pass for a marker.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConversionError

_ESCAPE = "\x00"
_EMPTY_OBJECT = _ESCAPE + "{}"
_EMPTY_ARRAY = _ESCAPE + "[]"


def document_to_kv_pairs(doc: dict[str, Any], prefix: str = "") -> list[tuple[str, Any]]:
    """Flatten a document to sorted (path, scalar) pairs.

    The empty document flattens to no pairs (and unflattens back to {}).
    """
    if not doc:
        return []
    pairs: list[tuple[str, Any]] = []
    _flatten(doc, prefix, pairs)
    pairs.sort(key=lambda kv: kv[0])
    return pairs


def _flatten(value: Any, path: str, pairs: list[tuple[str, Any]]) -> None:
    if isinstance(value, dict):
        if not value:
            pairs.append((path, _EMPTY_OBJECT))
            return
        for key, item in value.items():
            if "/" in key or "#" in key or "\x00" in key:
                raise ConversionError(
                    f"key {key!r} contains a reserved character; not flattenable"
                )
            child = f"{path}/{key}" if path else key
            _flatten(item, child, pairs)
        return
    if isinstance(value, list):
        if not value:
            pairs.append((path, _EMPTY_ARRAY))
            return
        for index, item in enumerate(value):
            _flatten(item, f"{path}#{index}", pairs)
        return
    if isinstance(value, str) and value.startswith(_ESCAPE):
        value = _ESCAPE + value
    pairs.append((path, value))


def kv_pairs_to_document(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """Rebuild the nested document from flattened pairs."""
    root: dict[str, Any] = {}
    for path, value in pairs:
        _insert(root, path, value)
    return _finalise(root)


def _insert(root: dict[str, Any], path: str, value: Any) -> None:
    # Split the path into dict steps ('/') and array steps ('#').
    steps: list[tuple[str, str]] = []  # (kind, key) kind in {"key", "idx"}
    for segment in path.split("/"):
        if "#" in segment:
            head, *indices = segment.split("#")
            if head:
                steps.append(("key", head))
            for idx in indices:
                steps.append(("idx", idx))
        else:
            steps.append(("key", segment))
    node: Any = root
    for i, (kind, key) in enumerate(steps):
        last = i == len(steps) - 1
        marker = key if kind == "key" else int(key)
        if last:
            if value == _EMPTY_OBJECT:
                node[marker] = {}
            elif value == _EMPTY_ARRAY:
                node[marker] = {"\x00kind": "list"}
            elif isinstance(value, str) and value.startswith(_ESCAPE):
                node[marker] = value[len(_ESCAPE):]
            else:
                node[marker] = value
        else:
            next_kind = steps[i + 1][0]
            if marker not in node:
                node[marker] = {} if next_kind == "key" else {"\x00kind": "list"}
            node = node[marker]


def _finalise(node: Any) -> Any:
    """Convert index-keyed dicts marked as lists back into real lists."""
    if not isinstance(node, dict):
        return node
    if node.get("\x00kind") == "list":
        items = {k: v for k, v in node.items() if k != "\x00kind"}
        return [_finalise(items[i]) for i in sorted(items)]
    # A dict whose keys are all ints is an implicit array node.
    if node and all(isinstance(k, int) for k in node):
        return [_finalise(node[i]) for i in sorted(node)]
    return {k: _finalise(v) for k, v in node.items() if k != "\x00kind"}
