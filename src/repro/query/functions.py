"""MMQL builtin functions.

Most builtins are pure: they read only their arguments (XPATH and
JSONPATH included — they evaluate a path over a value already bound).
*Bridge* builtins (XMLGET, KVGET, KV, TRAVERSE, VERTICES, EDGES,
SHORTEST_PATH, DOCUMENT) reach into the
:class:`~repro.query.context.QueryContext` to read other collections —
they are what make MMQL multi-model.  Bridges are declared where they
are registered (``register(name, bridge=True)``) and reported by
:func:`is_bridge`, so the shard planner's pushdown rule cannot drift
from the code: a bridge evaluated inside a shard worker would see only
that shard's data.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.errors import ExecutionError, UnknownFunctionError
from repro.models.document.jsonpath import JsonPath
from repro.models.xml.node import XmlElement
from repro.models.xml.xpath import XPath

# signature: fn(ctx, args) -> value
Builtin = Callable[[Any, list[Any]], Any]

_REGISTRY: dict[str, Builtin] = {}
_BRIDGES: set[str] = set()


def register(name: str, bridge: bool = False) -> Callable[[Builtin], Builtin]:
    """Register a builtin; ``bridge=True`` marks one that reads ``ctx``."""
    def wrap(fn: Builtin) -> Builtin:
        _REGISTRY[name] = fn
        if bridge:
            _BRIDGES.add(name)
        return fn

    return wrap


def call_builtin(name: str, ctx: Any, args: list[Any]) -> Any:
    fn = _REGISTRY.get(name)
    if fn is None:
        raise UnknownFunctionError(f"unknown function {name}()")
    return fn(ctx, args)


def lookup_builtin(name: str) -> Builtin | None:
    """The registered builtin, or None — lets compilation resolve it once."""
    return _REGISTRY.get(name)


def is_builtin(name: str) -> bool:
    return name in _REGISTRY


def is_bridge(name: str) -> bool:
    """True for a builtin that reads other collections through ``ctx``."""
    return name in _BRIDGES


def builtin_names() -> list[str]:
    return sorted(_REGISTRY)


def _arity(name: str, args: list[Any], low: int, high: int | None = None) -> None:
    high = low if high is None else high
    if not low <= len(args) <= high:
        raise ExecutionError(
            f"{name}() takes {low}"
            + (f"..{high}" if high != low else "")
            + f" arguments, got {len(args)}"
        )


# ---------------------------------------------------------------------------
# Scalar builtins
# ---------------------------------------------------------------------------


@register("LENGTH")
def _length(ctx: Any, args: list[Any]) -> int:
    _arity("LENGTH", args, 1)
    value = args[0]
    if value is None:
        return 0
    if isinstance(value, (list, dict, str)):
        return len(value)
    raise ExecutionError(f"LENGTH() of {type(value).__name__}")


@register("CONCAT")
def _concat(ctx: Any, args: list[Any]) -> str:
    return "".join("" if a is None else str(a) for a in args)


@register("UPPER")
def _upper(ctx: Any, args: list[Any]) -> str:
    _arity("UPPER", args, 1)
    return str(args[0]).upper()


@register("LOWER")
def _lower(ctx: Any, args: list[Any]) -> str:
    _arity("LOWER", args, 1)
    return str(args[0]).lower()


@register("CONTAINS")
def _contains(ctx: Any, args: list[Any]) -> bool:
    _arity("CONTAINS", args, 2)
    haystack, needle = args
    if haystack is None:
        return False
    if isinstance(haystack, str):
        return str(needle) in haystack
    if isinstance(haystack, list):
        return needle in haystack
    raise ExecutionError("CONTAINS() expects a string or list haystack")


@register("SUBSTRING")
def _substring(ctx: Any, args: list[Any]) -> str:
    _arity("SUBSTRING", args, 2, 3)
    s = str(args[0])
    start = int(args[1])
    if len(args) == 3:
        return s[start : start + int(args[2])]
    return s[start:]


@register("ROUND")
def _round(ctx: Any, args: list[Any]) -> float:
    _arity("ROUND", args, 1, 2)
    digits = int(args[1]) if len(args) == 2 else 0
    return round(float(args[0]), digits)


@register("FLOOR")
def _floor(ctx: Any, args: list[Any]) -> int:
    _arity("FLOOR", args, 1)
    return math.floor(float(args[0]))


@register("CEIL")
def _ceil(ctx: Any, args: list[Any]) -> int:
    _arity("CEIL", args, 1)
    return math.ceil(float(args[0]))


@register("ABS")
def _abs(ctx: Any, args: list[Any]) -> Any:
    _arity("ABS", args, 1)
    return abs(args[0])


@register("MIN")
def _min(ctx: Any, args: list[Any]) -> Any:
    values = args[0] if len(args) == 1 and isinstance(args[0], list) else args
    values = [v for v in values if v is not None]
    return min(values) if values else None


@register("MAX")
def _max(ctx: Any, args: list[Any]) -> Any:
    values = args[0] if len(args) == 1 and isinstance(args[0], list) else args
    values = [v for v in values if v is not None]
    return max(values) if values else None


@register("SUM")
def _sum(ctx: Any, args: list[Any]) -> Any:
    _arity("SUM", args, 1)
    if not isinstance(args[0], list):
        raise ExecutionError("SUM() expects a list")
    return sum(v for v in args[0] if v is not None)


@register("AVG")
def _avg(ctx: Any, args: list[Any]) -> Any:
    _arity("AVG", args, 1)
    if not isinstance(args[0], list):
        raise ExecutionError("AVG() expects a list")
    values = [v for v in args[0] if v is not None]
    return sum(values) / len(values) if values else None


@register("COUNT")
def _count(ctx: Any, args: list[Any]) -> int:
    _arity("COUNT", args, 1)
    if isinstance(args[0], list):
        return len(args[0])
    return 0 if args[0] is None else 1


@register("UNIQUE")
def _unique(ctx: Any, args: list[Any]) -> list[Any]:
    _arity("UNIQUE", args, 1)
    if not isinstance(args[0], list):
        raise ExecutionError("UNIQUE() expects a list")
    out: list[Any] = []
    seen: set[str] = set()
    for item in args[0]:
        marker = repr(item)
        if marker not in seen:
            seen.add(marker)
            out.append(item)
    return out


@register("FIRST")
def _first(ctx: Any, args: list[Any]) -> Any:
    _arity("FIRST", args, 1)
    if isinstance(args[0], list) and args[0]:
        return args[0][0]
    return None


@register("APPEND")
def _append(ctx: Any, args: list[Any]) -> list[Any]:
    _arity("APPEND", args, 2)
    base = list(args[0]) if isinstance(args[0], list) else []
    base.append(args[1])
    return base


@register("HAS")
def _has(ctx: Any, args: list[Any]) -> bool:
    _arity("HAS", args, 2)
    obj, key = args
    return isinstance(obj, dict) and key in obj


@register("NOT_NULL")
def _not_null(ctx: Any, args: list[Any]) -> Any:
    for a in args:
        if a is not None:
            return a
    return None


@register("TO_NUMBER")
def _to_number(ctx: Any, args: list[Any]) -> Any:
    _arity("TO_NUMBER", args, 1)
    value = args[0]
    if value is None:
        return None
    try:
        f = float(value)
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"TO_NUMBER({value!r}) failed") from exc
    return int(f) if f.is_integer() else f


@register("TO_STRING")
def _to_string(ctx: Any, args: list[Any]) -> str:
    _arity("TO_STRING", args, 1)
    return "" if args[0] is None else str(args[0])


@register("STARTS_WITH")
def _starts_with(ctx: Any, args: list[Any]) -> bool:
    _arity("STARTS_WITH", args, 2)
    if args[0] is None:
        return False
    return str(args[0]).startswith(str(args[1]))


@register("SPLIT")
def _split(ctx: Any, args: list[Any]) -> list[str]:
    _arity("SPLIT", args, 2)
    if args[0] is None:
        return []
    return str(args[0]).split(str(args[1]))


@register("TRIM")
def _trim(ctx: Any, args: list[Any]) -> str:
    _arity("TRIM", args, 1)
    return str(args[0]).strip()


@register("REVERSE")
def _reverse(ctx: Any, args: list[Any]) -> Any:
    _arity("REVERSE", args, 1)
    value = args[0]
    if isinstance(value, list):
        return list(reversed(value))
    if isinstance(value, str):
        return value[::-1]
    raise ExecutionError("REVERSE() expects a list or string")


@register("SLICE")
def _slice(ctx: Any, args: list[Any]) -> list[Any]:
    _arity("SLICE", args, 2, 3)
    if not isinstance(args[0], list):
        raise ExecutionError("SLICE() expects a list")
    start = int(args[1])
    if len(args) == 3:
        return args[0][start : start + int(args[2])]
    return args[0][start:]


@register("KEYS")
def _keys(ctx: Any, args: list[Any]) -> list[str]:
    _arity("KEYS", args, 1)
    if not isinstance(args[0], dict):
        raise ExecutionError("KEYS() expects an object")
    return sorted(args[0])


@register("VALUES")
def _values(ctx: Any, args: list[Any]) -> list[Any]:
    _arity("VALUES", args, 1)
    if not isinstance(args[0], dict):
        raise ExecutionError("VALUES() expects an object")
    return [args[0][k] for k in sorted(args[0])]


@register("MERGE")
def _merge(ctx: Any, args: list[Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for arg in args:
        if arg is None:
            continue
        if not isinstance(arg, dict):
            raise ExecutionError("MERGE() expects objects")
        out.update(arg)
    return out


@register("FLATTEN")
def _flatten_fn(ctx: Any, args: list[Any]) -> list[Any]:
    """FLATTEN(list) — one level of list flattening (AQL semantics)."""
    _arity("FLATTEN", args, 1)
    if not isinstance(args[0], list):
        raise ExecutionError("FLATTEN() expects a list")
    out: list[Any] = []
    for item in args[0]:
        if isinstance(item, list):
            out.extend(item)
        else:
            out.append(item)
    return out


@register("INTERSECTION")
def _intersection(ctx: Any, args: list[Any]) -> list[Any]:
    _arity("INTERSECTION", args, 2)
    a, b = args
    if not isinstance(a, list) or not isinstance(b, list):
        raise ExecutionError("INTERSECTION() expects two lists")
    b_markers = {repr(x) for x in b}
    out, seen = [], set()
    for item in a:
        marker = repr(item)
        if marker in b_markers and marker not in seen:
            seen.add(marker)
            out.append(item)
    return out


@register("RANGE")
def _range(ctx: Any, args: list[Any]) -> list[int]:
    """RANGE(a, b) — the integers a..b inclusive (AQL semantics)."""
    _arity("RANGE", args, 2, 3)
    step = int(args[2]) if len(args) == 3 else 1
    if step == 0:
        raise ExecutionError("RANGE() step must be non-zero")
    a, b = int(args[0]), int(args[1])
    if step > 0:
        return list(range(a, b + 1, step))
    return list(range(a, b - 1, step))


@register("DATE_YEAR")
def _date_year(ctx: Any, args: list[Any]) -> int | None:
    _arity("DATE_YEAR", args, 1)
    if args[0] is None:
        return None
    text = str(args[0])
    if len(text) < 4 or not text[:4].isdigit():
        raise ExecutionError(f"DATE_YEAR({args[0]!r}): not an ISO date")
    return int(text[:4])


@register("DATE_MONTH")
def _date_month(ctx: Any, args: list[Any]) -> int | None:
    _arity("DATE_MONTH", args, 1)
    if args[0] is None:
        return None
    text = str(args[0])
    if len(text) < 7 or not text[5:7].isdigit():
        raise ExecutionError(f"DATE_MONTH({args[0]!r}): not an ISO date")
    return int(text[5:7])


# ---------------------------------------------------------------------------
# Path builtins: pure, they evaluate over a value already bound
# ---------------------------------------------------------------------------


@register("JSONPATH")
def _jsonpath(ctx: Any, args: list[Any]) -> list[Any]:
    _arity("JSONPATH", args, 2)
    doc, path = args
    return JsonPath(str(path)).find(doc)


@register("XPATH")
def _xpath(ctx: Any, args: list[Any]) -> list[Any]:
    _arity("XPATH", args, 2)
    tree, path = args
    if tree is None:
        return []
    if not isinstance(tree, XmlElement):
        raise ExecutionError("XPATH() expects an XML tree as first argument")
    return XPath(str(path)).find(tree)


# ---------------------------------------------------------------------------
# Model-bridge builtins: read other collections through ctx
# ---------------------------------------------------------------------------


@register("XMLGET", bridge=True)
def _xmlget(ctx: Any, args: list[Any]) -> Any:
    _arity("XMLGET", args, 2)
    collection, doc_id = args
    return ctx.xml_get(str(collection), doc_id)


@register("KVGET", bridge=True)
def _kvget(ctx: Any, args: list[Any]) -> Any:
    _arity("KVGET", args, 2)
    namespace, key = args
    return ctx.kv_get(str(namespace), str(key))


@register("KV", bridge=True)
def _kv(ctx: Any, args: list[Any]) -> list[Any]:
    _arity("KV", args, 2)
    namespace, prefix = args
    return list(ctx.kv_prefix(str(namespace), str(prefix)))


@register("TRAVERSE", bridge=True)
def _traverse(ctx: Any, args: list[Any]) -> list[Any]:
    _arity("TRAVERSE", args, 4, 5)
    graph, start, min_depth, max_depth = args[:4]
    label = str(args[4]) if len(args) == 5 and args[4] is not None else None
    return list(
        ctx.traverse(str(graph), start, int(min_depth), int(max_depth), label)
    )


@register("VERTICES", bridge=True)
def _vertices(ctx: Any, args: list[Any]) -> list[Any]:
    _arity("VERTICES", args, 1, 2)
    label = str(args[1]) if len(args) == 2 and args[1] is not None else None
    return list(ctx.vertices(str(args[0]), label))


@register("EDGES", bridge=True)
def _edges(ctx: Any, args: list[Any]) -> list[Any]:
    _arity("EDGES", args, 1, 2)
    label = str(args[1]) if len(args) == 2 and args[1] is not None else None
    return list(ctx.edges(str(args[0]), label))


@register("SHORTEST_PATH", bridge=True)
def _shortest_path(ctx: Any, args: list[Any]) -> list[Any] | None:
    _arity("SHORTEST_PATH", args, 3, 4)
    graph, start, goal = args[:3]
    label = str(args[3]) if len(args) == 4 and args[3] is not None else None
    return ctx.shortest_path(str(graph), start, goal, label)


@register("DOCUMENT", bridge=True)
def _document(ctx: Any, args: list[Any]) -> Any:
    """DOCUMENT(collection, id) — point lookup in any keyed collection."""
    _arity("DOCUMENT", args, 2)
    collection, doc_id = args
    matches = ctx.index_lookup(str(collection), "_id", doc_id)
    if matches is not None:
        for match in matches:
            return match
        return None
    for item in ctx.iter_collection(str(collection)):
        if isinstance(item, dict) and (
            item.get("_id") == doc_id or item.get("id") == doc_id
        ):
            return item
    return None
