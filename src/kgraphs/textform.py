"""The k-graph text format: a JSON document with exactly the fields
rank, vertices, edges, squares, strict_no_sources. Unknown fields are
rejected at every level so typos fail loudly.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .core import Edge, KGraph, KGraphError, Skeleton, SquarePair, validate_kgraph


class TextFormatError(KGraphError):
    pass


_TOP_FIELDS = ("rank", "vertices", "edges", "squares", "strict_no_sources")
_EDGE_FIELDS = ("id", "color", "src", "rng")
_SQUARE_FIELDS = ("left", "right")


def _record(rec: object, kind: str, fields: tuple[str, ...]) -> None:
    """Check that an edge or square record is an object with exactly
    `fields`. Messages are formatted only on failure; a missing field is
    named in schema order, so the text does not depend on the hash seed."""
    if not isinstance(rec, dict):
        raise TextFormatError(f"each {kind} must be an object")
    if rec.keys() == set(fields):
        return
    unknown = sorted(set(rec).difference(fields))
    if unknown:
        raise TextFormatError(f"unknown field(s) {unknown} in {kind} {rec}")
    missing = next(f for f in fields if f not in rec)
    raise TextFormatError(f"{kind} missing field {missing!r}: {rec}")


def _is_pair(side: object) -> bool:
    return isinstance(side, list) and len(side) == 2 and isinstance(side[0], str) and isinstance(side[1], str)


def parse_kgraph_parts(text: str) -> tuple[Skeleton, dict[SquarePair, SquarePair], bool]:
    """Parse without validating the k-graph axioms (the caller decides
    whether to collect diagnostics or to raise)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer over the digit limit, or nesting too deep
        raise TextFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise TextFormatError("top level must be an object")
    unknown = sorted(set(doc).difference(_TOP_FIELDS))
    if unknown:
        raise TextFormatError(f"unknown field(s) {unknown} in top level")
    for field in ("rank", "vertices", "edges", "squares"):
        if field not in doc:
            raise TextFormatError(f"missing field {field!r}")

    rank = doc["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise TextFormatError("rank must be an int")

    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise TextFormatError("vertices must be a list of strings")

    if not isinstance(doc["edges"], list):
        raise TextFormatError("edges must be a list")
    edges = []
    for rec in doc["edges"]:
        _record(rec, "edge", _EDGE_FIELDS)
        eid, color, src, rng = rec["id"], rec["color"], rec["src"], rec["rng"]
        if not (isinstance(eid, str) and isinstance(src, str) and isinstance(rng, str)):
            raise TextFormatError(f"edge id/src/rng must be strings: {rec}")
        if not isinstance(color, int) or isinstance(color, bool):
            raise TextFormatError(f"edge color must be an int: {rec}")
        edges.append(Edge(eid, color, src, rng))

    if not isinstance(doc["squares"], list):
        raise TextFormatError("squares must be a list")
    squares: dict[SquarePair, SquarePair] = {}
    for rec in doc["squares"]:
        _record(rec, "square", _SQUARE_FIELDS)
        left, right = rec["left"], rec["right"]
        if not (_is_pair(left) and _is_pair(right)):
            name = "right" if _is_pair(left) else "left"
            raise TextFormatError(f"square {name} must be a pair of edge ids: {rec}")
        key = (left[0], left[1])
        if key in squares:
            raise TextFormatError(f"duplicate square for left pair {key}")
        squares[key] = (right[0], right[1])

    strict = doc.get("strict_no_sources", True)
    if not isinstance(strict, bool):
        raise TextFormatError("strict_no_sources must be a boolean")

    return Skeleton(rank, tuple(vertices), tuple(edges)), squares, strict


def parse_kgraph(text: str) -> KGraph:
    skeleton, squares, strict = parse_kgraph_parts(text)
    return validate_kgraph(skeleton, squares, strict)


def read_text(path: str) -> str:
    """The contents of a UTF-8 file; other bytes are a TextFormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise TextFormatError(f"{path}: not UTF-8 text: {exc}") from None


def load_kgraph(path: str) -> KGraph:
    return parse_kgraph(read_text(path))


def _array(items: list[str]) -> str:
    # a top-level field's array of encoded items, laid out as
    # json.dumps(..., indent=2) lays it out
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def dump_kgraph(g: KGraph) -> str:
    """g as an indent-2 JSON document, byte for byte what json.dumps(doc,
    indent=2) writes for {rank, vertices, edges, squares (sorted by left
    pair), strict_no_sources}. The layout is written here and each string
    is quoted by json's C encoder, which is several times faster than the
    pure-Python indenting encoder. KGraph admits only str ids, int colors
    and a bool strict flag, so every value has one JSON spelling."""
    q = encode_basestring_ascii
    edges = [
        f'{{\n      "id": {q(e.id)},\n      "color": {e.color:d},\n'
        f'      "src": {q(e.src)},\n      "rng": {q(e.rng)}\n    }}'
        for e in g.edges
    ]
    squares = [
        f'{{\n      "left": [\n        {q(a)},\n        {q(b)}\n      ],\n'
        f'      "right": [\n        {q(c)},\n        {q(d)}\n      ]\n    }}'
        for (a, b), (c, d) in sorted(g.squares.items())
    ]
    return (
        f'{{\n  "rank": {g.rank:d},\n'
        f'  "vertices": {_array([q(v) for v in g.vertices])},\n'
        f'  "edges": {_array(edges)},\n'
        f'  "squares": {_array(squares)},\n'
        f'  "strict_no_sources": {"true" if g.strict else "false"}\n}}\n'
    )
