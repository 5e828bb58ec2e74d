"""The k-graph text format: a JSON document with exactly the fields
rank, vertices, edges, squares, strict_no_sources. Unknown fields are
rejected at every level so typos fail loudly.
"""

from __future__ import annotations

import json

from .core import Edge, KGraph, KGraphError, Skeleton, SquarePair, kgraph_violations, validate_kgraph


class TextFormatError(KGraphError):
    pass


_TOP_FIELDS = {"rank", "vertices", "edges", "squares", "strict_no_sources"}
_EDGE_FIELDS = {"id", "color", "src", "rng"}
_SQUARE_FIELDS = {"left", "right"}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise TextFormatError(msg)


def _check_fields(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    _require(not unknown, f"unknown field(s) {sorted(unknown)} in {where}")


def parse_kgraph_parts(text: str) -> tuple[Skeleton, dict[SquarePair, SquarePair], bool]:
    """Parse without validating the k-graph axioms (the caller decides
    whether to collect diagnostics or to raise)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TextFormatError(f"not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "top level must be an object")
    _check_fields(doc, _TOP_FIELDS, "top level")
    for field in ("rank", "vertices", "edges", "squares"):
        _require(field in doc, f"missing field {field!r}")

    rank = doc["rank"]
    _require(isinstance(rank, int) and not isinstance(rank, bool), "rank must be an int")

    vertices = doc["vertices"]
    _require(
        isinstance(vertices, list) and all(isinstance(v, str) for v in vertices),
        "vertices must be a list of strings",
    )

    _require(isinstance(doc["edges"], list), "edges must be a list")
    edges = []
    for rec in doc["edges"]:
        _require(isinstance(rec, dict), "each edge must be an object")
        _check_fields(rec, _EDGE_FIELDS, f"edge {rec}")
        for field in _EDGE_FIELDS:
            _require(field in rec, f"edge missing field {field!r}: {rec}")
        _require(
            isinstance(rec["id"], str) and isinstance(rec["src"], str) and isinstance(rec["rng"], str),
            f"edge id/src/rng must be strings: {rec}",
        )
        _require(
            isinstance(rec["color"], int) and not isinstance(rec["color"], bool),
            f"edge color must be an int: {rec}",
        )
        edges.append(Edge(rec["id"], rec["color"], rec["src"], rec["rng"]))

    _require(isinstance(doc["squares"], list), "squares must be a list")
    squares: dict[SquarePair, SquarePair] = {}
    for rec in doc["squares"]:
        _require(isinstance(rec, dict), "each square must be an object")
        _check_fields(rec, _SQUARE_FIELDS, f"square {rec}")
        for field in _SQUARE_FIELDS:
            _require(field in rec, f"square missing field {field!r}: {rec}")
        left, right = rec["left"], rec["right"]
        for side, name in ((left, "left"), (right, "right")):
            _require(
                isinstance(side, list) and len(side) == 2 and all(isinstance(x, str) for x in side),
                f"square {name} must be a pair of edge ids: {rec}",
            )
        key = (left[0], left[1])
        _require(key not in squares, f"duplicate square for left pair {key}")
        squares[key] = (right[0], right[1])

    strict = doc.get("strict_no_sources", True)
    _require(isinstance(strict, bool), "strict_no_sources must be a boolean")

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


def kgraph_to_doc(g: KGraph) -> dict:
    return {
        "rank": g.rank,
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "color": e.color, "src": e.src, "rng": e.rng} for e in g.edges],
        "squares": [
            {"left": list(key), "right": list(val)} for key, val in sorted(g.squares.items())
        ],
        "strict_no_sources": g.strict,
    }


def dump_kgraph(g: KGraph) -> str:
    return json.dumps(kgraph_to_doc(g), indent=2) + "\n"


def violations_report(skeleton: Skeleton, squares: dict[SquarePair, SquarePair], strict: bool) -> list[str]:
    return [str(v) for v in kgraph_violations(skeleton, squares, strict)]
