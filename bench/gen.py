"""Seeded input generators for the benchmark.

Everything here is plain data built with the standard library; nothing is
imported from the package under test, so the benchmark's inputs (and the
oracle answers derived from them in ``oracle.py``) stay independent of the
code being measured. A graph is a ``GraphData``: rank, vertex ids, edges as
``(id, color, src, rng)`` and the square table ``{(g, h): (h2, g2)}`` in the
package's text-format convention (``g . h = h2 . g2``, color(g) < color(h)).
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple


class GraphData(NamedTuple):
    rank: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, int, str, str], ...]
    squares: dict[tuple[str, str], tuple[str, str]]
    strict: bool


def to_json(g: GraphData) -> str:
    """The graph in the package's JSON text format."""
    doc = {
        "rank": g.rank,
        "vertices": list(g.vertices),
        "edges": [{"id": i, "color": c, "src": s, "rng": r} for i, c, s, r in g.edges],
        "squares": [{"left": list(k), "right": list(v)} for k, v in sorted(g.squares.items())],
        "strict_no_sources": g.strict,
    }
    return json.dumps(doc, indent=1) + "\n"


def from_json(text: str) -> GraphData:
    doc = json.loads(text)
    return GraphData(
        doc["rank"],
        tuple(doc["vertices"]),
        tuple((e["id"], e["color"], e["src"], e["rng"]) for e in doc["edges"]),
        {tuple(s["left"]): tuple(s["right"]) for s in doc["squares"]},
        doc.get("strict_no_sources", True),
    )


# ------------------------------------------------------------ 1-graph product

def cycle_plus_permutation(rng: random.Random, n: int) -> list[tuple[str, int, int]]:
    """A 1-graph on 0..n-1 as (id, src, rng): the cycle t+1 -> t plus the
    edges p(t) -> t of a random permutation p. Every vertex receives and
    emits exactly two edges, so entries of A^m sum to n 2^m for every seed
    and the cost of the dense powers does not depend on it."""
    p = list(range(n))
    rng.shuffle(p)
    return [(str(t), (t + 1) % n, t) for t in range(n)] + [(str(n + t), p[t], t) for t in range(n)]


def product_2graph(
    n1: int, e1: list[tuple[str, int, int]], n2: int, e2: list[tuple[str, int, int]]
) -> GraphData:
    """The cartesian product of two 1-graphs (Kumjian-Pask 2000, Prop. 1.8).

    Vertex (a, b) is ``p<a>_<b>``; color-1 edges are (e, b), color-2 edges
    (a, f); the squares are (e, r(f)).(s(e), f) = (r(e), f).(e, s(f)). The
    product is strict when neither factor has a source.
    """
    vertices = tuple(f"p{a}_{b}" for a in range(n1) for b in range(n2))
    edges = []
    for eid, s, r in e1:
        for b in range(n2):
            edges.append((f"x{eid}_{b}", 1, f"p{s}_{b}", f"p{r}_{b}"))
    for a in range(n1):
        for fid, s, r in e2:
            edges.append((f"y{a}_{fid}", 2, f"p{a}_{s}", f"p{a}_{r}"))
    squares = {}
    for eid, es, er in e1:
        for fid, fs, fr in e2:
            squares[(f"x{eid}_{fr}", f"y{es}_{fid}")] = (f"y{er}_{fid}", f"x{eid}_{fs}")
    return GraphData(2, vertices, tuple(edges), squares, True)


# ------------------------------------------------------- random strict 2-graphs

def _random_squares(rng: random.Random, edges, squares: dict, ranges=None) -> None:
    """Pair every ascending composable (color 1, color 2) pair with a
    descending (color 2, color 1) pair of the same endpoints, uniformly at
    random; with `ranges`, only pairs ending at those vertices. At k = 2 the
    cube condition is vacuous, so any such bijection gives a 2-graph."""
    in_by: dict[tuple[str, int], list] = {}
    for e in edges:
        in_by.setdefault((e[3], e[1]), []).append(e)
    dom: dict[tuple[str, str], list] = {}
    cod: dict[tuple[str, str], list] = {}
    for g in edges:
        if ranges is not None and g[3] not in ranges:
            continue
        other = 2 if g[1] == 1 else 1
        for h in in_by.get((g[2], other), ()):
            bucket = dom if g[1] == 1 else cod
            bucket.setdefault((g[3], h[2]), []).append((g[0], h[0]))
    for key, pairs in dom.items():
        images = cod[key][:]
        rng.shuffle(images)
        squares.update(zip(pairs, images))


def random_2graph(rng: random.Random, tag: str, a1, a2) -> GraphData:
    """A 2-graph with the given commuting vertex matrices (A[r][c] edges
    with range r and source c, no zero row) and uniformly random squares."""
    n = len(a1)
    vertices = tuple(f"{tag}{t}" for t in range(n))
    edges = []
    for color, mat in ((1, a1), (2, a2)):
        for r in range(n):
            for c in range(n):
                for t in range(mat[r][c]):
                    edges.append((f"{tag}c{color}[{r},{c}]{t}", color, vertices[c], vertices[r]))
    squares: dict = {}
    _random_squares(rng, edges, squares)
    return GraphData(2, vertices, tuple(edges), squares, True)


def random_commuting(rng: random.Random, n: int, perms: int = 2) -> tuple[list, list]:
    """(a1, a2) with a1 the sum of `perms` random permutation matrices and
    a2 = a1 + I, so they commute. Every row and column of a1 sums to
    `perms`: a graph on them has no sources, and its edge and square counts
    are the same for every seed."""
    a1 = [[0] * n for _ in range(n)]
    for _ in range(perms):
        p = list(range(n))
        rng.shuffle(p)
        for r in range(n):
            a1[r][p[r]] += 1
    a2 = [[a1[r][c] + (1 if r == c else 0) for c in range(n)] for r in range(n)]
    return a1, a2


def hub_graph(rng: random.Random, side: int, hubs: int, perms: int) -> GraphData:
    """Two random strict 2-graphs A and B on `side` vertices each, plus
    `hubs` sink vertices h<t>. Hub t receives the in-edges of one vertex of
    A and of one vertex of B (copies with fresh ids), so its rows are
    y.a1 + z.b1 and y.a2 + z.b2 and the commuting condition holds. Squares
    into a hub are drawn within each side, so every hub has at least two
    pairing classes and can be in-split; hubs emit nothing, so each is a
    sink that sink deletion removes alone."""
    a = random_2graph(rng, "a", *random_commuting(rng, side, perms))
    b = random_2graph(rng, "b", *random_commuting(rng, side, perms))
    vertices = list(a.vertices + b.vertices)
    edges = list(a.edges + b.edges)
    squares = dict(a.squares)
    squares.update(b.squares)
    in_by: dict[str, list] = {}
    for e in edges:
        in_by.setdefault(e[3], []).append(e)
    for t in range(hubs):
        hub = f"h{t}"
        vertices.append(hub)
        new = []
        for part in (a, b):
            twin = part.vertices[rng.randrange(side)]
            new += [(f"{hub}.{e[0]}", e[1], e[2], hub) for e in in_by[twin]]
        edges += new
        _random_squares(rng, edges, squares, ranges={hub})
    return GraphData(2, tuple(vertices), tuple(edges), squares, True)


def random_family(rng: random.Random, lam: GraphData, om: GraphData, r) -> dict:
    """A uniformly random flip family over R, built block by block: per
    color i and vertex pair (a, b), the composable pairs (lambda, g) with
    r(lambda) = a, s(g) = b map bijectively onto the pairs (g', omega)
    with r(g') = a, s(omega) = b. Poly edge ids follow g<t>[v,w]."""
    poly = [
        (f"g{t}[{v},{w}]", v, w)
        for v, row in zip(lam.vertices, r)
        for w, count in zip(om.vertices, row)
        for t in range(1, count + 1)
    ]
    flips = {}
    for i in range(1, lam.rank + 1):
        f = {}
        for a in lam.vertices:
            for b in om.vertices:
                dom = [
                    (e[0], g[0])
                    for e in lam.edges
                    if e[1] == i and e[3] == a
                    for g in poly
                    if g[1] == e[2] and g[2] == b
                ]
                cod = [
                    (g[0], e[0])
                    for g in poly
                    if g[1] == a
                    for e in om.edges
                    if e[1] == i and e[3] == g[2] and e[2] == b
                ]
                rng.shuffle(cod)
                f.update(zip(dom, cod))
        flips[i] = f
    return flips
