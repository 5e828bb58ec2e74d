"""Paths of a k-graph: normal-form edge words, composition, unique
factorization, enumeration by degree and minimal common extensions.

An edge word [g1, ..., gn] denotes the composite g1 . g2 ... gn, so the
word reads range-to-source left to right and gn is traversed first; its
normal form has colors non-decreasing left to right. Only constructions
and bridging compute with paths, so the commands that never build one do
not load this module.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Iterator, NamedTuple

from .core import (
    Degree,
    DegreeOutOfRange,
    Edge,
    KGraph,
    KGraphError,
    NotComposable,
    _check_degree,
    _check_vertex,
    deg_join,
    zero_degree,
)


class Path(NamedTuple):
    """A path in normal form: `rng` is the range vertex, `edges` the edge
    ids range-to-source. A vertex path has an empty word."""

    rng: str
    edges: tuple[str, ...]


def vertex_path(v: str) -> Path:
    return Path(v, ())


def path_source(g: KGraph, p: Path) -> str:
    return g.by_id[p.edges[-1]].src if p.edges else p.rng


def path_degree(g: KGraph, p: Path) -> Degree:
    n = [0] * g.rank
    for eid in p.edges:
        n[g.by_id[eid].color - 1] += 1
    return tuple(n)


def factor_word(
    g: KGraph, word: tuple[str, ...], m: Degree
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a composable edge word into normal-form words (front, rest)
    that compose to the same path, with degree(front) = m, for
    0 <= m <= degree(word) (not checked here; factor checks it). Edges are
    pulled to the front one at a time, m's color by color and then the
    rest's, each past the edges before it by square swaps: `squares` past
    a smaller color, `squares_inv` past a larger one. A path has one
    normal form, so the result does not depend on the word's order."""
    w = list(word)
    colors = [g.by_id[e].color for e in w]

    def pull(color: int) -> str:
        for t in range(colors.index(color), 0, -1):
            table = g.squares if colors[t - 1] < color else g.squares_inv
            w[t - 1], w[t] = table[w[t - 1], w[t]]
            colors[t - 1], colors[t] = color, colors[t - 1]
        colors.pop(0)
        return w.pop(0)

    front = tuple(pull(color) for color, times in enumerate(m, 1) for _ in range(times))
    return front, tuple(pull(color) for color in sorted(colors))


def normalize_word(g: KGraph, word: tuple[str, ...]) -> tuple[str, ...]:
    """The normal form of a composable edge word."""
    return factor_word(g, word, zero_degree(g.rank))[1]


def make_path(g: KGraph, edge_ids: list[str] | tuple[str, ...]) -> Path:
    """Build a path from a composable edge word (any color order)."""
    ids = tuple(edge_ids)
    if not ids:
        raise KGraphError("make_path needs at least one edge; use vertex_path")
    for eid in ids:
        if eid not in g.by_id:
            raise KGraphError(f"unknown edge id {eid!r}")
    for t in range(len(ids) - 1):
        if g.by_id[ids[t]].src != g.by_id[ids[t + 1]].rng:
            raise NotComposable(f"edges {ids[t]!r} and {ids[t + 1]!r} do not meet")
    return Path(g.by_id[ids[0]].rng, normalize_word(g, ids))


def compose(g: KGraph, p: Path, q: Path) -> Path:
    """p . q, defined when s(p) = r(q); q is traversed first."""
    if path_source(g, p) != q.rng:
        raise NotComposable(f"s(p) = {path_source(g, p)!r} but r(q) = {q.rng!r}")
    return Path(p.rng, normalize_word(g, p.edges + q.edges))


def factor(g: KGraph, p: Path, m: Degree) -> tuple[Path, Path]:
    """The unique factorization p = alpha . beta with degree(alpha) = m;
    raises DegreeOutOfRange unless m is a length-k degree with
    0 <= m <= degree(p)."""
    d = path_degree(g, p)
    if len(m) != len(d) or not all(0 <= a <= b for a, b in zip(m, d)):
        raise DegreeOutOfRange(f"need a length-{len(d)} degree 0 <= m <= {d}, got {m}")
    alpha, beta = factor_word(g, p.edges, m)
    return Path(p.rng, alpha), Path(g.by_id[alpha[-1]].src if alpha else p.rng, beta)


def segment(g: KGraph, p: Path, m: Degree, n: Degree) -> Path:
    """The degree n-m piece p(m, n); position 0 is the range end. Raises
    DegreeOutOfRange unless 0 <= m <= n <= degree(p), all of length k."""
    return factor(g, factor(g, p, n)[0], m)[1]


def paths_of_degree(g: KGraph, v: str, n: Degree) -> list[Path]:
    """All paths with range v and degree n, as normal-form words, in
    depth-first edge order: position t of the word has the t-th of n's
    colors in ascending order and runs through the in-edges of that color
    at the source of position t - 1. An explicit stack keeps long degrees
    off the interpreter's recursion limit."""
    _check_vertex(g, v)
    _check_degree(g, n)
    ends = list(accumulate(n))
    if not ends[-1]:
        return [vertex_path(v)]

    def choices(u: str, t: int) -> Iterator[Edge]:
        return iter(g.in_edges[u][bisect_right(ends, t) + 1])

    results: list[Path] = []
    word: list[str] = []
    stack = [choices(v, 0)]
    while stack:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            if word:
                word.pop()
        elif len(stack) == ends[-1]:
            results.append(Path(v, (*word, e.id)))
        else:
            word.append(e.id)
            stack.append(choices(e.src, len(stack)))
    return results


def mce(g: KGraph, p: Path, q: Path) -> list[Path]:
    """Minimal common extensions: paths tau with degree d(p) v d(q) whose
    range-end pieces factor through both p and q. Brute force."""
    dp = path_degree(g, p)
    dq = path_degree(g, q)
    if p.rng != q.rng:
        return []
    d = deg_join(dp, dq)
    out = []
    for tau in paths_of_degree(g, p.rng, d):
        if segment(g, tau, zero_degree(g.rank), dp) == p and segment(
            g, tau, zero_degree(g.rank), dq
        ) == q:
            out.append(tau)
    return out
