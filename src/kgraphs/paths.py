"""Paths of a k-graph: normal-form edge words, composition, unique
factorization, enumeration by degree and minimal common extensions.

An edge word [g1, ..., gn] denotes the composite g1 . g2 ... gn, so the
word reads range-to-source left to right and gn is traversed first; its
normal form has colors non-decreasing left to right. Only constructions
and bridging compute with paths, so the commands that never build one do
not load this module.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .core import (
    Degree,
    DegreeOutOfRange,
    KGraph,
    KGraphError,
    NotComposable,
    _check_degree,
    deg_join,
    deg_leq,
    deg_sub,
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


def normalize_word(
    g: KGraph, word: tuple[str, ...], pick: Callable[[list[int]], int] | None = None
) -> tuple[str, ...]:
    """Sort an edge word into normal form by square swaps. Each swap of a
    descending adjacent pair removes exactly one color inversion, and the
    cube condition makes the result independent of `pick`."""
    w = list(word)
    while True:
        descents = [
            t
            for t in range(len(w) - 1)
            if g.by_id[w[t]].color > g.by_id[w[t + 1]].color
        ]
        if not descents:
            return tuple(w)
        t = descents[0] if pick is None else pick(descents)
        w[t], w[t + 1] = g.squares_inv[(w[t], w[t + 1])]


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


def _peel_front(g: KGraph, word: list[str], color: int) -> str:
    """Move the first color-`color` edge of a normal-form word to the front
    by forward square swaps, pop and return it. Mutates `word`."""
    t = next(t for t, eid in enumerate(word) if g.by_id[eid].color == color)
    while t > 0:
        # word[t-1] has strictly smaller color; g.h = h2.g2 moves h left
        word[t - 1], word[t] = g.squares[(word[t - 1], word[t])]
        t -= 1
    return word.pop(0)


def factor(g: KGraph, p: Path, m: Degree) -> tuple[Path, Path]:
    """The unique factorization p = alpha . beta with degree(alpha) = m,
    for 0 <= m <= degree(p) (not checked here; segment checks it)."""
    word = list(p.edges)
    alpha: list[str] = []
    for color in range(1, g.rank + 1):
        for _ in range(m[color - 1]):
            alpha.append(_peel_front(g, word, color))
    beta_rng = g.by_id[alpha[-1]].src if alpha else p.rng
    return Path(p.rng, tuple(alpha)), Path(beta_rng, tuple(word))


def segment(g: KGraph, p: Path, m: Degree, n: Degree) -> Path:
    """The degree n-m piece p(m, n); position 0 is the range end."""
    d = path_degree(g, p)
    k = g.rank
    if len(m) != k or len(n) != k:
        raise DegreeOutOfRange(f"degree tuples must have length {k}")
    if not (deg_leq(zero_degree(k), m) and deg_leq(m, n) and deg_leq(n, d)):
        raise DegreeOutOfRange(f"need 0 <= {m} <= {n} <= {d}")
    _, rest = factor(g, p, m)
    mid, _ = factor(g, rest, deg_sub(n, m))
    return mid


def paths_of_degree(g: KGraph, v: str, n: Degree) -> list[Path]:
    """All paths with range v and degree n, as normal-form words, in
    depth-first edge order."""
    if v not in g.vertex_index:
        raise KGraphError(f"unknown vertex {v!r}")
    _check_degree(g, n)
    results: list[Path] = []
    word: list[str] = []

    def rec(cur: str, remaining: list[int], min_color: int) -> None:
        if not any(remaining):
            results.append(Path(v, tuple(word)))
            return
        for color in range(min_color, g.rank + 1):
            if remaining[color - 1] == 0:
                continue
            remaining[color - 1] -= 1
            for e in g.in_edges[cur][color]:
                word.append(e.id)
                rec(e.src, remaining, color)
                word.pop()
            remaining[color - 1] += 1

    rec(v, list(n), 1)
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
