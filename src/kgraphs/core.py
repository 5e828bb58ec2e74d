"""Finite rank-k graphs: skeletons, commuting squares, validation, paths.

Conventions used throughout:
- Degrees live in N^k as int tuples; colors are 1-based.
- An edge word [g1, ..., gn] denotes the composite g1 . g2 ... gn, so the
  word reads range-to-source left to right and gn is traversed first.
- A square table entry (g, h) -> (h2, g2) with color(g) = i < j = color(h)
  states g.h = h2.g2; both sides are the same path written ascending
  [g, h] and descending [h2, g2].
- Normal form: edge word with colors non-decreasing left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .intmat import Matrix, identity

Degree = tuple[int, ...]
Shift = tuple[int, ...]
SquarePair = tuple[str, str]


# ----------------------------------------------------------------- errors

class KGraphError(ValueError):
    """Base of every error the package raises on bad input."""


# ---------------------------------------------------------------- degrees

def zero_degree(k: int) -> Degree:
    return (0,) * k


def unit_degree(k: int, color: int) -> Degree:
    if not 1 <= color <= k:
        raise KGraphError(f"color {color} out of range 1..{k}")
    return tuple(1 if i == color - 1 else 0 for i in range(k))


def deg_add(m: Degree, n: Degree) -> Degree:
    return tuple(a + b for a, b in zip(m, n, strict=True))


def deg_sub(m: Degree, n: Degree) -> Degree:
    return tuple(a - b for a, b in zip(m, n, strict=True))


def deg_join(m: Degree, n: Degree) -> Degree:
    # componentwise max
    return tuple(max(a, b) for a, b in zip(m, n, strict=True))


def deg_leq(m: Degree, n: Degree) -> bool:
    return all(a <= b for a, b in zip(m, n, strict=True))


def deg_total(n: Degree) -> int:
    return sum(n)


# ------------------------------------------------------------------ types

class Edge(NamedTuple):
    id: str
    color: int
    src: str
    rng: str


@dataclass(frozen=True)
class Skeleton:
    rank: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]


class Path(NamedTuple):
    """A path in normal form: `rng` is the range vertex, `edges` the edge
    ids range-to-source. A vertex path has an empty word."""

    rng: str
    edges: tuple[str, ...]


# ------------------------------------------------------------- violations

@dataclass(frozen=True)
class MissingSquare:
    g: str
    h: str


@dataclass(frozen=True)
class NonBijectiveSquares:
    colors: tuple[int, int]
    detail: str


@dataclass(frozen=True)
class EndpointMismatch:
    key: SquarePair
    value: SquarePair
    detail: str


@dataclass(frozen=True)
class CubeFailure:
    colors: tuple[int, int, int]
    triple: tuple[str, str, str]
    route_a: tuple[str, str, str]
    route_b: tuple[str, str, str]


@dataclass(frozen=True)
class SourceVertex:
    vertex: str
    color: int


Violation = MissingSquare | NonBijectiveSquares | EndpointMismatch | CubeFailure | SourceVertex


class InvalidKGraph(KGraphError):
    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = ", ".join(str(v) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"{len(violations)} violation(s): {lines}{more}")


class NotComposable(KGraphError):
    pass


class DegreeOutOfRange(KGraphError):
    pass


# ----------------------------------------------------------------- KGraph

class KGraph:
    """A validated k-graph: skeleton + total bijective square table.

    Instances are immutable: build them with validate_kgraph; every
    attribute is set once here and nothing is cached on them later. The
    vertex tuple order fixes matrix indexing everywhere.
    """

    def __init__(self, skeleton: Skeleton, squares: dict[SquarePair, SquarePair], strict: bool):
        self.skeleton = skeleton
        self.squares = dict(squares)
        self.strict = strict
        self.squares_inv = {v: k for k, v in self.squares.items()}
        self.by_id = {e.id: e for e in skeleton.edges}
        self.vertex_index = index = {v: i for i, v in enumerate(skeleton.vertices)}
        k = skeleton.rank
        ins = {v: {i: [] for i in range(1, k + 1)} for v in skeleton.vertices}
        outs = {v: {i: [] for i in range(1, k + 1)} for v in skeleton.vertices}
        steps: list[list[tuple[int, int]]] = [[] for _ in range(k)]
        for e in skeleton.edges:
            ins[e.rng][e.color].append(e)
            outs[e.src][e.color].append(e)
            steps[e.color - 1].append((index[e.rng], index[e.src]))
        self.in_edges: dict[str, dict[int, tuple[Edge, ...]]] = {
            v: {i: tuple(es) for i, es in by_color.items()} for v, by_color in ins.items()
        }
        self.out_edges: dict[str, dict[int, tuple[Edge, ...]]] = {
            v: {i: tuple(es) for i, es in by_color.items()} for v, by_color in outs.items()
        }
        # step_pairs[i - 1]: (range index, source index) of each color-i
        # edge, the one-step matrix A_{e_i} as an edge list
        self.step_pairs: tuple[tuple[tuple[int, int], ...], ...] = tuple(map(tuple, steps))

    @property
    def rank(self) -> int:
        return self.skeleton.rank

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.skeleton.vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.skeleton.edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KGraph):
            return NotImplemented
        return (
            self.skeleton == other.skeleton
            and self.squares == other.squares
            and self.strict == other.strict
        )

    def __repr__(self) -> str:
        return (
            f"KGraph(rank={self.rank}, vertices={len(self.vertices)}, "
            f"edges={len(self.edges)}, strict={self.strict})"
        )


# ------------------------------------------------------------- validation

def _structural_check(skeleton: Skeleton, squares: dict[SquarePair, SquarePair]) -> None:
    if skeleton.rank < 1:
        raise KGraphError("rank must be >= 1")
    if len(set(skeleton.vertices)) != len(skeleton.vertices):
        raise KGraphError("duplicate vertex ids")
    seen = set()
    vset = set(skeleton.vertices)
    for e in skeleton.edges:
        if e.id in seen:
            raise KGraphError(f"duplicate edge id {e.id!r}")
        seen.add(e.id)
        if not 1 <= e.color <= skeleton.rank:
            raise KGraphError(f"edge {e.id!r} has color {e.color} outside 1..{skeleton.rank}")
        if e.src not in vset or e.rng not in vset:
            raise KGraphError(f"edge {e.id!r} references unknown vertex")
    if vset & seen:
        raise KGraphError("vertex and edge ids must be disjoint")
    for key, val in squares.items():
        for eid in (*key, *val):
            if eid not in seen:
                raise KGraphError(f"square references unknown edge id {eid!r}")


def kgraph_violations(
    skeleton: Skeleton, squares: dict[SquarePair, SquarePair], strict: bool = True
) -> list[Violation]:
    """Every violated constraint, in a deterministic order. Raises
    KGraphError only for structurally malformed input (bad ids/colors)."""
    _structural_check(skeleton, squares)
    by_id = {e.id: e for e in skeleton.edges}
    k = skeleton.rank
    violations: list[Violation] = []

    in_by = {v: {i: [] for i in range(1, k + 1)} for v in skeleton.vertices}
    for e in skeleton.edges:
        in_by[e.rng][e.color].append(e)

    # totality: one entry per composable color-ascending pair
    for g in skeleton.edges:
        for h_color in range(g.color + 1, k + 1):
            for h in in_by[g.src][h_color]:
                if (g.id, h.id) not in squares:
                    violations.append(MissingSquare(g.id, h.id))

    # key/value well-formedness and endpoint preservation
    for (gid, hid), (h2id, g2id) in squares.items():
        g, h, h2, g2 = by_id[gid], by_id[hid], by_id[h2id], by_id[g2id]
        if not g.color < h.color:
            violations.append(EndpointMismatch((gid, hid), (h2id, g2id), "key colors must ascend"))
            continue
        if g.src != h.rng:
            violations.append(EndpointMismatch((gid, hid), (h2id, g2id), "key pair not composable"))
            continue
        if (h2.color, g2.color) != (h.color, g.color):
            violations.append(
                EndpointMismatch((gid, hid), (h2id, g2id), "value colors must be (j, i)")
            )
            continue
        if h2.src != g2.rng:
            violations.append(
                EndpointMismatch((gid, hid), (h2id, g2id), "value pair not composable")
            )
            continue
        if h2.rng != g.rng or g2.src != h.src:
            violations.append(
                EndpointMismatch((gid, hid), (h2id, g2id), "square endpoints not preserved")
            )

    # bijectivity per color pair (i, j): images must exactly cover the
    # composable descending pairs
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            images: dict[SquarePair, SquarePair] = {}
            for (gid, hid), val in squares.items():
                g, h = by_id[gid], by_id[hid]
                if (g.color, h.color) != (i, j):
                    continue
                if val in images:
                    violations.append(
                        NonBijectiveSquares((i, j), f"value {val} assigned to both {images[val]} and {(gid, hid)}")
                    )
                else:
                    images[val] = (gid, hid)
            for h2 in skeleton.edges:
                if h2.color != j:
                    continue
                for g2 in in_by[h2.src][i]:
                    if (h2.id, g2.id) not in images:
                        violations.append(
                            NonBijectiveSquares((i, j), f"descending pair {(h2.id, g2.id)} has no preimage")
                        )

    # cube: both rewriting routes from [a, b, c] to descending must agree
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for l in range(j + 1, k + 1):
                for a in skeleton.edges:
                    if a.color != i:
                        continue
                    for b in in_by[a.src][j]:
                        for c in in_by[b.src][l]:
                            try:
                                b1, a1 = squares[(a.id, b.id)]
                                c1, a2 = squares[(a1, c.id)]
                                c2, b2 = squares[(b1, c1)]
                                route_a = (c2, b2, a2)
                                c3, b3 = squares[(b.id, c.id)]
                                c4, a3 = squares[(a.id, c3)]
                                b4, a4 = squares[(a3, b3)]
                                route_b = (c4, b4, a4)
                            except KeyError:
                                continue  # already reported as missing/malformed
                            if route_a != route_b:
                                violations.append(
                                    CubeFailure((i, j, l), (a.id, b.id, c.id), route_a, route_b)
                                )

    if strict:
        for v in skeleton.vertices:
            for i in range(1, k + 1):
                if not in_by[v][i]:
                    violations.append(SourceVertex(v, i))

    return violations


def validate_kgraph(
    skeleton: Skeleton, squares: dict[SquarePair, SquarePair], strict: bool = True
) -> KGraph:
    violations = kgraph_violations(skeleton, squares, strict)
    if violations:
        raise InvalidKGraph(violations)
    return KGraph(skeleton, squares, strict)


# ------------------------------------------------------------------ paths

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


def _prefix_factor(g: KGraph, p: Path, m: Degree) -> tuple[Path, Path]:
    # unique factorization p = alpha . beta with degree(alpha) = m
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
    _, rest = _prefix_factor(g, p, m)
    mid, _ = _prefix_factor(g, rest, deg_sub(n, m))
    return mid


def _check_degree(g: KGraph, n: Degree) -> None:
    if len(n) != g.rank or not deg_leq(zero_degree(g.rank), n):
        raise DegreeOutOfRange(f"degree must be a length-{g.rank} tuple over N")


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


# --------------------------------------------------------------- matrices

def push(g: KGraph, x: Sequence[int], n: Degree) -> list[int]:
    """The row vector x * A_n, pushed along the one-step edge lists one
    unit of degree at a time (y[s(e)] += x[r(e)] for every edge e of the
    step's color); a zero vector stays zero, so it stops early there."""
    _check_degree(g, n)
    if len(x) != len(g.vertices):
        raise KGraphError(f"vector has {len(x)} entries for {len(g.vertices)} vertices")
    y = list(x)
    for pairs, times in zip(g.step_pairs, n):
        for _ in range(times):
            if not any(y):
                return y
            z = [0] * len(y)
            for r, s in pairs:
                z[s] += y[r]
            y = z
    return y


def vertex_matrix(g: KGraph, n: Degree) -> Matrix:
    """A_n[u][w] = |paths of degree n, range u, source w|, computed on each
    call and never cached: a unit degree is read off its edge list, any
    other degree pushes the rows of the identity (the one-step matrices
    commute on a valid k-graph)."""
    _check_degree(g, n)
    d = len(g.vertices)
    if deg_total(n) == 1:
        a = [[0] * d for _ in range(d)]
        for r, s in g.step_pairs[n.index(1)]:
            a[r][s] += 1
        return a
    return [push(g, row, n) for row in identity(d)]
