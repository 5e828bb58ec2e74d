"""Finite rank-k graphs: skeletons, commuting squares, validation (each
axiom decided by a count, its violations listed only when one fails) and
the vector push along the in-edge index. Path arithmetic is in paths.

Conventions used throughout:
- Degrees live in N^k as int tuples; colors are 1-based.
- An edge word [g1, ..., gn] denotes the composite g1 . g2 ... gn, so the
  word reads range-to-source left to right and gn is traversed first.
- A square table entry (g, h) -> (h2, g2) with color(g) = i < j = color(h)
  states g.h = h2.g2; both sides are the same path written ascending
  [g, h] and descending [h2, g2].
"""

from __future__ import annotations

import os
from functools import cached_property
from itertools import chain, combinations, compress, repeat
from operator import lt
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

if TYPE_CHECKING:
    from .intmat import Matrix

Degree = tuple[int, ...]
Shift = tuple[int, ...]
SquarePair = tuple[str, str]


# ----------------------------------------------------------------- errors

class KGraphError(ValueError):
    """Base of every error the package raises on bad input."""


class CLIUsage(KGraphError):
    """Malformed argument text: a shift, matrix, element, map or flip
    table as the command line spells it (the CLI exits 2)."""


# ---------------------------------------------------------------- degrees

def zero_degree(k: int) -> Degree:
    return (0,) * k


def _check_int(name: str, x: int) -> None:
    # a bool is an int and a float compares with ints: the type comes first
    if not isinstance(x, int) or isinstance(x, bool):
        raise KGraphError(f"{name} {x!r} is not an int")


def _check_color(k: int, color: int) -> None:
    _check_int("color", color)
    if not 1 <= color <= k:
        raise KGraphError(f"color {color} out of range 1..{k}")


def unit_degree(k: int, color: int) -> Degree:
    _check_color(k, color)
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


def parse_shift(text: str) -> Shift:
    """A degree or shift written as comma-separated integers: "1,0"."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CLIUsage(f"bad tuple {text!r}: comma-separated integers expected")


# ------------------------------------------------------------------ types

class Edge(NamedTuple):
    id: str
    color: int
    src: str
    rng: str


class Skeleton(NamedTuple):
    rank: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]


# ------------------------------------------------------------- violations

class MissingSquare(NamedTuple):
    g: str
    h: str


class NonBijectiveSquares(NamedTuple):
    colors: tuple[int, int]
    detail: str


class EndpointMismatch(NamedTuple):
    key: SquarePair
    value: SquarePair
    detail: str


class CubeFailure(NamedTuple):
    colors: tuple[int, int, int]
    triple: tuple[str, str, str]
    route_a: tuple[str, str, str]
    route_b: tuple[str, str, str]


class SourceVertex(NamedTuple):
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


class DimensionMismatch(KGraphError):
    """Two graphs of different ranks, or a matrix of the wrong shape for
    them."""


def _check_shape(g_left: KGraph, g_right: KGraph, r: Matrix) -> None:
    # a row per left vertex, a column per right vertex
    dl, dr = len(g_left.vertices), len(g_right.vertices)
    if len(r) != dl or any(len(row) != dr for row in r):
        raise DimensionMismatch(f"matrix must be {dl}x{dr}")


def _fields(edges: Sequence[Edge]) -> tuple[tuple, ...]:
    # the ids, colors, sources and ranges of the edges, one tuple each
    return tuple(zip(*edges)) or ((),) * 4


# ----------------------------------------------------------------- KGraph

# Validation reads every color triple; no catalog or generated graph has a
# rank above 4, and bridging_graph adds one.
KGRAPH_MAX_RANK = 32


class KGraph:
    """A k-graph: skeleton + square table, with its incidence indexed.

    in_edges groups the edges by range vertex and color; in_sources, the
    one integer incidence index, holds the source indices of the color-i
    edges into each vertex index and is what push, vertex_matrix,
    homology.h0 and the intertwining kernel of sse read. Its transpose
    out_sources is the one out-edge index: the sink moves of moves
    (ei_sinks, sink_colors, sink_delete), the domain counts of
    bridging.check_flip_family and the lag-0 search and zero-column rule
    of sse.sse_search read it.
    The constructor rejects structurally malformed input (a rank
    that is not an int in 1..KGRAPH_MAX_RANK, vertices or edges not in a
    tuple or list, squares not in a dict, edges that are not Edge, ids
    and endpoints that are not strings, hashable or not, colors that are
    not ints in range, unknown endpoints, a strict flag that is not a
    bool) with KGraphError, so whatever it accepts dumps to a document
    that textform.parse_kgraph reads back; each field is checked whole,
    item by item only to name its first bad item. It indexes incidence but
    does not check the k-graph axioms: validate_kgraph does, by counts.
    Instances are immutable: every attribute is set once here, except the
    derived `in_edges`, `stable_index`, `stable_path_counts` and
    `out_sources`, each computed on first use and then kept. The vertex
    tuple order fixes matrix indexing everywhere.
    """

    def __init__(self, skeleton: Skeleton, squares: dict[SquarePair, SquarePair], strict: bool):
        k, vertices, edges = skeleton.rank, skeleton.vertices, skeleton.edges
        _check_int("rank", k)
        if not 1 <= k <= KGRAPH_MAX_RANK:
            raise KGraphError(f"rank must be in 1..{KGRAPH_MAX_RANK}")
        if not isinstance(strict, bool):
            raise KGraphError(f"strict must be a bool, not {strict!r}")
        # a generator would be spent by the checks, a string read as letters
        for name, field in (("vertices", vertices), ("edges", edges)):
            if not isinstance(field, (tuple, list)):
                raise KGraphError(f"{name} must be a tuple or a list, not {type(field).__name__}")
        if not isinstance(squares, dict):
            raise KGraphError(f"squares must be a dict, not {type(squares).__name__}")
        # each field is checked whole, at C speed; every id is checked to be
        # a string before it is hashed, so an unhashable one is named too
        for v in vertices if not set(map(type, vertices)) <= {str} else ():
            if not isinstance(v, str):
                raise KGraphError(f"vertex id {v!r} is not a string")
        self.vertex_index = index = dict(zip(vertices, range(len(vertices))))
        if len(index) != len(vertices):
            raise KGraphError("duplicate vertex ids")
        ids, colors, srcs, rngs = _fields(edges) if all(map(isinstance, edges, repeat(Edge))) else _fields(())
        well_formed = len(ids) == len(edges) and set(map(type, ids + srcs + rngs)) <= {str} and (
            len(set(ids)) == len(ids) and set(map(type, colors)) <= {int}
            and set(colors) <= set(range(1, k + 1)) and index.keys() >= {*srcs, *rngs})
        seen: set[str] = set()
        for e in edges if not well_formed else ():
            if not isinstance(e, Edge):
                raise KGraphError(f"edge {e!r} is not an Edge")
            if not isinstance(e.id, str):
                raise KGraphError(f"edge id {e.id!r} is not a string")
            if e.id in seen:
                raise KGraphError(f"duplicate edge id {e.id!r}")
            seen.add(e.id)
            if not isinstance(e.color, int) or isinstance(e.color, bool):
                raise KGraphError(f"edge {e.id!r} has color {e.color!r}, not an int")
            if not 1 <= e.color <= k:
                raise KGraphError(f"edge {e.id!r} has color {e.color} outside 1..{k}")
            if not isinstance(e.src, str) or not isinstance(e.rng, str):
                raise KGraphError(f"edge {e.id!r} has src {e.src!r} and rng {e.rng!r}, not two strings")
            if e.src not in index or e.rng not in index:
                raise KGraphError(f"edge {e.id!r} references unknown vertex")
        self.by_id = by_id = dict(zip(ids, edges))
        if not index.keys().isdisjoint(by_id):
            raise KGraphError("vertex and edge ids must be disjoint")
        sides = (*squares, *squares.values())
        well_formed = set(map(type, sides)) <= {tuple} and set(map(len, sides)) <= {2} and (
            set(map(type, eids := tuple(chain.from_iterable(sides)))) <= {str} and by_id.keys() >= set(eids))
        for key, val in squares.items() if not well_formed else ():
            for side in (key, val):
                if not isinstance(side, tuple) or len(side) != 2:
                    raise KGraphError(f"square side {side!r} is not a pair of edge ids")
            for eid in (*key, *val):
                if not isinstance(eid, str):
                    raise KGraphError(f"square edge id {eid!r} is not a string")
                if eid not in by_id:
                    raise KGraphError(f"square references unknown edge id {eid!r}")
        self.skeleton = skeleton
        self.squares = dict(squares)
        self.strict = strict
        self.squares_inv = dict(zip(squares.values(), squares))
        # in_sources[i - 1][v]: the source index of each color-i edge into
        # vertex index v, in edge order; row v of A_{e_i} as an index list
        d = len(vertices)
        rows = [[] for _ in range(k * d)]
        for i, v, u in zip(colors, map(index.__getitem__, rngs), map(index.__getitem__, srcs)):
            rows[(i - 1) * d + v].append(u)
        self.in_sources = tuple(tuple(map(tuple, rows[i * d : i * d + d])) for i in range(k))

    @property
    def rank(self) -> int:
        return self.skeleton.rank

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.skeleton.vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.skeleton.edges

    @cached_property
    def stable_index(self) -> int:
        """m0, the first j with rank P^j = rank P^{j+1}, P the product of
        the one-step matrices. From there on the kernel of P^j stays the
        same (Fitting's lemma), so 0 <= m0 <= d for d vertices, and
        x * P^d = 0 iff x * P^m0 = 0. Computed on first use by pushing a
        basis of the row space of P^j one P-step (the push kernel) and
        cutting the result down to a basis (intmat.primitive_echelon) until
        the rank holds."""
        from .intmat import identity, primitive_echelon

        rows, step = identity(len(self.vertices)), (1,) * self.rank
        m0 = 0
        while len(pushed := primitive_echelon(_push(self, row, step) for row in rows)) < len(rows):
            rows, m0 = pushed, m0 + 1
        return m0

    @cached_property
    def stable_path_counts(self) -> tuple[int, ...]:
        """h = P^m0 * 1, m0 = stable_index: h[v] is the number of paths of
        degree (m0, ..., m0) with range v, the row sums of
        vertex_matrix(g, (m0,) * k). Computed on first use by m0 pull
        steps per color along in_sources, (A_{e_i} y)[v] the sum of y at
        the sources of the color-i edges into v, the colors taken in the
        reverse of push's order; so z . h is the entry sum of z pushed by
        (m0, ..., m0), which is 0 when that push is, and a nonzero z . h
        shows that z does not die."""
        h = [1] * len(self.vertices)
        for by_range in reversed(self.in_sources):
            for _ in range(self.stable_index):
                h = [sum(map(h.__getitem__, srcs)) for srcs in by_range]
        return tuple(h)

    @cached_property
    def in_edges(self) -> dict[str, dict[int, tuple[Edge, ...]]]:
        """in_edges[v][i]: the color-i edges into v, in edge order."""
        ins = {v: {i: [] for i in range(1, self.rank + 1)} for v in self.vertices}
        for e in self.edges:
            ins[e.rng][e.color].append(e)
        return {v: {i: tuple(es) for i, es in by_color.items()} for v, by_color in ins.items()}

    @cached_property
    def out_sources(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """out_sources[i - 1][u]: the range index of each color-i edge out
        of vertex index u, column u of A_{e_i} as an index list, the
        transpose of in_sources (ranges ascending, and in in_sources order
        within one range). Computed on first use; moves.ei_sinks,
        moves.sink_colors, the reachability walk of moves.sink_delete, the
        domain counts of bridging.check_flip_family, and the lag-0 search
        and zero-column rule of sse.sse_search read it."""
        out = []
        for by_range in self.in_sources:
            cols: list[list[int]] = [[] for _ in by_range]
            for v, srcs in enumerate(by_range):
                for u in srcs:
                    cols[u].append(v)
            out.append(tuple(map(tuple, cols)))
        return tuple(out)

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

def _violations(g: KGraph) -> list[Violation]:
    """Every violated axiom, in a deterministic order, read off g's index.

    Each axiom is decided by a count; its violations are listed only when
    the count fails. A table whose keys (g, h) are composable pairs of
    colors i < j, each valued by a pair of colors (j, i) with the key's
    endpoints, is total when it has sum_v out_i(v) in_j(v) squares over
    i < j, and onto when also no value repeats and that sum is the one of
    out_j(v) in_i(v). Under strict, every vertex needs an in-edge of every
    color. The cube condition (k >= 3) is checked route by route."""
    by_id, squares, k, into = g.by_id, g.squares, g.rank, g.in_sources
    # each square's four edges resolved once: the colors, sources and ranges
    # of the keys' g and h and of the values' h2 and g2, one tuple each
    keys = tuple(map(by_id.__getitem__, chain.from_iterable(squares)))
    vals = tuple(map(by_id.__getitem__, chain.from_iterable(squares.values())))
    (_, gc, gs, gr), (_, hc, hs, hr) = _fields(keys[0::2]), _fields(keys[1::2])
    (_, h2c, h2s, h2r), (_, g2c, g2s, g2r) = _fields(vals[0::2]), _fields(vals[1::2])
    sound = gs == hr and h2s == g2r and (h2c, g2c, h2r, g2s) == (hc, gc, gr, hs) and all(map(lt, gc, hc))
    # sum_v out_i(v) in_j(v) counts the words [x, y] with x of color i, y of
    # color j and s(x) = r(y): in_j(s(x)) summed over the color-i edges x
    in_count, ascending, descending = [list(map(len, by_range)) for by_range in into], 0, 0
    for i, j in combinations(range(k), 2):
        ascending += sum(map(in_count[j].__getitem__, chain.from_iterable(into[i])))
        descending += sum(map(in_count[i].__getitem__, chain.from_iterable(into[j])))
    total = sound and len(squares) == ascending
    onto = sound and len(g.squares_inv) == len(squares) == descending
    violations: list[Violation] = []
    in_edges = g.in_edges if k > 2 or not (total and onto) else {}
    of_color = {i: [e for e in g.edges if e.color == i] for i in range(1, k + 1)} if k > 2 or not onto else {}

    # totality: one entry per composable color-ascending pair
    for e in g.edges if not total else ():
        for h_color in range(e.color + 1, k + 1):
            for h in in_edges[e.src][h_color]:
                if (e.id, h.id) not in squares:
                    violations.append(MissingSquare(e.id, h.id))

    # key/value well-formedness and endpoint preservation
    for key, val in squares.items() if not sound else ():
        e, h, h2, e2 = map(by_id.__getitem__, (*key, *val))
        if not e.color < h.color:
            detail = "key colors must ascend"
        elif e.src != h.rng:
            detail = "key pair not composable"
        elif h2.color != h.color or e2.color != e.color:
            detail = "value colors must be (j, i)"
        elif h2.src != e2.rng:
            detail = "value pair not composable"
        elif h2.rng != e.rng or e2.src != h.src:
            detail = "square endpoints not preserved"
        else:
            continue
        violations.append(EndpointMismatch(tuple(key), tuple(val), detail))

    # bijectivity per color pair (i, j) of the keys: images must exactly
    # cover the composable descending pairs
    for i, j in combinations(range(1, k + 1), 2) if not onto else ():
        images: dict[SquarePair, SquarePair] = {}
        for key, val in compress(squares.items(), map((i, j).__eq__, zip(gc, hc))):
            if val in images:
                violations.append(
                    NonBijectiveSquares((i, j), f"value {val} assigned to both {images[val]} and {key}")
                )
            else:
                images[val] = key
        for h2 in of_color[j]:
            for e2 in in_edges[h2.src][i]:
                if (h2.id, e2.id) not in images:
                    violations.append(
                        NonBijectiveSquares((i, j), f"descending pair {(h2.id, e2.id)} has no preimage")
                    )

    # cube: both rewriting routes from [a, b, c] to descending must agree
    for i, j, l in combinations(range(1, k + 1), 3):
        for a in of_color[i]:
            for b in in_edges[a.src][j]:
                for c in in_edges[b.src][l]:
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
                        violations.append(CubeFailure((i, j, l), (a.id, b.id, c.id), route_a, route_b))

    for t, v in enumerate(g.vertices) if g.strict and not all(map(all, into)) else ():
        violations += [SourceVertex(v, i) for i in range(1, k + 1) if not into[i - 1][t]]

    return violations


def kgraph_violations(
    skeleton: Skeleton, squares: dict[SquarePair, SquarePair], strict: bool = True
) -> list[Violation]:
    """Every violated constraint, in a deterministic order. Raises
    KGraphError only for structurally malformed input (see KGraph)."""
    return _violations(KGraph(skeleton, squares, strict))


def validate_kgraph(
    skeleton: Skeleton, squares: dict[SquarePair, SquarePair], strict: bool = True
) -> KGraph:
    g = KGraph(skeleton, squares, strict)
    violations = _violations(g)
    if violations:
        raise InvalidKGraph(violations)
    return g


def _check_vertex(g: KGraph, v: str) -> None:
    # an unhashable id fails the type check before the lookup hashes it
    if not isinstance(v, str) or v not in g.vertex_index:
        raise KGraphError(f"unknown vertex {v!r}")


def _check_degree(g: KGraph, n: Degree) -> None:
    if len(n) != g.rank or not all(isinstance(c, int) and not isinstance(c, bool) for c in n) or min(n) < 0:
        raise DegreeOutOfRange(f"degree must be a length-{g.rank} tuple over N")


# --------------------------------------------------------------- matrices

def _push(g: KGraph, x: Sequence[int], n: Iterable[int]) -> list[int]:
    # x * A_n with no check: one pass per unit of degree n_i, each adding
    # y[r] at the source of every color-i edge into r, for the nonzero
    # entries y[r] only (compress skips the zeros in C); a zero vector
    # stays zero, so it stops early there
    y = list(x)
    d = len(y)
    for by_range, times in zip(g.in_sources, n):
        for _ in range(times):
            if not any(y):
                return y
            z = [0] * d
            for r in compress(range(d), y):
                c = y[r]
                for s in by_range[r]:
                    z[s] += c
            y = z
    return y


def push(g: KGraph, x: Sequence[int], n: Degree) -> list[int]:
    """The row vector x * A_n, pushed one unit of degree at a time along
    the in-edge index: each step adds y[r] at the source of every edge
    into r of the step's color, visiting only the nonzero entries of y,
    and a zero vector stops the push early. The degree must be a length-k
    tuple over N and x must have an entry per vertex; the package's own
    callers check their inputs once where they enter and run the same
    step loop unchecked."""
    _check_degree(g, n)
    if len(x) != len(g.vertices):
        raise KGraphError(f"vector has {len(x)} entries for {len(g.vertices)} vertices")
    return _push(g, x, n)


def vertex_matrix(g: KGraph, n: Degree) -> Matrix:
    """A_n[u][w] = |paths of degree n, range u, source w|, computed on each
    call and never cached: row u is the push of the identity row e_u (the
    one-step matrices commute on a valid k-graph)."""
    _check_degree(g, n)
    d = len(g.vertices)
    return [_push(g, [int(i == j) for j in range(d)], n) for i in range(d)]


def parse_matrix(text: str) -> Matrix:
    """An integer matrix written as rows separated by ';' and entries by
    whitespace: "1 0; 0 1", inline or in a file (text that names an
    existing file, as parse_flips reads --flips; a matrix too large for one
    argument goes in a file). Errors echo at most 40 characters of text."""
    shown = repr(text if len(text) <= 40 else text[:40] + "...")
    if os.path.isfile(text):
        from .textform import read_text

        shown, text = f"in {text!r}", read_text(text)
    try:
        rows = [[int(x) for x in row.split()] for row in text.split(";")]
    except ValueError:
        raise CLIUsage(f"bad matrix {shown}: entries must be integers")
    if not rows or any(not r for r in rows):
        raise CLIUsage(f"bad matrix {shown}: empty row")
    if any(len(r) != len(rows[0]) for r in rows):
        raise CLIUsage(f"bad matrix {shown}: ragged rows")
    return rows


def matrix_str(m: Matrix) -> str:
    """m in the syntax parse_matrix reads."""
    return "; ".join(" ".join(map(str, row)) for row in m)
