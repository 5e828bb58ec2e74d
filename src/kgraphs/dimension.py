"""The graded dimension group of a k-graph and its maps.

An element is a class [x, n]: x an integer row vector over the vertices,
n a Z^k shift. [x, n] = [y, m] iff x*A_{l-n} = y*A_{l-m} for some l >= n v m.
Both sides are pushed to the join n v m along the one-step edge lists
(core.push), and their difference z is zero in the group iff z*P^d = 0,
where P is the product of all one-step matrices and d the vertex count.
The kernel of P^j stops growing at j = m0 <= d, the graph's
KGraph.stable_index (computed once per graph, on the first nonzero z), so
that is decided by pushing z on by (m0, ..., m0); when m0 = 0 a nonzero z
is never zero. No matrix power is formed.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from .core import (
    Degree,
    KGraph,
    KGraphError,
    Shift,
    deg_join,
    deg_sub,
    deg_total,
    push,
    unit_degree,
    vertex_matrix,
    zero_degree,
)
from .intmat import (
    Matrix,
    is_nonneg_vec,
    is_zero_vec,
    rank,
    vec_add,
    vec_scale,
    vec_sub,
)


class RankMismatch(KGraphError):
    pass


class DimensionMismatch(KGraphError):
    pass


class DimElement(NamedTuple):
    x: tuple[int, ...]
    n: Shift


class GeneratorMap(NamedTuple):
    """A candidate graded-module map given on generators: images[v] is the
    image of v(0) in the target's dimension group."""

    source: KGraph
    target: KGraph
    images: dict[str, DimElement]


class SSEWitness(NamedTuple):
    p: Degree
    r: Matrix
    s: Matrix


class ExhaustedBounds(NamedTuple):
    p_max: int
    entry_max: int


# ----------------------------------------------------------------- elements

def dim_element(x, n) -> DimElement:
    return DimElement(tuple(int(c) for c in x), tuple(int(c) for c in n))


def unit_element(g: KGraph, v: str, n: Shift | None = None) -> DimElement:
    """The generator v(n), by default v(0)."""
    if v not in g.vertex_index:
        raise KGraphError(f"unknown vertex {v!r}")
    x = tuple(1 if w == v else 0 for w in g.vertices)
    return DimElement(x, tuple(n) if n is not None else zero_degree(g.rank))


def zero_element(g: KGraph, n: Shift | None = None) -> DimElement:
    return DimElement((0,) * len(g.vertices), tuple(n) if n is not None else zero_degree(g.rank))


def _check_element(g: KGraph, a: DimElement) -> None:
    if len(a.x) != len(g.vertices):
        raise RankMismatch(f"vector has {len(a.x)} entries for {len(g.vertices)} vertices")
    if len(a.n) != g.rank:
        raise RankMismatch(f"shift has {len(a.n)} coordinates for rank {g.rank}")


# the total degree of one representative push; the push takes a pass per
# unit, and each pass costs more where the entries grow
SHIFT_MAX_DEGREE = 100_000


def _push(g: KGraph, a: DimElement, p: Shift) -> list[int]:
    # the representative of a at level p >= a.n: x * A_{p - a.n}
    n = deg_sub(p, a.n)
    if deg_total(n) > SHIFT_MAX_DEGREE:
        raise KGraphError(f"shift of total degree {deg_total(n)} is over {SHIFT_MAX_DEGREE}")
    return push(g, a.x, n)


def dge_eq(g: KGraph, a: DimElement, b: DimElement) -> bool:
    """Whether a and b are one class: their difference z at the join of
    their shifts dies under P^m0, m0 = g.stable_index (so under P^d)."""
    _check_element(g, a)
    _check_element(g, b)
    p = deg_join(a.n, b.n)
    z = vec_sub(_push(g, a, p), _push(g, b, p))
    if is_zero_vec(z):
        return True
    return is_zero_vec(push(g, z, (g.stable_index,) * g.rank))


def dge_add(g: KGraph, a: DimElement, b: DimElement) -> DimElement:
    _check_element(g, a)
    _check_element(g, b)
    p = deg_join(a.n, b.n)
    return DimElement(tuple(vec_add(_push(g, a, p), _push(g, b, p))), p)


def dge_shift(a: DimElement, m: Shift) -> DimElement:
    if len(m) != len(a.n):
        raise RankMismatch(f"shift has {len(m)} coordinates, element has {len(a.n)}")
    return DimElement(a.x, tuple(x + y for x, y in zip(a.n, m)))


def dge_scale(c: int, a: DimElement) -> DimElement:
    return DimElement(tuple(vec_scale(c, list(a.x))), a.n)


def positivity(g: KGraph, a: DimElement, q_max: int) -> str:
    """'positive' | 'not_positive' | 'unknown', searched up to level q_max.

    x*A_q >= 0 for some q <= q_max*(1,..,1) iff it holds at the corner,
    since nonnegativity propagates through the nonnegative matrices; an
    element whose negation is positive is itself positive only if zero.
    """
    _check_element(g, a)
    if q_max < 0:
        raise KGraphError("q_max must be >= 0")
    corner = tuple(max(q_max, c) for c in a.n)
    pushed = _push(g, a, corner)
    if is_nonneg_vec(pushed):
        return "positive"
    if is_nonneg_vec(vec_scale(-1, pushed)) and not dge_eq(g, a, zero_element(g, a.n)):
        return "not_positive"
    return "unknown"


# ------------------------------------------------------------ generator maps

def generator_map(source: KGraph, target: KGraph, images: dict[str, DimElement]) -> GeneratorMap:
    for v in source.vertices:
        if v not in images:
            raise KGraphError(f"no image for vertex {v!r}")
        _check_element(target, images[v])
    if set(images) != set(source.vertices):
        raise KGraphError("images given for unknown vertices")
    return GeneratorMap(source, target, dict(images))


def identity_generator_map(g: KGraph) -> GeneratorMap:
    return identity_map_between(g, g)


def identity_map_between(source: KGraph, target: KGraph) -> GeneratorMap:
    """v(0) -> v(0) for graphs sharing vertex names (e.g. twisted pairs)."""
    if set(source.vertices) != set(target.vertices):
        raise KGraphError("graphs do not share vertex names")
    return GeneratorMap(source, target, {v: unit_element(target, v) for v in source.vertices})


def apply_generator_map(m: GeneratorMap, a: DimElement) -> DimElement:
    """Extend images additively and Z^k-equivariantly: v(n) -> shift(m(v), n)."""
    _check_element(m.source, a)
    total = zero_element(m.target, a.n)
    for v, coeff in zip(m.source.vertices, a.x):
        if coeff:
            total = dge_add(m.target, total, dge_scale(coeff, dge_shift(m.images[v], a.n)))
    return total


def hom_check(m: GeneratorMap) -> bool:
    """Whether the images satisfy every defining relation
    v(0) = sum over color-i in-edges of s(edge)(e_i)."""
    g = m.source
    for v in g.vertices:
        for i in range(1, g.rank + 1):
            rhs = zero_element(m.target, unit_degree(g.rank, i))
            for e in g.in_edges[v][i]:
                rhs = dge_add(
                    m.target, rhs, dge_shift(m.images[e.src], unit_degree(g.rank, i))
                )
            if not dge_eq(m.target, m.images[v], rhs):
                return False
    return True


def iso_check(fwd: GeneratorMap, bwd: GeneratorMap) -> bool:
    """Both maps are homs and both composites fix every generator."""
    if fwd.source is not bwd.target and fwd.source != bwd.target:
        raise KGraphError("fwd.source and bwd.target differ")
    if fwd.target is not bwd.source and fwd.target != bwd.source:
        raise KGraphError("fwd.target and bwd.source differ")
    if not hom_check(fwd) or not hom_check(bwd):
        return False
    for v in fwd.source.vertices:
        back = apply_generator_map(bwd, fwd.images[v])
        if not dge_eq(fwd.source, back, unit_element(fwd.source, v)):
            return False
    for w in bwd.source.vertices:
        forth = apply_generator_map(fwd, bwd.images[w])
        if not dge_eq(bwd.source, forth, unit_element(bwd.source, w)):
            return False
    return True


def pointed_check(fwd: GeneratorMap) -> bool:
    """Whether the sum of all source generators maps to the sum of all
    target generators (the order units)."""
    src_unit = DimElement((1,) * len(fwd.source.vertices), zero_degree(fwd.source.rank))
    tgt_unit = DimElement((1,) * len(fwd.target.vertices), zero_degree(fwd.target.rank))
    return dge_eq(fwd.target, apply_generator_map(fwd, src_unit), tgt_unit)


# -------------------------------------------------------------- intertwiners

def _check_shape(g_left: KGraph, g_right: KGraph, r: Matrix) -> None:
    # a row per left vertex, a column per right vertex
    dl, dr = len(g_left.vertices), len(g_right.vertices)
    if len(r) != dl or any(len(row) != dr for row in r):
        raise DimensionMismatch(f"matrix must be {dl}x{dr}")


def _intertwining_rows(g_m: KGraph, g_n: KGraph):
    """accept(rows, t) for a row search of X, a g_m-by-g_n matrix, under
    A_{e_i} X = X B_{e_i} for every color i, A over g_m and B over g_n:
    it checks the equation rows that row t of X completes. Row v of the
    equation reads row v of X and the rows s with A_{e_i}(v, s) != 0, and
    t is the last of them. Its left side adds row s of X for each color-i
    edge of g_m from s into v; its right side, row v times B_{e_i}, adds
    each entry of row v, at column w, at the source of every color-i edge
    of g_n into w. Only nonzero entries are read, listed once per distinct
    row, and row v times B_{e_i} is kept per distinct row too. Calling
    accept for every t checks the whole equation (intertwiner_check)."""
    zero = [0] * len(g_n.vertices)
    watch: list[list] = [[] for _ in g_m.vertices]
    for m_pairs, n_pairs in zip(g_m.step_pairs, g_n.step_pairs):
        into: list[list[int]] = [[] for _ in g_m.vertices]
        for v, s in m_pairs:
            into[v].append(s)
        n_into: list[list[int]] = [[] for _ in g_n.vertices]
        for w, s in n_pairs:
            n_into[w].append(s)
        times_b: dict[tuple[int, ...], list[int]] = {}
        for v, srcs in enumerate(into):
            watch[max([v, *srcs])].append((v, srcs, n_into, times_b))

    nonzero: dict[tuple[int, ...], list[tuple[int, int]]] = {}

    def entries(row: tuple[int, ...]) -> list[tuple[int, int]]:
        # the (column, entry) pairs of row's nonzero entries
        found = nonzero.get(row)
        if found is None:
            found = nonzero[row] = [(c, x) for c, x in enumerate(row) if x]
        return found

    def accept(rows: list, t: int) -> bool:
        for v, srcs, n_into, times_b in watch[t]:
            rhs = times_b.get(rows[v])
            if rhs is None:
                rhs = times_b[rows[v]] = zero[:]
                for w, x in entries(rows[v]):
                    for s in n_into[w]:
                        rhs[s] += x
            lhs = zero[:]
            for s in srcs:
                for c, x in entries(rows[s]):
                    lhs[c] += x
            if lhs != rhs:
                return False
        return True

    return accept


def intertwiner_check(g_left: KGraph, g_right: KGraph, r: Matrix) -> bool:
    """Whether A_{e_i} * r == r * B_{e_i} for every color: one full pass of
    the row kernel of sse_search (_intertwining_rows) over the rows of r."""
    if g_left.rank != g_right.rank:
        raise DimensionMismatch("graphs have different ranks")
    _check_shape(g_left, g_right, r)
    accept = _intertwining_rows(g_left, g_right)
    rows = list(map(tuple, r))
    return all(accept(rows, t) for t in range(len(rows)))


def generator_map_from_matrix(g_left: KGraph, g_right: KGraph, r: Matrix) -> GeneratorMap:
    """v(0) -> [row v of r, 0]."""
    _check_shape(g_left, g_right, r)
    images = {
        v: DimElement(tuple(r[i]), zero_degree(g_right.rank))
        for i, v in enumerate(g_left.vertices)
    }
    return generator_map(g_left, g_right, images)


# ---------------------------------------------------------------- SSE search

def _row_search(n: int, options, accept):
    """Every n-row matrix whose row t is drawn from options(t) and passes
    accept(rows, t), as a list of rows, in lexicographic order of the rows.
    accept sees rows 0..t set, and a prefix it rejects is not extended.
    The stack of row iterators is explicit, so there is no recursion."""
    if n == 0:
        yield []
        return
    rows: list = [None] * n
    its: list = [iter(options(0))] + [None] * (n - 1)
    t = 0
    while t >= 0:
        rows[t] = next(its[t], None)
        if rows[t] is None:
            t -= 1
        elif accept(rows, t):
            if t + 1 == n:
                yield rows[:]
            else:
                t += 1
                its[t] = iter(options(t))


def _first_s(r: list, a_p: Matrix, b_p: Matrix, entry_max: int, s_accept) -> Matrix | None:
    """The first S in row-major lexicographic order with S R = B_p,
    R S = A_p and B_{e_i} S = S A_{e_i} for all i, or None."""
    dl, dr = len(a_p), len(b_p)
    # row v of R S reads the rows of S at the nonzero columns of row v of
    # R, and is checked when the last of them is set
    rs_eqs: list[list[tuple[int, list[tuple[int, int]]]]] = [[] for _ in range(dr)]
    for v, row in enumerate(r):
        terms = [(t, c) for t, c in enumerate(row) if c]
        if terms:
            rs_eqs[terms[-1][0]].append((v, terms))
        elif any(a_p[v]):
            return None
    # row t of S R is (row t of S) R, so row t of S is drawn from the rows
    # x with x R = row t of B_p
    by_image: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for x in product(range(entry_max + 1), repeat=dl):
        image = [0] * dr
        for c, row in zip(x, r):
            if c:
                image = [a + c * b for a, b in zip(image, row)]
        by_image.setdefault(tuple(image), []).append(x)
    options = [by_image.get(tuple(row), []) for row in b_p]

    def holds(rows: list, t: int) -> bool:
        for v, terms in rs_eqs[t]:
            acc = [0] * dl
            for u, c in terms:
                acc = [a + c * b for a, b in zip(acc, rows[u])]
            if acc != a_p[v]:
                return False
        return s_accept(rows, t)

    s = next(_row_search(dr, options.__getitem__, holds), None)
    return None if s is None else [list(row) for row in s]


def sse_search(
    g_left: KGraph, g_right: KGraph, p_max: int, entry_max: int
) -> SSEWitness | ExhaustedBounds:
    """First (p, R, S) in lexicographic order with A_p = R*S, B_p = S*R,
    A_{e_i}R = R B_{e_i} and B_{e_i}S = S A_{e_i} for all i, all entries of
    R and S in 0..entry_max and p <= p_max componentwise.

    p runs through (0..p_max)^k in lexicographic order; for each p, R and
    then S run through their matrices in row-major lexicographic order, one
    row at a time. Row v of A_{e_i}R - R B_{e_i} reads only row v and the
    rows w with A_{e_i}(v, w) != 0, so it is checked as soon as the last of
    them is set; so are row t of B_{e_i}S - S A_{e_i} and row v of
    R S - A_p, which reads the rows of S at the nonzero columns of row v of
    R. Row t of S R reads only row t of S, so each row of S is drawn from
    the rows x with x R = row t of B_p. A prefix is rejected only when an
    equation row it fully determines fails, and then no completion is a
    witness: the search meets the surviving candidates in the order of a
    full enumeration and returns the same first witness. The intertwining R
    do not depend on p; they are enumerated once, lazily, and replayed for
    every later p. The one-step matrices are read off KGraph.step_pairs and
    no matrix product is formed. The equations prune rows, but the worst
    case is still exponential in the sizes of R and S."""
    if g_left.rank != g_right.rank:
        raise DimensionMismatch("graphs have different ranks")
    if p_max < 0 or entry_max < 0:
        raise KGraphError("bounds must be >= 0")
    dr = len(g_right.vertices)
    s_accept = _intertwining_rows(g_right, g_left)
    fresh = _row_search(
        len(g_left.vertices),
        lambda t: product(range(entry_max + 1), repeat=dr),
        _intertwining_rows(g_left, g_right),
    )
    seen: list[list[tuple[int, ...]]] = []

    def intertwiners():
        # the R met so far, then the rest of the enumeration
        yield from seen
        for r in fresh:
            seen.append(r)
            yield r

    for p in product(range(p_max + 1), repeat=g_left.rank):
        a_p = vertex_matrix(g_left, p)
        b_p = vertex_matrix(g_right, p)
        for r in intertwiners():
            s = _first_s(r, a_p, b_p, entry_max, s_accept)
            if s is not None:
                return SSEWitness(tuple(p), [list(row) for row in r], s)
    return ExhaustedBounds(p_max, entry_max)


def rank_invariant(g: KGraph) -> int:
    """Rank over Q of P^d, P the product of the one-step matrices; P^d is
    built by pushing the identity rows (vertex_matrix), with no product."""
    d = len(g.vertices)
    return rank(vertex_matrix(g, (d,) * g.rank))
