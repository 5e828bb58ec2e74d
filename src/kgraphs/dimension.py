"""The graded dimension group of a k-graph and its maps.

An element is a class [x, n]: x an integer row vector over the vertices,
n a Z^k shift. [x, n] = [y, m] iff x*A_{l-n} = y*A_{l-m} for some l >= n v m.
The side whose shift is below the join n v m is pushed to it along the
in-edge index KGraph.in_sources (the push kernel core._push); a side
already at the join is read as stored, so elements of one shift are
compared with no push. They are one class if the two vectors at the join
agree, and otherwise iff their difference z has
z*P^d = 0, where P is the product of all one-step matrices and d the
vertex count. The kernel of P^j stops growing at j = m0 <= d, the graph's
KGraph.stable_index, so that is decided by pushing z on by (m0, ..., m0);
when m0 = 0 a nonzero z is never zero. Before that push, z is dotted with
h = P^m0 * 1, the graph's KGraph.stable_path_counts: z*P^m0 = 0 forces
z . h = 0, so a nonzero dot product answers "not equal" in one pass over
the vertices, and only a zero one pays the push. Both attributes are
computed once per graph, on the first nonzero z. No matrix power is
formed.

Maps are given on the generators v(0) and checked against the defining
relations. The module also reads and writes the command-line syntax of
elements and maps. The rank invariant is in homology, and the search for
strong-shift-equivalence witnesses in sse.
"""

from __future__ import annotations

from itertools import compress
from operator import add, mul, sub
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .core import (
    CLIUsage,
    DimensionMismatch,
    KGraph,
    KGraphError,
    Shift,
    _check_int,
    _check_shape,
    _check_vertex,
    _push,
    parse_shift,
    unit_degree,
    zero_degree,
)

if TYPE_CHECKING:
    from .intmat import Matrix


class RankMismatch(KGraphError):
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


# ----------------------------------------------------------------- elements

def dim_element(x, n) -> DimElement:
    return DimElement(tuple(int(c) for c in x), tuple(int(c) for c in n))


def unit_element(g: KGraph, v: str, n: Shift | None = None) -> DimElement:
    """The generator v(n), by default v(0)."""
    _check_vertex(g, v)
    x = [0] * len(g.vertices)
    x[g.vertex_index[v]] = 1
    return DimElement(tuple(x), tuple(n) if n is not None else zero_degree(g.rank))


def zero_element(g: KGraph, n: Shift | None = None) -> DimElement:
    return DimElement((0,) * len(g.vertices), tuple(n) if n is not None else zero_degree(g.rank))


def _check_element(g: KGraph, a: DimElement) -> None:
    # vertex_index has a key per vertex and in_sources a row per color
    d, k = len(g.vertex_index), len(g.in_sources)
    if len(a.x) != d:
        raise RankMismatch(f"vector has {len(a.x)} entries for {d} vertices")
    if len(a.n) != k:
        raise RankMismatch(f"shift has {len(a.n)} coordinates for rank {k}")


# The public functions below check each element once, where it enters, and
# then run on unchecked helpers (_lift, _eq, _sum, _apply, _relations_hold)
# and the push kernel core._push.

# the total degree of one representative push; the push takes a pass per
# unit, and each pass costs more where the entries grow. _sum lifts each
# term once, to the join of its whole sum, so the cap bounds that one lift;
# it lifts no zero running total, and no term already at the join
SHIFT_MAX_DEGREE = 100_000


def _lift(g: KGraph, a: DimElement, p: Shift) -> Sequence[int]:
    # the representative of a at level p >= a.n: x * A_{p - a.n}. A side
    # already at p is its stored x, with no push, copy or cap check (its
    # total degree is 0); only a side below p is pushed
    if a.n == p:
        return a.x
    total = sum(p) - sum(a.n)
    if total > SHIFT_MAX_DEGREE:
        raise KGraphError(f"shift of total degree {total} is over {SHIFT_MAX_DEGREE}")
    return _push(g, a.x, map(sub, p, a.n))


def _eq(g: KGraph, a: DimElement, b: DimElement) -> bool:
    # only a side below the join is pushed, to a list; the other is its
    # stored tuple, which tuple() returns as it is, so elements of one
    # shift compare their stored vectors and build no list
    p = tuple(map(max, a.n, b.n))
    x, y = _lift(g, a, p), _lift(g, b, p)
    if tuple(x) == tuple(y):
        return True
    z = list(map(sub, x, y))
    if sum(map(mul, z, g.stable_path_counts)):
        return False
    return not any(_push(g, z, (g.stable_index,) * g.rank))


def _sum(g: KGraph, floor: Shift, terms) -> DimElement:
    # the sum of the (coefficient, element) terms at the join p of floor
    # and their shifts: each term is lifted once to p and added in
    p = tuple(map(max, zip(floor, *(a.n for _, a in terms))))
    x = [0] * len(g.vertices)
    for c, a in terms:
        y = _lift(g, a, p)
        x = list(map(add, x, y if c == 1 else [c * t for t in y]))
    return DimElement(tuple(x), p)


def dge_eq(g: KGraph, a: DimElement, b: DimElement) -> bool:
    """Whether a and b are one class: their representatives at the join
    of their shifts agree, or their difference z there dies under P^m0,
    m0 = g.stable_index (so under P^d). A z whose dot product with
    g.stable_path_counts (P^m0 * 1) is nonzero does not die, and is
    answered without pushing it."""
    _check_element(g, a)
    _check_element(g, b)
    return _eq(g, a, b)


def dge_add(g: KGraph, a: DimElement, b: DimElement) -> DimElement:
    _check_element(g, a)
    _check_element(g, b)
    return _sum(g, a.n, ((1, a), (1, b)))


def dge_shift(a: DimElement, m: Shift) -> DimElement:
    if len(m) != len(a.n):
        raise RankMismatch(f"shift has {len(m)} coordinates, element has {len(a.n)}")
    return DimElement(a.x, tuple(x + y for x, y in zip(a.n, m)))


def dge_scale(c: int, a: DimElement) -> DimElement:
    return DimElement(tuple(c * s for s in a.x), a.n)


def positivity(g: KGraph, a: DimElement, q_max: int) -> str:
    """'positive' | 'not_positive' | 'unknown', searched up to level q_max.

    x*A_q >= 0 for some q <= q_max*(1,..,1) iff it holds at the corner,
    since nonnegativity propagates through the nonnegative matrices; an
    element whose negation is positive is itself positive only if zero.
    """
    _check_element(g, a)
    _check_int("q_max", q_max)
    if q_max < 0:
        raise KGraphError("q_max must be >= 0")
    corner = tuple(max(q_max, c) for c in a.n)
    pushed = _lift(g, a, corner)
    if min(pushed, default=0) >= 0:
        return "positive"
    if max(pushed, default=0) <= 0 and not _eq(g, a, zero_element(g, a.n)):
        return "not_positive"
    return "unknown"


# ------------------------------------------------------------ generator maps

def generator_map(source: KGraph, target: KGraph, images: dict[str, DimElement]) -> GeneratorMap:
    for v in source.vertices:
        if v not in images:
            raise KGraphError(f"no image for vertex {v!r}")
    if set(images) != set(source.vertices):
        raise KGraphError("images given for unknown vertices")
    m = GeneratorMap(source, target, dict(images))
    _check_images(m, source.vertices)
    return m


def _check_images(m: GeneratorMap, vertices) -> None:
    # source and target have one rank, and the images of vertices are
    # elements of the target; the functions taking a map run this too, as
    # it may have been built directly
    if m.source.rank != m.target.rank:
        raise DimensionMismatch("graphs have different ranks")
    for v in vertices:
        _check_element(m.target, m.images[v])


def identity_generator_map(g: KGraph) -> GeneratorMap:
    return identity_map_between(g, g)


def identity_map_between(source: KGraph, target: KGraph) -> GeneratorMap:
    """v(0) -> v(0) for graphs sharing vertex names (e.g. twisted pairs)."""
    if set(source.vertices) != set(target.vertices):
        raise KGraphError("graphs do not share vertex names")
    return GeneratorMap(source, target, {v: unit_element(target, v) for v in source.vertices})


def _apply(m: GeneratorMap, a: DimElement) -> DimElement:
    terms = [(c, dge_shift(m.images[v], a.n)) for v, c in zip(m.source.vertices, a.x) if c]
    return _sum(m.target, a.n, terms)


def apply_generator_map(m: GeneratorMap, a: DimElement) -> DimElement:
    """Extend images additively and Z^k-equivariantly: v(n) -> shift(m(v), n)."""
    _check_element(m.source, a)
    _check_images(m, compress(m.source.vertices, a.x))
    return _apply(m, a)


def _relations_hold(source: KGraph, target: KGraph, image, steps) -> bool:
    # whether image[v] = sum over the color-i in-edges e of v of image[s(e)]
    # shifted by steps[i-1], in target's group, vertex by vertex and then
    # color by color; each sum starts at the shift steps[i-1]
    return all(
        _eq(target, image[v], _sum(target, step, [(1, dge_shift(image[e.src], step)) for e in edges]))
        for v in source.vertices
        for step, edges in zip(steps, source.in_edges[v].values())
    )


def hom_check(m: GeneratorMap) -> bool:
    """Whether the images satisfy every defining relation
    v(0) = sum over color-i in-edges of s(edge)(e_i)."""
    _check_images(m, m.source.vertices)
    k = m.source.rank
    return _relations_hold(m.source, m.target, m.images, [unit_degree(k, i) for i in range(1, k + 1)])


def iso_check(fwd: GeneratorMap, bwd: GeneratorMap) -> bool:
    """Both maps are homs and both composites fix every generator."""
    if fwd.source is not bwd.target and fwd.source != bwd.target:
        raise KGraphError("fwd.source and bwd.target differ")
    if fwd.target is not bwd.source and fwd.target != bwd.source:
        raise KGraphError("fwd.target and bwd.source differ")
    if not hom_check(fwd) or not hom_check(bwd):
        return False
    return all(
        _eq(there.source, _apply(back, there.images[v]), unit_element(there.source, v))
        for there, back in ((fwd, bwd), (bwd, fwd))
        for v in there.source.vertices
    )


def pointed_check(fwd: GeneratorMap) -> bool:
    """Whether the sum of all source generators maps to the sum of all
    target generators (the order units)."""
    _check_images(fwd, fwd.source.vertices)
    src_unit = DimElement((1,) * len(fwd.source.vertices), zero_degree(fwd.source.rank))
    tgt_unit = DimElement((1,) * len(fwd.target.vertices), zero_degree(fwd.target.rank))
    return _eq(fwd.target, _apply(fwd, src_unit), tgt_unit)


def generator_map_from_matrix(g_left: KGraph, g_right: KGraph, r: Matrix) -> GeneratorMap:
    """v(0) -> [row v of r, 0]."""
    _check_shape(g_left, g_right, r)
    images = {
        v: DimElement(tuple(r[i]), zero_degree(g_right.rank))
        for i, v in enumerate(g_left.vertices)
    }
    return generator_map(g_left, g_right, images)


# ------------------------------------------------------- command-line text

def parse_element(g: KGraph, text: str) -> DimElement:
    """An element written as '+'-separated terms "vertex:shift[:coeff]",
    or "0"."""
    text = text.strip()
    if text == "0":
        return zero_element(g)
    terms = []
    for term in text.split("+"):
        parts = term.strip().split(":")
        if len(parts) == 2:
            parts.append("1")
        if len(parts) != 3:
            raise CLIUsage(f"bad element term {term.strip()!r}: want vertex:shift[:coeff]")
        v, shift, coeff = parts
        if v not in g.vertex_index:
            raise CLIUsage(f"unknown vertex {v!r} in element")
        try:
            c = int(coeff)
        except ValueError:
            raise CLIUsage(f"bad coefficient {coeff!r}")
        terms.append((c, unit_element(g, v, parse_shift(shift))))
        _check_element(g, terms[-1][1])
    return _sum(g, zero_degree(g.rank), terms)


def element_str(g: KGraph, a: DimElement) -> str:
    """a in the syntax parse_element reads."""
    shift = ",".join(map(str, a.n))
    terms = [f"{v}:{shift}:{c}" for v, c in zip(g.vertices, a.x) if c != 0]
    return " + ".join(terms) if terms else "0"


def parse_generator_map(source: KGraph, target: KGraph, text: str) -> GeneratorMap:
    """A map written as ';'-separated assignments "generator=element"."""
    images: dict[str, DimElement] = {}
    for entry in text.split(";"):
        if "=" not in entry:
            raise CLIUsage(f"bad map entry {entry.strip()!r}: want generator=element")
        gen, elt = (part.strip() for part in entry.split("=", 1))
        if gen in images:
            raise CLIUsage(f"bad map: generator {gen!r} is given twice")
        images[gen] = parse_element(target, elt)
    return generator_map(source, target, images)


def map_doc(m: GeneratorMap) -> dict[str, str]:
    """The images of m by generator, in element syntax."""
    return {gen: element_str(m.target, img) for gen, img in sorted(m.images.items())}
