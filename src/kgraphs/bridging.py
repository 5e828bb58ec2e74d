"""Polymorphisms, flip families, the coherence criterion and bridging search.

A flip family over a nonnegative matrix R assigns, per color i, a bijection
(lambda, g) -> (g', omega) on composable pairs with r(lambda) = r(g') and
s(g) = s(omega). Equivalently, per color i and vertices a of Lambda and b
of Omega, f_i maps the block {(lambda, g) : r(lambda) = a, s(g) = b}
bijectively onto {(g', omega) : r(g') = a, s(omega) = b}. Coherence: for
every triple lambda_i lambda_j g (i < j), flipping j then i then swapping
the omega pair agrees with swapping the lambda pair then flipping i then j.
Coherent families extend to flips of arbitrary-degree paths, one edge at a
time from the source end.

bridging_search assigns one flip key at a time, blocks in color order and
keys in domain order, and after each assignment evaluates only the triples
that key can complete (_watch_index). A triple that becomes decidable when
key k is assigned reads k, and a decidable triple keeps its routes under
every completion, so the search prunes exactly the families that a check
of every triple after each whole block would prune.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .core import (
    Edge,
    KGraph,
    KGraphError,
    NotComposable,
    Path,
    Skeleton,
    make_path,
    path_source,
    validate_kgraph,
    vertex_path,
)
from .dimension import DimensionMismatch, intertwiner_check
from .intmat import Matrix, zeros


class ShapeMismatch(KGraphError):
    pass


class NotIntertwining(KGraphError):
    pass


class IncoherentPair(KGraphError):
    pass


class PolyEdge(NamedTuple):
    id: str
    rng: str
    src: str


class Polymorphism(NamedTuple):
    rng_vertices: tuple[str, ...]
    src_vertices: tuple[str, ...]
    edges: tuple[PolyEdge, ...]


# f_i keyed by color: (lambda edge id, poly edge id) -> (poly edge id, omega edge id)
FlipFamily = dict[int, dict[tuple[str, str], tuple[str, str]]]


class BridgingPair(NamedTuple):
    r: Matrix
    flips: FlipFamily


class Exhausted(NamedTuple):
    count: int


class CoherenceWitness(NamedTuple):
    """A triple whose two flip routes disagree; top/bottom are the final
    (g, omega_j, omega_i) words."""

    i: int
    j: int
    lam_i: str
    lam_j: str
    g: str
    top: tuple[str, str, str]
    bottom: tuple[str, str, str]


# ------------------------------------------------------------- polymorphisms

def poly_matrix(p: Polymorphism) -> Matrix:
    m = zeros(len(p.rng_vertices), len(p.src_vertices))
    ri = {v: i for i, v in enumerate(p.rng_vertices)}
    si = {v: i for i, v in enumerate(p.src_vertices)}
    for e in p.edges:
        m[ri[e.rng]][si[e.src]] += 1
    return m


# the sum of R's entries, one polymorphism edge each; checked before any
# edge is built
POLY_MAX_EDGES = 100_000


def polymorphism_from_matrix(g_lam: KGraph, g_om: KGraph, r: Matrix) -> Polymorphism:
    """Canonical edge set g<t>[v,w] with range v, source w, t = 1..R(v,w).
    A matrix whose entries sum to more than POLY_MAX_EDGES raises
    KGraphError."""
    dl, dr = len(g_lam.vertices), len(g_om.vertices)
    if len(r) != dl or any(len(row) != dr for row in r):
        raise ShapeMismatch(f"matrix must be {dl}x{dr}")
    total = sum(max(count, 0) for row in r for count in row)
    if total > POLY_MAX_EDGES:
        raise KGraphError(f"matrix entries sum to {total}, over the cap of {POLY_MAX_EDGES}")
    edges = []
    for v, row in zip(g_lam.vertices, r):
        for w, count in zip(g_om.vertices, row):
            if count < 0:
                raise ShapeMismatch(f"negative entry at ({v}, {w})")
            for t in range(1, count + 1):
                edges.append(PolyEdge(f"g{t}[{v},{w}]", v, w))
    return Polymorphism(tuple(g_lam.vertices), tuple(g_om.vertices), tuple(edges))


def coordinate_polymorphism(g: KGraph, i: int) -> Polymorphism:
    if not 1 <= i <= g.rank:
        raise KGraphError(f"color {i} out of range 1..{g.rank}")
    edges = tuple(PolyEdge(e.id, e.rng, e.src) for e in g.edges if e.color == i)
    return Polymorphism(tuple(g.vertices), tuple(g.vertices), edges)


def identity_polymorphism(vertices: tuple[str, ...]) -> Polymorphism:
    return Polymorphism(vertices, vertices, tuple(PolyEdge(f"id[{v}]", v, v) for v in vertices))


def compose_poly(e: Polymorphism, f: Polymorphism) -> Polymorphism:
    """Composable-pair edges; the adjacency matrix multiplies."""
    if e.src_vertices != f.rng_vertices:
        raise NotComposable("source set of the first must equal range set of the second")
    edges = tuple(
        PolyEdge(f"({a.id}*{b.id})", a.rng, b.src)
        for a in e.edges
        for b in f.edges
        if a.src == b.rng
    )
    return Polymorphism(e.rng_vertices, f.src_vertices, edges)


# -------------------------------------------------------------- flip families

def _flip_blocks(
    g_lam: KGraph, g_om: KGraph, poly: Polymorphism
) -> list[tuple[int, list[tuple[str, str]], list[tuple[str, str]]]]:
    """(color, domain, codomain) of every block with a member, in color,
    then g_lam vertex, then g_om vertex order; members keep edge order."""
    dom: dict[tuple[int, str, str], list[tuple[str, str]]] = {}
    cod: dict[tuple[int, str, str], list[tuple[str, str]]] = {}
    for lam in g_lam.edges:
        for g in poly.edges:
            if g.rng == lam.src:
                dom.setdefault((lam.color, lam.rng, g.src), []).append((lam.id, g.id))
    for g in poly.edges:
        for om in g_om.edges:
            if om.rng == g.src:
                cod.setdefault((om.color, g.rng, om.src), []).append((g.id, om.id))
    return [
        (i, dom.get(key, []), cod.get(key, []))
        for i in range(1, g_lam.rank + 1)
        for a in g_lam.vertices
        for b in g_om.vertices
        if (key := (i, a, b)) in dom or key in cod
    ]


def check_flip_family(g_lam: KGraph, g_om: KGraph, pair: BridgingPair) -> Polymorphism:
    """Raise KGraphError unless the graphs have one rank k, pair.flips is
    keyed by the colors 1..k and each f_i maps every color-i block over
    pair.r bijectively onto its codomain and has no other key; returns
    the polymorphism."""
    k = g_lam.rank
    if g_om.rank != k:
        raise DimensionMismatch("graphs have different ranks")
    poly = polymorphism_from_matrix(g_lam, g_om, pair.r)
    if set(pair.flips) != set(range(1, k + 1)):
        raise KGraphError(f"flips are keyed by {list(pair.flips)}, not by the colors 1..{k}")
    covered = dict.fromkeys(pair.flips, 0)
    for i, dom, cod in _flip_blocks(g_lam, g_om, poly):
        f = pair.flips[i]
        if len(dom) != len(cod) or {f.get(key) for key in dom} != set(cod):
            raise KGraphError(
                f"color {i} flip does not map the block of {(dom or cod)[0]} onto its codomain"
            )
        covered[i] += len(dom)
    for i, f in pair.flips.items():
        if len(f) != covered[i]:
            raise KGraphError(f"color {i} flip has keys outside its domain")
    return poly


def _route_triple(
    g_lam: KGraph, g_om: KGraph, flips: FlipFamily, i: int, j: int, lam_i: str, lam_j: str, g: str
) -> tuple[tuple[str, str, str], tuple[str, str, str]] | None:
    """Both route outputs for one triple, or None while some lookup is
    still unassigned (during search)."""
    top_j = flips[j].get((lam_j, g))
    if top_j is None:
        return None
    g1, om_j = top_j
    top_i = flips[i].get((lam_i, g1))
    if top_i is None:
        return None
    g2, om_i = top_i
    sq_j, sq_i = g_om.squares[(om_i, om_j)]
    top = (g2, sq_j, sq_i)

    lam_j2, lam_i2 = g_lam.squares[(lam_i, lam_j)]
    bot_i = flips[i].get((lam_i2, g))
    if bot_i is None:
        return None
    gb1, om_i2 = bot_i
    bot_j = flips[j].get((lam_j2, gb1))
    if bot_j is None:
        return None
    gb2, om_j2 = bot_j
    return top, (gb2, om_j2, om_i2)


def _iter_triples(g_lam: KGraph, poly: Polymorphism, i: int, j: int):
    """The composable triples (lam_i, lam_j, g): lambda_i in edge order,
    then g in polymorphism order, then lambda_j in in-edge order. The
    polymorphism edges are indexed by range once, and the (g, lambda_j)
    list of a vertex is built when the first lambda_i with that source
    comes, so the cost is linear in the triples up to a sort."""
    by_range: dict[str, list[int]] = {}
    for n, g in enumerate(poly.edges):
        by_range.setdefault(g.rng, []).append(n)
    # source of lambda_i -> (g id, ids of the lambda_j with s(lambda_j) = r(g))
    after: dict[str, list[tuple[str, list[str]]]] = {}
    for lam_i in g_lam.edges:
        if lam_i.color != i:
            continue
        if lam_i.src not in after:
            lam_js: dict[str, list[str]] = {}
            for lam_j in g_lam.in_edges[lam_i.src][j]:
                lam_js.setdefault(lam_j.src, []).append(lam_j.id)
            gs = sorted(n for v in lam_js for n in by_range.get(v, ()))
            after[lam_i.src] = [(poly.edges[n].id, lam_js[poly.edges[n].rng]) for n in gs]
        for g, lams in after[lam_i.src]:
            for lam_j in lams:
                yield lam_i.id, lam_j, g


def coherence_check(
    g_lam: KGraph, g_om: KGraph, pair: BridgingPair
) -> tuple[bool, CoherenceWitness | None]:
    """True iff both routes agree on every composable triple, for every
    color pair i < j; otherwise the first witness in iteration order."""
    witness = _first_witness(g_lam, g_om, pair, check_flip_family(g_lam, g_om, pair))
    return witness is None, witness


def _first_witness(
    g_lam: KGraph, g_om: KGraph, pair: BridgingPair, poly: Polymorphism
) -> CoherenceWitness | None:
    # pair has passed check_flip_family, which built poly
    for i in range(1, g_lam.rank + 1):
        for j in range(i + 1, g_lam.rank + 1):
            for lam_i, lam_j, g in _iter_triples(g_lam, poly, i, j):
                top, bottom = _route_triple(g_lam, g_om, pair.flips, i, j, lam_i, lam_j, g)
                if top != bottom:
                    return CoherenceWitness(i, j, lam_i, lam_j, g, top, bottom)
    return None


# ------------------------------------------------------------ bridging search

def _watch_index(
    g_lam: KGraph,
    poly: Polymorphism,
    blocks: list[tuple[int, list[tuple[str, str]], list[tuple[str, str]]]],
) -> dict[tuple[int, str, str], dict[tuple[int, int, str, str, str], None]]:
    """Flip key (color, lambda id, poly id) -> the triples (i, j, lam_i,
    lam_j, g) that assigning it can make decidable, as dict keys. Blocks come in color
    order and i < j, so a triple's color-i lookups are all assigned before
    its color-j ones, and the key that completes it is one of these two:
    (j, lam_j, g), or (j, lam_j2, g1) with g1 in the codomain of the block
    of (i, lam_i2, g), where lam_i lam_j = lam_j2 lam_i2."""
    reach: dict[tuple[int, str, str], dict[str, None]] = {}
    for color, dom, cod in blocks:
        codomain = dict.fromkeys(g2 for g2, _ in cod)
        for lam, g in dom:
            reach[(color, lam, g)] = codomain
    watch: dict[tuple[int, str, str], dict[tuple[int, int, str, str, str], None]] = {}
    for i in range(1, g_lam.rank + 1):
        for j in range(i + 1, g_lam.rank + 1):
            for lam_i, lam_j, g in _iter_triples(g_lam, poly, i, j):
                lam_j2, lam_i2 = g_lam.squares[(lam_i, lam_j)]
                triple = (i, j, lam_i, lam_j, g)
                watch.setdefault((j, lam_j, g), {})[triple] = None
                for g1 in reach[(i, lam_i2, g)]:
                    watch.setdefault((j, lam_j2, g1), {})[triple] = None
    return watch


def bridging_search(g_lam: KGraph, g_om: KGraph, r: Matrix) -> BridgingPair | Exhausted:
    """Backtracking over per-block bijections, colors ascending and blocks
    in (range, source) order, one flip key at a time: within a block the
    keys go in domain order and each takes the smallest unused codomain
    index first, so every block runs through its bijections in the order
    of itertools.permutations. After each assignment only the triples the
    new key can complete are evaluated, and the value is rejected when one
    of them disagrees. That prunes exactly the families a check of every
    triple after each whole block would: a triple that becomes decidable
    when key k is assigned reads k, and a decidable triple keeps its routes
    under every completion. A value rejected at position p of an n-key
    block stands for (n-p-1)! orders of the rest of the block times every
    completion of the later blocks. Returns the lexicographically first
    coherent family, or Exhausted with the number of complete families the
    pruned search accounts for. The search is iterative, so its depth is
    not bounded by the interpreter's recursion limit."""
    if not intertwiner_check(g_lam, g_om, r):
        raise NotIntertwining("A_{e_i} R != R B_{e_i} for some color")
    poly = polymorphism_from_matrix(g_lam, g_om, r)
    blocks = _flip_blocks(g_lam, g_om, poly)
    assert all(len(dom) == len(cod) for _, dom, cod in blocks)  # by intertwining
    watch = _watch_index(g_lam, poly, blocks)

    # completions represented by a prune at block t
    suffix = [1] * (len(blocks) + 1)
    for t in range(len(blocks) - 1, -1, -1):
        suffix[t] = suffix[t + 1] * factorial(len(blocks[t][2]))

    # one slot per flip key, in block order and then domain order, with
    # the completions a rejected value stands for
    slots = [
        (t, key, factorial(len(dom) - p - 1) * suffix[t + 1])
        for t, (_, dom, _) in enumerate(blocks)
        for p, key in enumerate(dom)
    ]
    flips: FlipFamily = {i: {} for i in range(1, g_lam.rank + 1)}
    used = [[False] * len(cod) for _, _, cod in blocks]
    choice = [-1] * len(slots)  # codomain index held by each slot, -1 for none
    examined = 0
    # slot s gives up its value and takes the next free one; with none
    # left it is cleared and the search backs up to slot s - 1
    s = 0
    while 0 <= s < len(slots):
        t, key, weight = slots[s]
        color, _, cod = blocks[t]
        f, taken = flips[color], used[t]
        idx = choice[s]
        if idx >= 0:
            taken[idx] = False
            del f[key]
        idx += 1
        while idx < len(cod) and taken[idx]:
            idx += 1
        if idx == len(cod):
            choice[s] = -1
            s -= 1
            continue
        choice[s] = idx
        taken[idx] = True
        f[key] = cod[idx]
        for i, j, lam_i, lam_j, g in watch.get((color,) + key, ()):
            routes = _route_triple(g_lam, g_om, flips, i, j, lam_i, lam_j, g)
            if routes is not None and routes[0] != routes[1]:
                examined += weight
                break
        else:
            s += 1
    if s < 0:
        return Exhausted(examined)
    return BridgingPair(r, {i: dict(f) for i, f in flips.items()})


# ----------------------------------------------------- higher-degree flips

def _coherent_or_raise(g_lam: KGraph, g_om: KGraph, pair: BridgingPair) -> Polymorphism:
    poly = check_flip_family(g_lam, g_om, pair)
    witness = _first_witness(g_lam, g_om, pair, poly)
    if witness is not None:
        raise IncoherentPair(f"routes disagree at {witness}")
    return poly


def extend_flip(
    g_lam: KGraph, g_om: KGraph, pair: BridgingPair, lam: Path, g_id: str
) -> tuple[str, Path]:
    """Flip a whole path through g, source-end edge first; coherence makes
    the result independent of the factorization of d(lam)."""
    poly = _coherent_or_raise(g_lam, g_om, pair)
    by_id = {e.id: e for e in poly.edges}
    if g_id not in by_id:
        raise KGraphError(f"unknown polymorphism edge {g_id!r}")
    if path_source(g_lam, lam) != by_id[g_id].rng:
        raise NotComposable(f"s(lam) != r({g_id})")
    cur = g_id
    omegas: list[str] = []
    for eid in reversed(lam.edges):
        cur, om = pair.flips[g_lam.by_id[eid].color][(eid, cur)]
        omegas.append(om)
    omegas.reverse()
    if not omegas:
        return cur, vertex_path(by_id[cur].src)
    return cur, make_path(g_om, omegas)


def morph_apply(
    g_lam: KGraph, g_om: KGraph, pair: BridgingPair, g_id: str, omega: Path
) -> tuple[Path, str]:
    """The morph map: pull omega backwards through g by inverse flips,
    range-end edge first; a vertex path returns (r(g), g)."""
    poly = _coherent_or_raise(g_lam, g_om, pair)
    by_id = {e.id: e for e in poly.edges}
    if g_id not in by_id:
        raise KGraphError(f"unknown polymorphism edge {g_id!r}")
    if by_id[g_id].src != omega.rng:
        raise NotComposable(f"s({g_id}) != r(omega)")
    inverse = {i: {v: k for k, v in pair.flips[i].items()} for i in pair.flips}
    cur = g_id
    lams: list[str] = []
    for om_id in omega.edges:
        lam_e, cur = inverse[g_om.by_id[om_id].color][(cur, om_id)]
        lams.append(lam_e)
    if not lams:
        return vertex_path(by_id[g_id].rng), cur
    return make_path(g_lam, lams), cur


# ------------------------------------------------------------ bridging graph

def bridging_graph(g_lam: KGraph, g_om: KGraph, pair: BridgingPair) -> KGraph:
    """The rank-(k+1) graph on L-prefixed and O-prefixed vertices whose
    color-(k+1) edges are the polymorphism edges and whose mixed squares
    are the flips. Validation succeeds iff the pair is coherent, which
    makes this an independent oracle for coherence_check."""
    poly = check_flip_family(g_lam, g_om, pair)
    k = g_lam.rank
    vertices = tuple(f"L.{v}" for v in g_lam.vertices) + tuple(f"O.{w}" for w in g_om.vertices)
    edges = (
        tuple(Edge(f"L.{e.id}", e.color, f"L.{e.src}", f"L.{e.rng}") for e in g_lam.edges)
        + tuple(Edge(f"O.{e.id}", e.color, f"O.{e.src}", f"O.{e.rng}") for e in g_om.edges)
        + tuple(Edge(f"R.{e.id}", k + 1, f"O.{e.src}", f"L.{e.rng}") for e in poly.edges)
    )
    squares: dict[tuple[str, str], tuple[str, str]] = {}
    for (a, b), (c, d) in g_lam.squares.items():
        squares[(f"L.{a}", f"L.{b}")] = (f"L.{c}", f"L.{d}")
    for (a, b), (c, d) in g_om.squares.items():
        squares[(f"O.{a}", f"O.{b}")] = (f"O.{c}", f"O.{d}")
    for i, f in pair.flips.items():
        for (lam_id, g_id), (g2_id, om_id) in f.items():
            squares[(f"L.{lam_id}", f"R.{g_id}")] = (f"R.{g2_id}", f"O.{om_id}")
    return validate_kgraph(Skeleton(k + 1, vertices, edges), squares, strict=False)
