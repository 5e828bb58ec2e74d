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

check_flip_family, which coherence_check, extend_flip, morph_apply and
bridging_graph run first, builds no block: it checks each entry of f_i
against its own block, then counts. Distinct values, as many keys as
composable color-i pairs (lambda, g), and as many of those as pairs
(g', omega) make every block a bijection (see its docstring).

bridging_search assigns one flip key at a time, blocks in color order and
keys in domain order. A triple (i < j) reads two color-j keys, and every
color-i key is set before color j is searched, so after assigning a
color-j key the search evaluates exactly the triples whose other color-j
key is already set, found through the squares at the key's edge and the
inverse of each f_i. Each triple is evaluated as soon as it is decidable,
and a decidable triple keeps its routes under every completion, so the
search prunes exactly the families that a check of every triple after
each whole block would prune. The search builds its slots once, one per
flip key, each holding what an assignment reads: the key, its color and
f_color, the block's codomain and taken flags, and the squares through
which the key's lambda edge meets each lower color (KGraph.upper_squares,
indexed once per graph). That set-up is linear in the composable pairs
plus R's entries: the blocks are walked per color and range vertex
(_flip_blocks), and the slots are made in one pass over the blocks,
which also checks that R intertwines. With the colors below j fixed,
each color-j slot's squares name fixed triples and the other key each
reads, so a slot resolves them once per change below j, and a node only
runs the route check of each triple whose other key is set.
"""

from __future__ import annotations

import json
import os
from itertools import compress
from math import factorial
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .core import (
    CLIUsage,
    DimensionMismatch,
    Edge,
    KGraph,
    KGraphError,
    NotComposable,
    Skeleton,
    _check_color,
    matrix_str,
    validate_kgraph,
)
if TYPE_CHECKING:
    from .intmat import Matrix
    from .paths import Path


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
    m = [[0] * len(p.src_vertices) for _ in p.rng_vertices]
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
    if len(r) != dl:
        raise ShapeMismatch(f"matrix must be {dl}x{dr}")
    # one pass: each row's length, the sum of the positive entries, the
    # first negative one, and the edges while the sum is within the cap;
    # compress skips the zero entries without a Python-level step each
    edges: list[PolyEdge] = []
    total, negative = 0, None
    om_vertices = g_om.vertices
    for v, row in zip(g_lam.vertices, r):
        if len(row) != dr:
            raise ShapeMismatch(f"matrix must be {dl}x{dr}")
        for w, count in zip(compress(om_vertices, row), compress(row, row)):
            if count > 0:
                total += count
                if total <= POLY_MAX_EDGES:
                    for t in range(1, count + 1):
                        edges.append(PolyEdge(f"g{t}[{v},{w}]", v, w))
            elif count < 0 and negative is None:
                negative = f"({v}, {w})"
    if total > POLY_MAX_EDGES:
        raise KGraphError(f"matrix entries sum to {total}, over the cap of {POLY_MAX_EDGES}")
    if negative is not None:
        raise ShapeMismatch(f"negative entry at {negative}")
    return Polymorphism(tuple(g_lam.vertices), tuple(g_om.vertices), tuple(edges))


def coordinate_polymorphism(g: KGraph, i: int) -> Polymorphism:
    _check_color(g.rank, i)
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
    then g_lam vertex, then g_om vertex order; members keep edge order.
    The polymorphism edges are indexed by range once; then per color i
    and range vertex a the domain pairs are the color-i edges into a
    (g_lam.in_edges) against the polymorphism edges at each one's source,
    and the codomain pairs the polymorphism edges at a against the
    color-i edges into each one's source (g_om.in_edges), both grouped by
    the g_om vertex b. No (i, a, b) without a member is visited, so the
    cost is linear in the composable pairs, the polymorphism edges and
    the k |g_lam vertices| groups (i, a), up to sorting each group's
    vertices b."""
    # range -> (id, source) of each polymorphism edge, in edge order
    by_range: dict[str, list[tuple[str, str]]] = {}
    for g, rng, src in poly.edges:
        by_range.setdefault(rng, []).append((g, src))
    order = g_om.vertex_index.__getitem__
    blocks = []
    for i in range(1, g_lam.rank + 1):
        for a in g_lam.vertices:
            # b -> the domain and codomain of the block (i, a, b)
            by_b: dict[str, tuple[list, list]] = {}
            for lam, _, src, _ in g_lam.in_edges[a][i]:
                for g, b in by_range.get(src, ()):
                    if b in by_b:
                        by_b[b][0].append((lam, g))
                    else:
                        by_b[b] = ([(lam, g)], [])
            for g, src in by_range.get(a, ()):
                for om, _, b, _ in g_om.in_edges[src][i]:
                    if b in by_b:
                        by_b[b][1].append((g, om))
                    else:
                        by_b[b] = ([], [(g, om)])
            for b in sorted(by_b, key=order) if len(by_b) > 1 else by_b:
                dom, cod = by_b[b]
                blocks.append((i, dom, cod))
    return blocks


def check_flip_family(g_lam: KGraph, g_om: KGraph, pair: BridgingPair) -> Polymorphism:
    """Raise KGraphError unless the graphs have one rank k, pair.flips is
    keyed by the colors 1..k and each f_i maps every color-i block over
    pair.r bijectively onto its codomain and has no other key; returns
    the polymorphism.

    f_i is checked one entry at a time, with no block built. Every key
    (lam, g) must be a composable color-i pair and every value (g2, om) a
    composable color-i pair of the key's block (r(lam) = r(g2), s(g) =
    s(om)); a key or value that is not a pair of known ids is rejected.
    Then three counts: the values are distinct, f_i has as many keys as
    there are composable color-i pairs (lam, g), and there are as many
    pairs (g, om), both counted per vertex from R's row and column sums.
    The keys are distinct members of the domain and as many, so they are
    all of it; each block's values are distinct members of its codomain,
    so no block has more keys than values; and the totals agree, so every
    block has exactly as many, and f_i is a bijection on each."""
    k = g_lam.rank
    if g_om.rank != k:
        raise DimensionMismatch("graphs have different ranks")
    poly = polymorphism_from_matrix(g_lam, g_om, pair.r)
    if set(pair.flips) != set(range(1, k + 1)):
        raise KGraphError(f"flips are keyed by {list(pair.flips)}, not by the colors 1..{k}")
    by_id = {g.id: g for g in poly.edges}
    # the polymorphism edges at each range v (R's row sums) and at each
    # source w (its column sums)
    rows, cols = list(map(sum, pair.r)), list(map(sum, zip(*pair.r)))
    lam_by_id, om_by_id = g_lam.by_id, g_om.by_id
    for i in range(1, k + 1):
        f = pair.flips[i]
        for key, value in f.items():
            try:
                if type(key) is not tuple or type(value) is not tuple:
                    raise TypeError
                (lam_id, g_id), (g2_id, om_id) = key, value
                lam, g, g2, om = lam_by_id[lam_id], by_id[g_id], by_id[g2_id], om_by_id[om_id]
            except (TypeError, ValueError, KeyError):
                raise KGraphError(
                    f"color {i} flip entry {key!r} -> {value!r} is not a pair of known ids"
                ) from None
            if lam.color != i or om.color != i or lam.src != g.rng or g2.src != om.rng:
                raise KGraphError(
                    f"color {i} flip entry {key!r} -> {value!r} is not two composable color-{i} pairs"
                )
            if lam.rng != g2.rng or g.src != om.src:
                raise KGraphError(f"color {i} flip sends {key!r} outside its block, to {value!r}")
        if len(set(f.values())) != len(f):
            raise KGraphError(f"color {i} flip repeats a value")
        # the composable pairs (lam, g), (g, om) of color i: per vertex,
        # the color-i edges out of v times the edges at range v, or the
        # color-i edges into w times those at source w
        domain = sum(map(mul, rows, map(len, g_lam.out_sources[i - 1])))
        codomain = sum(map(mul, cols, map(len, g_om.in_sources[i - 1])))
        if len(f) != domain:
            raise KGraphError(f"color {i} flip has {len(f)} keys, not the {domain} of its domain")
        if domain != codomain:
            raise KGraphError(f"color {i} flip has a domain of {domain} and a codomain of {codomain}")
    return poly


def _route_triple(
    g_lam: KGraph, g_om: KGraph, flips: FlipFamily, i: int, j: int, lam_i: str, lam_j: str, g: str
) -> tuple[tuple[str, str, str], tuple[str, str, str]]:
    """Both route outputs for one triple; every flip they read is set."""
    g1, om_j = flips[j][(lam_j, g)]
    g2, om_i = flips[i][(lam_i, g1)]
    sq_j, sq_i = g_om.squares[(om_i, om_j)]
    lam_j2, lam_i2 = g_lam.squares[(lam_i, lam_j)]
    gb1, om_i2 = flips[i][(lam_i2, g)]
    gb2, om_j2 = flips[j][(lam_j2, gb1)]
    return (g2, sq_j, sq_i), (gb2, om_j2, om_i2)


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

def bridging_search(g_lam: KGraph, g_om: KGraph, r: Matrix) -> BridgingPair | Exhausted:
    """Backtracking over per-block bijections, colors ascending and blocks
    in (range, source) order, one flip key at a time: within a block the
    keys go in domain order and each takes the smallest unused codomain
    index first, so every block runs through its bijections in the order
    of itertools.permutations. A triple (i < j) reads two color-j keys,
    (lam_j, g) and (lam_j2, f_i(lam_i2, g)[0]) where lam_i lam_j = lam_j2
    lam_i2, and every color-i key is set before color j is searched. So it
    becomes decidable exactly when the later of its two color-j keys is
    assigned, and only then is it evaluated; the value is rejected when
    one such triple disagrees. A color-1 key completes no triple. That
    prunes exactly the families a check of every triple after each whole
    block would, since a decidable triple keeps its routes under every
    completion. Returns the lexicographically first coherent family, or
    Exhausted with the number of complete families: every family extends
    exactly one rejected prefix, so an exhausted search has ruled out all
    of them, the product of factorial(block size) over the blocks. R
    intertwines exactly when every block has as many keys as values;
    NotIntertwining is raised otherwise. The slots, one per key, are built
    once: each holds the key, its color, f_color, its block's codomain and
    taken flags, and the key's lower-color checks, the entries of
    g_lam.upper_squares at the key's edge (one per square lam_i lam_j =
    lam_j2 lam_i2 with that edge as lam_j or lam_j2, by color i and then
    those two kinds). That index is built once per graph, and the slots
    come from one pass over the blocks, so the set-up is linear in the
    composable pairs plus R's entries. Once the colors below j are set, a
    color-j slot's checks name fixed triples, and the other color-j key
    each reads is fixed too (read through f_i and inverse[i]). So a slot
    resolves its checks into the list of its triples, each with that
    other key, and resolves them again only when a key of a lower color
    has changed since (a change counter per color below j against a stamp
    per slot); a slot with no checks (every color-1 slot) has none. The
    search is one flat loop: a node gives up its slot's value, takes the
    next free one and calls _route_triple on each triple of its slot's
    list whose other key is set, calling no other Python function. A
    color-j key is set exactly when its slot is at or before the current
    one, so each triple is evaluated at the later of its two slots. The
    one derived table, inverse[i], is rebuilt only when a resolution
    reads it after a color-i key has changed. The loop is
    iterative, so the search depth is not bounded by the interpreter's
    recursion limit."""
    if g_lam.rank != g_om.rank:
        raise DimensionMismatch("graphs have different ranks")
    poly = polymorphism_from_matrix(g_lam, g_om, r)
    top = g_lam.rank
    flips: FlipFamily = {i: {} for i in range(1, top + 1)}
    # inverse[i]: (lam, g2) -> the g with f_i(lam, g)[0] = g2, or None
    # once a color-i key has changed since it was built
    inverse: dict[int, dict[tuple[str, str], list[str]] | None] = dict.fromkeys(flips)
    # one slot per flip key, in block order and then domain order; an
    # exhausted search has ruled out `families` complete families
    upper = g_lam.upper_squares
    slots = []
    families = 1
    for color, dom, cod in _flip_blocks(g_lam, g_om, poly):
        # block (i, a, b) has (A_{e_i} R)(a, b) keys and (R B_{e_i})(a, b) values
        if len(dom) != len(cod):
            raise NotIntertwining("A_{e_i} R != R B_{e_i} for some color")
        families *= factorial(len(cod))
        f, taken, higher = flips[color], [False] * len(cod), range(color + 1, top + 1)
        for key in dom:
            lam, gam = key
            slots.append((key, lam, gam, color, higher, f, cod, len(cod), taken, upper.get(lam, ())))
    route = _route_triple
    n = len(slots)
    choice = [-1] * n  # codomain index held by each slot, -1 for none
    # below[j] counts the changes to keys of the colors below j; triples[s]
    # holds the triples of slot s's key, each with the other color-j key
    # it reads, resolved when below[color] stood at stamp[s], and is
    # resolved again once it has moved
    below, stamp, triples = [0] * (top + 1), [-1] * n, [()] * n
    # slot s gives up its value and takes the next free one, written over
    # the old so that its key keeps its place in f; with none left it is
    # cleared and the search backs up to slot s - 1. A first visit always
    # finds one, since the block's earlier keys hold fewer values than it has
    s = 0
    while 0 <= s < n:
        key, lam, gam, color, higher, f, cod, end, taken, checks = slots[s]
        if higher:
            inverse[color] = None
            for h in higher:
                below[h] += 1
        idx = choice[s]
        if idx >= 0:
            taken[idx] = False
        idx += 1
        while idx < end and taken[idx]:
            idx += 1
        if idx == end:
            choice[s] = -1
            del f[key]
            s -= 1
            continue
        choice[s] = idx
        taken[idx] = True
        f[key] = cod[idx]
        if stamp[s] != below[color]:
            # the triples (i < color) that key takes part in, each with the
            # other color-j key it reads, fixed while the lower colors are:
            # as (lam_j, g) its other key is (lam_j2, f_i(lam_i2, gam)[0]);
            # as (lam_j2, f_i(lam_i2, g)[0]) its other keys are (lam_j, g)
            # for the g that inverse[i] gives, key itself excepted (it is a
            # first entry then)
            stamp[s], resolved = below[color], []
            for i, second, lam_i, lam_x, lam_i2 in checks:
                pair = (lam_i2, gam)
                if not second:
                    resolved.append(((lam_x, flips[i][pair][0]), i, lam_i, lam, gam))
                    continue
                inv = inverse[i]
                if inv is None:
                    inv = inverse[i] = {}
                    for (lam2, g), (g2, _) in flips[i].items():
                        inv.setdefault((lam2, g2), []).append(g)
                for g in inv.get(pair, ()):
                    if g != gam or lam_x != lam:
                        resolved.append(((lam_x, g), i, lam_i, lam_x, g))
            triples[s] = resolved
        # a triple is decidable once its other key is set too, which it
        # is exactly when that key's slot is at or before s: so each
        # triple is evaluated at the later of its two slots
        for other, i, lam_i, lam_j, g in triples[s]:
            if other in f:
                t, b = route(g_lam, g_om, flips, i, color, lam_i, lam_j, g)
                if t != b:
                    break
        else:
            s += 1
    if s < 0:
        return Exhausted(families)
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
    from .paths import make_path, path_source, vertex_path

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
    from .paths import make_path, vertex_path

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


# ------------------------------------------------------- command-line text

def _unique_keys(pairs: list) -> dict:
    # a JSON object that repeats a key would silently keep only its last value
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise CLIUsage("bad flips JSON: an object repeats a key")
    return doc


def parse_flips(text: str) -> FlipFamily:
    """The --flips table, JSON {color: [[[lam, g], [g2, om]], ...]} inline
    or in a file; a color or a [lam, g] given twice is a usage error, not
    a silent overwrite."""
    if os.path.isfile(text):
        from .textform import read_text

        text = read_text(text)
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except CLIUsage:
        raise
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, an integer over the digit limit, or nesting too deep
        raise CLIUsage(f"bad flips JSON: {e}")
    if not isinstance(doc, dict):
        raise CLIUsage("bad flips JSON: expected an object keyed by color")
    colors = []
    for color in doc:
        try:
            colors.append(int(color))
        except ValueError:
            # a long key, such as one past int's digit limit, is echoed in part
            shown = color if len(color) <= 40 else color[:40] + "..."
            raise CLIUsage(f"bad flips JSON: color {shown!r} is not an integer") from None
    try:
        tables = [
            (color, [((lam, g), (g2, om)) for (lam, g), (g2, om) in table])
            for color, table in zip(colors, doc.values())
        ]
        flips = {color: dict(entries) for color, entries in tables}
    except (TypeError, ValueError):
        raise CLIUsage("bad flips JSON: each entry must be [[lam, g], [g2, om]]")
    if len(flips) != len(tables):
        raise CLIUsage("bad flips JSON: some color is given twice")
    for color, entries in tables:
        if len(flips[color]) != len(entries):
            raise CLIUsage(f"bad flips JSON: color {color} gives some [lam, g] twice")
    for table in flips.values():
        for key, value in table.items():
            if not all(isinstance(e, str) for e in key + value):
                raise CLIUsage("bad flips JSON: edge ids must be strings")
    return flips


def flips_doc(flips: FlipFamily) -> dict:
    return {
        str(i): [[list(dom), list(cod)] for dom, cod in sorted(table.items())]
        for i, table in sorted(flips.items())
    }


def bridge_search_doc(g_lam: KGraph, g_om: KGraph, r: Matrix, flips: str | None) -> tuple[dict, str]:
    """What `kgraph bridge-search` reports, as a JSON document and as text:
    the coherence check of the flip table `flips` (parse_flips syntax) over
    r, or without one the first family bridging_search finds."""
    if flips is not None:
        ok, witness = coherence_check(g_lam, g_om, BridgingPair(r, parse_flips(flips)))
        if ok:
            return {"coherent": True}, "coherent"
        doc = {
            "coherent": False,
            "witness": {
                "colors": [witness.i, witness.j],
                "lam_i": witness.lam_i,
                "lam_j": witness.lam_j,
                "g": witness.g,
                "top": list(witness.top),
                "bottom": list(witness.bottom),
            },
        }
        text = (
            f"incoherent at (i={witness.i}, j={witness.j}, lam_i={witness.lam_i}, "
            f"lam_j={witness.lam_j}, g={witness.g}): "
            f"top {witness.top} != bottom {witness.bottom}"
        )
        return doc, text
    found = bridging_search(g_lam, g_om, r)
    if isinstance(found, Exhausted):
        return {"found": False, "examined": found.count}, f"exhausted {found.count}"
    lines = ["R: " + matrix_str(r)]
    for i, table in sorted(found.flips.items()):
        for (lam, g), (g2, om) in sorted(table.items()):
            lines.append(f"f{i}: ({lam}, {g}) -> ({g2}, {om})")
    return {"found": True, "matrix": r, "flips": flips_doc(found.flips)}, "\n".join(lines)
