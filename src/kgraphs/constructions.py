"""Standard constructions: grids, roses, pullbacks along monoid maps,
skew-product windows, and the bundled fixture catalog."""

from __future__ import annotations

import math
import re
from importlib import resources
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .core import (
    Degree,
    Edge,
    KGraph,
    KGraphError,
    Shift,
    Skeleton,
    SquarePair,
    deg_add,
    deg_total,
    push,
    unit_degree,
    validate_kgraph,
)
if TYPE_CHECKING:
    from .paths import Path


class UnknownFixture(KGraphError, KeyError):
    pass


class EmptyWindow(KGraphError):
    pass


# -------------------------------------------------------------- monoid maps

class MonoidHom(NamedTuple):
    """A monoid map N^source_rank -> N^target_rank given by the images of
    the basis degrees; images[a-1] is the image of color a's degree."""

    source_rank: int
    target_rank: int
    images: tuple[Degree, ...]


def monoid_hom(images: list[Degree] | tuple[Degree, ...], target_rank: int) -> MonoidHom:
    images = tuple(tuple(img) for img in images)
    for img in images:
        if len(img) != target_rank or any(c < 0 for c in img):
            raise KGraphError(f"image {img} is not a degree of rank {target_rank}")
    return MonoidHom(len(images), target_rank, images)


def hom_apply(f: MonoidHom, n: Shift) -> Shift:
    if len(n) != f.source_rank:
        raise KGraphError(f"expected a length-{f.source_rank} tuple")
    out = [0] * f.target_rank
    for c, img in zip(n, f.images):
        for t in range(f.target_rank):
            out[t] += c * img[t]
    return tuple(out)


def hom_surjective(f: MonoidHom) -> bool:
    # An N-combination summing to a basis degree must use an image equal to
    # it (all other nonzero images would add foreign coordinates), so the
    # images generate N^k exactly when every basis degree occurs verbatim.
    return all(
        unit_degree(f.target_rank, i) in f.images for i in range(1, f.target_rank + 1)
    )


# --------------------------------------------------------------------- grid

def _tuple_id(q: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, q)) + ")"


def grid(k: int, n: Degree) -> KGraph:
    """The grid on all q <= n: one color-i edge from q down to q - e_i.
    Vertices with q_i = n_i have no color-i in-edges, so the result is
    validated non-strict."""
    if k < 1 or len(n) != k or any(c < 0 for c in n):
        raise KGraphError(f"need rank k >= 1 and a length-{k} degree over N")
    verts = list(product(*(range(c + 1) for c in n)))
    vertices = tuple(_tuple_id(q) for q in verts)

    def eid(color: int, q: tuple[int, ...]) -> str:
        return f"e{color}{_tuple_id(q)}"

    edges = []
    for q in verts:
        for i in range(1, k + 1):
            if q[i - 1] >= 1:
                down = tuple(c - (1 if t == i - 1 else 0) for t, c in enumerate(q))
                edges.append(Edge(eid(i, q), i, _tuple_id(q), _tuple_id(down)))

    squares: dict[SquarePair, SquarePair] = {}
    for q in verts:
        for i in range(1, k + 1):
            if q[i - 1] < 1:
                continue
            for j in range(i + 1, k + 1):
                up_j = tuple(c + (1 if t == j - 1 else 0) for t, c in enumerate(q))
                if up_j[j - 1] > n[j - 1]:
                    continue
                down_i = tuple(c - (1 if t == i - 1 else 0) for t, c in enumerate(q))
                up_j_down_i = tuple(
                    c + (1 if t == j - 1 else 0) - (1 if t == i - 1 else 0)
                    for t, c in enumerate(q)
                )
                squares[(eid(i, q), eid(j, up_j))] = (eid(j, up_j_down_i), eid(i, up_j))
    return validate_kgraph(Skeleton(k, vertices, tuple(edges)), squares, strict=False)


# --------------------------------------------------------------------- rose

def rose(n: int) -> KGraph:
    """The 1-graph with a single vertex u and loops c1..cn."""
    if n < 1:
        raise KGraphError("rose needs at least one loop")
    edges = tuple(Edge(f"c{t}", 1, "u", "u") for t in range(1, n + 1))
    return validate_kgraph(Skeleton(1, ("u",), edges), {}, strict=True)


# ----------------------------------------------------------------- pullback

# largest total degree of an image: a pullback edge id spells out a
# g-path of its image degree, and each square rewrites the word of two
# such paths by square swaps, quadratic in its length
PULLBACK_MAX_DEGREE = 64
# largest number of edges plus squares of a pullback: room for
# ex4.7-n<EX47_MAX_N>, which has 2N + 1 of them
PULLBACK_MAX_PATHS = 200_001


def _pullback_size(g: KGraph, f: MonoidHom) -> int:
    # a color-a edge per g-path of degree f(e_a) and, for a < b, a square
    # per g-path of degree f(e_a) + f(e_b); |paths of degree n| is the
    # sum of the entries of 1 * A_n
    ones = [1] * len(g.vertices)
    degrees = list(f.images) + [
        deg_add(f.images[a], f.images[b])
        for a in range(f.source_rank)
        for b in range(a + 1, f.source_rank)
    ]
    return sum(sum(push(g, ones, n)) for n in degrees)


def pullback(g: KGraph, f: MonoidHom) -> KGraph:
    """The pullback along f: same vertices; a color-a edge is a g-path of
    degree f(e_a) (a vertex loop when f(e_a) = 0); squares come from the
    unique factorization of the composite. Images of total degree over
    PULLBACK_MAX_DEGREE and pullbacks of more than PULLBACK_MAX_PATHS
    edges plus squares raise KGraphError before any path is built."""
    if f.target_rank != g.rank:
        raise KGraphError(f"hom targets rank {f.target_rank} but the graph has rank {g.rank}")
    if any(deg_total(img) > PULLBACK_MAX_DEGREE for img in f.images):
        raise KGraphError(f"image degrees are capped at total {PULLBACK_MAX_DEGREE}")
    size = _pullback_size(g, f)
    if size > PULLBACK_MAX_PATHS:
        raise KGraphError(
            f"pullback would have {size} edges and squares, over the cap of {PULLBACK_MAX_PATHS}"
        )
    from .paths import factor_word, path_source, paths_of_degree

    l = f.source_rank

    def eid(color: int, v: str, word: tuple[str, ...]) -> str:
        # a path is labeled by its edge word, or by its vertex v if empty
        return f"c{color}[{'.'.join(word) if word else v}]"

    edges = []
    path_of: dict[str, Path] = {}
    by_rng: dict[tuple[int, str], list[tuple[Edge, Path]]] = {}
    for a in range(1, l + 1):
        deg = f.images[a - 1]
        for v in g.vertices:
            for p in paths_of_degree(g, v, deg):
                e = Edge(eid(a, v, p.edges), a, path_source(g, p), v)
                edges.append(e)
                path_of[e.id] = p
                by_rng.setdefault((a, v), []).append((e, p))

    squares: dict[SquarePair, SquarePair] = {}
    for a in range(1, l + 1):
        for b in range(a + 1, l + 1):
            deg_b = f.images[b - 1]
            for e1 in edges:
                if e1.color != a:
                    continue
                lam = path_of[e1.id]
                for e2, mu in by_rng.get((b, e1.src), ()):
                    # lam . mu = mu2 . lam2; an empty lam2 sits at s(mu)
                    mu2, lam2 = factor_word(g, lam.edges + mu.edges, deg_b)
                    squares[(e1.id, e2.id)] = (eid(b, e1.rng, mu2), eid(a, e2.src, lam2))
    return validate_kgraph(Skeleton(l, g.vertices, tuple(edges)), squares, strict=g.strict)


# -------------------------------------------------------- skew-product window

# largest number of positions of a window; each holds a copy of every
# vertex, edge and square
SKEW_WINDOW_MAX_POSITIONS = 4096


def skew_product_window(g: KGraph, lo: Shift, hi: Shift) -> KGraph:
    """The part of the degree-skew product over positions lo <= m <= hi:
    vertex (v, m); edge (e, m) from (s(e), m + d(e)) to (r(e), m) whenever
    both positions sit in the window. Windows have sources, so the result
    is validated non-strict. A window of more than
    SKEW_WINDOW_MAX_POSITIONS positions raises KGraphError."""
    k = g.rank
    if len(lo) != k or len(hi) != k:
        raise KGraphError(f"window bounds must be length-{k} tuples")
    if not all(a <= b for a, b in zip(lo, hi)):
        raise EmptyWindow(f"empty window {lo}..{hi}")
    count = math.prod(b - a + 1 for a, b in zip(lo, hi))
    if count > SKEW_WINDOW_MAX_POSITIONS:
        raise KGraphError(
            f"window has {count} positions, over the cap of {SKEW_WINDOW_MAX_POSITIONS}"
        )
    positions = list(product(*(range(a, b + 1) for a, b in zip(lo, hi))))
    in_window = set(positions)

    def vid(v: str, m: tuple[int, ...]) -> str:
        return f"{v}@{_tuple_id(m)}"

    def eid(e: str, m: tuple[int, ...]) -> str:
        return f"{e}@{_tuple_id(m)}"

    def bump(m: tuple[int, ...], color: int) -> tuple[int, ...]:
        return tuple(c + (1 if t == color - 1 else 0) for t, c in enumerate(m))

    vertices = tuple(vid(v, m) for m in positions for v in g.vertices)
    edges = []
    for m in positions:
        for e in g.edges:
            if bump(m, e.color) in in_window:
                edges.append(Edge(eid(e.id, m), e.color, vid(e.src, bump(m, e.color)), vid(e.rng, m)))

    squares: dict[SquarePair, SquarePair] = {}
    for m in positions:
        for (gid, hid), (h2id, g2id) in g.squares.items():
            i = g.by_id[gid].color
            j = g.by_id[hid].color
            if bump(bump(m, i), j) not in in_window:
                continue
            squares[(eid(gid, m), eid(hid, bump(m, i)))] = (eid(h2id, m), eid(g2id, bump(m, j)))
    return validate_kgraph(Skeleton(k, vertices, tuple(edges)), squares, strict=False)


# ----------------------------------------------------------------- fixtures

FIXTURE_NAMES = (
    "ex3.5-Lambda",
    "ex3.5-LambdaI",
    "ex3.5-LambdaS",
    "sec3-Sigma",
    "sec3-Lambda",
    "sec3-Gamma",
    "ex5.6-Lambda",
    "ex5.6-Omega",
    "ex5.7-Lambda",
    "ex5.7-Omega",
    "ex7.1-Lambda1",
    "ex7.1-Lambda2",
)

# largest N of the parametric ex4.7-n<N>: the graph has N squares and
# N + 1 edges, so a name with a huge N would exhaust memory
EX47_MAX_N = 100_000

_fixture_cache: dict[str, KGraph] = {}


def fixture(name: str) -> KGraph:
    """A bundled catalog graph by its catalog id.

    All catalog graphs are 2-graphs with color 1 drawn blue (solid) and
    color 2 red (dashed) in their sources. Labeling choices that the
    catalog leaves free: sec3-Sigma uses b1/b2 (blue) and r1/r2 (red) for
    its two 2-cycles with b1, r1 running u -> w; sec3-Gamma uses f1: u -> v,
    f2: v -> u and red loops ru, rv; all other edge ids follow the original
    labels ascii-ized (e.g. alpha1, beta2, e', h1^1 for an in-split
    offspring). Square tables are pinned by the listed factorization rules,
    which leave no freedom once the labels are fixed.

    Besides the stored catalog, the parametric ids "ex4.7-n2", "ex4.7-n3",
    ... name the rank-2 roses pullback(rose(n), (a, b) -> a), for n up
    to EX47_MAX_N.
    """
    m = re.fullmatch(r"ex4\.7-n0*(\d+)", name)
    # compare lengths first: int() refuses strings of over 4300 digits
    if m and (len(m.group(1)) > len(str(EX47_MAX_N)) or int(m.group(1)) > EX47_MAX_N):
        raise KGraphError(f"{name}: N is capped at {EX47_MAX_N}")
    if m and int(m.group(1)) >= 2:
        if name not in _fixture_cache:
            _fixture_cache[name] = pullback(rose(int(m.group(1))), monoid_hom([(1,), (0,)], 1))
        return _fixture_cache[name]
    if name not in FIXTURE_NAMES:
        raise UnknownFixture(name)
    if name not in _fixture_cache:
        from .textform import parse_kgraph

        text = resources.files("kgraphs").joinpath(f"fixtures/{name}.json").read_text("utf-8")
        _fixture_cache[name] = parse_kgraph(text)
    return _fixture_cache[name]
