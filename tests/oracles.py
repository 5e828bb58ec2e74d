"""Helpers the test modules share: graph builders, hypothesis strategies,
catalog tables and, in the last section, the references the tests compare
against. pytest does not collect this module, and no test module imports
another. Each reference's docstring opens with "Independent" or with
"Previous version of <name>" (see the Tests section of README.md).
"""

import math
import random
from functools import cache
from itertools import product

from hypothesis import strategies as st

from kgraphs.bridging import BridgingPair, _flip_blocks, polymorphism_from_matrix
from kgraphs.constructions import FIXTURE_NAMES, fixture, grid, monoid_hom, pullback, rose
from kgraphs.core import (
    KGRAPH_MAX_RANK, CubeFailure, Edge, EndpointMismatch, KGraphError, MissingSquare, NonBijectiveSquares, Skeleton,
    SourceVertex, deg_sub, validate_kgraph,
)
from kgraphs.dimension import DimElement, zero_element
from kgraphs.homology import AbelianInvariants
from kgraphs.intmat import identity, snf_diagonal
from kgraphs.moves import enumerate_valid_partitions, insplit, insplit_matrices
from kgraphs.paths import Path

# ------------------------------------------------------------ graph builders

def one_graph(tag, a):
    # vertices tag0.., one edge per unit of a[r][c], from vertex c to vertex r
    vertices = tuple(f"{tag}{i}" for i in range(len(a)))
    edges = tuple(
        Edge(f"{tag}[{r},{c}]{t}", 1, vertices[c], vertices[r])
        for r, row in enumerate(a)
        for c, count in enumerate(row)
        for t in range(count)
    )
    return vertices, edges


def product_graph(a, b):
    """The cartesian product of the 1-graphs of a and b: color 1 moves in
    the first coordinate, color 2 in the second, and each pair of edges
    commutes in exactly one square."""
    vs1, e1 = one_graph("x", a)
    vs2, e2 = one_graph("y", b)
    vertices = tuple(f"{v}|{w}" for v in vs1 for w in vs2)
    edges = [Edge(f"{e.id}|{w}", 1, f"{e.src}|{w}", f"{e.rng}|{w}") for e in e1 for w in vs2]
    edges += [Edge(f"{v}|{f.id}", 2, f"{v}|{f.src}", f"{v}|{f.rng}") for v in vs1 for f in e2]
    squares = {
        (f"{e.id}|{f.rng}", f"{e.src}|{f.id}"): (f"{e.rng}|{f.id}", f"{e.id}|{f.src}")
        for e in e1
        for f in e2
    }
    return validate_kgraph(Skeleton(2, vertices, tuple(edges)), squares)


def complete_product():
    # the strict product of two complete 8-vertex 1-graphs: 64 vertices
    # and, over R = I, 1024 flip blocks of one key each
    ones = [[1] * 8 for _ in range(8)]
    return product_graph(ones, ones)


def cycle_plus_permutation(rng, n):
    # every vertex receives and emits two edges: t+1 -> t and p(t) -> t
    p = list(range(n))
    rng.shuffle(p)
    return [[(c == (r + 1) % n) + (c == p[r]) for c in range(n)] for r in range(n)]


def random_2graph(rng, tag, a1, a2):
    """A 2-graph with the given commuting vertex matrices and uniformly
    random factorization squares (the cube condition is vacuous at k=2)."""
    n = len(a1)
    vertices = tuple(f"{tag}{t}" for t in range(n))
    edges = []
    for color, mat in ((1, a1), (2, a2)):
        for r in range(n):
            for c in range(n):
                for t in range(mat[r][c]):
                    edges.append(
                        Edge(f"{tag}c{color}[{r},{c}]{t}", color, vertices[c], vertices[r])
                    )
    buckets_dom = {}
    buckets_cod = {}
    for g in edges:
        for h in edges:
            if g.color == 1 and h.color == 2 and g.src == h.rng:
                buckets_dom.setdefault((g.rng, h.src), []).append((g.id, h.id))
            if g.color == 2 and h.color == 1 and g.src == h.rng:
                buckets_cod.setdefault((g.rng, h.src), []).append((g.id, h.id))
    squares = {}
    for key, dom in buckets_dom.items():
        cod = buckets_cod[key][:]
        rng.shuffle(cod)
        squares.update(zip(dom, cod))
    return validate_kgraph(Skeleton(2, vertices, tuple(edges)), squares, strict=False)


def with_prefixed(g, h, prefix):
    """The disjoint union of g and h, h's vertex and edge ids prefixed."""
    def edges(k, tag):
        return tuple(Edge(tag + e.id, e.color, tag + e.src, tag + e.rng) for e in k.edges)

    def squares(k, tag):
        return {tuple(tag + i for i in key): tuple(tag + i for i in val) for key, val in k.squares.items()}

    skeleton = Skeleton(
        g.rank, g.vertices + tuple(prefix + v for v in h.vertices), edges(g, "") + edges(h, prefix)
    )
    return validate_kgraph(skeleton, {**g.squares, **squares(h, prefix)})


# n for insplit_pair: pairs of 3/4, 7/8, 12/13 and 67/68 vertices
INSPLIT_PAIR_SIZES = (0, 2, 3, 8)


def insplit_pair(n):
    """(G, split, R, S): G is ex3.5-Lambda, alone for n = 0, else beside the
    product of two n-vertex cycle_plus_permutation factors (seeded by n)
    with ex3.5's ids prefixed "L."; split is G in-split at ex3.5's v by
    the first enumerated partition, and (R, S) = insplit_matrices(G, p, 1),
    so R S = A_{e_1}, S R = B_{e_1}, and R and S intertwine G and split."""
    g, v = fixture("ex3.5-Lambda"), "v"
    if n:
        rng = random.Random(n)
        product = product_graph(cycle_plus_permutation(rng, n), cycle_plus_permutation(rng, n))
        g, v = with_prefixed(product, g, "L."), "L.v"
    p = enumerate_valid_partitions(g, v)[0]
    r, s = insplit_matrices(g, p, 1)
    return g, insplit(g, p)[0], r, s


def nilpotent_chain():
    # P = a1 (a1 + 1), a1 a shift on three vertices: e0 P^2 = e2, e0 P^3 = 0
    a1 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    a2 = [[a1[r][c] + (r == c) for c in range(3)] for r in range(3)]
    return random_2graph(random.Random(0), "p", a1, a2)


def no_sources(g):
    # every vertex receives an edge of every color
    return all(map(all, g.in_sources))


# ---------------------------------------------------------------- strategies

def square_matrices(n, row_min=0, entries=st.integers(0, 2)):
    # n x n, each row summing to at least row_min
    row = st.lists(entries, min_size=n, max_size=n).filter(lambda r: sum(r) >= row_min)
    return st.lists(row, min_size=n, max_size=n)


@st.composite
def random_2graphs(draw):
    """A random 2-graph on 1-3 vertices, sources allowed."""
    n = draw(st.integers(1, 3))
    a1 = draw(square_matrices(n))
    c0, c1 = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    # a2 is a polynomial in a1, so the two matrices commute
    a2 = [[c0 * (r == c) + c1 * a1[r][c] + (r == c) for c in range(n)] for r in range(n)]
    return random_2graph(random.Random(draw(st.integers(0, 2**32))), "p", a1, a2)


@st.composite
def graphs(draw):
    """A random 2-graph on 1-3 vertices (sources allowed) or a strict
    product of two 1-graphs on 1-3 vertices each."""
    if draw(st.booleans()):
        return draw(random_2graphs())
    a = draw(square_matrices(draw(st.integers(1, 3)), 1))
    b = draw(square_matrices(draw(st.integers(1, 3)), 1))
    return product_graph(a, b)


@st.composite
def ranked_graphs(draw):
    """A graph of rank 1, 2 or 3 on 1-4 vertices, sources allowed: the
    1-graph of a random matrix, a random 2-graph, or the pullback of one
    along N^3 -> N^2 (an image (0, 0) gives a loop at every vertex)."""
    rank = draw(st.integers(1, 3))
    if rank == 1:
        a = draw(square_matrices(draw(st.integers(1, 4))))
        return validate_kgraph(Skeleton(1, *one_graph("x", a)), {}, strict=False)
    g = draw(random_2graphs())
    if rank == 2:
        return g
    images = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=3, max_size=3))
    return pullback(g, monoid_hom(images, 2))


def small_elements(g):
    return st.builds(
        DimElement,
        st.tuples(*[st.integers(-3, 3)] * len(g.vertices)),
        st.tuples(*[st.integers(-2, 3)] * g.rank),
    )


@st.composite
def intertwiner_cases(draw):
    """Two random 2-graphs and a matrix R: over one pair of commuting
    matrices with R = I or R = a1 (both intertwine), or over two
    independent pairs with a random small R (mostly not)."""
    seed = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 3))
    a1 = draw(square_matrices(n))
    a2 = [[a1[r][c] + (r == c) for c in range(n)] for r in range(n)]
    g_left = random_2graph(seed, "p", a1, a2)
    kind = draw(st.sampled_from(["identity", "a1", "random"]))
    if kind == "random":
        m = draw(st.integers(1, 3))
        b1, shift = draw(square_matrices(m)), draw(st.integers(0, 1))
        b2 = [[b1[r][c] + shift * (r == c) for c in range(m)] for r in range(m)]
        rectangles = st.lists(st.lists(st.integers(0, 2), min_size=m, max_size=m), min_size=n, max_size=n)
        return g_left, random_2graph(seed, "q", b1, b2), draw(rectangles)
    g_right = random_2graph(seed, "q", a1, a2)
    return g_left, g_right, identity(n) if kind == "identity" else a1


# -------------------------------------------------------------------- tables

DEEP_SHIFTS = [
    ("ex3.5-LambdaS", ("u", (0, 0)), ("u", (0, 5000)), True),
    ("ex3.5-Lambda", ("u", (-3000, 0)), ("u", (0, 0)), False),
]

STABLE_INDEX_GRAPHS = {name: lambda name=name: fixture(name) for name in FIXTURE_NAMES} | {
    "rose2": lambda: rose(2),
    "grid2": lambda: grid(2, (1, 2)),
    "grid3": lambda: grid(3, (1, 1, 1)),
}

# ------------------------------------------------- flip families (ex5.6, ex5.7)

G_W = "g1[u,w]"
G_V = "g1[u,v]"


def displayed_56_family() -> BridgingPair:
    flips = {
        1: {
            ("alpha1", G_W): (G_V, "f2"),
            ("alpha1", G_V): (G_W, "f3"),
            ("alpha2", G_W): (G_V, "f1"),
            ("alpha2", G_V): (G_W, "f4"),
        },
        2: {
            ("beta1", G_W): (G_V, "e3"),
            ("beta1", G_V): (G_W, "e2"),
            ("beta2", G_W): (G_V, "e4"),
            ("beta2", G_V): (G_W, "e1"),
        },
    }
    return BridgingPair([[1, 1]], flips)


def coherent_57_family() -> BridgingPair:
    flips = {
        1: {
            ("f1", G_W): (G_V, "alpha1"),
            ("f1", G_V): (G_W, "alpha3"),
            ("f2", G_W): (G_V, "alpha2"),
            ("f2", G_V): (G_W, "alpha4"),
        },
        2: {
            ("e", G_W): (G_W, "gamma1"),
            ("e", G_V): (G_V, "gamma2"),
        },
    }
    return BridgingPair([[1, 1]], flips)


def all_16_families():
    cod1 = {G_W: [(G_V, "f1"), (G_V, "f2")], G_V: [(G_W, "f3"), (G_W, "f4")]}
    cod2 = {G_W: [(G_V, "e3"), (G_V, "e4")], G_V: [(G_W, "e1"), (G_W, "e2")]}
    doms1 = {g: [("alpha1", g), ("alpha2", g)] for g in (G_W, G_V)}
    doms2 = {g: [("beta1", g), ("beta2", g)] for g in (G_W, G_V)}
    for s1, s2, s3, s4 in product((0, 1), repeat=4):
        flips = {1: {}, 2: {}}
        for g, swap, doms, cods in (
            (G_W, s1, doms1, cod1),
            (G_V, s2, doms1, cod1),
        ):
            order = cods[g][::-1] if swap else cods[g]
            flips[1].update(zip(doms[g], order))
        for g, swap in ((G_W, s3), (G_V, s4)):
            order = cod2[g][::-1] if swap else cod2[g]
            flips[2].update(zip(doms2[g], order))
        yield BridgingPair([[1, 1]], flips)


def random_family(rng, g_lam, g_om, r):
    poly = polymorphism_from_matrix(g_lam, g_om, r)
    flips = {i: {} for i in range(1, g_lam.rank + 1)}
    for i, dom, cod in _flip_blocks(g_lam, g_om, poly):
        rng.shuffle(cod)
        flips[i].update(zip(dom, cod))
    return BridgingPair(r, flips)


# ---------------------------------------------------------------- references

def mat_mul(a, b):
    """Independent: the dense matrix product."""
    if len(a[0] if a else ()) != len(b):
        raise ValueError(f"cannot multiply a {len(a)}-row matrix by a {len(b)}-row one")
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def vec_mat(x, a):
    """Independent: row vector times matrix, by the dense product."""
    return mat_mul([list(x)], a)[0]


def edge_matrix(g, color):
    """Independent: A_{e_color}, counted edge by edge from g.edges: entry
    (r(e), s(e)) gains one for every color-`color` edge e."""
    idx = g.vertex_index
    a = [[0] * len(g.vertices) for _ in g.vertices]
    for e in g.edges:
        if e.color == color:
            a[idx[e.rng]][idx[e.src]] += 1
    return a


def reference_sinks(g):
    """Independent: ({color i: the vertices that emit no color-i edge},
    {vertex: the colors it emits no edge of}), both in skeleton order, by
    scanning g.skeleton.edges."""
    emits = {(e.src, e.color) for e in g.skeleton.edges}
    colors = range(1, g.rank + 1)
    return (
        {i: [v for v in g.vertices if (v, i) not in emits] for i in colors},
        {v: [i for i in colors if (v, i) not in emits] for v in g.vertices},
    )


def reference_reachable(g, v):
    """Independent: v and every vertex a path from v reaches, by a
    breadth-first search over g.skeleton.edges: the vertices that
    sink_delete(g, v) removes."""
    seen = frontier = {v}
    while frontier:
        frontier = {e.rng for e in g.skeleton.edges if e.src in frontier} - seen
        seen = seen | frontier
    return seen


# (id(graph), degree) -> (graph, A_degree); holding the graph keeps its id
# from being reused while the entry lives. Emptied when full, since the
# property tests bring a new graph per example.
_DENSE_POWERS = {}
_DENSE_POWERS_MAX = 2000


def dense_matrix(g, n):
    """Independent: A_n as a dense product of one-step matrices, cached per
    graph and degree: A_n = A_{n - e_i} A_{e_i} for the last nonzero
    coordinate i, one mat_mul per degree on the way down to a cached one."""
    if len(_DENSE_POWERS) >= _DENSE_POWERS_MAX:
        _DENSE_POWERS.clear()
    n = tuple(n)
    todo = []
    while (id(g), n) not in _DENSE_POWERS and any(n):
        i = max(t for t, c in enumerate(n) if c)
        todo.append((n, i))
        n = n[:i] + (n[i] - 1,) + n[i + 1 :]
    a = _DENSE_POWERS[(id(g), n)][1] if any(n) else identity(len(g.vertices))
    steps = [edge_matrix(g, i) for i in range(1, g.rank + 1)] if todo else []
    for m, i in reversed(todo):
        a = mat_mul(a, steps[i])
        _DENSE_POWERS[(id(g), m)] = (g, a)
    return a


def dense_push(g, a, level):
    """Independent: the representative of a at level >= a.n, by dense powers."""
    return vec_mat(a.x, dense_matrix(g, tuple(l - c for l, c in zip(level, a.n))))


def edge_push(g, x, n):
    """Independent: x * A_n, walking the edge list once per unit of degree."""
    idx = g.vertex_index
    y = list(x)
    for color, times in enumerate(n, 1):
        for _ in range(times):
            z = [0] * len(y)
            for e in g.edges:
                if e.color == color:
                    z[idx[e.src]] += y[idx[e.rng]]
            y = z
    return y


def dense_dge_eq(g, a, b):
    """Independent: dge_eq by a search of all levels within 2*d of the join
    for a common representative; the kernel chain argument makes this range
    sufficient."""
    d = len(g.vertices)
    join = tuple(max(x, y) for x, y in zip(a.n, b.n))
    for off in product(range(2 * d + 1), repeat=g.rank):
        level = tuple(j + o for j, o in zip(join, off))
        if dense_push(g, a, level) == dense_push(g, b, level):
            return True
    return False


def kill_push_dge_eq(g, a, b):
    """Independent: dge_eq by the full kill test: push both to the join,
    then the difference by (d, ..., d), d the vertex count, which bounds the
    stable index."""
    join = tuple(max(x, y) for x, y in zip(a.n, b.n))
    xa = edge_push(g, a.x, tuple(j - c for j, c in zip(join, a.n)))
    xb = edge_push(g, b.x, tuple(j - c for j, c in zip(join, b.n)))
    z = [s - t for s, t in zip(xa, xb)]
    return not any(edge_push(g, z, (len(g.vertices),) * g.rank))


def dense_positivity(g, a, q_max):
    """Independent: positivity from the dense push to level q_max and dense_dge_eq."""
    pushed = dense_push(g, a, tuple(max(q_max, c) for c in a.n))
    if min(pushed) >= 0:
        return "positive"
    if max(pushed) <= 0 and not dense_dge_eq(g, a, zero_element(g, a.n)):
        return "not_positive"
    return "unknown"


def left_kernel(g):
    """Independent: integer vectors spanning {z : z P^d = 0}, d the vertex
    count, by sympy's nullspace of the dense power."""
    from sympy import Matrix

    d = len(g.vertices)
    basis = Matrix(dense_matrix(g, (d,) * g.rank)).T.nullspace()
    return [[int(x * math.lcm(*(y.q for y in v))) for x in v] for v in basis]


def product_h0(a, b):
    """Independent: h0 of product_graph(a, b) by the tensor formula. H0 =
    coker(1 - A_1^t, 1 - A_2^t) (Farsi-Kumjian-Pask-Sims 2019); on a
    product A_1 = a (x) 1 and A_2 = 1 (x) b, so by right exactness H0 is
    coker(1 - a^t) (x) coker(1 - b^t), and Z/s (x) Z/t = Z/gcd(s, t)."""

    def cyclic_orders(m):
        # coker(1 - m) as a list of cyclic orders, 0 for a copy of Z
        n = len(m)
        diag = snf_diagonal([[(r == c) - m[r][c] for c in range(n)] for r in range(n)])
        return [t for t in diag if t != 1]

    orders = [math.gcd(s, t) for s in cyclic_orders(a) for t in cyclic_orders(b)]
    n = len(orders)
    diag = snf_diagonal([[orders[r] if r == c else 0 for c in range(n)] for r in range(n)]) if n else []
    return AbelianInvariants(diag.count(0), tuple(t for t in diag if t > 1))


def reference_normalize(g, word, pick=None):
    """Independent: sort a word by swapping descending adjacent pairs; each
    swap removes one color inversion, and the cube condition makes the
    result independent of which descent `pick` chooses."""
    inv = {val: key for key, val in g.squares.items()}
    w = list(word)
    while True:
        descents = [t for t in range(len(w) - 1) if g.by_id[w[t]].color > g.by_id[w[t + 1]].color]
        if not descents:
            return tuple(w)
        t = descents[0] if pick is None else pick(descents)
        w[t], w[t + 1] = inv[(w[t], w[t + 1])]


def reference_factor(g, p, m):
    """Independent: peel m's edges off the front of p's normal form one at
    a time, each moved left past the smaller colors before it."""
    word, alpha = list(p.edges), []
    for color, times in enumerate(m, 1):
        for _ in range(times):
            t = next(t for t, eid in enumerate(word) if g.by_id[eid].color == color)
            while t > 0:
                word[t - 1], word[t] = g.squares[(word[t - 1], word[t])]
                t -= 1
            alpha.append(word.pop(0))
    beta_rng = g.by_id[alpha[-1]].src if alpha else p.rng
    return Path(p.rng, tuple(alpha)), Path(beta_rng, tuple(word))


def reference_segment(g, p, m, n):
    """Independent: the segment (m, n) of p by two reference_factor peels."""
    _, rest = reference_factor(g, p, m)
    return reference_factor(g, rest, deg_sub(n, m))[0]


def reference_paths_of_degree(g, v, n):
    """Independent: the paths of degree n with range v, by recursion on colors."""
    results, word = [], []

    def rec(cur, remaining, min_color):
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


def _row_search(n: int, options, accept):
    """Previous version of sse._row_search: every n-row matrix whose row t
    is drawn from options(t) and passes accept(rows, t), as a list of rows,
    in lexicographic order of the rows. accept sees rows 0..t set, and a
    prefix it rejects is not extended."""
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


def reference_lag_0(g_left, g_right, entry_max):
    """Previous version of sse_search's lag-0 search: R filled from the
    unit rows in lexicographic order (columns from the last index down),
    one row at a time by _row_search, a row rejected when its column is
    already used or when an equation row of A_{e_i} R = R B_{e_i} that it
    completes fails, both sides by dense products; R as a list of rows, or
    None."""
    dl = len(g_left.vertices)
    # none when R must be 0
    units = [tuple(int(c == w) for c in range(dl)) for w in range(dl - 1, -1, -1)] if entry_max else []
    # equation row (i, v) reads R's rows v and s with A_i(v, s) != 0, and
    # the last of them completes it
    due = [[] for _ in range(dl)]
    b = [edge_matrix(g_right, i) for i in range(1, g_right.rank + 1)]
    for i in range(g_left.rank):
        for v, a_v in enumerate(edge_matrix(g_left, i + 1)):
            srcs = [s for s, x in enumerate(a_v) if x]
            due[max(v, *srcs)].append((i, v, (*(a_v[s] for s in srcs), 0), srcs))
    # both sides by dense products, each kept per distinct operands: row v
    # of A_i R is A_i's row v at srcs, padded by a 0, times those rows of
    # R, padded by a zero row; row v of R B_i is R's row v times B_i
    zero = (0,) * dl
    left, right = cache(vec_mat), cache(lambda x, i: vec_mat(x, b[i]))

    def fresh_column(rows, t):
        return rows[t] not in rows[:t] and all(
            left(a_v, (*map(rows.__getitem__, srcs), zero)) == right(rows[v], i) for i, v, a_v, srcs in due[t]
        )

    r = next(_row_search(dl, lambda t: units, fresh_column), None)
    return None if r is None else [list(row) for row in r]


def reference_violations(skeleton, squares, strict):
    """Previous version of core._violations, with the structural checks of
    the KGraph constructor before it: KGraphError for the first malformed
    rank, flag, vertex, edge or square, else every violated axiom in a
    deterministic order, each found by walking the composable pairs, the
    squares and the cubes one at a time."""
    k = skeleton.rank
    if not isinstance(k, int) or isinstance(k, bool):
        raise KGraphError(f"rank {k!r} is not an int")
    if not 1 <= k <= KGRAPH_MAX_RANK:
        raise KGraphError(f"rank must be in 1..{KGRAPH_MAX_RANK}")
    if not isinstance(strict, bool):
        raise KGraphError(f"strict must be a bool, not {strict!r}")
    for v in skeleton.vertices:
        if not isinstance(v, str):
            raise KGraphError(f"vertex id {v!r} is not a string")
    index = {v: i for i, v in enumerate(skeleton.vertices)}
    if len(index) != len(skeleton.vertices):
        raise KGraphError("duplicate vertex ids")
    by_id = {}
    in_edges = {v: {i: [] for i in range(1, k + 1)} for v in skeleton.vertices}
    for e in skeleton.edges:
        if not isinstance(e, Edge):
            raise KGraphError(f"edge {e!r} is not an Edge")
        if not isinstance(e.id, str):
            raise KGraphError(f"edge id {e.id!r} is not a string")
        if e.id in by_id:
            raise KGraphError(f"duplicate edge id {e.id!r}")
        by_id[e.id] = e
        if not isinstance(e.color, int) or isinstance(e.color, bool):
            raise KGraphError(f"edge {e.id!r} has color {e.color!r}, not an int")
        if not 1 <= e.color <= k:
            raise KGraphError(f"edge {e.id!r} has color {e.color} outside 1..{k}")
        if not isinstance(e.src, str) or not isinstance(e.rng, str):
            raise KGraphError(f"edge {e.id!r} has src {e.src!r} and rng {e.rng!r}, not two strings")
        if e.src not in index or e.rng not in index:
            raise KGraphError(f"edge {e.id!r} references unknown vertex")
        in_edges[e.rng][e.color].append(e)
    if not index.keys().isdisjoint(by_id):
        raise KGraphError("vertex and edge ids must be disjoint")
    for key, val in squares.items():
        for side in (key, val):
            if not isinstance(side, tuple) or len(side) != 2:
                raise KGraphError(f"square side {side!r} is not a pair of edge ids")
        for eid in (*key, *val):
            if not isinstance(eid, str):
                raise KGraphError(f"square edge id {eid!r} is not a string")
            if eid not in by_id:
                raise KGraphError(f"square references unknown edge id {eid!r}")

    violations = []
    of_color = {i: [] for i in range(1, k + 1)}
    for e in skeleton.edges:
        of_color[e.color].append(e)

    # totality: one entry per composable color-ascending pair
    for e in skeleton.edges:
        for h_color in range(e.color + 1, k + 1):
            for h in in_edges[e.src][h_color]:
                if (e.id, h.id) not in squares:
                    violations.append(MissingSquare(e.id, h.id))

    # key/value well-formedness and endpoint preservation; the entries are
    # grouped by key color pair for the bijectivity check below
    by_colors = {}
    for key, val in squares.items():
        (gid, hid), (h2id, g2id) = key, val
        e, h, h2, e2 = by_id[gid], by_id[hid], by_id[h2id], by_id[g2id]
        by_colors.setdefault((e.color, h.color), []).append((key, val))
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
        violations.append(EndpointMismatch((gid, hid), (h2id, g2id), detail))

    # bijectivity per color pair (i, j): images must exactly cover the
    # composable descending pairs
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            images = {}
            for key, val in by_colors.get((i, j), ()):
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
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for l in range(j + 1, k + 1):
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
                                violations.append(
                                    CubeFailure((i, j, l), (a.id, b.id, c.id), route_a, route_b)
                                )

    if strict:
        for v in skeleton.vertices:
            for i in range(1, k + 1):
                if not in_edges[v][i]:
                    violations.append(SourceVertex(v, i))

    return violations


def reference_upper_squares(g):
    """Independent: KGraph.upper_squares by a scan of the whole square
    table for each edge e, each lower color i and each kind: the squares
    lam_i lam_j = lam_j2 lam_i2 with lam_i of color i and e as lam_j
    (other = lam_j2), then those with e as lam_j2 (other = lam_j), each in
    table order, as (i, second, lam_i, other, lam_i2); an edge with none
    is left out."""
    upper = {}
    for e in g.edges:
        entries = []
        for i in range(1, e.color):
            for second in (False, True):
                for (lam_i, lam_j), (lam_j2, lam_i2) in g.squares.items():
                    if g.by_id[lam_i].color == i and (lam_j2 if second else lam_j) == e.id:
                        entries.append((i, second, lam_i, lam_j if second else lam_j2, lam_i2))
        if entries:
            upper[e.id] = tuple(entries)
    return upper
