"""Graded dimension group: equality decision against a brute-force oracle,
generator maps for the moves, intertwiners and SSE search."""

import random
import time
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_bridging import complete_product, random_2graph
from test_homology import _cycle_plus_permutation, _product
from test_intmat import mat_mul

import kgraphs.dimension as dimension
from kgraphs.constructions import FIXTURE_NAMES, fixture, grid, rose
from kgraphs.core import KGraphError, Skeleton, push, unit_degree, validate_kgraph, vertex_matrix
from kgraphs.dimension import (
    SHIFT_MAX_DEGREE,
    DimElement,
    DimensionMismatch,
    ExhaustedBounds,
    RankMismatch,
    SSEWitness,
    apply_generator_map,
    dge_add,
    dge_eq,
    dge_scale,
    dge_shift,
    dim_element,
    generator_map,
    generator_map_from_matrix,
    hom_check,
    identity_generator_map,
    intertwiner_check,
    iso_check,
    pointed_check,
    positivity,
    rank_invariant,
    sse_search,
    unit_element,
    zero_element,
)
from kgraphs.intmat import identity
from kgraphs.moves import (
    enumerate_valid_partitions,
    insplit,
    phi_insplit,
    phi_sink_delete,
    psi_insplit,
    sink_delete,
    sink_delete_witnesses,
)


def vec_add(x, y):
    assert len(x) == len(y)
    return [a + b for a, b in zip(x, y)]


def vec_scale(c, x):
    return [c * a for a in x]


# (id(graph), degree) -> (graph, A_degree); holding the graph keeps its id
# from being reused while the entry lives. Emptied when full, since the
# property tests below bring a new graph per example.
_DENSE_POWERS = {}
_DENSE_POWERS_MAX = 2000


def dense_matrix(g, n):
    """A_n as a dense product of one-step matrices, cached per graph and
    degree: A_n = A_{n - e_i} A_{e_i} for the last nonzero coordinate i,
    one mat_mul per degree on the way down to a cached one."""
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


def edge_matrix(g, color):
    """A_{e_color}, counted edge by edge from g.edges: entry (r(e), s(e))
    gains one for every color-`color` edge e."""
    idx = g.vertex_index
    a = [[0] * len(g.vertices) for _ in g.vertices]
    for e in g.edges:
        if e.color == color:
            a[idx[e.rng]][idx[e.src]] += 1
    return a


def vec_mat(x, a):
    # row vector times matrix, by the dense product
    return mat_mul([list(x)], a)[0]


def dense_push(g, a, level):
    # the representative of a at level >= a.n
    return vec_mat(a.x, dense_matrix(g, tuple(l - c for l, c in zip(level, a.n))))


def dge_eq_oracle(g, a, b):
    """Search all levels within 2*d of the join for a common representative;
    the kernel chain argument makes this range sufficient."""
    d = len(g.vertices)
    join = tuple(max(x, y) for x, y in zip(a.n, b.n))
    for off in product(range(2 * d + 1), repeat=g.rank):
        level = tuple(j + o for j, o in zip(join, off))
        if dense_push(g, a, level) == dense_push(g, b, level):
            return True
    return False


def edge_push(g, x, n):
    """x * A_n, walking the edge list once per unit of degree."""
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


def reference_dge_eq(g, a, b):
    """dge_eq by the full kill test: push both to the join, then the
    difference by (d, ..., d), d the vertex count, which bounds the
    stable index."""
    join = tuple(max(x, y) for x, y in zip(a.n, b.n))
    xa = edge_push(g, a.x, tuple(j - c for j, c in zip(join, a.n)))
    xb = edge_push(g, b.x, tuple(j - c for j, c in zip(join, b.n)))
    z = [s - t for s, t in zip(xa, xb)]
    return not any(edge_push(g, z, (len(g.vertices),) * g.rank))


# ------------------------------------------------------------- dge_eq basics

def test_relation_examples():
    g = fixture("ex3.5-LambdaS")
    assert dge_eq(g, dim_element([1], (0, 0)), dim_element([1], (0, 7)))
    assert dge_eq(g, dim_element([1], (0, 0)), dim_element([2], (1, 0)))
    assert not dge_eq(g, dim_element([1], (0, 0)), dim_element([3], (1, 0)))


def test_defining_relations_hold_everywhere():
    for name in ("ex3.5-Lambda", "sec3-Gamma", "ex5.6-Omega", "ex5.7-Lambda"):
        g = fixture(name)
        for v in g.vertices:
            for i in range(1, g.rank + 1):
                e_i = tuple(1 if t == i else 0 for t in range(1, g.rank + 1))
                rhs = zero_element(g, e_i)
                for e in g.in_edges[v][i]:
                    rhs = dge_add(g, rhs, dge_shift(unit_element(g, e.src), e_i))
                assert dge_eq(g, unit_element(g, v), rhs)


def test_oracle_agreement():
    rng = random.Random(20260815)
    for name in ("ex3.5-LambdaS", "sec3-Gamma", "ex3.5-Lambda"):
        g = fixture(name)
        d = len(g.vertices)
        for _ in range(120):
            a = DimElement(
                tuple(rng.randint(-2, 2) for _ in range(d)),
                tuple(rng.randint(-1, 2) for _ in range(g.rank)),
            )
            b = DimElement(
                tuple(rng.randint(-2, 2) for _ in range(d)),
                tuple(rng.randint(-1, 2) for _ in range(g.rank)),
            )
            assert dge_eq(g, a, b) == dge_eq_oracle(g, a, b)


def test_eq_is_a_congruence():
    g = fixture("sec3-Gamma")
    rng = random.Random(7)
    for _ in range(60):
        x = tuple(rng.randint(-3, 3) for _ in range(2))
        n = tuple(rng.randint(0, 2) for _ in range(2))
        m = tuple(rng.randint(0, 2) for _ in range(2))
        a = DimElement(x, n)
        b = DimElement(tuple(vec_mat(x, vertex_matrix(g, m))), tuple(u + v for u, v in zip(n, m)))
        assert dge_eq(g, a, b)  # pushing is the identity on classes
        c = DimElement(tuple(rng.randint(-3, 3) for _ in range(2)), (rng.randint(0, 2), 0))
        assert dge_eq(g, dge_add(g, a, c), dge_add(g, b, c))
        assert dge_eq(g, dge_shift(a, (1, 2)), dge_shift(b, (1, 2)))


def test_rank_mismatch():
    g = fixture("ex3.5-LambdaS")
    with pytest.raises(RankMismatch):
        dge_eq(g, dim_element([1, 2], (0, 0)), dim_element([1], (0, 0)))
    with pytest.raises(RankMismatch):
        dge_eq(g, dim_element([1], (0,)), dim_element([1], (0, 0)))
    with pytest.raises(RankMismatch):
        dge_shift(dim_element([1], (0, 0)), (1,))


# --------------------------------------------------------------- positivity

def test_positivity_cases():
    g = fixture("ex3.5-Lambda")
    assert positivity(g, dim_element([5, -1, 0], (0, 0)), 2) == "positive"
    assert positivity(g, dim_element([1, -1, 0], (0, 0)), 3) == "not_positive"
    assert positivity(g, dim_element([0, 0, 0], (1, 1)), 2) == "positive"
    h = fixture("ex5.6-Omega")
    assert positivity(h, dim_element([1, -1], (0, 0)), 3) == "unknown"
    with pytest.raises(ValueError):
        positivity(g, dim_element([1, 0, 0], (0, 0)), -1)


# ------------------------------------------------------------ generator maps

def test_identity_is_a_hom():
    for name in ("ex3.5-Lambda", "ex3.5-LambdaI", "sec3-Sigma", "ex7.1-Lambda2"):
        m = identity_generator_map(fixture(name))
        assert hom_check(m)
        assert pointed_check(m)
        assert iso_check(m, m)


def test_hom_check_rejects_bad_map():
    g = fixture("sec3-Gamma")
    bad = generator_map(g, g, {"u": unit_element(g, "u"), "v": unit_element(g, "u")})
    assert not hom_check(bad)


def test_insplit_maps_are_isomorphisms():
    cases = [
        (fixture("ex3.5-Lambda"), "v"),
        (rose(2), "u"),
        (rose(3), "u"),
        (fixture("ex5.6-Omega"), "w"),
    ]
    for g, v in cases:
        for part in enumerate_valid_partitions(g, v):
            fwd = phi_insplit(g, part)
            assert hom_check(fwd)
            assert pointed_check(fwd)
            for j in range(1, g.rank + 1):
                bwd = psi_insplit(g, part, j)
                assert hom_check(bwd)
                assert iso_check(fwd, bwd)


def test_sink_delete_map_is_an_isomorphism():
    g = fixture("ex3.5-Lambda")
    fwd = phi_sink_delete(g, "v")  # cut graph -> g
    cut = fwd.source
    assert hom_check(fwd)
    witnesses = sink_delete_witnesses(g, "v")
    assert set(witnesses) == {"v", "w"}
    for u, wit in witnesses.items():
        assert dge_eq(g, apply_generator_map(fwd, wit), unit_element(g, u))
    bwd_images = {u: unit_element(cut, u) for u in cut.vertices} | witnesses
    bwd = generator_map(g, cut, bwd_images)
    assert iso_check(fwd, bwd)
    # the order unit moves: sink deletion is an unpointed isomorphism
    assert not pointed_check(fwd)


# -------------------------------------------------------------- intertwiners

def test_intertwiner_examples():
    lam, om = fixture("ex5.6-Lambda"), fixture("ex5.6-Omega")
    assert intertwiner_check(lam, om, [[1, 1]])
    assert not intertwiner_check(lam, om, [[1, 0]])
    with pytest.raises(DimensionMismatch):
        intertwiner_check(lam, om, [[1, 1], [1, 1]])
    with pytest.raises(DimensionMismatch):
        intertwiner_check(lam, rose(2), [[1]])
    # same shape but wrong entries is a plain False, not an error
    assert not intertwiner_check(lam, fixture("ex3.5-LambdaS"), [[1]])


@st.composite
def intertwiner_cases(draw):
    """Two random 2-graphs and a matrix R: over one pair of commuting
    matrices with R = I or R = a1 (both intertwine), or over two
    independent pairs with a random small R (mostly not)."""
    seed = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 3))
    a1 = draw(_matrices(n, 0))
    a2 = [[a1[r][c] + (r == c) for c in range(n)] for r in range(n)]
    g_left = random_2graph(seed, "p", a1, a2)
    kind = draw(st.sampled_from(["identity", "a1", "random"]))
    if kind == "random":
        m = draw(st.integers(1, 3))
        b1, shift = draw(_matrices(m, 0)), draw(st.integers(0, 1))
        b2 = [[b1[r][c] + shift * (r == c) for c in range(m)] for r in range(m)]
        return g_left, random_2graph(seed, "q", b1, b2), draw(_rectangles(n, m))
    g_right = random_2graph(seed, "q", a1, a2)
    return g_left, g_right, identity(n) if kind == "identity" else a1


def _rectangles(n, m):
    return st.lists(st.lists(st.integers(0, 2), min_size=m, max_size=m), min_size=n, max_size=n)


def dense_intertwines(g_left, g_right, r):
    # A_{e_i} r == r B_{e_i} for every color, by dense products
    return all(
        mat_mul(edge_matrix(g_left, i), r) == mat_mul(r, edge_matrix(g_right, i))
        for i in range(1, g_left.rank + 1)
    )


@settings(max_examples=60, deadline=None)
@given(intertwiner_cases())
def test_intertwiner_check_matches_dense_products(case):
    g_left, g_right, r = case
    assert intertwiner_check(g_left, g_right, r) == dense_intertwines(g_left, g_right, r)


def test_intertwiner_check_on_a_64_vertex_product():
    g = complete_product()
    ident = identity(64)
    moved = [row[:] for row in ident]
    moved[5][5], moved[5][6] = 0, 1  # one entry of R = I moved
    for r, want in ((ident, True), (moved, False)):
        assert dense_intertwines(g, g, r) is want
        assert intertwiner_check(g, g, r) is want


def hom_from_matrix(r, a):
    """[x, n] -> [x*r, n]."""
    if len(a.x) != len(r):
        raise DimensionMismatch(f"vector has {len(a.x)} entries for {len(r)} rows")
    return DimElement(tuple(vec_mat(a.x, r)), a.n)


def test_matrix_maps_agree():
    lam, om = fixture("ex5.6-Lambda"), fixture("ex5.6-Omega")
    r = [[1, 1]]
    m = generator_map_from_matrix(lam, om, r)
    assert hom_check(m)
    rng = random.Random(3)
    for _ in range(40):
        a = DimElement((rng.randint(-3, 3),), (rng.randint(0, 2), rng.randint(0, 2)))
        assert dge_eq(om, hom_from_matrix(r, a), apply_generator_map(m, a))
    with pytest.raises(DimensionMismatch):
        hom_from_matrix(r, DimElement((1, 2), (0, 0)))


def test_matrix_map_shape_is_checked():
    lam, lam_i = fixture("ex3.5-Lambda"), fixture("ex3.5-LambdaI")
    for r in ([[1, 0, 0, 0]], [[1, 0], [0, 1], [0, 0]], [[1, 0, 0, 0]] * 4):
        with pytest.raises(DimensionMismatch):
            generator_map_from_matrix(lam, lam_i, r)


# ---------------------------------------------------------------- SSE search

def reference_sse_search(g_left, g_right, p_max, entry_max):
    """sse_search by full enumeration with dense products: every R in
    row-major lexicographic order, an intertwining test of two products
    per color, then S row by row among the rows x with x R = row t of B_p."""
    if g_left.rank != g_right.rank:
        raise DimensionMismatch("graphs have different ranks")
    if p_max < 0 or entry_max < 0:
        raise KGraphError("bounds must be >= 0")
    k = g_left.rank
    dl, dr = len(g_left.vertices), len(g_right.vertices)
    a_steps = [vertex_matrix(g_left, unit_degree(k, i)) for i in range(1, k + 1)]
    b_steps = [vertex_matrix(g_right, unit_degree(k, i)) for i in range(1, k + 1)]

    def s_search(r, a_p, b_p):
        rows = []

        def rec():
            t = len(rows)
            if t == dr:
                s = rows
                if mat_mul(r, s) != a_p:
                    return None
                for a, b in zip(a_steps, b_steps):
                    if mat_mul(b, s) != mat_mul(s, a):
                        return None
                return [row[:] for row in s]
            for row in product(range(entry_max + 1), repeat=dl):
                # row t of S*R must match row t of B_p
                if vec_mat(row, r) != b_p[t]:
                    continue
                rows.append(list(row))
                found = rec()
                if found is not None:
                    return found
                rows.pop()
            return None

        return rec()

    for p in product(range(p_max + 1), repeat=k):
        a_p = vertex_matrix(g_left, p)
        b_p = vertex_matrix(g_right, p)
        for flat in product(range(entry_max + 1), repeat=dl * dr):
            r = [list(flat[t * dr : (t + 1) * dr]) for t in range(dl)]
            if all(mat_mul(a, r) == mat_mul(r, b) for a, b in zip(a_steps, b_steps)):
                s = s_search(r, a_p, b_p)
                if s is not None:
                    return SSEWitness(tuple(p), r, s)
    return ExhaustedBounds(p_max, entry_max)


def test_sse_self_identity():
    w = sse_search(rose(2), rose(2), 1, 2)
    assert w == SSEWitness((0,), [[1]], [[1]])
    w2 = sse_search(fixture("ex5.6-Lambda"), fixture("ex5.6-Lambda"), 1, 1)
    assert w2 == SSEWitness((0, 0), [[1]], [[1]])


def test_sse_finds_insplit_witness():
    lam, lam_i = fixture("ex3.5-Lambda"), fixture("ex3.5-LambdaI")
    w = sse_search(lam, lam_i, 1, 1)
    assert isinstance(w, SSEWitness)
    assert w.p == (0, 1)
    a_p = vertex_matrix(lam, w.p)
    b_p = vertex_matrix(lam_i, w.p)
    assert mat_mul(w.r, w.s) == a_p
    assert mat_mul(w.s, w.r) == b_p
    assert intertwiner_check(lam, lam_i, w.r)


def test_sse_exhausts():
    assert sse_search(fixture("sec3-Lambda"), fixture("sec3-Sigma"), 1, 1) == ExhaustedBounds(1, 1)
    assert sse_search(fixture("ex5.6-Lambda"), fixture("ex5.6-Omega"), 1, 2) == ExhaustedBounds(1, 2)
    with pytest.raises(DimensionMismatch):
        sse_search(rose(2), fixture("sec3-Lambda"), 1, 1)


# the reference tries all (entry_max + 1)^(dl * dr) matrices R for each p;
# ex3.5-LambdaI against itself, 2^16 of them, would take it 3 s
SSE_REFERENCE_MAX_R = 2**12


@pytest.mark.parametrize("bounds", [(1, 1), (2, 1)])
def test_sse_search_matches_the_reference_on_the_catalog(bounds):
    p_max, entry_max = bounds
    outcomes = set()
    for a, b in product(FIXTURE_NAMES, repeat=2):
        g_left, g_right = fixture(a), fixture(b)
        size = len(g_left.vertices) * len(g_right.vertices)
        if g_left.rank != g_right.rank or (entry_max + 1) ** size > SSE_REFERENCE_MAX_R:
            continue
        want = reference_sse_search(g_left, g_right, p_max, entry_max)
        assert sse_search(g_left, g_right, p_max, entry_max) == want, (a, b)
        outcomes.add(type(want))
    assert outcomes == {SSEWitness, ExhaustedBounds}


def _commuting(rng, n):
    # a1 with entries 0..2 and a2 = c0 I + c1 a1 + I, which commutes with it
    a1 = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
    c0, c1 = rng.randint(0, 1), rng.randint(0, 1)
    return a1, [[c0 * (r == c) + c1 * a1[r][c] + (r == c) for c in range(n)] for r in range(n)]


def test_sse_search_matches_the_reference_on_random_pairs():
    rng = random.Random(20261018)
    outcomes = set()
    for n, entry_max in [(3, 1)] * 30 + [(2, 2)] * 30:
        a1, a2 = _commuting(rng, n)
        g_left = random_2graph(rng, "p", a1, a2)
        # the same matrices (new squares) or matrices of their own
        mats = (a1, a2) if rng.random() < 0.5 else _commuting(rng, rng.randint(1, n))
        g_right = random_2graph(rng, "q", *mats)
        want = reference_sse_search(g_left, g_right, 1, entry_max)
        assert sse_search(g_left, g_right, 1, entry_max) == want
        outcomes.add(type(want))
    assert outcomes == {SSEWitness, ExhaustedBounds}


def _no_sources(g):
    # every vertex receives an edge of every color
    return all(map(all, g.in_sources))


def _emits_everywhere(g):
    # every vertex emits an edge of every color
    return all(set().union(*by_range) == set(range(len(g.vertices))) for by_range in g.in_sources)


def _sink_2graph(rng, a1):
    # both colors share a1, so a vertex with no color-1 out-edge is a sink
    return random_2graph(rng, "q", a1, a1)


def _fits_the_reference(g_left, g_right, entry_max):
    # reference_sse_search tries (entry_max + 1)^(dl * dr) matrices R per p
    size = len(g_left.vertices) * len(g_right.vertices)
    return (entry_max + 1) ** size <= 2**9 if entry_max < 2 else size <= 4


@st.composite
def sse_cases(draw):
    """(g_left, g_right, p_max, entry_max): random 2-graphs with sources
    allowed (random_2graphs) or with sinks, p_max up to 3 and entry_max up
    to 2, small enough for reference_sse_search's full enumeration."""
    entry_max = draw(st.integers(0, 2))
    pair = []
    for _ in range(2):
        if draw(st.booleans()):
            pair.append(draw(random_2graphs()))
        else:
            a1 = draw(_matrices(draw(st.integers(1, 3)), 0))
            pair.append(_sink_2graph(random.Random(draw(st.integers(0, 2**32))), a1))
    size = len(pair[0].vertices) * len(pair[1].vertices)
    p_max = draw(st.integers(0, 3 if size <= 6 else 1))
    assume(_fits_the_reference(*pair, entry_max))
    return (*pair, p_max, entry_max)


@settings(max_examples=80, deadline=None)
@given(sse_cases())
def test_sse_search_matches_the_reference_on_hypothesis_pairs(case):
    assert sse_search(*case) == reference_sse_search(*case)


# graphs for which each skip rule of sse_search holds and fails: strict
# (no sources, every vertex emits), with a source (v0 receives no color-1
# edge), with a sink (v1 emits nothing), and a permutation graph whose
# entries never grow, so that no degree is over the entry cap
SSE_RULE_GRAPHS = {
    "strict": ([[1, 1], [1, 0]], [[2, 1], [1, 1]]),
    "source": ([[0, 0], [1, 1]], [[1, 0], [1, 2]]),
    "sink": ([[1, 0], [1, 0]], None),
    "permutation": ([[0, 1], [1, 0]], [[1, 0], [0, 1]]),
}


def test_sse_search_matches_the_reference_with_each_rule_on_and_off():
    rng = random.Random(20261019)
    graphs = {}
    for name, (a1, a2) in SSE_RULE_GRAPHS.items():
        graphs[name] = _sink_2graph(rng, a1) if a2 is None else random_2graph(rng, "p", a1, a2)
    assert {_no_sources(g) for g in graphs.values()} == {True, False}
    assert {_emits_everywhere(g) for g in graphs.values()} == {True, False}
    over_cap = set()
    for (a, g_left), (b, g_right) in product(graphs.items(), repeat=2):
        for entry_max in (1, 2):
            case = (g_left, g_right, 3, entry_max)
            assert sse_search(*case) == reference_sse_search(*case), (a, b, entry_max)
            cap = len(g_right.vertices) * entry_max**2
            over_cap.add(max(map(max, vertex_matrix(g_left, (3, 3)))) > cap)
    assert over_cap == {True, False}


@pytest.mark.parametrize("entry_max", [1, 2])
def test_sse_search_finds_witnesses_at_the_entry_caps(entry_max):
    # A_p = [[2 e^2]] against B_p = e^2 J, J the all-ones 2 x 2 matrix: the
    # one witness has every entry e, so R S and S R reach their caps
    # d' e^2 and d e^2 exactly
    rng = random.Random(entry_max)
    m = entry_max**2
    g_left = random_2graph(rng, "p", [[2 * m]], [[1]])
    g_right = random_2graph(rng, "q", [[m, m], [m, m]], [[1, 0], [0, 1]])
    for p_max in (1, 3):
        want = SSEWitness((1, 0), [[entry_max] * 2], [[entry_max]] * 2)
        assert sse_search(g_left, g_right, p_max, entry_max) == want
        assert reference_sse_search(g_left, g_right, p_max, entry_max) == want


def test_sse_search_on_graphs_without_vertices():
    # the 0 x d and d x 0 matrices of a 0-vertex graph: R S = A_p and
    # S R = B_p hold exactly when the other side's matrix is zero, which a
    # vertex without edges reaches at p = (0, 1) and sec3-Lambda never does
    empty = validate_kgraph(Skeleton(2, (), ()), {})
    bare = validate_kgraph(Skeleton(2, ("u",), ()), {}, strict=False)
    lam = fixture("sec3-Lambda")
    for p_max, entry_max in product(range(3), repeat=2):
        assert sse_search(empty, empty, p_max, entry_max) == SSEWitness((0, 0), [], [])
        exhausted = ExhaustedBounds(p_max, entry_max)
        assert sse_search(empty, lam, p_max, entry_max) == exhausted
        assert sse_search(lam, empty, p_max, entry_max) == exhausted
        want = [SSEWitness((0, 1), [], [[]]), SSEWitness((0, 1), [[]], [])] if p_max else [exhausted] * 2
        assert [sse_search(empty, bare, p_max, entry_max), sse_search(bare, empty, p_max, entry_max)] == want


def test_sse_search_rejects_a_zero_row_of_r_where_a_p_has_none():
    # B_p = [[0]] once p_2 > 0, which R = 0 and S = 0 meet on every side
    # but R S = A_p: row 0 of A_p is nonzero at every p, and no equation
    # row of R S is checked for a zero row of R
    rng = random.Random(1)
    g_left = random_2graph(rng, "p", [[1, 0], [0, 0]], [[1, 0], [0, 0]])
    g_right = random_2graph(rng, "q", [[1]], [[0]])
    for p_max in range(3):
        want = ExhaustedBounds(p_max, 1)
        assert sse_search(g_left, g_right, p_max, 1) == reference_sse_search(g_left, g_right, p_max, 1) == want


def _relabelled(rng, tag, mats):
    # a graph with these one-step matrices, its vertices renamed by a
    # random permutation, with fresh random squares
    n = len(mats[0])
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [[[m[perm[r]][perm[c]] for c in range(n)] for r in range(n)] for m in mats]
    return random_2graph(rng, tag, *moved)


def _one_color_permutation(rng, tag, n):
    """A 2-graph on n vertices whose matrix is a permutation matrix P in
    one color and c0 I + c1 P (c0, c1 in 0..2) in the other, which is a
    permutation matrix only for (c0, c1) = (1, 0) or (0, 1)."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[int(c == perm[r]) for c in range(n)] for r in range(n)]
    c0, c1 = rng.randint(0, 2), rng.randint(0, 2)
    other = [[c0 * (r == c) + c1 * p[r][c] for c in range(n)] for r in range(n)]
    return random_2graph(rng, tag, *((p, other) if rng.random() < 0.5 else (other, p)))


@st.composite
def relabelled_pairs(draw):
    """(g, a vertex-relabelled copy of g with fresh squares, p_max,
    entry_max): the copy has a witness at p = 0 whenever entry_max >= 1,
    a permutation intertwiner."""
    g = draw(random_2graphs())
    rng = random.Random(draw(st.integers(0, 2**32)))
    entry_max = draw(st.integers(0, 2))
    assume(_fits_the_reference(g, g, entry_max))
    copy = _relabelled(rng, "q", (edge_matrix(g, 1), edge_matrix(g, 2)))
    return g, copy, draw(st.integers(0, 3)), entry_max


@settings(max_examples=60, deadline=None)
@given(relabelled_pairs())
def test_sse_search_matches_the_reference_on_relabelled_copies(case):
    assert sse_search(*case) == reference_sse_search(*case)


@st.composite
def permutation_color_pairs(draw):
    """(g_left, g_right, p_max, entry_max): g_left a permutation in one
    color (_one_color_permutation), g_right a relabelled copy of it,
    another such graph of any size, or a random 2-graph."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g_left = _one_color_permutation(rng, "p", draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(["relabelled", "permutation", "random"]))
    if kind == "relabelled":
        g_right = _relabelled(rng, "q", (edge_matrix(g_left, 1), edge_matrix(g_left, 2)))
    elif kind == "permutation":
        g_right = _one_color_permutation(rng, "q", draw(st.integers(1, 3)))
    else:
        g_right = draw(random_2graphs())
    entry_max = draw(st.integers(0, 2))
    assume(_fits_the_reference(g_left, g_right, entry_max))
    return g_left, g_right, draw(st.integers(0, 3)), entry_max


@settings(max_examples=60, deadline=None)
@given(permutation_color_pairs())
def test_sse_search_matches_the_reference_on_permutation_colors(case):
    assert sse_search(*case) == reference_sse_search(*case)


def test_sse_search_matches_the_reference_on_unequal_sizes():
    # d != d' leaves no witness at p = 0; the walk still holds a color at
    # 0 where both graphs are permutations in it
    rng = random.Random(20261020)
    outcomes = set()
    for n, m in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)] * 4:
        pair = [_one_color_permutation(rng, tag, size) for tag, size in (("p", n), ("q", m))]
        for entry_max, p_max in product(range(3), range(4)):
            if _fits_the_reference(*pair, entry_max):
                want = reference_sse_search(*pair, p_max, entry_max)
                assert sse_search(*pair, p_max, entry_max) == want, (n, m, p_max, entry_max)
                outcomes.add(type(want))
    assert outcomes == {SSEWitness, ExhaustedBounds}


def test_sse_search_answers_lag_0_without_walking_the_degrees(monkeypatch):
    # a relabelled copy has its witness at p = 0 among the permutation
    # intertwiners; sec3-Gamma and sec3-Lambda are permutations in both
    # colors and differ in size, so no degree has a witness
    rng = random.Random(20261021)
    a1 = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    g = random_2graph(rng, "p", a1, [[x + (r == c) for c, x in enumerate(row)] for r, row in enumerate(a1)])
    copy = _relabelled(rng, "q", (edge_matrix(g, 1), edge_matrix(g, 2)))
    want = reference_sse_search(g, copy, 1, 1)
    assert want.p == (0, 0) and want.r != identity(3)

    def no_walk(*args):
        raise AssertionError("the degrees were walked")

    monkeypatch.setattr(dimension, "_degrees", no_walk)
    assert sse_search(g, copy, 1, 1) == want
    gamma, lam = fixture("sec3-Gamma"), fixture("sec3-Lambda")
    assert sse_search(gamma, lam, 1000, 1) == ExhaustedBounds(1000, 1)


# ------------------------------------------------------------ rank invariant

def test_rank_examples():
    assert rank_invariant(fixture("sec3-Lambda")) == 1
    assert rank_invariant(fixture("sec3-Sigma")) == 2
    assert rank_invariant(fixture("sec3-Gamma")) == 2


def test_rank_is_move_invariant():
    g = fixture("ex3.5-Lambda")
    assert rank_invariant(g) == rank_invariant(fixture("ex3.5-LambdaI")) == rank_invariant(
        fixture("ex3.5-LambdaS")
    )
    om = fixture("ex5.6-Omega")
    (part,) = enumerate_valid_partitions(om, "w")
    split, _ = insplit(om, part)
    assert rank_invariant(om) == rank_invariant(split)
    assert rank_invariant(g) == rank_invariant(sink_delete(g, "w"))


# ------------------------------------------------------------- deep shifts

DEEP_SHIFTS = [
    ("ex3.5-LambdaS", ("u", (0, 0)), ("u", (0, 5000)), True),
    ("ex3.5-Lambda", ("u", (-3000, 0)), ("u", (0, 0)), False),
]


@pytest.mark.parametrize("name, a, b, equal", DEEP_SHIFTS)
def test_deep_shifts_are_decided(name, a, b, equal):
    g = fixture(name)
    ea, eb = unit_element(g, *a), unit_element(g, *b)
    assert dge_eq(g, ea, eb) == reference_dge_eq(g, ea, eb) == equal


def test_shift_pushes_are_capped():
    g = fixture("ex3.5-LambdaS")
    base = unit_element(g, "u")
    assert dge_eq(g, base, unit_element(g, "u", (0, SHIFT_MAX_DEGREE)))
    with pytest.raises(KGraphError, match="over"):
        dge_eq(g, base, unit_element(g, "u", (0, SHIFT_MAX_DEGREE + 1)))
    with pytest.raises(KGraphError, match="over"):
        dge_add(g, unit_element(g, "u", (-SHIFT_MAX_DEGREE - 1, 0)), base)


def test_shallow_shifts_match_the_dense_oracle():
    for name, a, b in (
        ("ex3.5-Lambda", ("u", (-30, 0)), ("u", (0, 0))),
        ("ex3.5-Lambda", ("v", (0, -30)), ("u", (0, 0))),
        ("ex3.5-LambdaS", ("u", (0, 0)), ("u", (0, 30))),
        ("sec3-Gamma", ("u", (-30, 0)), ("v", (0, 0))),
    ):
        g = fixture(name)
        ea, eb = unit_element(g, *a), unit_element(g, *b)
        assert dge_eq(g, ea, eb) == dge_eq_oracle(g, ea, eb)


# ------------------------------------------- random graphs, dense references

def _matrices(n, row_min):
    # n x n, entries 0..2, each row summing to at least row_min
    row = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda r: sum(r) >= row_min)
    return st.lists(row, min_size=n, max_size=n)


@st.composite
def random_2graphs(draw):
    """A random 2-graph on 1-3 vertices, sources allowed."""
    n = draw(st.integers(1, 3))
    a1 = draw(_matrices(n, 0))
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
    a = draw(_matrices(draw(st.integers(1, 3)), 1))
    b = draw(_matrices(draw(st.integers(1, 3)), 1))
    return _product(a, b)


def _elements(g):
    return st.builds(
        DimElement,
        st.tuples(*[st.integers(-3, 3)] * len(g.vertices)),
        st.tuples(*[st.integers(-2, 3)] * g.rank),
    )


def _join(*shifts):
    return tuple(max(cs) for cs in zip(*shifts))


def positivity_reference(g, a, q_max):
    pushed = dense_push(g, a, tuple(max(q_max, c) for c in a.n))
    if min(pushed) >= 0:
        return "positive"
    if max(pushed) <= 0 and not dge_eq_oracle(g, a, zero_element(g, a.n)):
        return "not_positive"
    return "unknown"


def apply_reference(m, a):
    # v(n) -> shift(m(v), n), summed at the join of all the shifts used
    terms = [(c, m.images[v]) for v, c in zip(m.source.vertices, a.x) if c]
    level = _join(a.n, *(tuple(s + t for s, t in zip(img.n, a.n)) for _, img in terms))
    x = [0] * len(m.target.vertices)
    for c, img in terms:
        shifted = DimElement(img.x, tuple(s + t for s, t in zip(img.n, a.n)))
        x = vec_add(x, vec_scale(c, dense_push(m.target, shifted, level)))
    return DimElement(tuple(x), level)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_graded_group_matches_dense_powers(data):
    g = data.draw(graphs())
    a, b = data.draw(_elements(g)), data.draw(_elements(g))
    assert dge_eq(g, a, b) == dge_eq_oracle(g, a, b)
    level = _join(a.n, b.n)
    assert dge_add(g, a, b) == DimElement(
        tuple(vec_add(dense_push(g, a, level), dense_push(g, b, level))), level
    )
    q_max = data.draw(st.integers(0, 3))
    assert positivity(g, a, q_max) == positivity_reference(g, a, q_max)
    m = generator_map(g, g, {v: data.draw(_elements(g)) for v in g.vertices})
    assert apply_generator_map(m, a) == apply_reference(m, a)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_rank_invariant_matches_sympy_snf(g):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    d = len(g.vertices)
    snf = smith_normal_form(Matrix(dense_matrix(g, (d,) * g.rank)), domain=ZZ)
    assert rank_invariant(g) == sum(1 for i in range(d) if snf[i, i] != 0)


# ------------------------------------------------------------- stable index

def reference_stable_index(g):
    # the first j with rank P^j = rank P^{j+1}, by sympy on dense powers
    from sympy import Matrix

    p = Matrix(dense_matrix(g, (1,) * g.rank))
    power, j = Matrix.eye(len(g.vertices)), 0
    while power.rank() != (power * p).rank():
        power, j = power * p, j + 1
    return j


def left_kernel(g):
    """Integer vectors spanning {z : z P^d = 0}, d the vertex count."""
    from sympy import Matrix

    d = len(g.vertices)
    basis = Matrix(dense_matrix(g, (d,) * g.rank)).T.nullspace()
    return [[int(x * lcm(*(y.q for y in v))) for x in v] for v in basis]


STABLE_INDEX_GRAPHS = {name: lambda name=name: fixture(name) for name in FIXTURE_NAMES} | {
    "rose2": lambda: rose(2),
    "grid2": lambda: grid(2, (1, 2)),
    "grid3": lambda: grid(3, (1, 1, 1)),
}


@pytest.mark.parametrize("name", STABLE_INDEX_GRAPHS)
def test_stable_index_matches_sympy_ranks(name):
    g = STABLE_INDEX_GRAPHS[name]()
    assert 0 <= g.stable_index == reference_stable_index(g) <= len(g.vertices)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_stable_index_matches_sympy_ranks_on_random_graphs(g):
    assert 0 <= g.stable_index == reference_stable_index(g) <= len(g.vertices)


def _nilpotent_chain():
    # P = a1 (a1 + 1), a1 a shift on three vertices: e0 P^2 = e2, e0 P^3 = 0
    a1 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    a2 = [[a1[r][c] + (r == c) for c in range(3)] for r in range(3)]
    return random_2graph(random.Random(0), "p", a1, a2)


def test_a_nilpotent_chain_is_pushed_to_its_full_index():
    g = _nilpotent_chain()
    assert g.stable_index == 3
    top, zero = unit_element(g, "p0"), zero_element(g)
    assert dge_eq(g, top, zero) and reference_dge_eq(g, top, zero)
    assert edge_push(g, top.x, (2, 2)) == [0, 0, 1]
    assert positivity(g, dge_scale(-1, top), 0) == "unknown"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_in_sources_push_and_vertex_matrix_match_the_edge_list(data):
    """KGraph.in_sources against in_edges, push against edge_push on
    vectors with zero entries, and each one-step vertex_matrix against the
    edge counts, on graphs with and without sources (the nilpotent chain's
    last vertex receives no color-1 edge)."""
    g = data.draw(st.one_of(graphs(), st.just(_nilpotent_chain())))
    d, idx = len(g.vertices), g.vertex_index
    for i in range(1, g.rank + 1):
        by_range = tuple(tuple(idx[e.src] for e in g.in_edges[v][i]) for v in g.vertices)
        assert g.in_sources[i - 1] == by_range
        assert vertex_matrix(g, unit_degree(g.rank, i)) == edge_matrix(g, i)
    x = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    x[data.draw(st.integers(0, d - 1))] = 0
    n = data.draw(st.tuples(*[st.integers(0, 3)] * g.rank))
    assert push(g, x, n) == edge_push(g, x, n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stable_index_answers_match_the_full_power_reference(data):
    """dge_eq, positivity, hom_check and iso_check against the same
    functions deciding equality by reference_dge_eq, on pairs apart by a
    combination of left-kernel vectors of P^d (a nonzero one cancels) and
    on free pairs."""
    g = data.draw(st.one_of(graphs(), st.just(_nilpotent_chain())))
    d, kernel = len(g.vertices), left_kernel(g)

    def cancelling():
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(kernel), max_size=len(kernel)))
        return [sum(c * v[t] for c, v in zip(coeffs, kernel)) for t in range(d)]

    a, c = data.draw(_elements(g)), data.draw(_elements(g))
    m = data.draw(st.tuples(*[st.integers(0, 2)] * g.rank))
    b = DimElement(tuple(vec_add(edge_push(g, a.x, m), cancelling())), tuple(s + t for s, t in zip(a.n, m)))
    assert dge_eq(g, a, b) and reference_dge_eq(g, a, b)
    for x, y in ((a, c), (b, c), (c, DimElement(tuple(cancelling()), c.n))):
        assert dge_eq(g, x, y) == reference_dge_eq(g, x, y)

    near_identity = generator_map(
        g, g, {v: dim_element(vec_add(unit_element(g, v).x, cancelling()), m) for v in g.vertices}
    )
    free = generator_map(g, g, {v: data.draw(_elements(g)) for v in g.vertices})
    q_max = data.draw(st.integers(0, 3))

    def answers():
        return (
            [dimension.positivity(g, x, q_max) for x in (a, b, dge_scale(-1, b))],
            [dimension.hom_check(f) for f in (near_identity, free)],
            [dimension.iso_check(f, f) for f in (near_identity, free)],
        )

    got = answers()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dimension, "dge_eq", reference_dge_eq)
        want = answers()
    assert got == want
    # the images sit at shift m, so near_identity is a shift up to kernel
    # vectors: a hom, and its own inverse when m = 0
    assert got[1][0] and (got[2][0] or any(m))


# on a shared 2-vCPU VM this test took 5.6-5.8 s with each difference
# pushed by P^d, and 0.19-0.22 s at the stable index (m0 = 1 here)
NOT_EQUAL_BUDGET_S = 1.0


def test_not_equal_queries_on_a_256_vertex_product_fit_a_budget():
    rng = random.Random(20261018)
    g = _product(_cycle_plus_permutation(rng, 16), _cycle_plus_permutation(rng, 16))
    queries = []
    for _ in range(200):
        x = [rng.randint(-3, 3) for _ in g.vertices]
        y = [s + rng.randint(0, 1) for s in x]
        y[rng.randrange(len(y))] += 1  # a nonzero nonnegative gap never dies without sources
        queries.append((DimElement(tuple(x), (0, 0)), DimElement(tuple(y), (0, 0))))
    t0 = time.perf_counter()
    assert not any(dge_eq(g, a, b) for a, b in queries)
    elapsed = time.perf_counter() - t0
    assert elapsed < NOT_EQUAL_BUDGET_S, f"took {elapsed:.2f}s, budget {NOT_EQUAL_BUDGET_S}s"
