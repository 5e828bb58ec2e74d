"""Graded dimension group: equality decision against a brute-force oracle,
generator maps for the moves, intertwiners and SSE search."""

import random
import re
import time
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    DEEP_SHIFTS, INSPLIT_PAIR_SIZES, STABLE_INDEX_GRAPHS, complete_product, cycle_plus_permutation, dense_dge_eq,
    dense_matrix, dense_positivity, dense_push, edge_matrix, edge_push, graphs, insplit_pair, intertwiner_cases,
    kill_push_dge_eq, left_kernel, mat_mul, nilpotent_chain, no_sources, one_graph, product_graph, random_2graph,
    random_2graphs, ranked_graphs, reference_lag_0, small_elements, square_matrices, vec_mat,
)

import kgraphs.dimension as dimension
import kgraphs.sse as sse
from kgraphs.constructions import FIXTURE_NAMES, fixture, rose
from kgraphs.core import (
    DegreeOutOfRange,
    KGraphError,
    Skeleton,
    push,
    unit_degree,
    validate_kgraph,
    vertex_matrix,
)
from kgraphs.dimension import (
    SHIFT_MAX_DEGREE,
    DimElement,
    DimensionMismatch,
    GeneratorMap,
    RankMismatch,
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
    iso_check,
    pointed_check,
    positivity,
    unit_element,
    zero_element,
)
from kgraphs.homology import rank_invariant
from kgraphs.intmat import echelon_extend, identity
from kgraphs.moves import (
    enumerate_valid_partitions,
    insplit,
    phi_insplit,
    phi_sink_delete,
    psi_insplit,
    sink_delete,
    sink_delete_witnesses,
)
from kgraphs.sse import (
    SSE_MAX_UNKNOWNS,
    ExhaustedBounds,
    SSEWitness,
    intertwiner_check,
    sse_search,
)


def vec_add(x, y):
    assert len(x) == len(y)
    return [a + b for a, b in zip(x, y)]


def vec_scale(c, x):
    return [c * a for a in x]


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
            assert dge_eq(g, a, b) == dense_dge_eq(g, a, b)


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


# Each public entry point checks its inputs once, where they enter, and
# then runs unchecked helpers; these pin the exception type and message of
# every such check, directly built maps included (the kernel's zip would
# otherwise truncate a short image silently).
VECTOR_2_FOR_3 = "vector has 2 entries for 3 vertices"
OVER_CAP = "shift of total degree 100001 is over 100000"
PINNED_ERRORS = {
    "dge_eq short vector": (lambda g, e: dge_eq(g, e["short_x"], e["u"]), RankMismatch, VECTOR_2_FOR_3),
    "dge_eq short vector on the right": (lambda g, e: dge_eq(g, e["u"], e["short_x"]), RankMismatch, VECTOR_2_FOR_3),
    "dge_eq short shift": (
        lambda g, e: dge_eq(g, e["u"], e["short_n"]), RankMismatch, "shift has 1 coordinates for rank 2"
    ),
    "dge_eq long shift": (
        lambda g, e: dge_eq(g, e["long_n"], e["u"]), RankMismatch, "shift has 3 coordinates for rank 2"
    ),
    "dge_add short vector": (lambda g, e: dge_add(g, e["short_x"], e["u"]), RankMismatch, VECTOR_2_FOR_3),
    "dge_add short shift": (
        lambda g, e: dge_add(g, e["u"], e["short_n"]), RankMismatch, "shift has 1 coordinates for rank 2"
    ),
    "positivity short vector": (lambda g, e: positivity(g, e["short_x"], 1), RankMismatch, VECTOR_2_FOR_3),
    "positivity short shift": (
        lambda g, e: positivity(g, e["short_n"], 1), RankMismatch, "shift has 1 coordinates for rank 2"
    ),
    "apply short vector": (
        lambda g, e: apply_generator_map(identity_generator_map(g), e["short_x"]), RankMismatch, VECTOR_2_FOR_3
    ),
    "apply short shift": (
        lambda g, e: apply_generator_map(identity_generator_map(g), e["short_n"]),
        RankMismatch,
        "shift has 1 coordinates for rank 2",
    ),
    "dge_eq right side over the cap": (lambda g, e: dge_eq(g, e["u"], e["far"]), KGraphError, OVER_CAP),
    "dge_eq left side over the cap": (lambda g, e: dge_eq(g, e["far"], e["u"]), KGraphError, OVER_CAP),
    "dge_eq pushed side over the cap": (lambda g, e: dge_eq(g, e["below"], e["u"]), KGraphError, OVER_CAP),
    "dge_add pushed side over the cap": (lambda g, e: dge_add(g, e["below"], e["u"]), KGraphError, OVER_CAP),
    "positivity corner over the cap": (
        lambda g, e: positivity(g, unit_element(g, "u", (-SHIFT_MAX_DEGREE, 0)), 1),
        KGraphError,
        "shift of total degree 100002 is over 100000",
    ),
    "push negative degree": (
        lambda g, e: push(g, [1, 0, 0], (-1, 0)), DegreeOutOfRange, "degree must be a length-2 tuple over N"
    ),
    "push short degree": (
        lambda g, e: push(g, [1, 0, 0], (1,)), DegreeOutOfRange, "degree must be a length-2 tuple over N"
    ),
    "push short vector": (lambda g, e: push(g, [1, 0], (1, 0)), KGraphError, VECTOR_2_FOR_3),
    "push long vector": (lambda g, e: push(g, [1, 0, 0, 0], (0, 0)), KGraphError, "vector has 4 entries for 3 vertices"),
    "a direct map's short image in apply": (
        lambda g, e: apply_generator_map(e["short_image"], DimElement((0, 2, 0), (0, 0))),
        RankMismatch,
        VECTOR_2_FOR_3,
    ),
    "a direct map's short image in hom_check": (lambda g, e: hom_check(e["short_image"]), RankMismatch, VECTOR_2_FOR_3),
    "a direct map's short image in iso_check": (
        lambda g, e: iso_check(e["short_image"], identity_generator_map(g)), RankMismatch, VECTOR_2_FOR_3
    ),
    "a direct map's short image in pointed_check": (
        lambda g, e: pointed_check(e["short_image"]), RankMismatch, VECTOR_2_FOR_3
    ),
    # a map's images are checked as generator_map checks them
    "a direct map's short image shift in apply": (
        lambda g, e: apply_generator_map(e["short_image_shift"], DimElement((0, 2, 0), (0, 0))),
        RankMismatch,
        "shift has 1 coordinates for rank 2",
    ),
    "a direct map's short image shift in hom_check": (
        lambda g, e: hom_check(e["short_image_shift"]), RankMismatch, "shift has 1 coordinates for rank 2"
    ),
    "generator_map short image shift": (
        lambda g, e: generator_map(g, g, e["short_image_shift"].images),
        RankMismatch,
        "shift has 1 coordinates for rank 2",
    ),
}


@pytest.mark.parametrize("case", PINNED_ERRORS)
def test_checked_once_entry_points_raise_what_they_raised(case):
    g = fixture("ex3.5-Lambda")
    images = identity_generator_map(g).images
    elements = {
        "u": unit_element(g, "u"),
        "short_x": DimElement((1, 0), (0, 0)),
        "short_n": DimElement((1, 0, 0), (0,)),
        "long_n": DimElement((1, 0, 0), (0, 0, 0)),
        "far": unit_element(g, "u", (0, SHIFT_MAX_DEGREE + 1)),
        "below": unit_element(g, "u", (-SHIFT_MAX_DEGREE - 1, 0)),
        # built directly, so generator_map never checked the image of v
        "short_image": GeneratorMap(g, g, {**images, "v": DimElement((1, 0), (0, 0))}),
        "short_image_shift": GeneratorMap(g, g, {**images, "v": DimElement((1, 0, 0), (0,))}),
    }
    call, kind, message = PINNED_ERRORS[case]
    with pytest.raises(kind) as info:
        call(g, elements)
    assert type(info.value) is kind and str(info.value) == message


def test_apply_generator_map_reads_only_the_images_it_uses():
    # the short image of v is never read for an element without v
    g = fixture("ex3.5-Lambda")
    m = GeneratorMap(g, g, {**identity_generator_map(g).images, "v": DimElement((1, 0), (0, 0))})
    a = DimElement((2, 0, -1), (1, 0))
    assert apply_generator_map(m, a) == apply_generator_map(identity_generator_map(g), a) == a


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


@pytest.mark.parametrize("bound", [1.5, "1", True])
def test_positivity_and_sse_search_take_only_int_bounds(bound):
    # unchecked, a float or a string would reach a comparison or range()
    # as TypeError, or be searched with, and a bool would pass as 1
    g = fixture("ex3.5-Lambda")
    with pytest.raises(KGraphError, match=r"^q_max .* is not an int$"):
        positivity(g, dim_element([1, 0, 0], (0, 0)), bound)
    with pytest.raises(KGraphError, match=r"^p_max .* is not an int$"):
        sse_search(g, g, bound, 1)
    with pytest.raises(KGraphError, match=r"^entry_max .* is not an int$"):
        sse_search(g, g, 1, bound)


@pytest.mark.parametrize(
    "make, bad",
    [
        (lambda g: dim_element([1.7, 0, 0], (0, 0)), r"entry 1\.7"),
        (lambda g: dim_element(["3", 0, 0], (0, 0)), r"entry '3'"),
        (lambda g: dim_element([True, 0, 0], (0, 0)), r"entry True"),
        (lambda g: dim_element([1, 0, 0], (0.5, 0)), r"shift entry 0\.5"),
        (lambda g: dge_shift(unit_element(g, "u"), (0.5, 0)), r"shift entry 0\.5"),
        (lambda g: unit_element(g, "u", (0.5, 0)), r"shift entry 0\.5"),
        (lambda g: zero_element(g, ("x", 0)), r"shift entry 'x'"),
    ],
)
def test_elements_take_only_int_entries(make, bad):
    # int() would truncate a float entry and parse a string one, and an
    # unconverted float or string shift reaches the next dge_eq or dge_add
    # as TypeError
    with pytest.raises(KGraphError, match=f"^{bad} is not an int$"):
        make(fixture("ex3.5-Lambda"))


@pytest.mark.parametrize("c", [1.5, "2", True])
def test_dge_scale_takes_only_an_int_coefficient(c):
    # a float gave float entries, which a later dge_eq compared false, a
    # string repeated each entry's digits and a bool passed as 0 or 1
    g = fixture("ex3.5-Lambda")
    with pytest.raises(KGraphError, match=f"^coefficient {re.escape(repr(c))} is not an int$"):
        dge_scale(c, unit_element(g, "u"))
    u = unit_element(g, "u")
    assert dge_eq(g, dge_scale(2, u), dge_add(g, u, u))


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


@pytest.mark.parametrize(
    "r, bad", [([["1", "1"]], "'1'"), ([[1.0, 1.0]], r"1\.0"), ([[True, True]], "True"), ([[1, 2.5]], r"2\.5")]
)
def test_intertwiner_check_takes_only_int_entries(r, bad):
    # a string reached the row sums as TypeError, and a float or a bool,
    # equal to 1 as a number, answered True on the ex5.6 pair; the first
    # bad entry is named
    lam, om = fixture("ex5.6-Lambda"), fixture("ex5.6-Omega")
    with pytest.raises(KGraphError, match=f"^R entry {bad} is not an int$"):
        intertwiner_check(lam, om, r)


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


INTERTWINER_BUDGET_S = 1.0


def _identity_and_moved(d):
    # (R, whether R intertwines a graph with itself) for R = I and for I
    # with one entry moved
    ident = identity(d)
    moved = [row[:] for row in ident]
    moved[5][5], moved[5][6] = 0, 1
    return ((ident, True), (moved, False))


def test_intertwiner_check_on_a_64_vertex_product():
    g = complete_product()
    for r, want in _identity_and_moved(64):
        assert dense_intertwines(g, g, r) is want
        assert intertwiner_check(g, g, r) is want
    # the 1024-vertex product of the lag-0 tests, within a CPU budget: its
    # vertices all emit edges of each color, so the moved entry breaks the
    # equation rows of the vertices that vertex 5 has edges into
    rng = random.Random(32)
    big = product_graph(cycle_plus_permutation(rng, 32), cycle_plus_permutation(rng, 32))
    cases = _identity_and_moved(1024)
    t0 = time.process_time()
    for r, want in cases:
        assert intertwiner_check(big, big, r) is want
    elapsed = time.process_time() - t0
    assert elapsed < INTERTWINER_BUDGET_S, f"took {elapsed:.2f}s of CPU, budget {INTERTWINER_BUDGET_S}s"


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


INSPLIT_SSE_BUDGET_S = 5.0


@pytest.mark.parametrize("n", INSPLIT_PAIR_SIZES[:3])
def test_sse_search_finds_an_insplit_within_its_witness_bounds(n):
    # (R, S) from the in-split is a witness at p = e_1 whose entries are at
    # most m, so a search up to p = (1, 1) and entries m cannot exhaust
    # (3/4, 7/8 and 12/13 vertices; the 12/13 pair takes about 0.1 s)
    g, split, r, s = insplit_pair(n)
    m = max(max(row) for row in r + s)
    t0 = time.process_time()
    w = sse_search(g, split, 1, m)
    elapsed = time.process_time() - t0
    assert elapsed < INSPLIT_SSE_BUDGET_S, f"took {elapsed:.2f}s of CPU, budget {INSPLIT_SSE_BUDGET_S}s"
    assert isinstance(w, SSEWitness), (n, w)
    assert mat_mul(w.r, w.s) == vertex_matrix(g, w.p)
    assert mat_mul(w.s, w.r) == vertex_matrix(split, w.p)
    assert intertwiner_check(g, split, w.r) and intertwiner_check(split, g, w.s)


def test_lattice_walk_matches_a_full_enumeration():
    # random systems, each solved by a point drawn in range half the time:
    # the walk over their primitive echelon basis, whole or extended from
    # that of the first rows, yields
    # exactly the x in 0..entry_max^n that solve every row and pass every
    # cut, in lexicographic order; unknown c at column n - 1 - c
    rng = random.Random(20261020)
    for _ in range(300):
        n, entry_max = rng.randint(0, 5), rng.randint(0, 2)
        point = [rng.randint(0, entry_max + (rng.random() < 0.5)) for _ in range(n)]
        eqs = []
        for _ in range(rng.randint(0, n + 1)):
            coefs = [rng.choice([0, 0, 1, -1, 2, -3]) for _ in range(n)]
            rhs = sum(a * x for a, x in zip(coefs, point)) + (rng.random() < 0.1)
            eqs.append((coefs, rhs))
        cut = {c: (lambda x, c=c: sum(x[: c + 1]) % 3 != 1) for c in range(n) if rng.random() < 0.3}
        want = [
            list(x)
            for x in product(range(entry_max + 1), repeat=n)
            if all(sum(a * v for a, v in zip(coefs, x)) == rhs for coefs, rhs in eqs)
            and all(check(x) for check in cut.values())
        ]
        rows = [{n - 1 - c: a for c, a in enumerate(coefs) if a} | ({n: rhs} if rhs else {}) for coefs, rhs in eqs]
        first = echelon_extend({}, rows[: len(rows) // 2])
        for basis in (echelon_extend({}, rows), echelon_extend(first, rows[len(rows) // 2 :])):
            assert list(sse._lattice_walk(basis, n, entry_max, cut)) == want


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


def _no_zero_row(rng, rows, cols, top):
    # entries 0..top, no row all zero
    while True:
        m = [[rng.randint(0, top) for _ in range(cols)] for _ in range(rows)]
        if all(map(any, m)):
            return m


def test_sse_search_matches_the_reference_on_pairs_without_sources():
    # every vertex receives every color, so R is walked only up to the
    # largest entry of the A_p and S up to that of B_p. Half the pairs are
    # elementary: A_1 = R S and B_1 = S R for R, S with no zero row, and
    # A_2, B_2 the same polynomial in them, so (R, S) is a witness at e_1
    rng = random.Random(20261022)
    outcomes = set()
    for entry_max in (1, 2, 3):
        for _ in range(20):
            dl, dr = rng.randint(1, 2), rng.randint(1, 2)
            if rng.random() < 0.5:
                r, s = _no_zero_row(rng, dl, dr, entry_max), _no_zero_row(rng, dr, dl, entry_max)
                c0, c1 = rng.randint(0, 1), rng.randint(0, 1)

                def poly(a):
                    return [[c0 * (i == j) + c1 * x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]

                mats = [(a1, poly(a1)) for a1 in (mat_mul(r, s), mat_mul(s, r))]
            else:
                mats = []
                for d in (dl, dr):
                    a1, a2 = _commuting(rng, d)
                    while not all(map(any, a1)):
                        a1, a2 = _commuting(rng, d)
                    mats.append((a1, a2))
            pair = [random_2graph(rng, tag, *m) for tag, m in zip("pq", mats)]
            assert all(map(no_sources, pair))
            want = reference_sse_search(*pair, 1, entry_max)
            assert sse_search(*pair, 1, entry_max) == want
            outcomes.add("exhausted" if isinstance(want, ExhaustedBounds) else "lag 0" if not any(want.p) else "past")
    assert outcomes == {"exhausted", "lag 0", "past"}


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
            a1 = draw(square_matrices(draw(st.integers(1, 3))))
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
    assert {no_sources(g) for g in graphs.values()} == {True, False}
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

    monkeypatch.setattr(sse, "_degrees", no_walk)
    assert sse_search(g, copy, 1, 1) == want
    gamma, lam = fixture("sec3-Gamma"), fixture("sec3-Lambda")
    assert sse_search(gamma, lam, 1000, 1) == ExhaustedBounds(1000, 1)


SINK_BUDGET_S = 1.0


def test_sse_search_stops_the_walk_at_a_repeated_state():
    # both one-step matrices are [[1,0],[1,0]]: v0 has a loop and an edge
    # to the sink v1 in each color, so A_p = A_{e_1} for every p != 0. The
    # entries never pass a cap and neither color is a permutation, so only
    # the repeated (A_p, B_p) ends each coordinate's walk
    sink = random_2graph(random.Random(20261022), "s", [[1, 0], [1, 0]], [[1, 0], [1, 0]])
    gamma = fixture("sec3-Gamma")
    assert sse_search(sink, gamma, 4, 1) == reference_sse_search(sink, gamma, 4, 1)
    t0 = time.perf_counter()
    assert sse_search(sink, gamma, 100000, 1) == ExhaustedBounds(100000, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < SINK_BUDGET_S, f"took {elapsed:.2f}s, budget {SINK_BUDGET_S}s"


def test_sse_search_caps_its_unknowns(monkeypatch):
    # past lag 0 R and S have d * d' unknowns each; over SSE_MAX_UNKNOWNS
    # the search raises when the first degree needs them.
    # ex3.5-Lambda and -LambdaI have 3 and 4 vertices, and a large
    # entry_max finds the entry_max-1 witness
    lam, lam_i = fixture("ex3.5-Lambda"), fixture("ex3.5-LambdaI")
    want, back = sse_search(lam, lam_i, 1, 1), sse_search(lam_i, lam, 1, 1)
    assert want.p == (0, 1) and want.r == [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    assert isinstance(back, SSEWitness)
    for entry_max in (100, 1000, 99999999999999):
        assert sse_search(lam, lam_i, 1, entry_max) == want
        assert sse_search(lam, lam_i, 0, entry_max) == ExhaustedBounds(0, entry_max)
    # the cap admits exactly SSE_MAX_UNKNOWNS: 3 x 4 = 12 unknowns
    monkeypatch.setattr(sse, "SSE_MAX_UNKNOWNS", 12)
    assert sse_search(lam, lam_i, 1, 1) == want and sse_search(lam_i, lam, 1, 1) == back
    monkeypatch.setattr(sse, "SSE_MAX_UNKNOWNS", 11)
    with pytest.raises(KGraphError) as info:
        sse_search(lam, lam_i, 1, 1)
    assert str(info.value) == "3 x 4 = 12 unknowns in R and in S, over the cap of 11"
    with pytest.raises(KGraphError, match=r"^4 x 3 = 12 unknowns in R and in S, over the cap of 11$"):
        sse_search(lam_i, lam, 1, 1)
    # with no degree to walk nothing is set up and the search exhausts,
    # and lag 0 answers before the cap is read
    assert sse_search(lam, lam_i, 0, 1) == ExhaustedBounds(0, 1)
    lag_0 = sse_search(lam, lam, 1, 99999999999999)
    assert lag_0 == sse_search(lam, lam, 1, 1) and lag_0.p == (0, 0)
    assert SSE_MAX_UNKNOWNS == 5000


@pytest.mark.parametrize("star_left", [True, False])
def test_sse_search_answers_a_17_vertex_pair_under_the_cap(star_left):
    # the star (an edge from x0 into each of 17 vertices) is A = R S,
    # 1 = S R with R all ones and S = e_0: 17 unknowns each in R and S,
    # well under the cap
    star = validate_kgraph(Skeleton(1, *one_graph("x", [[1] + [0] * 16] * 17)), {})
    pair = (star, rose(1)) if star_left else (rose(1), star)
    found = sse_search(*pair, 1, 1)
    assert found.p == (1,) and intertwiner_check(*pair, found.r)


def _lag_0_witness(r, k=2):
    # the witness at p = 0 in rank k with this R: S = R^T
    return SSEWitness((0,) * k, r, [list(col) for col in zip(*r)])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_lag_0_matches_the_previous_search_on_products(n):
    # products of 16, 25 and 36 vertices against themselves and against a
    # relabelled copy with fresh squares: the same first permutation
    # intertwiner as the row search lag 0 ran before
    for seed in range(3):
        rng = random.Random(seed)
        g = product_graph(cycle_plus_permutation(rng, n), cycle_plus_permutation(rng, n))
        copy = _relabelled(rng, "q", (edge_matrix(g, 1), edge_matrix(g, 2)))
        for right in (g, copy):
            want = reference_lag_0(g, right, 1)
            assert want is not None
            assert sse_search(g, right, 0, 1) == _lag_0_witness(want), (n, seed)


def test_lag_0_matches_the_previous_search_on_the_catalog():
    # every catalog pair of one rank and one vertex count, self-pairs
    # included; at entry_max 0 no graph with a vertex has a lag-0 witness
    outcomes = set()
    for a, b in product(FIXTURE_NAMES, repeat=2):
        g_left, g_right = fixture(a), fixture(b)
        if g_left.rank != g_right.rank or len(g_left.vertices) != len(g_right.vertices):
            continue
        for entry_max in (0, 1):
            want = reference_lag_0(g_left, g_right, entry_max)
            got = sse_search(g_left, g_right, 0, entry_max)
            assert got == (ExhaustedBounds(0, entry_max) if want is None else _lag_0_witness(want)), (a, b)
            outcomes.add((a == b, entry_max, want is None))
    assert {(True, 1, False), (True, 0, True), (False, 1, True)} <= outcomes


def test_lag_0_compares_edge_multiplicities():
    # [[2, 1], [1, 2]] and [[1, 2], [2, 1]] have one support and the same
    # row and column sums, so only the edge multiplicities tell them
    # apart: no permutation carries one to the other
    g_left = validate_kgraph(Skeleton(1, *one_graph("x", [[2, 1], [1, 2]])), {})
    g_right = validate_kgraph(Skeleton(1, *one_graph("y", [[1, 2], [2, 1]])), {})
    assert reference_lag_0(g_left, g_right, 1) is None
    assert sse_search(g_left, g_right, 0, 1) == ExhaustedBounds(0, 1)
    assert sse_search(g_left, g_left, 0, 1) == _lag_0_witness(reference_lag_0(g_left, g_left, 1), k=1)


def _gram(r):
    # the nonzero entries of R R^T, from R's nonzero entries grouped by
    # column
    by_column = {}
    for a, row in enumerate(r):
        for c, x in enumerate(row):
            if x:
                by_column.setdefault(c, []).append((a, x))
    gram = {}
    for entries in by_column.values():
        for a, x in entries:
            for b, y in entries:
                gram[(a, b)] = gram.get((a, b), 0) + x * y
    return {key: x for key, x in gram.items() if x}


LAG_0_BUDGET_S = 5.0


@pytest.mark.parametrize("n", [8, 16, 32])
def test_lag_0_answers_large_products_within_a_budget(n):
    # products of 64, 256 and 1024 vertices against themselves and against
    # a copy with its vertex order shuffled: a permutation intertwiner at
    # p = 0, within a CPU budget
    rng = random.Random(n)
    g = product_graph(cycle_plus_permutation(rng, n), cycle_plus_permutation(rng, n))
    shuffled = list(g.vertices)
    rng.shuffle(shuffled)
    copy = validate_kgraph(Skeleton(2, tuple(shuffled), g.edges), g.squares)
    for right in (g, copy):
        t0 = time.process_time()
        found = sse_search(g, right, 1, 1)
        elapsed = time.process_time() - t0
        assert found.p == (0, 0) and found.s == [list(col) for col in zip(*found.r)]
        assert intertwiner_check(g, right, found.r)
        assert _gram(found.r) == {(a, a): 1 for a in range(n * n)}
        assert elapsed < LAG_0_BUDGET_S, f"took {elapsed:.2f}s of CPU, budget {LAG_0_BUDGET_S}s"


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

@pytest.mark.parametrize("name, a, b, equal", DEEP_SHIFTS)
def test_deep_shifts_are_decided(name, a, b, equal):
    g = fixture(name)
    ea, eb = unit_element(g, *a), unit_element(g, *b)
    assert dge_eq(g, ea, eb) == kill_push_dge_eq(g, ea, eb) == equal


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
        assert dge_eq(g, ea, eb) == dense_dge_eq(g, ea, eb)


# ------------------------------------------- random graphs, dense references

def _join(*shifts):
    return tuple(max(cs) for cs in zip(*shifts))


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
    a, b = data.draw(small_elements(g)), data.draw(small_elements(g))
    assert dge_eq(g, a, b) == dense_dge_eq(g, a, b)
    level = _join(a.n, b.n)
    assert dge_add(g, a, b) == DimElement(
        tuple(vec_add(dense_push(g, a, level), dense_push(g, b, level))), level
    )
    q_max = data.draw(st.integers(0, 3))
    assert positivity(g, a, q_max) == dense_positivity(g, a, q_max)
    m = generator_map(g, g, {v: data.draw(small_elements(g)) for v in g.vertices})
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


@pytest.mark.parametrize("name", STABLE_INDEX_GRAPHS)
def test_stable_index_matches_sympy_ranks(name):
    g = STABLE_INDEX_GRAPHS[name]()
    assert 0 <= g.stable_index == reference_stable_index(g) <= len(g.vertices)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_stable_index_matches_sympy_ranks_on_random_graphs(g):
    assert 0 <= g.stable_index == reference_stable_index(g) <= len(g.vertices)


def test_a_nilpotent_chain_is_pushed_to_its_full_index():
    g = nilpotent_chain()
    assert g.stable_index == 3
    top, zero = unit_element(g, "p0"), zero_element(g)
    assert dge_eq(g, top, zero) and kill_push_dge_eq(g, top, zero)
    assert edge_push(g, top.x, (2, 2)) == [0, 0, 1]
    assert positivity(g, dge_scale(-1, top), 0) == "unknown"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_in_sources_push_and_vertex_matrix_match_the_edge_list(data):
    """KGraph.in_sources against in_edges, push against edge_push on
    vectors with zero entries, and each one-step vertex_matrix against the
    edge counts, on graphs with and without sources (the nilpotent chain's
    last vertex receives no color-1 edge)."""
    g = data.draw(st.one_of(graphs(), st.just(nilpotent_chain())))
    d, idx = len(g.vertices), g.vertex_index
    for i in range(1, g.rank + 1):
        by_range = tuple(tuple(idx[e.src] for e in g.in_edges[v][i]) for v in g.vertices)
        assert g.in_sources[i - 1] == by_range
        assert vertex_matrix(g, unit_degree(g.rank, i)) == edge_matrix(g, i)
    x = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    x[data.draw(st.integers(0, d - 1))] = 0
    n = data.draw(st.tuples(*[st.integers(0, 3)] * g.rank))
    assert push(g, x, n) == edge_push(g, x, n)


def range_push(g, x, n):
    """Previous version of core.push: x * A_n by its step loop before it
    visited only the nonzero entries: every range row in turn, zero
    entries skipped."""
    y = list(x)
    for by_range, times in zip(g.in_sources, n):
        for _ in range(times):
            z = [0] * len(y)
            for c, srcs in zip(y, by_range):
                if c:
                    for s in srcs:
                        z[s] += c
            y = z
    return y


@st.composite
def push_vectors(draw, d):
    """A zero, sparse (one or two nonzero entries) or dense vector of
    length d, entries in -3..3."""
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    nonzero = st.integers(-3, 3).filter(bool)
    if kind == "dense":
        return draw(st.lists(nonzero, min_size=d, max_size=d))
    x = [0] * d
    if kind == "sparse":
        for t in draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=min(d, 2))):
            x[t] = draw(nonzero)
    return x


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_push_matches_dense_products(data):
    """core.push against x times the dense product A_n of one-step
    matrices counted from g.edges, and against the old range-row loop."""
    g = data.draw(ranked_graphs())
    x = data.draw(push_vectors(len(g.vertices)))
    n = data.draw(st.tuples(*[st.integers(0, 3)] * g.rank))
    assert push(g, x, n) == vec_mat(x, dense_matrix(g, n)) == range_push(g, x, n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stable_index_answers_match_the_full_power_reference(data):
    """dge_eq against kill_push_dge_eq, and positivity, hom_check,
    iso_check, apply_generator_map and pointed_check against the same
    functions deciding equality by kill_push_dge_eq in place of
    dimension._eq, the unchecked body of dge_eq, on pairs apart by a
    combination of left-kernel vectors of P^d (a nonzero one cancels) and
    on free pairs."""
    g = data.draw(st.one_of(graphs(), st.just(nilpotent_chain())))
    d, kernel = len(g.vertices), left_kernel(g)

    def cancelling():
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(kernel), max_size=len(kernel)))
        return [sum(c * v[t] for c, v in zip(coeffs, kernel)) for t in range(d)]

    a, c = data.draw(small_elements(g)), data.draw(small_elements(g))
    m = data.draw(st.tuples(*[st.integers(0, 2)] * g.rank))
    b = DimElement(tuple(vec_add(edge_push(g, a.x, m), cancelling())), tuple(s + t for s, t in zip(a.n, m)))
    assert dge_eq(g, a, b) and kill_push_dge_eq(g, a, b)
    for x, y in ((a, c), (b, c), (c, DimElement(tuple(cancelling()), c.n))):
        assert dge_eq(g, x, y) == kill_push_dge_eq(g, x, y)

    near_identity = generator_map(
        g, g, {v: dim_element(vec_add(unit_element(g, v).x, cancelling()), m) for v in g.vertices}
    )
    free = generator_map(g, g, {v: data.draw(small_elements(g)) for v in g.vertices})
    q_max = data.draw(st.integers(0, 3))

    def answers():
        return (
            [dimension.positivity(g, x, q_max) for x in (a, b, dge_scale(-1, b))],
            [dimension.hom_check(f) for f in (near_identity, free)],
            [dimension.iso_check(f, f) for f in (near_identity, free)],
            [dimension.apply_generator_map(f, b) for f in (near_identity, free)],
            [dimension.pointed_check(f) for f in (near_identity, free)],
        )

    got = answers()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dimension, "_eq", kill_push_dge_eq)
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
    g = product_graph(cycle_plus_permutation(rng, 16), cycle_plus_permutation(rng, 16))
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
