"""Graded dimension group: equality decision against a brute-force oracle,
generator maps for the moves, intertwiners and SSE search."""

import random
from itertools import product

import pytest

from kgraphs.constructions import fixture, rose
from kgraphs.core import vertex_matrix
from kgraphs.dimension import (
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
    hom_from_matrix,
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
from kgraphs.intmat import mat_eq, mat_mul, vec_mat
from kgraphs.moves import (
    enumerate_valid_partitions,
    insplit,
    phi_insplit,
    phi_sink_delete,
    psi_insplit,
    sink_delete,
    sink_delete_witnesses,
)


def dge_eq_oracle(g, a, b):
    """Search all levels within 2*d of the join for a common representative;
    the kernel chain argument makes this range sufficient."""
    d = len(g.vertices)
    join = tuple(max(x, y) for x, y in zip(a.n, b.n))
    for off in product(range(2 * d + 1), repeat=g.rank):
        level = tuple(j + o for j, o in zip(join, off))
        xa = vec_mat(list(a.x), vertex_matrix(g, tuple(l - c for l, c in zip(level, a.n))))
        xb = vec_mat(list(b.x), vertex_matrix(g, tuple(l - c for l, c in zip(level, b.n))))
        if xa == xb:
            return True
    return False


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
        b = DimElement(tuple(vec_mat(list(x), vertex_matrix(g, m))), tuple(u + v for u, v in zip(n, m)))
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
    assert mat_eq(mat_mul(w.r, w.s), a_p)
    assert mat_eq(mat_mul(w.s, w.r), b_p)
    assert intertwiner_check(lam, lam_i, w.r)


def test_sse_exhausts():
    assert sse_search(fixture("sec3-Lambda"), fixture("sec3-Sigma"), 1, 1) == ExhaustedBounds(1, 1)
    assert sse_search(fixture("ex5.6-Lambda"), fixture("ex5.6-Omega"), 1, 2) == ExhaustedBounds(1, 2)
    with pytest.raises(DimensionMismatch):
        sse_search(rose(2), fixture("sec3-Lambda"), 1, 1)


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
