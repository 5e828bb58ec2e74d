import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cycle_plus_permutation, no_sources, product_graph, product_h0, random_2graph, square_matrices

from kgraphs.constructions import FIXTURE_NAMES, fixture, grid, monoid_hom, pullback, rose
from kgraphs.core import Skeleton, unit_degree, validate_kgraph, vertex_matrix
from kgraphs.homology import (
    AbelianInvariants,
    NotStrict,
    NotSurjective,
    h0,
    h0_pullback_compare,
    h0gr_presentation,
    rho_pullback_check,
)
from kgraphs.intmat import snf_diagonal

COLLAPSE_FIRST = monoid_hom([(1,), (0,)], 1)


# ------------------------------------------------------------------------ h0

def test_h0_rose_chain():
    assert h0(rose(1)) == AbelianInvariants(1, ())
    assert h0(rose(2)) == AbelianInvariants(0, ())
    for n in range(3, 7):
        assert h0(rose(n)) == AbelianInvariants(0, (n - 1,))


def test_h0_rank2_pullback_chain():
    # The rank-2 roses obtained by pulling back along (a, b) -> a keep the
    # cyclic answer Z/(n-1).
    for n in range(2, 7):
        assert h0(pullback(rose(n), COLLAPSE_FIRST)) == h0(rose(n))


def test_h0_catalog_values():
    assert h0(fixture("sec3-Lambda")) == AbelianInvariants(1, ())
    assert h0(fixture("sec3-Sigma")) == AbelianInvariants(1, ())
    assert h0(fixture("sec3-Gamma")) == AbelianInvariants(1, ())
    assert h0(fixture("ex3.5-Lambda")) == AbelianInvariants(0, ())
    assert h0(fixture("ex3.5-LambdaS")) == AbelianInvariants(0, ())
    assert h0(fixture("ex3.5-LambdaI")) == AbelianInvariants(0, ())
    # w = 2v and v = 2w force 3v = 0.
    assert h0(fixture("ex5.6-Omega")) == AbelianInvariants(0, (3,))
    assert h0(fixture("ex5.7-Omega")) == AbelianInvariants(0, (3,))


def test_h0_invariant_under_insplit_and_sink_delete():
    # ex3.5's three graphs are one graph up to moves; h0 agrees.
    vals = {h0(fixture(n)) for n in ("ex3.5-Lambda", "ex3.5-LambdaS", "ex3.5-LambdaI")}
    assert len(vals) == 1


def test_h0_vertex_permutation_invariance():
    for name in ("ex3.5-Lambda", "sec3-Sigma", "ex5.6-Omega"):
        g = fixture(name)
        sk = g.skeleton
        permuted = validate_kgraph(
            Skeleton(sk.rank, tuple(reversed(sk.vertices)), sk.edges),
            g.squares,
            strict=g.strict,
        )
        assert h0(permuted) == h0(g)


def test_h0_rejects_graphs_with_sources():
    with pytest.raises(NotStrict):
        h0(grid(2, (2, 2)))
    with pytest.raises(NotStrict):
        h0(grid(1, (3,)))


def test_h0_accepts_source_free_graph_flagged_nonstrict():
    strict = fixture("sec3-Lambda")
    g = validate_kgraph(strict.skeleton, strict.squares, strict=False)
    assert h0(g) == AbelianInvariants(1, ())


# ------------------------------------------------------- pullback comparison

def test_h0_pullback_compare_rose_chain():
    for n in range(2, 7):
        assert h0_pullback_compare(rose(n), COLLAPSE_FIRST)


def test_h0_pullback_compare_identity_hom():
    ident2 = monoid_hom([(1, 0), (0, 1)], 2)
    for name in ("ex3.5-Lambda", "sec3-Sigma", "ex5.6-Omega"):
        assert h0_pullback_compare(fixture(name), ident2)


def test_h0_pullback_compare_collapsing_rank3_hom():
    f = monoid_hom([(1,), (1,), (0,)], 1)
    assert h0_pullback_compare(rose(3), f)
    assert h0(pullback(rose(3), f)) == AbelianInvariants(0, (2,))


def test_h0_pullback_compare_padded_rank3_hom():
    # An extra color mapping to degree 0 contributes zero relation rows.
    f = monoid_hom([(1, 0), (0, 1), (0, 0)], 2)
    assert h0_pullback_compare(fixture("ex3.5-Lambda"), f)
    assert h0_pullback_compare(fixture("ex5.6-Omega"), f)


def test_h0_pullback_compare_needs_surjective():
    with pytest.raises(NotSurjective):
        h0_pullback_compare(rose(2), monoid_hom([(2,)], 1))
    with pytest.raises(NotSurjective):
        h0_pullback_compare(fixture("sec3-Sigma"), monoid_hom([(1, 1)], 2))


# ------------------------------------------------------- degree collapsing map

def test_rho_pullback_check_rose():
    assert rho_pullback_check(rose(2), COLLAPSE_FIRST)
    assert rho_pullback_check(rose(5), COLLAPSE_FIRST)


def test_rho_pullback_check_identity():
    ident2 = monoid_hom([(1, 0), (0, 1)], 2)
    for name in ("ex3.5-Lambda", "sec3-Sigma", "ex5.7-Omega"):
        assert rho_pullback_check(fixture(name), ident2)


def test_rho_pullback_check_matches_catalog_rank2_rose():
    # pullback(rose(2), (a, b) -> a) has the same vertex matrices as
    # ex3.5-LambdaS, so the collapsing map is the one the catalog suggests.
    pb = pullback(rose(2), COLLAPSE_FIRST)
    lam_s = fixture("ex3.5-LambdaS")
    for i in (1, 2):
        assert vertex_matrix(pb, unit_degree(2, i)) == vertex_matrix(
            lam_s, unit_degree(2, i)
        )
    assert rho_pullback_check(rose(2), COLLAPSE_FIRST)


def test_rho_pullback_check_collapsing_rank3_hom():
    assert rho_pullback_check(rose(3), monoid_hom([(1,), (1,), (0,)], 1))
    assert rho_pullback_check(fixture("ex5.6-Lambda"), monoid_hom([(1, 0), (0, 1), (1, 1)], 2))


def test_rho_pullback_check_needs_surjective():
    with pytest.raises(NotSurjective):
        rho_pullback_check(rose(2), monoid_hom([(2,)], 1))


# ------------------------------------------------------------ graded surface

def test_h0gr_presentation_examples():
    mats, r = h0gr_presentation(fixture("ex3.5-LambdaS"))
    assert mats == ([[2]], [[1]])
    assert r == 1

    mats, r = h0gr_presentation(rose(1))
    assert mats == ([[1]],)
    assert r == 1

    mats, r = h0gr_presentation(fixture("sec3-Sigma"))
    assert mats == ([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    assert r == 2


def test_h0gr_presentation_returns_the_one_step_matrices():
    g = fixture("ex5.6-Omega")
    mats, r = h0gr_presentation(g)
    assert mats == tuple(vertex_matrix(g, unit_degree(g.rank, i)) for i in (1, 2))
    assert r == 2


# --------------------------------------------------- h0 of a product 2-graph

@pytest.mark.parametrize(
    "a, b",
    [
        ([[3]], [[5]]),
        ([[3]], [[4]]),
        ([[0, 1], [1, 0]], [[3]]),
        ([[2, 1], [1, 2]], [[0, 1], [1, 0]]),
        ([[1, 2], [1, 0]], [[3, 0], [0, 3]]),
        ([[1, 1], [1, 1]], [[5]]),
    ],
)
def test_h0_of_product_is_tensor_of_factors(a, b):
    assert h0(product_graph(a, b)) == product_h0(a, b)


def test_h0_of_a_256_vertex_product_is_tensor_of_factors():
    rng = random.Random(11)
    a, b = cycle_plus_permutation(rng, 16), cycle_plus_permutation(rng, 16)
    g = product_graph(a, b)
    t0 = time.perf_counter()
    got = h0(g)
    elapsed = time.perf_counter() - t0
    assert got == product_h0(a, b)
    # the dense Smith normal form of the 512 x 256 relations took ~2 s
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


# ------------------------------------------- sparse h0 against the dense path

def reference_h0(g):
    """h0 as a Smith normal form of the stacked k.d x d relation matrix,
    rows 1 - A_{e_i} built from the dense vertex matrices."""
    d = len(g.vertices)
    rows = []
    for i in range(1, g.rank + 1):
        a = vertex_matrix(g, unit_degree(g.rank, i))
        rows += [[(r == c) - a[r][c] for c in range(d)] for r in range(d)]
    diag = snf_diagonal(rows)
    return AbelianInvariants(d - sum(1 for t in diag if t != 0), tuple(t for t in diag if t > 1))


def _agrees_with_reference(g):
    if no_sources(g):
        assert h0(g) == reference_h0(g)
    else:
        with pytest.raises(NotStrict):
            h0(g)


@st.composite
def commuting_2graphs(draw):
    """A random 2-graph on 1-3 vertices whose color-2 matrix is
    c0 + c1 a + c2 a^2 for its color-1 matrix a; sources allowed."""
    n = draw(st.integers(1, 3))
    a = draw(square_matrices(n))
    c0, c1, c2 = draw(st.tuples(*[st.integers(0, 1)] * 3))
    a2 = [[sum(a[r][t] * a[t][c] for t in range(n)) for c in range(n)] for r in range(n)]
    b = [[c0 * (r == c) + c1 * a[r][c] + c2 * a2[r][c] for c in range(n)] for r in range(n)]
    return random_2graph(random.Random(draw(st.integers(0, 2**32))), "p", a, b)


@settings(max_examples=80, deadline=None)
@given(commuting_2graphs())
def test_h0_matches_the_dense_reference_on_random_2graphs(g):
    _agrees_with_reference(g)


_STRICT_SQUARES = st.integers(1, 4).flatmap(lambda n: square_matrices(n, 1, st.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(_STRICT_SQUARES, _STRICT_SQUARES)
def test_h0_matches_the_dense_reference_on_products(a, b):
    g = product_graph(a, b)
    assert h0(g) == reference_h0(g) == product_h0(a, b)


def test_h0_matches_the_dense_reference_on_every_fixture():
    for name in FIXTURE_NAMES:
        _agrees_with_reference(fixture(name))


def test_h0_matches_the_dense_reference_on_roses_and_pullbacks():
    # rose(1): every relation is zero, so H0 is Z; rose(2): trivial;
    # rose(n): cyclic torsion Z/(n-1)
    for n in range(1, 8):
        for g in (rose(n), pullback(rose(n), COLLAPSE_FIRST)):
            assert h0(g) == reference_h0(g)
    assert reference_h0(rose(1)) == AbelianInvariants(1, ())
    assert reference_h0(rose(2)) == AbelianInvariants(0, ())
    f = monoid_hom([(1, 0), (0, 1), (1, 1)], 2)
    for name in ("ex3.5-Lambda", "ex5.6-Omega", "ex5.7-Omega", "sec3-Sigma"):
        g = pullback(fixture(name), f)
        assert h0(g) == reference_h0(g)
