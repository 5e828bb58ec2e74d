import math

import pytest

from kgraphs.constructions import fixture, grid, monoid_hom, pullback, rose
from kgraphs.core import Edge, Skeleton, unit_degree, validate_kgraph, vertex_matrix
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

def _one_graph(tag, a):
    # vertices tag0.., one edge per unit of a[r][c], from vertex c to vertex r
    vertices = tuple(f"{tag}{i}" for i in range(len(a)))
    edges = tuple(
        Edge(f"{tag}[{r},{c}]{t}", 1, vertices[c], vertices[r])
        for r, row in enumerate(a)
        for c, count in enumerate(row)
        for t in range(count)
    )
    return vertices, edges


def _product(a, b):
    """The cartesian product of the 1-graphs of a and b: color 1 moves in
    the first coordinate, color 2 in the second, and each pair of edges
    commutes in exactly one square."""
    vs1, e1 = _one_graph("x", a)
    vs2, e2 = _one_graph("y", b)
    vertices = tuple(f"{v}|{w}" for v in vs1 for w in vs2)
    edges = [Edge(f"{e.id}|{w}", 1, f"{e.src}|{w}", f"{e.rng}|{w}") for e in e1 for w in vs2]
    edges += [Edge(f"{v}|{f.id}", 2, f"{v}|{f.src}", f"{v}|{f.rng}") for v in vs1 for f in e2]
    squares = {
        (f"{e.id}|{f.rng}", f"{e.src}|{f.id}"): (f"{e.rng}|{f.id}", f"{e.id}|{f.src}")
        for e in e1
        for f in e2
    }
    return validate_kgraph(Skeleton(2, vertices, tuple(edges)), squares)


def _cyclic_orders(a):
    # coker(1 - a) as a list of cyclic orders, 0 for a copy of Z
    n = len(a)
    diag = snf_diagonal([[(r == c) - a[r][c] for c in range(n)] for r in range(n)])
    return [t for t in diag if t != 1]


def _invariants(orders):
    n = len(orders)
    diag = snf_diagonal([[orders[r] if r == c else 0 for c in range(n)] for r in range(n)]) if n else []
    return AbelianInvariants(diag.count(0), tuple(t for t in diag if t > 1))


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
    # H0 = coker(1 - A_1^t, 1 - A_2^t) (Farsi-Kumjian-Pask-Sims 2019); on a
    # product A_1 = a (x) 1 and A_2 = 1 (x) b, so by right exactness H0 is
    # coker(1 - a^t) (x) coker(1 - b^t), and Z/s (x) Z/t = Z/gcd(s, t)
    tensor = [math.gcd(s, t) for s in _cyclic_orders(a) for t in _cyclic_orders(b)]
    assert h0(_product(a, b)) == _invariants(tensor)
