"""Grids, roses, pullbacks, skew-product windows, monoid maps."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from test_core import reference_factor, reference_normalize, reference_paths_of_degree, reference_segment
from test_dimension import graphs

from kgraphs.constructions import (
    FIXTURE_NAMES,
    EmptyWindow,
    UnknownFixture,
    fixture,
    grid,
    hom_apply,
    hom_surjective,
    monoid_hom,
    pullback,
    rose,
    skew_product_window,
)
from kgraphs.core import Edge, Skeleton, validate_kgraph, vertex_matrix, zero_degree
from kgraphs.paths import Path, factor_word, path_degree, path_source, paths_of_degree
from kgraphs.textform import dump_kgraph


def test_grid_counts():
    g = grid(1, (3,))
    assert len(g.vertices) == 4 and len(g.edges) == 3
    g = grid(3, (2, 2, 2))
    assert len(g.vertices) == 27 and len(g.edges) == 54
    g = grid(2, (0, 0))
    assert len(g.vertices) == 1 and len(g.edges) == 0
    assert not g.strict


def test_grid_unique_path_between_comparable_vertices():
    for k, n in ((2, (2, 2)), (3, (1, 1, 1)), (3, (2, 1, 2))):
        g = grid(k, n)
        degrees = [
            tuple(q)
            for q in __import__("itertools").product(*(range(c + 1) for c in n))
        ]
        for d in degrees:
            a = vertex_matrix(g, d)
            for ui, u in enumerate(g.vertices):
                for wi, w in enumerate(g.vertices):
                    qu = tuple(int(x) for x in u.strip("()").split(","))
                    qw = tuple(int(x) for x in w.strip("()").split(","))
                    expected = 1 if tuple(a2 - a1 for a1, a2 in zip(qu, qw)) == d else 0
                    assert a[ui][wi] == expected


def test_rose_basic():
    g = rose(4)
    assert g.rank == 1 and g.strict
    assert len(g.edges) == 4
    with pytest.raises(ValueError):
        rose(0)


def test_monoid_hom_apply_and_surjectivity():
    f = monoid_hom([(1, 0), (0, 1), (1, 1)], 2)
    assert f.source_rank == 3 and f.target_rank == 2
    assert hom_apply(f, (1, 2, 3)) == (4, 5)
    assert hom_surjective(f)
    assert hom_surjective(monoid_hom([(1,), (0,)], 1))
    assert not hom_surjective(monoid_hom([(2,)], 1))
    assert not hom_surjective(monoid_hom([(1, 1), (1, 0)], 2))
    assert not hom_surjective(monoid_hom([(1, 0)], 2))
    with pytest.raises(ValueError):
        monoid_hom([(1, -1)], 2)


def test_pullback_vertex_matrices_match_composite_degrees():
    cases = [
        (rose(2), monoid_hom([(1,), (0,)], 1)),
        (fixture("ex5.7-Lambda"), monoid_hom([(1, 0), (0, 1), (1, 1)], 2)),
        (fixture("sec3-Sigma"), monoid_hom([(0, 1), (1, 0)], 2)),
    ]
    for g, f in cases:
        pb = pullback(g, f)
        assert pb.rank == f.source_rank
        assert pb.vertices == g.vertices
        for a in range(1, f.source_rank + 1):
            lhs = vertex_matrix(pb, tuple(1 if i == a - 1 else 0 for i in range(pb.rank)))
            assert lhs == vertex_matrix(g, f.images[a - 1])


def test_pullback_of_rose_adds_a_lazy_color():
    # images (1) and (0): color 1 copies the loops, color 2 is one vertex loop
    pb = pullback(rose(3), monoid_hom([(1,), (0,)], 1))
    assert pb.rank == 2
    by_color = {1: 0, 2: 0}
    for e in pb.edges:
        by_color[e.color] += 1
    assert by_color == {1: 3, 2: 1}
    assert pb.strict
    assert len(paths_of_degree(pb, "u", (1, 1))) == 3


def test_pullback_along_identity_keeps_matrices():
    g = fixture("ex3.5-Lambda")
    f = monoid_hom([(1, 0), (0, 1)], 2)
    pb = pullback(g, f)
    assert vertex_matrix(pb, (1, 0)) == vertex_matrix(g, (1, 0))
    assert vertex_matrix(pb, (0, 1)) == vertex_matrix(g, (0, 1))
    assert len(pb.edges) == len(g.edges)


def two_segment_pullback(g, f):
    """Reference pullback: each square's value read off the composite by
    two segment calls, one per side, all through the test-side oracles."""

    def eid(color, p):
        return f"c{color}[{'.'.join(p.edges) if p.edges else p.rng}]"

    edges, path_of = [], {}
    for a in range(1, f.source_rank + 1):
        for v in g.vertices:
            for p in reference_paths_of_degree(g, v, f.images[a - 1]):
                edges.append(Edge(eid(a, p), a, path_source(g, p), p.rng))
                path_of[edges[-1].id] = p
    squares = {}
    for e1 in edges:
        for e2 in edges:
            if e1.color < e2.color and e1.src == e2.rng:
                lam, mu = path_of[e1.id], path_of[e2.id]
                tau = Path(lam.rng, reference_normalize(g, lam.edges + mu.edges))
                deg_b = f.images[e2.color - 1]
                mu2 = reference_segment(g, tau, zero_degree(g.rank), deg_b)
                lam2 = reference_segment(g, tau, deg_b, path_degree(g, tau))
                squares[(e1.id, e2.id)] = (eid(e2.color, mu2), eid(e1.color, lam2))
    return validate_kgraph(Skeleton(f.source_rank, g.vertices, tuple(edges)), squares, strict=g.strict)


PULLBACK_IMAGES = ([(1, 0), (0, 1), (1, 1)], [(2, 1), (0, 1)], [(0, 0), (1, 1)], [(1, 1), (1, 0), (0, 2)])


def assert_pullbacks_match_reference(g):
    for images in PULLBACK_IMAGES:
        f = monoid_hom(images, 2)
        assert dump_kgraph(pullback(g, f)) == dump_kgraph(two_segment_pullback(g, f))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_pullback_matches_two_segment_reference_on_fixtures(name):
    assert_pullbacks_match_reference(fixture(name))


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_pullback_matches_two_segment_reference_on_random_graphs(g):
    assert_pullbacks_match_reference(g)


@pytest.mark.parametrize("name", ["ex4.7-n2", "ex4.7-n3", "ex4.7-n4"])
def test_pullback_matches_two_segment_reference_on_generated_fixtures(name):
    assert_pullbacks_match_reference(fixture(name))


def test_pullback_of_a_rank_3_pullback_matches_two_segment_reference():
    # its squares pull edges past both smaller and larger colors
    g = pullback(fixture("ex3.5-Lambda"), monoid_hom([(1, 0), (0, 1), (1, 1)], 2))
    f = monoid_hom([(1, 0, 0), (0, 1, 1), (1, 1, 0)], 3)
    assert dump_kgraph(pullback(g, f)) == dump_kgraph(two_segment_pullback(g, f))


def assert_swaps_match_compose_factor(g, degrees):
    """factor_word on the word lam + mu, as pullback calls it, against the
    test-side route: normalize the whole composite by descent swaps, then
    peel mu2's edges off its front."""
    for deg_a, deg_b in product(degrees, repeat=2):
        for v in g.vertices:
            for lam in paths_of_degree(g, v, deg_a):
                for mu in paths_of_degree(g, path_source(g, lam), deg_b):
                    tau = Path(v, reference_normalize(g, lam.edges + mu.edges))
                    mu2, lam2 = reference_factor(g, tau, deg_b)
                    assert factor_word(g, lam.edges + mu.edges, deg_b) == (mu2.edges, lam2.edges)


SWAP_DEGREES = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (0, 2)]


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "ex4.7-n3"])
def test_swaps_match_compose_factor_on_fixtures(name):
    assert_swaps_match_compose_factor(fixture(name), SWAP_DEGREES)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_swaps_match_compose_factor_on_random_graphs(g):
    assert_swaps_match_compose_factor(g, SWAP_DEGREES[:4])


def test_swaps_match_compose_factor_on_a_rank_3_pullback():
    # three colors, so a word can hold colors both above and below the
    # one pulled to the front, and the cube condition is not vacuous
    g = pullback(fixture("ex3.5-Lambda"), monoid_hom([(1, 0), (0, 1), (1, 1)], 2))
    degrees = [(1, 0, 0), (0, 1, 1), (1, 0, 1), (0, 0, 1), (1, 1, 1)]
    assert_swaps_match_compose_factor(g, degrees)


def test_pullback_rank_mismatch():
    with pytest.raises(ValueError):
        pullback(rose(2), monoid_hom([(1, 0)], 2))


def test_skew_window_counts_and_validity():
    g = fixture("sec3-Lambda")
    w = skew_product_window(g, (0, 0), (2, 2))
    assert len(w.vertices) == 9
    assert not w.strict
    by_color = {1: 0, 2: 0}
    for e in w.edges:
        by_color[e.color] += 1
    # positions m with m + e_i still inside the 3x3 box
    assert by_color == {1: 6, 2: 6}
    gr = grid(2, (2, 2))
    gc = {1: 0, 2: 0}
    for e in gr.edges:
        gc[e.color] += 1
    assert gc == by_color and len(gr.vertices) == len(w.vertices)


def test_skew_window_vertex_count_formula():
    g = fixture("ex5.6-Omega")
    w = skew_product_window(g, (-1, 0), (1, 1))
    assert len(w.vertices) == len(g.vertices) * 3 * 2


def test_skew_window_empty():
    g = fixture("sec3-Lambda")
    with pytest.raises(EmptyWindow):
        skew_product_window(g, (0, 0), (-1, 2))
    # a single-position window is fine but has no edges
    w = skew_product_window(g, (1, 1), (1, 1))
    assert len(w.vertices) == 1 and len(w.edges) == 0


def test_fixture_unknown_name():
    with pytest.raises(UnknownFixture):
        fixture("nope")
