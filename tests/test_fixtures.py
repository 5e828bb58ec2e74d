"""The bundled catalog: validity, strictness, and pinned vertex matrices."""

from __future__ import annotations

from oracles import mat_mul

from kgraphs.constructions import FIXTURE_NAMES, fixture
from kgraphs.core import kgraph_violations, vertex_matrix


def test_all_fixtures_validate_strict():
    assert len(FIXTURE_NAMES) == 12
    for name in FIXTURE_NAMES:
        g = fixture(name)
        assert g.rank == 2
        assert g.strict
        assert kgraph_violations(g.skeleton, g.squares, strict=True) == []


def test_one_step_matrices_commute_everywhere():
    for name in FIXTURE_NAMES:
        g = fixture(name)
        a1 = vertex_matrix(g, (1, 0))
        a2 = vertex_matrix(g, (0, 1))
        assert mat_mul(a1, a2) == mat_mul(a2, a1)


def test_pinned_matrices():
    g = fixture("ex3.5-Lambda")
    assert g.vertices == ("u", "v", "w")
    assert vertex_matrix(g, (1, 0)) == [[2, 0, 0], [0, 2, 0], [0, 1, 0]]
    assert vertex_matrix(g, (0, 1)) == [[1, 0, 0], [2, 0, 0], [1, 0, 0]]

    gi = fixture("ex3.5-LambdaI")
    assert gi.vertices == ("u", "v^1", "v^2", "w")
    assert vertex_matrix(gi, (1, 0)) == [
        [2, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
    ]
    assert vertex_matrix(gi, (0, 1)) == [
        [1, 0, 0, 0],
        [1, 0, 0, 0],
        [1, 0, 0, 0],
        [1, 0, 0, 0],
    ]

    gs = fixture("ex3.5-LambdaS")
    assert vertex_matrix(gs, (1, 0)) == [[2]]
    assert vertex_matrix(gs, (0, 1)) == [[1]]

    lam = fixture("ex5.6-Lambda")
    assert vertex_matrix(lam, (1, 0)) == [[2]] and vertex_matrix(lam, (0, 1)) == [[2]]
    om = fixture("ex5.6-Omega")
    assert om.vertices == ("w", "v")
    assert vertex_matrix(om, (1, 0)) == [[0, 2], [2, 0]]
    assert vertex_matrix(om, (0, 1)) == [[0, 2], [2, 0]]

    om7 = fixture("ex5.7-Omega")
    assert vertex_matrix(om7, (1, 0)) == [[0, 2], [2, 0]]
    assert vertex_matrix(om7, (0, 1)) == [[1, 0], [0, 1]]

    sig = fixture("sec3-Sigma")
    assert vertex_matrix(sig, (1, 0)) == [[0, 1], [1, 0]]
    assert vertex_matrix(sig, (0, 1)) == [[0, 1], [1, 0]]
    slam = fixture("sec3-Lambda")
    assert vertex_matrix(slam, (1, 0)) == [[1]] and vertex_matrix(slam, (0, 1)) == [[1]]
    gam = fixture("sec3-Gamma")
    assert vertex_matrix(gam, (1, 0)) == [[0, 1], [1, 0]]
    assert vertex_matrix(gam, (0, 1)) == [[1, 0], [0, 1]]

    for name in ("ex7.1-Lambda1", "ex7.1-Lambda2"):
        g71 = fixture(name)
        assert vertex_matrix(g71, (1, 0)) == [[1]]
        assert vertex_matrix(g71, (0, 1)) == [[2]]


def test_insplit_catalog_edge_counts():
    gi = fixture("ex3.5-LambdaI")
    by_color = {1: 0, 2: 0}
    for e in gi.edges:
        by_color[e.color] += 1
    assert by_color == {1: 8, 2: 4}
    assert len(gi.vertices) == 4


def test_fixture_cache_returns_same_object():
    assert fixture("ex5.6-Lambda") is fixture("ex5.6-Lambda")
