"""Flip families: coherence routes, search, path extension, and the
rank-(k+1) graph as an independent coherence oracle."""

import random
import time
from functools import cache
from itertools import permutations
from math import factorial, prod

import pytest
from oracles import (
    G_V, G_W, INSPLIT_PAIR_SIZES, all_16_families, coherent_57_family, complete_product,
    cycle_plus_permutation, displayed_56_family, insplit_pair, mat_mul,
    product_graph, random_2graph, random_family, reference_upper_squares,
)

from kgraphs import bridging
from kgraphs.bridging import (
    POLY_MAX_EDGES,
    BridgingPair,
    CoherenceWitness,
    Exhausted,
    IncoherentPair,
    NotIntertwining,
    ShapeMismatch,
    _flip_blocks,
    _iter_triples,
    bridging_graph,
    bridging_search,
    check_flip_family,
    coherence_check,
    compose_poly,
    coordinate_polymorphism,
    extend_flip,
    identity_polymorphism,
    morph_apply,
    poly_matrix,
    polymorphism_from_matrix,
)
from kgraphs.constructions import FIXTURE_NAMES, fixture, monoid_hom, pullback, rose
from kgraphs.core import InvalidKGraph, KGraphError, NotComposable, validate_kgraph
from kgraphs.paths import Path, compose, make_path, paths_of_degree, segment, vertex_path
from kgraphs.dimension import DimensionMismatch, dge_eq, dge_shift, unit_element
from kgraphs.homology import h0
from kgraphs.sse import intertwiner_check

LAM56 = fixture("ex5.6-Lambda")
OM56 = fixture("ex5.6-Omega")
LAM57 = fixture("ex5.7-Lambda")
OM57 = fixture("ex5.7-Omega")


# ------------------------------------------------------------- polymorphisms

def test_polymorphism_from_matrix():
    p = polymorphism_from_matrix(LAM56, OM56, [[1, 1]])
    assert [e.id for e in p.edges] == [G_W, G_V]
    assert p.edges[0].rng == "u" and p.edges[0].src == "w"
    assert poly_matrix(p) == [[1, 1]]
    assert polymorphism_from_matrix(LAM56, OM56, [[0, 0]]).edges == ()
    q = polymorphism_from_matrix(LAM56, OM56, [[2, 3]])
    assert len(q.edges) == 5
    with pytest.raises(ShapeMismatch):
        polymorphism_from_matrix(LAM56, OM56, [[1]])
    with pytest.raises(ShapeMismatch):
        polymorphism_from_matrix(LAM56, OM56, [[1, -1]])


@pytest.mark.parametrize("color", [1.5, True, "1", 0, 3])
def test_coordinate_polymorphism_takes_only_an_int_color_in_range(color):
    # 1.5 once gave an empty polymorphism
    with pytest.raises(KGraphError, match="color"):
        coordinate_polymorphism(fixture("ex3.5-Lambda"), color)


def test_polymorphism_is_capped_before_it_is_built():
    half = POLY_MAX_EDGES // 2
    poly = polymorphism_from_matrix(LAM56, OM56, [[half, POLY_MAX_EDGES - half]])
    assert len(poly.edges) == POLY_MAX_EDGES
    with pytest.raises(KGraphError, match="over the cap"):
        polymorphism_from_matrix(LAM56, OM56, [[half, POLY_MAX_EDGES - half + 1]])
    with pytest.raises(KGraphError, match="over the cap"):
        polymorphism_from_matrix(LAM56, OM56, [[10**12, -(10**12)]])
    # wherever each sits in R: a wrong shape first, then the cap, then the
    # first negative entry
    lam = fixture("ex3.5-Lambda")
    with pytest.raises(ShapeMismatch, match="matrix must be 3x3"):
        polymorphism_from_matrix(lam, lam, [[-1, 10**12, 0], [0, 0, 0], [0, 0]])
    with pytest.raises(KGraphError, match="over the cap"):
        polymorphism_from_matrix(lam, lam, [[0, -1, 0], [0, -2, 0], [0, 0, 10**12]])
    with pytest.raises(ShapeMismatch, match=r"negative entry at \(u, v\)"):
        polymorphism_from_matrix(lam, lam, [[0, -1, 0], [0, -2, 0], [0, 0, 1]])


def test_compose_poly():
    e_r = polymorphism_from_matrix(LAM56, OM56, [[1, 1]])
    e_1 = coordinate_polymorphism(LAM56, 1)
    comp = compose_poly(e_1, e_r)
    assert len(comp.edges) == 4
    assert poly_matrix(comp) == [[2, 2]]
    ident = identity_polymorphism(tuple(OM56.vertices))
    assert poly_matrix(compose_poly(e_r, ident)) == [[1, 1]]
    with pytest.raises(NotComposable):
        compose_poly(e_r, e_1)
    rng = random.Random(11)
    for _ in range(20):
        a = [[rng.randint(0, 2) for _ in range(2)]]
        pa = polymorphism_from_matrix(LAM56, OM56, a)
        pb = compose_poly(pa, coordinate_polymorphism(OM56, 2))
        assert poly_matrix(pb) == mat_mul(a, [[0, 2], [2, 0]])


def test_flip_family_validation():
    check_flip_family(LAM57, OM57, coherent_57_family())
    pair = coherent_57_family()
    broken = {1: dict(pair.flips[1]), 2: dict(pair.flips[2])}
    broken[1][("f1", G_W)] = (G_V, "alpha2")  # duplicate value
    with pytest.raises(ValueError):
        check_flip_family(LAM57, OM57, BridgingPair([[1, 1]], broken))
    swapped = {1: dict(pair.flips[1]), 2: dict(pair.flips[2])}
    swapped[2][("e", G_W)] = (G_V, "gamma2")  # moves the source endpoint
    swapped[2][("e", G_V)] = (G_W, "gamma1")
    with pytest.raises(ValueError):
        check_flip_family(LAM57, OM57, BridgingPair([[1, 1]], swapped))
    with pytest.raises(ValueError):
        check_flip_family(LAM57, OM57, BridgingPair([[1, 1]], {1: pair.flips[1]}))
    # one loop against two over R = [1]: the one key has a valid value, but
    # the codomain has two pairs, so R does not intertwine
    one_of_two = BridgingPair([[1]], {1: {("c1", "g1[u,u]"): ("g1[u,u]", "c1")}})
    assert not reference_accepts(rose(1), rose(2), one_of_two)
    with pytest.raises(ValueError, match="codomain of 2"):
        check_flip_family(rose(1), rose(2), one_of_two)


def test_flip_family_needs_one_rank_and_its_colors():
    g = rose(2)
    flips = {1: {("c1", "g1[u,u]"): ("g1[u,u]", "c1"), ("c2", "g1[u,u]"): ("g1[u,u]", "c2")}}
    check_flip_family(g, g, BridgingPair([[1]], flips))
    with pytest.raises(DimensionMismatch, match="different ranks"):
        check_flip_family(g, fixture("ex4.7-n2"), BridgingPair([[1]], flips))
    with pytest.raises(KGraphError, match="colors 1..1"):
        check_flip_family(g, g, BridgingPair([[1]], {**flips, 2: {}}))
    with pytest.raises(KGraphError, match="colors 1..2"):
        check_flip_family(LAM57, OM57, BridgingPair([[1, 1]], {1: coherent_57_family().flips[1]}))


def reference_accepts(g_lam, g_om, pair):
    """The flip-family check one whole color at a time: f_i is defined on
    exactly the composable color-i pairs, is a bijection onto the color-i
    codomain, and every image is composable and keeps both endpoints."""
    poly = polymorphism_from_matrix(g_lam, g_om, pair.r)
    by_id = {e.id: e for e in poly.edges}
    for i in range(1, g_lam.rank + 1):
        f = pair.flips.get(i)
        if f is None:
            return False
        domain = [
            (lam.id, g.id)
            for lam in g_lam.edges
            if lam.color == i
            for g in poly.edges
            if g.rng == lam.src
        ]
        codomain = [
            (g.id, om.id)
            for g in poly.edges
            for om in g_om.edges
            if om.color == i and om.rng == g.src
        ]
        values = list(f.values())
        if set(f) != set(domain) or len(set(values)) != len(values) or set(values) != set(codomain):
            return False
        for (lam_id, g_id), (g2_id, om_id) in f.items():
            lam, g = g_lam.by_id[lam_id], by_id[g_id]
            g2, om = by_id[g2_id], g_om.by_id[om_id]
            if g2.src != om.rng or lam.rng != g2.rng or g.src != om.src:
                return False
    return True


def corrupted_families(rng, g_lam, g_om, pair):
    """Copies of pair with two images swapped across blocks, a key
    dropped, a key added, and a value duplicated."""
    blocks = reference_flip_blocks(g_lam, g_om, polymorphism_from_matrix(g_lam, g_om, pair.r))
    keyed = [(i, dom) for i, dom, _ in blocks if dom]

    def copy():
        return {i: dict(f) for i, f in pair.flips.items()}

    if len(keyed) >= 2:
        (i, dom_i), (j, dom_j) = rng.sample(keyed, 2)
        a, b = rng.choice(dom_i), rng.choice(dom_j)
        swapped = copy()
        swapped[i][a], swapped[j][b] = pair.flips[j][b], pair.flips[i][a]
        yield swapped
    i = rng.choice([i for i, f in pair.flips.items() if f])
    key = rng.choice(sorted(pair.flips[i]))
    dropped = copy()
    del dropped[i][key]
    yield dropped
    added = copy()
    added[i][("stray", key[1])] = pair.flips[i][key]
    yield added
    if len(pair.flips[i]) >= 2:
        a, b = rng.sample(sorted(pair.flips[i]), 2)
        duplicated = copy()
        duplicated[i][a] = pair.flips[i][b]
        yield duplicated


def malformed_families(rng, g_lam, g_om, pair):
    """Copies of pair with one entry made malformed: a value that is not a
    pair, an unknown id in a key or a value, a value that is not
    composable, a key of another color, and a value swapped with one from
    another block of the same color."""

    def with_entry(i, key, value):
        flips = {c: dict(f) for c, f in pair.flips.items()}
        flips[i][key] = value
        return flips

    keyed = [i for i, f in pair.flips.items() if f]
    i = rng.choice(keyed)
    key = rng.choice(sorted(pair.flips[i]))
    g2, om = value = pair.flips[i][key]
    yield with_entry(i, key, value + (om,))
    yield with_entry(i, key, g2)
    yield with_entry(i, key, (g2, "stray"))
    yield with_entry(i, key, ("g9[stray,stray]", om))
    yield with_entry(i, (key[0], "g9[stray,stray]"), value)
    # an omega of color i that does not start where g2 ends
    loose = [e.id for e in g_om.edges if e.color == i and e.rng != g_om.by_id[om].rng]
    if loose:
        yield with_entry(i, key, (g2, rng.choice(loose)))
    other = [c for c in keyed if c != i]
    if other:
        j = rng.choice(other)
        yield with_entry(j, key, rng.choice(list(pair.flips[j].values())))
    poly = polymorphism_from_matrix(g_lam, g_om, pair.r)
    doms = [dom for c, dom, _ in reference_flip_blocks(g_lam, g_om, poly) if c == i and dom]
    if len(doms) >= 2:
        dom_a, dom_b = rng.sample(doms, 2)
        a, b = rng.choice(dom_a), rng.choice(dom_b)
        swapped = with_entry(i, a, pair.flips[i][b])
        swapped[i][b] = pair.flips[i][a]
        yield swapped


def cycled_family(g_lam, g_om, r):
    """Each block's domain sent round its codomain in order: onto but not
    one-to-one where R does not intertwine and the domain is larger."""
    flips = {i: {} for i in range(1, g_lam.rank + 1)}
    for i, dom, cod in reference_flip_blocks(g_lam, g_om, polymorphism_from_matrix(g_lam, g_om, r)):
        if cod:
            flips[i].update((key, cod[t % len(cod)]) for t, key in enumerate(dom))
    return flips


def check_accepts(g_lam, g_om, pair):
    try:
        check_flip_family(g_lam, g_om, pair)
    except KGraphError:
        return False
    return True


CATALOG_PAIRS = [
    ("ex5.6-Lambda", "ex5.6-Omega", [[1, 1]]),
    ("ex5.6-Lambda", "ex5.6-Omega", [[2, 2]]),
    ("ex5.7-Lambda", "ex5.7-Omega", [[1, 1]]),
    ("ex5.7-Lambda", "ex5.7-Omega", [[2, 2]]),
    ("ex3.5-Lambda", "ex3.5-LambdaI", [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]),
]


def test_check_flip_family_agrees_with_the_reference():
    rng = random.Random(20261018)
    # the malformed copies draw from their own generator, so the graphs
    # and families above stay the same
    rng_malformed = random.Random(20261020)
    outcomes = set()
    for _ in range(40):
        a1 = [[rng.randint(0, 2) for _ in range(2)] for _ in range(2)]
        shift = rng.randint(1, 2)
        a2 = [[a1[r][c] + shift * (r == c) for c in range(2)] for r in range(2)]
        g_lam = random_2graph(rng, "p", a1, a2)
        g_om = random_2graph(rng, "q", a1, a2)
        for r in ([[1, 0], [0, 1]], [[2, 0], [0, 2]], a1, [[2, 0], [1, 0]]):
            pair = random_family(rng, g_lam, g_om, r)
            families = [pair.flips]
            if mat_mul(a1, r) != mat_mul(r, a1):
                families.append(cycled_family(g_lam, g_om, r))
            else:
                # over an intertwiner the blocks pair up, so any family is valid
                assert reference_accepts(g_lam, g_om, pair)
                if any(pair.flips.values()):
                    families.extend(corrupted_families(rng, g_lam, g_om, pair))
                    families.extend(malformed_families(rng_malformed, g_lam, g_om, pair))
            for flips in families:
                candidate = BridgingPair(r, flips)
                got = check_accepts(g_lam, g_om, candidate)
                assert got == reference_accepts(g_lam, g_om, candidate)
                outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("lam, om, r", CATALOG_PAIRS)
def test_check_flip_family_agrees_with_the_reference_on_the_catalog(lam, om, r):
    g_lam, g_om = fixture(lam), fixture(om)
    rng = random.Random(20261021)
    for _ in range(5):
        pair = random_family(rng, g_lam, g_om, r)
        assert check_accepts(g_lam, g_om, pair) and reference_accepts(g_lam, g_om, pair)
        for flips in (*corrupted_families(rng, g_lam, g_om, pair), *malformed_families(rng, g_lam, g_om, pair)):
            candidate = BridgingPair(r, flips)
            assert check_accepts(g_lam, g_om, candidate) == reference_accepts(g_lam, g_om, candidate)
    # a non-intertwining matrix of the same shape
    bad = [row[:-1] + [row[-1] + 1] for row in r]
    assert not intertwiner_check(g_lam, g_om, bad)
    cycled = BridgingPair(bad, cycled_family(g_lam, g_om, bad))
    assert not check_accepts(g_lam, g_om, cycled) and not reference_accepts(g_lam, g_om, cycled)


def test_check_flip_family_rejects_list_valued_entries():
    # values as lists, the shape JSON gives them, are not pairs of ids
    listed = {i: {key: list(value) for key, value in f.items()} for i, f in coherent_57_family().flips.items()}
    pair = BridgingPair([[1, 1]], listed)
    for call in (check_flip_family, coherence_check, bridging_graph):
        with pytest.raises(KGraphError, match="not a pair of known ids"):
            call(LAM57, OM57, pair)


# ---------------------------------------------------------------- coherence

def test_displayed_family_fails_with_known_witness():
    ok, witness = coherence_check(LAM56, OM56, displayed_56_family())
    assert not ok
    assert witness == CoherenceWitness(
        1, 2, "alpha1", "beta2", G_W, (G_W, "e2", "f1"), (G_W, "e1", "f2")
    )


def test_coherent_family_passes():
    ok, witness = coherence_check(LAM57, OM57, coherent_57_family())
    assert ok and witness is None


def test_no_family_bridges_the_56_pair():
    for pair in all_16_families():
        ok, witness = coherence_check(LAM56, OM56, pair)
        assert not ok and witness is not None


COHERENCE_BUDGET_S = 0.5


def test_coherence_check_of_the_identity_family_on_a_256_vertex_product_fits_a_budget():
    # R = I and f_i(lam, g1[s,s]) = (g1[r,r], lam): 8192 entries, each
    # checked on its own, and 65536 triples whose routes agree
    ones = [[1] * 16 for _ in range(16)]
    g = product_graph(ones, ones)
    ident = [[int(i == j) for j in range(256)] for i in range(256)]
    flips = {
        i: {(e.id, f"g1[{e.src},{e.src}]"): (f"g1[{e.rng},{e.rng}]", e.id) for e in g.edges if e.color == i}
        for i in (1, 2)
    }
    t0 = time.perf_counter()
    assert coherence_check(g, g, BridgingPair(ident, flips)) == (True, None)
    elapsed = time.perf_counter() - t0
    assert elapsed < COHERENCE_BUDGET_S, f"took {elapsed:.2f}s, budget {COHERENCE_BUDGET_S}s"


# ------------------------------------------------------------------- search

def test_search_exhausts_on_56():
    assert bridging_search(LAM56, OM56, [[1, 1]]) == Exhausted(16)


def test_search_finds_the_57_family():
    found = bridging_search(LAM57, OM57, [[1, 1]])
    assert isinstance(found, BridgingPair)
    assert found.flips == coherent_57_family().flips
    assert coherence_check(LAM57, OM57, found)[0]


def test_search_exhausts_on_56_with_doubled_matrix():
    assert bridging_search(LAM56, OM56, [[2, 2]]) == Exhausted(331776)


# the first coherent families the search returns, in its assignment
# order; pinned so that a faster search must return the same ones
FIRST_57_DOUBLED = {
    1: {
        ("f1", "g1[u,w]"): ("g1[u,v]", "alpha1"),
        ("f1", "g2[u,w]"): ("g1[u,v]", "alpha2"),
        ("f2", "g1[u,w]"): ("g2[u,v]", "alpha1"),
        ("f2", "g2[u,w]"): ("g2[u,v]", "alpha2"),
        ("f1", "g1[u,v]"): ("g1[u,w]", "alpha3"),
        ("f1", "g2[u,v]"): ("g1[u,w]", "alpha4"),
        ("f2", "g1[u,v]"): ("g2[u,w]", "alpha3"),
        ("f2", "g2[u,v]"): ("g2[u,w]", "alpha4"),
    },
    2: {
        ("e", "g1[u,w]"): ("g1[u,w]", "gamma1"),
        ("e", "g2[u,w]"): ("g2[u,w]", "gamma1"),
        ("e", "g1[u,v]"): ("g1[u,v]", "gamma2"),
        ("e", "g2[u,v]"): ("g2[u,v]", "gamma2"),
    },
}
FIRST_35_INSPLIT = {
    1: {
        ("e", "g1[u,u]"): ("g1[u,u]", "e"),
        ("e'", "g1[u,u]"): ("g1[u,u]", "e'"),
        ("h1", "g1[v,v^1]"): ("g1[v,v^1]", "h1^1"),
        ("h2", "g1[v,v^1]"): ("g1[v,v^2]", "h2^1"),
        ("h1", "g1[v,v^2]"): ("g1[v,v^1]", "h1^2"),
        ("h2", "g1[v,v^2]"): ("g1[v,v^2]", "h2^2"),
        ("h", "g1[v,v^1]"): ("g1[w,w]", "h^1"),
        ("h", "g1[v,v^2]"): ("g1[w,w]", "h^2"),
    },
    2: {
        ("f", "g1[u,u]"): ("g1[u,u]", "f"),
        ("f1", "g1[u,u]"): ("g1[v,v^2]", "f1"),
        ("f2", "g1[u,u]"): ("g1[v,v^1]", "f2"),
        ("g", "g1[u,u]"): ("g1[w,w]", "g"),
    },
}


@pytest.mark.parametrize(
    "lam, om, r, flips",
    [
        ("ex5.7-Lambda", "ex5.7-Omega", [[2, 2]], FIRST_57_DOUBLED),
        ("ex3.5-Lambda", "ex3.5-LambdaI", [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]], FIRST_35_INSPLIT),
    ],
)
def test_search_first_family_is_pinned(lam, om, r, flips):
    found = bridging_search(fixture(lam), fixture(om), r)
    assert found == BridgingPair(r, flips)
    assert [list(f) for f in found.flips.values()] == [list(f) for f in flips.values()]


def test_search_requires_intertwiner():
    with pytest.raises(NotIntertwining):
        bridging_search(LAM56, OM56, [[1, 0]])


def test_search_rejects_exactly_the_non_intertwiners():
    # the search tests intertwining by its block sizes; intertwiner_check,
    # the row kernel of dimension, is the oracle
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 3)
        a1, a2 = commuting_matrices(rng, n, rng.randint(1, 2))
        g_lam, g_om = random_2graph(rng, "p", a1, a2), random_2graph(rng, "q", a1, a2)
        r = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        want = intertwiner_check(g_lam, g_om, r)
        try:
            bridging_search(g_lam, g_om, r)
            got = True
        except NotIntertwining:
            got = False
        assert got == want, (a1, r)
        outcomes.add(want)
    assert outcomes == {True, False}


def test_search_k1_is_immediate():
    g = rose(2)
    found = bridging_search(g, g, [[2]])
    assert isinstance(found, BridgingPair)
    assert coherence_check(g, g, found)[0]


def reference_iter_triples(g_lam, poly, i, j):
    """The composable triples by a scan of every polymorphism edge for each
    color-i edge: lambda_i, then g, then lambda_j."""
    for lam_i in g_lam.edges:
        if lam_i.color != i:
            continue
        for g in poly.edges:
            for lam_j in g_lam.in_edges[lam_i.src][j]:
                if lam_j.src == g.rng:
                    yield lam_i.id, lam_j.id, g.id


def assert_same_triples(g_lam, poly):
    for i in range(1, g_lam.rank + 1):
        for j in range(i + 1, g_lam.rank + 1):
            want = list(reference_iter_triples(g_lam, poly, i, j))
            assert list(_iter_triples(g_lam, poly, i, j)) == want


def test_iter_triples_matches_the_reference():
    for name in FIXTURE_NAMES:
        g = fixture(name)
        assert_same_triples(g, identity_polymorphism(g.vertices))
        for i in range(1, g.rank + 1):
            assert_same_triples(g, coordinate_polymorphism(g, i))
    for g_lam, g_om, r in (
        (LAM56, OM56, [[2, 2]]),
        (LAM57, OM57, [[1, 1]]),
        (fixture("ex3.5-Lambda"), fixture("ex3.5-LambdaI"), [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]),
    ):
        assert_same_triples(g_lam, polymorphism_from_matrix(g_lam, g_om, r))
    rng = random.Random(20261018)
    for _ in range(20):
        a1, a2 = commuting_matrices(rng, 3, 2)
        g_lam = random_2graph(rng, "p", a1, a2)
        g_om = random_2graph(rng, "q", a1, a2)
        for r in ([[int(i == j) for j in range(3)] for i in range(3)], a1, a2):
            poly = polymorphism_from_matrix(g_lam, g_om, r)
            assert_same_triples(g_lam, poly)
            # the same edges out of range order
            shuffled = tuple(rng.sample(poly.edges, len(poly.edges)))
            assert_same_triples(g_lam, poly._replace(edges=shuffled))


def test_iter_triples_matches_the_reference_on_a_256_vertex_product():
    # the strict product of two complete 16-vertex 1-graphs over R = I:
    # 65536 triples, where the scan visits 256 polymorphism edges for each
    # of the 4096 color-1 edges
    ones = [[1] * 16 for _ in range(16)]
    g = product_graph(ones, ones)
    ident = [[int(i == j) for j in range(256)] for i in range(256)]
    assert_same_triples(g, polymorphism_from_matrix(g, g, ident))


def reference_flip_blocks(g_lam, g_om, poly):
    """The flip blocks by a scan of every polymorphism edge for each edge
    of g_lam, and of every edge of g_om for each polymorphism edge."""
    dom, cod = {}, {}
    for lam in g_lam.edges:
        for g in poly.edges:
            if g.rng == lam.src:
                dom.setdefault((lam.color, lam.rng, g.src), []).append((lam.id, g.id))
    for g in poly.edges:
        for om in g_om.edges:
            if om.rng == g.src:
                cod.setdefault((om.color, g.rng, om.src), []).append((g.id, om.id))
    return [
        (i, dom.get(key, []), cod.get(key, []))
        for i in range(1, g_lam.rank + 1)
        for a in g_lam.vertices
        for b in g_om.vertices
        if (key := (i, a, b)) in dom or key in cod
    ]


def test_flip_blocks_match_the_reference():
    def same(g_lam, g_om, poly):
        assert _flip_blocks(g_lam, g_om, poly) == reference_flip_blocks(g_lam, g_om, poly)

    pairs = [(fixture(a), fixture(b)) for a in FIXTURE_NAMES for b in FIXTURE_NAMES]
    for g_lam, g_om in pairs:
        if g_lam.rank == g_om.rank:
            for r in (
                [[1] * len(g_om.vertices) for _ in g_lam.vertices],
                [[int(i == j) for j in range(len(g_om.vertices))] for i in range(len(g_lam.vertices))],
            ):
                same(g_lam, g_om, polymorphism_from_matrix(g_lam, g_om, r))
    rng = random.Random(20261018)
    for _ in range(20):
        a1, a2 = commuting_matrices(rng, 3, 2)
        g_lam = random_2graph(rng, "p", a1, a2)
        g_om = random_2graph(rng, "q", a1, a2)
        for r in ([[int(i == j) for j in range(3)] for i in range(3)], a1, a2):
            poly = polymorphism_from_matrix(g_lam, g_om, r)
            same(g_lam, g_om, poly)
            # the same edges out of range order
            same(g_lam, g_om, poly._replace(edges=tuple(rng.sample(poly.edges, len(poly.edges)))))
    # the rank-3 pullbacks of test_search_matches_the_reference_on_rank_3_pullbacks
    rng = random.Random(20261024)
    f = monoid_hom([(1, 0), (0, 1), (1, 1)], 2)
    for n, perms in ((2, 1), (2, 2), (3, 1), (3, 2)):
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(10):
            a1, a2 = commuting_matrices(rng, n, perms)
            g_lam = pullback(random_2graph(rng, "p", a1, a2), f)
            g_om = pullback(random_2graph(rng, "q", a1, a2), f)
            for r in (ident, a1):
                poly = polymorphism_from_matrix(g_lam, g_om, r)
                same(g_lam, g_om, poly)
                same(g_lam, g_om, poly._replace(edges=tuple(rng.sample(poly.edges, len(poly.edges)))))


def test_flip_blocks_match_the_reference_on_a_256_vertex_product():
    ones = [[1] * 16 for _ in range(16)]
    g = product_graph(ones, ones)
    poly = polymorphism_from_matrix(g, g, [[int(i == j) for j in range(256)] for i in range(256)])
    assert _flip_blocks(g, g, poly) == reference_flip_blocks(g, g, poly)


@cache
def cycle_product(n):
    # the product of two n-cycles, each plus a random permutation: n * n
    # vertices, each receiving and emitting two edges of each color
    rng = random.Random(1)
    return product_graph(cycle_plus_permutation(rng, n), cycle_plus_permutation(rng, n))


FLIP_BLOCKS_BUDGET_S = 0.15


def test_flip_blocks_on_a_1024_vertex_product_fit_a_budget():
    # 4096 blocks over R = I; a scan of every (color, vertex, vertex) key,
    # 2 * 1024 * 1024 of them, took about 0.3 s
    g = cycle_product(32)
    poly = polymorphism_from_matrix(g, g, [[int(i == j) for j in range(1024)] for i in range(1024)])
    t0 = time.process_time()
    blocks = _flip_blocks(g, g, poly)
    elapsed = time.process_time() - t0
    assert len(blocks) == 4096
    assert elapsed < FLIP_BLOCKS_BUDGET_S, f"took {elapsed:.2f}s of CPU, budget {FLIP_BLOCKS_BUDGET_S}s"


def rank_3_pullback_pairs():
    # the pairs of test_search_matches_the_reference_on_rank_3_pullbacks,
    # drawn from the same seed, each with its R = I
    rng = random.Random(20261024)
    f = monoid_hom([(1, 0), (0, 1), (1, 1)], 2)
    for n, perms in ((2, 1), (2, 2), (3, 1), (3, 2)):
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(10):
            a1, a2 = commuting_matrices(rng, n, perms)
            g_lam = pullback(random_2graph(rng, "p", a1, a2), f)
            g_om = pullback(random_2graph(rng, "q", a1, a2), f)
            yield g_lam, g_om, ident


def test_upper_squares_match_the_reference():
    # the catalog, a rose, random 2-graphs and rank-3 pullbacks, where an
    # edge of color 3 meets the squares of two lower colors
    graphs = [fixture(name) for name in FIXTURE_NAMES] + [rose(2)]
    rng = random.Random(20261026)
    for _ in range(20):
        a1, a2 = commuting_matrices(rng, 3, 2)
        graphs.append(random_2graph(rng, "p", a1, a2))
    graphs += [g for pair in rank_3_pullback_pairs() for g in pair[:2]]
    assert {g.rank for g in graphs} == {1, 2, 3}
    for g in graphs:
        assert g.upper_squares == reference_upper_squares(g)
        # one entry for each square as lam_j and one as lam_j2
        assert sum(map(len, g.upper_squares.values())) == 2 * len(g.squares)


def test_only_the_search_builds_the_upper_square_index():
    # validation, h0 and dge_eq read the squares or the incidence index,
    # never the per-edge square index the search reads
    for g in [fixture(name) for name in FIXTURE_NAMES] + list(next(rank_3_pullback_pairs())[:2]):
        g = validate_kgraph(g.skeleton, g.squares, g.strict)
        u = unit_element(g, g.vertices[0])
        h0(g)
        dge_eq(g, u, dge_shift(u, (1,) * g.rank))
        assert "upper_squares" not in g.__dict__.keys()
        bridging_search(g, g, [[int(i == j) for j in range(len(g.vertices))] for i in range(len(g.vertices))])
        assert "upper_squares" in g.__dict__.keys()


def reference_route_triple(g_lam, g_om, flips, i, j, lam_i, lam_j, g):
    """Both routes of one triple as (g, omega_j, omega_i) words, or None
    while a flip they read is unset: push the word lambda_i lambda_j
    through g source end first and swap the omega pair, or swap the lambda
    pair first and push lambda_j' lambda_i' through g."""

    def push_word(word, colors):
        cur, oms = g, []
        for lam, color in reversed(list(zip(word, colors))):
            if (lam, cur) not in flips[color]:
                return None
            cur, om = flips[color][(lam, cur)]
            oms.insert(0, om)
        return cur, oms

    top = push_word([lam_i, lam_j], [i, j])
    bottom = push_word(list(g_lam.squares[(lam_i, lam_j)]), [j, i])
    if top is None or bottom is None:
        return None
    (g_top, om_pair), (g_bottom, om_swapped) = top, bottom
    return (g_top, *g_om.squares[tuple(om_pair)]), (g_bottom, *om_swapped)


def reference_search(g_lam, g_om, r):
    """The search one whole block at a time: every bijection of a block in
    itertools.permutations order, then every triple re-evaluated. The
    library's key-at-a-time search must return exactly this."""
    if not intertwiner_check(g_lam, g_om, r):
        raise NotIntertwining("A_{e_i} R != R B_{e_i} for some color")
    poly = polymorphism_from_matrix(g_lam, g_om, r)
    blocks = reference_flip_blocks(g_lam, g_om, poly)
    suffix = [1] * (len(blocks) + 1)
    for t in range(len(blocks) - 1, -1, -1):
        suffix[t] = suffix[t + 1] * factorial(len(blocks[t][2]))
    triples = [
        (i, j, trip)
        for i in range(1, g_lam.rank + 1)
        for j in range(i + 1, g_lam.rank + 1)
        for trip in reference_iter_triples(g_lam, poly, i, j)
    ]
    flips = {i: {} for i in range(1, g_lam.rank + 1)}
    examined = 0

    def consistent():
        for i, j, (lam_i, lam_j, g) in triples:
            routes = reference_route_triple(g_lam, g_om, flips, i, j, lam_i, lam_j, g)
            if routes is not None and routes[0] != routes[1]:
                return False
        return True

    def rec(t):
        nonlocal examined
        if t == len(blocks):
            return BridgingPair(r, {i: dict(f) for i, f in flips.items()})
        color, dom, cod = blocks[t]
        for perm in permutations(range(len(cod))):
            for key, idx in zip(dom, perm):
                flips[color][key] = cod[idx]
            if consistent():
                found = rec(t + 1)
                if found is not None:
                    return found
            else:
                examined += suffix[t + 1]
            for key in dom:
                del flips[color][key]
        return None

    found = rec(0)
    return found if found is not None else Exhausted(examined)


def assert_same_search(got, want):
    # equal values, and for a family the same insertion order per color
    assert type(got) is type(want) and got == want
    if isinstance(want, BridgingPair):
        assert [(i, list(f.items())) for i, f in got.flips.items()] == [
            (i, list(f.items())) for i, f in want.flips.items()
        ]


@pytest.mark.parametrize("lam, om, r", CATALOG_PAIRS)
def test_search_matches_the_reference_on_the_catalog(lam, om, r):
    g_lam, g_om = fixture(lam), fixture(om)
    assert_same_search(bridging_search(g_lam, g_om, r), reference_search(g_lam, g_om, r))


def commuting_matrices(rng, n, perms):
    """a1 a sum of perms random permutation matrices and a2 = a1 + I."""
    a1 = [[0] * n for _ in range(n)]
    for _ in range(perms):
        p = list(range(n))
        rng.shuffle(p)
        for row in range(n):
            a1[row][p[row]] += 1
    return a1, [[a1[row][c] + (row == c) for c in range(n)] for row in range(n)]


def test_search_matches_the_reference_on_random_pairs():
    rng = random.Random(20261018)
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    outcomes = set()
    for perms, count in ((1, 12), (2, 12)):
        for _ in range(count):
            a1, a2 = commuting_matrices(rng, 3, perms)
            g_lam = random_2graph(rng, "p", a1, a2)
            g_om = random_2graph(rng, "q", a1, a2)
            # I always; 2I and the non-identity intertwiners a1, a2 only
            # over permutation matrices, where the blocks stay small
            matrices = [ident]
            if perms == 1:
                matrices += [[[2 * x for x in row] for row in ident], a1, a2]
            for r in matrices:
                want = reference_search(g_lam, g_om, r)
                assert_same_search(bridging_search(g_lam, g_om, r), want)
                outcomes.add(type(want))
    assert outcomes == {BridgingPair, Exhausted}


def test_search_matches_the_reference_on_rank_3_pullbacks():
    # pullbacks along e3 -> (1,1) of generated 2-graph pairs over R = I:
    # three colors, so color 3 is searched against the triples of both
    # lower colors
    rng = random.Random(20261024)
    f = monoid_hom([(1, 0), (0, 1), (1, 1)], 2)
    outcomes = set()
    for n, perms in ((2, 1), (2, 2), (3, 1), (3, 2)):
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(10):
            a1, a2 = commuting_matrices(rng, n, perms)
            g_lam = pullback(random_2graph(rng, "p", a1, a2), f)
            g_om = pullback(random_2graph(rng, "q", a1, a2), f)
            assert g_lam.rank == 3
            want = reference_search(g_lam, g_om, ident)
            assert_same_search(bridging_search(g_lam, g_om, ident), want)
            outcomes.add(type(want))
    assert outcomes == {BridgingPair, Exhausted}


def test_search_evaluates_each_triple_once_and_only_when_decidable(monkeypatch):
    # each triple is evaluated when the later of its two color-j keys is
    # assigned, so every flip its routes read is set, and no assignment
    # evaluates a triple twice; a search that also tried the triples a key
    # might complete made 325104 calls on ex5.6 [[2, 2]], 261104 of them
    # undecided
    route = bridging._route_triple
    calls = []

    def decided_route(g_lam, g_om, flips, *triple):
        assert reference_route_triple(g_lam, g_om, flips, *triple) is not None
        calls.append((tuple((i, tuple(f.items())) for i, f in flips.items()), triple))
        return route(g_lam, g_om, flips, *triple)

    def search(g_lam, g_om, r):
        # a search never returns to a partial family it has left, so a
        # repeated call is one triple evaluated twice by one assignment
        calls.clear()
        found = bridging_search(g_lam, g_om, r)
        assert len(set(calls)) == len(calls)
        return found

    monkeypatch.setattr(bridging, "_route_triple", decided_route)
    assert search(LAM56, OM56, [[2, 2]]) == Exhausted(331776)
    assert len(calls) == 63824
    # over R = I a key often plays both color-j roles of one triple
    rng = random.Random(20261025)
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(20):
        a1, a2 = commuting_matrices(rng, 3, 2)
        search(random_2graph(rng, "p", a1, a2), random_2graph(rng, "q", a1, a2), ident)


def test_search_checks_an_assignment_by_lower_color_then_kind(monkeypatch):
    # the triples one assignment makes decidable are evaluated color i by
    # color i, and per color those with the assigned key as (lam_j, g)
    # before those with it as (lam_j2, f_i(lam_i2, g)[0]); the first
    # disagreement rejects, so this order fixes which triples are evaluated
    route = bridging._route_triple
    calls = []

    def recorded_route(g_lam, g_om, flips, i, j, lam_i, lam_j, g):
        state = tuple((c, tuple(f.items())) for c, f in flips.items())
        key = next(reversed(flips[j]))
        calls.append((state, (i, (lam_j, g) != key)))
        return route(g_lam, g_om, flips, i, j, lam_i, lam_j, g)

    monkeypatch.setattr(bridging, "_route_triple", recorded_route)
    rng = random.Random(20261024)
    f = monoid_hom([(1, 0), (0, 1), (1, 1)], 2)
    steps = set()  # (to a higher color, to the other kind) between two calls
    for n, perms in ((2, 1), (2, 2), (3, 1), (3, 2)):
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(10):
            a1, a2 = commuting_matrices(rng, n, perms)
            g_lam = pullback(random_2graph(rng, "p", a1, a2), f)
            g_om = pullback(random_2graph(rng, "q", a1, a2), f)
            calls.clear()
            bridging_search(g_lam, g_om, ident)
            # one assignment's calls share its partial family
            for (state, order), (next_state, next_order) in zip(calls, calls[1:]):
                if state == next_state:
                    assert order <= next_order, (order, next_order)
                    steps.add((order[0] != next_order[0], order[1] != next_order[1]))
    assert any(up for up, _ in steps) and (False, True) in steps


def middle_color_pairs():
    # pullbacks along e1, e2 -> (1,0) and e3 -> (0,1) of generated 2-graph
    # pairs over R = 2I: colors 1 and 2 share their blocks' shapes, so the
    # search often backs up from color 3 into color 2 alone
    rng = random.Random(20261027)
    f = monoid_hom([(1, 0), (1, 0), (0, 1)], 2)
    for n, perms in ((1, 1), (1, 2), (2, 1)):
        twice = [[2 * (i == j) for j in range(n)] for i in range(n)]
        for _ in range(4):
            a1, a2 = commuting_matrices(rng, n, perms)
            g_lam = pullback(random_2graph(rng, "p", a1, a2), f)
            g_om = pullback(random_2graph(rng, "q", a1, a2), f)
            yield g_lam, g_om, twice


def test_search_on_rank_3_pullbacks_evaluates_each_triple_once_and_only_when_decidable(monkeypatch):
    # color 2 lies between the colors below and above it: a color-3 slot
    # whose triples were not resolved again after a color-2 key changed
    # would evaluate a triple whose other key is unset, skip a decidable
    # one, or evaluate one twice. The pairs of
    # test_search_matches_the_reference_on_rank_3_pullbacks seldom return
    # to color 3 after changing color 2 alone; the middle-color pairs do
    # (a copy of the search that ignored color-2 changes at color 3
    # raised KeyError on 7 of these 12, and passed the first 40)
    route = bridging._route_triple
    calls = []

    def decided_route(g_lam, g_om, flips, *triple):
        assert reference_route_triple(g_lam, g_om, flips, *triple) is not None
        calls.append((tuple((i, tuple(f.items())) for i, f in flips.items()), triple))
        return route(g_lam, g_om, flips, *triple)

    monkeypatch.setattr(bridging, "_route_triple", decided_route)
    colors = set()
    for g_lam, g_om, r in [*rank_3_pullback_pairs(), *middle_color_pairs()]:
        calls.clear()
        got = bridging_search(g_lam, g_om, r)
        # a search never returns to a partial family it has left, so a
        # repeated call is one triple evaluated twice by one assignment
        assert len(set(calls)) == len(calls)
        colors |= {triple[:2] for _, triple in calls}
        monkeypatch.setattr(bridging, "_route_triple", route)
        assert_same_search(got, reference_search(g_lam, g_om, r))
        monkeypatch.setattr(bridging, "_route_triple", decided_route)
    assert colors == {(1, 2), (1, 3), (2, 3)}


@pytest.mark.parametrize("n", INSPLIT_PAIR_SIZES)
def test_search_bridges_an_insplit_both_ways(n):
    # an in-split's (R, S) are known-positive instances: R S and S R are
    # one-step matrices and both intertwine. That the searches over R and
    # over S find a coherent family is observed on these pairs, not a
    # theorem; the transposes do not intertwine
    g, split, r, s = insplit_pair(n)
    for g_lam, g_om, m in ((g, split, r), (split, g, s)):
        found = bridging_search(g_lam, g_om, m)
        assert isinstance(found, BridgingPair), (n, found)
        assert coherence_check(g_lam, g_om, found) == (True, None)
        assert bridging_graph(g_lam, g_om, found).rank == 3
        assert_same_search(found, reference_search(g_lam, g_om, m))
    with pytest.raises(NotIntertwining):
        bridging_search(split, g, [list(col) for col in zip(*r)])
    with pytest.raises(NotIntertwining):
        bridging_search(g, split, [list(col) for col in zip(*s)])


def test_exhausted_count_is_the_number_of_families():
    # over R = I the flip blocks have the entries of a1 and a2 as sizes,
    # so an exhausted search has ruled out the product of their factorials
    rng = random.Random(20261019)
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    exhausted = 0
    for _ in range(40):
        a1, a2 = commuting_matrices(rng, 3, 2)
        found = bridging_search(random_2graph(rng, "p", a1, a2), random_2graph(rng, "q", a1, a2), ident)
        if isinstance(found, Exhausted):
            assert found.count == prod(factorial(n) for m in (a1, a2) for row in m for n in row)
            exhausted += 1
    assert exhausted >= 10


SEARCH_BUDGET_S = 5.0


@pytest.mark.parametrize("n", [16, 32])
def test_search_answers_on_large_products_within_a_budget(n):
    # the products of 256 and 1024 vertices against themselves over R = I,
    # with 976 and 4096 blocks of one or two keys; nearly all the time is
    # the set-up
    g = cycle_product(n)
    ident = [[int(i == j) for j in range(n * n)] for i in range(n * n)]
    t0 = time.process_time()
    found = bridging_search(g, g, ident)
    elapsed = time.process_time() - t0
    assert isinstance(found, BridgingPair)
    check_flip_family(g, g, found)
    assert coherence_check(g, g, found) == (True, None)
    assert elapsed < SEARCH_BUDGET_S, f"took {elapsed:.2f}s of CPU, budget {SEARCH_BUDGET_S}s"


def test_search_needs_no_recursion():
    g = complete_product()
    ident = [[int(i == j) for j in range(64)] for i in range(64)]
    assert len(_flip_blocks(g, g, polymorphism_from_matrix(g, g, ident))) == 1024
    found = bridging_search(g, g, ident)
    assert isinstance(found, BridgingPair)
    assert bridging_graph(g, g, found).rank == 3


# -------------------------------------------------------------- extend_flip

def test_extend_flip_degree_zero_and_one():
    pair = coherent_57_family()
    g2, om = extend_flip(LAM57, OM57, pair, vertex_path("u"), G_W)
    assert (g2, om) == (G_W, Path("w", ()))
    g2, om = extend_flip(LAM57, OM57, pair, Path("u", ("f1",)), G_W)
    assert (g2, om) == (G_V, Path("v", ("alpha1",)))
    with pytest.raises(IncoherentPair):
        extend_flip(LAM56, OM56, displayed_56_family(), Path("u", ("alpha1",)), G_W)
    with pytest.raises(ValueError):
        extend_flip(LAM57, OM57, pair, Path("u", ("f1",)), "g9[u,w]")


def test_extend_flip_order_independence():
    pair = coherent_57_family()
    for lam in paths_of_degree(LAM57, "u", (1, 1)):
        for g in (G_W, G_V):
            direct = extend_flip(LAM57, OM57, pair, lam, g)
            # flip the color-1 edge first, using the square-swapped word
            e2, e1 = LAM57.squares[(lam.edges[0], lam.edges[1])]
            cur, om1 = pair.flips[1][(e1, g)]
            cur, om2 = pair.flips[2][(e2, cur)]
            other = (cur, make_path(OM57, [om2, om1]))
            assert direct == other


def test_extend_flip_factorization_property():
    pair = coherent_57_family()
    coords = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for n in coords:
        for m in coords:
            total = (n[0] + m[0], n[1] + m[1])
            for lam in paths_of_degree(LAM57, "u", total):
                for g in (G_W, G_V):
                    g_mid, om_suffix = extend_flip(
                        LAM57, OM57, pair, segment(LAM57, lam, n, total), g
                    )
                    g_fin, om_prefix = extend_flip(
                        LAM57, OM57, pair, segment(LAM57, lam, (0, 0), n), g_mid
                    )
                    direct_g, direct_om = extend_flip(LAM57, OM57, pair, lam, g)
                    assert direct_g == g_fin
                    assert direct_om == compose(OM57, om_prefix, om_suffix)


# -------------------------------------------------------------- morph_apply

def test_morph_on_vertex_path():
    pair = coherent_57_family()
    lam, g2 = morph_apply(LAM57, OM57, pair, G_W, vertex_path("w"))
    assert (lam, g2) == (Path("u", ()), G_W)
    with pytest.raises(NotComposable):
        morph_apply(LAM57, OM57, pair, G_W, vertex_path("v"))


def test_morph_inverts_extend():
    pair = coherent_57_family()
    for deg in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        for g in (G_W, G_V):
            for lam in paths_of_degree(LAM57, "u", deg):
                g2, om = extend_flip(LAM57, OM57, pair, lam, g)
                lam_back, g_back = morph_apply(LAM57, OM57, pair, g2, om)
                assert (lam_back, g_back) == (lam, g)


def test_morph_is_a_bijection_on_degree_11():
    pair = coherent_57_family()
    seen = set()
    count = 0
    for g_edge, src in ((G_W, "w"), (G_V, "v")):
        for om in paths_of_degree(OM57, src, (1, 1)):
            lam, g2 = morph_apply(LAM57, OM57, pair, g_edge, om)
            assert lam.rng == "u" and len(lam.edges) == 2
            seen.add((lam, g2))
            count += 1
    assert len(seen) == count  # injective
    codomain = {
        (lam, g)
        for g, s_g in ((G_W, "w"), (G_V, "v"))
        for lam in paths_of_degree(LAM57, "u", (1, 1))
    }
    assert seen == codomain


# ----------------------------------------------------------- bridging graph

def test_bridging_graph_of_coherent_pair():
    g = bridging_graph(LAM57, OM57, coherent_57_family())
    assert g.rank == 3
    assert len(g.vertices) == 3
    assert len(g.edges) == 3 + 6 + 2
    assert not g.strict
    assert g.by_id["R.g1[u,w]"].src == "O.w" and g.by_id["R.g1[u,w]"].rng == "L.u"


def test_bridging_graph_rejects_incoherent_pair():
    with pytest.raises(InvalidKGraph):
        bridging_graph(LAM56, OM56, displayed_56_family())


def test_graph_oracle_agrees_on_all_16():
    for pair in all_16_families():
        with pytest.raises(InvalidKGraph):
            bridging_graph(LAM56, OM56, pair)


def test_graph_oracle_agrees_on_random_instances():
    rng = random.Random(20260815)
    outcomes = set()
    for _ in range(25):
        a1 = [[rng.randint(0, 2) for _ in range(2)] for _ in range(2)]
        c0, c1 = rng.randint(0, 1), rng.randint(0, 1)
        a2 = [
            [c0 * (1 if r == c else 0) + c1 * a1[r][c] + (1 if r == c else 0) for c in range(2)]
            for r in range(2)
        ]
        g_lam = random_2graph(rng, "p", a1, a2)
        g_om = random_2graph(rng, "q", a1, a2)
        ident = [[1, 0], [0, 1]]
        pair = random_family(rng, g_lam, g_om, ident)
        ok, _ = coherence_check(g_lam, g_om, pair)
        try:
            bridging_graph(g_lam, g_om, pair)
            valid = True
        except InvalidKGraph:
            valid = False
        assert ok == valid
        outcomes.add(ok)
    # identical squares with identity flips is always coherent
    g = fixture("sec3-Sigma")
    ident = [[1, 0], [0, 1]]
    poly = polymorphism_from_matrix(g, g, ident)
    flips = {
        i: {
            (e.id, f"g1[{e.src},{e.src}]"): (f"g1[{e.rng},{e.rng}]", e.id)
            for e in g.edges
            if e.color == i
        }
        for i in (1, 2)
    }
    pair = BridgingPair(ident, flips)
    assert coherence_check(g, g, pair)[0]
    assert bridging_graph(g, g, pair).rank == 3
    assert False in outcomes  # random squares disagree somewhere


def test_composability_error():
    g = fixture("sec3-Sigma")
    ident = [[1, 0], [0, 1]]
    flips = {
        i: {
            (e.id, f"g1[{e.src},{e.src}]"): (f"g1[{e.rng},{e.rng}]", e.id)
            for e in g.edges
            if e.color == i
        }
        for i in (1, 2)
    }
    pair = BridgingPair(ident, flips)
    with pytest.raises(NotComposable):
        extend_flip(g, g, pair, Path("u", ("b2",)), "g1[u,u]")
