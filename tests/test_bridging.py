"""Flip families: coherence routes, search, path extension, and the
rank-(k+1) graph as an independent coherence oracle."""

import random
from itertools import permutations, product
from math import factorial

import pytest
from test_homology import _product
from test_intmat import mat_mul

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
    _route_triple,
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
from kgraphs.constructions import FIXTURE_NAMES, fixture, rose
from kgraphs.core import (
    Edge,
    InvalidKGraph,
    KGraphError,
    NotComposable,
    Path,
    Skeleton,
    compose,
    make_path,
    paths_of_degree,
    segment,
    validate_kgraph,
    vertex_path,
)
from kgraphs.dimension import DimensionMismatch, intertwiner_check

LAM56 = fixture("ex5.6-Lambda")
OM56 = fixture("ex5.6-Omega")
LAM57 = fixture("ex5.7-Lambda")
OM57 = fixture("ex5.7-Omega")
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


def test_polymorphism_is_capped_before_it_is_built():
    half = POLY_MAX_EDGES // 2
    poly = polymorphism_from_matrix(LAM56, OM56, [[half, POLY_MAX_EDGES - half]])
    assert len(poly.edges) == POLY_MAX_EDGES
    with pytest.raises(KGraphError, match="over the cap"):
        polymorphism_from_matrix(LAM56, OM56, [[half, POLY_MAX_EDGES - half + 1]])
    with pytest.raises(KGraphError, match="over the cap"):
        polymorphism_from_matrix(LAM56, OM56, [[10**12, -(10**12)]])


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
    blocks = _flip_blocks(g_lam, g_om, polymorphism_from_matrix(g_lam, g_om, pair.r))
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


def cycled_family(g_lam, g_om, r):
    """Each block's domain sent round its codomain in order: onto but not
    one-to-one where R does not intertwine and the domain is larger."""
    flips = {i: {} for i in range(1, g_lam.rank + 1)}
    for i, dom, cod in _flip_blocks(g_lam, g_om, polymorphism_from_matrix(g_lam, g_om, r)):
        if cod:
            flips[i].update((key, cod[t % len(cod)]) for t, key in enumerate(dom))
    return flips


def test_check_flip_family_agrees_with_the_reference():
    rng = random.Random(20261018)
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
            for flips in families:
                candidate = BridgingPair(r, flips)
                try:
                    check_flip_family(g_lam, g_om, candidate)
                    got = True
                except KGraphError:
                    got = False
                assert got == reference_accepts(g_lam, g_om, candidate)
                outcomes.add(got)
    assert outcomes == {True, False}


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


def test_no_family_bridges_the_56_pair():
    for pair in all_16_families():
        ok, witness = coherence_check(LAM56, OM56, pair)
        assert not ok and witness is not None


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
    g = _product(ones, ones)
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


def test_flip_blocks_match_the_reference_on_a_256_vertex_product():
    ones = [[1] * 16 for _ in range(16)]
    g = _product(ones, ones)
    poly = polymorphism_from_matrix(g, g, [[int(i == j) for j in range(256)] for i in range(256)])
    assert _flip_blocks(g, g, poly) == reference_flip_blocks(g, g, poly)


def reference_search(g_lam, g_om, r):
    """The search one whole block at a time: every bijection of a block in
    itertools.permutations order, then every triple re-evaluated. The
    library's key-at-a-time search must return exactly this."""
    if not intertwiner_check(g_lam, g_om, r):
        raise NotIntertwining("A_{e_i} R != R B_{e_i} for some color")
    poly = polymorphism_from_matrix(g_lam, g_om, r)
    blocks = _flip_blocks(g_lam, g_om, poly)
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
            routes = _route_triple(g_lam, g_om, flips, i, j, lam_i, lam_j, g)
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


@pytest.mark.parametrize(
    "lam, om, r",
    [
        ("ex5.6-Lambda", "ex5.6-Omega", [[1, 1]]),
        ("ex5.6-Lambda", "ex5.6-Omega", [[2, 2]]),
        ("ex5.7-Lambda", "ex5.7-Omega", [[1, 1]]),
        ("ex5.7-Lambda", "ex5.7-Omega", [[2, 2]]),
        ("ex3.5-Lambda", "ex3.5-LambdaI", [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]),
    ],
)
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


def complete_product():
    # the strict product of two complete 8-vertex 1-graphs: 64 vertices
    # and, over R = I, 1024 flip blocks of one key each
    ones = [[1] * 8 for _ in range(8)]
    return _product(ones, ones)


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


def random_family(rng, g_lam, g_om, r):
    poly = polymorphism_from_matrix(g_lam, g_om, r)
    flips = {i: {} for i in range(1, g_lam.rank + 1)}
    for i, dom, cod in _flip_blocks(g_lam, g_om, poly):
        rng.shuffle(cod)
        flips[i].update(zip(dom, cod))
    return BridgingPair(r, flips)


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
