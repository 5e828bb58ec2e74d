"""Acceptance gate: the eleven headline checks, each timed against its
budget. Run with -v for one pass/fail line per criterion."""

import random
import time
from contextlib import contextmanager
from itertools import product

from oracles import (
    all_16_families, coherent_57_family, dense_dge_eq, displayed_56_family, mat_mul, random_2graph,
    random_family,
)

from kgraphs.bridging import (
    BridgingPair,
    Exhausted,
    bridging_graph,
    bridging_search,
    coherence_check,
)
from kgraphs.constructions import FIXTURE_NAMES, fixture, monoid_hom, pullback, rose
from kgraphs.core import InvalidKGraph, vertex_matrix, zero_degree
from kgraphs.paths import compose, path_source, paths_of_degree, segment
from kgraphs.dimension import (
    DimElement,
    apply_generator_map,
    dge_eq,
    dim_element,
    hom_check,
    identity_map_between,
    iso_check,
    pointed_check,
    unit_element,
)
from kgraphs.homology import AbelianInvariants, h0, h0_pullback_compare, rank_invariant, rho_pullback_check
from kgraphs.moves import (
    enumerate_valid_partitions,
    insplit,
    insplit_matrices,
    phi_insplit,
    phi_sink_delete,
    psi_insplit,
    sink_delete,
    sink_delete_witnesses,
)

COLLAPSE_FIRST = monoid_hom([(1,), (0,)], 1)


@contextmanager
def budget(seconds: float):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def test_criterion_01_homology_values():
    with budget(1.0):
        for n in range(2, 7):
            got = h0(pullback(rose(n), COLLAPSE_FIRST))
            want = AbelianInvariants(0, ()) if n == 2 else AbelianInvariants(0, (n - 1,))
            assert got == want, f"n={n}: {got}"


def test_criterion_02_bridging_negative():
    with budget(1.0):
        lam, om = fixture("ex5.6-Lambda"), fixture("ex5.6-Omega")
        assert bridging_search(lam, om, [[1, 1]]) == Exhausted(16)


def test_criterion_03_bridging_positive():
    with budget(1.0):
        lam57, om57 = fixture("ex5.7-Lambda"), fixture("ex5.7-Omega")
        ok, witness = coherence_check(lam57, om57, coherent_57_family())
        assert ok and witness is None
        assert isinstance(bridging_search(lam57, om57, [[1, 1]]), BridgingPair)

        lam56, om56 = fixture("ex5.6-Lambda"), fixture("ex5.6-Omega")
        ok, witness = coherence_check(lam56, om56, displayed_56_family())
        assert not ok
        assert witness.top == ("g1[u,w]", "e2", "f1")
        assert witness.bottom == ("g1[u,w]", "e1", "f2")


def test_criterion_04_insplit_pipeline():
    with budget(1.0):
        g = fixture("ex3.5-Lambda")
        parts = enumerate_valid_partitions(g, "v")
        assert len(parts) == 1
        split, _ = insplit(g, parts[0])
        assert split.strict and len(split.vertices) == 4

        fwd = phi_insplit(g, parts[0])
        for j in (1, 2):
            bwd = psi_insplit(g, parts[0], j)
            assert iso_check(fwd, bwd)

        a = {i: vertex_matrix(g, (1, 0) if i == 1 else (0, 1)) for i in (1, 2)}
        b = {i: vertex_matrix(split, (1, 0) if i == 1 else (0, 1)) for i in (1, 2)}
        for j in (1, 2):
            r, s = insplit_matrices(g, parts[0], j)
            assert mat_mul(r, s) == a[j]
            assert mat_mul(s, r) == b[j]
            for i in (1, 2):
                assert mat_mul(a[i], r) == mat_mul(r, b[i])
                assert mat_mul(b[i], s) == mat_mul(s, a[i])


def test_criterion_05_sink_deletion():
    with budget(1.0):
        g = fixture("ex3.5-Lambda")
        cut = sink_delete(g, "v")
        assert len(cut.vertices) == 1 and len(cut.skeleton.edges) == 3

        assert dge_eq(cut, dim_element([1], (0, 0)), dim_element([1], (0, 7)))
        assert dge_eq(cut, dim_element([1], (0, 0)), dim_element([2], (1, 0)))

        fwd = phi_sink_delete(g, "v")
        assert hom_check(fwd)
        witnesses = sink_delete_witnesses(g, "v")
        for u, wit in witnesses.items():
            assert dge_eq(g, apply_generator_map(fwd, wit), unit_element(g, u))


def test_criterion_06_example_71_isomorphism():
    with budget(1.0):
        fwd = identity_map_between(fixture("ex7.1-Lambda1"), fixture("ex7.1-Lambda2"))
        bwd = identity_map_between(fixture("ex7.1-Lambda2"), fixture("ex7.1-Lambda1"))
        assert iso_check(fwd, bwd)
        assert pointed_check(fwd)


def test_criterion_07_rank_invariant_separates():
    with budget(1.0):
        assert rank_invariant(fixture("sec3-Lambda")) == 1
        assert rank_invariant(fixture("sec3-Sigma")) == 2
        assert rank_invariant(fixture("sec3-Gamma")) == 2


def test_criterion_08_equality_oracle_equivalence():
    with budget(10.0):
        rng = random.Random(20260815)
        pairs = 0
        for name in FIXTURE_NAMES:
            g = fixture(name)
            d = len(g.vertices)
            if d > 4:
                continue
            for _ in range(50):
                a = DimElement(
                    tuple(rng.randint(-2, 2) for _ in range(d)),
                    tuple(rng.randint(-1, 2) for _ in range(g.rank)),
                )
                b = DimElement(
                    tuple(rng.randint(-2, 2) for _ in range(d)),
                    tuple(rng.randint(-1, 2) for _ in range(g.rank)),
                )
                assert dge_eq(g, a, b) == dense_dge_eq(g, a, b), (name, a, b)
                pairs += 1
        assert pairs >= 500


def test_criterion_09_confluence_and_matrix_properties():
    with budget(10.0):
        rng = random.Random(20260815)
        degrees = [n for n in product(range(3), repeat=2)]
        for name in FIXTURE_NAMES:
            g = fixture(name)
            for _ in range(200):
                n = degrees[rng.randrange(1, len(degrees))]
                v = g.vertices[rng.randrange(len(g.vertices))]
                paths = paths_of_degree(g, v, n)
                if not paths:
                    continue
                tau = paths[rng.randrange(len(paths))]
                m1 = tuple(rng.randint(0, c) for c in n)
                m2 = tuple(rng.randint(lo, c) for lo, c in zip(m1, n))
                a = segment(g, tau, zero_degree(2), m1)
                b = segment(g, tau, m1, m2)
                c = segment(g, tau, m2, n)
                left = compose(g, compose(g, a, b), c)
                right = compose(g, a, compose(g, b, c))
                assert left == right == tau

            mats = {n: vertex_matrix(g, n) for n in degrees}
            for n in degrees:
                for m in degrees:
                    total = (n[0] + m[0], n[1] + m[1])
                    assert mat_mul(mats[n], mats[m]) == vertex_matrix(g, total)
            for n in degrees:
                counts = [
                    [
                        sum(
                            1
                            for p in paths_of_degree(g, v, n)
                            if path_source(g, p) == w
                        )
                        for w in g.vertices
                    ]
                    for v in g.vertices
                ]
                assert counts == mats[n]


def test_criterion_10_coherence_oracle_cross_check():
    def graph_oracle(g_lam, g_om, pair):
        try:
            bridging_graph(g_lam, g_om, pair)
            return True
        except InvalidKGraph:
            return False

    with budget(30.0):
        lam56, om56 = fixture("ex5.6-Lambda"), fixture("ex5.6-Omega")
        for pair in all_16_families():
            assert coherence_check(lam56, om56, pair)[0] == graph_oracle(lam56, om56, pair) == False

        lam57, om57 = fixture("ex5.7-Lambda"), fixture("ex5.7-Omega")
        found = bridging_search(lam57, om57, [[1, 1]])
        assert coherence_check(lam57, om57, found)[0] == graph_oracle(lam57, om57, found) == True

        sig = fixture("sec3-Sigma")
        ident = [[1, 0], [0, 1]]
        flips = {
            i: {
                (e.id, f"g1[{e.src},{e.src}]"): (f"g1[{e.rng},{e.rng}]", e.id)
                for e in sig.edges
                if e.color == i
            }
            for i in (1, 2)
        }
        pair = BridgingPair(ident, flips)
        assert coherence_check(sig, sig, pair)[0] == graph_oracle(sig, sig, pair) == True

        rng = random.Random(20260816)
        agreements = 0
        while agreements < 50:
            a1 = [[rng.randint(0, 2) for _ in range(2)] for _ in range(2)]
            c0, c1 = rng.randint(0, 1), rng.randint(0, 1)
            a2 = [
                [c0 * (r == c) + c1 * a1[r][c] + (r == c) for c in range(2)]
                for r in range(2)
            ]
            g_lam = random_2graph(rng, "p", a1, a2)
            g_om = random_2graph(rng, "q", a1, a2)
            pair = random_family(rng, g_lam, g_om, ident)
            assert coherence_check(g_lam, g_om, pair)[0] == graph_oracle(g_lam, g_om, pair)
            agreements += 1


def test_criterion_11_pullback_coherence():
    with budget(5.0):
        for n in range(2, 7):
            assert h0_pullback_compare(rose(n), COLLAPSE_FIRST)
            assert rho_pullback_check(rose(n), COLLAPSE_FIRST)
