"""Path arithmetic and validator behavior on small graphs.

Key conventions under test: edge words read range-to-source, normal form
sorts colors ascending left to right, and a square (g,h)->(h2,g2) equates
the ascending word [g,h] with the descending word [h2,g2].
"""

from __future__ import annotations

import ast
import random
from itertools import combinations, product
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    graphs, mat_mul, product_graph, random_2graph, reference_factor, reference_normalize, reference_paths_of_degree,
    reference_segment, reference_violations, square_matrices,
)

import kgraphs

from kgraphs.constructions import FIXTURE_NAMES, fixture, grid, monoid_hom, pullback, rose
from kgraphs.core import (
    CubeFailure,
    DegreeOutOfRange,
    Edge,
    EndpointMismatch,
    InvalidKGraph,
    KGRAPH_MAX_RANK,
    KGraph,
    KGraphError,
    MissingSquare,
    NonBijectiveSquares,
    NotComposable,
    Skeleton,
    SourceVertex,
    deg_join,
    deg_leq,
    deg_sub,
    kgraph_violations,
    push,
    unit_degree,
    validate_kgraph,
    vertex_matrix,
    zero_degree,
)
from kgraphs.dimension import (
    dge_eq, dge_shift, hom_check, identity_generator_map, iso_check, pointed_check, unit_element,
)
from kgraphs.homology import h0, rank_invariant
from kgraphs.moves import enumerate_valid_partitions, insplit, pairing_closure
from kgraphs.paths import (
    Path,
    compose,
    factor,
    make_path,
    mce,
    normalize_word,
    path_degree,
    path_source,
    paths_of_degree,
    segment,
    vertex_path,
)


def all_paths_up_to(g, bound):
    out = []
    for v in g.vertices:
        n = [0] * g.rank
        while True:
            out.extend(paths_of_degree(g, v, tuple(n)))
            for i in range(g.rank):
                if n[i] < bound[i]:
                    n[i] += 1
                    break
                n[i] = 0
            else:
                break
    return out


def degrees_up_to(d):
    return [tuple(m) for m in product(*(range(c + 1) for c in d))]


def scramble(g, word, rng, swaps=4):
    """The word after up to `swaps` random square swaps either way."""
    table = {**g.squares, **{val: key for key, val in g.squares.items()}}
    w = list(word)
    for _ in range(swaps):
        spots = [t for t in range(len(w) - 1) if (w[t], w[t + 1]) in table]
        if not spots:
            break
        t = rng.choice(spots)
        w[t], w[t + 1] = table[(w[t], w[t + 1])]
    return tuple(w)


def assert_words_match_references(g, bound, rng):
    for p in all_paths_up_to(g, bound):
        assert normalize_word(g, scramble(g, p.edges, rng)) == reference_normalize(g, p.edges) == p.edges
        d = path_degree(g, p)
        for n in degrees_up_to(d):
            assert factor(g, p, n) == reference_factor(g, p, n)
            for m in degrees_up_to(n):
                assert segment(g, p, m, n) == reference_segment(g, p, m, n)


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "ex4.7-n3"])
def test_normalize_factor_and_segment_match_the_references_on_fixtures(name):
    assert_words_match_references(fixture(name), (2, 2), random.Random(name))


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_normalize_factor_and_segment_match_the_references_on_random_graphs(g):
    assert_words_match_references(g, (2, 1), random.Random(0))


@pytest.mark.parametrize("m", [(2, 0), (1,), (-1, 0)])
def test_factor_rejects_degrees_out_of_range(m):
    g = fixture("ex5.7-Lambda")
    with pytest.raises(DegreeOutOfRange):
        factor(g, make_path(g, ["f1"]), m)


def test_only_core_and_paths_read_the_inverse_square_table():
    # core builds squares_inv and paths' one word routine reads it; any
    # other module swapping squares should call that routine
    for module in sorted(FilePath(kgraphs.__file__).parent.glob("*.py")):
        if module.stem in ("core", "paths"):
            continue
        tree = ast.parse(module.read_text("utf-8"))
        readers = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "squares_inv"]
        assert not readers, f"{module.name} reads squares_inv at lines {readers}"


def test_the_runtime_is_pure_stdlib_python_3_10():
    # every module imports only the package and the standard library, and
    # parses as the Python 3.10 that pyproject.toml's requires-python
    # admits
    import sys

    package = FilePath(kgraphs.__file__).parent
    for module in sorted(package.rglob("*.py")):
        tree = ast.parse(module.read_text("utf-8"), feature_version=(3, 10))
        names = [
            alias.name for n in ast.walk(tree) if isinstance(n, ast.Import) for alias in n.names
        ] + [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and not n.level]
        foreign = {
            name for name in names if name.split(".")[0] not in {"kgraphs", *sys.stdlib_module_names}
        }
        assert not foreign, f"{module.relative_to(package)} imports {sorted(foreign)}"


def test_test_modules_share_helpers_only_through_oracles():
    # no test module imports another, at the top or inside a function;
    # tests/oracles.py defines no test, and each function in its last
    # section, the references, opens its docstring with its label
    tests = FilePath(__file__).parent
    for module in sorted(tests.glob("*.py")):
        tree = ast.parse(module.read_text("utf-8"))
        names = [a.name for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names]
        names += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
        imported = [name for name in names if name.split(".")[0].startswith("test_")]
        assert not imported, f"{module.name} imports {imported}"
    source = (tests / "oracles.py").read_text("utf-8")
    defs = [n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)]
    assert not [n.name for n in defs if n.name.startswith("test_")]
    start = source[: source.index(" references\n")].count("\n") + 1
    refs = [n for n in defs if n.lineno > start]
    assert len(refs) >= 10
    for n in refs:
        label = (ast.get_docstring(n) or "").split(":")[0]
        assert label == "Independent" or label.startswith("Previous version of "), n.name


def test_compose_follows_squares_in_both_twists():
    # one vertex, one color-1 loop f, two color-2 loops: the two square
    # tables (straight and twisted) give different normal forms for e1.f
    g1 = fixture("ex7.1-Lambda1")
    g2 = fixture("ex7.1-Lambda2")
    e1 = make_path(g2, ["e1"])
    f = make_path(g2, ["f"])
    assert compose(g2, e1, f) == Path("v", ("f", "e2"))
    assert compose(g1, make_path(g1, ["e1"]), make_path(g1, ["f"])) == Path("v", ("f", "e1"))


def test_compose_requires_matching_endpoints():
    g = fixture("ex3.5-Lambda")
    h = make_path(g, ["h"])  # v -> w
    with pytest.raises(NotComposable):
        compose(g, h, h)
    f1 = make_path(g, ["f1"])  # u -> v
    hf1 = compose(g, h, f1)
    assert hf1 == Path("w", ("h", "f1"))
    assert path_source(g, hf1) == "u"
    assert path_degree(g, hf1) == (1, 1)


def test_segment_peels_range_end_pieces():
    g2 = fixture("ex7.1-Lambda2")
    tau = compose(g2, make_path(g2, ["f"]), make_path(g2, ["e2"]))
    assert tau == Path("v", ("f", "e2"))
    assert segment(g2, tau, (0, 0), (0, 1)) == Path("v", ("e1",))
    assert segment(g2, tau, (0, 0), (1, 0)) == Path("v", ("f",))
    assert segment(g2, tau, (1, 0), (1, 1)) == Path("v", ("e2",))
    assert segment(g2, tau, (0, 0), (1, 1)) == tau
    assert segment(g2, tau, (1, 1), (1, 1)) == vertex_path("v")


def test_segment_degree_bounds():
    g = fixture("ex3.5-Lambda")
    p = make_path(g, ["h", "f1"])
    with pytest.raises(DegreeOutOfRange):
        segment(g, p, (0, 0), (2, 0))
    with pytest.raises(DegreeOutOfRange):
        segment(g, p, (1, 1), (0, 0))
    with pytest.raises(DegreeOutOfRange):
        segment(g, p, (0,), (1,))


def test_segment_three_piece_recomposition():
    rng = random.Random(11)
    for name in ("ex3.5-Lambda", "ex5.6-Omega", "ex7.1-Lambda2"):
        g = fixture(name)
        for p in all_paths_up_to(g, (2, 2)):
            d = path_degree(g, p)
            for _ in range(3):
                m = tuple(rng.randint(0, c) for c in d)
                n = tuple(rng.randint(m[i], c) for i, c in enumerate(d))
                a = segment(g, p, zero_degree(2), m)
                b = segment(g, p, m, n)
                c = segment(g, p, n, d)
                assert compose(g, a, compose(g, b, c)) == p


def test_mce_brute_force():
    g = fixture("ex3.5-Lambda")
    h = make_path(g, ["h"])
    p_g = make_path(g, ["g"])
    exts = mce(g, h, p_g)
    assert exts == [Path("w", ("h", "f1")), Path("w", ("h", "f2"))]
    # disjoint ranges have no common extension
    assert mce(g, h, make_path(g, ["f1"])) == []
    # same-degree distinct paths never extend each other
    assert mce(g, make_path(g, ["f1"]), make_path(g, ["f2"])) == []
    assert mce(g, h, h) == [h]


def test_mce_matches_pairwise_factorization_property():
    # tau is in mce(p, q) iff both range-end segments match
    g = fixture("ex5.6-Omega")
    p = make_path(g, ["f1"])
    q = make_path(g, ["e3"])
    exts = mce(g, p, q)
    assert len(exts) == 1
    tau = exts[0]
    assert segment(g, tau, (0, 0), (1, 0)) == p
    assert segment(g, tau, (0, 0), (0, 1)) == q


def test_paths_of_degree_counts_match_matrix_row_sums():
    for name in ("ex3.5-Lambda", "ex5.6-Lambda", "ex5.6-Omega", "ex5.7-Omega"):
        g = fixture(name)
        for n in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]:
            a = vertex_matrix(g, n)
            for v in g.vertices:
                assert len(paths_of_degree(g, v, n)) == sum(a[g.vertex_index[v]])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_paths_of_degree_matches_the_recursive_reference(name):
    g = fixture(name)
    for v in g.vertices:
        for n in degrees_up_to((2, 2)):
            assert paths_of_degree(g, v, n) == reference_paths_of_degree(g, v, n)


def test_paths_of_degree_takes_a_long_degree_without_recursion():
    g = fixture("ex3.5-LambdaS")
    (p,) = paths_of_degree(g, "u", (0, 5000))
    assert path_degree(g, p) == (0, 5000)


def test_paths_of_degree_examples():
    g = fixture("ex5.6-Lambda")
    assert len(paths_of_degree(g, "u", (1, 1))) == 4
    gr = grid(2, (1, 1))
    assert len(paths_of_degree(gr, "(0,0)", (1, 1))) == 1
    assert paths_of_degree(gr, "(1,1)", (1, 1)) == []


def test_vertex_matrix_entries_are_path_counts():
    for name in ("ex3.5-Lambda", "ex5.6-Omega"):
        g = fixture(name)
        for n in [(1, 0), (0, 1), (1, 1), (2, 2), (2, 1)]:
            a = vertex_matrix(g, n)
            for u in g.vertices:
                counts = {}
                for p in paths_of_degree(g, u, n):
                    counts[path_source(g, p)] = counts.get(path_source(g, p), 0) + 1
                for w in g.vertices:
                    assert a[g.vertex_index[u]][g.vertex_index[w]] == counts.get(w, 0)


def test_vertex_matrix_product_law_and_commutation():
    for name in ("ex3.5-Lambda", "ex3.5-LambdaI", "ex5.6-Omega", "ex5.7-Omega", "sec3-Sigma"):
        g = fixture(name)
        a1 = vertex_matrix(g, (1, 0))
        a2 = vertex_matrix(g, (0, 1))
        assert mat_mul(a1, a2) == mat_mul(a2, a1)
        for m in [(1, 0), (0, 1), (1, 1)]:
            for n in [(1, 0), (1, 1), (2, 0)]:
                lhs = vertex_matrix(g, tuple(x + y for x, y in zip(m, n)))
                assert lhs == mat_mul(vertex_matrix(g, m), vertex_matrix(g, n))


def test_normal_form_confluence_under_random_swap_order():
    rng = random.Random(2026)
    for name in ("ex3.5-Lambda", "ex5.6-Omega", "ex7.1-Lambda2"):
        g = fixture(name)
        words = [p.edges for p in all_paths_up_to(g, (2, 2)) if len(p.edges) >= 2]
        for word in words:
            # scramble by legal ascending swaps first, then re-sort randomly
            scrambled = list(word)
            for _ in range(4):
                spots = [
                    t
                    for t in range(len(scrambled) - 1)
                    if (scrambled[t], scrambled[t + 1]) in g.squares
                ]
                if not spots:
                    break
                t = rng.choice(spots)
                scrambled[t], scrambled[t + 1] = g.squares[(scrambled[t], scrambled[t + 1])]
            deterministic = normalize_word(g, tuple(scrambled))
            for _ in range(5):
                randomized = reference_normalize(g, tuple(scrambled), pick=rng.choice)
                assert randomized == deterministic
            assert deterministic == word


def test_composition_associative_on_small_degrees():
    g = fixture("ex5.6-Omega")
    paths = [p for p in all_paths_up_to(g, (1, 1)) if p.edges]
    rng = random.Random(5)
    trials = 0
    while trials < 100:
        p = rng.choice(paths)
        q = rng.choice([x for x in paths if x.rng == path_source(g, p)] or [None])
        if q is None:
            continue
        r = rng.choice([x for x in paths if x.rng == path_source(g, q)] or [None])
        if r is None:
            continue
        assert compose(g, compose(g, p, q), r) == compose(g, p, compose(g, q, r))
        trials += 1


def test_make_path_normalizes_and_checks_adjacency():
    g = fixture("ex3.5-Lambda")
    # g.e read range-to-source is the descending word [g, e]
    assert make_path(g, ["g", "e"]) == Path("w", ("h", "f1"))
    with pytest.raises(NotComposable):
        make_path(g, ["e", "h"])
    with pytest.raises(ValueError):
        make_path(g, ["nope"])


def test_validator_missing_square():
    g = fixture("ex5.7-Lambda")
    broken = dict(g.squares)
    del broken[("f1", "e")]
    violations = kgraph_violations(g.skeleton, broken, strict=True)
    assert MissingSquare("f1", "e") in violations


def test_validator_non_bijective_squares():
    g = fixture("ex5.7-Lambda")
    broken = dict(g.squares)
    broken[("f1", "e")] = broken[("f2", "e")]  # two keys, one value
    violations = kgraph_violations(g.skeleton, broken, strict=True)
    assert any(isinstance(v, NonBijectiveSquares) for v in violations)


def test_validator_endpoint_mismatch():
    g = fixture("ex3.5-Lambda")
    broken = dict(g.squares)
    # value pair with the wrong source on the color-1 side
    broken[("h1", "f1")] = ("f2", "e'")
    violations = kgraph_violations(g.skeleton, broken, strict=True)
    assert any(isinstance(v, NonBijectiveSquares) for v in violations)
    broken[("h1", "f1")] = ("g", "e")  # r(g)=w but r(h1)=v
    violations = kgraph_violations(g.skeleton, broken, strict=True)
    assert any(isinstance(v, EndpointMismatch) for v in violations)


def test_validator_cube_failure_on_mutated_grid():
    g = grid(3, (1, 1, 1))
    broken = dict(g.squares)
    key = ("e2(0,1,0)", "e3(0,1,1)")
    assert key in broken
    h2, g2 = broken[key]
    broken[key] = (g2, h2)
    violations = kgraph_violations(g.skeleton, broken, strict=False)
    cube = [v for v in violations if isinstance(v, CubeFailure)]
    assert cube
    assert cube[0].colors == (1, 2, 3)


def test_validator_source_vertex_under_strict():
    g = grid(2, (1, 1))
    violations = kgraph_violations(g.skeleton, g.squares, strict=True)
    sources = {(v.vertex, v.color) for v in violations if isinstance(v, SourceVertex)}
    # boundary vertices with q_i = n_i have no color-i in-edges
    assert ("(1,1)", 1) in sources and ("(1,1)", 2) in sources
    assert ("(1,0)", 1) in sources and ("(0,1)", 2) in sources
    assert ("(0,0)", 1) not in sources
    with pytest.raises(InvalidKGraph):
        validate_kgraph(g.skeleton, g.squares, strict=True)


@pytest.mark.parametrize(
    "edge, message",
    [
        (Edge("e", 1, "u", "x"), "edge 'e' references unknown vertex"),
        (Edge("e", 1, "x", "u"), "edge 'e' references unknown vertex"),
        (Edge("e", 3, "u", "u"), "edge 'e' has color 3 outside 1..2"),
        (Edge("e", 0, "u", "u"), "edge 'e' has color 0 outside 1..2"),
    ],
    ids=["unknown-range", "unknown-source", "color-too-big", "color-zero"],
)
def test_kgraph_rejects_malformed_edges(edge, message):
    with pytest.raises(KGraphError) as info:
        KGraph(Skeleton(2, ("u",), (edge,)), {}, True)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (("u", "u"), (), "duplicate vertex ids"),
        (("u",), (Edge("e", 1, "u", "u"), Edge("e", 2, "u", "u")), "duplicate edge id 'e'"),
        (("u",), (Edge("u", 1, "u", "u"),), "vertex and edge ids must be disjoint"),
    ],
    ids=["vertex", "edge", "vertex-and-edge"],
)
def test_kgraph_rejects_repeated_ids(vertices, edges, message):
    with pytest.raises(KGraphError) as info:
        KGraph(Skeleton(2, vertices, edges), {}, True)
    assert str(info.value) == message


# Ids of the wrong type, each unhashable or not an Edge at all: rejected
# as malformed before anything hashes them
UNHASHABLE = {
    "vertex-list": (
        Skeleton(1, ("a", ["b"]), (Edge("e", 1, "a", "a"),)),
        {},
        "vertex id ['b'] is not a string",
    ),
    "src-list": (
        Skeleton(1, ("a",), (Edge("e", 1, ["a"], "a"),)),
        {},
        "edge 'e' has src ['a'] and rng 'a', not two strings",
    ),
    "rng-list": (
        Skeleton(1, ("a",), (Edge("e", 1, "a", ["a"]),)),
        {},
        "edge 'e' has src 'a' and rng ['a'], not two strings",
    ),
    "square-side-list": (
        fixture("ex3.5-LambdaS").skeleton,
        {("e", "f"): (["x"], "y")},
        "square edge id ['x'] is not a string",
    ),
    "edge-tuple": (
        Skeleton(1, ("a",), (("e", 1, "a", "a"),)),
        {},
        "edge ('e', 1, 'a', 'a') is not an Edge",
    ),
}


@pytest.mark.parametrize("case", sorted(UNHASHABLE))
def test_kgraph_rejects_ids_of_the_wrong_type(case):
    skeleton, squares, message = UNHASHABLE[case]
    for build in (KGraph, validate_kgraph, kgraph_violations):
        with pytest.raises(KGraphError) as info:
            build(skeleton, squares, True)
        assert str(info.value) == message


# Values the text format cannot hold: each built and dumped, then failed
# to parse, so the graph could not round-trip. The document beside each
# is what dump_kgraph would have written.
UNWRITABLE = {
    "edge-id-int": (
        Skeleton(1, ("a",), (Edge(7, 1, "a", "a"),)), True, "edge id 7 is not a string",
        {"edges": [{"id": 7, "color": 1, "src": "a", "rng": "a"}]},
    ),
    "color-bool": (
        Skeleton(1, ("a",), (Edge("e", True, "a", "a"),)), True, "edge 'e' has color True, not an int",
        {"edges": [{"id": "e", "color": True, "src": "a", "rng": "a"}]},
    ),
    "color-float": (
        Skeleton(1, ("a",), (Edge("e", 1.0, "a", "a"),)), True, "edge 'e' has color 1.0, not an int",
        {"edges": [{"id": "e", "color": 1.0, "src": "a", "rng": "a"}]},
    ),
    "vertex-int": (
        Skeleton(1, ("a", 3), (Edge("e", 1, "a", "a"),)), False, "vertex id 3 is not a string",
        {"vertices": ["a", 3], "strict_no_sources": False},
    ),
    "rank-bool": (
        Skeleton(True, ("a",), (Edge("e", 1, "a", "a"),)), True, "rank True is not an int",
        {"rank": True},
    ),
    "strict-int": (
        Skeleton(1, ("a",), (Edge("e", 1, "a", "a"),)), 1, "strict must be a bool, not 1",
        {"strict_no_sources": 1},
    ),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_kgraph_rejects_what_the_text_format_cannot_hold(case):
    import json

    from kgraphs.textform import TextFormatError, parse_kgraph

    skeleton, strict, message, changes = UNWRITABLE[case]
    with pytest.raises(KGraphError) as info:
        KGraph(skeleton, {}, strict)
    assert str(info.value) == message
    # and the parser rejects the same value, so the two agree
    doc = {
        "rank": 1,
        "vertices": ["a"],
        "edges": [{"id": "e", "color": 1, "src": "a", "rng": "a"}],
        "squares": [],
        "strict_no_sources": True,
    }
    with pytest.raises(TextFormatError):
        parse_kgraph(json.dumps(dict(doc, **changes)))


def test_rank_is_capped():
    # validation reads every color triple, so the rank is bounded
    loop = (Edge("e", 1, "u", "u"),)
    g = validate_kgraph(Skeleton(KGRAPH_MAX_RANK, ("u",), loop), {}, False)
    assert g.rank == KGRAPH_MAX_RANK
    for k in (0, KGRAPH_MAX_RANK + 1):
        with pytest.raises(KGraphError) as info:
            KGraph(Skeleton(k, ("u",), loop), {}, False)
        assert str(info.value) == f"rank must be in 1..{KGRAPH_MAX_RANK}"


# A skeleton field or a square table in the wrong container is named by a
# KGraphError: unchecked, it would escape as AttributeError or TypeError,
# or build a wrong graph (a generator of edges spent by the checks, the
# string "uv" read as the two vertices "u" and "v")
def _containers(case):
    g = fixture("ex3.5-LambdaS")
    k, vertices, edges = g.skeleton
    return {
        "squares-list": (g.skeleton, list(g.squares.items()), "squares must be a dict, not list"),
        "squares-none": (g.skeleton, None, "squares must be a dict, not NoneType"),
        "vertices-none": (Skeleton(k, None, edges), g.squares, "vertices must be a tuple or a list, not NoneType"),
        "edges-none": (Skeleton(k, vertices, None), g.squares, "edges must be a tuple or a list, not NoneType"),
        "edges-generator": (
            Skeleton(k, vertices, (e for e in edges)), g.squares, "edges must be a tuple or a list, not generator"
        ),
        "vertices-string": (Skeleton(1, "uv", ()), {}, "vertices must be a tuple or a list, not str"),
    }[case]


@pytest.mark.parametrize(
    "case", ["squares-list", "squares-none", "vertices-none", "edges-none", "edges-generator", "vertices-string"]
)
def test_kgraph_names_a_field_in_the_wrong_container(case):
    skeleton, squares, message = _containers(case)
    for build in (KGraph, validate_kgraph, kgraph_violations):
        with pytest.raises(KGraphError) as info:
            build(skeleton, squares, True)
        assert str(info.value) == message


def test_vertices_and_edges_may_be_lists():
    g = fixture("ex3.5-Lambda")
    listed = validate_kgraph(Skeleton(g.rank, list(g.vertices), list(g.edges)), g.squares)
    assert listed.in_sources == g.in_sources and listed.in_edges == g.in_edges
    broken = dict(g.squares)
    broken.popitem()
    assert kgraph_violations(Skeleton(g.rank, list(g.vertices), list(g.edges)), broken) == kgraph_violations(
        g.skeleton, broken
    )


@pytest.mark.parametrize("n", [(1.5, 0), ("1", 0), (True, 0), (0, 1.0)])
def test_degrees_take_only_ints(n):
    # unchecked, a float would reach range() and a string min() as
    # TypeError, and a bool would pass as 1
    g = fixture("ex3.5-Lambda")
    calls = (
        lambda: push(g, [1, 0, 0], n),
        lambda: vertex_matrix(g, n),
        lambda: paths_of_degree(g, "u", n),
    )
    for call in calls:
        with pytest.raises(DegreeOutOfRange):
            call()


# ------------------------------------------------- validation by counting

@st.composite
def valid_graphs(draw):
    """A valid graph: a strict product of two 1-graphs, a random strict
    2-graph, the pullback of a random 2-graph along N^3 -> N^2, one side
    of an in-split pair (a random strict 2-graph or a fixture, and its
    in-split at a vertex), or one of the fixtures."""
    kind = draw(st.sampled_from(["product", "random", "pullback", "insplit", "fixture"]))
    if kind == "fixture":
        return fixture(draw(st.sampled_from(FIXTURE_NAMES)))
    if kind == "product":
        a = draw(square_matrices(draw(st.integers(1, 3)), 1))
        return product_graph(a, draw(square_matrices(draw(st.integers(1, 3)), 1)))
    n = draw(st.integers(1, 3))
    a1 = draw(square_matrices(n, 1 if kind != "pullback" else 0))
    a2 = [[a1[r][c] + (r == c) for c in range(n)] for r in range(n)]
    g = random_2graph(random.Random(draw(st.integers(0, 2**32))), "p", a1, a2)
    if kind == "pullback":
        images = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=3, max_size=3))
        return pullback(g, monoid_hom(images, 2))
    if kind == "insplit":
        if draw(st.booleans()):
            g = fixture(draw(st.sampled_from(FIXTURE_NAMES)))
        v = draw(st.sampled_from(g.vertices))
        partitions = enumerate_valid_partitions(g, v) if len(pairing_closure(g, v)) > 1 else []
        if partitions and draw(st.booleans()):
            return insplit(g, draw(st.sampled_from(partitions)))[0]
    return g


MUTATIONS = ["cube", "corner", "strip", "retarget", "recolor", "move", "uncomposable", "repeat", "drop", "none"]


def mutate(draw, g, kind):
    """(skeleton, squares, strict) of g after one mutation of the given
    kind, or unchanged when g offers no place for it."""
    squares, edges, strict = dict(g.squares), list(g.edges), g.strict
    keys = list(squares)
    color = {e.id: e.color for e in edges}

    def colors(key):
        return color[key[0]], color[key[1]]

    def ends(key):
        return g.by_id[key[0]].rng, g.by_id[key[1]].src

    if kind == "drop" and keys:
        del squares[draw(st.sampled_from(keys))]
    elif kind == "repeat" and len(keys) > 1:
        a, b = draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2, unique=True))
        squares[a] = squares[b]
    elif kind == "move" and keys:
        # the values of two squares of different color pairs swapped, the
        # pairs sharing their larger color or not, and their range and
        # source where some do, so that only a color tells them apart
        a, top = draw(st.sampled_from(keys)), draw(st.booleans())
        others = [b for b in keys if colors(b) != colors(a) and (colors(b)[1] == colors(a)[1]) == top]
        others = [b for b in others if ends(b) == ends(a)] or others
        if others:
            b = draw(st.sampled_from(others))
            squares[a], squares[b] = squares[b], squares[a]
    elif kind == "recolor" and edges:
        t = draw(st.integers(0, len(edges) - 1))
        edges[t] = edges[t]._replace(color=draw(st.integers(0, g.rank + 1)))
    elif kind == "retarget" and edges:
        t = draw(st.integers(0, len(edges) - 1))
        end = draw(st.sampled_from(["src", "rng"]))
        edges[t] = edges[t]._replace(**{end: draw(st.sampled_from([*g.vertices, "zz"]))})
    elif kind in ("cube", "corner"):
        # the values of two squares of one color pair and one range
        # swapped: with one source too every face stays a bijection and a
        # cube may break; with two sources each value leaves its key's
        # endpoints. The keys are grouped first, so a graph with many keys
        # costs no pass over every pair of them
        groups: dict = {}
        for a in keys:
            groups.setdefault((colors(a), ends(a)[0]), []).append(a)
        groups = [group for group in groups.values() if len(group) > 1]
        if groups:
            group = draw(st.sampled_from(groups))
            a = draw(st.sampled_from(group))
            others = [b for b in group if b != a and (ends(b) == ends(a)) == (kind == "cube")]
            if others:
                b = draw(st.sampled_from(others))
                squares[a], squares[b] = squares[b], squares[a]
    elif kind == "strip":
        # no edge into v, and no square through such an edge, under strict
        v = draw(st.sampled_from(g.vertices))
        gone = {e.id for e in edges if e.rng == v}
        edges = [e for e in edges if e.rng != v]
        squares = {key: val for key, val in squares.items() if gone.isdisjoint((*key, *val))}
        strict = True
    elif kind == "uncomposable" and keys:
        # a key (x, y) replaced by (x, z), z of y's color but not ending
        # where x starts: as many keys of each color pair as before
        x, y = old = draw(st.sampled_from(keys))
        zs = [z.id for z in edges if z.color == color[y] and z.rng != g.by_id[x].src and (x, z.id) not in squares]
        if zs:
            squares[(x, draw(st.sampled_from(zs)))] = squares.pop(old)
    return Skeleton(g.rank, g.vertices, tuple(edges)), squares, strict


def _outcome(build, skeleton, squares, strict):
    # the violations with their types, or the error's type and message
    try:
        return [(type(v), v, str(v)) for v in build(skeleton, squares, strict)]
    except KGraphError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(valid_graphs(), st.sampled_from(MUTATIONS), st.data())
def test_validation_by_counting_matches_the_reference(g, kind, data):
    skeleton, squares, strict = mutate(data.draw, g, kind)
    expected = _outcome(reference_violations, skeleton, squares, strict)
    assert _outcome(kgraph_violations, skeleton, squares, strict) == expected
    try:
        validate_kgraph(skeleton, squares, strict)
        assert expected == []
    except InvalidKGraph as err:
        assert str(err) == str(InvalidKGraph([v for _, v, _ in expected]))
    except KGraphError as err:
        assert (type(err), str(err)) == expected


def _single_mutations(g):
    # every square turned around, every value swap between two squares,
    # every value spliced from two squares, and every edge moved at one
    # end to another vertex
    squares = g.squares
    for a, val in squares.items():
        yield g.skeleton, {**{b: v for b, v in squares.items() if b != a}, val: a}
    for a, b in combinations(squares, 2):
        yield g.skeleton, {**squares, a: squares[b], b: squares[a]}
        yield g.skeleton, {**squares, a: (squares[a][0], squares[b][1])}
    for t, e in enumerate(g.edges):
        for end, v in product(("src", "rng"), g.vertices):
            if v != getattr(e, end):
                edges = g.edges[:t] + (e._replace(**{end: v}),) + g.edges[t + 1 :]
                yield Skeleton(g.rank, g.vertices, edges), squares


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "pullback", "grid3"])
def test_validation_by_counting_matches_the_reference_on_every_single_mutation(name):
    # the rank-3 pullback has one vertex, so squares of its three color
    # pairs share all their endpoints and a swap changes only colors
    g = {
        "pullback": lambda: pullback(fixture("ex5.7-Lambda"), monoid_hom([(1, 0), (0, 1), (1, 0)], 2)),
        "grid3": lambda: grid(3, (1, 1, 1)),
    }.get(name, lambda: fixture(name))()
    for skeleton, squares in _single_mutations(g):
        for strict in (False, True):
            expected = _outcome(reference_violations, skeleton, squares, strict)
            assert _outcome(kgraph_violations, skeleton, squares, strict) == expected


def test_a_count_that_matches_does_not_hide_an_uncomposable_key():
    # the key (e, f) becomes (e, g): g has f's color but ends at w, not at
    # e's source u, so each color pair keeps its number of keys
    g = fixture("ex3.5-Lambda")
    squares = dict(g.squares)
    squares[("e", "g")] = squares.pop(("e", "f"))
    found = kgraph_violations(g.skeleton, squares)
    assert found == reference_violations(g.skeleton, squares, True)
    assert found[0] == MissingSquare("e", "f")
    assert EndpointMismatch(("e", "g"), ("f", "e"), "key pair not composable") in found


@pytest.mark.parametrize("side", ["key", "value"])
def test_square_sides_must_be_pairs(side):
    # a longer side is rejected before the validator unpacks it as a pair
    g = fixture("ex3.5-LambdaS")
    squares = dict(g.squares)
    if side == "key":
        squares[("e", "f", "e'")] = squares.pop(("e", "f"))
    else:
        squares[("e", "f")] += ("e",)
    for build in (KGraph, validate_kgraph):
        with pytest.raises(KGraphError, match="is not a pair of edge ids"):
            build(g.skeleton, squares, True)


def test_one_color_graphs_need_no_squares():
    g = rose(3)
    assert g.rank == 1 and len(g.edges) == 3
    assert paths_of_degree(g, "u", (2,)) and len(paths_of_degree(g, "u", (2,))) == 9


def test_degree_helpers():
    assert deg_join((1, 0), (0, 2)) == (1, 2)
    assert deg_sub((2, 2), (1, 0)) == (1, 2)
    assert deg_leq((0, 0), (1, 1)) and not deg_leq((2, 0), (1, 1))
    assert unit_degree(3, 2) == (0, 1, 0)
    assert zero_degree(2) == (0, 0)


@pytest.mark.parametrize("color", [1.5, True, "1", 0, 3])
def test_unit_degree_takes_only_an_int_color_in_range(color):
    # a float or a bool once gave a degree, (0, 0) or (1, 0)
    with pytest.raises(KGraphError, match="color"):
        unit_degree(2, color)


def test_every_typed_error_shares_one_base():
    import kgraphs
    from kgraphs.cli import CLIUsage
    from kgraphs.constructions import UnknownFixture
    from kgraphs.core import KGraphError

    exported = [getattr(kgraphs, name) for name in kgraphs.__all__]
    errors = [obj for obj in exported if isinstance(obj, type) and issubclass(obj, Exception)]
    assert len(errors) >= 15
    for err in errors + [CLIUsage]:
        assert issubclass(err, KGraphError) and issubclass(err, ValueError), err
    # fixture lookups keep failing as KeyError too
    with pytest.raises(KeyError):
        fixture("no-such-fixture")
    assert issubclass(UnknownFixture, KeyError)


def test_package_names_resolve_lazily_to_their_modules():
    import importlib
    import pkgutil

    import kgraphs

    assert len(kgraphs.__all__) == len(set(kgraphs.__all__))
    listed = dir(kgraphs)
    for module, names in kgraphs._EXPORTS.items():
        source = importlib.import_module(f"kgraphs.{module}")
        for name in names:
            obj = getattr(kgraphs, name)
            assert obj is getattr(source, name), name
            if callable(obj):
                assert obj.__module__ == source.__name__, name
            assert name in listed
    from kgraphs import KGraph, dge_eq  # noqa: F401

    with pytest.raises(AttributeError, match="no_such_name"):
        kgraphs.no_such_name
    with pytest.raises(ImportError):
        from kgraphs import no_such_name  # noqa: F401
    # _EXPORTS is the one list of public names: no submodule keeps another
    for info in pkgutil.iter_modules(kgraphs.__path__):
        assert not hasattr(importlib.import_module(f"kgraphs.{info.name}"), "__all__"), info.name


def test_the_in_edge_index_is_the_one_integer_incidence_list():
    # KGraph.in_sources is the one integer incidence index: no module reads
    # a flat (range, source) edge list `step_pairs`, intertwiner_check
    # reads the index instead of regrouping edges on every call, and
    # dimension, homology and sse never read the edge lists `in_edges`;
    # its transpose out_sources is the one out-edge index, read by the
    # zero-column rule of sse_search, and no module reads `out_edges`
    reads = {}
    for path in FilePath(kgraphs.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attrs = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        assert "step_pairs" not in attrs and "out_edges" not in attrs, path.name
        if path.stem in ("dimension", "homology", "sse"):
            assert "in_edges" not in attrs, path.name
        if path.name == "sse.py":
            reads = {
                node.name: {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                for node in tree.body
                if isinstance(node, ast.FunctionDef)
            }
    assert "in_sources" in reads["intertwiner_check"]
    assert "out_sources" in reads["sse_search"]


# the graded queries that read a graph's sources off in_sources only
GRADED_QUERIES = {
    "h0": h0,
    "rank_invariant": rank_invariant,
    "dge_eq": lambda g: dge_eq(g, unit_element(g, g.vertices[0]), dge_shift(unit_element(g, g.vertices[0]), (1, 0))),
    "hom_check": lambda g: hom_check(identity_generator_map(g)),
    "iso_check": lambda g: iso_check(identity_generator_map(g), identity_generator_map(g)),
    "pointed_check": lambda g: pointed_check(identity_generator_map(g)),
}


@pytest.mark.parametrize("name", list(GRADED_QUERIES))
def test_graded_queries_leave_the_edge_lists_unbuilt(name):
    # a rank-2 product validates by counting, with no in_edges, and these
    # queries build none either
    g = product_graph([[1, 1], [1, 1]], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert "in_edges" not in g.__dict__.keys()
    GRADED_QUERIES[name](g)
    assert "in_edges" not in g.__dict__.keys()
