"""In-splitting and sink deletion against the frozen catalog graphs."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    graphs,
    insplit_pair,
    mat_mul,
    product_graph,
    random_2graph,
    random_2graphs,
    ranked_graphs,
    reference_reachable,
    reference_sinks,
    square_matrices,
)

from kgraphs.constructions import (
    FIXTURE_NAMES,
    fixture,
    grid,
    monoid_hom,
    pullback,
    rose,
    skew_product_window,
)
from kgraphs.core import CLIUsage, Edge, KGraphError, Skeleton, validate_kgraph, vertex_matrix
from kgraphs.paths import Path, mce, paths_of_degree
from kgraphs.dimension import generator_map, generator_map_from_matrix, iso_check, unit_element
from kgraphs.homology import h0, rank_invariant
from kgraphs.moves import (
    IndivisibleVertex,
    InvalidPartition,
    NotASink,
    ParentMap,
    Partition,
    check_partition,
    choose_partition,
    ei_sinks,
    enumerate_valid_partitions,
    insplit,
    insplit_maps,
    insplit_matrices,
    pairing_closure,
    phi_insplit,
    phi_sink_delete,
    psi_insplit,
    sink_colors,
    sink_delete,
    sink_delete_maps,
    sink_delete_witnesses,
)
from kgraphs.sse import SSEWitness, sse_search


# ------------------------------------------------------------------ pairing

def test_pairing_classes_at_v():
    g = fixture("ex3.5-Lambda")
    assert pairing_closure(g, "v") == [("h1", "f2"), ("h2", "f1")]


def test_pairing_single_class_elsewhere():
    g = fixture("ex3.5-Lambda")
    # every pair at u and at w admits a common extension
    assert len(pairing_closure(g, "u")) == 1
    assert len(pairing_closure(g, "w")) == 1
    with pytest.raises(IndivisibleVertex):
        enumerate_valid_partitions(g, "u")
    with pytest.raises(IndivisibleVertex):
        enumerate_valid_partitions(g, "w")


def test_partition_enumeration():
    g = fixture("ex3.5-Lambda")
    parts = enumerate_valid_partitions(g, "v")
    assert parts == [Partition("v", ("f2", "h1"), ("f1", "h2"))]
    # three singleton classes give 2^2 - 1 = 3 splits
    assert pairing_closure(rose(3), "u") == [("c1",), ("c2",), ("c3",)]
    parts3 = enumerate_valid_partitions(rose(3), "u")
    assert len(parts3) == 3
    assert parts3[0] == Partition("u", ("c1",), ("c2", "c3"))
    for p in parts3:
        check_partition(rose(3), p)


def test_partition_validation():
    g = fixture("ex3.5-Lambda")
    with pytest.raises(InvalidPartition):
        check_partition(g, Partition("v", ("h1", "f1"), ("h2", "f2")))  # splits classes
    with pytest.raises(InvalidPartition):
        check_partition(g, Partition("v", ("h1", "f2", "h2", "f1"), ()))
    with pytest.raises(InvalidPartition):
        check_partition(g, Partition("v", ("h1", "f2", "e"), ("h2", "f1")))
    with pytest.raises(InvalidPartition):
        check_partition(g, Partition("v", ("h1", "f2"), ("h2",)))
    with pytest.raises(InvalidPartition):
        check_partition(g, Partition("nope", ("h1",), ("h2",)))


def test_partition_sides_must_not_repeat_an_edge():
    # compared as sets, f2 twice passed and gave v^1 the S row [2, 0, 0]
    g = fixture("ex3.5-Lambda")
    with pytest.raises(InvalidPartition, match=r"sides repeat edge ids: \['f2'\]"):
        insplit_matrices(g, Partition("v", ("f2", "f2", "h1"), ("f1", "h2")), 2)
    with pytest.raises(InvalidPartition, match=r"sides repeat edge ids: \['h2'\]"):
        check_partition(g, Partition("v", ("f2", "h1"), ("f1", "h2", "h2")))


def test_choose_partition_builds_the_enumerated_entry():
    cases = [(rose(c), "u") for c in range(1, 7)]
    cases += [(fixture(name), v) for name in FIXTURE_NAMES for v in fixture(name).vertices]
    for g, v in cases:
        c = len(pairing_closure(g, v))
        if c < 2:
            with pytest.raises(IndivisibleVertex):
                choose_partition(g, v, None, 0)
            continue
        if c > 6:
            continue
        options = enumerate_valid_partitions(g, v)
        assert len(options) == 2 ** (c - 1) - 1
        for n, want in enumerate(options):
            assert choose_partition(g, v, None, n) == want
        for n in (-1, len(options)):
            with pytest.raises(CLIUsage, match=f"vertex has {len(options)} valid partition"):
                choose_partition(g, v, None, n)


# ----------------------------------------------------------------- insplit

def test_insplit_matches_catalog():
    g = fixture("ex3.5-Lambda")
    (part,) = enumerate_valid_partitions(g, "v")
    split, parents = insplit(g, part)
    assert split == fixture("ex3.5-LambdaI")
    assert parents.vertices == {"u": "u", "v^1": "v", "v^2": "v", "w": "w"}
    assert parents.edges["h1^2"] == "h1"
    assert parents.edges["f1"] == "f1"
    assert split.strict


def test_insplit_rose():
    g = rose(2)
    (part,) = [p for p in enumerate_valid_partitions(g, "u") if p.side1 == ("c1",)]
    split, parents = insplit(g, part)
    assert split.vertices == ("u^1", "u^2")
    assert len(split.edges) == 4
    assert {e.id for e in split.edges} == {"c1^1", "c1^2", "c2^1", "c2^2"}
    # every offspring of c1 keeps range u^1, of c2 range u^2
    assert all(split.by_id[f"c1^{t}"].rng == "u^1" for t in (1, 2))
    assert all(split.by_id[f"c2^{t}"].rng == "u^2" for t in (1, 2))


def test_insplit_matrix_identities():
    cases = [
        (fixture("ex3.5-Lambda"), enumerate_valid_partitions(fixture("ex3.5-Lambda"), "v")[0]),
        (rose(2), enumerate_valid_partitions(rose(2), "u")[0]),
        (rose(3), enumerate_valid_partitions(rose(3), "u")[1]),
        (fixture("ex5.6-Omega"), enumerate_valid_partitions(fixture("ex5.6-Omega"), "w")[0]),
    ]
    for g, part in cases:
        split, _ = insplit(g, part)
        for j in range(1, g.rank + 1):
            r, s = insplit_matrices(g, part, j)
            a_j = vertex_matrix(g, tuple(1 if i == j else 0 for i in range(1, g.rank + 1)))
            b_j = vertex_matrix(split, tuple(1 if i == j else 0 for i in range(1, g.rank + 1)))
            assert mat_mul(r, s) == a_j
            assert mat_mul(s, r) == b_j
            for i in range(1, g.rank + 1):
                a_i = vertex_matrix(g, tuple(1 if t == i else 0 for t in range(1, g.rank + 1)))
                b_i = vertex_matrix(split, tuple(1 if t == i else 0 for t in range(1, g.rank + 1)))
                assert mat_mul(a_i, r) == mat_mul(r, b_i)
                assert mat_mul(b_i, s) == mat_mul(s, a_i)


def test_insplit_pinned_matrices():
    g = fixture("ex3.5-Lambda")
    (part,) = enumerate_valid_partitions(g, "v")
    r, s = insplit_matrices(g, part, 1)
    assert r == [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
    assert s == [[2, 0, 0], [0, 1, 0], [0, 1, 0], [0, 1, 0]]


def test_insplit_on_nonstrict_graph():
    strict = fixture("ex3.5-Lambda")
    g = validate_kgraph(strict.skeleton, strict.squares, strict=False)
    (part,) = enumerate_valid_partitions(g, "v")
    split, _ = insplit(g, part)
    assert not split.strict
    assert split.skeleton == fixture("ex3.5-LambdaI").skeleton


def reference_insplit(g, p):
    """Previous version of insplit: each new edge indexed by range and
    color, and each lifted square recovered by searching the offspring of
    its parent edges for the one with the right source.

    Offspring ids are '<v>^1', '<v>^2' for the vertex and '<e>^1', '<e>^2'
    for each edge with source v; squares lift uniquely, pinned by sources.
    """
    check_partition(g, p)
    v = p.vertex
    side = {eid: 1 for eid in p.side1} | {eid: 2 for eid in p.side2}
    v1, v2 = f"{v}^1", f"{v}^2"
    taken = set(g.vertices) | {e.id for e in g.edges}
    for fresh in (v1, v2):
        if fresh in taken:
            raise KGraphError(f"offspring id {fresh!r} collides with an existing id")

    vertices = []
    vertex_parent = {}
    for w in g.vertices:
        if w == v:
            vertices.extend([v1, v2])
            vertex_parent[v1] = v
            vertex_parent[v2] = v
        else:
            vertices.append(w)
            vertex_parent[w] = w

    def new_range(e):
        # an edge with range v lands on the copy named by its side
        return f"{v}^{side[e.id]}" if e.rng == v else e.rng

    edges = []
    edge_parent = {}
    offspring = {}
    for e in g.edges:
        if e.src == v:
            for t in (1, 2):
                fresh = f"{e.id}^{t}"
                if fresh in taken:
                    raise KGraphError(f"offspring id {fresh!r} collides with an existing id")
                child = Edge(fresh, e.color, f"{v}^{t}", new_range(e))
                edges.append(child)
                edge_parent[fresh] = e.id
                offspring.setdefault(e.id, []).append(child)
        else:
            child = Edge(e.id, e.color, e.src, new_range(e))
            edges.append(child)
            edge_parent[e.id] = e.id
            offspring.setdefault(e.id, []).append(child)

    # lift each square: the new inner edge is the offspring whose source
    # matches, first g2 pinned by s(g2) = s(h), then h2 by s(h2) = r(g2)
    in_new = {}
    for e in edges:
        in_new.setdefault((e.rng, e.color), []).append(e)
    squares = {}
    for a in edges:
        for jc in range(a.color + 1, g.rank + 1):
            for b in in_new.get((a.src, jc), []):
                h2p, g2p = g.squares[(edge_parent[a.id], edge_parent[b.id])]
                (g2n,) = [e for e in offspring[g2p] if e.src == b.src]
                (h2n,) = [e for e in offspring[h2p] if e.src == g2n.rng]
                squares[(a.id, b.id)] = (h2n.id, g2n.id)

    split = validate_kgraph(
        Skeleton(g.rank, tuple(vertices), tuple(edges)), squares, strict=g.strict
    )
    return split, ParentMap(vertex_parent, edge_parent)


def _insplit_cases(g):
    # every valid partition at every vertex with at most 6 pairing classes
    for v in g.vertices:
        if 2 <= len(pairing_closure(g, v)) <= 6:
            yield from enumerate_valid_partitions(g, v)


def _assert_insplit_matches_the_reference(g):
    count = 0
    for p in _insplit_cases(g):
        split, parents = insplit(g, p)
        want, want_parents = reference_insplit(g, p)
        assert split == want and parents == want_parents, p
        assert (split.vertices, split.edges) == (want.vertices, want.edges), p
        count += 1
    return count


def test_insplit_matches_the_reference_on_fixtures_and_pairs():
    graphs = [fixture(name) for name in FIXTURE_NAMES]
    graphs += [insplit_pair(n)[0] for n in (0, 2, 3, 5)]
    assert sum(map(_assert_insplit_matches_the_reference, graphs)) > 0


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs(), ranked_graphs()))
def test_insplit_matches_the_reference_on_generated_graphs(g):
    _assert_insplit_matches_the_reference(g)


def _raised(f, *args):
    with pytest.raises(KGraphError) as info:
        f(*args)
    return type(info.value), str(info.value)


def _renamed(g, names):
    # g with the vertex and edge ids in names replaced
    def n(x):
        return names.get(x, x)

    edges = tuple(Edge(n(e.id), e.color, n(e.src), n(e.rng)) for e in g.edges)
    squares = {tuple(map(n, key)): tuple(map(n, val)) for key, val in g.squares.items()}
    return validate_kgraph(Skeleton(g.rank, tuple(map(n, g.vertices)), edges), squares)


def test_insplit_raises_what_the_reference_raises():
    g = fixture("ex3.5-Lambda")
    (part,) = enumerate_valid_partitions(g, "v")
    cases = [
        (g, Partition("v", ("h1", "f1"), ("h2", "f2"))),
        (g, Partition("v", ("h1", "f2", "h2", "f1"), ())),
        (g, Partition("v", ("h1", "f2", "e"), ("h2", "f1"))),
        (g, Partition("v", ("h1", "f2"), ("h2",))),
        (g, Partition("nope", ("h1",), ("h2",))),
    ]
    # an offspring id that g already has: a copy of v, or an offspring of
    # h1, h2 or h, the edges with source v; of two, the first one made
    collisions = (
        {"w": "v^1"}, {"u": "v^2"}, {"g": "h1^1"}, {"e": "h^2"},
        {"g": "h2^1", "e": "h^1"}, {"g": "h^2", "e": "h^1"}, {"w": "v^2", "g": "h1^1"},
    )
    for names in collisions:
        cases.append((_renamed(g, names), part))
    for h, p in cases:
        want = _raised(reference_insplit, h, p)
        assert _raised(insplit, h, p) == want, p
    messages = [_raised(insplit, h, p)[1] for h, p in cases[5:]]
    assert messages == [
        f"offspring id {fresh!r} collides with an existing id"
        for fresh in ("v^1", "v^2", "h1^1", "h^2", "h2^1", "h^1", "v^2")
    ]


# ---------------------------------------------------------------- sinks

def test_ei_sinks():
    g = fixture("ex3.5-Lambda")
    assert ei_sinks(g, 1) == ["w"]
    assert ei_sinks(g, 2) == ["v", "w"]
    assert sink_colors(g, "v") == [2]
    assert sink_colors(g, "u") == []
    h = grid(2, (2, 2))
    assert ei_sinks(h, 1) == ["(0,0)", "(0,1)", "(0,2)"]


@pytest.mark.parametrize("color", [1.5, True, "1", 0, 3])
def test_ei_sinks_takes_only_an_int_color_in_range(color):
    # 1.5 and "1" once raised TypeError, True read color 1
    with pytest.raises(KGraphError, match="color"):
        ei_sinks(fixture("ex3.5-Lambda"), color)


@pytest.mark.parametrize("color", [1.5, True])
def test_insplit_matrices_take_only_an_int_color(color):
    # 1.5 once gave an S with no color-j edges on either side
    g = fixture("ex3.5-Lambda")
    with pytest.raises(KGraphError, match="not an int"):
        insplit_matrices(g, enumerate_valid_partitions(g, "v")[0], color)


VERTEX_TAKERS = {
    "sink_colors": sink_colors,
    "sink_delete": sink_delete,
    "pairing_closure": pairing_closure,
    "choose_partition": lambda g, v: choose_partition(g, v, None, 0),
    "unit_element": unit_element,
    "paths_of_degree": lambda g, v: paths_of_degree(g, v, (1, 0)),
    "check_partition": lambda g, v: check_partition(g, Partition(v, ("e",), ("f",))),
}


@pytest.mark.parametrize("name", VERTEX_TAKERS)
@pytest.mark.parametrize("vertex", [["v"], 1])
def test_a_vertex_that_is_not_a_string_is_unknown(name, vertex):
    # a list once escaped as TypeError: unhashable type
    with pytest.raises(KGraphError, match="unknown vertex"):
        VERTEX_TAKERS[name](fixture("ex3.5-Lambda"), vertex)


def test_sink_delete_matches_catalog():
    g = fixture("ex3.5-Lambda")
    assert sink_delete(g, "v") == fixture("ex3.5-LambdaS")
    assert set(g.vertices) - set(sink_delete(g, "v").vertices) == {"v", "w"}
    # w is also a sink; deleting it keeps u and v
    cut = sink_delete(g, "w")
    assert cut.vertices == ("u", "v")
    assert cut.strict


def test_sink_delete_rejects_non_sink():
    g = fixture("ex3.5-Lambda")
    with pytest.raises(NotASink):
        sink_delete(g, "u")
    with pytest.raises(NotASink):
        sink_delete(fixture("ex3.5-LambdaS"), "u")


def test_sink_delete_removes_whole_downstream():
    g = grid(2, (2, 2))
    cut = sink_delete(g, "(0,1)")
    assert set(g.vertices) - set(cut.vertices) == {"(0,1)", "(0,0)"}
    assert all(e.src in cut.vertices and e.rng in cut.vertices for e in cut.edges)


def _check_sinks(g):
    # ei_sinks, sink_colors and the vertices sink_delete removes, against
    # the scan and search of g.skeleton.edges
    sinks, colors = reference_sinks(g)
    assert {i: ei_sinks(g, i) for i in sinks} == sinks
    assert {v: sink_colors(g, v) for v in colors} == colors
    for v in g.vertices:
        if not colors[v]:
            with pytest.raises(NotASink):
                sink_delete(g, v)
            continue
        dead = reference_reachable(g, v)
        if dead == set(g.vertices):
            with pytest.raises(KGraphError, match="removes every vertex"):
                sink_delete(g, v)
        else:
            assert set(g.vertices) - set(sink_delete(g, v).vertices) == dead, v


def test_sinks_match_the_reference():
    cases = [fixture(name) for name in FIXTURE_NAMES]
    cases += [grid(2, (2, 3)), skew_product_window(fixture("sec3-Lambda"), (-1, 0), (1, 2))]
    for g in cases:
        _check_sinks(g)


@settings(max_examples=60, deadline=None)
@given(st.one_of(graphs(), ranked_graphs()))
def test_sinks_match_the_reference_on_generated_graphs(g):
    _check_sinks(g)


def test_sink_delete_empty_result_is_an_error():
    g = validate_kgraph(
        Skeleton(2, ("u",), (Edge("b", 1, "u", "u"),)), {}, strict=False
    )
    with pytest.raises(ValueError):
        sink_delete(g, "u")


# ------------------------------------------------- pairing classes vs mce

def mce_pairing_closure(g, v):
    """The pairing classes at v by brute force: edges e, f with range v
    are joined when the one-edge paths have a minimal common extension.
    Class order and member order follow the skeleton."""
    edges = [e for e in g.edges if e.rng == v]
    parent = {e.id: e.id for e in edges}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in combinations(edges, 2):
        if a.color != b.color and mce(g, Path(v, (a.id,)), Path(v, (b.id,))):
            parent[find(b.id)] = find(a.id)
    classes = {}
    for e in edges:
        classes.setdefault(find(e.id), []).append(e.id)
    return [tuple(c) for c in classes.values()]


def test_pairing_closure_matches_mce_on_fixtures():
    graphs = [fixture(name) for name in FIXTURE_NAMES]
    graphs += [fixture("ex4.7-n3"), rose(3), grid(2, (2, 2)), grid(3, (1, 1, 1))]
    graphs.append(pullback(fixture("sec3-Sigma"), monoid_hom([(1, 0), (0, 1), (1, 1)], 2)))
    for g in graphs:
        for v in g.vertices:
            assert pairing_closure(g, v) == mce_pairing_closure(g, v), (g, v)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pairing_closure_matches_mce_on_random_2graphs(data):
    n = data.draw(st.integers(1, 3))
    a1 = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n), min_size=n, max_size=n))
    c0, c1 = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    # a2 is a polynomial in a1, so the two matrices commute
    a2 = [[c0 * (r == c) + c1 * a1[r][c] + (r == c) for c in range(n)] for r in range(n)]
    g = random_2graph(random.Random(data.draw(st.integers(0, 2**32))), "p", a1, a2)
    for v in g.vertices:
        assert pairing_closure(g, v) == mce_pairing_closure(g, v)


def test_move_maps_come_from_one_build():
    g = fixture("ex3.5-Lambda")
    (part,) = enumerate_valid_partitions(g, "v")
    for j in (1, 2):
        split, parents, phi, psi = insplit_maps(g, part, j)
        assert (split, parents) == insplit(g, part)
        r, _ = insplit_matrices(g, part, j)
        assert phi == generator_map_from_matrix(g, split, r) == phi_insplit(g, part)
        assert psi == psi_insplit(g, part, j)
        assert iso_check(phi, psi)
    cut, phi, witnesses = sink_delete_maps(g, "v")
    assert cut == sink_delete(g, "v")
    assert phi == phi_sink_delete(g, "v")
    assert witnesses == sink_delete_witnesses(g, "v")


# ------------------------------------------ the theorem on generated graphs

@st.composite
def theorem_graphs(draw):
    """A random 2-graph on 1-3 vertices (sources and e_1-sinks allowed), or
    the strict product of a 1-graph on 1-2 vertices with a 2-vertex 1-graph
    whose second vertex is a sink, in either order."""
    if draw(st.booleans()):
        return draw(random_2graphs())
    a = draw(square_matrices(draw(st.integers(1, 2)), 1))
    # column 1 is zero: vertex 1 emits nothing
    b = [[draw(st.integers(1, 2)), 0], [draw(st.integers(1, 2)), 0]]
    return product_graph(a, b) if draw(st.booleans()) else product_graph(b, a)


def _invariants(g, with_h0):
    # h0 is defined when every vertex receives every color; the moves keep
    # that property, and sink deletion can gain it
    return rank_invariant(g), h0(g) if with_h0 else None


@settings(max_examples=100, deadline=None)
@given(theorem_graphs())
def test_moves_keep_the_graded_invariants_on_generated_graphs(g):
    """In-splitting and sink deletion keep rank_invariant and h0, their
    generator maps are mutually inverse, and an in-split is found again by
    sse_search within the bounds of its own (R, S)."""
    no_sources = all(g.in_edges[v][i] for v in g.vertices for i in range(1, g.rank + 1))
    invariants = _invariants(g, no_sources)
    for v in g.vertices:
        parts = enumerate_valid_partitions(g, v) if len(pairing_closure(g, v)) >= 2 else []
        for part in parts:
            for j in range(1, g.rank + 1):
                split, _, phi, psi = insplit_maps(g, part, j)
                assert iso_check(phi, psi)
            assert _invariants(split, no_sources) == invariants
            r, s = insplit_matrices(g, part, 1)
            bound = max(max(row) for row in r + s)
            assert isinstance(sse_search(g, split, 1, bound), SSEWitness)
        if not sink_colors(g, v):
            continue
        if reference_reachable(g, v) == set(g.vertices):
            with pytest.raises(KGraphError):
                sink_delete(g, v)
            continue
        cut, phi, witnesses = sink_delete_maps(g, v)
        assert _invariants(cut, no_sources) == invariants
        psi = generator_map(g, cut, {u: unit_element(cut, u) for u in cut.vertices} | witnesses)
        assert iso_check(phi, psi)
