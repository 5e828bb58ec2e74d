"""The graded-map layer against the routines it replaced.

dimension sums classes in one place (_sum) and walks defining relations
in one place (_relations_hold). The routines below are the earlier ones,
kept as references: each built its sums from a zero element by pairwise
additions, lifting the running total at every step, and hom_check and
rho_pullback_check each wrote their own relation loop. reference_eq is
the push-only class test: it pushes every difference by P^m0, where
dimension._eq first refutes by a dot product with the graph's
stable_path_counts. reference_check_images does not compare the ranks
of source and target. On shifts well inside dimension.SHIFT_MAX_DEGREE,
and on maps between graphs of one rank, both must give the same bool,
the same DimElement, or the same exception type and message.
"""

import ast
import random
from operator import add, mul, sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    STABLE_INDEX_GRAPHS, cycle_plus_permutation, dense_dge_eq, dense_positivity, graphs, intertwiner_cases,
    left_kernel, nilpotent_chain, product_graph, random_2graph, ranked_graphs, small_elements,
)

import kgraphs
import kgraphs.dimension as dimension
from kgraphs.constructions import FIXTURE_NAMES, fixture, monoid_hom, pullback, rose
from kgraphs.core import (
    CLIUsage,
    DimensionMismatch,
    KGraphError,
    _push,
    parse_shift,
    unit_degree,
    vertex_matrix,
)
from kgraphs.dimension import (
    SHIFT_MAX_DEGREE,
    DimElement,
    GeneratorMap,
    RankMismatch,
    _check_element,
    apply_generator_map,
    dge_add,
    dge_eq,
    dge_scale,
    dge_shift,
    generator_map,
    generator_map_from_matrix,
    hom_check,
    identity_generator_map,
    iso_check,
    parse_element,
    pointed_check,
    positivity,
    unit_element,
    zero_element,
)
from kgraphs.homology import rho_pullback_check
from kgraphs.moves import (
    enumerate_valid_partitions,
    phi_insplit,
    phi_sink_delete,
    psi_insplit,
    sink_delete_witnesses,
)

# ------------------------------------------------------------- references


def reference_lift(g, a, p):
    total = sum(p) - sum(a.n)
    if total > SHIFT_MAX_DEGREE:
        raise KGraphError(f"shift of total degree {total} is over {SHIFT_MAX_DEGREE}")
    return _push(g, a.x, map(sub, p, a.n))


def reference_eq(g, a, b):
    p = tuple(map(max, a.n, b.n))
    x, y = reference_lift(g, a, p), reference_lift(g, b, p)
    if x == y:
        return True
    return not any(_push(g, map(sub, x, y), (g.stable_index,) * g.rank))


def reference_add(g, a, b):
    p = tuple(map(max, a.n, b.n))
    return DimElement(tuple(map(add, reference_lift(g, a, p), reference_lift(g, b, p))), p)


def reference_check_images(m, vertices):
    for v in vertices:
        _check_element(m.target, m.images[v])


def reference_dge_add(g, a, b):
    _check_element(g, a)
    _check_element(g, b)
    return reference_add(g, a, b)


def reference_dge_eq(g, a, b):
    """Previous version of dimension.dge_eq: check both, then reference_eq."""
    _check_element(g, a)
    _check_element(g, b)
    return reference_eq(g, a, b)


def reference_apply(m, a):
    total = zero_element(m.target, a.n)
    for v, coeff in zip(m.source.vertices, a.x):
        if coeff:
            total = reference_add(m.target, total, dge_scale(coeff, dge_shift(m.images[v], a.n)))
    return total


def reference_apply_generator_map(m, a):
    _check_element(m.source, a)
    reference_check_images(m, [v for v, c in zip(m.source.vertices, a.x) if c])
    return reference_apply(m, a)


def reference_hom_check(m):
    reference_check_images(m, m.source.vertices)
    g = m.source
    for v in g.vertices:
        for i in range(1, g.rank + 1):
            rhs = zero_element(m.target, unit_degree(g.rank, i))
            for e in g.in_edges[v][i]:
                rhs = reference_add(m.target, rhs, dge_shift(m.images[e.src], unit_degree(g.rank, i)))
            if not reference_eq(m.target, m.images[v], rhs):
                return False
    return True


def reference_iso_check(fwd, bwd):
    if fwd.source is not bwd.target and fwd.source != bwd.target:
        raise KGraphError("fwd.source and bwd.target differ")
    if fwd.target is not bwd.source and fwd.target != bwd.source:
        raise KGraphError("fwd.target and bwd.source differ")
    if not reference_hom_check(fwd) or not reference_hom_check(bwd):
        return False
    for v in fwd.source.vertices:
        back = reference_apply(bwd, fwd.images[v])
        if not reference_eq(fwd.source, back, unit_element(fwd.source, v)):
            return False
    for w in bwd.source.vertices:
        forth = reference_apply(fwd, bwd.images[w])
        if not reference_eq(bwd.source, forth, unit_element(bwd.source, w)):
            return False
    return True


def reference_pointed_check(fwd):
    reference_check_images(fwd, fwd.source.vertices)
    src_unit = DimElement((1,) * len(fwd.source.vertices), (0,) * fwd.source.rank)
    tgt_unit = DimElement((1,) * len(fwd.target.vertices), (0,) * fwd.target.rank)
    return reference_eq(fwd.target, reference_apply(fwd, src_unit), tgt_unit)


def reference_parse_element(g, text):
    text = text.strip()
    if text == "0":
        return zero_element(g)
    acc = zero_element(g)
    for term in text.split("+"):
        parts = term.strip().split(":")
        if len(parts) == 2:
            v, shift, coeff = parts[0], parts[1], "1"
        elif len(parts) == 3:
            v, shift, coeff = parts
        else:
            raise CLIUsage(f"bad element term {term.strip()!r}: want vertex:shift[:coeff]")
        if v not in g.vertex_index:
            raise CLIUsage(f"unknown vertex {v!r} in element")
        try:
            c = int(coeff)
        except ValueError:
            raise CLIUsage(f"bad coefficient {coeff!r}")
        acc = reference_dge_add(g, acc, dge_scale(c, unit_element(g, v, parse_shift(shift))))
    return acc


def reference_rho_pullback_check(g, f):
    from kgraphs.constructions import hom_surjective
    from kgraphs.homology import NotSurjective

    if not hom_surjective(f):
        raise NotSurjective("the collapsing map needs a surjective hom")
    pb = pullback(g, f)
    for v in pb.vertices:
        for a in range(1, pb.rank + 1):
            rhs = zero_element(g)
            for alpha in pb.in_edges[v][a]:
                rhs = reference_dge_add(g, rhs, dge_shift(unit_element(g, alpha.src), f.images[a - 1]))
            if not reference_dge_eq(g, unit_element(g, v), rhs):
                return False
    return True


def outcome(call, *args):
    # what a call gives: its value, or its exception's type and message
    try:
        return "value", call(*args)
    except Exception as e:  # noqa: BLE001 - every kind is compared
        return "raised", type(e), str(e)


def assert_maps_agree(fwd, bwd, elements):
    """hom_check and pointed_check of both maps, iso_check of the pair and
    apply_generator_map of fwd on each element, against the references."""
    for m in (fwd, bwd):
        assert outcome(hom_check, m) == outcome(reference_hom_check, m)
        assert outcome(pointed_check, m) == outcome(reference_pointed_check, m)
    assert outcome(iso_check, fwd, bwd) == outcome(reference_iso_check, fwd, bwd)
    for a in elements:
        assert outcome(apply_generator_map, fwd, a) == outcome(reference_apply_generator_map, fwd, a)


def test_only_dimension_sums_and_compares_classes():
    # dimension adds classes in _sum and walks relations in
    # _relations_hold; other modules call those, not the element
    # arithmetic. The one exception is the tm-eq command, which runs the
    # public dge_eq it exists for.
    allowed = {"cli": {"dge_eq"}}
    for module in sorted(Path(kgraphs.__file__).parent.glob("*.py")):
        if module.stem == "dimension":
            continue
        tree = ast.parse(module.read_text("utf-8"))
        calls = [
            (n.lineno, name)
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
            for name in [getattr(n.func, "id", None) or getattr(n.func, "attr", None)]
            if name in {"dge_add", "dge_eq", "_sum"} - allowed.get(module.stem, set())
        ]
        assert not calls, f"{module.name} calls {calls}"


# ------------------------------------------------------------------ maps


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_maps_agree_with_the_references(data):
    # images with negative shifts, on graphs with sources and on products
    g = data.draw(graphs())
    fwd = generator_map(g, g, {v: data.draw(small_elements(g)) for v in g.vertices})
    bwd = generator_map(g, g, {v: data.draw(small_elements(g)) for v in g.vertices})
    assert_maps_agree(fwd, bwd, [data.draw(small_elements(g)) for _ in range(3)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_perturbed_identities_agree_with_the_references(data):
    g = data.draw(graphs())
    ident = identity_generator_map(g)
    v = data.draw(st.sampled_from(g.vertices))
    kind = data.draw(st.sampled_from(["element", "shifted", "relation"]))
    if kind == "element":
        image = data.draw(small_elements(g))
    elif kind == "shifted":
        image = dge_shift(ident.images[v], data.draw(st.tuples(*[st.integers(-2, 2)] * g.rank)))
    else:
        # v(0) written as its color-i relation: the same class
        i = data.draw(st.integers(1, g.rank))
        image = zero_element(g, unit_degree(g.rank, i))
        for e in g.in_edges[v][i]:
            image = reference_add(g, image, unit_element(g, e.src, unit_degree(g.rank, i)))
    perturbed = generator_map(g, g, {**ident.images, v: image})
    elements = [data.draw(small_elements(g)) for _ in range(2)]
    assert_maps_agree(perturbed, ident, elements)
    assert_maps_agree(ident, perturbed, elements)


@settings(max_examples=60, deadline=None)
@given(intertwiner_cases(), st.data())
def test_matrix_maps_agree_with_the_references(case, data):
    # R = I and R = a1 intertwine; a random R mostly does not
    g_left, g_right, r = case
    fwd = generator_map_from_matrix(g_left, g_right, r)
    bwd = generator_map_from_matrix(g_right, g_left, [list(col) for col in zip(*r)])
    assert_maps_agree(fwd, bwd, [data.draw(small_elements(g_left)) for _ in range(2)])


def _move_cases():
    for name, g in [(name, fixture(name)) for name in FIXTURE_NAMES] + [("rose2", rose(2)), ("rose3", rose(3))]:
        for v in g.vertices:
            try:
                parts = enumerate_valid_partitions(g, v)
            except KGraphError:
                parts = []
            for part in parts:
                fwd = phi_insplit(g, part)
                for j in range(1, g.rank + 1):
                    yield f"{name} insplit {v} psi{j}", fwd, psi_insplit(g, part, j)
            try:
                witnesses = sink_delete_witnesses(g, v)
            except KGraphError:
                continue
            fwd = phi_sink_delete(g, v)
            cut = fwd.source
            bwd = generator_map(g, cut, {u: unit_element(cut, u) for u in cut.vertices} | witnesses)
            yield f"{name} sinkdelete {v}", fwd, bwd


MOVE_CASES = {name: (fwd, bwd) for name, fwd, bwd in _move_cases()}


@pytest.mark.parametrize("case", MOVE_CASES)
def test_move_maps_agree_with_the_references(case):
    fwd, bwd = MOVE_CASES[case]
    rng = random.Random(case)
    elements = [
        DimElement(
            tuple(rng.randint(-2, 2) for _ in fwd.source.vertices),
            tuple(rng.randint(-2, 2) for _ in range(fwd.source.rank)),
        )
        for _ in range(3)
    ]
    assert_maps_agree(fwd, bwd, elements)
    assert iso_check(fwd, bwd)


def test_the_move_cases_cover_both_moves():
    kinds = {name.split()[1] for name in MOVE_CASES}
    assert kinds == {"insplit", "sinkdelete"}


def test_a_one_sided_inverse_is_not_an_isomorphism():
    # Z -> Z^2 onto the first copy, and back killing the second: bwd fwd
    # fixes every generator, fwd bwd does not
    one = random_2graph(random.Random(1), "p", [[1]], [[1]])
    two = random_2graph(random.Random(1), "q", [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    fwd = generator_map(one, two, {"p0": unit_element(two, "q0")})
    bwd = generator_map(two, one, {"q0": unit_element(one, "p0"), "q1": zero_element(one)})
    assert hom_check(fwd) and hom_check(bwd)
    assert not iso_check(fwd, bwd) and not iso_check(bwd, fwd)
    assert_maps_agree(fwd, bwd, [unit_element(one, "p0")])
    assert_maps_agree(bwd, fwd, [unit_element(two, "q1")])


def test_maps_between_ranks_raise_dimension_mismatch():
    # the references raised inside the first relation sum, from dge_shift,
    # with a message that names no map; a map between ranks now fails
    # where it is built, and a map built directly wherever it is used
    lam, one = fixture("ex3.5-Lambda"), rose(1)
    to_one = GeneratorMap(lam, one, {v: unit_element(one, "u") for v in lam.vertices})
    from_one = GeneratorMap(one, lam, {"u": unit_element(lam, "u")})
    mismatch = ("raised", DimensionMismatch, "graphs have different ranks")
    for fwd, bwd in ((to_one, from_one), (from_one, to_one)):
        for m in (fwd, bwd):
            assert outcome(reference_hom_check, m)[:2] == ("raised", RankMismatch)
            assert outcome(generator_map, m.source, m.target, m.images) == mismatch
            assert outcome(hom_check, m) == mismatch
            assert outcome(pointed_check, m) == mismatch
            assert outcome(apply_generator_map, m, zero_element(m.source)) == mismatch
        assert outcome(iso_check, fwd, bwd) == mismatch
    lam_s = fixture("ex3.5-LambdaS")
    assert outcome(generator_map_from_matrix, lam_s, one, [[1]]) == mismatch


def test_a_relation_with_no_in_edges_no_longer_truncates_shifts():
    # an edgeless rank-2 graph into rank 1: each relation compared v's
    # image at shift (0,) with an empty sum at shift e_i, zip cutting the
    # shifts to one coordinate, and held
    src = random_2graph(random.Random(5), "s", [[0]], [[0]])
    one = rose(1)
    m = GeneratorMap(src, one, {v: zero_element(one) for v in src.vertices})
    assert outcome(reference_hom_check, m) == ("value", True)
    assert outcome(hom_check, m) == ("raised", DimensionMismatch, "graphs have different ranks")


# ---------------------------------------------------------- class tests


def class_test_graphs():
    """Graphs with sources, with a nilpotent part, with m0 = 0, products,
    and ranks 1 to 3."""
    return st.one_of(
        graphs(),
        ranked_graphs(),
        st.sampled_from([nilpotent_chain(), _two_loops(), _loop_and_feeder(), _loop_and_source(), rose(2)]),
    )


def _two_loops():
    # two vertices, each with a loop of every color: P = I, m0 = 0, h = (1, 1)
    return random_2graph(random.Random(1), "q", [[1, 0], [0, 1]], [[1, 0], [0, 1]])


def _loop_and_feeder():
    # q0 has a loop of every color and sends an edge of every color to q1,
    # so q1(0) = q0(1, 1) = q0(0): P = [[1, 0], [1, 0]], m0 = 1, h = (1, 1)
    return random_2graph(random.Random(1), "q", [[1, 0], [1, 0]], [[1, 0], [1, 0]])


def _loop_and_source():
    # q0 has a loop of every color and q1 receives nothing, so q1(0) = 0:
    # P = [[1, 0], [0, 0]], m0 = 1, h = (1, 0)
    return random_2graph(random.Random(1), "q", [[1, 0], [0, 0]], [[1, 0], [0, 0]])


def eq_and_kill_pushes(monkeypatch, g, a, b):
    """dimension._eq(g, a, b) on elements of one shift, and how many kill
    pushes it ran: at one shift neither side is lifted by a push, so that
    is every _push call."""
    pushes = []
    real = dimension._push

    def counting(g, x, n):
        pushes.append(n)
        return real(g, x, n)

    with monkeypatch.context() as patch:
        patch.setattr(dimension, "_push", counting)
        equal = dimension._eq(g, a, b)
    return equal, len(pushes)


def _dot(z, h):
    return sum(map(mul, z, h))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_eq_agrees_with_the_push_only_reference(data):
    """_eq against reference_eq on free pairs and on pairs apart by a
    combination of left-kernel vectors of P^d, which dies."""
    g = data.draw(class_test_graphs())
    d, kernel = len(g.vertices), left_kernel(g)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(kernel), max_size=len(kernel)))
    dying = [sum(c * v[t] for c, v in zip(coeffs, kernel)) for t in range(d)]
    a, c = data.draw(small_elements(g)), data.draw(small_elements(g))
    b = DimElement(tuple(map(add, a.x, dying)), a.n)
    for x, y in ((a, b), (a, c), (b, c), (a, DimElement(tuple(dying), c.n))):
        assert outcome(dimension._eq, g, x, y) == outcome(reference_eq, g, x, y)
    assert dimension._eq(g, a, b)


def test_a_zero_dot_product_with_unequal_classes_runs_the_kill_push(monkeypatch):
    g = _two_loops()
    u, v = unit_element(g, "q0"), unit_element(g, "q1")
    assert g.stable_index == 0 and g.stable_path_counts == (1, 1)
    assert _dot(map(sub, u.x, v.x), g.stable_path_counts) == 0
    assert eq_and_kill_pushes(monkeypatch, g, u, v) == (False, 1)
    assert not reference_eq(g, u, v)


def test_a_zero_dot_product_with_a_dying_difference_runs_the_kill_push(monkeypatch):
    g = _loop_and_feeder()
    q0, q1 = unit_element(g, "q0"), unit_element(g, "q1")
    assert g.stable_index == 1 and g.stable_path_counts == (1, 1)
    assert eq_and_kill_pushes(monkeypatch, g, q1, q0) == (True, 1)
    assert reference_eq(g, q1, q0)


def test_the_weights_are_taken_at_m0_not_one_level_short(monkeypatch):
    # z = q1 dies under P, but 1 . z = 1: weights P^(m0 - 1) 1 = 1 would
    # refute a pair that is equal
    g = _loop_and_source()
    q0, q1 = unit_element(g, "q0"), unit_element(g, "q1")
    both = DimElement((1, 1), (0, 0))
    assert g.stable_index == 1 and g.stable_path_counts == (1, 0)
    assert _dot(map(sub, both.x, q0.x), (1, 1)) == 1
    assert eq_and_kill_pushes(monkeypatch, g, both, q0) == (True, 1)
    assert eq_and_kill_pushes(monkeypatch, g, q1, zero_element(g)) == (True, 1)
    assert eq_and_kill_pushes(monkeypatch, g, both, q1) == (False, 0)
    assert reference_eq(g, both, q0) and not reference_eq(g, both, q1)


def test_a_nilpotent_graph_has_zero_weights_and_only_kill_pushes(monkeypatch):
    # P nilpotent: every class is zero, and every difference is pushed
    g = nilpotent_chain()
    assert g.stable_index == 3 and g.stable_path_counts == (0, 0, 0)
    for v in g.vertices:
        for a in (unit_element(g, v), DimElement((2, -1, 3), (0, 0))):
            assert eq_and_kill_pushes(monkeypatch, g, a, zero_element(g)) == (True, 1)


STABLE_PATH_GRAPHS = STABLE_INDEX_GRAPHS | {
    "nilpotent": nilpotent_chain,
    "feeder": _loop_and_feeder,
    "source": _loop_and_source,
    "two loops": _two_loops,
}


def assert_stable_path_counts(g):
    m0 = g.stable_index
    assert g.stable_path_counts == tuple(map(sum, vertex_matrix(g, (m0,) * g.rank)))


@pytest.mark.parametrize("name", STABLE_PATH_GRAPHS)
def test_stable_path_counts_are_the_row_sums_of_the_stable_power(name):
    assert_stable_path_counts(STABLE_PATH_GRAPHS[name]())


@settings(max_examples=60, deadline=None)
@given(class_test_graphs())
def test_stable_path_counts_are_the_row_sums_on_random_graphs(g):
    assert_stable_path_counts(g)


def test_a_refuted_pair_on_a_576_vertex_product_runs_no_kill_push(monkeypatch):
    # the product of the CLI sweep; in-degree 2 in each color, so h is
    # constant
    rng = random.Random(1)
    g = product_graph(cycle_plus_permutation(rng, 24), cycle_plus_permutation(rng, 24))
    one = unit_element(g, "x0|y0")
    two = DimElement(tuple(map(add, one.x, unit_element(g, "x1|y1").x)), one.n)
    assert len(set(g.stable_path_counts)) == 1
    assert eq_and_kill_pushes(monkeypatch, g, one, two) == (False, 0)
    # a difference whose dot product is 0 is still pushed
    assert eq_and_kill_pushes(monkeypatch, g, one, unit_element(g, "x1|y1")) == (False, 1)
    assert not reference_eq(g, one, two)


# -------------------------------------------------------------- elements


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dge_add_agrees_with_the_reference(data):
    g = data.draw(graphs())
    a, b = data.draw(small_elements(g)), data.draw(small_elements(g))
    assert outcome(dge_add, g, a, b) == outcome(reference_dge_add, g, a, b)


@st.composite
def element_pairs(draw):
    """A graph and two elements of it: of one shift, the second at the
    join of the two shifts, or free; in either order."""
    g = draw(graphs())
    a, b = draw(small_elements(g)), draw(small_elements(g))
    kind = draw(st.sampled_from(("one shift", "at the join", "free")))
    if kind == "one shift":
        b = DimElement(b.x, a.n)
    elif kind == "at the join":
        b = DimElement(b.x, tuple(map(max, a.n, b.n)))
    return (g, b, a) if draw(st.booleans()) else (g, a, b)


@settings(max_examples=150, deadline=None)
@given(element_pairs(), st.integers(0, 2))
def test_element_queries_agree_with_the_references(case, q_max):
    # a side at the join is read as stored, not pushed: equality, sums and
    # positivity against the references, which push both sides, and the
    # dense oracle
    g, a, b = case
    assert outcome(dimension._eq, g, a, b) == outcome(reference_eq, g, a, b)
    assert dge_eq(g, a, b) == dense_dge_eq(g, a, b)
    assert outcome(dge_add, g, a, b) == outcome(reference_dge_add, g, a, b)
    for x in (a, b):
        assert positivity(g, x, q_max) == dense_positivity(g, x, q_max)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_only_the_moving_side_meets_the_cap(data):
    # far sits past the cap above a, so lifting a to the join raises, as
    # it did; far itself is at the join and is not lifted, so elements of
    # far's shift compare, add and answer positivity as they do with its
    # first coordinate at 0
    g = data.draw(graphs())
    a, b, c = (data.draw(small_elements(g)) for _ in range(3))
    lead = a.n[0] + SHIFT_MAX_DEGREE + data.draw(st.integers(1, 3))
    far, far_too = DimElement(b.x, (lead, *a.n[1:])), DimElement(c.x, (lead, *a.n[1:]))
    for x, y in ((a, far), (far, a)):
        for call, reference in ((dimension._eq, reference_eq), (dge_add, reference_dge_add)):
            got = outcome(call, g, x, y)
            assert got[0] == "raised" and got == outcome(reference, g, x, y)
    assert outcome(dimension._eq, g, far, far_too) == outcome(reference_eq, g, far, far_too)
    near = [DimElement(x.x, (0, *a.n[1:])) for x in (far, far_too)]
    assert dge_eq(g, far, far_too) == dense_dge_eq(g, *near)
    assert dge_add(g, far, far_too) == DimElement(tuple(map(add, b.x, c.x)), far.n)
    assert positivity(g, far, 0) == dense_positivity(g, near[0], 0)


@pytest.mark.parametrize(
    "a, b",
    [
        ((0, 0), (0, SHIFT_MAX_DEGREE)),
        ((0, 0), (0, SHIFT_MAX_DEGREE + 1)),
        ((0, SHIFT_MAX_DEGREE + 1), (0, 0)),
        ((0, -SHIFT_MAX_DEGREE), (0, 1)),
        ((0, 1), (0, -SHIFT_MAX_DEGREE)),
        ((3, -SHIFT_MAX_DEGREE), (0, 0)),
    ],
)
def test_two_term_dge_add_meets_the_cap_as_before(a, b):
    # color 2 of ex3.5-LambdaS is a loop, so these pushes stay cheap
    g = fixture("ex3.5-LambdaS")
    ea, eb = unit_element(g, "u", a), unit_element(g, "u", b)
    assert outcome(dge_add, g, ea, eb) == outcome(reference_dge_add, g, ea, eb)


@st.composite
def element_texts(draw, g):
    """An element in parse_element's syntax, well formed or not: known and
    unknown vertices, shifts of the right and wrong length, bad
    coefficients, bad terms."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["0", " 0 ", "", "+"]))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["good"] * 6 + ["vertex", "shift", "coeff", "form", "number"]))
        v = draw(st.sampled_from(g.vertices)) if kind != "vertex" else "zz"
        length = g.rank + (draw(st.sampled_from([-1, 1])) if kind == "shift" else 0)
        shift = ",".join(str(draw(st.integers(-3, 3))) for _ in range(length))
        if kind == "number":
            shift = "1,x"
        term = f"{v}:{shift}"
        if draw(st.booleans()) or kind == "coeff":
            term += ":" + ("q" if kind == "coeff" else str(draw(st.integers(-3, 3))))
        if kind == "form":
            term += ":1:2"
        terms.append(term)
    return " + ".join(terms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_element_agrees_with_the_reference(data):
    g = data.draw(graphs())
    text = data.draw(element_texts(g))
    assert outcome(parse_element, g, text) == outcome(reference_parse_element, g, text)


def test_parse_element_keeps_its_messages():
    g = fixture("ex3.5-Lambda")
    for text in ("u:0,0 + zz:0,0", "u:0 + zz:0,0", "u:1,x", "u:0,0:q + u", "u:0,0,0:2 + v:1:1:1"):
        got = outcome(parse_element, g, text)
        assert got[0] == "raised" and got == outcome(reference_parse_element, g, text)


# A sum lifts each term once to its own join, and no zero running total:
# one pinned case each way where that moves the outcome at the cap.
def test_a_lone_far_term_no_longer_lifts_a_zero():
    g = fixture("ex3.5-LambdaS")
    text = f"u:0,{SHIFT_MAX_DEGREE + 1}"
    assert parse_element(g, text) == unit_element(g, "u", (0, SHIFT_MAX_DEGREE + 1))
    assert outcome(reference_parse_element, g, text) == (
        "raised",
        KGraphError,
        f"shift of total degree {SHIFT_MAX_DEGREE + 1} is over {SHIFT_MAX_DEGREE}",
    )


def test_a_term_far_below_a_many_term_join_meets_the_cap():
    # each running total and term was lifted at most 60000 on its way; the
    # first term now goes straight to the join, 120000 above it. Both
    # colors of sec3-Sigma are permutations, so the pushes stay cheap.
    g = fixture("sec3-Sigma")
    text = "u:0,0 + u:60000,0 + u:0,60000"
    assert reference_parse_element(g, text) == DimElement((3, 0), (60000, 60000))
    assert outcome(parse_element, g, text) == (
        "raised",
        KGraphError,
        f"shift of total degree 120000 is over {SHIFT_MAX_DEGREE}",
    )


# ------------------------------------------------------- the collapsing map


@st.composite
def monoid_homs(draw, k):
    # mostly onto N^k: the unit degrees and up to two more images, in any
    # order; else one to three images, mostly not onto
    extra = [draw(st.tuples(*[st.integers(0, 2)] * k)) for _ in range(draw(st.integers(0, 2)))]
    if draw(st.integers(0, 4)) == 0:
        return monoid_hom(extra or [unit_degree(k, 1)], k)
    images = draw(st.permutations([unit_degree(k, i) for i in range(1, k + 1)] + extra))
    return monoid_hom(images, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rho_pullback_check_agrees_with_the_reference(data):
    g = data.draw(graphs())
    f = data.draw(monoid_homs(g.rank))
    assert outcome(rho_pullback_check, g, f) == outcome(reference_rho_pullback_check, g, f)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_rho_pullback_check_agrees_on_the_catalog(name):
    g = fixture(name)
    k = g.rank
    for images in ([unit_degree(k, i) for i in range(1, k + 1)], [(1,) * k] + [unit_degree(k, i) for i in range(1, k + 1)]):
        f = monoid_hom(images, k)
        assert outcome(rho_pullback_check, g, f) == outcome(reference_rho_pullback_check, g, f)


def test_rho_pullback_check_agrees_on_sources():
    # a 2-graph with a source: some relations have no in-edge
    g = random_2graph(random.Random(5), "s", [[0, 1], [0, 1]], [[0, 1], [0, 1]])
    for images in (((1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 0)), ((2, 0), (0, 1))):
        f = monoid_hom(list(images), 2)
        assert outcome(rho_pullback_check, g, f) == outcome(reference_rho_pullback_check, g, f)
