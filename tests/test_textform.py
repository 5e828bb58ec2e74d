"""Text format: strict field checking and lossless round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphs.constructions import FIXTURE_NAMES, fixture, grid, monoid_hom, pullback, skew_product_window
from kgraphs.core import Edge, Skeleton, validate_kgraph
from kgraphs.moves import enumerate_valid_partitions, insplit, sink_delete
from kgraphs.textform import (
    TextFormatError,
    dump_kgraph,
    parse_kgraph,
    parse_kgraph_parts,
)

def kgraph_to_doc(g):
    """The document dump_kgraph writes, as a dict: the reference the
    writer is checked against through json.dumps(doc, indent=2)."""
    return {
        "rank": g.rank,
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "color": e.color, "src": e.src, "rng": e.rng} for e in g.edges],
        "squares": [{"left": list(key), "right": list(val)} for key, val in sorted(g.squares.items())],
        "strict_no_sources": g.strict,
    }


MINIMAL = {
    "rank": 1,
    "vertices": ["u"],
    "edges": [{"id": "a", "color": 1, "src": "u", "rng": "u"}],
    "squares": [],
}


def test_round_trip_all_fixtures():
    for name in FIXTURE_NAMES:
        g = fixture(name)
        assert parse_kgraph(dump_kgraph(g)) == g


def test_round_trip_non_strict_graph():
    g = grid(2, (1, 1))
    assert not g.strict
    g2 = parse_kgraph(dump_kgraph(g))
    assert g2 == g and not g2.strict


def test_strict_defaults_to_true():
    _, _, strict = parse_kgraph_parts(json.dumps(MINIMAL))
    assert strict is True


def test_unknown_fields_rejected_everywhere():
    doc = dict(MINIMAL, comment="hi")
    with pytest.raises(TextFormatError, match="unknown field"):
        parse_kgraph_parts(json.dumps(doc))
    doc = dict(MINIMAL, edges=[dict(MINIMAL["edges"][0], weight=3)])
    with pytest.raises(TextFormatError, match="unknown field"):
        parse_kgraph_parts(json.dumps(doc))
    doc = dict(MINIMAL, squares=[{"left": ["a", "a"], "right": ["a", "a"], "x": 1}])
    with pytest.raises(TextFormatError, match="unknown field"):
        parse_kgraph_parts(json.dumps(doc))


def test_missing_and_mistyped_fields_rejected():
    doc = {k: v for k, v in MINIMAL.items() if k != "edges"}
    with pytest.raises(TextFormatError, match="missing field"):
        parse_kgraph_parts(json.dumps(doc))
    with pytest.raises(TextFormatError):
        parse_kgraph_parts(json.dumps(dict(MINIMAL, rank="two")))
    with pytest.raises(TextFormatError):
        parse_kgraph_parts(json.dumps(dict(MINIMAL, rank=True)))
    with pytest.raises(TextFormatError):
        parse_kgraph_parts(json.dumps(dict(MINIMAL, strict_no_sources=1)))
    with pytest.raises(TextFormatError):
        parse_kgraph_parts("not json")
    with pytest.raises(TextFormatError):
        parse_kgraph_parts(json.dumps([1, 2]))


def test_duplicate_square_key_rejected():
    g = fixture("sec3-Lambda")
    doc = kgraph_to_doc(g)
    doc["squares"].append(doc["squares"][0])
    with pytest.raises(TextFormatError, match="duplicate square"):
        parse_kgraph_parts(json.dumps(doc))


def test_square_sides_must_be_pairs():
    doc = dict(MINIMAL, squares=[{"left": ["a"], "right": ["a", "a"]}])
    with pytest.raises(TextFormatError):
        parse_kgraph_parts(json.dumps(doc))


EDGE = MINIMAL["edges"][0]
SQUARE = {"left": ["a", "a"], "right": ["a", "a"]}

# every parse error, one document each, with its message exactly
PARSE_ERRORS = {
    "not-json": ("not json", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    "top-not-object": ([1, 2], "top level must be an object"),
    "top-unknown": (dict(MINIMAL, zeta=1, comment="hi"), "unknown field(s) ['comment', 'zeta'] in top level"),
    "top-missing": ({"rank": 1, "vertices": ["u"], "squares": []}, "missing field 'edges'"),
    "rank-type": (dict(MINIMAL, rank="two"), "rank must be an int"),
    "rank-bool": (dict(MINIMAL, rank=True), "rank must be an int"),
    "vertices-type": (dict(MINIMAL, vertices=["u", 3]), "vertices must be a list of strings"),
    "edges-type": (dict(MINIMAL, edges={}), "edges must be a list"),
    "edge-not-object": (dict(MINIMAL, edges=[["a"]]), "each edge must be an object"),
    "edge-unknown": (
        dict(MINIMAL, edges=[dict(EDGE, weight=3)]),
        "unknown field(s) ['weight'] in edge {'id': 'a', 'color': 1, 'src': 'u', 'rng': 'u', 'weight': 3}",
    ),
    "edge-unknown-before-missing": (
        dict(MINIMAL, edges=[{"id": "a", "weight": 3}]),
        "unknown field(s) ['weight'] in edge {'id': 'a', 'weight': 3}",
    ),
    "edge-missing": (
        dict(MINIMAL, edges=[{"id": "a", "color": 1, "src": "u"}]),
        "edge missing field 'rng': {'id': 'a', 'color': 1, 'src': 'u'}",
    ),
    "edge-id-type": (
        dict(MINIMAL, edges=[dict(EDGE, id=1, color="1")]),
        "edge id/src/rng must be strings: {'id': 1, 'color': '1', 'src': 'u', 'rng': 'u'}",
    ),
    "edge-color-type": (
        dict(MINIMAL, edges=[dict(EDGE, color="1")]),
        "edge color must be an int: {'id': 'a', 'color': '1', 'src': 'u', 'rng': 'u'}",
    ),
    "edge-color-bool": (
        dict(MINIMAL, edges=[dict(EDGE, color=True)]),
        "edge color must be an int: {'id': 'a', 'color': True, 'src': 'u', 'rng': 'u'}",
    ),
    "squares-type": (dict(MINIMAL, squares="none"), "squares must be a list"),
    "square-not-object": (dict(MINIMAL, squares=[1]), "each square must be an object"),
    "square-unknown": (
        dict(MINIMAL, squares=[dict(SQUARE, x=1)]),
        "unknown field(s) ['x'] in square {'left': ['a', 'a'], 'right': ['a', 'a'], 'x': 1}",
    ),
    "square-missing": (
        dict(MINIMAL, squares=[{"left": ["a", "a"]}]),
        "square missing field 'right': {'left': ['a', 'a']}",
    ),
    "square-left": (
        dict(MINIMAL, squares=[dict(SQUARE, left=["a"])]),
        "square left must be a pair of edge ids: {'left': ['a'], 'right': ['a', 'a']}",
    ),
    "square-right": (
        dict(MINIMAL, squares=[dict(SQUARE, right=["a", 2])]),
        "square right must be a pair of edge ids: {'left': ['a', 'a'], 'right': ['a', 2]}",
    ),
    "square-duplicate": (dict(MINIMAL, squares=[SQUARE, SQUARE]), "duplicate square for left pair ('a', 'a')"),
    "strict-type": (dict(MINIMAL, strict_no_sources=1), "strict_no_sources must be a boolean"),
}


@pytest.mark.parametrize("case", list(PARSE_ERRORS))
def test_parse_error_text_is_pinned(case):
    doc, message = PARSE_ERRORS[case]
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(TextFormatError) as info:
        parse_kgraph_parts(text)
    assert str(info.value) == message


# records missing several fields: the first missing in schema order is named
MISSING_SCRIPT = """
import json
from kgraphs.textform import TextFormatError, parse_kgraph_parts
doc = {"rank": 1, "vertices": ["u"], "edges": [], "squares": []}
for key, rec in (("edges", {"src": "u", "rng": "u"}), ("squares", {})):
    try:
        parse_kgraph_parts(json.dumps(dict(doc, **{key: [rec]})))
    except TextFormatError as exc:
        print(exc)
"""


def test_missing_field_message_does_not_depend_on_hash_seed():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", MISSING_SCRIPT], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {"edge missing field 'id': {'src': 'u', 'rng': 'u'}\nsquare missing field 'left': {}\n"}


# ------------------------------------------------------------------ writer

def reference_dump(g) -> str:
    return json.dumps(kgraph_to_doc(g), indent=2) + "\n"


def _writer_graphs():
    graphs = {name: fixture(name) for name in sorted(FIXTURE_NAMES) + ["ex4.7-n3"]}
    lam = fixture("ex3.5-Lambda")
    graphs["insplit"] = insplit(lam, enumerate_valid_partitions(lam, "v")[0])[0]
    graphs["sinkdelete"] = sink_delete(lam, "v")
    graphs["pullback"] = pullback(lam, monoid_hom([(1, 0), (0, 1), (1, 1)], 2))
    graphs["skew-window"] = skew_product_window(lam, (0, 0), (1, 1))
    return graphs


WRITER_GRAPHS = _writer_graphs()


@pytest.mark.parametrize("name", list(WRITER_GRAPHS))
def test_writer_matches_json_dumps(name):
    g = WRITER_GRAPHS[name]
    text = dump_kgraph(g)
    assert text == reference_dump(g)
    assert parse_kgraph(text) == g


# ids with quotes, backslashes, control and non-ASCII characters, including
# ones outside the basic plane, which the ASCII encoder writes as pairs
IDS = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\n\t\x00\x7fé€\u2028😀'), st.characters()),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_writer_matches_json_dumps_on_relabelled_graphs(data):
    # a fixture with every vertex and edge renamed keeps its squares; a
    # generated rank-1 graph has none
    if data.draw(st.booleans()):
        g = fixture(data.draw(st.sampled_from(sorted(FIXTURE_NAMES))))
        names = data.draw(st.lists(IDS, min_size=len(g.vertices) + len(g.edges),
                                   max_size=len(g.vertices) + len(g.edges), unique=True))
        rename = dict(zip(g.vertices + tuple(e.id for e in g.edges), names))
        skeleton = Skeleton(
            g.rank,
            tuple(rename[v] for v in g.vertices),
            tuple(Edge(rename[e.id], e.color, rename[e.src], rename[e.rng]) for e in g.edges),
        )
        squares = {
            (rename[a], rename[b]): (rename[c], rename[d]) for (a, b), (c, d) in g.squares.items()
        }
        g = validate_kgraph(skeleton, squares, g.strict)
    else:
        vertices = data.draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
        edge_ids = data.draw(st.lists(IDS.filter(lambda i: i not in vertices), max_size=6, unique=True))
        ends = st.sampled_from(vertices)
        edges = tuple(Edge(i, 1, data.draw(ends), data.draw(ends)) for i in edge_ids)
        g = validate_kgraph(Skeleton(1, tuple(vertices), edges), {}, strict=False)
    text = dump_kgraph(g)
    assert text == reference_dump(g)
    assert parse_kgraph(text) == g
