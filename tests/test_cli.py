import copy
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    DEEP_SHIFTS, complete_product, cycle_plus_permutation, kill_push_dge_eq, product_graph, product_h0,
    with_prefixed,
)

import kgraphs
from kgraphs.bridging import BridgingPair, bridging_graph
from kgraphs.cli import COMMANDS, build_parser, main
from kgraphs.constructions import FIXTURE_NAMES, fixture, rose
from kgraphs.core import InvalidKGraph, kgraph_violations, parse_matrix, validate_kgraph
from kgraphs.dimension import parse_element, unit_element
from kgraphs.moves import enumerate_valid_partitions, insplit, sink_delete
from kgraphs.sse import SSE_MAX_UNKNOWNS, intertwiner_check
from kgraphs.textform import dump_kgraph, load_kgraph, parse_kgraph, parse_kgraph_parts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- validate

def test_validate_fixture_and_pathlike_id(capsys):
    code, out, _ = run(capsys, "validate", "ex5.7-Lambda")
    assert code == 0 and out.strip() == "valid (k=2, |Λ⁰|=1)"
    code, out, _ = run(capsys, "validate", "fixtures/ex5.7-Lambda")
    assert code == 0 and out.strip() == "valid (k=2, |Λ⁰|=1)"


def test_validate_file_and_json(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(dump_kgraph(fixture("sec3-Sigma")), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0 and out.strip() == "valid (k=2, |Λ⁰|=2)"
    code, out, _ = run(capsys, "validate", "--json", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc == {
        "valid": True,
        "rank": 2,
        "vertices": 2,
        "edges": 4,
        "squares": 2,
        "strict": True,
    }


def test_validate_reports_every_violation(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "rank": 2,
                "vertices": ["u"],
                "edges": [
                    {"id": "b", "color": 1, "src": "u", "rng": "u"},
                    {"id": "r", "color": 2, "src": "u", "rng": "u"},
                ],
                "squares": [],
                "strict_no_sources": True,
            }
        ),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1 and out == ""
    assert "MissingSquare" in err and "violation(s)" in err


def _edge(eid, color, src, rng):
    return {"id": eid, "color": color, "src": src, "rng": rng}


def _square(left, right):
    return {"left": list(left), "right": list(right)}


def _graph_doc(rank, vertices, edges, squares):
    return {"rank": rank, "vertices": vertices, "edges": edges, "squares": squares, "strict_no_sources": True}


# two vertices with one loop of each color; OK_SQUARES makes it a 2-graph
TWO_LOOPS = [_edge("b", 1, "u", "u"), _edge("r", 2, "u", "u"), _edge("b2", 1, "v", "v"), _edge("r2", 2, "v", "v")]
OK_SQUARES = [_square(("b", "r"), ("r", "b")), _square(("b2", "r2"), ("r2", "b2"))]
NO_PREIMAGE = "NonBijectiveSquares(colors=(1, 2), detail=\"descending pair ('r', 'b') has no preimage\")"

# one invalid graph per violation kind and EndpointMismatch detail, with
# its violation lines in order
VIOLATION_CASES = {
    "missing-square": (
        _graph_doc(2, ["u", "v"], TWO_LOOPS, OK_SQUARES[1:]),
        ["MissingSquare(g='b', h='r')", NO_PREIMAGE],
    ),
    "non-bijective": (
        _graph_doc(
            2, ["u"], [_edge("b1", 1, "u", "u"), _edge("b2", 1, "u", "u"), _edge("r", 2, "u", "u")],
            [_square(("b1", "r"), ("r", "b1")), _square(("b2", "r"), ("r", "b1"))],
        ),
        [
            "NonBijectiveSquares(colors=(1, 2), detail=\"value ('r', 'b1') assigned to both ('b1', 'r') and ('b2', 'r')\")",
            "NonBijectiveSquares(colors=(1, 2), detail=\"descending pair ('r', 'b2') has no preimage\")",
        ],
    ),
    "key-colors": (
        _graph_doc(2, ["u", "v"], TWO_LOOPS, OK_SQUARES + [_square(("r", "b"), ("b", "r"))]),
        ["EndpointMismatch(key=('r', 'b'), value=('b', 'r'), detail='key colors must ascend')"],
    ),
    "key-not-composable": (
        _graph_doc(2, ["u", "v"], TWO_LOOPS, OK_SQUARES + [_square(("b", "r2"), ("r", "b"))]),
        [
            "EndpointMismatch(key=('b', 'r2'), value=('r', 'b'), detail='key pair not composable')",
            "NonBijectiveSquares(colors=(1, 2), detail=\"value ('r', 'b') assigned to both ('b', 'r') and ('b', 'r2')\")",
        ],
    ),
    "value-colors": (
        _graph_doc(2, ["u", "v"], TWO_LOOPS, [_square(("b", "r"), ("b", "r")), OK_SQUARES[1]]),
        ["EndpointMismatch(key=('b', 'r'), value=('b', 'r'), detail='value colors must be (j, i)')", NO_PREIMAGE],
    ),
    "value-not-composable": (
        _graph_doc(2, ["u", "v"], TWO_LOOPS, [_square(("b", "r"), ("r", "b2")), OK_SQUARES[1]]),
        ["EndpointMismatch(key=('b', 'r'), value=('r', 'b2'), detail='value pair not composable')", NO_PREIMAGE],
    ),
    "endpoints": (
        _graph_doc(2, ["u", "v"], TWO_LOOPS, [_square(("b", "r"), ("r2", "b2")), OK_SQUARES[1]]),
        [
            "EndpointMismatch(key=('b', 'r'), value=('r2', 'b2'), detail='square endpoints not preserved')",
            "NonBijectiveSquares(colors=(1, 2), detail=\"value ('r2', 'b2') assigned to both ('b', 'r') and ('b2', 'r2')\")",
            NO_PREIMAGE,
        ],
    ),
    # the color-3 squares at a and at b are two non-commuting
    # transpositions of c1, c2, c3, so every cube fails
    "cube": (
        _graph_doc(
            3, ["u"], [_edge("a", 1, "u", "u"), _edge("b", 2, "u", "u")] + [_edge(f"c{t}", 3, "u", "u") for t in (1, 2, 3)],
            [
                _square(("a", "b"), ("b", "a")),
                _square(("a", "c1"), ("c2", "a")), _square(("a", "c2"), ("c1", "a")), _square(("a", "c3"), ("c3", "a")),
                _square(("b", "c1"), ("c1", "b")), _square(("b", "c2"), ("c3", "b")), _square(("b", "c3"), ("c2", "b")),
            ],
        ),
        [
            "CubeFailure(colors=(1, 2, 3), triple=('a', 'b', 'c1'), route_a=('c3', 'b', 'a'), route_b=('c2', 'b', 'a'))",
            "CubeFailure(colors=(1, 2, 3), triple=('a', 'b', 'c2'), route_a=('c1', 'b', 'a'), route_b=('c3', 'b', 'a'))",
            "CubeFailure(colors=(1, 2, 3), triple=('a', 'b', 'c3'), route_a=('c2', 'b', 'a'), route_b=('c1', 'b', 'a'))",
        ],
    ),
    "strict-source": (
        _graph_doc(1, ["u", "v"], [_edge("e", 1, "u", "v")], []),
        ["SourceVertex(vertex='u', color=1)"],
    ),
    # non-bijective in the color pairs (1, 2) and (1, 3), with their
    # entries interleaved in the table: each pair reports in table order
    "non-bijective-two-pairs": (
        _graph_doc(
            3, ["u"], [_edge(e, c, "u", "u") for e, c in (("a1", 1), ("a2", 1), ("b", 2), ("c1", 3), ("c2", 3))],
            [
                _square(("a1", "c1"), ("c1", "a1")), _square(("a1", "b"), ("b", "a1")),
                _square(("a2", "c1"), ("c1", "a1")), _square(("b", "c1"), ("c1", "b")),
                _square(("a2", "b"), ("b", "a1")), _square(("a1", "c2"), ("c2", "a2")),
                _square(("b", "c2"), ("c2", "b")), _square(("a2", "c2"), ("c2", "a2")),
            ],
        ),
        [
            "NonBijectiveSquares(colors=(1, 2), detail=\"value ('b', 'a1') assigned to both ('a1', 'b') and ('a2', 'b')\")",
            "NonBijectiveSquares(colors=(1, 2), detail=\"descending pair ('b', 'a2') has no preimage\")",
            "NonBijectiveSquares(colors=(1, 3), detail=\"value ('c1', 'a1') assigned to both ('a1', 'c1') and ('a2', 'c1')\")",
            "NonBijectiveSquares(colors=(1, 3), detail=\"value ('c2', 'a2') assigned to both ('a1', 'c2') and ('a2', 'c2')\")",
            "NonBijectiveSquares(colors=(1, 3), detail=\"descending pair ('c1', 'a2') has no preimage\")",
            "NonBijectiveSquares(colors=(1, 3), detail=\"descending pair ('c2', 'a1') has no preimage\")",
            "CubeFailure(colors=(1, 2, 3), triple=('a1', 'b', 'c2'), route_a=('c2', 'b', 'a2'), route_b=('c2', 'b', 'a1'))",
            "CubeFailure(colors=(1, 2, 3), triple=('a2', 'b', 'c2'), route_a=('c2', 'b', 'a2'), route_b=('c2', 'b', 'a1'))",
        ],
    ),
}


@pytest.mark.parametrize("case", list(VIOLATION_CASES))
def test_validate_violation_text_is_pinned(capsys, tmp_path, case):
    doc, lines = VIOLATION_CASES[case]
    text = json.dumps(doc)
    assert [str(v) for v in kgraph_violations(*parse_kgraph_parts(text))] == lines
    with pytest.raises(InvalidKGraph) as info:
        parse_kgraph(text)
    shown = ", ".join(lines[:5]) + (f" (+{len(lines) - 5} more)" if len(lines) > 5 else "")
    assert str(info.value) == f"{len(lines)} violation(s): {shown}"
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (1, "")
    assert err == "".join(line + "\n" for line in lines) + f"invalid: {len(lines)} violation(s)\n"


def test_validate_reports_every_violation_of_a_fixtures_dir_graph(capsys, tmp_path, monkeypatch):
    doc, lines = VIOLATION_CASES["non-bijective-two-pairs"]
    (tmp_path / "bad.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setenv("KGRAPH_FIXTURES", str(tmp_path))
    code, out, err = run(capsys, "validate", "bad")
    assert (code, out) == (1, "")
    assert err == "".join(line + "\n" for line in lines) + f"invalid: {len(lines)} violation(s)\n"


def test_validate_unknown_graph(capsys):
    code, _, err = run(capsys, "validate", "no-such-thing")
    assert code == 1 and "no such file or fixture" in err


# --------------------------------------------------------------------- info

def test_info_text_and_json_agree(capsys):
    code, out, _ = run(capsys, "info", "ex3.5-Lambda")
    assert code == 0
    assert "rank 2" in out
    assert "vertices (3): u v w" in out
    assert "A_e1: 2 0 0; 0 2 0; 0 1 0" in out
    code, out, _ = run(capsys, "info", "--json", "ex3.5-Lambda")
    doc = json.loads(out)
    assert doc["vertices"] == ["u", "v", "w"]
    assert doc["vertex_matrices"]["1"] == [[2, 0, 0], [0, 2, 0], [0, 1, 0]]


# -------------------------------------------------------------------- moves

def test_insplit_round_trip(capsys, tmp_path):
    sidecar = tmp_path / "maps.json"
    code, out, _ = run(
        capsys, "insplit", "ex3.5-Lambda", "v", "--sidecar", str(sidecar)
    )
    assert code == 0
    emitted = parse_kgraph(out)
    lib, _ = insplit(
        fixture("ex3.5-Lambda"), enumerate_valid_partitions(fixture("ex3.5-Lambda"), "v")[0]
    )
    assert emitted == lib == fixture("ex3.5-LambdaI")
    doc = json.loads(sidecar.read_text(encoding="utf-8"))
    assert doc["move"] == "insplit"
    assert doc["parent_vertices"]["v^1"] == "v"
    assert set(doc["phi"]) == {"u", "v", "w"}
    assert doc["phi"]["v"].count("+") == 1
    # phi images parse back as elements of the split graph
    for img in doc["phi"].values():
        parse_element(emitted, img)


def test_insplit_explicit_side_matches_enumerated(capsys):
    _, by_index, _ = run(capsys, "insplit", "ex3.5-Lambda", "v")
    _, by_side, _ = run(capsys, "insplit", "ex3.5-Lambda", "v", "--side1", "f2,h1")
    assert by_index == by_side


def test_insplit_errors(capsys):
    code, _, err = run(capsys, "insplit", "ex3.5-Lambda", "u")
    assert code == 1  # u's in-edges pair into a single class
    code, _, err = run(capsys, "insplit", "ex3.5-Lambda", "v", "--partition", "5")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "insplit", "ex3.5-Lambda", "v", "--side1", "f2")
    assert code == 1
    code, _, err = run(capsys, "insplit", "ex3.5-Lambda", "zz")
    assert code == 1 and "unknown vertex" in err


def test_insplit_at_40_pairing_classes_builds_one_partition(capsys, tmp_path):
    # listing all 2^39 - 1 partitions to pick one ran out of memory at 24
    # classes; each loop of rose(40) is its own class
    path = tmp_path / "rose40.json"
    path.write_text(dump_kgraph(rose(40)), encoding="utf-8")
    count = 2**39 - 1
    t0 = time.process_time()
    for index in (0, count - 1):
        code, out, _ = run(capsys, "insplit", str(path), "u", "--partition", str(index))
        split = parse_kgraph(out)
        assert code == 0 and split.vertices == ("u^1", "u^2") and len(split.edges) == 80
    elapsed = time.process_time() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s of CPU, budget 1.0s"
    code, _, err = run(capsys, "insplit", str(path), "u", "--partition", str(count))
    assert code == 2 and f"vertex has {count} valid partition(s)" in err


def test_sinkdelete_round_trip(capsys, tmp_path):
    sidecar = tmp_path / "maps.json"
    code, out, _ = run(
        capsys, "sinkdelete", "ex3.5-Lambda", "v", "--sidecar", str(sidecar)
    )
    assert code == 0
    emitted = parse_kgraph(out)
    assert emitted == sink_delete(fixture("ex3.5-Lambda"), "v") == fixture("ex3.5-LambdaS")
    doc = json.loads(sidecar.read_text(encoding="utf-8"))
    assert doc["deleted"] == ["v", "w"]
    # witnesses parse as elements of the reduced graph
    for w in doc["witnesses"].values():
        parse_element(emitted, w)


def test_sinkdelete_not_a_sink(capsys):
    code, _, err = run(capsys, "sinkdelete", "ex3.5-Lambda", "u")
    assert code == 1 and "every color" in err


@pytest.mark.parametrize("sidecar", [False, True])
def test_sinkdelete_unknown_vertex(capsys, tmp_path, sidecar):
    path = tmp_path / "maps.json"
    extra = ["--sidecar", str(path)] if sidecar else []
    code, out, err = run(capsys, "sinkdelete", "ex3.5-Lambda", "zz", *extra)
    assert (code, out, err) == (1, "", "error: unknown vertex 'zz'\n")
    assert not path.exists()


# ------------------------------------------------------------ constructions

def test_pullback_cli(capsys):
    code, out, _ = run(capsys, "pullback", "ex4.7-n3", "--images", "1,0;0,1;0,0")
    assert code == 0
    g = parse_kgraph(out)
    assert g.rank == 3 and len(g.vertices) == 1


def test_skew_window_cli(capsys):
    code, out, _ = run(capsys, "skew-window", "sec3-Lambda", "--lo", "0,0", "--hi", "1,1")
    assert code == 0
    g = parse_kgraph(out)
    assert len(g.vertices) == 4 and not g.strict
    code, _, err = run(capsys, "skew-window", "sec3-Lambda", "--lo", "1,0", "--hi", "0,0")
    assert code == 1 and "empty window" in err


# ----------------------------------------------------------- graded algebra

def test_tm_eq_cli(capsys):
    code, out, _ = run(capsys, "tm-eq", "ex3.5-LambdaS", "u:0,0", "u:0,7")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "tm-eq", "ex3.5-LambdaS", "u:0,0", "u:1,0:3")
    assert code == 0 and out.strip() == "not equal"
    code, out, _ = run(capsys, "tm-eq", "--json", "ex3.5-LambdaS", "u:0,0", "u:1,0:2")
    assert code == 0 and json.loads(out) == {"equal": True}


@pytest.mark.parametrize("name, a, b, _", DEEP_SHIFTS)
def test_tm_eq_deep_shifts(capsys, name, a, b, _):
    terms = [f"{v}:{','.join(map(str, n))}" for v, n in (a, b)]
    code, out, err = run(capsys, "tm-eq", name, *terms)
    g = fixture(name)
    want = kill_push_dge_eq(g, unit_element(g, *a), unit_element(g, *b))
    assert code == 0 and "Traceback" not in err
    assert out.strip() == ("equal" if want else "not equal")


def test_tm_eq_parse_and_domain_errors(capsys):
    code, _, err = run(capsys, "tm-eq", "ex3.5-Lambda", "u:zz", "u:0,0")
    assert code == 2 and "bad tuple" in err
    code, _, err = run(capsys, "tm-eq", "ex3.5-Lambda", "q:0,0", "u:0,0")
    assert code == 2 and "unknown vertex" in err
    code, _, err = run(capsys, "tm-eq", "ex3.5-Lambda", "u:0", "u:0,0")
    assert code == 1  # shift has the wrong rank


def test_tm_hom_check_cli(capsys):
    code, out, _ = run(
        capsys, "tm-hom-check", "ex3.5-Lambda", "ex3.5-Lambda",
        "--map", "u=u:0,0; v=v:0,0; w=w:0,0",
    )
    assert code == 0 and out == "hom: yes\npointed: yes\n"
    code, out, _ = run(capsys, "tm-hom-check", "sec3-Gamma", "sec3-Gamma", "--map", "u=u:0,0; v=u:0,0")
    assert code == 0 and out.startswith("hom: no")
    code, _, err = run(capsys, "tm-hom-check", "sec3-Gamma", "sec3-Gamma")
    assert code == 2 and "required" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("tm-hom-check", "ex3.5-Lambda", "ex3.5-Lambda", "--map", "u=u:0,0;v=v:0,0;w=w:0,0;u=v:0,0"),
        ("tm-iso-check", "sec3-Lambda", "sec3-Lambda", "--fwd", "u=u:0,0; u = u:0,0", "--bwd", "u=u:0,0"),
        ("tm-iso-check", "sec3-Lambda", "sec3-Lambda", "--fwd", "u=u:0,0", "--bwd", "u=u:0,0;u=u:1,0"),
    ],
)
def test_a_generator_given_twice_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "generator 'u' is given twice" in err


def test_tm_hom_check_matrix_form(capsys):
    code, out, _ = run(
        capsys, "tm-hom-check", "ex5.6-Lambda", "ex5.6-Omega", "--matrix", "1 1"
    )
    # u -> w + v carries the order unit to the order unit
    assert code == 0 and out == "hom: yes\npointed: yes\n"


def test_tm_iso_check_cli(capsys):
    code, out, _ = run(capsys, "tm-iso-check", "ex7.1-Lambda1", "ex7.1-Lambda2", "--identity")
    assert code == 0 and out == "iso: yes\npointed: yes\n"
    code, out, _ = run(
        capsys, "tm-iso-check", "sec3-Lambda", "sec3-Lambda",
        "--fwd", "u=u:0,0", "--bwd", "u=u:0,0",
    )
    assert code == 0 and out == "iso: yes\npointed: yes\n"
    code, _, err = run(capsys, "tm-iso-check", "sec3-Lambda", "sec3-Lambda")
    assert code == 2


@pytest.mark.parametrize("command", ["tm-hom-check", "tm-iso-check"])
def test_maps_between_ranks_exit_1(capsys, tmp_path, command):
    # a rank-3 pullback shares its vertex names with the rank-2 graph; the
    # identity between them failed in dge_shift with "shift has 3
    # coordinates, element has 2"
    code, out, _ = run(capsys, "pullback", "ex3.5-LambdaS", "--images", "1,0;0,1;1,1")
    assert code == 0
    path = tmp_path / "X.json"
    path.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, command, str(path), "ex3.5-LambdaS", "--identity")
    assert (code, out, err) == (1, "", "error: graphs have different ranks\n")


ZERO_3 = "0 0 0; 0 0 0; 0 0 0"
ONE_MAP = "only one of --identity, --matrix, --map may be given"
IDENTITY_ALONE = "--identity excludes --fwd and --bwd"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("tm-hom-check", "ex3.5-Lambda", "ex3.5-Lambda", "--matrix", ZERO_3, "--map", "bogus"), ONE_MAP),
        (("tm-hom-check", "ex3.5-Lambda", "ex3.5-Lambda", "--identity", "--matrix", ZERO_3), ONE_MAP),
        (("tm-hom-check", "ex3.5-Lambda", "ex3.5-Lambda", "--identity", "--map", "bogus"), ONE_MAP),
        (("tm-iso-check", "sec3-Lambda", "sec3-Lambda", "--identity", "--fwd", "u=u:0,0"), IDENTITY_ALONE),
        (("tm-iso-check", "sec3-Lambda", "sec3-Lambda", "--identity", "--bwd", "u=u:0,0"), IDENTITY_ALONE),
    ],
)
def test_conflicting_map_options_are_a_usage_error(capsys, argv, message):
    # each of these printed an answer and ignored all but one option
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sse_search_cli(capsys):
    code, out, _ = run(capsys, "sse-search", "ex3.5-Lambda", "ex3.5-LambdaI")
    assert code == 0
    assert out.splitlines()[0] == "p: 0,1"
    assert out.splitlines()[1] == "R: 1 0 0 0; 0 1 1 0; 0 0 0 1"
    code, out, _ = run(capsys, "sse-search", "sec3-Lambda", "sec3-Sigma")
    assert code == 0 and out.strip() == "exhausted (p_max=1, entry_max=1)"
    code, _, err = run(capsys, "sse-search", "ex3.5-LambdaS", "ex4.7-n3", "--p-max", "-1")
    assert code == 1


def test_sse_search_stops_at_degrees_whose_entries_are_too_large(capsys):
    # A_p = [2^p1] for ex5.7-Lambda, which has no sources, is over its cap
    # 2 * 1^2 from p1 = 2 on, so only p1 <= 1 is walked, and color 2 is a
    # permutation in both graphs, so p2 stays 0: one degree past lag 0
    start = time.perf_counter()
    code, out, _ = run(capsys, "sse-search", "ex5.7-Lambda", "ex5.7-Omega", "--p-max", "100000")
    assert (code, out) == (0, "exhausted (p_max=100000, entry_max=1)\n")
    assert time.perf_counter() - start < 20


def test_sse_search_walks_no_degree_when_every_color_is_a_permutation(capsys):
    # both graphs are permutations in both colors and have 2 and 1
    # vertices, so no degree has a witness and none of the 1001^2 is
    # walked
    start = time.perf_counter()
    code, out, _ = run(capsys, "sse-search", "sec3-Gamma", "sec3-Lambda", "--p-max", "1000")
    assert (code, out) == (0, "exhausted (p_max=1000, entry_max=1)\n")
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("entry_max", ["100", "1000", "99999999999999"])
def test_sse_search_at_a_large_entry_max_answers(capsys, entry_max):
    # past lag 0 (3 against 4 vertices has none) the walk meets the
    # witness with entries at most 1 first, whatever the bound
    code, out, err = run(capsys, "sse-search", "ex3.5-Lambda", "ex3.5-LambdaI", "--entry-max", entry_max)
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["p: 0,1", "R: 1 0 0 0; 0 1 1 0; 0 0 0 1"]


@pytest.mark.parametrize(
    "left, right",
    [
        ("ex3.5-Lambda", "ex5.7-Omega"),
        ("ex3.5-LambdaI", "ex3.5-Lambda"),
        ("ex3.5-LambdaI", "ex5.7-Omega"),
        ("ex3.5-LambdaS", "ex5.7-Omega"),
    ],
)
def test_sse_search_bounds_entries_by_the_graphs(capsys, left, right):
    # neither graph has a source, so R S = A_p and S R = B_p bound R's and
    # S's entries by those of A_p and B_p, whatever --entry-max says: the
    # search gives the answer it gives at --entry-max 2
    t0 = time.process_time()
    code, out, err = run(capsys, "sse-search", left, right, "--entry-max", "99999999999999")
    elapsed = time.process_time() - t0
    assert (code, err) == (0, "")
    assert elapsed < 1.0, f"took {elapsed:.2f}s of CPU, budget 1.0s"
    _, small, _ = run(capsys, "sse-search", left, right, "--entry-max", "2")
    assert out == small.replace("entry_max=2)", "entry_max=99999999999999)")


def test_sse_search_over_the_unknowns_cap_exits_1(capsys, tmp_path):
    # 70 against 72 vertices: 5040 unknowns, just over the cap, checked
    # after lag 0 (unequal sizes have none) and before any elimination
    rng = random.Random(5040)
    paths = []
    for name, (m, n) in (("left", (7, 10)), ("right", (8, 9))):
        g = product_graph(cycle_plus_permutation(rng, m), cycle_plus_permutation(rng, n))
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(dump_kgraph(g), encoding="utf-8")
    t0 = time.process_time()
    code, out, err = run(capsys, "sse-search", *map(str, paths))
    elapsed = time.process_time() - t0
    assert (code, out) == (1, "")
    assert err == f"error: 70 x 72 = 5040 unknowns in R and in S, over the cap of {SSE_MAX_UNKNOWNS}\n"
    assert elapsed < 1.0, f"took {elapsed:.2f}s of CPU, budget 1.0s"


def test_sse_search_help_names_the_unknowns_cap(capsys):
    code, out, _ = run(capsys, "sse-search", "--help")
    assert SSE_MAX_UNKNOWNS == 5000
    assert code == 0 and "d*d' over 5000 unknowns exits 1" in " ".join(out.split())


def test_rank_cli(capsys):
    for name, expect in (("sec3-Lambda", "1"), ("sec3-Sigma", "2"), ("sec3-Gamma", "2")):
        code, out, _ = run(capsys, "rank", name)
        assert code == 0 and out.strip() == expect


# ----------------------------------------------------------------- homology

def test_h0_cli_exact_output(capsys):
    code, out, _ = run(capsys, "h0", "fixtures/ex4.7-n4")
    assert code == 0 and out.strip() == "rank 0, torsion [3]"
    code, out, _ = run(capsys, "h0", "sec3-Lambda")
    assert code == 0 and out.strip() == "rank 1, torsion []"
    code, out, _ = run(capsys, "h0", "--json", "ex5.6-Omega")
    assert json.loads(out) == {"rank": 0, "torsion": [3]}


def test_h0_cli_rejects_sources(capsys, tmp_path):
    from kgraphs.constructions import grid

    path = tmp_path / "grid.json"
    path.write_text(dump_kgraph(grid(2, (1, 1))), encoding="utf-8")
    code, _, err = run(capsys, "h0", str(path))
    assert code == 1 and "receives no color" in err


def test_h0_cli_on_a_576_vertex_product(capsys, tmp_path):
    # 1152 relations on 576 generators: the dense Smith normal form of
    # them took ~28 s
    rng = random.Random(1)
    a, b = cycle_plus_permutation(rng, 24), cycle_plus_permutation(rng, 24)
    path = tmp_path / "product.json"
    path.write_text(dump_kgraph(product_graph(a, b)), encoding="utf-8")
    want = product_h0(a, b)
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "h0", str(path))
    elapsed = time.perf_counter() - t0
    assert code == 0 and out.strip() == f"rank {want.rank}, torsion {list(want.torsion)}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5.0s"


def test_h0_cli_on_a_1024_vertex_product(capsys, tmp_path):
    # 2048 relations on 1024 generators: scanning every live row for each
    # pivot took 2-3.5 s of it, near the budget
    rng = random.Random(1)
    a, b = cycle_plus_permutation(rng, 32), cycle_plus_permutation(rng, 32)
    path = tmp_path / "product.json"
    path.write_text(dump_kgraph(product_graph(a, b)), encoding="utf-8")
    want = product_h0(a, b)
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "h0", str(path))
    elapsed = time.perf_counter() - t0
    assert code == 0 and out.strip() == f"rank {want.rank}, torsion {list(want.torsion)}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5.0s"


# Every subcommand on the 576-vertex product above, each within a CPU
# budget (ROADMAP item 9). rank and h0gr (the Smith normal form of the
# pushed P^d) do not answer on it yet, so they have no row; each gets one
# on this graph once it does.
SWEEP_BUDGET_S = 5.0


@pytest.fixture(scope="module")
def product_576(tmp_path_factory):
    # the product, and beside it (union.json) its disjoint union with
    # ex3.5-Lambda, whose v is divisible, its ids prefixed with "L."
    rng = random.Random(1)
    a, b = cycle_plus_permutation(rng, 24), cycle_plus_permutation(rng, 24)
    g = product_graph(a, b)
    path = tmp_path_factory.mktemp("sweep") / "product.json"
    path.write_text(dump_kgraph(g), encoding="utf-8")
    union = with_prefixed(g, fixture("ex3.5-Lambda"), "L.")
    path.with_name("union.json").write_text(dump_kgraph(union), encoding="utf-8")
    return str(path), a, b


def _defining_relation(a):
    # x0|y0 at shift 0 is the sum of the sources of its color-1 in-edges at
    # shift e_1
    return " + ".join(f"x{c}|y0:1,0:{a[0][c]}" for c in range(len(a)) if a[0][c])


def _identity_text(d, last=1):
    # the d x d identity, its last diagonal entry set to last
    return "; ".join(" ".join(str(last if r == d - 1 else 1) if r == c else "0" for c in range(d)) for r in range(d))


def _identity_map_text(p, a):
    # the identity on the product, x0|y0 sent to the sum its defining
    # relation gives it
    images = {v: f"{v}:0,0" for v in load_kgraph(p).vertices} | {"x0|y0": _defining_relation(a)}
    return "; ".join(f"{v}={e}" for v, e in images.items())


def _h0_text(a, b):
    want = product_h0(a, b)
    return f"rank {want.rank}, torsion {list(want.torsion)}\n"


def _permutation_intertwiner_text(out, a, b):
    # p = 0, R a permutation matrix that intertwines the product with
    # itself, and S = R^T
    lines = out.splitlines()
    if len(lines) != 3 or lines[0] != "p: 0,0" or not lines[1].startswith("R: "):
        return False
    r, s = (parse_matrix(line.split(": ", 1)[1]) for line in lines[1:])
    g, d = product_graph(a, b), len(a) * len(b)
    return (
        all(sorted(row) == [0] * (d - 1) + [1] for row in r)
        and sorted(row.index(1) for row in r) == list(range(d))
        and s == [list(col) for col in zip(*r)]
        and intertwiner_check(g, g, r)
    )


# name -> (argv from (path, a), exit code, check of (out, err, a, b))
SWEEP_ROWS = {
    "validate": (lambda p, a: ["validate", p], 0, lambda out, err, a, b: out == "valid (k=2, |Λ⁰|=576)\n"),
    "info": (
        lambda p, a: ["info", p],
        0,
        lambda out, err, a, b: out.startswith("rank 2\nvertices (576): x0|y0 ")
        and "\nedges: color 1: 1152, color 2: 1152\n" in out,
    ),
    "h0": (lambda p, a: ["h0", p], 0, lambda out, err, a, b: out == _h0_text(a, b)),
    "tm-eq equal": (
        lambda p, a: ["tm-eq", p, "x0|y0:0,0", _defining_relation(a)], 0, lambda out, err, a, b: out == "equal\n"
    ),
    "tm-eq not equal": (
        lambda p, a: ["tm-eq", p, "x0|y0:0,0", "x0|y0:0,0 + x1|y1:0,0"],
        0,
        lambda out, err, a, b: out == "not equal\n",
    ),
    "tm-hom-check --identity": (
        lambda p, a: ["tm-hom-check", p, p, "--identity"], 0, lambda out, err, a, b: out == "hom: yes\npointed: yes\n"
    ),
    "tm-iso-check --identity": (
        lambda p, a: ["tm-iso-check", p, p, "--identity"], 0, lambda out, err, a, b: out == "iso: yes\npointed: yes\n"
    ),
    "tm-hom-check --map": (
        lambda p, a: ["tm-hom-check", p, p, "--map", _identity_map_text(p, a)],
        0,
        lambda out, err, a, b: out == "hom: yes\npointed: yes\n",
    ),
    "tm-hom-check --matrix": (
        lambda p, a: ["tm-hom-check", p, p, "--matrix", _identity_text(576, last=2)],
        0,
        lambda out, err, a, b: out == "hom: no\npointed: no\n",
    ),
    "pullback": (
        lambda p, a: ["pullback", p, "--images", "1,0;0,1"],
        0,
        lambda out, err, a, b: len(parse_kgraph(out).vertices) == 576,
    ),
    "skew-window": (
        lambda p, a: ["skew-window", p, "--lo", "0,0", "--hi", "1,1"],
        0,
        lambda out, err, a, b: len(parse_kgraph(out).vertices) == 4 * 576,
    ),
    "bridge-search R = I": (
        lambda p, a: ["bridge-search", p, p, "--matrix", _identity_text(576)],
        0,
        # R's line, then one flip per color-i edge and polymorphism edge
        lambda out, err, a, b: out.startswith("R: 1 0 0 ") and len(out.splitlines()) == 1 + 2 * 1152,
    ),
    "sse-search G G": (
        lambda p, a: ["sse-search", p, p], 0, lambda out, err, a, b: _permutation_intertwiner_text(out, a, b)
    ),
    "sse-search G and G beside ex3.5-Lambda": (
        lambda p, a: ["sse-search", p, p.replace("product.json", "union.json")],
        1,
        lambda out, err, a, b: err == "error: 576 x 579 = 333504 unknowns in R and in S, over the cap of 5000\n",
    ),
    "fixtures": (lambda p, a: ["fixtures"], 0, lambda out, err, a, b: out.startswith("ex3.5-Lambda\n")),
    "insplit": (
        lambda p, a: ["insplit", p, "x0|y0"],
        1,
        lambda out, err, a, b: err == "error: x0|y0 has 1 pairing class(es); need at least 2\n",
    ),
    "insplit a divisible vertex": (
        lambda p, a: ["insplit", p.replace("product.json", "union.json"), "L.v"],
        0,
        lambda out, err, a, b: len(parse_kgraph(out).vertices) == 576 + 4,
    ),
    "insplit a repeated edge id": (
        lambda p, a: ["insplit", p.replace("product.json", "union.json"), "L.v", "--side1", "L.f2,L.f2,L.h1"],
        1,
        lambda out, err, a, b: err == "error: sides repeat edge ids: ['L.f2']\n",
    ),
    "sinkdelete": (
        lambda p, a: ["sinkdelete", p, "x0|y0"],
        1,
        lambda out, err, a, b: err == "error: x0|y0 emits edges of every color\n",
    ),
}


@pytest.mark.parametrize("row", SWEEP_ROWS)
def test_every_subcommand_on_a_576_vertex_product(capsys, product_576, row):
    path, a, b = product_576
    argv, want_code, check = SWEEP_ROWS[row]
    argv = argv(path, a)
    t0 = time.process_time()
    code, out, err = run(capsys, *argv)
    elapsed = time.process_time() - t0
    assert code == want_code and check(out, err, a, b), (code, out[:200], err)
    assert elapsed < SWEEP_BUDGET_S, f"took {elapsed:.2f}s of CPU, budget {SWEEP_BUDGET_S}s"


def test_matrix_from_a_file_reaches_a_kgraph_child_at_576_vertices(product_576):
    # the 576 x 576 identity is 663551 bytes of text, over Linux's 131072
    # bytes for one argument, so inline it cannot start a child at all
    path, a, b = product_576
    r_path = os.path.join(os.path.dirname(path), "identity.txt")
    with open(r_path, "w", encoding="utf-8") as fh:
        fh.write(_identity_text(576) + "\n")
    assert os.path.getsize(r_path) > 131072
    src = os.path.dirname(os.path.dirname(os.path.abspath(kgraphs.__file__)))
    for argv, check in (
        (["bridge-search", path, path], lambda out: out.startswith("R: 1 0 0 ") and len(out.splitlines()) == 1 + 2 * 1152),
        (["tm-hom-check", path, path], lambda out: out == "hom: yes\npointed: yes\n"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "kgraphs.cli", *argv, "--matrix", r_path],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0 and check(proc.stdout), (argv[0], proc.stdout[:200], proc.stderr)


def test_matrix_from_a_file_reads_as_inline(capsys, tmp_path):
    r_path = tmp_path / "r.txt"
    r_path.write_text("1 1\n", encoding="utf-8")
    inline = run(capsys, "bridge-search", "ex5.7-Lambda", "ex5.7-Omega", "--matrix", "1 1")
    assert inline[0] == 0
    assert run(capsys, "bridge-search", "ex5.7-Lambda", "ex5.7-Omega", "--matrix", str(r_path)) == inline
    # an error names the file, not its contents
    r_path.write_text("1 x", encoding="utf-8")
    code, _, err = run(capsys, "tm-hom-check", "ex5.7-Lambda", "ex5.7-Lambda", "--matrix", str(r_path))
    assert code == 2 and err == f"error: bad matrix in {str(r_path)!r}: entries must be integers\n"
    r_path.write_bytes(b"\xff")
    assert run(capsys, "bridge-search", "ex5.7-Lambda", "ex5.7-Omega", "--matrix", str(r_path))[0] == 2


def test_a_long_inline_matrix_is_echoed_in_part(capsys):
    # a ragged inline matrix of about 120 KB: the error shows its first
    # 40 characters, where short inline text is shown whole
    ragged = "1 0; " * 24000 + "1"
    assert len(ragged) > 120000
    code, out, err = run(capsys, "tm-hom-check", "ex5.7-Lambda", "ex5.7-Lambda", "--matrix", ragged)
    assert (code, out) == (2, "")
    assert err == f"error: bad matrix {ragged[:40] + '...'!r}: ragged rows\n"
    code, _, err = run(capsys, "tm-hom-check", "ex5.7-Lambda", "ex5.7-Lambda", "--matrix", "1 0; 1")
    assert (code, err) == (2, "error: bad matrix '1 0; 1': ragged rows\n")


def test_h0gr_cli(capsys):
    code, out, _ = run(capsys, "h0gr", "ex3.5-LambdaS")
    assert code == 0 and out == "A_e1: 2\nA_e2: 1\nrank 1\n"
    code, out, _ = run(capsys, "h0gr", "--json", "sec3-Sigma")
    doc = json.loads(out)
    assert doc == {
        "vertex_matrices": {"1": [[0, 1], [1, 0]], "2": [[0, 1], [1, 0]]},
        "rank": 2,
    }


# ------------------------------------------------------------------ bridging

def test_bridge_search_cli_negative(capsys):
    code, out, _ = run(capsys, "bridge-search", "ex5.6-Lambda", "ex5.6-Omega", "--matrix", "1 1")
    assert code == 0 and out.strip() == "exhausted 16"


def test_bridge_search_cli_positive_round_trips(capsys):
    code, out, _ = run(
        capsys, "bridge-search", "--json", "ex5.7-Lambda", "ex5.7-Omega", "--matrix", "1 1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    # feed the found family back in as a user-supplied check
    code, out, _ = run(
        capsys, "bridge-search", "ex5.7-Lambda", "ex5.7-Omega",
        "--matrix", "1 1", "--flips", json.dumps(doc["flips"]),
    )
    assert code == 0 and out.strip() == "coherent"


def test_bridge_search_cli_incoherent_witness(capsys, tmp_path):
    flips = {
        "1": [
            [["alpha1", "g1[u,w]"], ["g1[u,v]", "f2"]],
            [["alpha1", "g1[u,v]"], ["g1[u,w]", "f3"]],
            [["alpha2", "g1[u,w]"], ["g1[u,v]", "f1"]],
            [["alpha2", "g1[u,v]"], ["g1[u,w]", "f4"]],
        ],
        "2": [
            [["beta1", "g1[u,w]"], ["g1[u,v]", "e3"]],
            [["beta1", "g1[u,v]"], ["g1[u,w]", "e2"]],
            [["beta2", "g1[u,w]"], ["g1[u,v]", "e4"]],
            [["beta2", "g1[u,v]"], ["g1[u,w]", "e1"]],
        ],
    }
    path = tmp_path / "flips.json"
    path.write_text(json.dumps(flips), encoding="utf-8")
    code, out, _ = run(
        capsys, "bridge-search", "ex5.6-Lambda", "ex5.6-Omega",
        "--matrix", "1 1", "--flips", str(path),
    )
    assert code == 0
    assert "top ('g1[u,w]', 'e2', 'f1') != bottom ('g1[u,w]', 'e1', 'f2')" in out


def test_bridge_search_cli_rejects_a_value_outside_its_block(capsys):
    code, out, _ = run(
        capsys, "bridge-search", "--json", "ex5.7-Lambda", "ex5.7-Omega", "--matrix", "1 1"
    )
    flips = json.loads(out)["flips"]
    # (f1, g1[u,v]) and (f1, g1[u,w]) lie in different blocks; trade their values
    table = {tuple(key): value for key, value in flips["1"]}
    a, b = ("f1", "g1[u,v]"), ("f1", "g1[u,w]")
    table[a], table[b] = table[b], table[a]
    flips["1"] = [[list(key), value] for key, value in table.items()]
    code, out, err = run(
        capsys, "bridge-search", "ex5.7-Lambda", "ex5.7-Omega", "--matrix", "1 1",
        "--flips", json.dumps(flips),
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "outside its block" in err


def test_bridge_search_cli_rank_and_color_errors(capsys, tmp_path):
    rose2 = tmp_path / "rose2.json"
    rose2.write_text(dump_kgraph(rose(2)), encoding="utf-8")
    onto_n2 = {"1": [[["c1", "g1[u,u]"], ["g1[u,u]", "c1[c1]"]], [["c2", "g1[u,u]"], ["g1[u,u]", "c1[c2]"]]]}
    for extra in ([], ["--flips", json.dumps(onto_n2)]):
        code, _, err = run(capsys, "bridge-search", str(rose2), "ex4.7-n2", "--matrix", "1", *extra)
        assert code == 1 and "different ranks" in err
    stray = {"1": [[["c1", "g1[u,u]"], ["g1[u,u]", "c1"]], [["c2", "g1[u,u]"], ["g1[u,u]", "c2"]]]}
    code, out, _ = run(
        capsys, "bridge-search", str(rose2), str(rose2), "--matrix", "1", "--flips", json.dumps(stray)
    )
    assert code == 0 and out.strip() == "coherent"
    code, _, err = run(
        capsys, "bridge-search", str(rose2), str(rose2), "--matrix", "1",
        "--flips", json.dumps({**stray, "2": []}),
    )
    assert code == 1 and "colors 1..1" in err


def test_bridge_search_cli_rejects_repeated_flips(capsys):
    code, out, _ = run(
        capsys, "bridge-search", "--json", "ex5.7-Lambda", "ex5.7-Omega", "--matrix", "1 1"
    )
    flips = json.loads(out)["flips"]
    bogus_first = {**flips, "1": [[["f1", "g1[u,v]"], ["BOGUS", "x"]], *flips["1"]]}
    cases = {
        json.dumps(bogus_first): "color 1 gives some [lam, g] twice",
        json.dumps({**flips, "01": flips["1"]}): "some color is given twice",
        json.dumps({**flips, "+2": flips["2"]}): "some color is given twice",
        '{"1": [], ' + json.dumps(flips)[1:]: "an object repeats a key",
    }
    for text, message in cases.items():
        code, out, err = run(
            capsys, "bridge-search", "ex5.7-Lambda", "ex5.7-Omega", "--matrix", "1 1", "--flips", text
        )
        assert code == 2 and out == "" and message in err


def test_bridge_search_cli_names_a_color_that_is_not_an_integer(capsys):
    # the color key is at fault, not the entries under it
    for color in ("x", "1e400"):
        code, out, err = run(
            capsys, "bridge-search", "ex5.6-Lambda", "ex5.6-Omega", "--matrix", "1 1",
            "--flips", json.dumps({color: []}),
        )
        assert (code, out, err) == (2, "", f"error: bad flips JSON: color '{color}' is not an integer\n")
    # a key past int's digit limit is named by its first 40 characters
    code, out, err = run(
        capsys, "bridge-search", "ex5.6-Lambda", "ex5.6-Omega", "--matrix", "1 1",
        "--flips", json.dumps({"7" * 5000: []}),
    )
    assert (code, out, err) == (2, "", f"error: bad flips JSON: color '{'7' * 40}...' is not an integer\n")


def test_bridge_search_cli_needs_no_recursion(capsys, tmp_path):
    g = complete_product()
    path = tmp_path / "product.json"
    path.write_text(dump_kgraph(g), encoding="utf-8")
    ident = [[int(i == j) for j in range(64)] for i in range(64)]
    matrix = "; ".join(" ".join(map(str, row)) for row in ident)
    code, out, err = run(capsys, "bridge-search", "--json", str(path), str(path), "--matrix", matrix)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["found"] is True
    flips = {int(i): {tuple(k): tuple(v) for k, v in table} for i, table in doc["flips"].items()}
    assert bridging_graph(g, g, BridgingPair(ident, flips)).rank == 3


def test_bridge_search_cli_errors(capsys):
    code, _, err = run(capsys, "bridge-search", "ex5.6-Lambda", "ex5.6-Omega", "--matrix", "2 1")
    assert code == 1  # not an intertwiner
    code, _, err = run(
        capsys, "bridge-search", "ex5.6-Lambda", "ex5.6-Omega", "--matrix", "1 1",
        "--flips", "{not json",
    )
    assert code == 2 and "bad flips JSON" in err


# ------------------------------------------------------------------- misc

def test_fixtures_cli(capsys):
    code, out, _ = run(capsys, "fixtures")
    lines = out.strip().splitlines()
    assert set(FIXTURE_NAMES) <= set(lines)
    assert lines[-1].startswith("ex4.7-n<N>")
    code, out, _ = run(capsys, "fixtures", "--json")
    doc = json.loads(out)
    assert sorted(FIXTURE_NAMES) == doc["fixtures"]


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "validate")[0] == 2
    assert run(capsys, "h0", "sec3-Lambda", "--frob")[0] == 2


def test_emitted_graphs_reparse_identically(capsys):
    for argv in (
        ("insplit", "ex3.5-Lambda", "v"),
        ("sinkdelete", "ex3.5-Lambda", "v"),
        ("pullback", "ex3.5-LambdaS", "--images", "0,1;1,0"),
        ("skew-window", "sec3-Sigma", "--lo", "0,0", "--hi", "1,0"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        g = parse_kgraph(out)
        rebuilt = validate_kgraph(g.skeleton, g.squares, strict=g.strict)
        assert dump_kgraph(rebuilt) == out


# ------------------------------------------------------------------- README

README = (FilePath(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _fenced_block(after: str, fence: str = "```") -> str:
    # the body of the first fenced block after the line `after`
    return README.split(f"\n{after}\n", 1)[1].split(f"{fence}\n", 1)[1].split("\n```\n", 1)[0] + "\n"


def test_the_readme_examples_come_out_byte_for_byte(capsys, monkeypatch, tmp_path):
    # each "$ kgraph ..." line and the lines up to the next blank one: the
    # command, run in-process from an empty directory, and its stdout
    examples = re.findall(r"^\$ kgraph (.*)\n((?:.+\n)*)", _fenced_block("Examples (actual output):"), re.M)
    assert len(examples) == 7
    monkeypatch.chdir(tmp_path)
    for command, want in examples:
        assert run(capsys, *shlex.split(command))[:2] == (0, want), command


def test_the_readme_library_snippet_gives_its_commented_results():
    # a line with a comment is an expression whose repr the comment gives,
    # alone or before a colon
    namespace, checked = {}, 0
    for line in _fenced_block("## Library", "```python").splitlines():
        code, _, comment = line.partition("  # ")
        if not comment:
            exec(code, namespace)
            continue
        shown = repr(eval(code, namespace))
        assert comment.strip() == shown or comment.startswith(shown + ":"), line
        checked += 1
    assert checked == 2


# ------------------------------------------------------------ golden sidecars

INSPLIT_SIDECAR = """{
  "move": "insplit",
  "parent_edges": {
    "e": "e",
    "e'": "e'",
    "f": "f",
    "f1": "f1",
    "f2": "f2",
    "g": "g",
    "h1^1": "h1",
    "h1^2": "h1",
    "h2^1": "h2",
    "h2^2": "h2",
    "h^1": "h",
    "h^2": "h"
  },
  "parent_vertices": {
    "u": "u",
    "v^1": "v",
    "v^2": "v",
    "w": "w"
  },
  "phi": {
    "u": "u:0,0:1",
    "v": "v^1:0,0:1 + v^2:0,0:1",
    "w": "w:0,0:1"
  },
  "psi": {
    "u": "u:0,0:1",
    "v^1": "v:1,0:1",
    "v^2": "v:1,0:1",
    "w": "w:0,0:1"
  },
  "side1": [
    "f2",
    "h1"
  ],
  "side2": [
    "f1",
    "h2"
  ],
  "vertex": "v"
}
"""

SINKDELETE_SIDECAR = """{
  "deleted": [
    "v",
    "w"
  ],
  "move": "sinkdelete",
  "phi": {
    "u": "u:0,0:1"
  },
  "vertex": "v",
  "witnesses": {
    "v": "u:0,1:2",
    "w": "u:0,1:1"
  }
}
"""


def test_insplit_sidecar_golden_bytes(capsys, tmp_path):
    sidecar = tmp_path / "maps.json"
    code, out, _ = run(capsys, "insplit", "ex3.5-Lambda", "v", "--sidecar", str(sidecar))
    assert code == 0 and out == dump_kgraph(fixture("ex3.5-LambdaI"))
    assert sidecar.read_bytes() == INSPLIT_SIDECAR.encode("utf-8")
    # the backward map at color 2 lands on u, one step up in color 2
    code, _, _ = run(
        capsys, "insplit", "ex3.5-Lambda", "v", "--sidecar", str(sidecar), "--psi-color", "2"
    )
    assert code == 0
    assert json.loads(sidecar.read_text(encoding="utf-8"))["psi"] == {
        "u": "u:0,0:1",
        "v^1": "u:0,1:1",
        "v^2": "u:0,1:1",
        "w": "w:0,0:1",
    }


@pytest.mark.parametrize("color", ["3", "-1"])
@pytest.mark.parametrize("with_sidecar", [True, False])
def test_insplit_rejects_a_psi_color_out_of_range(capsys, tmp_path, color, with_sidecar):
    # ex3.5-Lambda has rank 2; the color is refused whether or not a
    # sidecar would read it, and neither graph nor sidecar is written
    sidecar = tmp_path / "maps.json"
    extra = ["--sidecar", str(sidecar)] if with_sidecar else []
    code, out, err = run(capsys, "insplit", "ex3.5-Lambda", "v", "--psi-color", color, *extra)
    assert (code, out, err) == (1, "", f"error: color {color} out of range 1..2\n")
    assert not sidecar.exists()


def test_sinkdelete_sidecar_golden_bytes(capsys, tmp_path):
    sidecar = tmp_path / "maps.json"
    code, out, _ = run(capsys, "sinkdelete", "ex3.5-Lambda", "v", "--sidecar", str(sidecar))
    assert code == 0 and out == dump_kgraph(fixture("ex3.5-LambdaS"))
    assert sidecar.read_bytes() == SINKDELETE_SIDECAR.encode("utf-8")


def test_sinkdelete_sidecar_reads_phi_in_the_original_graph(capsys, tmp_path):
    # phi maps the cut graph into the original one, so its images are
    # written over the original's vertices: with the deleted vertices
    # listed first, reading them over the cut graph's shorter list would
    # shift every coefficient
    doc = json.loads(dump_kgraph(fixture("ex3.5-Lambda")))
    doc["vertices"] = ["w", "v", "u"]
    path = tmp_path / "reordered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    sidecar = tmp_path / "maps.json"
    code, _, _ = run(capsys, "sinkdelete", str(path), "v", "--sidecar", str(sidecar))
    assert code == 0
    maps = json.loads(sidecar.read_text(encoding="utf-8"))
    assert maps["phi"] == {"u": "u:0,0:1"}
    assert maps["witnesses"] == {"v": "u:0,1:2", "w": "u:0,1:1"}


# ------------------------------------------------------------ parsers

def _parse(parser, argv, capsys):
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return e.code, *capsys.readouterr()
    return None, sorted(vars(ns).items()), capsys.readouterr()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_one_subparser_prints_what_the_full_parser_prints(capsys, monkeypatch, name):
    # main builds only the subparser argv[0] names; its help, usage and
    # error text must be the full parser's, byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    cases = [[name, "--help"], [name], [name, "x"], [name, "x", "y", "z", "w", "v", "--no-such-flag"], [name, "--json"]]
    for argv in cases:
        full, lean = (_parse(parser, argv, capsys) for parser in (build_parser(), build_parser(name)))
        assert full == lean, argv
    assert main([name, "--help"]) == 0
    assert capsys.readouterr().out == _parse(build_parser(), [name, "--help"], capsys)[1]


def test_bare_and_unknown_commands_get_the_full_parser(capsys):
    for argv in ([], ["--help"], ["frobnicate"], ["--json", "validate"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out, err) == _parse(build_parser(), argv, capsys), argv
        if not argv:
            assert code == 2 and "{validate,info,insplit," in err


# ------------------------------------------------------------ hostile inputs

# {bad} is a graph file that is not UTF-8, {dir} a directory; {{}} is "{}"
HOSTILE = {
    "graph-not-utf8": ["h0", "{bad}"],
    "validate-not-utf8": ["validate", "{bad}"],
    "flips-not-utf8": ["bridge-search", "ex5.6-Lambda", "ex5.6-Omega", "--matrix", "1 1", "--flips", "{bad}"],
    "insplit-sidecar-is-a-directory": ["insplit", "ex3.5-Lambda", "v", "--sidecar", "{dir}"],
    "sinkdelete-sidecar-is-a-directory": ["sinkdelete", "ex3.5-Lambda", "v", "--sidecar", "{dir}"],
    "short-matrix": ["tm-hom-check", "ex3.5-Lambda", "ex3.5-LambdaI", "--matrix", "1 0 0 0"],
    "narrow-matrix": ["tm-hom-check", "ex3.5-Lambda", "ex3.5-LambdaI", "--matrix", "1 0; 0 1; 0 0"],
    "huge-parametric-fixture": ["h0", "ex4.7-n100000000000"],
    "huge-skew-window": ["skew-window", "ex3.5-Lambda", "--lo", "0,0", "--hi", "100000,100000"],
    "huge-pullback": ["pullback", "ex4.7-n3", "--images", "11,0;0,1"],
    "long-pullback-image": ["pullback", "ex3.5-LambdaS", "--images", "0,2000;0,1"],
    "flips-not-strings": [
        "bridge-search", "ex5.7-Lambda", "ex5.7-Omega", "--matrix", "1 1",
        "--flips", '{{"1": [[["f1", "g1[u,w]"], [["g1[u,v]"], "alpha1"]]], "2": []}}',
    ],
    "huge-polymorphism": [
        "bridge-search", "ex5.6-Lambda", "ex5.6-Omega", "--matrix", "100000000 100000000", "--flips", "{{}}",
    ],
    "deep-shift-forward": ["tm-eq", "ex3.5-LambdaS", "u:0,0", "u:0,1000000000"],
    "deep-shift-back": ["tm-eq", "ex3.5-Lambda", "u:-1000000000,0", "u:0,0"],
    "graph-long-integer": ["validate", "{long}"],
    "graph-deep-nesting": ["validate", "{deep}"],
    "flips-long-integer": ["bridge-search", "ex5.6-Lambda", "ex5.6-Omega", "--matrix", "1 1", "--flips", "{long}"],
    "flips-deep-nesting": ["bridge-search", "ex5.6-Lambda", "ex5.6-Omega", "--matrix", "1 1", "--flips", "{deep}"],
    "graph-huge-rank": ["validate", "{rank}"],
}

HOSTILE_FILES = {
    "bad": b'{"rank": 1, "vertices": ["\xe9"], "edges": [], "squares": []}',
    # over the interpreter's 4300-digit limit for int(str)
    "long": b'{"rank": ' + b"7" * 5000 + b', "vertices": [], "edges": [], "squares": []}',
    "deep": b"[" * 200_000,
    "rank": b'{"rank": 1600, "vertices": ["u"], "edges": [], "squares": [], "strict_no_sources": false}',
}


def hostile_argv(tmp_path, case):
    paths = {}
    for name, data in HOSTILE_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_bytes(data)
    return [arg.format(dir=tmp_path, **paths) for arg in HOSTILE[case]]


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_exits_cleanly(capsys, tmp_path, case):
    code, _, err = run(capsys, *hostile_argv(tmp_path, case))
    assert code in (1, 2)
    assert "Traceback" not in err and err.startswith("error: ")


def test_decode_errors_are_parse_errors(capsys, tmp_path):
    for case in ("graph-not-utf8", "validate-not-utf8", "flips-not-utf8"):
        code, _, err = run(capsys, *hostile_argv(tmp_path, case))
        assert code == 2 and "UTF-8" in err


def test_oversized_json_is_a_parse_error_and_a_huge_rank_is_fast(capsys, tmp_path):
    for case in ("graph-long-integer", "graph-deep-nesting"):
        code, _, err = run(capsys, *hostile_argv(tmp_path, case))
        assert code == 2 and err.startswith("error: not valid JSON: "), err
    for case in ("flips-long-integer", "flips-deep-nesting"):
        code, _, err = run(capsys, *hostile_argv(tmp_path, case))
        assert code == 2 and err.startswith("error: bad flips JSON: "), err
    start = time.perf_counter()
    code, _, err = run(capsys, *hostile_argv(tmp_path, "graph-huge-rank"))
    assert code == 1 and "rank must be in 1..32" in err
    assert time.perf_counter() - start < 1.0


def test_oversized_parametric_fixture_is_a_domain_error(capsys):
    code, _, err = run(capsys, "h0", "ex4.7-n100000000000")
    assert code == 1 and "ex4.7-n" in err



# ------------------------------------------------------------ robustness

# One well-formed command line per subcommand, the seeds of the mutations
# below. bridge-search and sse-search are left out: neither search has a
# node or time budget yet, so a mutated matrix or bound can run for
# minutes; they join once they stop at an explicit budget.
ROBUST_SEEDS = {
    "validate": ["validate", "ex3.5-Lambda"],
    "info": ["info", "--json", "sec3-Sigma"],
    "insplit": ["insplit", "ex3.5-Lambda", "v", "--side1", "f2,h1", "--psi-color", "2"],
    "sinkdelete": ["sinkdelete", "ex3.5-Lambda", "v"],
    "pullback": ["pullback", "ex3.5-LambdaS", "--images", "1,0;0,1;1,1"],
    "skew-window": ["skew-window", "sec3-Sigma", "--lo", "0,0", "--hi", "1,0"],
    "tm-eq": ["tm-eq", "ex3.5-Lambda", "u:0,0 + v:1,0:-2", "u:0,7"],
    "tm-hom-check": ["tm-hom-check", "ex5.7-Lambda", "ex5.7-Omega", "--matrix", "1; 1"],
    "tm-iso-check": ["tm-iso-check", "ex3.5-Lambda", "ex3.5-LambdaI", "--fwd",
                     "u=u:0,0;v=v^1:0,0 + v^2:0,0;w=w:0,0", "--bwd",
                     "u=u:0,0;v^1=v:1,0;v^2=v:1,0;w=w:0,0"],
    "rank": ["rank", "ex7.1-Lambda1"],
    "h0": ["h0", "--json", "ex4.7-n3"],
    "h0gr": ["h0gr", "sec3-Lambda"],
    "fixtures": ["fixtures"],
}
_MUTATION_CHARS = "0123456789,;:=+- ^uvwxe_.{}[]\"\\\n"


@st.composite
def _mutated_argv(draw, seed):
    argv = list(seed)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "replace", "drop", "repeat"]))
        t = draw(st.integers(0, len(argv) - 1)) if argv else 0
        if kind == "drop" and argv:
            del argv[t]
        elif kind == "repeat" and argv:
            argv.insert(t, argv[t])
        elif argv:
            chars = list(argv[t])
            i = draw(st.integers(0, len(chars)))
            c = draw(st.sampled_from(_MUTATION_CHARS))
            if kind == "insert":
                chars.insert(i, c)
            elif chars:
                chars[min(i, len(chars) - 1)] = c if kind == "replace" else ""
            argv[t] = "".join(chars)
    return argv


@pytest.mark.parametrize("name", sorted(ROBUST_SEEDS))
def test_mutated_command_lines_exit_cleanly(name, tmp_path_factory):
    import contextlib
    import io

    sidecar = str(tmp_path_factory.mktemp("sidecar") / "maps.json")

    @settings(max_examples=60, deadline=None)
    @given(argv=_mutated_argv(ROBUST_SEEDS[name]))
    def check(argv):
        if argv and argv[0] in ("insplit", "sinkdelete"):
            argv = argv + ["--sidecar", sidecar]  # never a mutated path
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code:
            assert err.getvalue().startswith(("error: ", "usage: ")), (argv, err.getvalue())

    check()


# Every subcommand that reads a graph file, with {f} the file and {v} a
# vertex of the fixture it was mutated from; the two searches are left out
# for the reason given above ROBUST_SEEDS.
DOCUMENT_COMMANDS = [
    ["validate", "{f}"],
    ["info", "{f}"],
    ["insplit", "{f}", "{v}", "--sidecar", "{sidecar}"],
    ["sinkdelete", "{f}", "{v}", "--sidecar", "{sidecar}"],
    ["pullback", "{f}", "--images", "1,0;0,1;1,1"],
    ["skew-window", "{f}", "--lo", "0,0", "--hi", "1,0"],
    ["tm-eq", "{f}", "{v}:0,0", "{v}:1,0"],
    ["tm-hom-check", "{f}", "{f}", "--identity"],
    ["tm-iso-check", "{f}", "{f}", "--identity"],
    ["rank", "{f}"],
    ["h0", "{f}"],
    ["h0gr", "{f}"],
]
_SWAPPED = [None, True, 0, -1, 2**40, 1.5, "", "u", "e1", [], ["u"], {}, {"id": "u"}]


def _locations(doc, out):
    # every (container, key or index) in doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append((doc, key))
        _locations(value, out)
    return out


@st.composite
def _mutated_document(draw):
    """A fixture document with 1-3 mutations: a value swapped for one of
    another type, a key dropped, a list grown by a copy of one of its
    items, or shrunk by one."""
    name = draw(st.sampled_from(sorted(FIXTURE_NAMES)))
    doc = json.loads(resources.files("kgraphs").joinpath(f"fixtures/{name}.json").read_text("utf-8"))
    vertex = doc["vertices"][0]
    for _ in range(draw(st.integers(1, 3))):
        where = _locations(doc, [(None, None)])
        parent, key = draw(st.sampled_from(where))
        value = doc if parent is None else parent[key]
        kind = draw(st.sampled_from(["swap", "drop", "grow", "shrink"]))
        if kind == "swap" and parent is not None:
            parent[key] = copy.deepcopy(draw(st.sampled_from(_SWAPPED)))
        elif kind == "drop" and isinstance(value, dict) and value:
            del value[draw(st.sampled_from(sorted(value)))]
        elif kind == "grow" and isinstance(value, list) and value:
            value.insert(draw(st.integers(0, len(value))), copy.deepcopy(draw(st.sampled_from(value))))
        elif kind == "shrink" and isinstance(value, list) and value:
            del value[draw(st.integers(0, len(value) - 1))]
    return doc, vertex


def test_mutated_fixture_documents_exit_cleanly(tmp_path):
    import contextlib
    import io

    path, sidecar = tmp_path / "mutated.json", str(tmp_path / "sidecar.json")

    @settings(max_examples=250, deadline=None)
    @given(_mutated_document())
    def check(case):
        doc, vertex = case
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in DOCUMENT_COMMANDS:
            argv = [arg.format(f=path, v=vertex, sidecar=sidecar) for arg in command]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code:
                lines = err.getvalue().splitlines()
                # validate lists each violation, then an `invalid: ` line
                if argv[0] == "validate" and lines[-1].startswith("invalid: "):
                    continue
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())

    check()


# ------------------------------------------------------------ import discipline

# Runs `python -m kgraphs.cli ARGS`, then prints the exit code and the
# names of the loaded modules as its last line.
_MODULES_AFTER_CLI = """
import json, runpy, sys
sys.argv = ["kgraph", *sys.argv[1:]]
try:
    runpy.run_module("kgraphs.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def _python_last_line(code: str, *argv: str):
    """The last stdout line of `python -c CODE ARGV`, as JSON, with this
    test run's kgraphs on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kgraphs.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# every `kgraph` child loads these (the CLI itself runs as __main__); each
# case below names what it adds
_CLI_BASE = {"kgraphs", "kgraphs.core", "kgraphs.textform"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["validate", "{g}"], set()),
        (["h0", "{g}"], {"homology", "intmat"}),
        (["rank", "{g}"], {"homology", "intmat"}),
        (["h0gr", "{g}"], {"homology", "intmat"}),
        # an equal pair differs by zero at the join of its shifts; a pair
        # that does not needs the stabilization index, found by echelon
        (["tm-eq", "{g}", "u:0,0", "u:0,7"], {"dimension"}),
        (["tm-eq", "{g}", "u:0,0", "u:0,0:2"], {"dimension", "intmat"}),
        (["info", "{g}"], set()),
        (["pullback", "{g}", "--images", "1,0;0,1"], {"constructions", "paths"}),
        (["skew-window", "{g}", "--lo", "0,0", "--hi", "0,1"], {"constructions"}),
        (["validate", "ex3.5-LambdaS"], {"constructions"}),
        (["insplit", "{lam}", "v", "--sidecar", "{sidecar}"], {"moves", "dimension"}),
        (["sinkdelete", "{lam}", "v", "--sidecar", "{sidecar}"], {"moves", "dimension"}),
        (["tm-iso-check", "{lam}", "{split}", "--fwd", "{phi}", "--bwd", "{psi}"], {"dimension"}),
        (["bridge-search", "{g}", "{g}", "--matrix", "1"], {"bridging"}),
        (["sse-search", "{lam}", "{split}"], {"sse", "intmat"}),
        (["tm-hom-check", "{g}", "{g}", "--identity"], {"dimension"}),
    ],
    ids=[
        "validate", "h0", "rank", "h0gr", "tm-eq", "tm-eq-apart", "info", "pullback", "skew-window",
        "validate-fixture-id", "insplit-sidecar", "sinkdelete-sidecar", "tm-iso-check",
        "bridge-search", "sse-search", "tm-hom-check-identity",
    ],
)
def test_commands_load_only_the_modules_they_run(tmp_path, argv, extra):
    from kgraphs.moves import insplit_sidecar

    lam = fixture("ex3.5-Lambda")
    split, doc = insplit_sidecar(lam, enumerate_valid_partitions(lam, "v")[0], 1)
    files = {"g": fixture("ex3.5-LambdaS"), "lam": lam, "split": split}
    names = {"sidecar": tmp_path / "sidecar.json"}
    for name, g in files.items():
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(dump_kgraph(g), encoding="utf-8")
    for name in ("phi", "psi"):
        names[name] = ";".join(f"{v}={e}" for v, e in doc[name].items())
    code, modules = _python_last_line(_MODULES_AFTER_CLI, *(arg.format(**names) for arg in argv))
    assert code == 0
    assert "dataclasses" not in modules
    loaded = {m for m in modules if m == "kgraphs" or m.startswith("kgraphs.")}
    assert loaded == _CLI_BASE | {f"kgraphs.{m}" for m in extra}


def test_importing_the_package_loads_none_of_its_modules():
    # then a submodule attribute imports that submodule, as it did when
    # the package imported all of them
    code = (
        "import json, sys, kgraphs; loaded = sorted(m for m in sys.modules if 'kgraphs' in m); "
        "print(json.dumps([loaded, kgraphs.moves.insplit.__module__]))"
    )
    assert _python_last_line(code) == [["kgraphs"], "kgraphs.moves"]
