import json

import pytest
from test_bridging import complete_product
from test_dimension import DEEP_SHIFTS, edge_push_eq

from kgraphs.bridging import BridgingPair, bridging_graph
from kgraphs.cli import main, parse_element
from kgraphs.constructions import FIXTURE_NAMES, fixture, rose
from kgraphs.core import validate_kgraph
from kgraphs.dimension import dge_eq, unit_element
from kgraphs.moves import enumerate_valid_partitions, insplit, sink_delete
from kgraphs.textform import dump_kgraph, parse_kgraph


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
    want = edge_push_eq(g, unit_element(g, *a), unit_element(g, *b))
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


def test_sse_search_cli(capsys):
    code, out, _ = run(capsys, "sse-search", "ex3.5-Lambda", "ex3.5-LambdaI")
    assert code == 0
    assert out.splitlines()[0] == "p: 0,1"
    assert out.splitlines()[1] == "R: 1 0 0 0; 0 1 1 0; 0 0 0 1"
    code, out, _ = run(capsys, "sse-search", "sec3-Lambda", "sec3-Sigma")
    assert code == 0 and out.strip() == "exhausted (p_max=1, entry_max=1)"
    code, _, err = run(capsys, "sse-search", "ex3.5-LambdaS", "ex4.7-n3", "--p-max", "-1")
    assert code == 1


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


def test_sinkdelete_sidecar_golden_bytes(capsys, tmp_path):
    sidecar = tmp_path / "maps.json"
    code, out, _ = run(capsys, "sinkdelete", "ex3.5-Lambda", "v", "--sidecar", str(sidecar))
    assert code == 0 and out == dump_kgraph(fixture("ex3.5-LambdaS"))
    assert sidecar.read_bytes() == SINKDELETE_SIDECAR.encode("utf-8")


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
}


def hostile_argv(tmp_path, case):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"rank": 1, "vertices": ["\xe9"], "edges": [], "squares": []}')
    return [arg.format(bad=bad, dir=tmp_path) for arg in HOSTILE[case]]


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_exits_cleanly(capsys, tmp_path, case):
    code, _, err = run(capsys, *hostile_argv(tmp_path, case))
    assert code in (1, 2)
    assert "Traceback" not in err and err.startswith("error: ")


def test_decode_errors_are_parse_errors(capsys, tmp_path):
    for case in ("graph-not-utf8", "validate-not-utf8", "flips-not-utf8"):
        code, _, err = run(capsys, *hostile_argv(tmp_path, case))
        assert code == 2 and "UTF-8" in err


def test_oversized_parametric_fixture_is_a_domain_error(capsys):
    code, _, err = run(capsys, "h0", "ex4.7-n100000000000")
    assert code == 1 and "ex4.7-n" in err
