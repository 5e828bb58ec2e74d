"""Command-line front end: parse graphs, dispatch every operation, emit
deterministic text or JSON.

Exit codes: 0 success, 1 domain and OS errors (validation failures,
impossible moves, unreadable files, ...), 2 usage, parse and decode errors.

Argument syntaxes:
  GRAPH      path to a graph file, or a catalog fixture id (a bare id or
             a path-like "fixtures/<id>" both work)
  matrix     rows separated by ';', entries by whitespace: "1 0; 0 1"
  shift      comma-separated integers: "1,0" or "-2,3"
  element    '+'-separated terms "vertex:shift[:coeff]"; "0" is zero
  map        ';'-separated assignments "generator=element"
  flips      JSON {color: [[[lam, g], [g2, om]], ...]}, inline or a path
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .core import InvalidKGraph, KGraph, KGraphError, unit_degree, vertex_matrix
from .textform import TextFormatError, dump_kgraph, load_kgraph, read_text

# Each command imports the modules it runs in its own body, so starting
# `kgraph validate` or `kgraph info` loads no search, move or construction
# code.
if TYPE_CHECKING:
    from .dimension import DimElement, GeneratorMap
    from .intmat import Matrix
    from .moves import Partition


class CLIUsage(KGraphError):
    pass


# --------------------------------------------------------------- arg parsing

def resolve_graph(arg: str) -> KGraph:
    """A graph argument is a file path, a catalog id, or a path-shaped
    catalog reference like fixtures/ex5.7-Lambda; KGRAPH_FIXTURES names an
    extra directory to search."""
    if os.path.exists(arg) and not os.path.isdir(arg):
        return load_kgraph(arg)
    from .constructions import UnknownFixture, fixture

    base = os.path.basename(arg)
    if base.endswith(".json"):
        base = base[:-5]
    for name in (arg, base):
        try:
            return fixture(name)
        except UnknownFixture:
            pass
    override = os.environ.get("KGRAPH_FIXTURES")
    if override:
        for cand in (os.path.join(override, arg), os.path.join(override, arg + ".json")):
            if os.path.isfile(cand):
                return load_kgraph(cand)
    raise UnknownFixture(f"no such file or fixture: {arg}")


def parse_matrix(text: str) -> Matrix:
    try:
        rows = [[int(x) for x in row.split()] for row in text.split(";")]
    except ValueError:
        raise CLIUsage(f"bad matrix {text!r}: entries must be integers")
    if not rows or any(not r for r in rows):
        raise CLIUsage(f"bad matrix {text!r}: empty row")
    if any(len(r) != len(rows[0]) for r in rows):
        raise CLIUsage(f"bad matrix {text!r}: ragged rows")
    return rows


def parse_shift(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CLIUsage(f"bad tuple {text!r}: comma-separated integers expected")


def parse_element(g: KGraph, text: str) -> DimElement:
    from .dimension import dge_add, dge_scale, unit_element, zero_element

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
        acc = dge_add(g, acc, dge_scale(c, unit_element(g, v, parse_shift(shift))))
    return acc


def element_str(g: KGraph, a: DimElement) -> str:
    shift = ",".join(map(str, a.n))
    terms = [
        f"{v}:{shift}:{c}" for v, c in zip(g.vertices, a.x) if c != 0
    ]
    return " + ".join(terms) if terms else "0"


def parse_generator_map(source: KGraph, target: KGraph, text: str) -> GeneratorMap:
    from .dimension import generator_map

    images: dict[str, DimElement] = {}
    for entry in text.split(";"):
        if "=" not in entry:
            raise CLIUsage(f"bad map entry {entry.strip()!r}: want generator=element")
        gen, elt = (part.strip() for part in entry.split("=", 1))
        if gen in images:
            raise CLIUsage(f"bad map: generator {gen!r} is given twice")
        images[gen] = parse_element(target, elt)
    return generator_map(source, target, images)


def map_arg(source: KGraph, target: KGraph, args, flag: str) -> GeneratorMap:
    from .dimension import generator_map_from_matrix, identity_map_between

    if getattr(args, "identity", False):
        return identity_map_between(source, target)
    if getattr(args, "matrix", None) is not None:
        return generator_map_from_matrix(source, target, parse_matrix(args.matrix))
    text = getattr(args, flag, None)
    if text is None:
        raise CLIUsage(f"one of --identity, --matrix, --{flag} is required")
    return parse_generator_map(source, target, text)


def _unique_keys(pairs: list) -> dict:
    # a JSON object that repeats a key would silently keep only its last value
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise CLIUsage("bad flips JSON: an object repeats a key")
    return doc


def parse_flips(text: str) -> dict[int, dict[tuple[str, str], tuple[str, str]]]:
    """The --flips table; a color or a [lam, g] given twice is a usage
    error, not a silent overwrite."""
    if os.path.isfile(text):
        text = read_text(text)
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except CLIUsage:
        raise
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, an integer over the digit limit, or nesting too deep
        raise CLIUsage(f"bad flips JSON: {e}")
    if not isinstance(doc, dict):
        raise CLIUsage("bad flips JSON: expected an object keyed by color")
    try:
        tables = [
            (int(color), [((lam, g), (g2, om)) for (lam, g), (g2, om) in table])
            for color, table in doc.items()
        ]
        flips = {color: dict(entries) for color, entries in tables}
    except (TypeError, ValueError):
        raise CLIUsage("bad flips JSON: each entry must be [[lam, g], [g2, om]]")
    if len(flips) != len(tables):
        raise CLIUsage("bad flips JSON: some color is given twice")
    for color, entries in tables:
        if len(flips[color]) != len(entries):
            raise CLIUsage(f"bad flips JSON: color {color} gives some [lam, g] twice")
    for table in flips.values():
        for key, value in table.items():
            if not all(isinstance(e, str) for e in key + value):
                raise CLIUsage("bad flips JSON: edge ids must be strings")
    return flips


def flips_doc(flips: dict[int, dict[tuple[str, str], tuple[str, str]]]) -> dict:
    return {
        str(i): [[list(dom), list(cod)] for dom, cod in sorted(table.items())]
        for i, table in sorted(flips.items())
    }


def matrix_str(m: Matrix) -> str:
    return "; ".join(" ".join(map(str, row)) for row in m)


def map_doc(target: KGraph, m: GeneratorMap) -> dict[str, str]:
    return {gen: element_str(target, img) for gen, img in sorted(m.images.items())}


def emit(args, doc: dict, text: str) -> int:
    print(json.dumps(doc, indent=2, sort_keys=True) if args.json else text)
    return 0


# ----------------------------------------------------------------- commands

def cmd_validate(args) -> int:
    try:
        g = resolve_graph(args.graph)
    except InvalidKGraph as exc:
        # Report every violation, not just the first five.
        for v in exc.violations:
            print(v, file=sys.stderr)
        print(f"invalid: {len(exc.violations)} violation(s)", file=sys.stderr)
        return 1
    doc = {
        "valid": True,
        "rank": g.rank,
        "vertices": len(g.vertices),
        "edges": len(g.skeleton.edges),
        "squares": len(g.squares),
        "strict": g.strict,
    }
    return emit(args, doc, f"valid (k={g.rank}, |Λ⁰|={len(g.vertices)})")


def cmd_info(args) -> int:
    g = resolve_graph(args.graph)
    counts = {i: sum(map(len, by_range)) for i, by_range in enumerate(g.in_sources, 1)}
    mats = {i: vertex_matrix(g, unit_degree(g.rank, i)) for i in counts}
    doc = {
        "rank": g.rank,
        "vertices": list(g.vertices),
        "edge_counts": {str(i): c for i, c in counts.items()},
        "strict": g.strict,
        "vertex_matrices": {str(i): mats[i] for i in mats},
    }
    lines = [
        f"rank {g.rank}",
        f"vertices ({len(g.vertices)}): " + " ".join(g.vertices),
        "edges: " + ", ".join(f"color {i}: {counts[i]}" for i in counts),
        f"strict: {'yes' if g.strict else 'no'}",
    ]
    lines += [f"A_e{i}: {matrix_str(mats[i])}" for i in mats]
    return emit(args, doc, "\n".join(lines))


def _partition_for(g: KGraph, args) -> Partition:
    from .moves import Partition, check_partition, enumerate_valid_partitions

    if args.side1 is not None:
        side1 = tuple(sorted(args.side1.split(",")))
        all_in = [
            e.id
            for i in range(1, g.rank + 1)
            for e in g.in_edges[args.vertex][i]
        ]
        side2 = tuple(sorted(set(all_in) - set(side1)))
        p = Partition(args.vertex, side1, side2)
        check_partition(g, p)
        return p
    options = enumerate_valid_partitions(g, args.vertex)
    if not 0 <= args.partition < len(options):
        raise CLIUsage(
            f"--partition {args.partition} out of range: vertex has {len(options)} valid partition(s)"
        )
    return options[args.partition]


def _write_sidecar(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_insplit(args) -> int:
    from .moves import insplit, insplit_maps

    g = resolve_graph(args.graph)
    if args.vertex not in g.vertex_index:
        raise KGraphError(f"unknown vertex {args.vertex!r}")
    p = _partition_for(g, args)
    if args.sidecar:
        split, parents, phi, psi = insplit_maps(g, p, args.psi_color)
        _write_sidecar(args.sidecar, {
            "move": "insplit",
            "vertex": p.vertex,
            "side1": list(p.side1),
            "side2": list(p.side2),
            "parent_vertices": dict(sorted(parents.vertices.items())),
            "parent_edges": dict(sorted(parents.edges.items())),
            "phi": map_doc(split, phi),
            "psi": map_doc(g, psi),
        })
    else:
        split, _ = insplit(g, p)
    print(dump_kgraph(split), end="")
    return 0


def cmd_sinkdelete(args) -> int:
    from .moves import sink_delete, sink_delete_maps

    g = resolve_graph(args.graph)
    if args.vertex not in g.vertex_index:
        raise KGraphError(f"unknown vertex {args.vertex!r}")
    if args.sidecar:
        result, phi, witnesses = sink_delete_maps(g, args.vertex)
        _write_sidecar(args.sidecar, {
            "move": "sinkdelete",
            "vertex": args.vertex,
            "deleted": sorted(set(g.vertices) - set(result.vertices)),
            "phi": map_doc(result, phi),
            "witnesses": {u: element_str(result, a) for u, a in sorted(witnesses.items())},
        })
    else:
        result = sink_delete(g, args.vertex)
    print(dump_kgraph(result), end="")
    return 0


def cmd_pullback(args) -> int:
    from .constructions import monoid_hom, pullback

    g = resolve_graph(args.graph)
    images = [parse_shift(t) for t in args.images.split(";")]
    f = monoid_hom(images, g.rank)
    print(dump_kgraph(pullback(g, f)), end="")
    return 0


def cmd_skew_window(args) -> int:
    from .constructions import skew_product_window

    g = resolve_graph(args.graph)
    print(dump_kgraph(skew_product_window(g, parse_shift(args.lo), parse_shift(args.hi))), end="")
    return 0


def cmd_tm_eq(args) -> int:
    from .dimension import dge_eq

    g = resolve_graph(args.graph)
    a = parse_element(g, args.a)
    b = parse_element(g, args.b)
    eq = dge_eq(g, a, b)
    return emit(args, {"equal": eq}, "equal" if eq else "not equal")


def cmd_tm_hom_check(args) -> int:
    from .dimension import hom_check, pointed_check

    source = resolve_graph(args.source)
    target = resolve_graph(args.target)
    m = map_arg(source, target, args, "map")
    ok = hom_check(m)
    pointed = pointed_check(m) if ok else False
    doc = {"hom": ok, "pointed": pointed}
    text = f"hom: {'yes' if ok else 'no'}\npointed: {'yes' if pointed else 'no'}"
    return emit(args, doc, text)


def cmd_tm_iso_check(args) -> int:
    from .dimension import identity_map_between, iso_check, pointed_check

    source = resolve_graph(args.source)
    target = resolve_graph(args.target)
    if args.identity:
        fwd = identity_map_between(source, target)
        bwd = identity_map_between(target, source)
    else:
        if args.fwd is None or args.bwd is None:
            raise CLIUsage("tm-iso-check needs --fwd and --bwd, or --identity")
        fwd = parse_generator_map(source, target, args.fwd)
        bwd = parse_generator_map(target, source, args.bwd)
    ok = iso_check(fwd, bwd)
    pointed = pointed_check(fwd) if ok else False
    doc = {"iso": ok, "pointed": pointed}
    text = f"iso: {'yes' if ok else 'no'}\npointed: {'yes' if pointed else 'no'}"
    return emit(args, doc, text)


def cmd_sse_search(args) -> int:
    from .dimension import ExhaustedBounds, sse_search

    left = resolve_graph(args.left)
    right = resolve_graph(args.right)
    found = sse_search(left, right, args.p_max, args.entry_max)
    if isinstance(found, ExhaustedBounds):
        doc = {"found": False, "p_max": found.p_max, "entry_max": found.entry_max}
        return emit(args, doc, f"exhausted (p_max={found.p_max}, entry_max={found.entry_max})")
    doc = {"found": True, "p": list(found.p), "r": found.r, "s": found.s}
    text = "\n".join(
        [
            "p: " + ",".join(map(str, found.p)),
            "R: " + matrix_str(found.r),
            "S: " + matrix_str(found.s),
        ]
    )
    return emit(args, doc, text)


def cmd_rank(args) -> int:
    from .dimension import rank_invariant

    g = resolve_graph(args.graph)
    r = rank_invariant(g)
    return emit(args, {"rank": r}, str(r))


def cmd_h0(args) -> int:
    from .homology import h0

    g = resolve_graph(args.graph)
    inv = h0(g)
    doc = {"rank": inv.rank, "torsion": list(inv.torsion)}
    return emit(args, doc, f"rank {inv.rank}, torsion {list(inv.torsion)}")


def cmd_h0gr(args) -> int:
    from .homology import h0gr_presentation

    g = resolve_graph(args.graph)
    mats, r = h0gr_presentation(g)
    doc = {
        "vertex_matrices": {str(i + 1): m for i, m in enumerate(mats)},
        "rank": r,
    }
    lines = [f"A_e{i + 1}: {matrix_str(m)}" for i, m in enumerate(mats)]
    lines.append(f"rank {r}")
    return emit(args, doc, "\n".join(lines))


def cmd_bridge_search(args) -> int:
    from .bridging import BridgingPair, Exhausted, bridging_search, coherence_check

    g_lam = resolve_graph(args.lam)
    g_om = resolve_graph(args.om)
    r = parse_matrix(args.matrix)
    if args.flips is not None:
        pair = BridgingPair(r, parse_flips(args.flips))
        ok, witness = coherence_check(g_lam, g_om, pair)
        if ok:
            return emit(args, {"coherent": True}, "coherent")
        doc = {
            "coherent": False,
            "witness": {
                "colors": [witness.i, witness.j],
                "lam_i": witness.lam_i,
                "lam_j": witness.lam_j,
                "g": witness.g,
                "top": list(witness.top),
                "bottom": list(witness.bottom),
            },
        }
        text = (
            f"incoherent at (i={witness.i}, j={witness.j}, lam_i={witness.lam_i}, "
            f"lam_j={witness.lam_j}, g={witness.g}): "
            f"top {witness.top} != bottom {witness.bottom}"
        )
        return emit(args, doc, text)
    found = bridging_search(g_lam, g_om, r)
    if isinstance(found, Exhausted):
        return emit(args, {"found": False, "examined": found.count}, f"exhausted {found.count}")
    doc = {"found": True, "matrix": r, "flips": flips_doc(found.flips)}
    lines = ["R: " + matrix_str(r)]
    for i, table in sorted(found.flips.items()):
        for (lam, g), (g2, om) in sorted(table.items()):
            lines.append(f"f{i}: ({lam}, {g}) -> ({g2}, {om})")
    return emit(args, doc, "\n".join(lines))


def cmd_fixtures(args) -> int:
    from .constructions import FIXTURE_NAMES

    names = sorted(FIXTURE_NAMES)
    doc = {"fixtures": names, "parametric": "ex4.7-n<N> for N >= 2"}
    return emit(args, doc, "\n".join(names + ["ex4.7-n<N> (N >= 2, generated)"]))


# ----------------------------------------------------------------- dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgraph",
        description="Compute with finite higher-rank graphs.",
        epilog=__doc__.split("\n\nArgument syntaxes:\n")[1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("validate", parents=[common], help="check the k-graph axioms")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", parents=[common], help="summary and vertex matrices")
    p.add_argument("graph")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("insplit", parents=[common], help="in-split at a vertex")
    p.add_argument("graph")
    p.add_argument("vertex")
    p.add_argument("--partition", type=int, default=0, help="index into the valid partitions (default 0)")
    p.add_argument("--side1", help="explicit side-1 edge ids, comma-separated")
    p.add_argument("--sidecar", help="write the generator maps and parent maps to this JSON file")
    p.add_argument("--psi-color", type=int, default=1, help="color used by the backward map (default 1)")
    p.set_defaults(func=cmd_insplit)

    p = sub.add_parser("sinkdelete", parents=[common], help="delete a sink and what it reaches")
    p.add_argument("graph")
    p.add_argument("vertex")
    p.add_argument("--sidecar", help="write the generator map and witnesses to this JSON file")
    p.set_defaults(func=cmd_sinkdelete)

    p = sub.add_parser("pullback", parents=[common], help="pull back along a monoid hom")
    p.add_argument("graph")
    p.add_argument("--images", required=True, help="';'-separated degree tuples, one per source color")
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("skew-window", parents=[common], help="window of the degree-skew product")
    p.add_argument("graph")
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)
    p.set_defaults(func=cmd_skew_window)

    p = sub.add_parser("tm-eq", parents=[common], help="decide equality in the graded group")
    p.add_argument("graph")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_tm_eq)

    p = sub.add_parser("tm-hom-check", parents=[common], help="check a generator map is a hom")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--map", help="generator=element assignments, ';'-separated")
    p.add_argument("--matrix", help="integer matrix inducing the map")
    p.add_argument("--identity", action="store_true", help="identity on shared vertex names")
    p.set_defaults(func=cmd_tm_hom_check)

    p = sub.add_parser("tm-iso-check", parents=[common], help="check a mutually inverse pair")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--fwd", help="forward map, generator=element ';'-separated")
    p.add_argument("--bwd", help="backward map")
    p.add_argument("--identity", action="store_true")
    p.set_defaults(func=cmd_tm_iso_check)

    p = sub.add_parser("sse-search", parents=[common], help="search for a one-step strong shift equivalence")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--p-max", type=int, default=1, help="componentwise bound on the degree p (default 1)")
    p.add_argument(
        "--entry-max",
        type=int,
        default=1,
        help=(
            "bound on R and S entries (default 1; equations prune R and S row by row, "
            "but the worst case is still (entry_max+1)^(2 d d') candidate pairs)"
        ),
    )
    p.set_defaults(func=cmd_sse_search)

    p = sub.add_parser("rank", parents=[common], help="rank of the total one-step matrix")
    p.add_argument("graph")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("h0", parents=[common], help="ungraded zeroth homology invariants")
    p.add_argument("graph")
    p.set_defaults(func=cmd_h0)

    p = sub.add_parser("h0gr", parents=[common], help="graded zeroth homology presentation data")
    p.add_argument("graph")
    p.set_defaults(func=cmd_h0gr)

    p = sub.add_parser("bridge-search", parents=[common], help="search for a coherent flip family")
    p.add_argument("lam")
    p.add_argument("om")
    p.add_argument("--matrix", required=True, help="the candidate bridging matrix R")
    p.add_argument("--flips", help="check this flip family instead of searching")
    p.set_defaults(func=cmd_bridge_search)

    p = sub.add_parser("fixtures", parents=[common], help="list the bundled catalog")
    p.set_defaults(func=cmd_fixtures)

    return parser


def _errmsg(e: BaseException) -> str:
    # KeyError str() wraps its argument in repr quotes.
    if isinstance(e, KeyError) and e.args:
        return str(e.args[0])
    return str(e)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (TextFormatError, CLIUsage) as e:
        print(f"error: {_errmsg(e)}", file=sys.stderr)
        return 2
    except (KGraphError, OSError) as e:
        print(f"error: {_errmsg(e)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
