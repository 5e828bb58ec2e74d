"""Command-line front end: parse graphs, dispatch every operation, emit
deterministic text or JSON.

Exit codes: 0 success, 1 domain and OS errors (validation failures,
impossible moves, unreadable files, ...), 2 usage, parse and decode errors.

Argument syntaxes:
  GRAPH      path to a graph file, or a catalog fixture id (a bare id or
             a path-like "fixtures/<id>" both work)
  matrix     rows separated by ';', entries by whitespace: "1 0; 0 1",
             inline or a path
  shift      comma-separated integers: "1,0" or "-2,3"
  element    '+'-separated terms "vertex:shift[:coeff]"; "0" is zero
  map        ';'-separated assignments "generator=element"
  flips      JSON {color: [[[lam, g], [g2, om]], ...]}, inline or a path

A matrix or flips argument that names an existing file is read as that
file, so an inline matrix such as "1" reads the file 1 if there is one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    CLIUsage,
    InvalidKGraph,
    KGraph,
    KGraphError,
    _check_color,
    matrix_str,
    parse_matrix,
    parse_shift,
    unit_degree,
    vertex_matrix,
)
from .textform import TextFormatError, dump_kgraph, load_kgraph

# Each command imports the modules it runs in its own body, and the syntax
# of elements, maps, partitions and flip tables lives in the module that
# reads it, so `kgraph validate` or `kgraph info` loads and compiles no
# search, move or construction code. main builds the subparser of the
# command it runs and no other.


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


def emit(args, doc: dict, text: str) -> int:
    print(json.dumps(doc, indent=2, sort_keys=True) if args.json else text)
    return 0


def _write_sidecar(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def cmd_insplit(args) -> int:
    from .moves import choose_partition, insplit, insplit_sidecar

    g = resolve_graph(args.graph)
    p = choose_partition(g, args.vertex, args.side1, args.partition)
    # checked with or without --sidecar, though only the sidecar's psi reads it
    _check_color(g.rank, args.psi_color)
    if args.sidecar:
        split, doc = insplit_sidecar(g, p, args.psi_color)
        _write_sidecar(args.sidecar, doc)
    else:
        split, _ = insplit(g, p)
    print(dump_kgraph(split), end="")
    return 0


def cmd_sinkdelete(args) -> int:
    from .moves import sink_delete, sink_delete_sidecar

    g = resolve_graph(args.graph)
    if args.sidecar:
        result, doc = sink_delete_sidecar(g, args.vertex)
        _write_sidecar(args.sidecar, doc)
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
    from .dimension import dge_eq, parse_element

    g = resolve_graph(args.graph)
    a = parse_element(g, args.a)
    b = parse_element(g, args.b)
    eq = dge_eq(g, a, b)
    return emit(args, {"equal": eq}, "equal" if eq else "not equal")


def cmd_tm_hom_check(args) -> int:
    from .dimension import (
        generator_map_from_matrix,
        hom_check,
        identity_map_between,
        parse_generator_map,
        pointed_check,
    )

    source = resolve_graph(args.source)
    target = resolve_graph(args.target)
    if args.identity + (args.matrix is not None) + (args.map is not None) > 1:
        raise CLIUsage("only one of --identity, --matrix, --map may be given")
    if args.identity:
        m = identity_map_between(source, target)
    elif args.matrix is not None:
        m = generator_map_from_matrix(source, target, parse_matrix(args.matrix))
    elif args.map is None:
        raise CLIUsage("one of --identity, --matrix, --map is required")
    else:
        m = parse_generator_map(source, target, args.map)
    ok = hom_check(m)
    pointed = pointed_check(m) if ok else False
    doc = {"hom": ok, "pointed": pointed}
    text = f"hom: {'yes' if ok else 'no'}\npointed: {'yes' if pointed else 'no'}"
    return emit(args, doc, text)


def cmd_tm_iso_check(args) -> int:
    from .dimension import identity_map_between, iso_check, parse_generator_map, pointed_check

    source = resolve_graph(args.source)
    target = resolve_graph(args.target)
    if args.identity and (args.fwd is not None or args.bwd is not None):
        raise CLIUsage("--identity excludes --fwd and --bwd")
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
    from .sse import sse_search, sse_search_doc

    left = resolve_graph(args.left)
    right = resolve_graph(args.right)
    return emit(args, *sse_search_doc(sse_search(left, right, args.p_max, args.entry_max)))


def cmd_rank(args) -> int:
    from .homology import rank_invariant

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
    from .bridging import bridge_search_doc

    g_lam = resolve_graph(args.lam)
    g_om = resolve_graph(args.om)
    return emit(args, *bridge_search_doc(g_lam, g_om, parse_matrix(args.matrix), args.flips))


def cmd_fixtures(args) -> int:
    from .constructions import FIXTURE_NAMES

    names = sorted(FIXTURE_NAMES)
    doc = {"fixtures": names, "parametric": "ex4.7-n<N> for N >= 2"}
    return emit(args, doc, "\n".join(names + ["ex4.7-n<N> (N >= 2, generated)"]))


# ----------------------------------------------------------------- dispatch

GRAPH = ("graph", {})
_INLINE_OR_FILE = "inline or a file (text naming an existing file is read as that file)"

# name -> (handler, help, arguments); an argument is (name or flag,
# add_argument keywords), added after --json in this order
COMMANDS = {
    "validate": (cmd_validate, "check the k-graph axioms", [GRAPH]),
    "info": (cmd_info, "summary and vertex matrices", [GRAPH]),
    "insplit": (cmd_insplit, "in-split at a vertex", [
        GRAPH,
        ("vertex", {}),
        ("--partition", {"type": int, "default": 0, "help": "index into the valid partitions (default 0)"}),
        ("--side1", {"help": "explicit side-1 edge ids, comma-separated"}),
        ("--sidecar", {"help": "write the generator maps and parent maps to this JSON file"}),
        ("--psi-color", {"type": int, "default": 1, "help": "color used by the backward map (default 1)"}),
    ]),
    "sinkdelete": (cmd_sinkdelete, "delete a sink and what it reaches", [
        GRAPH,
        ("vertex", {}),
        ("--sidecar", {"help": "write the generator map and witnesses to this JSON file"}),
    ]),
    "pullback": (cmd_pullback, "pull back along a monoid hom", [
        GRAPH,
        ("--images", {"required": True, "help": "';'-separated degree tuples, one per source color"}),
    ]),
    "skew-window": (cmd_skew_window, "window of the degree-skew product", [
        GRAPH, ("--lo", {"required": True}), ("--hi", {"required": True}),
    ]),
    "tm-eq": (cmd_tm_eq, "decide equality in the graded group", [GRAPH, ("a", {}), ("b", {})]),
    "tm-hom-check": (cmd_tm_hom_check, "check a generator map is a hom", [
        ("source", {}),
        ("target", {}),
        ("--map", {"help": "generator=element assignments, ';'-separated"}),
        ("--matrix", {"help": "integer matrix inducing the map, " + _INLINE_OR_FILE}),
        ("--identity", {"action": "store_true", "help": "identity on shared vertex names"}),
    ]),
    "tm-iso-check": (cmd_tm_iso_check, "check a mutually inverse pair", [
        ("source", {}),
        ("target", {}),
        ("--fwd", {"help": "forward map, generator=element ';'-separated"}),
        ("--bwd", {"help": "backward map"}),
        ("--identity", {"action": "store_true"}),
    ]),
    "sse-search": (cmd_sse_search, "search for a one-step strong shift equivalence", [
        ("left", {}),
        ("right", {}),
        ("--p-max", {"type": int, "default": 1, "help": "componentwise bound on the degree p (default 1)"}),
        ("--entry-max", {"type": int, "default": 1, "help": (
            "bound on R and S entries (default 1; past lag 0 each entry that no equation "
            "fixes runs through 0..entry_max, so a large bound with no witness near 0 "
            "may not finish; d*d' over 5000 unknowns exits 1, sse.SSE_MAX_UNKNOWNS)"
        )}),
    ]),
    "rank": (cmd_rank, "rank of P^d, P the product of the one-step matrices and d the vertex count", [GRAPH]),
    "h0": (cmd_h0, "ungraded zeroth homology invariants", [GRAPH]),
    "h0gr": (cmd_h0gr, "graded zeroth homology presentation data", [GRAPH]),
    "bridge-search": (cmd_bridge_search, "search for a coherent flip family", [
        ("lam", {}),
        ("om", {}),
        ("--matrix", {"required": True, "help": "the candidate bridging matrix R, " + _INLINE_OR_FILE}),
        ("--flips", {"help": "check this flip family instead of searching"}),
    ]),
    "fixtures": (cmd_fixtures, "list the bundled catalog", []),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The kgraph parser; with `only`, it holds that one subparser, and its
    own usage still lists every command, so its help, usage and error text
    for that command are the full parser's."""
    parser = argparse.ArgumentParser(
        prog="kgraph",
        description="Compute with finite higher-rank graphs.",
        epilog=__doc__.split("\n\nArgument syntaxes:\n")[1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(
        dest="command", required=True, metavar=None if only is None else "{" + ",".join(COMMANDS) + "}"
    )
    for name, (func, help, arguments) in COMMANDS.items():
        if only is not None and name != only:
            continue
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _errmsg(e: BaseException) -> str:
    # KeyError str() wraps its argument in repr quotes.
    if isinstance(e, KeyError) and e.args:
        return str(e.args[0])
    return str(e)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
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
