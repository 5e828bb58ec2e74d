"""Workload `pipeline`: `kgraph` commands, one child process at a time.

Why: every operation pays interpreter start-up, `import kgraphs.cli`, a
parse of the graph file, full validation of a freshly built graph and the
text dump, with cold caches. The moves layer dominates the in-splits
(`pairing_closure` runs a brute-force `mce` per edge pair, and
`insplit --sidecar` runs `insplit` three times). This is the "write" use
of `core`, which builds many graphs and queries each once; a change that
precomputes more per graph shows its cost here.

Sizes: each cycle takes one generated graph of 13 vertices (two random
strict 2-graphs on 5 vertices whose color-1 matrix is a sum of 4
permutation matrices, plus 3 sink hubs that each have two or more pairing
classes; 144 edges and 320 squares for every seed) and runs 25 commands:
a chain of three `insplit --sidecar` at the hubs, each output followed by
`validate`, `h0`, `rank` and `tm-eq`, and the first by `tm-iso-check` of
its generator maps; `sinkdelete --sidecar` of a hub
followed by `h0` and `rank`; `pullback` along (1,0), (0,1), (1,1) followed
by `h0`; `skew-window` over [0,0]..[1,1]; `info`; and two `tm-eq` on the
input. The pool holds 4 graphs.

Checks: in-split and sink-deletion outputs and the in-split sidecar's
generator maps are predicted exactly from the generator's data (edges
into the hub move to the copy named by their side; the first pairing
class is side 1); `h0` and `rank` must stay at the input's values,
computed by ``oracle.py``; elements compared by `tm-eq` are equal by
construction or apart by a nonzero nonnegative element; the maps of an
in-split are a pointed isomorphism of graded groups.
"""

from __future__ import annotations

import json
import os
import random

import gen
import oracle
from harness import Op, run_cli

USES_CLI = True
POOL = 4
SIDE = 5
HUBS = 3
PERMS = 4


# ----------------------------------------------------------- predictions

def _pairing_classes(g: gen.GraphData, v: str) -> list[list[str]]:
    """Classes at v, in edge order: a color-1 edge e and a color-2 edge f
    into v pair iff some square (e, h) -> (f, g2) exists."""
    into = [e[0] for e in g.edges if e[3] == v]
    parent = {e: e for e in into}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for (e, _h), (f, _g2) in g.squares.items():
        if e in parent:
            parent[find(f)] = find(e)
    classes: dict[str, list[str]] = {}
    for e in into:
        classes.setdefault(find(e), []).append(e)
    return list(classes.values())


def _predict_insplit(g: gen.GraphData, hub: str) -> gen.GraphData:
    side1 = set(_pairing_classes(g, hub)[0])
    vertices = []
    for v in g.vertices:
        vertices += [f"{hub}^1", f"{hub}^2"] if v == hub else [v]
    edges = tuple(
        (i, c, s, f"{hub}^{1 if i in side1 else 2}" if r == hub else r) for i, c, s, r in g.edges
    )
    return gen.GraphData(g.rank, tuple(vertices), edges, dict(g.squares), g.strict)


def _predict_maps(g: gen.GraphData, hub: str) -> tuple[dict[str, str], dict[str, str]]:
    """The sidecar's generator maps of the in-split at `hub`, as element
    strings: phi sends hub(0) to hub^1(0) + hub^2(0); psi (color 1) sends
    hub^t(0) to the sum of s(e)(e_1) over the color-1 edges on side t and
    fixes the other vertices."""
    side1 = set(_pairing_classes(g, hub)[0])
    phi = {v: f"{hub}^1:0,0:1 + {hub}^2:0,0:1" if v == hub else f"{v}:0,0:1" for v in g.vertices}
    psi = {v: f"{v}:0,0:1" for v in g.vertices if v != hub}
    for t in (1, 2):
        x = [0] * len(g.vertices)
        for i, c, src, rng in g.edges:
            if rng == hub and c == 1 and (i in side1) == (t == 1):
                x[g.vertices.index(src)] += 1
        psi[f"{hub}^{t}"] = _element(g, x, (1, 0))
    return phi, psi


def _predict_sinkdelete(g: gen.GraphData, hub: str) -> gen.GraphData:
    # a hub emits nothing, so it is the only vertex deleted
    edges = tuple(e for e in g.edges if e[3] != hub)
    kept = {e[0] for e in edges}
    squares = {k: v for k, v in g.squares.items() if k[0] in kept and k[1] in kept}
    return gen.GraphData(g.rank, tuple(v for v in g.vertices if v != hub), edges, squares, g.strict)


def _info_text(g: gen.GraphData) -> str:
    counts = [sum(1 for e in g.edges if e[1] == i) for i in range(1, g.rank + 1)]
    lines = [
        f"rank {g.rank}",
        f"vertices ({len(g.vertices)}): " + " ".join(g.vertices),
        "edges: " + ", ".join(f"color {i + 1}: {c}" for i, c in enumerate(counts)),
        f"strict: {'yes' if g.strict else 'no'}",
    ]
    for i, m in enumerate(oracle.one_step(g)):
        lines.append(f"A_e{i + 1}: " + "; ".join(" ".join(map(str, row)) for row in m))
    return "\n".join(lines)


def _element(g: gen.GraphData, x, n) -> str:
    shift = ",".join(map(str, n))
    return " + ".join(f"{v}:{shift}:{c}" for v, c in zip(g.vertices, x) if c) or "0"


def _tm_pairs(rng: random.Random, g: gen.GraphData, count: int) -> list[tuple[str, str, bool]]:
    """Pairs [x, n], [x.A_m (+ y), n + m] supported off the hubs, so the
    same strings name the same elements on every graph of the chain."""
    pusher = oracle.Pusher(g)
    plain = [t for t, v in enumerate(g.vertices) if not v.startswith("h")]
    out = []
    for q in range(count):
        x = [0] * len(g.vertices)
        for t in rng.sample(plain, 2):
            x[t] = rng.choice((-1, 1)) * rng.randint(1, 3)
        n = (rng.randint(0, 20), rng.randint(0, 20))
        m = (rng.randint(0, 3), rng.randint(0, 3))
        y = pusher.push(x, m)
        equal = q % 2 == 0
        if not equal:
            y[rng.choice(plain)] += rng.randint(1, 3)
        out.append((_element(g, x, n), _element(g, y, (n[0] + m[0], n[1] + m[1])), equal))
    return out


def setup(pkg, seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    pool = []
    for i in range(POOL):
        g = gen.hub_graph(rng, SIDE, HUBS, PERMS)
        text = gen.to_json(g)
        path = os.path.join(workdir, f"base{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        pkg.parse_kgraph(text)
        hubs = [v for v in g.vertices if v.startswith("h")]
        chain, maps = [g], []
        for hub in hubs:
            maps.append(_predict_maps(chain[-1], hub))
            chain.append(_predict_insplit(chain[-1], hub))
        pool.append({"data": g, "path": path, "hubs": hubs, "chain": chain, "maps": maps,
                     "cut": _predict_sinkdelete(g, hubs[-1]), "tm": _tm_pairs(rng, g, 5)})
    return {"pool": pool, "workdir": workdir, "oracle": {}}


# ------------------------------------------------------------------- ops

def _same_graph(want: gen.GraphData, sidecar: str | None = None, maps=None):
    def check(got):
        if gen.from_json(got) != want:
            return "output graph differs from the prediction"
        if sidecar is not None:
            with open(sidecar, encoding="utf-8") as fh:
                doc = json.load(fh)
            if (doc["phi"], doc["psi"]) != maps:
                return f"sidecar maps {doc['phi']}, {doc['psi']}"
        return None
    return check


def _equals(want):
    return lambda got: None if got == want else f"got {got!r}, want {want!r}"


def cycle(pkg, state: dict, c: int) -> list[Op]:
    index = c % len(state["pool"])
    s = state["pool"][index]
    g, work = s["data"], state["workdir"]
    trace_dir = state.get("trace_dir")
    cache = state["oracle"].setdefault(index, {})
    ops: list[Op] = []

    def want(key):
        # oracle answers for the input graph, shared by the whole chain
        if key not in cache:
            if key == "h0":
                r, t = oracle.h0(g)
                cache[key] = f"rank {r}, torsion {list(t)}"
            else:
                cache[key] = str(oracle.eventual_rank(oracle.mat_mul(*oracle.one_step(g))))
        return cache[key]

    def keeps(key):
        return lambda got: _equals(want(key))(got)

    def cli(key: str, argv: list[str], check, out_path: str | None = None):
        """An op running `kgraph ARGV`; its result is the standard output,
        or the file it was sent to."""
        i = len(ops)
        traced = None if trace_dir is None else (os.path.join(trace_dir, f"{i}.json"), i)

        def run():
            text = run_cli(argv, out_path, traced)
            if out_path is None:
                return text.rstrip("\n")
            with open(out_path, encoding="utf-8") as fh:
                return fh.read()

        ops.append(Op(f"p{index}.{key}", run, check))

    tm = s["tm"]
    src = s["path"]
    for t, hub in enumerate(s["hubs"]):
        out = os.path.join(work, f"c{c}-split{t}.json")
        sidecar = os.path.join(work, f"c{c}-split{t}.sidecar.json")
        split = s["chain"][t + 1]
        cli(f"insplit{t}", ["insplit", src, hub, "--sidecar", sidecar], _same_graph(split, sidecar, s["maps"][t]),
            out)
        if t == 0:
            # in-splitting is an isomorphism of graded groups (phi, psi)
            phi, psi = (";".join(f"{v}={e}" for v, e in m.items()) for m in s["maps"][0])
            cli("iso", ["tm-iso-check", src, out, "--fwd", phi, "--bwd", psi], _equals("iso: yes\npointed: yes"))
        cli(f"validate{t}", ["validate", out],
            _equals(f"valid (k=2, |Λ⁰|={len(split.vertices)})"))
        cli(f"h0.split{t}", ["h0", out], keeps("h0"))
        cli(f"rank.split{t}", ["rank", out], keeps("rank"))
        a, b, equal = tm[t]
        cli(f"tm.split{t}", ["tm-eq", out, a, b], _equals("equal" if equal else "not equal"))
        src = out

    cut = os.path.join(work, f"c{c}-cut.json")
    cli("sinkdelete", ["sinkdelete", s["path"], s["hubs"][-1], "--sidecar", cut + ".sidecar"],
        _same_graph(s["cut"]), cut)
    cli("h0.cut", ["h0", cut], keeps("h0"))
    cli("rank.cut", ["rank", cut], keeps("rank"))

    pb = os.path.join(work, f"c{c}-pullback.json")
    n_edges, n_squares = len(g.edges), len(g.squares)

    def check_pullback(got):
        p = gen.from_json(got)
        # color-3 edges are the (1,1)-paths, one per square
        shape = (p.rank, p.vertices, len(p.edges))
        return _equals((3, g.vertices, n_edges + n_squares))(shape)

    cli("pullback", ["pullback", s["path"], "--images", "1,0;0,1;1,1"], check_pullback, pb)
    cli("h0.pullback", ["h0", pb], keeps("h0"))

    sw = os.path.join(work, f"c{c}-window.json")

    def check_window(got):
        w = gen.from_json(got)
        # four positions; an edge of either color fits at two of them, a
        # square only at the origin
        return _equals((4 * len(g.vertices), 2 * n_edges, n_squares, False))(
            (len(w.vertices), len(w.edges), len(w.squares), w.strict))

    cli("window", ["skew-window", s["path"], "--lo", "0,0", "--hi", "1,1"], check_window, sw)
    cli("info", ["info", s["path"]], _equals(_info_text(g)))
    for q in (3, 4):
        a, b, equal = tm[q]
        cli(f"tm{q}", ["tm-eq", s["path"], a, b], _equals("equal" if equal else "not equal"))
    return ops
