"""Workload `search`: flip-family and shift-equivalence searches.

Why: the time goes to search nodes in `bridging` (block permutations and
the coherence test after each) and to small `mat_mul`s in `sse_search`,
with almost no Smith normal form, large-graph validation or I/O. A change
to the bridging search moves this workload and leaves `graded` and
`pipeline` alone.

Sizes: a cycle runs the catalog cases once - `bridging_search` on the
ex5.6 pair with R = [[1,1]] (Exhausted 16) and [[2,2]] (Exhausted 331776,
about a second), on the ex5.7 pair with both (the first finds the README
family) and on ex3.5 Lambda/LambdaI with the in-split matrix, and
`sse_search` on those three pairs at p_max = entry_max = 1 - then 30
generated pairs: two random strict 2-graphs on 3 vertices with the same
commuting matrices (a1 a sum of two permutation matrices, a2 = a1 + I),
each with one `bridging_search` over R = I, one `sse_search` and one
`coherence_check` of a uniformly random flip family. The searches take
about 0.5 and 8 ms and the check less, so the median and the 90th
percentile fall inside one kind of operation rather than between two.
The pool holds 8 cycles (240 pairs): the bridging searches of different
pairs differ in length, and a larger pool steadies the median.
"""

from __future__ import annotations

import random
from itertools import product

import gen
import oracle
from harness import Op, fixture_data

USES_CLI = False
POOL_CYCLES = 8
PAIRS_PER_CYCLE = 30
PAIR_VERTICES = 3

IDENTITY = [[int(i == j) for j in range(PAIR_VERTICES)] for i in range(PAIR_VERTICES)]
EX35_R = [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]]
README_57 = {
    1: {
        ("f1", "g1[u,v]"): ("g1[u,w]", "alpha3"),
        ("f1", "g1[u,w]"): ("g1[u,v]", "alpha1"),
        ("f2", "g1[u,v]"): ("g1[u,w]", "alpha4"),
        ("f2", "g1[u,w]"): ("g1[u,v]", "alpha2"),
    },
    2: {
        ("e", "g1[u,v]"): ("g1[u,v]", "gamma2"),
        ("e", "g1[u,w]"): ("g1[u,w]", "gamma1"),
    },
}


def _graph(pkg, data: gen.GraphData):
    skeleton = pkg.Skeleton(data.rank, data.vertices, tuple(pkg.Edge(*e) for e in data.edges))
    return pkg.validate_kgraph(skeleton, data.squares, data.strict)


def setup(pkg, seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    catalog = {name: pkg.fixture(name) for name in (
        "ex5.6-Lambda", "ex5.6-Omega", "ex5.7-Lambda", "ex5.7-Omega", "ex3.5-Lambda", "ex3.5-LambdaI")}
    pairs = []
    for _ in range(POOL_CYCLES * PAIRS_PER_CYCLE):
        a1, a2 = gen.random_commuting(rng, PAIR_VERTICES)
        lam = gen.random_2graph(rng, "p", a1, a2)
        om = gen.random_2graph(rng, "q", a1, a2)
        pairs.append({"data": (lam, om), "graphs": (_graph(pkg, lam), _graph(pkg, om)),
                      "family": gen.random_family(rng, lam, om, IDENTITY)})
    return {"catalog": catalog, "pairs": pairs}


# ------------------------------------------------------------------ checks

def _summary_search(pkg, result):
    if isinstance(result, pkg.Exhausted):
        return ("exhausted", result.count)
    return ("found", {i: dict(f) for i, f in result.flips.items()})


def _summary_sse(pkg, result):
    if isinstance(result, pkg.ExhaustedBounds):
        return ("exhausted",)
    return ("found", tuple(result.p), result.r, result.s)


def _coherent(pkg, lam, om, r, flips) -> bool:
    """The rank-3 graph of a flip family validates iff the family is
    coherent: an oracle independent of the route comparison."""
    try:
        pkg.bridging_graph(lam, om, pkg.BridgingPair(r, flips))
    except pkg.InvalidKGraph:
        return False
    return True


def _power(mats, p):
    d = len(mats[0])
    out = [[int(i == j) for j in range(d)] for i in range(d)]
    for m, times in zip(mats, p):
        for _ in range(times):
            out = oracle.mat_mul(out, m)
    return out


def _sse_identities(a_mats, b_mats, p, r, s) -> bool:
    return (
        oracle.mat_mul(r, s) == _power(a_mats, p)
        and oracle.mat_mul(s, r) == _power(b_mats, p)
        and all(oracle.mat_mul(a, r) == oracle.mat_mul(r, b) for a, b in zip(a_mats, b_mats))
        and all(oracle.mat_mul(b, s) == oracle.mat_mul(s, a) for a, b in zip(a_mats, b_mats))
    )


def _sse_first(a_mats, b_mats, p_max: int, entry_max: int):
    """The first (p, R, S) in lexicographic order, by brute force."""
    dl, dr = len(a_mats[0]), len(b_mats[0])
    for p in product(range(p_max + 1), repeat=len(a_mats)):
        for flat_r in product(range(entry_max + 1), repeat=dl * dr):
            r = [list(flat_r[i * dr:(i + 1) * dr]) for i in range(dl)]
            if any(oracle.mat_mul(a, r) != oracle.mat_mul(r, b) for a, b in zip(a_mats, b_mats)):
                continue
            for flat_s in product(range(entry_max + 1), repeat=dr * dl):
                s = [list(flat_s[i * dl:(i + 1) * dl]) for i in range(dr)]
                if _sse_identities(a_mats, b_mats, p, r, s):
                    return ("found", p, r, s)
    return ("exhausted",)


def _check_sse(a_data, b_data, brute: bool):
    a_mats, b_mats = oracle.one_step(a_data), oracle.one_step(b_data)

    def check(got):
        if brute:
            want = _sse_first(a_mats, b_mats, 1, 1)
            return None if got == want else f"got {got!r}, want {want!r}"
        if got[0] != "found" or not _sse_identities(a_mats, b_mats, *got[1:]):
            return f"{got!r} is not a witness"
        return None

    return check


def _check_search(pkg, lam, om, r, want_count=None, want_flips=None, blocks=None):
    def check(got):
        kind, value = got
        if want_flips is not None:
            return None if got == ("found", want_flips) else f"got {got!r}, want the README family"
        if want_count is not None:
            return None if got == ("exhausted", want_count) else f"got {got!r}, want Exhausted({want_count})"
        if kind == "found":
            return None if _coherent(pkg, lam, om, r, value) else "found family is incoherent"
        total = oracle.total_families(blocks)
        return None if value == total else f"exhausted count {value}, want {total}"

    return check


# -------------------------------------------------------------------- ops

def cycle(pkg, state: dict, c: int) -> list[Op]:
    cat = state["catalog"]
    ops = []
    for tag, lam, om, r, kw in (
        ("ex5.6-11", "ex5.6-Lambda", "ex5.6-Omega", [[1, 1]], {"want_count": 16}),
        ("ex5.6-22", "ex5.6-Lambda", "ex5.6-Omega", [[2, 2]], {"want_count": 331776}),
        ("ex5.7-11", "ex5.7-Lambda", "ex5.7-Omega", [[1, 1]], {"want_flips": README_57}),
        ("ex5.7-22", "ex5.7-Lambda", "ex5.7-Omega", [[2, 2]], {}),
        ("ex3.5", "ex3.5-Lambda", "ex3.5-LambdaI", EX35_R, {}),
    ):
        gl, go = cat[lam], cat[om]
        ops.append(Op(
            f"bridge.{tag}",
            lambda gl=gl, go=go, r=r: _summary_search(pkg, pkg.bridging_search(gl, go, r)),
            _check_search(pkg, gl, go, r, **kw),
        ))
    for lam, om in (("ex3.5-Lambda", "ex3.5-LambdaI"), ("ex5.6-Lambda", "ex5.6-Omega"),
                    ("ex5.7-Lambda", "ex5.7-Omega")):
        gl, go = cat[lam], cat[om]
        brute = len(gl.vertices) * len(go.vertices) <= 4
        ops.append(Op(
            f"sse.{lam}",
            lambda gl=gl, go=go: _summary_sse(pkg, pkg.sse_search(gl, go, 1, 1)),
            _check_sse(fixture_data(lam), fixture_data(om), brute),
        ))

    pairs = state["pairs"]
    for t in range(PAIRS_PER_CYCLE):
        index = (c * PAIRS_PER_CYCLE + t) % len(pairs)
        pair = pairs[index]
        (lam_d, om_d), (lam, om) = pair["data"], pair["graphs"]
        blocks = [n for m in oracle.one_step(lam_d) for row in m for n in row]
        ops.append(Op(
            f"pair{index}.bridge",
            lambda lam=lam, om=om: _summary_search(pkg, pkg.bridging_search(lam, om, IDENTITY)),
            _check_search(pkg, lam, om, IDENTITY, blocks=blocks),
        ))
        ops.append(Op(
            f"pair{index}.sse",
            lambda lam=lam, om=om: _summary_sse(pkg, pkg.sse_search(lam, om, 1, 1)),
            _check_sse(lam_d, om_d, brute=False),
        ))
        flips = pair["family"]
        bp = pkg.BridgingPair(IDENTITY, flips)
        ops.append(Op(
            f"pair{index}.coherence",
            lambda lam=lam, om=om, bp=bp: pkg.coherence_check(lam, om, bp)[0],
            lambda got, lam=lam, om=om, flips=flips: (
                None if got == _coherent(pkg, lam, om, IDENTITY, flips)
                else f"coherence_check says {got}, the rank-3 graph disagrees"),
        ))
    return ops
