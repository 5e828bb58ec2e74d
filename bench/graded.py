"""Workload `graded`: library sessions on strict product 2-graphs.

Why: almost all time goes to the graded group (`dimension`), the dense
big-integer products behind it (`intmat.mat_mul`, `core.vertex_matrix`)
and the Smith normal form of `rank_invariant`. Queries in a session share
the package's per-graph matrix memo, so the first `dge_eq` on a graph is
slow and the rest are cheap; a change to the memo or the push moves this
workload.

Sizes: a cycle is five sessions, on products of two seeded 1-graphs
(each a cycle plus a random permutation, so every vertex has in- and
out-degree 2 and the entry sizes of the powers do not depend on the seed)
of 4x4, 4x6, 4x8, 5x8 and 6x8 = 16 to 48 vertices. A session builds its
graph with `validate_kgraph`, then asks 40 `dge_eq` (base shifts up to
64, pairs equal by construction or apart by a nonzero nonnegative
element), 8 `positivity` and one `h0`; graphs of at most 24 vertices also
get `rank_invariant` and `h0gr_presentation`. The Smith normal form
behind those takes 0.02 to 1 s at 32 vertices, depending on the seed, and
seconds to minutes at 40 and more, which would make the cost of a run
depend on its seed.

The `dge_eq` queries push by 13 degrees in a fixed order, so the same
matrices are built at the same points of every session: ten queries per
session each pay one dense product. Of the about 254 operations of a
cycle, the slowest tenth are then the cold queries, `h0`, the rank
queries, and the ten product-paying queries on the 48- and the 40-vertex
graphs, so the 90th percentile falls inside one kind of operation
(those on the 40-vertex graph) rather than between two.

The pool holds 8 cycles of graphs; later cycles reuse them with a fresh
`validate_kgraph`, so every session starts with an empty memo.
"""

from __future__ import annotations

import random

import gen
import oracle
from harness import Op

USES_CLI = False
SIZES = ((4, 4), (4, 6), (4, 8), (5, 8), (6, 8))
POOL_CYCLES = 8
EQ_QUERIES = 40
# The package memoizes a matrix per degree, so the degrees a session pushes
# by, and their order, set its cost; both are fixed, and only vectors and
# base shifts vary. Each degree costs one product given the earlier ones.
# Positivity queries push to level 3 by degrees already met.
PUSH_DEGREES = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (3, 0), (0, 3), (3, 1),
                (1, 3), (2, 2))
POSITIVITY_LEVEL = 3
POSITIVITY_SHIFTS = tuple((POSITIVITY_LEVEL - a, POSITIVITY_LEVEL - b) for a, b in PUSH_DEGREES[:8])
RANK_MAX_VERTICES = 24


def _random_vector(rng: random.Random, d: int, terms: int, signs=(-1, 1)) -> list[int]:
    x = [0] * d
    for t in rng.sample(range(d), terms):
        x[t] = rng.choice(signs) * rng.randint(1, 3)
    return x


def _session(rng: random.Random, n1: int, n2: int) -> dict:
    e1 = gen.cycle_plus_permutation(rng, n1)
    e2 = gen.cycle_plus_permutation(rng, n2)
    g = gen.product_2graph(n1, e1, n2, e2)
    d = len(g.vertices)
    pusher = oracle.Pusher(g)
    eq = []
    for q in range(EQ_QUERIES):
        x = _random_vector(rng, d, 3)
        n = (rng.randint(0, 64), rng.randint(0, 64))
        # every session pushes by the same degrees, half of the pairs equal
        m = PUSH_DEGREES[q % len(PUSH_DEGREES)]
        equal = q // len(PUSH_DEGREES) % 2 == 0
        y = pusher.push(x, m)
        if not equal:
            # a nonzero nonnegative element is never zero without sources
            y = [s + t for s, t in zip(y, _random_vector(rng, d, rng.randint(1, 2), signs=(1,)))]
        a, b = (x, n), (y, (n[0] + m[0], n[1] + m[1]))
        if rng.random() < 0.5:
            a, b = b, a
        eq.append((a, b, equal))
    pos = [((_random_vector(rng, d, rng.randint(1, 4)), n), POSITIVITY_LEVEL) for n in POSITIVITY_SHIFTS]
    return {"data": g, "factors": ((n1, e1), (n2, e2)), "pusher": pusher, "eq": eq, "pos": pos}


def setup(pkg, seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    pool = []
    for _ in range(POOL_CYCLES):
        for n1, n2 in SIZES:
            s = _session(rng, n1, n2)
            g = s["data"]
            s["skeleton"] = pkg.Skeleton(
                g.rank, g.vertices, tuple(pkg.Edge(*e) for e in g.edges)
            )
            pkg.validate_kgraph(s["skeleton"], g.squares, g.strict)
            pool.append(s)
    return {"pool": pool}


def _expect(value, got) -> str | None:
    return None if got == value else f"got {got!r}, want {value!r}"


def cycle(pkg, state: dict, c: int) -> list[Op]:
    pool = state["pool"]
    ops = []
    for t in range(len(SIZES)):
        index = (c * len(SIZES) + t) % len(pool)
        ops += _session_ops(pkg, pool[index], f"g{index}")
    return ops


def _session_ops(pkg, s: dict, tag: str) -> list[Op]:
    data = s["data"]
    d = len(data.vertices)
    box = {}

    def load():
        box["g"] = pkg.validate_kgraph(s["skeleton"], data.squares, data.strict)
        return len(box["g"].vertices)

    ops = [Op(f"{tag}.load", load, lambda got: _expect(d, got))]

    for q, (a, b, equal) in enumerate(s["eq"]):
        ea, eb = pkg.dim_element(*a), pkg.dim_element(*b)
        ops.append(Op(
            f"{tag}.eq{q}",
            lambda ea=ea, eb=eb: pkg.dge_eq(box["g"], ea, eb),
            lambda got, equal=equal: _expect(equal, got),
        ))

    for q, (a, q_max) in enumerate(s["pos"]):
        ea = pkg.dim_element(*a)
        ops.append(Op(
            f"{tag}.pos{q}",
            lambda ea=ea, q_max=q_max: pkg.positivity(box["g"], ea, q_max),
            lambda got, a=a, q_max=q_max: _expect(s["pusher"].positivity(a, q_max), got),
        ))

    (n1, e1), (n2, e2) = s["factors"]

    def h0():
        inv = pkg.h0(box["g"])
        return inv.rank, tuple(inv.torsion)

    ops.append(Op(f"{tag}.h0", h0,
                  lambda got: _expect(oracle.tensor(oracle.h0_1graph(n1, e1), oracle.h0_1graph(n2, e2)), got)))

    if d <= RANK_MAX_VERTICES:
        def want_rank() -> int:
            # P = A (x) B for a product, so rank(P^d) = rank(A^d) rank(B^d)
            return (oracle.eventual_rank(oracle.matrix_1graph(n1, e1))
                    * oracle.eventual_rank(oracle.matrix_1graph(n2, e2)))

        ops.append(Op(f"{tag}.rank", lambda: pkg.rank_invariant(box["g"]),
                      lambda got: _expect(want_rank(), got)))

        def h0gr():
            mats, r = pkg.h0gr_presentation(box["g"])
            return tuple(tuple(map(tuple, m)) for m in mats), r

        def check_h0gr(got):
            mats = tuple(tuple(map(tuple, m)) for m in oracle.one_step(data))
            return _expect((mats, want_rank()), got)

        ops.append(Op(f"{tag}.h0gr", h0gr, check_h0gr))
    return ops

