"""Reference answers computed without the package under test.

Matrices come from the edge lists of ``gen.GraphData`` and elements of the
graded group are pushed one edge at a time, so none of this shares code
with the package's dense matrix powers or its Smith normal form. The
closed forms used (the tensor formula for products, eventual rank) are
stated where they are used.
"""

from __future__ import annotations

from math import factorial, gcd, prod

from gen import GraphData


def one_step(g: GraphData) -> list[list[list[int]]]:
    """A_{e_i}[r][c] = number of color-i edges with range r and source c."""
    idx = {v: t for t, v in enumerate(g.vertices)}
    d = len(g.vertices)
    mats = [[[0] * d for _ in range(d)] for _ in range(g.rank)]
    for _, color, src, rng in g.edges:
        mats[color - 1][idx[rng]][idx[src]] += 1
    return mats


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


class Pusher:
    """x -> x.A_m by pushing along one-step edge lists: y[s(e)] += x[r(e)]."""

    def __init__(self, g: GraphData):
        self.d = len(g.vertices)
        self.rank = g.rank
        idx = {v: t for t, v in enumerate(g.vertices)}
        self.steps = [[] for _ in range(g.rank)]
        for _, color, src, rng in g.edges:
            self.steps[color - 1].append((idx[rng], idx[src]))

    def push(self, x, m) -> list[int]:
        x = list(x)
        for color, times in enumerate(m):
            for _ in range(times):
                if not any(x):
                    return x
                y = [0] * self.d
                for r, s in self.steps[color]:
                    y[s] += x[r]
                x = y
        return x

    def equal(self, a, b) -> bool:
        """[x, n] = [y, m] iff the difference at the join dies under P^d,
        P the product of the one-step matrices (the kernel chain of P
        stabilizes within d steps)."""
        (x, n), (y, m) = a, b
        p = tuple(max(s, t) for s, t in zip(n, m))
        z = [
            s - t
            for s, t in zip(
                self.push(x, [c - s for c, s in zip(p, n)]),
                self.push(y, [c - t for c, t in zip(p, m)]),
            )
        ]
        return not any(self.push(z, (self.d,) * self.rank))

    def positivity(self, a, q_max: int) -> str:
        """The answer on a graph without sources: every vertex receives
        every color, so a nonzero nonnegative vector stays nonzero under
        pushing and a nonpositive nonzero one is a nonzero element."""
        x, n = a
        corner = [max(q_max, c) for c in n]
        pushed = self.push(x, [c - s for c, s in zip(corner, n)])
        if all(t >= 0 for t in pushed):
            return "positive"
        if all(t <= 0 for t in pushed):
            return "not_positive"
        return "unknown"


# ------------------------------------------------------------ abelian groups

def _diagonalize(rows: list[list[int]]) -> list[int]:
    """Nonzero entries of some diagonal form of an integer matrix under
    unimodular row and column operations (divisibility not enforced)."""
    m = [list(r) for r in rows if any(r)]
    out = []
    while m:
        # pivot: an entry of least absolute value
        pi, pj = min(
            ((i, j) for i, row in enumerate(m) for j, v in enumerate(row) if v),
            key=lambda ij: abs(m[ij[0]][ij[1]]),
        )
        p = m[pi][pj]
        clean = True
        for i, row in enumerate(m):
            if i != pi and row[pj]:
                q = row[pj] // p
                m[i] = [a - q * b for a, b in zip(row, m[pi])]
                clean = clean and m[i][pj] == 0
        for j in range(len(m[pi])):
            if j != pj and m[pi][j]:
                q = m[pi][j] // p
                for row in m:
                    row[j] -= q * row[pj]
                clean = clean and m[pi][j] == 0
        if clean:
            out.append(abs(p))
            del m[pi]
            for row in m:
                del row[pj]
        m = [r for r in m if any(r)]
    return out


def invariant_factors(diagonal: list[int]) -> list[int]:
    """Z/a + Z/b = Z/gcd + Z/lcm, applied until each divides the next."""
    ds = sorted(diagonal)
    done = False
    while not done:
        done = True
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i]:
                    g = gcd(ds[i], ds[j])
                    ds[i], ds[j] = g, ds[i] * ds[j] // g
                    done = False
        ds.sort()
    return ds


def group(d: int, relations: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) of Z^d modulo the row span of `relations`."""
    diag = _diagonalize(relations)
    return d - len(diag), tuple(t for t in invariant_factors(diag) if t > 1)


def h0(g: GraphData) -> tuple[int, tuple[int, ...]]:
    """coker(1 - A_1^t, ..., 1 - A_k^t) for a row-finite graph without
    sources (Farsi-Kumjian-Pask-Sims 2019): the relations are
    eps_v - sum_w A_i(v, w) eps_w."""
    d = len(g.vertices)
    rows = []
    for a in one_step(g):
        rows += [[(r == c) - a[r][c] for c in range(d)] for r in range(d)]
    return group(d, rows)


def matrix_1graph(n: int, edges) -> list[list[int]]:
    """A[r][s] = number of edges from s to r of a 1-graph given as
    (id, src, rng) with integer vertices."""
    a = [[0] * n for _ in range(n)]
    for _, s, r in edges:
        a[r][s] += 1
    return a


def h0_1graph(n: int, edges) -> tuple[int, tuple[int, ...]]:
    a = matrix_1graph(n, edges)
    return group(n, [[(r == c) - a[r][c] for c in range(n)] for r in range(n)])


def tensor(g1, g2) -> tuple[int, tuple[int, ...]]:
    """(Z^a + sum Z/s) (x) (Z^b + sum Z/t): right exactness of the tensor
    product gives h0 of a product graph as the tensor of the factors'."""
    (a, s), (b, t) = g1, g2
    parts = [0] * (a * b) + list(s) * b + list(t) * a + [gcd(x, y) for x in s for y in t]
    free = parts.count(0)
    torsion = invariant_factors([x for x in parts if x])
    return free, tuple(x for x in torsion if x > 1)


def eventual_rank(p: list[list[int]]) -> int:
    """rank over Q of P^m for all large m: apply P to a basis of the row
    space until the rank stops falling."""
    basis = _echelon([row[:] for row in p])
    while True:
        nxt = _echelon(mat_mul(basis, p)) if basis else []
        if len(nxt) == len(basis):
            return len(basis)
        basis = nxt


def _echelon(rows: list[list[int]]) -> list[list[int]]:
    """An integer basis of the row space (fraction-free, rows kept primitive)."""
    rows = [r for r in rows if any(r)]
    out = []
    while rows:
        piv = rows.pop()
        col = next(j for j, v in enumerate(piv) if v)
        out.append(piv)
        nxt = []
        for r in rows:
            if r[col]:
                r = [piv[col] * a - r[col] * b for a, b in zip(r, piv)]
            if any(r):
                g = gcd(*r)
                nxt.append([v // g for v in r])
        rows = nxt
    return out


def total_families(blocks: list[int]) -> int:
    """Flip families over blocks of these sizes: a bijection per block."""
    return prod(factorial(size) for size in blocks)
