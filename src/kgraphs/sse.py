"""The search for strong-shift-equivalence witnesses between two k-graphs.

A witness at degree p is a pair (R, S) of nonnegative integer matrices
with A_p = R*S, B_p = S*R, A_{e_i}R = R B_{e_i} and B_{e_i}S = S A_{e_i}
for every color i, A over the left graph and B over the right one.
sse_search finds the first one within bounds on p and on the entries of
R and S; past lag 0 it walks the integer points of the linear systems
of R and S (_lattice_walk). intertwiner_check checks one R row by row,
each row of A_{e_i}R summed from R's rows at the sources in
KGraph.in_sources and each row of R B_{e_i} pushed by the push kernel
core._push, which the degree walk runs too. The lag-0 search and the
zero-column rule read KGraph.out_sources as well. This module imports
nothing from dimension.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, compress
from typing import NamedTuple

from .core import (
    Degree,
    DimensionMismatch,
    KGraph,
    KGraphError,
    _check_int,
    _check_shape,
    _push,
    matrix_str,
    unit_degree,
    vertex_matrix,
    zero_degree,
)
from .intmat import Matrix, echelon_extend


class SSEWitness(NamedTuple):
    p: Degree
    r: Matrix
    s: Matrix


class ExhaustedBounds(NamedTuple):
    p_max: int
    entry_max: int


# -------------------------------------------------------------- intertwiners

def intertwiner_check(g_left: KGraph, g_right: KGraph, r: Matrix) -> bool:
    """Whether A_{e_i} * r == r * B_{e_i} for every color i, compared row
    by row: row v of the left side sums the nonzero entries of r's rows at
    the sources of v's color-i in-edges (in_sources), and row v of the
    right side is row v of r pushed one color-i step along g_right (the
    push kernel core._push), pushed once per distinct row. No matrix
    product is formed. An entry of r that is not an int (a bool, a float,
    a string) raises KGraphError naming the first one."""
    if g_left.rank != g_right.rank:
        raise DimensionMismatch("graphs have different ranks")
    _check_shape(g_left, g_right, r)
    # the entries checked whole, item by item only to name the first bad
    # one: a bool or a float would compare equal to an int
    for x in chain.from_iterable(r) if not set(map(type, chain.from_iterable(r))) <= {int} else ():
        _check_int("R entry", x)
    d = len(g_right.vertices)
    # the (column, entry) pairs of each row's nonzero entries
    nonzero = [[(c, row[c]) for c in compress(range(d), row)] for row in r]
    for i, by_range in enumerate(g_left.in_sources, 1):
        step, pushed = unit_degree(g_left.rank, i), {}
        for row, entries, srcs in zip(r, nonzero, by_range):
            lhs = [0] * d
            for s in srcs:
                for c, x in nonzero[s]:
                    lhs[c] += x
            rhs = pushed.get(key := tuple(entries))
            if rhs is None:
                rhs = pushed[key] = _push(g_right, row, step)
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------- SSE search

# largest d * d' (the unknowns of R, and of S) sse_search takes past lag 0:
# eliminating R's equations took 0.56 s at 4556 unknowns (an in-split pair
# of 67/68 vertices), 1.0 s at 5250 and 1.9 s at 7140 (shared 2-vCPU VM)
SSE_MAX_UNKNOWNS = 5000


def _intertwining_eqs(g_m: KGraph, g_n: KGraph) -> list[dict[int, int]]:
    """The rows of A_{e_i} X = X B_{e_i} for every color i, X a g_m-by-g_n
    matrix, A over g_m and B over g_n, as sparse rows over the columns of
    _lattice_walk: row (v, w) adds X(s, w) for each color-i edge of g_m
    from s into v (in_sources), and takes off X(v, u) for each color-i
    edge of g_n from w into u (out_sources)."""
    dn = len(g_n.vertices)
    last = len(g_m.vertices) * dn - 1
    rows = []
    for m_srcs, n_outs in zip(g_m.in_sources, g_n.out_sources):
        for v, srcs in enumerate(m_srcs):
            for w, outs in enumerate(n_outs):
                eq: dict[int, int] = {}
                for c, x in [(last - s * dn - w, 1) for s in srcs] + [(last - v * dn - u, -1) for u in outs]:
                    eq[c] = eq.get(c, 0) + x
                rows.append({c: x for c, x in eq.items() if x})
    return rows


def _lattice_walk(basis: dict, n: int, entry_max: int, cut: dict | None = None):
    """Every x in 0..entry_max^n, in lexicographic order, that solves the
    system of which basis is a primitive echelon basis (echelon_extend):
    unknown c at column n - 1 - c and the right-hand side at column n, so
    a row leading at n has no solution and one leading at n - 1 - c fixes
    x_c from the x before it. The walk branches only on the free x_c, each
    through 0..entry_max, which keeps the order. A fixed x_c is worked out
    as soon as the free x it depends on are set, and cuts the branch
    unless it is an integer in 0..entry_max; so does cut[c](x), if there,
    once x_0..x_c are set. The stack of value iterators is explicit."""
    if n in basis:
        return
    fixed = {}
    for lead, row in basis.items():
        terms = [(n - 1 - col, a) for col, a in row.items() if lead < col < n]
        fixed[n - 1 - lead] = (row[lead], row.get(n, 0), terms)
    # steps[i]: the fixed x_c, in order, and the cut[c] due once the first
    # i free x are set; step[c] is that i for a fixed x_c, i + 1 for free[i]
    free, step, steps = [], [0] * n, [([], [])]
    for c in range(n):
        if c in fixed:
            step[c] = max((step[j] for j, _ in fixed[c][2]), default=0)
            steps[step[c]][0].append(c)
        else:
            free.append(c)
            step[c] = len(free)
            steps.append(([], []))
    for c, check in (cut or {}).items():
        steps[bisect_right(free, c)][1].append(check)
    x = [0] * n

    def settle(i: int) -> bool:
        due, checks = steps[i]
        for c in due:
            lead, rhs, terms = fixed[c]
            value, rest = divmod(rhs - sum(a * x[j] for j, a in terms), lead)
            if rest or not 0 <= value <= entry_max:
                return False
            x[c] = value
        return all(check(x) for check in checks)

    # level 0 settles what no free x decides; level i sets free[i - 1]
    values = range(entry_max + 1)
    its = [iter((0,))] + [None] * len(free)
    i = 0
    while i >= 0:
        value = next(its[i], None)
        if value is None:
            i -= 1
            continue
        if i:
            x[free[i - 1]] = value
        if not settle(i):
            continue
        if i == len(free):
            yield x[:]
        else:
            i += 1
            its[i] = iter(values)


def _largest(m: Matrix) -> int:
    # the largest entry of m, 0 if it has none
    return max(map(max, m), default=0)


def _degrees(graphs: tuple, caps: tuple, p_max: int, walked: list[bool]):
    """(p, A_p, B_p) for p != 0 in (0..p_max)^k in lexicographic order,
    with coordinate j held at 0 unless walked[j], each matrix pushed one
    step from the one before it in its coordinate j. A p whose matrix has
    an entry over its cap is skipped; if that graph has no sources,
    A_{p+q} = A_p A_q, A_q with no zero row, has as large an entry, so the
    rest of coordinate j is skipped too.

    Coordinate j's loop also stops once (A_p, B_p) repeats a state met
    earlier in it: each step is a function of the state, so every later
    step and sub-walk repeats matrices already yielded, earlier in
    lexicographic order. (The one pair not yielded, (I, I) at p = 0, has
    no witness past lag 0; sse_search settles it there.) Only the state
    at the last power-of-two step is kept and compared (Brent's cycle
    detection), so a walk whose entries grow holds one saved state."""
    no_sources = [all(map(all, g.in_sources)) for g in graphs]

    def walk(p: tuple, mats: list):
        j, k = len(p), graphs[0].rank
        unit = unit_degree(k, j + 1)
        saved, mark = mats, 1
        for q in range(p_max + 1 if walked[j] else 1):
            if q:
                mats = [[_push(g, y, unit) for y in m] for m, g in zip(mats, graphs)]
                if mats == saved:
                    return
                if q == mark:
                    saved, mark = mats, 2 * mark
            over = [_largest(m) > cap for m, cap in zip(mats, caps)]
            if any(o and n for o, n in zip(over, no_sources)):
                return
            if j + 1 < k:
                yield from walk((*p, q), mats)
            elif not any(over) and (q or any(p)):
                yield (*p, q), *mats

    yield from walk((), [vertex_matrix(g, zero_degree(g.rank)) for g in graphs])


def _is_permutation(srcs: tuple) -> bool:
    # the one-step matrix whose row v lists the sources of the edges into
    # v: one edge into every vertex, from distinct sources
    return all(len(s) == 1 for s in srcs) and len(set(srcs)) == len(srcs)


def _permutation_intertwiner(g_left: KGraph, g_right: KGraph) -> list[int] | None:
    """The first sigma, rows t in vertex order and each row's columns
    from the last index down, with A_i(v, u) = B_i(sigma v, sigma u) for
    all vertices v, u of the d of each graph and every color i, as the
    list of sigma t; or None.

    Placing t at w checks only the entries between t and the rows already
    placed, t included: per color, t's in-edge sources (in_sources, the
    row multiplicities) and out-edge ranges (out_sources, the column
    multiplicities) that are placed must map by sigma onto the placed
    ones of w, with multiplicity. Each placed neighbour u of t limits t
    to the neighbours of sigma u in the same color and direction; a row
    with none tries every column. Both rules drop only columns that no
    completion can use, so the first sigma is unchanged (Ullmann, J. ACM
    23, 1976). The stack of column iterators is explicit."""
    d = len(g_left.vertices)
    # per color and direction: t's neighbours in g_left, w's in g_right,
    # and those of a placed image in g_right the other way
    sides = []
    for a_in, b_in, a_out, b_out in zip(
        g_left.in_sources, g_right.in_sources, g_left.out_sources, g_right.out_sources
    ):
        sides += [(a_in, b_in, b_out), (a_out, b_out, b_in)]
    # sigma[t] or -1; own[t] = t once t is placed and preimage[w] =
    # sigma^-1 w, else -1, so a neighbour list mapped through them names
    # its placed members by their g_left index
    sigma, own, preimage = [-1] * d, [-1] * d, [-1] * d
    own_of, preimage_of = own.__getitem__, preimage.__getitem__
    everything = range(d - 1, -1, -1)

    def columns(t: int):
        found = None
        for a, _, back in sides:
            for u in a[t]:
                if u != t and sigma[u] >= 0:
                    found = set(back[sigma[u]]) if found is None else found.intersection(back[sigma[u]])
        return everything if found is None else sorted(found, reverse=True)

    def fits(t: int, w: int) -> bool:
        # t placed at w, then every color and direction compared
        sigma[t], own[t], preimage[w] = w, t, t
        for a, b, _ in sides:
            at, bw = a[t], b[w]
            if len(at) != len(bw) or sorted(map(own_of, at)) != sorted(map(preimage_of, bw)):
                sigma[t] = own[t] = preimage[w] = -1
                return False
        return True

    if d == 0:
        return []
    its = [iter(columns(0))] + [None] * (d - 1)
    t = 0
    while t >= 0:
        if sigma[t] >= 0:
            preimage[sigma[t]] = sigma[t] = own[t] = -1
        for w in its[t]:
            if preimage[w] < 0 and fits(t, w):
                break
        else:
            t -= 1
            continue
        if t + 1 == d:
            return sigma
        t += 1
        its[t] = iter(columns(t))
    return None


def sse_search(
    g_left: KGraph, g_right: KGraph, p_max: int, entry_max: int
) -> SSEWitness | ExhaustedBounds:
    """First (p, R, S) in lexicographic order with A_p = R*S, B_p = S*R,
    A_{e_i}R = R B_{e_i} and B_{e_i}S = S A_{e_i} for all i, all entries of
    R and S in 0..entry_max and p <= p_max componentwise.

    p runs through (0..p_max)^k in lexicographic order; for each p, R and
    then S run through their matrices in row-major lexicographic order.
    Every rule below skips only what no witness can use, so the result is
    the one a full enumeration gives.

    Lag 0 comes first. Over the nonnegative integers R S = I and S R = I
    force d = d' (the vertex counts), R a permutation matrix and S = R^T,
    whose intertwining follows from that of R. So the witness at p = 0 is
    the first permutation intertwiner in the order of the full search,
    which _permutation_intertwiner finds one row at a time, each checked
    against the rows already placed, with no matrix built; no other R has
    an S at p = 0.

    A color i in which both one-step matrices are permutations P and Q
    (one edge into every vertex, from distinct sources) keeps p_i = 0:
    P R = R Q, so a witness (R, S) at p gives (R, S P) at p + e_i and
    (R, S P^T) at p - e_i, with the same entries, and the first witness
    has p_i = 0. When every color is such, nothing is left after lag 0.

    Past lag 0, the R are the points of A_{e_i}R = R B_{e_i} and the S for
    one (p, R) those of B_{e_i}S = S A_{e_i}, R S = A_p and S R = B_p, in
    0..entry_max. Both intertwining systems are put in echelon form once,
    and each (p, R) adds its R S and S R rows to S's. The intertwining R
    do not depend on p: they are enumerated once, lazily, and replayed at
    every later p. When every vertex of g_left receives an edge of every
    color no A_p has a zero row, so neither has R; when every vertex of
    g_right emits one no B_p has a zero column, so neither has R. An entry
    of R S is at most d' * entry_max^2 and one of S R at most
    d * entry_max^2, so _degrees skips the p whose A_p or B_p has a larger
    one, and stops a coordinate's walk once (A_p, B_p) repeats. When every
    vertex of both graphs receives an edge of every color, neither R nor
    S has a zero row, so R S = A_p bounds each entry of R by the largest
    entry of A_p, and S R = B_p each entry of S by the largest of B_p:
    the degrees are then listed first, R is walked only up to the largest
    entry of any of their A_p, and S at p only up to that of B_p. The walk
    is exponential in the free entries, each through all of its range, so
    a large bound with no witness near 0 does not finish. Over
    SSE_MAX_UNKNOWNS unknowns (d * d') the first degree raises KGraphError
    instead."""
    if g_left.rank != g_right.rank:
        raise DimensionMismatch("graphs have different ranks")
    _check_int("p_max", p_max)
    _check_int("entry_max", entry_max)
    if p_max < 0 or entry_max < 0:
        raise KGraphError("bounds must be >= 0")
    dl, dr = len(g_left.vertices), len(g_right.vertices)
    # a permutation matrix needs entry_max >= 1, unless it is 0 x 0
    if dl == dr and (entry_max or not dl):
        sigma = _permutation_intertwiner(g_left, g_right)
        if sigma is not None:
            r, s = [[0] * dl for _ in sigma], [[0] * dl for _ in sigma]
            for t, w in enumerate(sigma):
                r[t][w] = s[w][t] = 1
            return SSEWitness((0,) * g_left.rank, r, s)
    walked = [
        not (_is_permutation(a) and _is_permutation(b))
        for a, b in zip(g_left.in_sources, g_right.in_sources)
    ]
    if not any(walked):
        return ExhaustedBounds(p_max, entry_max)

    # whether R may have a zero row, a zero column (see above)
    zero_rows = not all(map(all, g_left.in_sources))
    zero_cols = not all(map(all, g_right.out_sources))
    # whether R S = A_p and S R = B_p bound the entries of R and S (see above)
    bounded = not zero_rows and all(map(all, g_right.in_sources))
    caps = (dr * entry_max**2, dl * entry_max**2)
    degrees = _degrees((g_left, g_right), caps, p_max, walked)
    r_max = entry_max
    if bounded:
        degrees = list(degrees)
        r_max = min(entry_max, max((_largest(a_p) for _, a_p, _ in degrees), default=0))
    n = dl * dr
    s_basis: dict = {}

    def fresh():
        # the intertwining R in order, each with the left sides of R S =
        # A_p and S R = B_p over S's unknowns, row by row; runs from the
        # first degree on, so a search with no degree sets up nothing
        if n > SSE_MAX_UNKNOWNS:
            raise KGraphError(f"{dl} x {dr} = {n} unknowns in R and in S, over the cap of {SSE_MAX_UNKNOWNS}")
        s_basis.update(echelon_extend({}, _intertwining_eqs(g_right, g_left)))
        # a zero row of R is cut as soon as it is set (at once if d' = 0)
        ends = [] if zero_rows else range(dl)
        cut = {(v + 1) * dr - 1: lambda x, v=v: any(x[v * dr : (v + 1) * dr]) for v in ends}
        for x in _lattice_walk(echelon_extend({}, _intertwining_eqs(g_left, g_right)), n, r_max, cut):
            r = [x[v * dr : (v + 1) * dr] for v in range(dl)]
            cols = list(zip(*r))
            if not (zero_cols or all(map(any, cols))):
                continue
            eqs = [{n - 1 - t * dl - u: y for t, y in enumerate(row) if y} for row in r for u in range(dl)]
            eqs += [{n - 1 - t * dl - u: y for u, y in enumerate(c) if y} for t in range(dr) for c in cols]
            yield r, eqs

    rest, seen = fresh(), []

    def intertwiners():
        # the R met so far with their equations, then the rest
        yield from seen
        for item in rest:
            seen.append(item)
            yield item

    for p, a_p, b_p in degrees:
        rhs = [x for row in a_p + b_p for x in row]
        s_max = min(entry_max, _largest(b_p)) if bounded else entry_max
        for r, eqs in intertwiners():
            rows = [eq | {n: b} if b else eq for eq, b in zip(eqs, rhs)]
            s = next(_lattice_walk(echelon_extend(s_basis, rows), n, s_max), None)
            if s is not None:
                return SSEWitness(p, r, [s[t * dl : (t + 1) * dl] for t in range(dr)])
    return ExhaustedBounds(p_max, entry_max)


def sse_search_doc(found: SSEWitness | ExhaustedBounds) -> tuple[dict, str]:
    """What `kgraph sse-search` reports of an sse_search result, as a JSON
    document and as text."""
    if isinstance(found, ExhaustedBounds):
        doc = {"found": False, "p_max": found.p_max, "entry_max": found.entry_max}
        return doc, f"exhausted (p_max={found.p_max}, entry_max={found.entry_max})"
    doc = {"found": True, "p": list(found.p), "r": found.r, "s": found.s}
    text = "\n".join(
        ["p: " + ",".join(map(str, found.p)), "R: " + matrix_str(found.r), "S: " + matrix_str(found.s)]
    )
    return doc, text
