"""The search for strong-shift-equivalence witnesses between two k-graphs.

A witness at degree p is a pair (R, S) of nonnegative integer matrices
with A_p = R*S, B_p = S*R, A_{e_i}R = R B_{e_i} and B_{e_i}S = S A_{e_i}
for every color i, A over the left graph and B over the right one.
sse_search finds the first one within bounds on p and on the entries of
R and S. intertwiner_check checks the intertwining equations of one R on
the row kernel (_intertwining_rows) that the search runs past lag 0.
That kernel reads the in-edge index KGraph.in_sources, the lag-0 search
reads KGraph.out_sources too, and the degree walk runs the push kernel
core._push. The graded dimension group itself is in dimension, and this
module imports nothing from it.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .core import (
    Degree,
    DimensionMismatch,
    KGraph,
    KGraphError,
    _check_shape,
    _push,
    matrix_str,
    unit_degree,
    vertex_matrix,
    zero_degree,
)

if TYPE_CHECKING:
    from .intmat import Matrix


class SSEWitness(NamedTuple):
    p: Degree
    r: Matrix
    s: Matrix


class ExhaustedBounds(NamedTuple):
    p_max: int
    entry_max: int


# -------------------------------------------------------------- intertwiners

def _intertwining_rows(g_m: KGraph, g_n: KGraph):
    """accept(rows, t) for a row search of X, a g_m-by-g_n matrix, under
    A_{e_i} X = X B_{e_i} for every color i, A over g_m and B over g_n:
    it checks the equation rows that row t of X completes. Row v of the
    equation reads row v of X and the rows s with A_{e_i}(v, s) != 0, and
    t is the last of them. Its left side adds row s of X for each color-i
    edge of g_m from s into v; its right side, row v times B_{e_i}, adds
    each entry of row v, at column w, at the source of every color-i edge
    of g_n into w. Both source lists are read off the graphs' in_sources.
    Only nonzero entries are read, listed once per distinct row, and row v
    times B_{e_i} is kept per distinct row too. Calling accept for every t
    checks the whole equation (intertwiner_check)."""
    zero = [0] * len(g_n.vertices)
    watch: list[list] = [[] for _ in g_m.vertices]
    for m_srcs, n_srcs in zip(g_m.in_sources, g_n.in_sources):
        times_b: dict[tuple[int, ...], list[int]] = {}
        for v, srcs in enumerate(m_srcs):
            watch[max((v, *srcs))].append((v, srcs, n_srcs, times_b))

    nonzero: dict[tuple[int, ...], list[tuple[int, int]]] = {}

    def entries(row: tuple[int, ...]) -> list[tuple[int, int]]:
        # the (column, entry) pairs of row's nonzero entries
        found = nonzero.get(row)
        if found is None:
            found = nonzero[row] = [(c, x) for c, x in enumerate(row) if x]
        return found

    def accept(rows: list, t: int) -> bool:
        for v, srcs, n_srcs, times_b in watch[t]:
            rhs = times_b.get(rows[v])
            if rhs is None:
                rhs = times_b[rows[v]] = zero[:]
                for w, x in entries(rows[v]):
                    for s in n_srcs[w]:
                        rhs[s] += x
            lhs = zero[:]
            for s in srcs:
                for c, x in entries(rows[s]):
                    lhs[c] += x
            if lhs != rhs:
                return False
        return True

    return accept


def intertwiner_check(g_left: KGraph, g_right: KGraph, r: Matrix) -> bool:
    """Whether A_{e_i} * r == r * B_{e_i} for every color: one full pass of
    the row kernel of sse_search (_intertwining_rows) over the rows of r."""
    if g_left.rank != g_right.rank:
        raise DimensionMismatch("graphs have different ranks")
    _check_shape(g_left, g_right, r)
    accept = _intertwining_rows(g_left, g_right)
    rows = list(map(tuple, r))
    return all(accept(rows, t) for t in range(len(rows)))


# ---------------------------------------------------------------- SSE search

def _row_search(n: int, options, accept):
    """Every n-row matrix whose row t is drawn from options(t) and passes
    accept(rows, t), as a list of rows, in lexicographic order of the rows.
    accept sees rows 0..t set, and a prefix it rejects is not extended.
    The stack of row iterators is explicit, so there is no recursion."""
    if n == 0:
        yield []
        return
    rows: list = [None] * n
    its: list = [iter(options(0))] + [None] * (n - 1)
    t = 0
    while t >= 0:
        rows[t] = next(its[t], None)
        if rows[t] is None:
            t -= 1
        elif accept(rows, t):
            if t + 1 == n:
                yield rows[:]
            else:
                t += 1
                its[t] = iter(options(t))


# largest size in bytes of a table of candidate rows that sse_search
# builds past lag 0: all (entry_max + 1)^d rows of R (d = d') or of one S
# (d the left vertex count), each a tuple of d ints, 48 + 8 d bytes with
# its list slot on 64-bit CPython. A table over it cannot be built under a
# 2 GB address-space limit (ulimit -v 2000000); the search answered up to
# it there, ex3.5-Lambda against -LambdaI at entry_max 63 (2^24 rows of 4,
# 1.6 GB peak) and a 23-vertex star against rose(1) at entry_max 1 (an S
# table of 2^23 rows of 23, 1.9 GB)
SSE_MAX_TABLE_BYTES = 2**31


def _check_table(d: int, entry_max: int, name: str) -> None:
    # the (entry_max + 1)^d candidate rows of R or S against the cap,
    # multiplied up one factor at a time, before they are built
    rows = 1
    for _ in range(d):
        rows *= entry_max + 1
        if rows * (48 + 8 * d) > SSE_MAX_TABLE_BYTES:
            raise KGraphError(
                f"{entry_max + 1}^{d} candidate rows of {name}, over the cap of {SSE_MAX_TABLE_BYTES} bytes"
            )


def _s_tables(r: list, dr: int, entry_max: int) -> tuple:
    """What _first_s reads of R, built once per R: the rows of R that are
    zero, the equation rows of R S grouped by the row of S that completes
    them (row v reads the rows of S at the nonzero columns of row v of R,
    and is checked when the last of them is set), and every row x with
    entries in 0..entry_max keyed by x R."""
    _check_table(len(r), entry_max, "S")
    zero_rows: list[int] = []
    rs_eqs: list[list[tuple[int, list[tuple[int, int]]]]] = [[] for _ in range(dr)]
    for v, row in enumerate(r):
        terms = [(t, c) for t, c in enumerate(row) if c]
        if terms:
            rs_eqs[terms[-1][0]].append((v, terms))
        else:
            zero_rows.append(v)
    by_image: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for x in product(range(entry_max + 1), repeat=len(r)):
        image = [0] * dr
        for c, row in zip(x, r):
            if c:
                image = [a + c * b for a, b in zip(image, row)]
        by_image.setdefault(tuple(image), []).append(x)
    return zero_rows, rs_eqs, by_image


def _first_s(tables: tuple, a_p: Matrix, b_p: Matrix, s_accept) -> Matrix | None:
    """The first S in row-major lexicographic order with S R = B_p,
    R S = A_p and B_{e_i} S = S A_{e_i} for all i, or None; tables are
    R's _s_tables."""
    zero_rows, rs_eqs, by_image = tables
    if any(any(a_p[v]) for v in zero_rows):
        return None
    # row t of S R is (row t of S) R, so row t of S is drawn from the rows
    # x with x R = row t of B_p
    options = [by_image.get(tuple(row), []) for row in b_p]
    if not all(options):
        return None
    dl = len(a_p)

    def holds(rows: list, t: int) -> bool:
        for v, terms in rs_eqs[t]:
            acc = [0] * dl
            for u, c in terms:
                acc = [a + c * b for a, b in zip(acc, rows[u])]
            if acc != a_p[v]:
                return False
        return s_accept(rows, t)

    s = next(_row_search(len(b_p), options.__getitem__, holds), None)
    return None if s is None else [list(row) for row in s]


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
            over = [max(map(max, m), default=0) > cap for m, cap in zip(mats, caps)]
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
    then S run through their matrices in row-major lexicographic order, one
    row at a time. Every rule below skips only what no witness can use, so
    the result is the one a full enumeration gives.

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

    Past lag 0, row v of A_{e_i}R - R B_{e_i} reads only row v and the rows
    w with A_{e_i}(v, w) != 0, and is checked as soon as the last of them
    is set; so are row t of B_{e_i}S - S A_{e_i} and row v of R S - A_p.
    Each row t of S is drawn from the rows x with x R = row t of B_p. A
    prefix is rejected only when an equation row it fully determines
    fails. The intertwining R do not depend on p: they are enumerated once,
    lazily, and replayed with their _s_tables at every later p. When every
    vertex of g_left receives an edge of every color no A_p has a zero
    row, so neither has R; when every vertex of g_right emits one no B_p
    has a zero column, so neither has R. An entry of R S is at most
    d' * entry_max^2 and one of S R at most d * entry_max^2, so _degrees
    skips the p whose A_p or B_p has a larger one, and stops a
    coordinate's walk once (A_p, B_p) repeats. No matrix product is
    formed. The search stays exponential in entry_max and d * d'. The
    candidate rows of R are built when the first degree needs them, and
    those of S with each R; a table that would take more than
    SSE_MAX_TABLE_BYTES raises KGraphError instead."""
    if g_left.rank != g_right.rank:
        raise DimensionMismatch("graphs have different ranks")
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
    zero_cols = any(len(set().union(*srcs)) < dr for srcs in g_right.in_sources)
    r_accept = _intertwining_rows(g_left, g_right)
    s_accept = _intertwining_rows(g_right, g_left)

    def fresh():
        # the intertwining R in order, each with its S tables; runs from
        # the first degree on, so a search with no degree builds nothing
        _check_table(dr, entry_max, "R")
        r_rows = [x for x in product(range(entry_max + 1), repeat=dr) if zero_rows or any(x)]
        for r in _row_search(dl, lambda t: r_rows, r_accept):
            if zero_cols or all(map(any, zip(*r))):
                yield r, _s_tables(r, dr, entry_max)

    rest = fresh()
    seen: list[tuple[list, tuple]] = []

    def intertwiners():
        # the R met so far with their S tables, then the rest of the
        # enumeration
        yield from seen
        for item in rest:
            seen.append(item)
            yield item

    caps = (dr * entry_max**2, dl * entry_max**2)
    for p, a_p, b_p in _degrees((g_left, g_right), caps, p_max, walked):
        for r, tables in intertwiners():
            s = _first_s(tables, a_p, b_p, s_accept)
            if s is not None:
                return SSEWitness(p, [list(row) for row in r], s)
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
