"""Exact integer matrices: the Smith normal form, primitive echelon
bases of row spaces and the cokernel of a sparse integer matrix.

Matrices are lists of rows of Python ints, so every operation is
arbitrary precision. The Smith normal form runs one elimination on the
matrix bordered with identities, so its transforms come out of the same
row and column operations as its diagonal. Nothing here knows about
graphs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import gcd
from typing import Iterable

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (d, u, v) with u*a*v == d, u and v unimodular, d diagonal
    and nonnegative with each diagonal entry dividing the next.

    Pivots are chosen as the smallest nonzero |entry| of the remaining
    submatrix. The elimination runs once, on a bordered with identities,
    [[a, I_rows], [I_cols]]: the pivot, remainder and divisibility tests
    read only the top-left rows x cols block, but every row operation acts
    on the whole row and every column operation on the whole column, so
    the right border ends up as u and the bottom border as v.
    """
    rows, cols = len(a), len(a[0]) if a else 0
    m = [row + e for row, e in zip(a, identity(rows))] + identity(cols)
    for t in range(min(rows, cols)):
        while True:
            # Smallest nonzero |entry| of m[t:rows, t:cols] becomes the pivot.
            pivot = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    val = abs(m[i][j])
                    if val != 0 and (best is None or val < best):
                        best = val
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                m[t], m[pi] = m[pi], m[t]
            if pj != t:
                for row in m:
                    row[t], row[pj] = row[pj], row[t]
            top = m[t]
            p = top[t]
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // p
                    m[i] = [x - q * y for x, y in zip(m[i], top)]
                    if m[i][t] != 0:
                        dirty = True  # remainder smaller than |p| survives
            for j in range(t + 1, cols):
                if top[j] != 0:
                    q = top[j] // p
                    for row in m:
                        row[j] -= q * row[t]
                    if top[j] != 0:
                        dirty = True
            if dirty:
                continue
            # Row and column t are clear; force p to divide the rest so the
            # diagonal comes out as a divisibility chain.
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            m[t] = [x + y for x, y in zip(top, m[bad])]
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
    return [row[:cols] for row in m[:rows]], [row[cols:] for row in m[:rows]], m[rows:]


def snf_diagonal(a: Matrix) -> list[int]:
    d, _, _ = smith_normal_form(a)
    return [row[i] for i, row in enumerate(d) if i < len(row)]


def rank(a: Matrix) -> int:
    # Exact rank: the number of nonzero Smith diagonal entries.
    return sum(1 for x in snf_diagonal(a) if x != 0)


def primitive_echelon(rows: Iterable[list[int]]) -> Matrix:
    """A basis of the span of `rows` over Q in echelon form, each row
    primitive: its entries have gcd 1 and its leading entry is positive.
    The dense form of echelon_extend from an empty basis."""
    rows = list(rows)
    width = len(rows[-1]) if rows else 0
    dense_basis = []
    for _, row in sorted(echelon_extend({}, ({c: s for c, s in enumerate(d) if s} for d in rows)).items()):
        dense_basis.append([0] * width)
        for c, s in row.items():
            dense_basis[-1][c] = s
    return dense_basis


def echelon_extend(
    basis: dict[int, dict[int, int]], rows: Iterable[dict[int, int]]
) -> dict[int, dict[int, int]]:
    """A primitive echelon basis of the span of basis and rows, as
    {leading column: row}, every row sparse ({column: nonzero entry});
    basis is such a basis already, and neither it nor rows change.

    Fraction-free: while a row's leading column is the leading column of a
    basis row b, the row becomes p * row - x * b, where p and x are b's and
    the row's leading entries divided by their gcd, which clears that
    column. A row that is left nonzero is divided by the gcd of its
    entries, negated if its leading entry is negative, and joins the
    basis. Rows are taken sparsest first, which keeps the fill-in down.
    """
    basis = dict(basis)
    for row in sorted(rows, key=len):
        row = dict(row)
        while row and (lead := min(row)) in basis:
            b = basis[lead]
            p, x = b[lead], row[lead]
            g = gcd(p, x)
            p, x = p // g, x // g
            if p != 1:
                row = {c: p * s for c, s in row.items()}
            for c, t in b.items():
                s = row.get(c, 0) - x * t
                if s:
                    row[c] = s
                else:
                    del row[c]
        if row:
            g = gcd(*row.values())
            if row[min(row)] < 0:
                g = -g
            basis[min(row)] = {c: s // g for c, s in row.items()}
    return basis


def cokernel_invariants(rows: list[dict[int, int]], cols: int) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) of Z^cols modulo the span of `rows`, each a
    sparse row {column: entry}; the torsion coefficients are > 1 and each
    divides the next.

    While some entry is +-1, its column is cleared from the other rows by
    unimodular row operations, and then that row and column are dropped:
    the row expresses the column's generator in the others, so the
    cokernel is unchanged (Havas, Holt and Rees 1993, "Recognizing badly
    presented Z-modules"). The pivot is the unit entry of least fill, the
    smallest (row nonzeros - 1) * (column nonzeros - 1) (Markowitz 1957),
    ties broken by column and then row. Each row's cheapest unit entry
    sits in a heap, and after a pivot only the rows whose cost it can
    change are costed again: those that held its column, and those that
    use a column of its row. A popped entry that is no longer its row's
    cheapest is skipped, so the pivots are the least-fill ones a scan of
    every live row would pick, in the same order. What is left has no
    unit entry, and its Smith diagonal gives the rest.
    """
    live: dict[int, dict[int, int]] = {}  # row id -> {column: nonzero entry}
    where: dict[int, set[int]] = {}  # column -> ids of the rows that use it
    for i, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        if row:
            live[i] = row
            for c in row:
                where.setdefault(c, set()).add(i)

    cheapest: dict[int, tuple[int, int, int]] = {}  # row id -> its best unit entry
    heap: list[tuple[int, int, int]] = []

    def recost(ids) -> None:
        # the (cost, column, row id) of each row's cheapest unit entry, kept
        # and pushed when it has changed; a row no longer live has none
        for i in ids:
            row = live.get(i, {})
            n = len(row) - 1
            units = [(n * (len(where[c]) - 1), c, i) for c, v in row.items() if v == 1 or v == -1]
            found = min(units, default=None)
            if found is None:
                cheapest.pop(i, None)
            elif found != cheapest.get(i):
                cheapest[i] = found
                heappush(heap, found)

    recost(live)
    pivots = 0
    while heap:
        found = heappop(heap)
        _, j, i = found
        if cheapest.get(i) != found:
            continue
        del cheapest[i]
        row = live.pop(i)
        p = row.pop(j)
        for c in row:
            where[c].discard(i)
        held = where.pop(j) - {i}
        for t in held:
            other = live[t]
            # other -= q * (row + p e_j), which clears column j as p * p == 1
            q = other.pop(j) * p
            for c, v in row.items():
                w = other.get(c, 0) - q * v
                if w:
                    if c not in other:
                        where[c].add(t)
                    other[c] = w
                else:
                    del other[c]
                    where[c].discard(t)
            if not other:
                del live[t]
        recost(held.union(*(where[c] for c in row)))
        pivots += 1
    used = sorted({c for row in live.values() for c in row})
    diag = snf_diagonal([[row.get(c, 0) for c in used] for row in live.values()])
    return cols - pivots - sum(1 for t in diag if t), tuple(t for t in diag if t > 1)
