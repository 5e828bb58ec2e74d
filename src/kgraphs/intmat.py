"""Exact integer matrix arithmetic, Smith normal form and the cokernel
of a sparse integer matrix.

Matrices are lists of rows of Python ints, so every operation is
arbitrary precision. Nothing here knows about graphs.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

Matrix = list[list[int]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return a == b


def shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b, strict=True)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b, strict=True)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows_a, cols_a = shape(a)
    rows_b, cols_b = shape(b)
    if cols_a != rows_b:
        raise ValueError(f"cannot multiply {rows_a}x{cols_a} by {rows_b}x{cols_b}")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def vec_mat(x: list[int], a: Matrix) -> list[int]:
    # Row vector times matrix.
    rows, cols = shape(a)
    if len(x) != rows:
        raise ValueError(f"vector length {len(x)} vs {rows} rows")
    return [sum(x[i] * a[i][j] for i in range(rows)) for j in range(cols)]


def vec_add(x: list[int], y: list[int]) -> list[int]:
    if len(x) != len(y):
        raise ValueError("vector length mismatch")
    return [a + b for a, b in zip(x, y)]


def vec_sub(x: list[int], y: list[int]) -> list[int]:
    if len(x) != len(y):
        raise ValueError("vector length mismatch")
    return [a - b for a, b in zip(x, y)]


def vec_scale(c: int, x: list[int]) -> list[int]:
    return [c * a for a in x]


def is_zero_vec(x: list[int]) -> bool:
    return all(a == 0 for a in x)


def is_nonneg_vec(x: list[int]) -> bool:
    return all(a >= 0 for a in x)


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (d, u, v) with u*a*v == d, u and v unimodular, d diagonal
    and nonnegative with each diagonal entry dividing the next.

    Pivots are chosen as the smallest nonzero |entry| of the remaining
    submatrix; every row operation is mirrored on u and every column
    operation on v.
    """
    rows, cols = shape(a)
    d = mat_copy(a)
    u = identity(rows)
    v = identity(cols)

    def row_sub(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def row_add(i: int, j: int) -> None:
        d[i] = [x + y for x, y in zip(d[i], d[j])]
        u[i] = [x + y for x, y in zip(u[i], u[j])]

    def col_sub(i: int, j: int, q: int) -> None:
        # col_i -= q * col_j
        for r in range(rows):
            d[r][i] -= q * d[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    for t in range(min(rows, cols)):
        while True:
            # Smallest nonzero |entry| of d[t:, t:] becomes the pivot.
            pivot = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    val = abs(d[i][j])
                    if val != 0 and (best is None or val < best):
                        best = val
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                d[t], d[pi] = d[pi], d[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for r in range(rows):
                    d[r][t], d[r][pj] = d[r][pj], d[r][t]
                for r in range(cols):
                    v[r][t], v[r][pj] = v[r][pj], v[r][t]
            p = d[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    row_sub(i, t, d[i][t] // p)
                    if d[i][t] != 0:
                        dirty = True  # remainder smaller than |p| survives
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    col_sub(j, t, d[t][j] // p)
                    if d[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # Row and column t are clear; force p to divide the rest so the
            # diagonal comes out as a divisibility chain.
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % p != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad)
        if t < min(rows, cols) and d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    return d, u, v


def snf_diagonal(a: Matrix) -> list[int]:
    rows, cols = shape(a)
    d, _, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(rows, cols))]


def rank(a: Matrix) -> int:
    # Exact rank: the number of nonzero Smith diagonal entries.
    return sum(1 for x in snf_diagonal(a) if x != 0)


def primitive_echelon(rows: Iterable[list[int]]) -> Matrix:
    """A basis of the span of `rows` over Q in echelon form, each row
    primitive: its entries have gcd 1 and its leading entry is positive.

    Fraction-free: while a row's leading column is the leading column of a
    basis row b, the row becomes p * row - x * b, where p and x are b's and
    the row's leading entries divided by their gcd, which clears that
    column. A row that is left nonzero is divided by the gcd of its
    entries and joins the basis. Rows are held sparse, as {column: nonzero
    entry}, and taken sparsest first, which keeps the fill-in down.
    """
    width = 0
    sparse = []
    for dense in rows:
        width = len(dense)
        sparse.append({c: s for c, s in enumerate(dense) if s})
    basis: dict[int, dict[int, int]] = {}  # leading column -> row
    for row in sorted(sparse, key=len):
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
    dense_basis = []
    for lead in sorted(basis):
        row = [0] * width
        for c, s in basis[lead].items():
            row[c] = s
        dense_basis.append(row)
    return dense_basis


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
    found by scanning the live rows. What is left has no unit entry: its
    rows are cut down to a basis of their span, whose Smith diagonal gives
    the rest.
    """
    live: dict[int, dict[int, int]] = {}  # row id -> {column: nonzero entry}
    where: dict[int, set[int]] = {}  # column -> ids of the rows that use it
    for i, row in enumerate(rows):
        row = {c: v for c, v in row.items() if v}
        if row:
            live[i] = row
            for c in row:
                where.setdefault(c, set()).add(i)

    def best(i: int) -> tuple[int, int, int] | None:
        # (cost, column, row id) of the row's cheapest unit entry
        row = live[i]
        n = len(row) - 1
        units = [(n * (len(where[c]) - 1), c, i) for c, v in row.items() if v == 1 or v == -1]
        return min(units) if units else None

    pivots = 0
    while found := min(filter(None, map(best, live)), default=None):
        _, j, i = found
        row = live.pop(i)
        p = row.pop(j)
        for c in row:
            where[c].discard(i)
        for t in where.pop(j) - {i}:
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
        pivots += 1
    used = sorted({c for row in live.values() for c in row})
    basis = _row_basis([[row.get(c, 0) for c in used] for row in live.values()], len(used))
    diag = snf_diagonal(basis) if basis else []
    return cols - pivots - len(basis), tuple(t for t in diag if t > 1)


def _row_basis(rows: Matrix, width: int) -> Matrix:
    """A basis of the span of `rows` (so at most `width` rows), in echelon
    form: for each column in turn, Euclid's algorithm by row operations
    leaves one row nonzero there, which is set aside."""
    basis: Matrix = []
    for c in range(width):
        pool = [r for r in rows if r[c]]
        rows = [r for r in rows if not r[c]]
        while len(pool) > 1:
            # reduce every row mod the one of least |entry| in column c
            p = min(pool, key=lambda r: abs(r[c]))
            reduced = [r if r is p else [x - r[c] // p[c] * y for x, y in zip(r, p)] for r in pool]
            pool = [r for r in reduced if r[c]]
            rows += [r for r in reduced if not r[c]]
        basis += pool
    return basis
