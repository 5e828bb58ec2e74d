"""Exact integer matrix arithmetic and Smith normal form.

Matrices are lists of rows of Python ints, so every operation is
arbitrary precision. Nothing here knows about graphs.
"""

from __future__ import annotations

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


def stack_rows(mats: list[Matrix]) -> Matrix:
    return [row[:] for m in mats for row in m]


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
