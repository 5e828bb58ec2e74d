"""Oracles for the exact integer linear algebra layer.

The Smith normal form is checked against first principles: the product
of the first j diagonal entries must equal the gcd of all j x j minors,
and the transform witnesses must be unimodular and reproduce d exactly.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from kgraphs.intmat import (
    Matrix,
    identity,
    mat_add,
    mat_copy,
    mat_eq,
    mat_mul,
    mat_sub,
    rank,
    shape,
    smith_normal_form,
    snf_diagonal,
    stack_rows,
    transpose,
    vec_mat,
    zeros,
)


# Dense references for the tests; the package itself needs neither.

def mat_pow(a: Matrix, e: int) -> Matrix:
    n, m = shape(a)
    if n != m:
        raise ValueError("matrix power needs a square matrix")
    if e < 0:
        raise ValueError("negative matrix power")
    result = identity(n)
    for _ in range(e):
        result = mat_mul(result, a)
    return result


def det(a: Matrix) -> int:
    # Bareiss fraction-free elimination; every division below is exact.
    n, m = shape(a)
    if n != m:
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    w = mat_copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            for i in range(k + 1, n):
                if w[i][k] != 0:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[n - 1][n - 1]


def minor_gcd(a, j):
    # gcd of all j x j minors; 0 when every minor vanishes.
    rows = range(len(a))
    cols = range(len(a[0]))
    g = 0
    for rs in combinations(rows, j):
        for cs in combinations(cols, j):
            sub = [[a[r][c] for c in cs] for r in rs]
            g = math.gcd(g, det(sub))
    return g


def assert_snf_contract(a):
    d, u, v = smith_normal_form(a)
    m, n = len(a), len(a[0])
    assert det(u) in (1, -1)
    assert det(v) in (1, -1)
    assert mat_eq(mat_mul(mat_mul(u, a), v), d)
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return diag


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_snf_contract_random(a):
    assert_snf_contract(a)


def test_snf_determinant_divisor_oracle():
    rng = random.Random(20260815)
    for _ in range(40):
        a = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        diag = assert_snf_contract(a)
        for j in (1, 2):
            prod = 1
            for x in diag[:j]:
                prod *= x
            assert prod == minor_gcd(a, j)


def test_snf_known_example():
    diag = snf_diagonal([[2, 4], [6, 8]])
    assert diag == [2, 4]


def test_snf_identity_and_zero():
    assert snf_diagonal(identity(3)) == [1, 1, 1]
    assert snf_diagonal(zeros(2, 3)) == [0, 0]
    assert_snf_contract(zeros(3, 2))


def test_snf_single_entry_and_negatives():
    assert snf_diagonal([[-6]]) == [6]
    assert snf_diagonal([[0, 0], [0, -5]]) == [1, 5] or snf_diagonal([[0, 0], [0, -5]]) == [5, 0]
    # pinned: the only elementary divisor of [[0,0],[0,-5]] is 5
    assert [x for x in snf_diagonal([[0, 0], [0, -5]]) if x not in (0,)] == [5]


def test_rank_examples():
    assert rank(identity(3)) == 3
    assert rank(zeros(2, 2)) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2], [3, 4]]) == 2
    assert rank([[2, 0, 0], [4, 0, 0], [2, 0, 0]]) == 1


def test_snf_invariant_under_permutation():
    rng = random.Random(7)
    for _ in range(20):
        a = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        perm = [0, 1, 2]
        rng.shuffle(perm)
        b = [a[i][:] for i in perm]
        assert snf_diagonal(a) == snf_diagonal(b)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), min_size=2, max_size=2),
)
def test_mat_mul_associative(a, b, c):
    assert mat_eq(mat_mul(mat_mul(a, b), c), mat_mul(a, mat_mul(b, c)))


def test_arithmetic_basics():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert mat_mul(a, identity(2)) == a
    assert mat_mul(identity(2), a) == a
    assert mat_add(a, b) == [[1, 3], [4, 4]]
    assert mat_sub(a, a) == zeros(2, 2)
    assert mat_pow(b, 2) == identity(2)
    assert mat_pow(a, 0) == identity(2)
    assert transpose([[1, 2, 3]]) == [[1], [2], [3]]
    assert vec_mat([1, 1], a) == [4, 6]
    assert stack_rows([a, b]) == [[1, 2], [3, 4], [0, 1], [1, 0]]


def test_det_examples():
    assert det([[1, 2], [3, 4]]) == -2
    assert det(identity(4)) == 1
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [2, 4]]) == 0
    rng = random.Random(3)
    # det of a product is the product of dets
    for _ in range(15):
        a = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        assert det(mat_mul(a, b)) == det(a) * det(b)
