"""Oracles for the exact integer linear algebra layer.

The Smith normal form is checked against first principles: the product
of the first j diagonal entries must equal the gcd of all j x j minors,
and the transform witnesses must be unimodular and reproduce d exactly.
"""

from __future__ import annotations

import ast
import inspect
import math
import random
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import kgraphs
import kgraphs.intmat as intmat
from kgraphs.intmat import (
    Matrix,
    cokernel_invariants,
    identity,
    rank,
    smith_normal_form,
    snf_diagonal,
    zeros,
)


# Dense references for the tests; the package itself needs none of them.

def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # the dense product the other test modules use as their oracle
    if len(a[0] if a else ()) != len(b):
        raise ValueError(f"cannot multiply a {len(a)}-row matrix by a {len(b)}-row one")
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_pow(a: Matrix, e: int) -> Matrix:
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix power needs a square matrix")
    if e < 0:
        raise ValueError("negative matrix power")
    result = identity(len(a))
    for _ in range(e):
        result = mat_mul(result, a)
    return result


def det(a: Matrix) -> int:
    # Bareiss fraction-free elimination; every division below is exact.
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    w = [row[:] for row in a]
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
    assert mat_mul(mat_mul(u, a), v) == d
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


def dense_cokernel(rows: Matrix, cols: int) -> tuple[int, tuple[int, ...]]:
    diag = snf_diagonal(rows) if rows else []
    return cols - sum(1 for t in diag if t != 0), tuple(t for t in diag if t > 1)


def _sparse(rows: Matrix) -> list[dict[int, int]]:
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def test_cokernel_examples():
    assert cokernel_invariants([], 3) == (3, ())
    assert cokernel_invariants([{}, {0: 0}], 1) == (1, ())
    assert cokernel_invariants([{0: 1, 1: -1}], 2) == (1, ())
    assert cokernel_invariants([{0: 2}, {1: 3}], 2) == (0, (6,))
    assert cokernel_invariants([{0: 2, 1: 4}, {0: 6, 1: 8}], 3) == (1, (2, 4))
    # no unit entry anywhere: everything goes to the Smith normal form
    assert cokernel_invariants([{0: 4, 1: 6}, {0: 6, 1: 4}, {0: 2, 1: 2}], 2) == (0, (2, 2))
    # unit pivots whose elimination leaves a non-unit remainder
    rows = [[1, 2, 0], [3, 4, 2], [0, 2, 6]]
    assert cokernel_invariants(_sparse(rows), 3) == dense_cokernel(rows, 3)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda cols: st.tuples(
            st.just(cols),
            st.lists(
                st.lists(st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3, 4)),
                         min_size=cols, max_size=cols),
                max_size=9,
            ),
        )
    )
)
def test_cokernel_matches_the_dense_snf(case):
    cols, rows = case
    assert cokernel_invariants(_sparse(rows), cols) == dense_cokernel(rows, cols)


def test_cokernel_matches_the_dense_snf_on_larger_sparse_matrices():
    rng = random.Random(5)
    for _ in range(30):
        cols = rng.randint(5, 30)
        rows = [[0] * cols for _ in range(rng.randint(1, 2 * cols))]
        for row in rows:
            for c in rng.sample(range(cols), rng.randint(1, 4)):
                row[c] = rng.choice((1, -1, 1, -1, 2, -2, 3))
        assert cokernel_invariants(_sparse(rows), cols) == dense_cokernel(rows, cols)


def sympy_cokernel(rows: Matrix, cols: int) -> tuple[int, tuple[int, ...]]:
    # the same invariants from sympy's Smith normal form
    from sympy import ZZ
    from sympy import Matrix as SympyMatrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    snf = sympy_snf(SympyMatrix(rows), domain=ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(len(rows), cols))]
    return cols - sum(1 for t in diag if t), tuple(sorted(t for t in diag if t > 1))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda cols: st.tuples(
            st.just(cols),
            st.lists(
                st.lists(st.sampled_from((0, 0, 0, 0, 2, -2, 3, -3, 4, 6)),
                         min_size=cols, max_size=cols),
                min_size=cols,
                max_size=3 * cols,
            ),
        )
    )
)
def test_unit_free_cokernel_matches_sympy(case):
    # no +-1 pivot: every row, up to three times as many as there are
    # columns, goes to the Smith normal form
    cols, rows = case
    assert cokernel_invariants(_sparse(rows), cols) == sympy_cokernel(rows, cols)


def test_snf_invariant_under_permutation():
    rng = random.Random(7)
    for _ in range(20):
        a = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        perm = [0, 1, 2]
        rng.shuffle(perm)
        b = [a[i][:] for i in perm]
        assert snf_diagonal(a) == snf_diagonal(b)


def test_arithmetic_basics():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert mat_mul(a, identity(2)) == a
    assert mat_mul(identity(2), a) == a
    assert mat_mul([[1, 1]], a) == [[4, 6]]
    assert mat_pow(b, 2) == identity(2)
    assert mat_pow(a, 0) == identity(2)


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


def test_every_public_intmat_function_is_used_or_exported():
    # what no other module of the package calls and the package does not
    # export belongs in the tests (as mat_mul and det do), not in intmat
    used = set()
    for path in Path(intmat.__file__).parent.glob("*.py"):
        if path.name == "intmat.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "intmat"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in imported:
                used.add(imported[node.id])
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "intmat":
                used.add(node.attr)
    public = {
        name
        for name, obj in vars(intmat).items()
        if inspect.isfunction(obj) and obj.__module__ == intmat.__name__ and not name.startswith("_")
    }
    assert sorted(public - used - set(kgraphs._EXPORTS["intmat"])) == []
