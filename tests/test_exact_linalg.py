"""Exact linear algebra: examples, invariants, and an independent oracle."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from nilhom.exact_linalg import (
    RationalMatrix,
    determinant,
    exp_nilpotent,
    invert,
    nullspace_basis,
    rank,
    row_space_basis,
)


def naive_rank(rows):
    """Dense Gaussian elimination over Fraction, first-nonzero pivoting."""
    a = [[Fraction(v) for v in row] for row in rows]
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(nrows):
            if i != r and a[i][col]:
                f = a[i][col] / a[r][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nrows:
            break
    return r


def leibniz_det(rows):
    """Determinant as the signed sum over all permutations."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def random_matrix(rng, nrows, ncols, density=0.7):
    rows = []
    for _ in range(nrows):
        rows.append(
            [
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if rng.random() < density
                else Fraction(0)
                for _ in range(ncols)
            ]
        )
    return rows


def test_rank_examples():
    assert rank(RationalMatrix.identity(4)) == 4
    assert rank(RationalMatrix(3, 5)) == 0
    assert rank(RationalMatrix.from_rows([[2, 4], [1, 2]])) == 1


def test_rank_matches_naive_oracle():
    rng = random.Random(1729)
    for _ in range(60):
        nrows = rng.randint(1, 8)
        ncols = rng.randint(1, 8)
        rows = random_matrix(rng, nrows, ncols)
        m = RationalMatrix.from_rows(rows)
        assert rank(m) == naive_rank(rows)


def test_rank_transpose_invariant():
    rng = random.Random(99)
    for _ in range(30):
        rows = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        m = RationalMatrix.from_rows(rows)
        assert rank(m) == rank(m.transpose())


def test_nullspace_examples():
    assert nullspace_basis(RationalMatrix.identity(3)) == []
    zero = RationalMatrix(2, 3)
    basis = nullspace_basis(zero)
    assert len(basis) == 3
    m = RationalMatrix.from_rows([[1, 1]])
    (vec,) = nullspace_basis(m)
    assert vec[0] * Fraction(-1) == vec[1] and vec[1] != 0


def test_rank_nullity():
    rng = random.Random(7)
    for _ in range(40):
        rows = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        m = RationalMatrix.from_rows(rows)
        basis = nullspace_basis(m)
        assert rank(m) + len(basis) == m.cols
        for vec in basis:
            assert all(v == 0 for v in m.mul_vector(vec))
        if basis:
            stacked = RationalMatrix.from_rows(basis)
            assert rank(stacked) == len(basis)


def test_determinant_and_invert():
    m = RationalMatrix.from_rows([[2, 1], [1, 1]])
    assert determinant(m) == 1
    inv = invert(m)
    assert m @ inv == RationalMatrix.identity(2)
    with pytest.raises(ValueError):
        invert(RationalMatrix.from_rows([[1, 2], [2, 4]]))


def square_cases(rng):
    """Seeded square matrices with n <= 5: empty, random, singular, signed permutations."""
    cases = [[]]
    for _ in range(120):
        n = rng.randint(1, 5)
        rows = random_matrix(rng, n, n, density=rng.choice([0.3, 0.6, 0.9]))
        cases.append(rows)
        if n > 1:
            k = 1 if n > 2 else 0
            cases.append(rows[:-1] + [[a - 2 * b for a, b in zip(rows[0], rows[k])]])
        perm = list(range(n))
        rng.shuffle(perm)
        cases.append(
            [[rng.choice([-1, 1]) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
        )
    return cases


def test_determinant_matches_leibniz_oracle():
    assert determinant(RationalMatrix(0, 0)) == 1
    singular = 0
    for rows in square_cases(random.Random(2718)):
        expected = leibniz_det(rows)
        assert determinant(RationalMatrix.from_rows(rows)) == expected
        singular += expected == 0
    assert singular >= 100


def test_invert_is_two_sided_or_raises():
    for rows in square_cases(random.Random(3141)):
        m = RationalMatrix.from_rows(rows)
        if leibniz_det(rows) == 0:
            with pytest.raises(ValueError, match="singular"):
                invert(m)
            continue
        inv = invert(m)
        eye = RationalMatrix.identity(m.rows)
        assert inv @ m == eye
        assert m @ inv == eye


def test_exp_nilpotent():
    n = RationalMatrix.from_rows([[0, 1], [0, 0]])
    assert exp_nilpotent(n) == RationalMatrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        exp_nilpotent(RationalMatrix.identity(2))


def test_row_space_basis_spans():
    rng = random.Random(31)
    for _ in range(20):
        rows = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        m = RationalMatrix.from_rows(rows)
        basis = row_space_basis(m)
        assert len(basis) == rank(m)
        if basis:
            assert rank(RationalMatrix.from_rows(basis)) == len(basis)
            together = RationalMatrix.from_rows(rows + [list(v) for v in basis])
            assert rank(together) == len(basis)


def test_matrix_canonical_form():
    m = RationalMatrix(2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (0, 1) not in m.entries
    with pytest.raises(ValueError):
        RationalMatrix(1, 1, {(0, 1): 1})
    with pytest.raises(TypeError):
        RationalMatrix(1, 1, {(0, 0): 0.5})
