"""Exact linear algebra: examples, invariants, and an independent oracle."""

import copy
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nilhom import lie_homology, rep
from nilhom.aut import derivation_from_images, gl_conjugation_on_ia, ia_lie_algebra
from nilhom.exact_linalg import (
    RationalMatrix,
    _add,
    _eliminate,
    _integer_rows,
    determinant,
    exp_nilpotent,
    invert,
    nullspace_basis,
    rank,
    row_space_basis,
)
from nilhom.free_lie import LieElement, hall_basis, induced_map_lie
from nilhom.nilgroup import adjoint_matrix, malcev_element


def test_add_accumulates_exactly_and_stores_no_zero():
    d = {}
    _add(d, "a", 2)
    _add(d, "a", Fraction(1, 3))
    assert d == {"a": Fraction(7, 3)}
    _add(d, "b", 0)
    _add(d, "b", Fraction(0))
    assert d == {"a": Fraction(7, 3)}
    _add(d, "a", Fraction(-7, 3))
    assert d == {}


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


def fraction_det(rows):
    """Determinant by dense Gaussian elimination over Fraction."""
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(a)):
        piv = next((i for i in range(col, len(a)) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, len(a)):
            if a[i][col]:
                f = a[i][col] / a[col][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def fraction_inverse(rows):
    """Inverse by Gauss-Jordan elimination of [rows | I] over Fraction; None when singular."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


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


def bareiss_oracle(rows: list[dict[int, int]], ncols: int) -> list[tuple[int, int]]:
    """Fraction-free elimination with Markowitz pivoting, in place.

    Returns the pivot list [(row, col), ...] in elimination order.  Columns
    with index >= ncols (augmented right-hand sides) ride along and are
    never chosen as pivots.  The pivot with the least (nnz_row - 1) *
    (nnz_col - 1) score wins, ties broken by lowest row then lowest column,
    which makes the whole elimination deterministic.
    """
    nrows = len(rows)
    pivots: list[tuple[int, int]] = []
    pivot_rows: set[int] = set()
    prev = 1
    while True:
        col_count: dict[int, int] = {}
        for i in range(nrows):
            if i in pivot_rows:
                continue
            for c in rows[i]:
                if c < ncols:
                    col_count[c] = col_count.get(c, 0) + 1
        if not col_count:
            break
        best: tuple[int, int, int] | None = None
        for i in range(nrows):
            if i in pivot_rows:
                continue
            row = rows[i]
            nnz = sum(1 for c in row if c < ncols)
            if not nnz:
                continue
            for c in row:
                if c >= ncols:
                    continue
                cand = ((nnz - 1) * (col_count[c] - 1), i, c)
                if best is None or cand < best:
                    best = cand
        assert best is not None
        _, pi, pj = best
        pval = rows[pi][pj]
        prow = rows[pi]
        for k in range(nrows):
            if k == pi or k in pivot_rows:
                continue
            row = rows[k]
            if not row:
                continue
            f = row.get(pj)
            new_row: dict[int, int] = {}
            if f is None:
                # Bareiss scales untouched rows too; division stays exact.
                if pval == prev:
                    new_row = row
                else:
                    for c, v in row.items():
                        new_row[c] = v * pval // prev
            else:
                for c in row.keys() | prow.keys():
                    v = (row.get(c, 0) * pval - f * prow.get(c, 0)) // prev
                    if v:
                        new_row[c] = v
            rows[k] = new_row
        pivots.append((pi, pj))
        pivot_rows.add(pi)
        prev = pval
    return pivots


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


def test_from_rows_checks_entries_before_row_lengths():
    # from_rows is the one reader of nested rows
    with pytest.raises(TypeError, match=r"^exact arithmetic only: cannot accept float$"):
        RationalMatrix.from_rows([[1, 0], [0.5]])
    with pytest.raises(ValueError, match=r"^ragged rows$"):
        RationalMatrix.from_rows([[1, 0], [1]])
    assert RationalMatrix.from_rows([]) == RationalMatrix(0, 0)
    assert RationalMatrix.from_rows([["1/2", 0]]).entries == {(0, 0): Fraction(1, 2)}


# each library entry point that reads a number given as a string, as a
# statement with X in place of that string
STRING_READERS = {
    "RationalMatrix.from_rows": "from nilhom.exact_linalg import RationalMatrix\n"
    "value = RationalMatrix.from_rows([[X]]).entry(0, 0)",
    "LieElement": "from nilhom.free_lie import LieElement, hall_basis\n"
    "value = LieElement(hall_basis(2, 2), {(1,): X}).coords[(1,)]",
    "dynkin": "from nilhom.free_lie import dynkin, hall_basis\n"
    "value = dynkin({(1,): X}, hall_basis(2, 2)).coords[(1,)]",
    "GradedLieAlgebra": "from nilhom.lie_homology import GradedLieAlgebra\n"
    "value = GradedLieAlgebra(('a', 'b', 'c'), ((1,), (1,), (2,)), {(0, 1): {2: X}}).bracket_basis(0, 1)[2]",
}


@pytest.mark.parametrize("reader", sorted(STRING_READERS))
def test_string_readers_refuse_an_exponent_at_once(reader):
    # Fraction("1e99999999") would build a 10^99999999 first; run in a child
    # process, so that work which would not finish fails the 10 s timeout
    code = STRING_READERS[reader].replace("X", repr("1e99999999"))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith(
        "ValueError: '1e99999999' is not an integer, n/d (d nonzero) or plain decimal"
    )


@pytest.mark.parametrize("reader", sorted(STRING_READERS))
def test_string_readers_share_one_number_grammar(reader):
    read = {"1/2": Fraction(1, 2), "-3": -3, "0.25": Fraction(1, 4), ".5": Fraction(1, 2), "7.": 7,
            "+04/06": Fraction(2, 3)}
    for text, expected in read.items():
        scope = {}
        exec(STRING_READERS[reader].replace("X", repr(text)), scope)
        assert scope["value"] == expected, text
    for text in ["1e3", "1/0", "1/00", " 1", "1 ", "1_000", "inf", "nan", "0x10", "", "+", "1/2.5", "--1"]:
        with pytest.raises(ValueError, match="^" + re.escape(repr(text)) + " is not"):
            exec(STRING_READERS[reader].replace("X", repr(text)), {})


def weight_blocks(g, max_degree, dominant):
    """The integer rows lie_homology._blocks eliminates for each weight block of g's boundary."""
    for d in range(1, max_degree + 1):
        for combos in lie_homology._wedge_buckets(g, d, dominant).values():
            yield lie_homology._block_rows(g, combos), len(combos)


def random_integer_rows(rng, nrows, ncols, extra):
    """Integer rows over ncols pivotable and ``extra`` ride-along columns, some zero or dependent."""
    density = rng.choice([0.15, 0.4, 0.7, 1.0])
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.1:
            rows.append({})
            continue
        bound = rng.choice([2, 12, 10**6])
        rows.append(
            {c: rng.choice([-1, 1]) * rng.randint(1, bound)
             for c in range(ncols + extra) if rng.random() < density}
        )
    if nrows > 2 and rng.random() < 0.4:
        a, b = rng.randint(-3, 3), rng.randint(1, 3)
        combo = {c: a * rows[0].get(c, 0) + b * rows[1].get(c, 0) for c in rows[0].keys() | rows[1].keys()}
        rows[-1] = {c: v for c, v in combo.items() if v}
    return rows


def fill_in_rows(rng, nrows, ncols, extra):
    """Random integer rows dense enough that eliminating them fills in and columns' counts grow."""
    density = rng.uniform(0.3, 0.7)
    return [
        {c: rng.choice([-1, 1]) * rng.randint(1, rng.choice([3, 50]))
         for c in range(ncols + extra) if rng.random() < density}
        for _ in range(nrows)
    ]


def test_eliminate_pivots_match_bareiss_oracle():
    # no row scores 0.  Row 0 goes first, at column 0; rewriting rows 1 and 3
    # fills in column 2, row 2's best (count 3 -> 4), while column 3 falls
    # (5 -> 4).  Row 2 is not rewritten and (6, 2, 3) does not lower its key
    # (4, 2, 2), so that key is stale when popped: its true entry is (6, 2, 1)
    cases = [([{0: -1, 2: 2, 3: -1}, {0: -1, 1: 2, 3: 2}, {1: -1, 2: 2, 3: 2},
               {0: -1, 1: 1, 3: 2}, {1: 1, 2: 2, 3: 1}], 4)]
    for r, c in ((5, 2), (3, 3), (2, 5)):
        g = lie_homology.free_nilpotent_lie(r, c)
        cases.extend(weight_blocks(g, g.dim, dominant=True))
    cases.extend(weight_blocks(ia_lie_algebra(3, 3), 3, dominant=False))
    rng = random.Random(4242)
    for _ in range(400):
        ncols = rng.randint(1, 10)
        cases.append((random_integer_rows(rng, rng.randint(0, 10), ncols, rng.randint(0, 3)), ncols))
    # rescoring a row only through the pivot row's columns must still find
    # Bareiss's pivots when fill-in raises the count of a row's best column
    for _ in range(60):
        nrows = rng.randint(20, 40)
        ncols = rng.randint(nrows // 2, nrows + 10)
        cases.append((fill_in_rows(rng, nrows, ncols, rng.randint(1, 4)), ncols))
    pivoted = 0
    for rows, ncols in cases:
        oracle_rows = copy.deepcopy(rows)
        expected = bareiss_oracle(oracle_rows, ncols)
        pivots = _eliminate(rows, ncols)
        assert pivots == expected
        assert_multiples_of_oracle_rows(rows, oracle_rows)
        pivoted += bool(pivots)
    assert pivoted > 900


def assert_multiples_of_oracle_rows(rows, oracle_rows):
    """Row i of the kernel is a nonzero rational multiple of the oracle's row i, for every i."""
    assert len(rows) == len(oracle_rows)
    for row, ref in zip(rows, oracle_rows):
        assert row.keys() == ref.keys()
        if ref:
            c0 = next(iter(ref))
            assert all(row[c] * ref[c0] == ref[c] * row[c0] for c in ref)


def shuffled(rng, dense):
    """dense with its rows and its columns in seeded random orders."""
    n = len(dense)
    rperm, cperm = rng.sample(range(n), n), rng.sample(range(n), n)
    return [[dense[i][j] for j in cperm] for i in rperm]


def zero_score_squares(rng):
    """Square integer matrices whose pivots are all, some or none of score 0 at the start.

    Signed permutations and unit triangular matrices are eliminated by the
    zero-score pass alone.  A unit triangular block beside a dense block is
    handed over to the Markowitz loop once the triangle is used up.  A
    matrix with no zero anywhere has no score-0 row at the start, and a
    cycle's rows all score 1 until its first pivot.
    """
    def unit_triangular(n):
        return [[1 if i == j else rng.randint(-9, 9) if j > i else 0 for j in range(n)] for i in range(n)]

    cases = []
    for _ in range(6):
        n = rng.randint(2, 9)
        perm = rng.sample(range(n), n)
        cases.append([[rng.choice([-3, -1, 1, 2]) if j == perm[i] else 0 for j in range(n)] for i in range(n)])
        upper = unit_triangular(n)
        cases += [upper, [list(col) for col in zip(*upper)], shuffled(rng, unit_triangular(n))]
        k, d = rng.randint(1, 5), rng.randint(2, 4)
        tri, dense = unit_triangular(k), [[rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(d)] for _ in range(d)]
        cases.append(shuffled(rng, [row + [0] * d for row in tri] + [[0] * k + row for row in dense]))
        cases.append([[rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(n)] for _ in range(n)])
    for n in (4, 5):
        cases.append([[1 if j in (i, (i + 1) % n) else 0 for j in range(n)] for i in range(n)])
    return cases


def test_zero_score_pass_keeps_bareiss_pivots_and_rows():
    # row 2 scores 0 (one entry) and row 4 likewise; pivoting row 2 leaves
    # row 0 with one entry while row 4 waits, so row 0 must go next, and
    # row 4, emptied by row 3's step, is never pivoted
    rows = [{0: 1, 1: 1}, {0: 1, 2: 1}, {1: 1}, {2: 1, 3: 1}, {3: 1}]
    expected = bareiss_oracle(copy.deepcopy(rows), 4)
    assert expected == [(2, 1), (0, 0), (1, 2), (3, 3)]
    assert _eliminate(rows, 4) == expected

    for dense in zero_score_squares(random.Random(1957)):
        n = len(dense)
        m = RationalMatrix.from_rows(dense)
        rows = _integer_rows(RationalMatrix.hstack([m, RationalMatrix.identity(n)]))
        oracle_rows = copy.deepcopy(rows)
        assert _eliminate(rows, n) == bareiss_oracle(oracle_rows, n)
        assert_multiples_of_oracle_rows(rows, oracle_rows)
        assert determinant(m) == fraction_det(dense)
        expected = fraction_inverse(dense)
        if expected is None:
            with pytest.raises(ValueError, match="singular"):
                invert(m)
        else:
            assert invert(m) == RationalMatrix.from_rows(expected)

    # rows with ride-along columns, some empty or dependent: every row, pivoted
    # or not, ends as a multiple of the oracle's, ride-along entries included
    rng = random.Random(1958)
    for _ in range(150):
        ncols = rng.randint(1, 10)
        rows = random_integer_rows(rng, rng.randint(0, 10), ncols, rng.randint(0, 3))
        oracle_rows = copy.deepcopy(rows)
        assert _eliminate(rows, ncols) == bareiss_oracle(oracle_rows, ncols)
        assert_multiples_of_oracle_rows(rows, oracle_rows)


def test_determinant_and_invert_with_fill_in_match_fraction_oracles():
    rng = random.Random(1957)
    row_scales = random.Random(2024)
    for _ in range(8):
        n = rng.randint(20, 24)
        rows = fill_in_rows(rng, n, n, 0)
        if rng.random() < 0.3:
            rows[-1] = {c: 2 * rows[0].get(c, 0) - rows[1].get(c, 0) for c in range(n)}
        dense = [[row.get(c, 0) for c in range(n)] for row in rows]
        # each row times a seeded k/d, so that clearing multipliers and
        # row contents other than 1 occur
        factors = [(row_scales.randint(1, 9), row_scales.randint(2, 12)) for _ in dense]
        rational = [[Fraction(k * v, d) for v in row] for row, (k, d) in zip(dense, factors)]
        for case in (dense, rational):
            m = RationalMatrix.from_rows(case)
            assert determinant(m) == fraction_det(case)
            expected = fraction_inverse(case)
            if expected is None:
                with pytest.raises(ValueError, match="singular"):
                    invert(m)
            else:
                assert invert(m) == RationalMatrix.from_rows(expected)


def rational_squares(max_n):
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-50, max_value=50, max_denominator=12),
    )
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rational_squares(5))
def test_determinant_and_inverse_properties(rows):
    m = RationalMatrix.from_rows(rows) if rows else RationalMatrix(0, 0)
    det = determinant(m)
    assert det == leibniz_det(rows)
    if det:
        assert invert(m) @ m == RationalMatrix.identity(m.rows)


def assert_canonical(m):
    """Nonzero Fractions at in-range keys: exactly what the checking constructor would keep."""
    for (i, j), q in m.entries.items():
        assert type(q) is Fraction and q, ((i, j), q)
        assert 0 <= i < m.rows and 0 <= j < m.cols, (i, j)
    assert m == RationalMatrix(m.rows, m.cols, m.entries)


def test_computed_matrices_are_canonical():
    # every producer that wraps its result unchecked, on seeded inputs that
    # include cancellations; the checking constructor is the oracle
    rng = random.Random(1818)

    def rand(rows, cols, density=0.6):
        return RationalMatrix(rows, cols, {
            (i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for i in range(rows) for j in range(cols) if rng.random() < density
        })

    def invertible(n):
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            if determinant(RationalMatrix.from_rows(rows)):
                return rows

    produced = [RationalMatrix.from_rows([[1, 1]]) @ RationalMatrix.from_rows([[1], [-1]])]
    for _ in range(6):
        a, b, c = rand(3, 4), rand(3, 4), rand(4, 2)
        square = RationalMatrix.from_rows(invertible(4))
        produced += [
            a + b, a @ c,
            a.scaled(Fraction(-2, 3)), a.scaled(0), a.transpose(),
            RationalMatrix.identity(3), RationalMatrix.identity(0),
            RationalMatrix.from_rows([[a.entry(i, j) for j in range(a.cols)] for i in range(a.rows)]),
            RationalMatrix.from_rows([[0, Fraction(0)], ["0", 0]]),
            RationalMatrix.vstack([a, b]), RationalMatrix.vstack([]),
            RationalMatrix.hstack([a, rand(3, 2)]), RationalMatrix.hstack([]),
            invert(square), invert(square) @ square,
            exp_nilpotent(RationalMatrix(3, 3, {(0, 1): rng.randint(1, 3), (1, 2): -1, (0, 2): 2})),
        ]
    for s, r in ((2, 2), (3, 2), (2, 3), (3, 3)):
        for degree in range(1, 5):
            rows = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(s)]
            produced += [induced_map_lie(rows, degree), induced_map_lie([[1, 1]] * s, degree)]
    for r, cls in ((2, 4), (3, 3)):
        algebra = lie_homology.free_nilpotent_lie(r, cls)
        basis = hall_basis(r, cls)
        upper = [w for w in basis.elements if len(w) >= 2]
        for _ in range(4):
            images = {i: LieElement(basis, {w: rng.randint(-2, 2) for w in rng.sample(upper, 3)})
                      for i in range(r) if rng.random() < 0.8}
            produced.append(derivation_from_images(algebra, images).matrix)
            log = {w: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for w in rng.sample(basis.elements, 4)}
            produced.append(adjoint_matrix(malcev_element(basis, log)))
    exprs = [
        rep.Wedge(2, rep.Std()), rep.Wedge(3, rep.Std()), rep.Wedge(0, rep.Std()),
        rep.Wedge(2, rep.Lie(2)), rep.Wedge(2, rep.HomStd(rep.Lie(2))),
        rep.Tensor(rep.Std(), rep.DualStd()), rep.Tensor(rep.Lie(2), rep.Wedge(2, rep.Std())),
        rep.Sum(rep.Lie(3), rep.Const(2)), rep.Sum(rep.Const(0), rep.DualStd()),
        rep.HomStd(rep.lie_interval(2, 3)), rep.HomStd(rep.Const(0)),
    ]
    for _ in range(3):
        mat = invertible(3)
        produced += [rep.action_matrix(expr, mat, 3) for expr in exprs]
    # a singular matrix: some 2x2 and 3x3 minors vanish
    singular = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    produced += [rep.action_matrix(rep.Wedge(k, rep.Std()), singular, 3) for k in (2, 3)]
    for c in (1, 2, 3):
        produced.append(gl_conjugation_on_ia([[1, 1, 0], [0, 1, 0], [0, -1, 1]], 3, c))
    assert any(m.is_zero for m in produced) and any(not m.is_zero for m in produced)
    for m in produced:
        assert_canonical(m)
