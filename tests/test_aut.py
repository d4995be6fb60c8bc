"""Automorphisms, derivations, and the derivation algebras of the IA subgroups."""

import random
from fractions import Fraction
from math import comb

import pytest

from nilhom.aut import (
    DerivationMatrix,
    LieAutomorphism,
    automorphism_from_gl,
    derivation_from_images,
    exp_derivation,
    gl_conjugation_on_ia,
    ia_basis_pairs,
    ia_betti,
    ia_lie_algebra,
)
from nilhom.exact_linalg import RationalMatrix
from nilhom.free_lie import LieElement, hall_basis, witt_dimension
from nilhom.lie_homology import free_nilpotent_lie, nilpotency_class
from nilhom import rep


def random_unimodular(rng, n):
    """Product of a few random elementary matrices, hence determinant one."""
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += f * m[j][k]
    return [[int(v) for v in row] for row in m]


def test_automorphism_from_gl_identity():
    for r, c in ((2, 2), (3, 3)):
        eye = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        auto = automorphism_from_gl(eye, c)
        assert auto.is_identity()


def test_automorphism_from_gl_diagonal_sign():
    auto = automorphism_from_gl([[-1, 0], [0, 1]], 3)
    basis = auto.algebra.hall
    for idx, w in enumerate(basis.elements):
        ones = basis.multiweight(w)[0]
        expected = Fraction(-1 if ones % 2 else 1)
        assert auto.matrix.column(idx) == {idx: expected}


def test_automorphism_from_gl_composition():
    rng = random.Random(271)
    for c in (2, 3):
        for _ in range(4):
            a = random_unimodular(rng, 2)
            b = random_unimodular(rng, 2)
            ba = [
                [sum(b[i][k] * a[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)
            ]
            lhs = automorphism_from_gl(ba, c)
            rhs = automorphism_from_gl(b, c).compose(automorphism_from_gl(a, c))
            assert lhs.matrix == rhs.matrix


def test_automorphism_from_gl_rejects_non_unimodular():
    with pytest.raises(ValueError):
        automorphism_from_gl([[2, 0], [0, 1]], 2)


def test_derivation_examples():
    algebra = free_nilpotent_lie(2, 2)
    basis = algebra.hall
    zero = derivation_from_images(algebra, {})
    assert zero.matrix.is_zero
    d = derivation_from_images(algebra, {0: LieElement(basis, {(1, 2): 1})})
    assert d.matrix.entries == {(basis.index[(1, 2)], 0): Fraction(1)}
    with pytest.raises(ValueError):
        derivation_from_images(algebra, {0: LieElement(basis, {(2,): 1})})


def test_derivation_linearity():
    algebra = free_nilpotent_lie(2, 3)
    basis = algebra.hall
    f = {0: LieElement(basis, {(1, 2): 1}), 1: LieElement(basis, {(1, 1, 2): 2})}
    g = {0: LieElement(basis, {(1, 2, 2): Fraction(1, 2)})}
    total = {
        0: f[0] + g[0],
        1: f[1],
    }
    lhs = derivation_from_images(algebra, total)
    rhs = derivation_from_images(algebra, f) + derivation_from_images(algebra, g)
    assert lhs.matrix == rhs.matrix


def test_derivation_leibniz_and_raising_verified():
    algebra = free_nilpotent_lie(2, 4)
    basis = algebra.hall
    d = derivation_from_images(
        algebra,
        {0: LieElement(basis, {(1, 2): 1, (1, 1, 2): Fraction(1, 3)}),
         1: LieElement(basis, {(1, 2, 2): -2})},
    )
    for (i, j), _ in d.matrix.entries.items():
        assert algebra.degree(i) > algebra.degree(j)
    bad = RationalMatrix(algebra.dim, algebra.dim, {(basis.index[(1, 2)], 0): 1, (basis.index[(1, 1, 2)], 1): 1})
    with pytest.raises(ValueError):
        DerivationMatrix(algebra, bad)  # not a derivation: Leibniz fails on (x1, x2)


def test_exp_derivation():
    algebra = free_nilpotent_lie(2, 3)
    basis = algebra.hall
    zero = derivation_from_images(algebra, {})
    assert exp_derivation(zero).is_identity()
    d = derivation_from_images(
        algebra, {0: LieElement(basis, {(1, 2): 1}), 1: LieElement(basis, {(1, 1, 2): 1})}
    )
    auto = exp_derivation(d)
    neg = DerivationMatrix(algebra, d.matrix.scaled(-1), check=False)
    assert auto.matrix @ exp_derivation(neg).matrix == RationalMatrix.identity(algebra.dim)
    # degree-1 block is the identity (higher-degree rows may be populated)
    for i in range(2):
        col = auto.matrix.column(i)
        assert {k: v for k, v in col.items() if algebra.degree(k) == 1} == {i: Fraction(1)}


def test_exp_commuting_derivations():
    algebra = free_nilpotent_lie(2, 3)
    basis = algebra.hall
    # images in the top layer commute: compositions vanish
    d = derivation_from_images(algebra, {0: LieElement(basis, {(1, 1, 2): 1})})
    e = derivation_from_images(algebra, {1: LieElement(basis, {(1, 2, 2): 3})})
    assert (d.matrix @ e.matrix).is_zero and (e.matrix @ d.matrix).is_zero
    lhs = exp_derivation(d).matrix @ exp_derivation(e).matrix
    rhs = exp_derivation(DerivationMatrix(algebra, d.matrix + e.matrix, check=False)).matrix
    assert lhs == rhs


def test_exp_log_round_trip():
    algebra = free_nilpotent_lie(2, 4)
    basis = algebra.hall
    d = derivation_from_images(
        algebra,
        {0: LieElement(basis, {(1, 2): 1, (1, 1, 1, 2): -1}), 1: LieElement(basis, {(1, 1, 2): 2})},
    )
    auto = exp_derivation(d)
    # matrix logarithm of a unipotent matrix, truncated sum
    n = auto.matrix - RationalMatrix.identity(algebra.dim)
    log = RationalMatrix(algebra.dim, algebra.dim)
    power = RationalMatrix.identity(algebra.dim)
    for k in range(1, algebra.dim + 1):
        power = power @ n
        if power.is_zero:
            break
        log = log + power.scaled(Fraction((-1) ** (k + 1), k))
    assert log == d.matrix


def test_ia_dimension_ledger():
    for r, c in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4)):
        g = ia_lie_algebra(r, c)
        assert g.dim == r * sum(witt_dimension(r, b) for b in range(2, c + 1))
        if c >= 2:
            previous = ia_lie_algebra(r, c - 1)
            assert g.dim - previous.dim == r * witt_dimension(r, c)


def test_ia_abelian_at_class_two():
    for r in (2, 3):
        g = ia_lie_algebra(r, 2)
        assert g.dim == r * witt_dimension(r, 2)
        assert not g.brackets
    assert ia_lie_algebra(3, 1).dim == 0


def test_ia_2_3_structure():
    g = ia_lie_algebra(2, 3)
    assert g.dim == 6
    assert nilpotency_class(g) == 2
    # top filtration layer: pairs whose word has degree 3; it is central
    basis = hall_basis(2, 3)
    pairs = ia_basis_pairs(2, 3)
    top = {n for n, (i, w) in enumerate(pairs) if len(w) == 3}
    assert len(top) == 2 * witt_dimension(2, 3)
    for (a, b) in g.brackets:
        assert a not in top and b not in top


def test_ia_nilpotency_class_bound():
    for r, c in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3)):
        assert nilpotency_class(ia_lie_algebra(r, c)) <= c - 1


def test_ia_betti_abelian_case():
    for r in (2, 3):
        g_dim = r * witt_dimension(r, 2)
        for q in range(4):
            total, weights = ia_betti(r, 2, q)
            assert total == comb(g_dim, q)
            assert sum(weights.values()) == total


def test_ia_betti_2_3_degree_one():
    total, weights = ia_betti(2, 3, 1)
    g = ia_lie_algebra(2, 3)
    commutator_dim = 1  # [g, g] is spanned by one derivation image
    assert total == g.dim - commutator_dim
    assert sum(weights.values()) == total
    assert ia_betti(2, 3, 0)[0] == 1


def test_gl_conjugation_identity_and_permutation():
    eye = [[1, 0], [0, 1]]
    assert gl_conjugation_on_ia(eye, 2, 3) == RationalMatrix.identity(6)
    swap = [[0, 1], [1, 0]]
    conj = gl_conjugation_on_ia(swap, 2, 2)
    pairs = ia_basis_pairs(2, 2)
    # swapping the two letters fixes the word (1,2) up to the bracket sign
    # and exchanges the generator slots
    expected = {}
    for col, (i, w) in enumerate(pairs):
        row = pairs.index((1 - i, w))
        expected[(row, col)] = Fraction(-1)
    assert conj == RationalMatrix(2, 2, expected)


def test_gl_conjugation_diagonal_scaling():
    refl = [[-1, 0], [0, 1]]
    for c in (2, 3):
        conj = gl_conjugation_on_ia(refl, 2, c)
        pairs = ia_basis_pairs(2, c)
        basis = hall_basis(2, c)
        for col, (i, w) in enumerate(pairs):
            exponent = basis.multiweight(w)[0] - (1 if i == 0 else 0)
            assert conj.column(col) == {col: Fraction((-1) ** exponent)}


def test_gl_conjugation_matches_rep_action():
    samples = {
        2: [[[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [1, 1]]],
        3: [
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        ],
    }
    for r, mats in samples.items():
        for c in (2, 3):
            expr = rep.HomStd(rep.lie_interval(2, c))
            for mat in mats:
                assert gl_conjugation_on_ia(mat, r, c) == rep.action_matrix(expr, mat, r)


def test_gl_conjugation_is_group_action():
    rng = random.Random(55)
    for _ in range(3):
        a = random_unimodular(rng, 2)
        b = random_unimodular(rng, 2)
        ba = [
            [sum(b[i][k] * a[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        lhs = gl_conjugation_on_ia(ba, 2, 3)
        rhs = gl_conjugation_on_ia(b, 2, 3) @ gl_conjugation_on_ia(a, 2, 3)
        assert lhs == rhs


def test_automorphism_invariants_enforced():
    algebra = free_nilpotent_lie(2, 2)
    basis = algebra.hall
    # swapping x1 <-> x2 but forgetting the induced sign on [x1,x2] is not
    # an automorphism and must be rejected
    bad = RationalMatrix(
        3,
        3,
        {
            (basis.index[(2,)], basis.index[(1,)]): 1,
            (basis.index[(1,)], basis.index[(2,)]): 1,
            (basis.index[(1, 2)], basis.index[(1, 2)]): 1,
        },
    )
    with pytest.raises(ValueError):
        LieAutomorphism(algebra, bad)
    with pytest.raises(ValueError):
        LieAutomorphism(algebra, RationalMatrix(3, 3))  # not invertible
