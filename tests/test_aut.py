"""Automorphisms, derivations, and the derivation algebras of the IA subgroups."""

import hashlib
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from nilhom.aut import (
    DerivationMatrix,
    LieAutomorphism,
    automorphism_from_gl,
    derivation_from_images,
    gl_conjugation_on_ia,
    ia_basis_pairs,
    ia_betti,
    ia_lie_algebra,
)
from nilhom.exact_linalg import RationalMatrix, exp_nilpotent, rank
from nilhom.free_lie import LieElement, bracket, hall_basis, induced_map_lie, witt_dimension
from nilhom.invariants import _conjugation_by_definition
from nilhom.lie_homology import GradedLieAlgebra, free_nilpotent_lie, lower_central_series_dims, nilpotency_class
from nilhom import aut, lie_homology, rep


def exp_derivation(d):
    """Exact exponential of a strictly raising derivation: an automorphism fixing degree 1."""
    return LieAutomorphism(d.algebra, exp_nilpotent(d.matrix))


def random_unimodular(rng, n):
    """Product of a few random elementary matrices, hence determinant one."""
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += f * m[j][k]
    return [[int(v) for v in row] for row in m]


def random_signed_unimodular(rng, n):
    """A random unimodular matrix of any size n >= 1, of determinant 1 or -1."""
    m = random_unimodular(rng, n) if n > 1 else [[1]]
    if rng.random() < 0.5:
        m[0] = [-v for v in m[0]]
    return m


def degreewise_blocks(matrix, cls):
    """The automorphism matrix assembled from the Lie functor's per-degree blocks."""
    basis = hall_basis(len(matrix), cls)
    entries = {}
    for n in range(1, cls + 1):
        offset = basis.degree_start[n]
        for (i, j), q in induced_map_lie(matrix, n).entries.items():
            entries[(offset + i, offset + j)] = q
    return RationalMatrix(len(basis.elements), len(basis.elements), entries)


def test_automorphism_from_gl_identity():
    for r, c in ((2, 2), (3, 3)):
        eye = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        auto = automorphism_from_gl(eye, c)
        assert auto.is_identity


def test_automorphism_from_gl_diagonal_sign():
    auto = automorphism_from_gl([[-1, 0], [0, 1]], 3)
    basis = auto.algebra.hall
    for idx, w in enumerate(basis.elements):
        ones = basis.multiweight(w)[0]
        expected = Fraction(-1 if ones % 2 else 1)
        assert auto.matrix.columns()[idx] == {idx: expected}


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
    shear = automorphism_from_gl([[1, 1], [0, 1]], 3)
    assert not shear.compose(shear).is_identity
    assert shear.compose(automorphism_from_gl([[1, -1], [0, 1]], 3)).is_identity


def test_automorphism_from_gl_matches_degreewise_blocks():
    rng = random.Random(8191)
    for r in range(1, 5):
        for c in range(1, 5 if r < 4 else 4):
            for _ in range(3):
                a = random_signed_unimodular(rng, r)
                assert automorphism_from_gl(a, c).matrix == degreewise_blocks(a, c)


def test_automorphism_from_gl_rejects_non_unimodular():
    with pytest.raises(ValueError, match=r"^matrix must be unimodular, determinant is 2$"):
        automorphism_from_gl([[2, 0], [0, 1]], 2)


def test_gl_input_error_messages():
    # nested rows and the equal RationalMatrix get the same message
    for read in (list, RationalMatrix.from_rows):
        for call in (lambda m: automorphism_from_gl(m, 2), lambda m: gl_conjugation_on_ia(m, 2, 2)):
            with pytest.raises(ValueError, match=r"^matrix must be square$"):
                call(read([[1, 0, 0], [0, 1, 0]]))
            with pytest.raises(ValueError, match=r"^matrix must be unimodular, determinant is 1/2$"):
                call(read([[Fraction(1, 2), 0], [0, 1]]))
            # determinant 1, yet not in GL_2(Z)
            with pytest.raises(ValueError, match=r"^matrix must have integer entries$"):
                call(read([[2, 0], [0, Fraction(1, 2)]]))
        with pytest.raises(ValueError, match=r"^matrix must be 3x3$"):
            gl_conjugation_on_ia(read([[1, 0], [0, 1]]), 3, 2)
        with pytest.raises(ValueError, match=r"^matrix must be 3x3$"):
            gl_conjugation_on_ia(read([[2, 0], [0, 1]]), 3, 2)  # the size is checked before unimodularity
        with pytest.raises(ValueError, match=r"^matrix must be unimodular, determinant is -3$"):
            gl_conjugation_on_ia(read([[1, 1], [2, -1]]), 2, 1)


def test_gl_entry_points_read_rows_and_matrices_alike():
    rng = random.Random(23)
    for n, c in ((2, 3), (3, 2)):
        for _ in range(3):
            rows = random_unimodular(rng, n)
            m = RationalMatrix.from_rows(rows)
            # the same entries inserted in another order
            shuffled = RationalMatrix(n, n, dict(reversed(list(m.entries.items()))))
            for matrix in (m, shuffled):
                assert automorphism_from_gl(matrix, c) == automorphism_from_gl(rows, c)
                assert gl_conjugation_on_ia(matrix, n, c) == gl_conjugation_on_ia(rows, n, c)


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
    rhs = derivation_from_images(algebra, f).matrix + derivation_from_images(algebra, g).matrix
    assert lhs.matrix == rhs


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


@st.composite
def derivations_and_pairs(draw):
    """A derivation of F(r, c), r <= 3, c <= 4, from random generator images, and two random elements."""
    # class 3 at least: at class 2, D[a, b] lies in degree 3 and is always zero
    algebra = free_nilpotent_lie(draw(st.integers(2, 3)), draw(st.integers(3, 4)))
    basis = algebra.hall
    values = st.fractions(min_value=-20, max_value=20, max_denominator=6).filter(bool)
    higher = st.sampled_from([w for w in basis.elements if len(w) >= 2])
    image = st.dictionaries(higher, values, min_size=1, max_size=4)
    images = draw(st.dictionaries(st.integers(0, basis.rank - 1), image, min_size=1))
    d = derivation_from_images(algebra, {i: LieElement(basis, coords) for i, coords in images.items()})
    # half the words from degrees <= c - 2, where D[a, b] can be nonzero
    low = [w for w in basis.elements if len(w) <= basis.cls - 2]
    words = st.one_of(st.sampled_from(low), st.sampled_from(basis.elements))
    a, b = (LieElement(basis, draw(st.dictionaries(words, values, min_size=1, max_size=6))) for _ in range(2))
    return d, a, b


def apply_derivation(d, x):
    image = d.matrix.mul_vector([x.coords.get(w, 0) for w in x.basis.elements])
    return LieElement(x.basis, {w: q for w, q in zip(x.basis.elements, image) if q})


@settings(derandomize=True, deadline=None, max_examples=50)
@given(derivations_and_pairs())
def test_random_derivation_obeys_leibniz_on_random_elements(case):
    # D[a, b] = [Da, b] + [a, Db], with both sides bracketed by free_lie.bracket,
    # apart from the basis-pair check DerivationMatrix makes when it is built
    d, a, b = case
    expected = bracket(apply_derivation(d, a), b) + bracket(a, apply_derivation(d, b))
    assert apply_derivation(d, bracket(a, b)) == expected


def word_route_derivation(algebra, images):
    """Matrix entries of the derivation extending ``images``, one LieElement per basis word.

    The reference route: D[e_u, e_v] = [D e_u, e_v] + [e_u, D e_v] through
    bracket and LieElement addition along the standard factorizations.
    """
    basis = algebra.hall
    memo = {}
    entries = {}
    for col, word in enumerate(basis.elements):
        if len(word) == 1:
            value = images.get(col, LieElement(basis))
        else:
            u, v = basis.factorization[word]
            value = bracket(memo[u], LieElement(basis, {v: 1})) + bracket(LieElement(basis, {u: 1}), memo[v])
        memo[word] = value
        for w, q in value.coords.items():
            entries[(basis.index[w], col)] = q
    return entries


def test_derivation_from_images_matches_word_route():
    for r, c in ((2, 3), (3, 3), (3, 4)):
        algebra = free_nilpotent_lie(r, c)
        basis = algebra.hall
        for i, w in ia_basis_pairs(r, c):
            images = {i: LieElement(basis, {w: 1})}
            assert derivation_from_images(algebra, images).matrix.entries == word_route_derivation(algebra, images)
    rng = random.Random(4099)
    for r, c in ((2, 4), (3, 3), (2, 5), (3, 4)):
        algebra = free_nilpotent_lie(r, c)
        basis = algebra.hall
        higher = [w for w in basis.elements if len(w) >= 2]
        for _ in range(3):
            images = {
                pos: LieElement(basis, {w: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for w in rng.sample(higher, 3)})
                for pos in rng.sample(range(r), rng.randint(1, r))
            }
            assert derivation_from_images(algebra, images).matrix.entries == word_route_derivation(algebra, images)


def test_exp_derivation():
    algebra = free_nilpotent_lie(2, 3)
    basis = algebra.hall
    zero = derivation_from_images(algebra, {})
    assert exp_derivation(zero).is_identity
    d = derivation_from_images(
        algebra, {0: LieElement(basis, {(1, 2): 1}), 1: LieElement(basis, {(1, 1, 2): 1})}
    )
    auto = exp_derivation(d)
    neg = DerivationMatrix(algebra, d.matrix.scaled(-1))
    assert auto.matrix @ exp_derivation(neg).matrix == RationalMatrix.identity(algebra.dim)
    # degree-1 block is the identity (higher-degree rows may be populated)
    for i in range(2):
        col = auto.matrix.columns()[i]
        assert {k: v for k, v in col.items() if algebra.degree(k) == 1} == {i: Fraction(1)}


def test_exp_commuting_derivations():
    algebra = free_nilpotent_lie(2, 3)
    basis = algebra.hall
    # images in the top layer commute: compositions vanish
    d = derivation_from_images(algebra, {0: LieElement(basis, {(1, 1, 2): 1})})
    e = derivation_from_images(algebra, {1: LieElement(basis, {(1, 2, 2): 3})})
    assert (d.matrix @ e.matrix).is_zero and (e.matrix @ d.matrix).is_zero
    lhs = exp_derivation(d).matrix @ exp_derivation(e).matrix
    rhs = exp_derivation(DerivationMatrix(algebra, d.matrix + e.matrix)).matrix
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
    n = auto.matrix + RationalMatrix.identity(algebra.dim).scaled(-1)
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


# Betti numbers by degree and the sha256 of repr([list(table.items()) for each degree])
# of the ia_betti tables, as computed before generator symmetry was certified for IA
# algebras, when every weight block was ranked.
IA_BETTI_PINNED = {
    (2, 3): ([1, 5, 11, 14, 11, 5, 1], "36dbc1021e305e9a61875a553fd6a00790cc39fa2e1e11af49f9fa5a0ad70722"),
    (2, 4): ([1, 9, 38, 101, 191, 274, 308, 274, 191, 101, 38, 9, 1],
             "5b27974adb37498a3d06bc2976b6af5a04c6993c937fac5aee6c635a450181de"),
    (3, 2): ([1, 9, 36, 84, 126, 126, 84, 36, 9, 1], "790abb7eee81f7eb489c11fb689e039a1b59b4e1b06bd29603bdac02f728e0e1"),
    (3, 3): ([1, 15, 165, 1436, 9438], "16648159d5e7ceae620e4cb73fea2246888711a713fbbf706827bb1d5b047395"),
    (3, 4): ([1, 25, 445], "eb522fa6ec8ad2328078ccd4933e631551daec29acf0f6133a4e4b29cdef4d16"),
}


def test_ia_betti_tables_pinned():
    # items and order of every table; (3, 3) and (3, 4) stop where the
    # degrees get expensive (degree 5 of IA(3, 3) lists a million wedges)
    for (r, c), (bettis, digest) in IA_BETTI_PINNED.items():
        tables = [ia_betti(r, c, q) for q in range(len(bettis))]
        assert [total for total, _ in tables] == bettis
        assert hashlib.sha256(repr([list(t.items()) for _, t in tables]).encode()).hexdigest() == digest


def test_ia_betti_builds_its_table_once(monkeypatch):
    # the dimension is the sum of the weight table, so the table is built
    # once and betti_number, which would build it again, is not called
    builds = []

    def counted(g, q):
        builds.append(q)
        return lie_homology.weighted_betti(g, q)

    def refuse(g, q):
        raise AssertionError("ia_betti called betti_number")

    monkeypatch.setattr(aut, "betti_number", refuse)
    monkeypatch.setattr(aut, "weighted_betti", counted)
    total, table = ia_betti(3, 3, 2)
    assert builds == [2]
    assert total == 165 == sum(table.values())
    digest = hashlib.sha256(repr(list(table.items())).encode()).hexdigest()
    assert digest == "a6fc10b00eee71a27cee85d49af25bcc55b0f0e8dce72c03025bc8e0ed2636a7"


def test_ia_first_homology_is_cut_out_by_morita_traces():
    # for r >= 3, H_1(IA(r, c)) is H* ⊗ Λ²H ⊕ S²H ⊕ ... ⊕ S^{c-1}H, each
    # irreducible once: the cokernel of the bracket in each degree k = 2..c-1
    # is S^k H, what Morita's trace Tr_k detects (Duke Math. J. 70, 1993).
    # At rank 2, IA(2,5) adds det², which needs q(c - 1) >= 2r, met at q = 1.
    cases = {
        (r, c): {(1,) + (0,) * (r - 1): 1, (1, 1) + (0,) * (r - 3) + (-1,): 1}
        | {(k,) + (0,) * (r - 1): 1 for k in range(2, c)}
        for r, c in ((3, 3), (4, 3), (3, 4))
    }
    cases[2, 5] = {(4, 0): 1, (3, 0): 1, (2, 2): 1, (2, 0): 1, (1, 0): 1}
    for (r, c), expected in cases.items():
        g = ia_lie_algebra(r, c)
        total, table = ia_betti(r, c, 1)
        assert rep._weyl_multiplicities(rep.WeightModule(r, table)) == expected
        assert total == g.dim - lower_central_series_dims(g)[1]  # b_1 = dim g/[g, g]


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
            assert conj.columns()[col] == {col: Fraction((-1) ** exponent)}


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
    # against the definition, A D A^-1 on every basis derivation D
    rng = random.Random(6151)
    for r in range(1, 5):
        for c in range(1, 5):
            mats = [random_signed_unimodular(rng, r) for _ in range(3 if r * c <= 9 else 1)]
            for mat, want in zip(mats, _conjugation_by_definition(mats, r, c)):
                assert gl_conjugation_on_ia(mat, r, c) == want


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


def test_certified_constructors_take_no_check_switch():
    # an algebra, automorphism or derivation has one construction path, and it certifies
    algebra = free_nilpotent_lie(2, 2)
    eye = RationalMatrix.identity(algebra.dim)
    with pytest.raises(TypeError):
        GradedLieAlgebra(algebra.labels, algebra.weights, algebra.brackets, 2, check=False)
    with pytest.raises(TypeError):
        LieAutomorphism(algebra, eye, check=False)
    with pytest.raises(TypeError):
        DerivationMatrix(algebra, RationalMatrix(algebra.dim, algebra.dim), check=False)


def test_aut_input_error_messages():
    algebra = free_nilpotent_lie(2, 2)
    basis = algebra.hall
    x12 = basis.index[(1, 2)]
    with pytest.raises(ValueError, match=r"^matrix shape does not match the algebra dimension$"):
        LieAutomorphism(algebra, RationalMatrix.identity(2))
    with pytest.raises(ValueError, match=r"^matrix shape does not match the algebra dimension$"):
        DerivationMatrix(algebra, RationalMatrix(3, 2))
    lowering = RationalMatrix(3, 3, {(0, 0): 1, (1, 1): 1, (x12, x12): 1, (0, x12): 1})
    with pytest.raises(ValueError, match=r"^matrix does not respect the degree filtration$"):
        LieAutomorphism(algebra, lowering)
    with pytest.raises(ValueError, match=r"^automorphisms live on different algebras$"):
        automorphism_from_gl([[1, 0], [0, 1]], 2).compose(automorphism_from_gl([[1, 0], [0, 1]], 3))
    with pytest.raises(ValueError, match=r"^derivation is not strictly filtration-raising$"):
        DerivationMatrix(algebra, RationalMatrix(3, 3, {(1, 0): 1}))
    with pytest.raises(ValueError, match=r"^derivations need a free nilpotent algebra with a word basis$"):
        derivation_from_images(ia_lie_algebra(2, 2), {})
    with pytest.raises(ValueError, match=r"^generator index 2 outside 0\.\.1$"):
        derivation_from_images(algebra, {2: LieElement(basis, {(1, 2): 1})})
    with pytest.raises(ValueError, match=r"^image lives over a different basis$"):
        derivation_from_images(algebra, {0: LieElement(hall_basis(2, 3), {(1, 2): 1})})
    with pytest.raises(ValueError, match=r"^generator images must have coordinates in degrees 2\.\.c only$"):
        derivation_from_images(algebra, {0: LieElement(basis, {(2,): 1})})
    with pytest.raises(ValueError, match=r"^rank must be at least 1$"):
        ia_lie_algebra(0, 2)
    with pytest.raises(ValueError, match=r"^class must be at least 1$"):
        ia_lie_algebra(2, 0)


def first_failing_pair(algebra, matrix, derivation):
    """The first basis pair (i, j), i < j, least i then least j, on which the map's identity fails.

    The textbook check in plain Fraction arithmetic, apart from the one the
    constructors make: phi[e_i, e_j] = [phi e_i, phi e_j] for an
    automorphism, D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j] for a derivation.
    None when every pair passes.
    """
    m = algebra.dim
    cols = [{} for _ in range(m)]
    for (a, j), q in matrix.entries.items():
        cols[j][a] = q

    def add(out, vec, c):
        for k, q in vec.items():
            out[k] = out.get(k, 0) + c * q

    def image(vec):
        out = {}
        for k, q in vec.items():
            add(out, cols[k], q)
        return {k: q for k, q in out.items() if q}

    def bracket_of(u, v):
        out = {}
        for a, p in u.items():
            for b, q in v.items():
                add(out, algebra.bracket_basis(a, b), p * q)
        return {k: q for k, q in out.items() if q}

    for i in range(m):
        for j in range(i + 1, m):
            left = image(algebra.bracket_basis(i, j))
            if derivation:
                right = bracket_of(cols[i], {j: 1})
                add(right, bracket_of({i: 1}, cols[j]), 1)
                right = {k: q for k, q in right.items() if q}
            else:
                right = bracket_of(cols[i], cols[j])
            if left != right:
                return i, j
    return None


def rebased(algebra, matrix, s):
    """The algebra and the matrix on the basis e'_i = s_i e_i; the brackets gain denominators."""
    brackets = {(i, j): {k: q * s[i] * s[j] / s[k] for k, q in vec.items()}
                for (i, j), vec in algebra.brackets.items()}
    h = GradedLieAlgebra(algebra.labels, algebra.weights, brackets, weight_length=algebra.weight_length)
    return h, RationalMatrix(matrix.rows, matrix.cols, {(a, b): q * s[b] / s[a] for (a, b), q in matrix.entries.items()})


def certificate_cases():
    """(algebra, valid matrix, derivation?) for automorphisms and derivations of several algebras."""
    rng = random.Random(7451)
    cases = []
    for r, c in ((2, 4), (3, 3), (3, 4)):
        algebra = free_nilpotent_lie(r, c)
        basis = algebra.hall
        higher = [w for w in basis.elements if len(w) >= 2]
        for _ in range(2):
            images = {pos: LieElement(basis, {w: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                                              for w in rng.sample(higher, 3)})
                      for pos in rng.sample(range(r), rng.randint(1, r))}
            d = derivation_from_images(algebra, images)
            cases.append((algebra, d.matrix, True))
            cases.append((algebra, exp_derivation(d).matrix, False))  # entries with denominators: L > 1
        cases.append((algebra, automorphism_from_gl(random_signed_unimodular(rng, r), c).matrix, False))
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    cases.append((ia_lie_algebra(3, 3), gl_conjugation_on_ia(swap, 3, 3), False))
    # fractional structure constants: S > 1
    for algebra, matrix, derivation in cases[:4]:
        s = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(algebra.dim)]
        cases.append((*rebased(algebra, matrix, s), derivation))
    return cases


def mutated(rng, algebra, matrix, derivation):
    """The matrix with one entry moved by a random rational, keeping the filtration condition."""
    entries = dict(matrix.entries)
    lowest = 1 if derivation else 0
    if entries and rng.random() < 0.5:
        row, col = rng.choice(sorted(entries))
        if rng.random() < 0.5:  # a nearby slot of the same degree shape
            col = rng.choice([j for j in range(algebra.dim) if algebra.degree(row) - algebra.degree(j) >= lowest])
    else:
        row, col = rng.choice([(a, b) for a in range(algebra.dim) for b in range(algebra.dim)
                               if algebra.degree(a) - algebra.degree(b) >= lowest])
    entries[(row, col)] = entries.get((row, col), 0) + Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 2))
    return RationalMatrix(matrix.rows, matrix.cols, entries)


def test_certificate_agrees_with_per_pair_fraction_oracle():
    # the constructors accept a matrix exactly when the textbook check does,
    # and a rejection names the same first failing pair
    rng = random.Random(9173)
    counts = {"accepted": 0, "rejected": 0}
    for algebra, valid, derivation in certificate_cases():
        make = DerivationMatrix if derivation else LieAutomorphism
        assert first_failing_pair(algebra, valid, derivation) is None
        make(algebra, valid)
        failure = "Leibniz rule fails" if derivation else "brackets are not preserved"
        for _ in range(12):
            matrix = mutated(rng, algebra, valid, derivation)
            if not derivation and rank(matrix) < algebra.dim:
                continue  # the invertibility check answers first
            pair = first_failing_pair(algebra, matrix, derivation)
            if pair is None:
                make(algebra, matrix)
                counts["accepted"] += 1
            else:
                with pytest.raises(ValueError, match=rf"^{failure} on basis pair \({pair[0]}, {pair[1]}\)$"):
                    make(algebra, matrix)
                counts["rejected"] += 1
        if derivation:  # a sum of derivations passes
            assert first_failing_pair(algebra, valid + valid.scaled(Fraction(-3, 2)), True) is None
            make(algebra, valid + valid.scaled(Fraction(-3, 2)))
            counts["accepted"] += 1
    assert counts["rejected"] > 100 and counts["accepted"] > 10
