"""Representation calculus: weights, actions, Weyl multiplicities, coinvariants, degree."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from nilhom.exact_linalg import RationalMatrix, determinant, rank as matrix_rank
from nilhom.free_lie import _mobius, hall_basis, witt_dimension
from nilhom import rep
from nilhom.rep import (
    Const,
    DualStd,
    HomStd,
    Lie,
    NotCharacterError,
    Std,
    Sum,
    Tensor,
    Wedge,
    WeightModule,
    action_matrix,
    coinvariants_dim,
    degree_estimate,
    evaluate,
    lie_interval,
    parse_expr,
    schur_decompose_gl2,
    weight_dominance_compare,
)


def test_evaluate_basic():
    std = evaluate(Std(), 3)
    assert std.dimension == 3
    assert std.weights == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    dual = evaluate(DualStd(), 2)
    assert dual.weights == {(-1, 0): 1, (0, -1): 1}
    assert evaluate(Const(4), 2).weights == {(0, 0): 4}


def test_evaluate_lie_layers():
    lie2 = evaluate(Lie(2), 2)
    assert lie2.dimension == 1 and lie2.weights == {(1, 1): 1}
    hom = evaluate(HomStd(Lie(2)), 2)
    assert hom.dimension == 2
    assert hom.weights == {(0, 1): 1, (1, 0): 1}
    for r in (2, 3):
        for b in (1, 2, 3):
            assert evaluate(Lie(b), r).dimension == witt_dimension(r, b)


def test_lie_weights_match_the_hall_basis():
    # the multigraded Witt formula against counting Lyndon words by multiweight
    for r in range(1, 5):
        basis = hall_basis(r, 8)
        for n in range(1, 9):
            expected = {}
            for w in basis.elements_of_degree(n):
                key = basis.multiweight(w)
                expected[key] = expected.get(key, 0) + 1
            assert evaluate(Lie(n), r).weights == expected
    # hall_basis(3, 30) would hold 10,478,769,592,560 Lyndon words
    assert evaluate(Lie(30), 3).dimension == witt_dimension(3, 30)
    assert coinvariants_dim(Lie(30), 3) == 254_862_356


def test_lie_weights_match_the_factorial_formula():
    # the multigraded Witt formula with every multinomial taken from factorials,
    # weights in lexicographic order, against the multinomials built step by step
    for r in range(1, 5):
        for n in range(1, 31):
            expected = []
            for head in product(range(n + 1), repeat=r - 1):
                if sum(head) <= n:
                    w = (*head, n - sum(head))
                    top = gcd(*w)
                    count = sum(
                        _mobius(d) * factorial(n // d) // prod(factorial(x // d) for x in w)
                        for d in range(1, top + 1) if top % d == 0
                    ) // n
                    if count:
                        expected.append((w, count))
            weights = rep._weights(Lie(n), r)
            assert list(weights.items()) == expected
            assert sum(weights.values()) == witt_dimension(r, n)


def test_lie_layer_with_too_many_weights_is_refused_before_listing(monkeypatch):
    # Lie(n) at rank r lists the C(n + r - 1, r - 1) weights of total n: at the
    # limit it is counted, one weight above it is refused
    assert comb(30 + 2, 2) == 496 <= rep._MAX_LIE_WEIGHTS
    expected = evaluate(Lie(6), 3).weights
    monkeypatch.setattr(rep, "_MAX_LIE_WEIGHTS", comb(6 + 2, 2))
    assert evaluate(Lie(6), 3).weights == expected
    monkeypatch.setattr(rep, "_MAX_LIE_WEIGHTS", comb(6 + 2, 2) - 1)
    with pytest.raises(ValueError, match=r"^lie\(6\) at rank 3 has 28 weights of total 6, above the limit of 27$"):
        evaluate(Lie(6), 3)


def test_lie_layer_whose_counts_hold_too_many_bits_is_refused(monkeypatch):
    # Lie(6) at rank 3: 28 counts, each below 3^6 and so of at most 6 * 2 bits
    assert 28 * 12 == 336 <= rep._MAX_LIE_BITS
    expected = evaluate(Lie(6), 3).weights
    monkeypatch.setattr(rep, "_MAX_LIE_BITS", 336)
    assert evaluate(Lie(6), 3).weights == expected
    assert max(expected.values()).bit_length() <= 12
    monkeypatch.setattr(rep, "_MAX_LIE_BITS", 335)
    with pytest.raises(
        ValueError, match=r"^lie\(6\) at rank 3 holds 28 counts of up to 12 bits, above the limit of 335 bits in all$"
    ):
        evaluate(Lie(6), 3)


def test_evaluate_interval_and_combinators():
    assert lie_interval(2, 2) == Lie(2)
    assert parse_expr("lie[2..2]") == Lie(2)
    assert evaluate(lie_interval(2, 3), 2).dimension == 3
    assert evaluate(lie_interval(1, 3), 3).dimension == sum(
        witt_dimension(3, b) for b in (1, 2, 3)
    )
    with pytest.raises(ValueError):
        lie_interval(3, 2)
    left, right = Std(), HomStd(Lie(2))
    tensored = evaluate(Tensor(left, right), 2)
    assert tensored.dimension == evaluate(left, 2).dimension * evaluate(right, 2).dimension
    summed = evaluate(Sum(left, right), 2)
    assert summed.dimension == evaluate(left, 2).dimension + evaluate(right, 2).dimension


def test_wedge_dimensions_binomial():
    for q in range(5):
        assert evaluate(Wedge(q, Std()), 3).dimension == comb(3, q)
    assert evaluate(Wedge(2, Std()), 2).weights == {(1, 1): 1}
    # a power above the dimension, and a power of a huge constant, are counted, not listed
    assert evaluate(Wedge(2**61, Std()), 2).dimension == 0
    assert evaluate(Wedge(2, Const(2**61)), 2).weights == {(0, 0): comb(2**61, 2)}
    # one weight class: only layer 0 is nonempty when it is visited, so each layer takes one step
    assert evaluate(Wedge(2000, Const(4000)), 2).weights == {(0, 0): comb(4000, 2000)}


def test_wedge_of_hom_is_counted_without_listing():
    # the 1,107,568 wedges of Lambda^6 Hom(H, L_2 + L_3) at rank 3
    expr = Wedge(6, HomStd(lie_interval(2, 3)))
    assert evaluate(expr, 3).dimension == comb(33, 6)
    assert coinvariants_dim(expr, 3) == 38


def test_tensor_weight_convolution():
    a = evaluate(Std(), 2)
    b = evaluate(DualStd(), 2)
    t = evaluate(Tensor(Std(), DualStd()), 2)
    conv = {}
    for wa, ma in a.weights.items():
        for wb, mb in b.weights.items():
            w = tuple(x + y for x, y in zip(wa, wb))
            conv[w] = conv.get(w, 0) + ma * mb
    assert t.weights == conv


def test_dominance_compare():
    a = evaluate(Std(), 2)
    assert weight_dominance_compare(a, a).holds
    zero = WeightModule(2, {})
    assert weight_dominance_compare(zero, a).holds
    big = evaluate(Tensor(Std(), Std()), 2)
    small = evaluate(Wedge(2, Std()), 2)
    report = weight_dominance_compare(big, small)
    assert not report.holds
    assert ((2, 0), 1, 0) in report.violations
    with pytest.raises(ValueError):
        weight_dominance_compare(evaluate(Std(), 2), evaluate(Std(), 3))


def test_schur_examples():
    assert schur_decompose_gl2(evaluate(Wedge(2, Std()), 2)) == {(1, 1): 1}
    assert schur_decompose_gl2(evaluate(Tensor(Std(), Std()), 2)) == {(2, 0): 1, (1, 1): 1}
    assert schur_decompose_gl2(evaluate(HomStd(Lie(2)), 2)) == {(1, 0): 1}


def test_schur_reconstruction():
    for expr in (
        Tensor(Std(), Std()),
        Wedge(2, HomStd(lie_interval(2, 3))),
        Tensor(HomStd(Lie(2)), Std()),
    ):
        module = evaluate(expr, 2)
        decomposition = schur_decompose_gl2(module)
        rebuilt = {}
        for (a, b), mult in decomposition.items():
            for k in range(a - b + 1):
                w = (a - k, b + k)
                rebuilt[w] = rebuilt.get(w, 0) + mult
        assert rebuilt == module.weights


def test_schur_rejects_non_characters():
    with pytest.raises(NotCharacterError):
        schur_decompose_gl2(WeightModule(2, {(1, 0): 1}))  # misses the (0,1) partner
    with pytest.raises(NotCharacterError):
        schur_decompose_gl2(WeightModule(2, {(0, 1): 1}))  # maximal weight not dominant
    with pytest.raises(NotCharacterError):
        # symmetric, but V(2,0) - V(1,1): negative only at a weight outside the support
        schur_decompose_gl2(WeightModule(2, {(2, 0): 1, (0, 2): 1}))
    with pytest.raises(TypeError, match="0.5"):
        WeightModule(2, {(1, 0.5): 1, (0.5, 1): 1})  # a weight entry that is not an int
    with pytest.raises(TypeError, match="1.5"):
        WeightModule(2, {(1, 0): 1.5, (0, 1): 1.5})  # a multiplicity that is not an int


def test_action_matrix_std_and_dual():
    a = [[1, 1], [0, 1]]
    assert action_matrix(Std(), a, 2) == RationalMatrix.from_rows(a)
    dual = action_matrix(DualStd(), a, 2)
    # inverse transpose of [[1,1],[0,1]] is [[1,0],[-1,1]]
    assert dual == RationalMatrix.from_rows([[1, 0], [-1, 1]])
    # compatibility: the pairing weight is preserved, dual(g) = (g^-1)^T
    assert action_matrix(Std(), a, 2).transpose() @ dual == RationalMatrix.identity(2)


def test_action_matrix_multiplicative():
    a = [[1, 1], [0, 1]]
    b = [[0, 1], [1, 0]]
    ab = [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    for expr in (Std(), DualStd(), Lie(2), Wedge(2, HomStd(lie_interval(2, 3))), HomStd(Lie(3))):
        lhs = action_matrix(expr, ab, 2)
        rhs = action_matrix(expr, a, 2) @ action_matrix(expr, b, 2)
        assert lhs == rhs


def test_wedge_entries_are_minors():
    # each entry of Lambda^q(A) is the q x q minor of the inner action on the
    # matching row and column combinations, taken by the independent
    # elimination determinant
    rng = random.Random(2016)
    cases = [  # (expression, rank, whether singular matrices may act)
        (Std(), 2, True),
        (Lie(2), 2, True),
        (Sum(Std(), Lie(2)), 2, True),
        (HomStd(Lie(2)), 2, False),
        (Std(), 3, True),
        (Lie(2), 3, True),
        (Sum(Std(), Lie(2)), 3, True),
    ]
    singular_seen = 0
    for expr, r, singular_ok in cases:
        mats = []
        while len(mats) < 3:
            a = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)]
            if singular_ok and not mats:
                a[-1] = [2 * x for x in a[0]]  # one singular matrix per case at least
            singular = determinant(RationalMatrix.from_rows(a)) == 0
            if singular and not singular_ok:
                continue
            singular_seen += singular
            mats.append(a)
        for a in mats:
            inner = action_matrix(expr, a, r)
            n = inner.rows
            for q in range(4):
                outer = action_matrix(Wedge(q, expr), a, r)
                combos = list(combinations(range(n), q))
                assert (outer.rows, outer.cols) == (len(combos), len(combos))
                for i, rows_ in enumerate(combos):
                    for j, cols_ in enumerate(combos):
                        minor = [[inner.entry(x, y) for y in cols_] for x in rows_]
                        assert outer.entry(i, j) == determinant(RationalMatrix.from_rows(minor))
            # edge cases: the top power is [det], the zeroth is [[1]], beyond the top is 0 x 0
            top = action_matrix(Wedge(n, expr), a, r)
            assert top == RationalMatrix(1, 1, {(0, 0): determinant(inner)})
            assert action_matrix(Wedge(0, expr), a, r) == RationalMatrix.identity(1)
            assert action_matrix(Wedge(n + 1, expr), a, r) == RationalMatrix(0, 0)
            assert action_matrix(Wedge(2**61, expr), a, r) == RationalMatrix(0, 0)
    assert singular_seen >= 6


def test_coinvariants_examples():
    assert coinvariants_dim(Const(1), 2) == 1
    assert coinvariants_dim(Const(5), 3) == 5
    for r in (2, 3):
        assert coinvariants_dim(Std(), r) == 0
        assert coinvariants_dim(Wedge(2, Std()), r) == 0
        assert coinvariants_dim(Lie(2), r) == 0
        assert coinvariants_dim(HomStd(Lie(2)), r) == 0
    with pytest.raises(ValueError):
        coinvariants_dim(Std(), 1)


def matrix_coinvariants(expr, r, reflection=True):
    """dim V minus the rank of (g - 1) stacked over generators g of GL_r(Z).

    The generators are the elementary matrices E_ij(1), i != j, which
    generate SL_r(Z), and, unless ``reflection`` is False, diag(-1, 1, ..., 1).
    """
    gens = [
        [[int(a == b or (a, b) == (i, j)) for b in range(r)] for a in range(r)]
        for i in range(r)
        for j in range(r)
        if i != j
    ]
    if reflection:
        gens.append([[(-1 if a == 0 else 1) if a == b else 0 for b in range(r)] for a in range(r)])
    dim = evaluate(expr, r).dimension
    if dim == 0:
        return 0
    minus_eye = RationalMatrix.identity(dim).scaled(-1)
    return dim - matrix_rank(RationalMatrix.vstack([(action_matrix(expr, g, r) + minus_eye).transpose() for g in gens]))


def test_coinvariants_reflection_matters():
    # Lambda^r of the standard representation is the determinant: SL acts
    # trivially, the reflection by -1, so coinvariants vanish only with it
    assert coinvariants_dim(Wedge(2, Std()), 2) == 0
    assert matrix_coinvariants(Wedge(2, Std()), 2) == 0
    assert matrix_coinvariants(Wedge(2, Std()), 2, reflection=False) == 1  # SL-invariant line survives


ORACLE_EXPRS = (
    "const(1)",
    "const(3)",
    "std",
    "dual",
    "lie(2)",
    "lie(3)",
    "wedge(2, std)",
    "tensor(std, std)",
    "tensor(std, dual)",
    "hom(std, std)",
    "sum(const(2), tensor(std, dual))",
    "tensor(wedge(2, std), wedge(2, std))",
    "tensor(wedge(2, dual), wedge(2, dual))",
    "tensor(wedge(2, std), wedge(2, dual))",
    "tensor(wedge(3, std), wedge(3, std))",
    "tensor(lie(2), wedge(2, dual))",
    "wedge(2, tensor(std, dual))",
    "wedge(3, tensor(std, dual))",
    "tensor(tensor(std, std), tensor(dual, dual))",
    "wedge(2, hom(std, lie(2)))",
    "hom(std, lie[2..3])",
)


def test_coinvariants_match_matrix_route():
    nonzero = 0
    for text in ORACLE_EXPRS:
        for r in (2, 3):
            expr = parse_expr(text)
            expected = matrix_coinvariants(expr, r)
            assert coinvariants_dim(expr, r) == expected, (text, r)
            nonzero += expected != 0
    assert nonzero >= 8


def weyl_dimension(lam):
    r = len(lam)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    num = prod(lam[i] - lam[j] + j - i for i, j in pairs)
    return num // prod(j - i for i, j in pairs)


def expr_dimension(expr, r):
    if isinstance(expr, (Std, DualStd)):
        return r
    if isinstance(expr, Const):
        return expr.dimension
    if isinstance(expr, Lie):
        return witt_dimension(r, expr.degree)
    if isinstance(expr, Wedge):
        return comb(expr_dimension(expr.inner, r), expr.power)
    if isinstance(expr, Tensor):
        return expr_dimension(expr.left, r) * expr_dimension(expr.right, r)
    if isinstance(expr, Sum):
        return expr_dimension(expr.left, r) + expr_dimension(expr.right, r)
    raise TypeError(f"not a representation expression: {expr!r}")


LEAVES = st.one_of(
    st.just(Std()),
    st.just(DualStd()),
    st.builds(Const, st.integers(0, 2)),
    st.builds(Lie, st.integers(1, 3)),
)
EXPRS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.builds(Wedge, st.integers(0, 3), inner),
        st.builds(Tensor, inner, inner),
        st.builds(Sum, inner, inner),
        st.builds(HomStd, inner),
    ),
    max_leaves=4,
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(EXPRS, st.sampled_from((2, 3)))
def test_weyl_multiplicities_on_random_expressions(expr, r):
    assume(expr_dimension(expr, r) <= 120)
    module = evaluate(expr, r)
    multiplicities = rep._weyl_multiplicities(module)  # raises on a non-character
    if r == 3:
        assert sum(m * weyl_dimension(lam) for lam, m in multiplicities.items()) == module.dimension
    assert coinvariants_dim(expr, r) == matrix_coinvariants(expr, r)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(EXPRS, st.sampled_from((2, 3)))
def test_diagonal_action_has_the_evaluated_weights(expr, r):
    # diag(2, 3[, 5]) scales a vector of weight w by prod p_i^w_i, distinct
    # for distinct weights; the action matrix, which builds its own basis,
    # is diagonal with exactly these eigenvalues, counted by evaluate
    n = expr_dimension(expr, r)
    assume(n <= 120)
    primes = (2, 3, 5)[:r]
    action = action_matrix(expr, [[p if i == j else 0 for j in range(r)] for i, p in enumerate(primes)], r)
    assert (action.rows, action.cols) == (n, n)
    assert all(i == j for i, j in action.entries)
    eigenvalues = [action.entry(i, i) for i in range(n)]
    expected = [
        prod(Fraction(p) ** x for p, x in zip(primes, w))
        for w, mult in evaluate(expr, r).weights.items()
        for _ in range(mult)
    ]
    assert sorted(eigenvalues) == sorted(expected)


def test_degree_estimate():
    assert degree_estimate([0, 1, 2, 3, 4]) == (1, True)
    assert degree_estimate([7, 7, 7]) == (0, True)
    assert degree_estimate([0, 1]) == (1, False)  # exhausted window
    quadratic = [r * r for r in range(6)]
    est, ok = degree_estimate(quadratic)
    assert est == 2 and ok
    with pytest.raises(ValueError):
        degree_estimate([3])
    # a dimension is an integer: no silent truncation of 1/2 or 2.5
    with pytest.raises(TypeError):
        degree_estimate([0, Fraction(1, 2), 1])
    with pytest.raises(TypeError):
        degree_estimate([0, 2.5, 5])


def test_parse_and_print():
    expr = parse_expr("wedge(2, hom(std, lie[2..3]))")
    assert expr == Wedge(2, HomStd(lie_interval(2, 3)))
    # Hom(std, V) is std* tensor V, built, not a node of its own
    assert parse_expr("hom(std, lie(2))") == HomStd(Lie(2)) == Tensor(DualStd(), Lie(2))
    assert parse_expr("tensor(std, dual)") == Tensor(Std(), DualStd())
    assert parse_expr("sum(const(2), lie(4))") == Sum(Const(2), Lie(4))
    for text, message in [
        ("wedge(2", "unexpected end of expression"),
        ("", "unexpected end of expression"),
        ("frobenius(std)", "unknown constructor 'frobenius'"),
        ("std extra", "trailing input from 'extra'"),
        ("hom(dual, std)", "expected 'std', found 'dual'"),
        ("lie[2..]", "expected an integer, found ']'"),
        ("lie(x)", "expected an integer, found 'x'"),
        ("const()", "expected an integer, found '\\)'"),
        ("lie[3..2]", "empty degree interval"),
        ("@", "cannot tokenize '@'"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_expr(text)


def test_weight_module_validation():
    with pytest.raises(ValueError):
        WeightModule(2, {(1, 0): -1})
    with pytest.raises(ValueError):
        WeightModule(2, {(1, 0, 0): 1})


def test_action_matrix_input_error_messages():
    # the matrix is checked once, at entry, whatever the expression; its
    # entries are read before the row lengths, and both before the size
    for expr in (Std(), Lie(2), Wedge(2, Std()), HomStd(lie_interval(2, 3))):
        with pytest.raises(ValueError, match=r"^matrix must be 2x2$"):
            action_matrix(expr, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
        with pytest.raises(ValueError, match=r"^matrix must be 2x2$"):
            action_matrix(expr, [[1]], 2)
        with pytest.raises(ValueError, match=r"^ragged rows$"):
            action_matrix(expr, [[1, 0], [0]], 2)
        with pytest.raises(ValueError, match=r"^ragged rows$"):
            action_matrix(expr, [[1, 0, 0], [0]], 2)
        with pytest.raises(TypeError, match=r"^exact arithmetic only: cannot accept float$"):
            action_matrix(expr, [[1.0, 0], [0, 1]], 2)
        with pytest.raises(TypeError, match=r"^exact arithmetic only: cannot accept float$"):
            action_matrix(expr, [[1, 0], [0.5]], 2)
        # a RationalMatrix of the wrong shape gets the message nested rows of that shape get
        for rows in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1]], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]):
            with pytest.raises(ValueError, match=r"^matrix must be 2x2$"):
                action_matrix(expr, rows, 2)
            with pytest.raises(ValueError, match=r"^matrix must be 2x2$"):
                action_matrix(expr, RationalMatrix.from_rows(rows), 2)
    # a bad expression is reported only for a well-formed matrix
    with pytest.raises(ValueError, match=r"^matrix must be 2x2$"):
        action_matrix("std", [[1]], 2)
    with pytest.raises(TypeError, match=r"^not a representation expression: 'std'$"):
        action_matrix(Wedge(2, "std"), [[1, 0], [0, 1]], 2)


def test_action_matrix_reads_rows_and_matrices_alike():
    for rows in ([[2, 1], [1, 1]], [[0, 1], [1, 0]], [[Fraction(1, 2), 3], [0, -1]]):
        m = RationalMatrix.from_rows(rows)
        # the same entries inserted in another order
        shuffled = RationalMatrix(2, 2, dict(reversed(list(m.entries.items()))))
        for text in ("std", "dual", "lie[1..3]", "hom(std, lie[2..3])"):
            expr = parse_expr(text)
            want = action_matrix(expr, rows, 2)
            assert action_matrix(expr, m, 2) == want
            assert action_matrix(expr, shuffled, 2) == want
