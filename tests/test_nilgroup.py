"""Group law against the tensor exp/log route and the literature series, plus structure checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilhom.exact_linalg import RationalMatrix, rank
from nilhom.free_lie import (
    LieElement,
    _expansion_dict,
    _lie_coords_from_tensor,
    bracket,
    hall_basis,
    witt_dimension,
)
from nilhom.nilgroup import (
    MalcevElement,
    _tensor_exp,
    _tensor_log,
    _tensor_mul,
    adjoint_matrix,
    center_basis,
    group_commutator,
    group_generator,
    group_identity,
    inner_action,
    inverse,
    lcs_ranks,
    malcev_element,
    multiply,
)


def test_lie_and_group_elements_share_data_not_type():
    basis = hall_basis(2, 3)
    coords = {(1,): Fraction(1, 2), (1, 2): -3}
    lie = LieElement(basis, coords)
    group = malcev_element(basis, coords)
    assert repr(LieElement(basis)) == "LieElement(0)"
    assert repr(group_identity(basis)) == "MalcevElement(1)"
    assert repr(lie) == "LieElement(1/2*[1] + -3*[12])"
    assert repr(group) == "MalcevElement(exp(1/2*[1] + -3*[12]))"
    assert lie != group and group != lie
    assert group.log() == lie
    with pytest.raises(TypeError):
        group + group
    for element in (lie, group):
        with pytest.raises(AttributeError, match=f"^{type(element).__name__} is immutable$"):
            element.coords = {}


@pytest.mark.parametrize("cls", [LieElement, MalcevElement])
def test_element_constructor_checks_outside_input(cls):
    basis = hall_basis(2, 3)
    with pytest.raises(ValueError, match="is not a word of"):
        cls(basis, {(2, 1): 1})
    with pytest.raises(TypeError, match="exact arithmetic only"):
        cls(basis, {(1,): 0.5})
    element = cls(basis, [((1,), 1), ((1,), Fraction(1, 2)), ((2,), 3), ((2,), -3), ((1, 2), 0)])
    assert element.coords == {(1,): Fraction(3, 2)}
    assert type(element.coords[(1,)]) is Fraction


def bch_series_oracle(x, y):
    """Baker-Campbell-Hausdorff series through order 4, hard-coded coefficients.

    Independent of the exp/log route: uses only the Lie bracket.  Valid as
    an exact oracle for classes c <= 4.
    """

    def nc(*args):
        out = args[-1]
        for a in reversed(args[:-1]):
            out = bracket(a, out)
        return out

    z = x + y
    z += bracket(x, y).scaled(Fraction(1, 2))
    z += (nc(x, x, y) + nc(y, y, x)).scaled(Fraction(1, 12))
    z += nc(y, x, x, y).scaled(Fraction(-1, 24))
    return z


def tensor_multiply(u, v):
    """log(exp(u) exp(v)) by exponentiating, multiplying and taking the log in the tensor algebra."""
    cap = u.basis.cls
    eu = _tensor_exp(_expansion_dict(u.log()), cap)
    ev = _tensor_exp(_expansion_dict(v.log()), cap)
    z = _tensor_log(_tensor_mul(eu, ev, cap), cap)
    return malcev_element(u.basis, _lie_coords_from_tensor(u.basis, z))


def homogeneous_part(a, n):
    """The degree-n part of a Lie element."""
    return LieElement(a.basis, {w: q for w, q in a.coords.items() if len(w) == n})


def random_element(rng, basis):
    return malcev_element(
        basis,
        {w: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for w in basis.elements},
    )


def test_multiply_identity_and_inverse():
    basis = hall_basis(2, 3)
    e = group_identity(basis)
    rng = random.Random(8)
    for _ in range(5):
        u = random_element(rng, basis)
        assert multiply(u, e) == u
        assert multiply(e, u) == u
        assert multiply(u, inverse(u)).is_identity
        assert multiply(inverse(u), u).is_identity
    assert inverse(e) == e
    x1 = group_generator(basis, 1)
    assert inverse(x1).coords == {(1,): -1}


def test_multiply_class2_example():
    basis = hall_basis(2, 2)
    x1, x2 = group_generator(basis, 1), group_generator(basis, 2)
    product = multiply(x1, x2)
    assert product.coords == {(1,): 1, (2,): 1, (1, 2): Fraction(1, 2)}


def test_multiply_matches_series_oracle():
    rng = random.Random(12345)
    for r, c in ((2, 2), (2, 3), (3, 2), (2, 4)):
        basis = hall_basis(r, c)
        for _ in range(5):
            u = random_element(rng, basis)
            v = random_element(rng, basis)
            expected = bch_series_oracle(u.log(), v.log())
            assert multiply(u, v).log() == expected


def test_multiply_matches_tensor_route():
    rng = random.Random(2009)
    for r, c in ((1, 3), (2, 5), (3, 4), (4, 4), (2, 6)):
        basis = hall_basis(r, c)
        for _ in range(4):
            u, v = (
                malcev_element(
                    basis,
                    {
                        w: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
                        for w in basis.elements
                        if rng.random() < 0.5
                    },
                )
                for _ in range(2)
            )
            product, expected = multiply(u, v), tensor_multiply(u, v)
            assert list(product.coords.items()) == list(expected.coords.items())


def test_multiply_basis_mismatch():
    with pytest.raises(ValueError):
        multiply(group_generator(hall_basis(2, 2), 1), group_generator(hall_basis(2, 3), 1))


def test_group_commutator_examples():
    basis = hall_basis(2, 2)
    x1, x2 = group_generator(basis, 1), group_generator(basis, 2)
    assert group_commutator(x1, x1).is_identity
    assert group_commutator(x1, x2).coords == {(1, 2): 1}
    basis3 = hall_basis(2, 3)
    y1, y2 = group_generator(basis3, 1), group_generator(basis3, 2)
    assert group_commutator(y1, y2).coords[(1, 2)] == 1


def test_group_commutator_matches_bracket_on_degree_one():
    rng = random.Random(77)
    basis = hall_basis(3, 2)
    for _ in range(5):
        u = random_element(rng, basis)
        v = random_element(rng, basis)
        comm = group_commutator(u, v)
        expected = bracket(homogeneous_part(u.log(), 1), homogeneous_part(v.log(), 1))
        assert homogeneous_part(comm.log(), 2) == homogeneous_part(expected, 2)


def test_degree_one_truncation_is_addition():
    rng = random.Random(4)
    basis = hall_basis(3, 1)
    for _ in range(5):
        u = random_element(rng, basis)
        v = random_element(rng, basis)
        total = {w: u.coords.get(w, 0) + v.coords.get(w, 0) for w in basis.elements}
        assert multiply(u, v) == malcev_element(basis, total)


def test_lcs_ranks():
    assert lcs_ranks(2, 2) == [2, 1]
    assert lcs_ranks(2, 3) == [2, 1, 2]
    for r in (1, 2, 3):
        assert lcs_ranks(r, 1) == [r]
    for r, c in ((3, 2), (2, 4)):
        assert lcs_ranks(r, c) == [witt_dimension(r, n) for n in range(1, c + 1)]


def test_center_examples():
    vectors = center_basis(2, 2)
    assert len(vectors) == 1
    assert vectors[0].coords == {(1, 2): 1}
    assert len(center_basis(3, 2)) == witt_dimension(3, 2)
    whole = center_basis(2, 1)
    assert len(whole) == 2


def test_center_is_top_degree_span():
    for r, c in ((2, 2), (2, 3), (3, 2)):
        basis = hall_basis(r, c)
        top = set(basis.elements_of_degree(c))
        vectors = center_basis(r, c)
        assert len(vectors) == len(top)
        for v in vectors:
            assert set(v.coords) <= top
        span = RationalMatrix(
            len(vectors),
            len(basis.elements),
            {
                (i, basis.index[w]): q
                for i, v in enumerate(vectors)
                for w, q in v.coords.items()
            },
        )
        assert rank(span) == len(top)


def test_inner_action_examples():
    basis = hall_basis(2, 2)
    assert inner_action(group_identity(basis)).is_identity
    central = malcev_element(basis, {(1, 2): Fraction(5, 3)})
    assert inner_action(central).is_identity
    act = inner_action(group_generator(basis, 1))
    # x2 -> x2 + [x1 x2]
    image = act.matrix.columns()[basis.index[(2,)]]
    assert image == {basis.index[(2,)]: 1, basis.index[(1, 2)]: 1}


def bracket_adjoint_matrix(u):
    """ad(log u) with one bracket call per basis element."""
    basis = u.basis
    entries = {}
    for j, w in enumerate(basis.elements):
        for w2, q in bracket(u.log(), LieElement(basis, {w: 1})).coords.items():
            entries[(basis.index[w2], j)] = q
    return RationalMatrix(len(basis.elements), len(basis.elements), entries)


def test_adjoint_matrix_matches_bracket_route():
    basis = hall_basis(4, 4)
    cases = [group_generator(basis, i) for i in range(1, 5)]
    rng = random.Random(604)
    basis = hall_basis(3, 4)
    for _ in range(4):
        cases.append(malcev_element(basis, {
            w: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            for w in basis.elements if rng.random() < 0.5
        }))
    for u in cases:
        expected = bracket_adjoint_matrix(u)
        got = adjoint_matrix(u)
        assert got == expected
        assert list(got.entries) == list(expected.entries)


def test_inner_action_kernel_is_center():
    for r, c in ((2, 2), (2, 3)):
        basis = hall_basis(r, c)
        rng = random.Random(100 * r + c)
        for v in center_basis(r, c):
            assert inner_action(v).is_identity
        for _ in range(5):
            u = random_element(rng, basis)
            if set(u.coords) <= set(basis.elements_of_degree(c)):
                continue
            assert not inner_action(u).is_identity


def test_inner_action_is_group_homomorphism():
    basis = hall_basis(2, 3)
    rng = random.Random(6)
    for _ in range(3):
        u = random_element(rng, basis)
        v = random_element(rng, basis)
        lhs = inner_action(multiply(u, v)).matrix
        rhs = inner_action(u).matrix @ inner_action(v).matrix
        assert lhs == rhs


def test_conjugation_matches_inner_action():
    basis = hall_basis(2, 3)
    rng = random.Random(9)
    for _ in range(4):
        g = random_element(rng, basis)
        h = random_element(rng, basis)
        conj = multiply(multiply(g, h), inverse(g))
        via_matrix = inner_action(g).matrix.mul_vector(
            [h.coords.get(w, Fraction(0)) for w in basis.elements]
        )
        expected = {
            w: q for w, q in zip(basis.elements, via_matrix) if q
        }
        assert conj.coords == expected


def test_associativity_sample():
    rng = random.Random(314)
    for r, c in ((2, 2), (2, 3), (3, 2), (2, 4)):
        basis = hall_basis(r, c)
        for _ in range(5):
            u, v, w = (random_element(rng, basis) for _ in range(3))
            assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


@st.composite
def sparse_elements(draw, count):
    """``count`` elements of one random shape r <= 4, c <= 5, each with a few rational coordinates."""
    basis = hall_basis(draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    words = st.sampled_from(basis.elements)
    values = st.fractions(min_value=-100, max_value=100, max_denominator=12)
    return [
        malcev_element(basis, draw(st.dictionaries(words, values, max_size=6)))
        for _ in range(count)
    ]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(sparse_elements(3))
def test_group_law_properties(elements):
    u, v, w = elements
    e = group_identity(u.basis)
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
    assert multiply(u, e) == u and multiply(e, u) == u
    assert multiply(u, inverse(u)).is_identity
    comm = homogeneous_part(group_commutator(u, v).log(), 2)
    assert comm == bracket(homogeneous_part(u.log(), 1), homogeneous_part(v.log(), 1))


BCH_SHAPES = [(r, c) for r in range(1, 5) for c in range(1, 6)] + [(2, 6)]


@st.composite
def bch_pairs(draw):
    """(u, v) on one shape of BCH_SHAPES: large numerators and unlike, large denominators.

    Each coordinate picks its degree first, so generators and low degrees
    are as likely as the many top-degree words.  v is another such element,
    or one of the edge cases: the identity, u itself, or the inverse of u.
    """
    basis = hall_basis(*draw(st.sampled_from(BCH_SHAPES)))
    values = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**6))

    def element():
        layers = [layer for n in range(1, basis.cls + 1) if (layer := basis.elements_of_degree(n))]
        words = st.sampled_from(layers).flatmap(st.sampled_from)
        return malcev_element(basis, draw(st.dictionaries(words, values, max_size=4)))

    u = element()
    edge = draw(st.sampled_from(("other", "identity", "same", "inverse")))
    v = {"other": element, "identity": lambda: group_identity(basis),
         "same": lambda: u, "inverse": lambda: inverse(u)}[edge]()
    return u, v


@settings(derandomize=True, deadline=None, max_examples=200)
@given(bch_pairs())
def test_integer_kernel_matches_tensor_oracle(pair):
    u, v = pair
    product, expected = multiply(u, v), tensor_multiply(u, v)
    assert list(product.coords.items()) == list(expected.coords.items())
    assert all(type(q) is Fraction for q in product.coords.values())


def test_multiply_edge_cases_with_unlike_denominators():
    basis = hall_basis(3, 4)
    u = malcev_element(basis, {
        (1,): Fraction(10**12 - 1, 10**6), (2,): Fraction(-7, 999_983), (3,): Fraction(1, 2),
        (1, 2): Fraction(3, 10**6 - 1), (1, 1, 3): Fraction(-10**12, 7), (1, 2, 2, 3): Fraction(5, 11),
    })
    e = group_identity(basis)
    assert multiply(u, e) == u and multiply(e, u) == u
    assert multiply(u, inverse(u)).is_identity and multiply(inverse(u), u).is_identity
    square = multiply(u, u)
    assert list(square.coords.items()) == list(tensor_multiply(u, u).coords.items())
    # exp(X) exp(X) = exp(2X): the series has no term beyond X + Y on equal arguments
    assert square == malcev_element(basis, {w: 2 * q for w, q in u.coords.items()})


@pytest.mark.parametrize("shape", BCH_SHAPES + [(5, 2), (5, 3), (6, 2)])
def test_structure_constants_are_ints(shape):
    table = hall_basis(*shape).structure_constants()
    assert all(type(q) is int for vec in table.values() for q in vec.values())
