"""Free Lie algebra module: Lyndon combinatorics, bracket normalization, functoriality."""

import random
from fractions import Fraction

import pytest

from nilhom.aut import ia_lie_algebra
from nilhom.exact_linalg import RationalMatrix
from nilhom.free_lie import (
    LieElement,
    NotLieElementError,
    _lie_coords_from_tensor,
    bracket,
    bracket_coordinates,
    dynkin,
    expand_to_tensor,
    hall_basis,
    induced_map_lie,
    lyndon_words,
    witt_dimension,
)
from nilhom.invariants import brute_lyndon_words
from nilhom.lie_homology import free_nilpotent_lie, group_betti
from nilhom.nilgroup import _bch_series, malcev_element, multiply


def tensor_to_hall(t, basis):
    """Inverse of expand_to_tensor on the Lie subspace, for a {word: coefficient} dict.

    Raises NotLieElementError when the tensor is not a Lie element of the
    basis, as when a word is longer than its class or uses a letter above its rank.
    """
    return LieElement(basis, _lie_coords_from_tensor(basis, t))


def brute_bracket_expansion(tree):
    """Expand a bracketing tree (letters are ints, brackets are pairs) into words."""
    if isinstance(tree, int):
        return {(tree,): 1}
    left = brute_bracket_expansion(tree[0])
    right = brute_bracket_expansion(tree[1])
    out = {}
    for wl, cl in left.items():
        for wr, cr in right.items():
            out[wl + wr] = out.get(wl + wr, 0) + cl * cr
            out[wr + wl] = out.get(wr + wl, 0) - cl * cr
    return {w: c for w, c in out.items() if c}


def test_witt_examples():
    assert witt_dimension(2, 1) == 2
    assert witt_dimension(2, 2) == 1
    assert witt_dimension(2, 3) == 2
    assert witt_dimension(2, 5) == 6
    for n in range(2, 7):
        assert witt_dimension(1, n) == 0
    with pytest.raises(ValueError):
        witt_dimension(2, 0)


def test_lyndon_generation_matches_brute_force():
    for r in range(1, 4):
        for cap in range(1, 6):
            expected = sorted(
                (w for n in range(1, cap + 1) for w in brute_lyndon_words(r, n))
            )
            assert sorted(lyndon_words(r, cap)) == expected


def test_hall_basis_examples():
    b = hall_basis(2, 2)
    assert [b.label(w) for w in b.elements] == ["1", "2", "12"]
    assert [len(b.elements_of_degree(n)) for n in (1, 2)] == [2, 1]
    b3 = hall_basis(2, 3)
    assert [b3.label(w) for w in b3.elements_of_degree(3)] == ["112", "122"]
    b1 = hall_basis(1, 3)
    assert [b1.label(w) for w in b1.elements] == ["1"]


def test_hall_basis_invariants():
    for r, c in ((2, 4), (3, 3), (4, 2)):
        b = hall_basis(r, c)
        for n in range(1, c + 1):
            assert len(b.elements_of_degree(n)) == witt_dimension(r, n)
        assert list(b.elements) == sorted(b.elements, key=lambda w: (len(w), w))
        for w in b.elements:
            if len(w) >= 2:
                u, v = b.factorization[w]
                assert u + v == w
                assert u in b.index and v in b.index
                assert b.index[u] < b.index[w] and b.index[v] < b.index[w]
        for w in b.elements:
            weight = b.multiweight(w)
            assert sum(weight) == len(w)


def test_bracket_examples():
    b = hall_basis(2, 3)
    x1, x2 = LieElement(b, {(1,): 1}), LieElement(b, {(2,): 1})
    assert bracket(x1, x1).is_zero
    assert bracket(x2, x1) == LieElement(b, {(1, 2): -1})
    # [[x1,x2],x1] = -[x1,[x1,x2]], and (1,1,2) is the basis word for [x1,[x1,x2]]
    e12 = LieElement(b, {(1, 2): 1})
    assert bracket(e12, x1) == LieElement(b, {(1, 1, 2): -1})


def test_bracket_antisymmetry_and_jacobi():
    b = hall_basis(2, 4)
    elems = [LieElement(b, {w: 1}) for w in b.elements]
    for x in elems:
        for y in elems:
            assert bracket(x, y) == bracket(y, x).scaled(-1)
    for x in elems:
        for y in elems:
            for z in elems:
                total = (
                    bracket(bracket(x, y), z)
                    + bracket(bracket(y, z), x)
                    + bracket(bracket(z, x), y)
                )
                assert total.is_zero


def test_bracket_basis_mismatch():
    with pytest.raises(ValueError):
        bracket(LieElement(hall_basis(2, 2), {(1,): 1}), LieElement(hall_basis(2, 3), {(1,): 1}))


def test_expand_examples():
    b = hall_basis(2, 3)
    assert expand_to_tensor(LieElement(b, {(1,): 1})) == {(1,): 1}
    assert expand_to_tensor(LieElement(b, {(1, 2): 1})) == {(1, 2): 1, (2, 1): -1}
    # [[x1,x2],x1] against an independent brute-force expansion
    got = expand_to_tensor(bracket(LieElement(b, {(1, 2): 1}), LieElement(b, {(1,): 1})))
    assert got == brute_bracket_expansion(((1, 2), 1))
    assert all(type(q) is Fraction for q in got.values())


def test_expansions_match_brute_force_trees():
    for r, c in ((2, 4), (3, 3)):
        b = hall_basis(r, c)

        def tree_of(w):
            if len(w) == 1:
                return w[0]
            u, v = b.factorization[w]
            return (tree_of(u), tree_of(v))

        for w in b.elements:
            assert expand_to_tensor(LieElement(b, {w: 1})) == brute_bracket_expansion(tree_of(w))


def test_tensor_to_hall_round_trip_and_membership():
    for r, c in ((2, 4), (3, 3)):
        b = hall_basis(r, c)
        for w in b.elements:
            element = LieElement(b, {w: Fraction(3, 7)})
            assert tensor_to_hall(expand_to_tensor(element), b) == element
    b = hall_basis(2, 2)
    with pytest.raises(NotLieElementError):
        tensor_to_hall({(1, 2): 1, (2, 1): 1}, b)
    assert tensor_to_hall({(1, 2): 1, (2, 1): -1}, b) == LieElement(b, {(1, 2): 1})


def test_tensor_to_hall_random_lie_combinations():
    rng = random.Random(42)
    b = hall_basis(3, 3)
    for _ in range(10):
        coords = {
            w: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for w in b.elements
        }
        element = LieElement(b, coords)
        assert tensor_to_hall(expand_to_tensor(element), b) == element


def test_dynkin_retract():
    for r in (1, 2, 3):
        for bdeg in range(1, 5):
            basis = hall_basis(r, bdeg)
            for w in basis.elements:
                element = LieElement(basis, {w: 1})
                assert dynkin(expand_to_tensor(element), basis) == element


def test_dynkin_examples():
    b1, b2 = hall_basis(2, 1), hall_basis(2, 2)
    assert dynkin({(1,): 1}, b1) == LieElement(b1, {(1,): 1})
    assert dynkin({(1, 2): 1, (2, 1): 1}, b2).is_zero
    assert dynkin({(1, 2): Fraction(1, 2), (2, 1): "-1/2"}, b2) == LieElement(b2, {(1, 2): 1}).scaled(Fraction(1, 2))
    assert dynkin({}, b2) == LieElement(b2)
    # zero coefficients are dropped before the degree is read
    assert dynkin({(1,): 0, (1, 2): 2, (2, 1): -2}, b2) == LieElement(b2, {(1, 2): 1}).scaled(2)
    with pytest.raises(ValueError, match="^input must be homogeneous$"):
        dynkin({(1,): 1, (1, 2): 1}, b2)


def test_dynkin_checks_letters_coefficients_and_degree():
    with pytest.raises(ValueError, match=r"^word \(3,\) uses letters outside 1\.\.2$"):
        dynkin({(3,): 1}, hall_basis(2, 1))
    with pytest.raises(ValueError, match=r"outside 1\.\.2$"):
        dynkin({(1, 0): 1}, hall_basis(2, 2))
    with pytest.raises(TypeError, match="^exact arithmetic only: cannot accept float$"):
        dynkin({(1,): 0.5}, hall_basis(2, 1))
    with pytest.raises(ValueError, match=r"^degree 2 outside 1\.\.1$"):
        dynkin({(1, 2): 1, (2, 1): -1}, hall_basis(2, 1))
    with pytest.raises(ValueError, match=r"^degree 0 outside 1\.\.3$"):
        dynkin({(): 1}, hall_basis(2, 3))


def test_induced_map_identity_and_scaling():
    for b in (1, 2, 3):
        eye = [[1 if i == j else 0 for j in range(2)] for i in range(2)]
        assert induced_map_lie(eye, b) == RationalMatrix.identity(witt_dimension(2, b))
        t = Fraction(3)
        scaled = [[t if i == j else 0 for j in range(2)] for i in range(2)]
        got = induced_map_lie(scaled, b)
        assert got == RationalMatrix.identity(witt_dimension(2, b)).scaled(t**b)


def test_induced_map_composition():
    rng = random.Random(17)
    for bdeg in (2, 3):
        for _ in range(6):
            a = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)]
            b = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(2)]
            ba = [
                [sum(b[i][k] * a[k][j] for k in range(3)) for j in range(2)]
                for i in range(2)
            ]
            lhs = induced_map_lie(ba, bdeg)
            rhs = induced_map_lie(b, bdeg) @ induced_map_lie(a, bdeg)
            assert lhs == rhs


def test_lie2_is_second_exterior_power():
    rng = random.Random(3)
    for s in (2, 3):
        for r in (2, 3):
            a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(s)]
            got = induced_map_lie(a, 2)
            src = hall_basis(r, 2).elements_of_degree(2)
            dst = hall_basis(s, 2).elements_of_degree(2)
            for row, (wi,) in enumerate(zip(dst)):
                i, j = wi
                for col, (wj,) in enumerate(zip(src)):
                    k, l = wj
                    minor = Fraction(
                        a[i - 1][k - 1] * a[j - 1][l - 1]
                        - a[i - 1][l - 1] * a[j - 1][k - 1]
                    )
                    assert got.entry(row, col) == minor


def test_lie1_is_identity_functor():
    a = [[1, 2], [3, 4], [5, 6]]
    got = induced_map_lie(a, 1)
    assert got == RationalMatrix.from_rows(a)


def test_induced_maps_intertwine_brackets():
    # the degree blocks assemble to a Lie algebra homomorphism: applying
    # blockwise commutes with the bracket across degrees
    rng = random.Random(61)
    cap = 4
    src = hall_basis(2, cap)
    dst = hall_basis(3, cap)
    for _ in range(3):
        a = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)]
        blocks = {n: induced_map_lie(a, n) for n in range(1, cap + 1)}

        def apply_map(element):
            coords = {}
            for n in {len(w) for w in element.coords}:
                vec = [element.coords.get(w, Fraction(0)) for w in src.elements_of_degree(n)]
                image = blocks[n].mul_vector(vec)
                for w, q in zip(dst.elements_of_degree(n), image):
                    if q:
                        coords[w] = coords.get(w, Fraction(0)) + q
            return LieElement(dst, coords)

        for x in src.elements:
            for y in src.elements:
                if len(x) + len(y) > cap:
                    continue
                lhs = apply_map(bracket(LieElement(src, {x: 1}), LieElement(src, {y: 1})))
                rhs = bracket(apply_map(LieElement(src, {x: 1})), apply_map(LieElement(src, {y: 1})))
                assert lhs == rhs


def test_degree_layers_are_free_abelian():
    # restricted to the layer's own Lyndon words the expansion matrix is
    # unitriangular over the integers; determinant 1 makes each degree
    # layer a free direct summand of the word lattice, of rank witt(r, n)
    from nilhom.exact_linalg import determinant

    for r, c in ((2, 4), (3, 3), (2, 6), (4, 4)):
        basis = hall_basis(r, c)
        for n in range(1, c + 1):
            layer = basis.elements_of_degree(n)
            assert len(layer) == witt_dimension(r, n)
            index = {w: i for i, w in enumerate(layer)}
            entries = {}
            for col, e in enumerate(layer):
                for w, v in expand_to_tensor(LieElement(basis, {e: 1})).items():
                    assert v.denominator == 1
                    if w in index:
                        entries[(index[w], col)] = v
            m = RationalMatrix(len(layer), len(layer), entries)
            assert determinant(m) == 1


# -- the tensor-algebra routes, kept as oracles ---------------------------------


def tensor_bracket(a, b):
    """[a, b] through the tensor algebra: commutator of the expansions, truncated, projected back."""
    cap = a.basis.cls
    ta, tb = expand_to_tensor(a), expand_to_tensor(b)
    acc = {}
    for wa, ca in ta.items():
        for wb, cb in tb.items():
            if len(wa) + len(wb) <= cap:
                acc[wa + wb] = acc.get(wa + wb, 0) + ca * cb
                acc[wb + wa] = acc.get(wb + wa, 0) - ca * cb
    return tensor_to_hall(acc, a.basis)


def tensor_induced_map(matrix, degree):
    """Degree-``degree`` Lie functor by substituting columns for letters in the expanded words."""
    s = len(matrix)
    r = len(matrix[0]) if s else 0
    src = hall_basis(r, degree)
    dst = hall_basis(s, degree)
    src_elems = src.elements_of_degree(degree)
    dst_offset = dst.degree_start[degree]
    entries = {}
    for col, w in enumerate(src_elems):
        acc = {}
        for word, n in expand_to_tensor(LieElement(src, {w: 1})).items():
            cur = {(): n}
            for letter in word:
                nxt = {}
                for u, q in cur.items():
                    for j in range(s):
                        if matrix[j][letter - 1]:
                            nxt[u + (j + 1,)] = nxt.get(u + (j + 1,), 0) + q * matrix[j][letter - 1]
                cur = nxt
            for u, q in cur.items():
                acc[u] = acc.get(u, 0) + q
        for word, q in tensor_to_hall(acc, dst).coords.items():
            entries[(dst.index[word] - dst_offset, col)] = q
    return RationalMatrix(len(dst.elements_of_degree(degree)), len(src_elems), entries)


def random_lie_element(rng, basis):
    """About half the coordinates set, numerators and denominators up to 10^6."""
    return LieElement(basis, {
        w: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        for w in basis.elements
        if rng.random() < 0.5
    })


def test_bracket_matches_tensor_route():
    rng = random.Random(2025)
    for r, c in ((2, 5), (3, 4), (4, 4)):
        basis = hall_basis(r, c)
        for _ in range(8):
            a, b = random_lie_element(rng, basis), random_lie_element(rng, basis)
            assert bracket(a, b) == tensor_bracket(a, b)


def test_induced_map_matches_substitution():
    rng = random.Random(404)
    for s in (1, 2, 3):
        for r in (1, 2, 3):
            for degree in (1, 2, 3, 4):
                dense = [[rng.choice((-2, -1, 1, 2, Fraction(1, 3))) for _ in range(r)] for _ in range(s)]
                # a repeated row makes the map singular
                singular = [list(dense[0]) for _ in range(s)]
                sparse = [[rng.choice((0, 0, 1, -1)) for _ in range(r)] for _ in range(s)]
                for matrix in (dense, singular, sparse):
                    assert induced_map_lie(matrix, degree) == tensor_induced_map(matrix, degree)


def test_free_nilpotent_structure_constants_match_tensor_route():
    for r, c in ((2, 4), (3, 3), (4, 2)):
        g = free_nilpotent_lie(r, c)
        basis = g.hall
        for i, wi in enumerate(basis.elements):
            for j in range(i + 1, len(basis.elements)):
                ej = LieElement(basis, {basis.elements[j]: 1})
                image = tensor_bracket(LieElement(basis, {wi: 1}), ej)
                assert g.brackets.get((i, j), {}) == {basis.index[w]: q for w, q in image.coords.items()}


def test_induced_map_reads_rows_and_matrices_alike():
    # s x r with s != r: letters are read from columns, images land on s letters
    for rows in ([[1, 2], [0, -1], [Fraction(1, 3), 1]], [[1, 0, 2], [Fraction(-1, 2), 1, 1]]):
        m = RationalMatrix.from_rows(rows)
        shuffled = RationalMatrix(m.rows, m.cols, dict(reversed(list(m.entries.items()))))
        for degree in range(1, 5):
            want = induced_map_lie(rows, degree)
            assert (want.rows, want.cols) == (witt_dimension(m.rows, degree), witt_dimension(m.cols, degree))
            assert induced_map_lie(m, degree) == want
            assert induced_map_lie(shuffled, degree) == want


def test_induced_map_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged rows"):
        induced_map_lie([[1], [2, 3]], 1)
    with pytest.raises(ValueError, match="ragged rows"):
        induced_map_lie([[1, 2], [3]], 1)


def test_bracket_coordinates_match_structure_constants():
    # the tuple-keyed loop over the i < j table, written apart from the rows
    rng = random.Random(808)
    for r, c in ((2, 5), (3, 4), (4, 4)):
        basis = hall_basis(r, c)
        table = basis.structure_constants()
        for _ in range(3):
            a, b = ({i: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for i in range(len(basis.elements))} for _ in range(2))
            want = {}
            for i, qa in a.items():
                for j, qb in b.items():
                    vec = table.get((i, j), {}) if i < j else {k: -q for k, q in table.get((j, i), {}).items()}
                    for k, q in vec.items():
                        want[k] = want.get(k, 0) + qa * qb * q
            assert bracket_coordinates(basis, a, b) == {k: q for k, q in want.items() if q}


# -- what hall_basis caches is out of its callers' reach -------------------------


@pytest.fixture
def clear_hall_caches():
    """Empty every cache that holds a Hall basis or is built from one, before and after the test."""

    def clear():
        for cache in (hall_basis, free_nilpotent_lie, ia_lie_algebra, _bch_series):
            cache.cache_clear()

    clear()
    yield clear
    clear()


def hall_results(r, c):
    """Brackets, a BCH product, Lie^c of a map, the algebra and its Betti numbers, all read from hall_basis(r, c)."""
    rng = random.Random(10 * r + c)
    basis = hall_basis(r, c)
    x, y = random_lie_element(rng, basis), random_lie_element(rng, basis)
    units = [LieElement(basis, {w: 1}) for w in basis.elements]
    return (
        bracket(x, y),
        [bracket(u, v) for u in units for v in units],
        multiply(malcev_element(basis, x.coords), malcev_element(basis, y.coords)),
        induced_map_lie([[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)], c),
        free_nilpotent_lie(r, c).brackets,
        group_betti(r, c),
    )


def clear_table(basis):
    basis.structure_constants().clear()


def edit_table(basis):
    for vec in basis.structure_constants().values():
        for k in vec:
            vec[k] *= 5


def edit_expansion(basis):
    expand_to_tensor(LieElement(basis, {(1, 2): 1}))[(9, 9)] = 5


@pytest.mark.parametrize("mutate", [clear_table, edit_table, edit_expansion])
@pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
def test_cached_basis_survives_what_callers_do_to_its_outputs(clear_hall_caches, shape, mutate):
    want = hall_results(*shape)
    clear_hall_caches()
    basis = hall_basis(*shape)
    mutate(basis)  # before anything else reads the fresh basis
    assert hall_results(*shape) == want
    assert expand_to_tensor(LieElement(basis, {(1, 2): 1})) == {(1, 2): 1, (2, 1): -1}
