"""Chevalley-Eilenberg homology: boundary structure, Betti vectors, weight refinement."""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, lcm, prod

import pytest

from nilhom.aut import _certify_generator_symmetry, ia_betti, ia_lie_algebra
from nilhom.exact_linalg import RationalMatrix, _eliminate, rank
from nilhom.free_lie import hall_basis, witt_dimension
from nilhom.rep import Lie, WeightModule, _weyl_multiplicities, evaluate
from nilhom.weights import orbit
from nilhom import lie_homology
from nilhom.lie_homology import (
    _MAX_WEDGES,
    GradedLieAlgebra,
    _block_rows,
    _blocks,
    _permutes_generators,
    _wedge_buckets,
    betti_number,
    betti_numbers,
    free_nilpotent_lie,
    group_betti,
    lower_central_series_dims,
    nilpotency_class,
    weighted_betti,
)


def ce_boundary(g, d):
    """The whole boundary matrix from d-wedges to (d-1)-wedges, lexicographic wedge order.

    The textbook formula, written apart from the homology engine: the
    boundary of x_1 ^ ... ^ x_d is the sum over s < t of
    (-1)^(s+t) [x_s, x_t] ^ x_1 ^ ... ^ x_d, with x_s and x_t left out of
    the tail.  Brackets are read from g.bracket_basis, unscaled, and each
    target is sorted with the sign (-1)^(number of inversions).

    The oracle for the weight-block ranks and rows of the homology engine,
    which never assembles this matrix.
    """
    if not 0 <= d <= g.dim:
        raise ValueError(f"degree {d} outside 0..{g.dim}")
    if d == 0:
        return RationalMatrix(0, 1)
    row_index = {combo: i for i, combo in enumerate(combinations(range(g.dim), d - 1))}
    brackets = {(i, j): g.bracket_basis(i, j) for i, j in combinations(range(g.dim), 2)}
    terms = []  # ((row, col), value) pairs; RationalMatrix sums repeated positions
    for col, combo in enumerate(combinations(range(g.dim), d)):
        for (s, i), (t, j) in combinations(enumerate(combo), 2):
            bracket = brackets[i, j]
            if not bracket:
                continue
            tail = combo[:s] + combo[s + 1 : t] + combo[t + 1 :]
            for k, q in bracket.items():
                if k in tail:
                    continue  # a repeated vector: the wedge is zero
                # tail is increasing, so each inversion of (k, *tail) pairs k with a smaller x
                inversions = sum(x < k for x in tail)
                value = -q if (s + t + inversions) % 2 else q
                terms.append(((row_index[tuple(sorted((k, *tail)))], col), value))
    return RationalMatrix(len(row_index), comb(g.dim, d), terms)


def abelian(m):
    labels = tuple(f"e{i}" for i in range(m))
    weights = tuple(tuple(1 if t == i else 0 for t in range(m)) for i in range(m))
    return GradedLieAlgebra(labels, weights, {}, weight_length=m)


def test_free_nilpotent_dimensions():
    assert free_nilpotent_lie(2, 2).dim == 3
    assert free_nilpotent_lie(2, 3).dim == 5
    for r in (1, 2, 3):
        assert free_nilpotent_lie(r, 1).dim == r
        assert not free_nilpotent_lie(r, 1).brackets
    for r, c in ((2, 4), (3, 3)):
        expected = sum(witt_dimension(r, n) for n in range(1, c + 1))
        assert free_nilpotent_lie(r, c).dim == expected


def test_construction_rejects_bad_data():
    with pytest.raises(ValueError):
        # weight additivity broken: [e0, e1] lands on a degree-1 vector
        GradedLieAlgebra(
            ("a", "b", "c"),
            ((1, 0), (0, 1), (1, 0)),
            {(0, 1): {2: Fraction(1)}},
        )
    with pytest.raises(ValueError):
        # bracket keys must have i < j
        GradedLieAlgebra(
            ("a", "b", "c"),
            ((1, 0), (0, 1), (1, 1)),
            {(1, 0): {2: 1}},
        )
    with pytest.raises(TypeError, match="0.5"):
        # weights must be exact integers
        GradedLieAlgebra(("a", "b", "c"), ((0.5,), (1,), (1.5,)), {(0, 1): {2: 1}})


def test_jacobi_check_catches_wrong_sign():
    # the generator triple of the rank-3 class-3 algebra carries a genuine
    # Jacobi relation [[x1,x2],x3] + [[x2,x3],x1] + [[x3,x1],x2] = 0;
    # flipping one term must be caught at construction
    g = free_nilpotent_lie(3, 3)
    basis = g.hall
    key = (0, basis.index[(2, 3)])
    tampered = {k: dict(v) for k, v in g.brackets.items()}
    tampered[key] = {idx: -q for idx, q in tampered[key].items()}
    with pytest.raises(ValueError):
        GradedLieAlgebra(g.labels, g.weights, tampered)


def dense_jacobi_oracle(m, table):
    """The first basis triple i < j < k, lexicographically, whose Jacobiator is nonzero, or None.

    Reads a structure-constant table keyed by pairs i < j, as
    GradedLieAlgebra takes it, on an m-dimensional space; visits every
    triple and sums the three double brackets directly.
    """

    def bracket(a, b):
        if a < b:
            return table.get((a, b), {}).items()
        return [(t, -q) for t, q in table.get((b, a), {}).items()]

    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, q in bracket(a, b):
                        for t, q2 in bracket(l, c):
                            v = acc.get(t, Fraction(0)) + q * q2
                            if v:
                                acc[t] = v
                            else:
                                acc.pop(t, None)
                if acc:
                    return (i, j, k)
    return None


def mutated_brackets(g, rng):
    """A copy of g's structure constants with one seeded change to a coefficient or a whole bracket."""
    table = {key: dict(vec) for key, vec in g.brackets.items()}
    key = rng.choice(sorted(table))
    kind = rng.randrange(4)
    if kind == 0:
        k = rng.choice(sorted(table[key]))
        table[key][k] *= rng.choice((-1, 2, Fraction(1, 3)))
    elif kind == 1:
        del table[key][rng.choice(sorted(table[key]))]
    elif kind == 2:
        del table[key]
    else:
        i, j = sorted(rng.sample(range(g.dim), 2))
        k = rng.randrange(g.dim)
        table.setdefault((i, j), {})[k] = table.get((i, j), {}).get(k, 0) + rng.choice((1, -2))
    return table


def weight_additive(weights, table):
    return all(
        weights[k] == tuple(a + b for a, b in zip(weights[i], weights[j]))
        for (i, j), vec in table.items() for k, q in vec.items() if q
    )


def test_jacobi_check_matches_dense_oracle():
    # the check visits only nonzero double brackets; on seeded mutations the
    # constructor must reject a table that breaks weight additivity, and
    # otherwise name the same first failing triple as the all-triples loop
    rng = random.Random(20261018)
    outcomes = []
    # the rescaled algebra has bracket denominators, so the check runs with S > 1
    algebras = (
        free_nilpotent_lie(3, 4), free_nilpotent_lie(2, 5), ia_lie_algebra(3, 3),
        rescaled(free_nilpotent_lie(2, 4), random.Random(2410)),
    )
    for g in algebras:
        for _ in range(40):
            table = mutated_brackets(g, rng)
            args = (g.labels, g.weights, table, g.weight_length)
            if not weight_additive(g.weights, table):
                with pytest.raises(ValueError, match=r"^bracket \[.*\] is not weight-additive$"):
                    GradedLieAlgebra(*args)
                outcomes.append("weights")
                continue
            expected = dense_jacobi_oracle(g.dim, table)
            if expected is None:
                GradedLieAlgebra(*args)
                outcomes.append("lie")
            else:
                with pytest.raises(ValueError, match=rf"^Jacobi identity fails on basis triple \({', '.join(map(str, expected))}\)$"):
                    GradedLieAlgebra(*args)
                outcomes.append("jacobi")
    assert outcomes.count("weights") == 39 and {"lie", "jacobi"} <= set(outcomes)


def test_ce_boundary_examples():
    heis = free_nilpotent_lie(2, 2)
    assert ce_boundary(heis, 1).is_zero
    d2 = ce_boundary(heis, 2)
    assert rank(d2) == 1
    # x1 wedge x2 (the first of the three 2-wedges) maps to minus the bracket
    assert d2.columns()[0] == {2: Fraction(-1)}
    ab = abelian(3)
    for d in range(4):
        assert ce_boundary(ab, d).is_zero
    with pytest.raises(ValueError):
        ce_boundary(heis, 4)


def test_boundary_squares_to_zero():
    for g in (free_nilpotent_lie(2, 3), free_nilpotent_lie(3, 2), free_nilpotent_lie(2, 4)):
        for d in range(2, g.dim + 1):
            assert (ce_boundary(g, d - 1) @ ce_boundary(g, d)).is_zero


def rescaled(g, rng):
    """g on the basis e'_i = s_i e_i for seeded nonzero rationals s_i.

    [e'_i, e'_j] = sum_k (s_i s_j / s_k) c_ijk e'_k.
    """
    s = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(g.dim)]
    brackets = {
        (i, j): {k: q * s[i] * s[j] / s[k] for k, q in vec.items()} for (i, j), vec in g.brackets.items()
    }
    return GradedLieAlgebra(g.labels, g.weights, brackets, weight_length=g.weight_length)


def test_rescaled_basis_keeps_weight_tables_and_boundary_squares_to_zero():
    # the rescaled brackets have denominators, so the blocks are eliminated as
    # L times the boundary with L > 1; no rank, and so no weight table, may move
    rng = random.Random(1829)
    for r, c in ((2, 3), (3, 2), (2, 4), (4, 2), (2, 5)):
        g = free_nilpotent_lie(r, c)
        scale = 1
        while scale == 1:  # redraw the rare scaling whose brackets stay integral
            h = rescaled(g, rng)
            scale = lcm(*(q.denominator for vec in h.brackets.values() for q in vec.values()))
        table = h._partners
        for i, j in h.brackets:  # one vector object per pair, held at both ends
            assert table[i][1][j] is table[j][1][i]
        # an entry for each nonzero bracket and none for a zero one, at either end
        assert {(min(i, j), max(i, j)) for i, (_, row) in enumerate(table) for j in row} == set(h.brackets)
        for i, (partners, row) in enumerate(table):
            assert partners == sum(1 << j for j in row if j > i)
            for j, vec in row.items():
                assert vec == {k: scale * q for k, q in h.bracket_basis(min(i, j), max(i, j)).items()}
                assert all(type(v) is int for v in vec.values())
        for d in range(g.dim + 1):
            assert weighted_betti(h, d) == weighted_betti(g, d)
        for d in range(2, h.dim + 1):
            assert (ce_boundary(h, d - 1) @ ce_boundary(h, d)).is_zero


def test_betti_examples():
    assert betti_numbers(abelian(3)) == [1, 3, 3, 1]
    assert betti_numbers(free_nilpotent_lie(2, 2)) == [1, 2, 2, 1]
    for g in (abelian(2), free_nilpotent_lie(2, 3), free_nilpotent_lie(3, 2)):
        assert betti_numbers(g)[0] == 1
    assert betti_number(free_nilpotent_lie(2, 2), 5) == 0


def test_group_betti_examples():
    for r in (1, 2, 3):
        assert group_betti(r, 1) == [comb(r, d) for d in range(r + 1)]
    assert group_betti(2, 2) == [1, 2, 2, 1]
    b = group_betti(3, 2)
    m = len(b) - 1
    assert all(b[d] == b[m - d] for d in range(m + 1))
    assert sum((-1) ** d * v for d, v in enumerate(b)) == 0
    assert group_betti(0, 2) == [1]


def test_poincare_duality_and_euler():
    for r, c in ((2, 2), (2, 3), (3, 2), (2, 4)):
        b = group_betti(r, c)
        m = len(b) - 1
        assert b[0] == 1
        assert b[1] == r
        assert all(b[d] == b[m - d] for d in range(m + 1))
        assert sum((-1) ** d * v for d, v in enumerate(b)) == 0


def test_weighted_betti_examples():
    ab = abelian(3)
    w1 = weighted_betti(ab, 1)
    assert w1 == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    heis = free_nilpotent_lie(2, 2)
    assert weighted_betti(heis, 1) == {(1, 0): 1, (0, 1): 1}
    for g in (heis, free_nilpotent_lie(2, 3)):
        for d in range(g.dim + 1):
            assert sum(weighted_betti(g, d).values()) == betti_number(g, d)


def test_weighted_betti_permutation_symmetry():
    g = free_nilpotent_lie(3, 2)
    for d in range(g.dim + 1):
        table = weighted_betti(g, d)
        for perm in permutations(range(3)):
            permuted = {tuple(w[p] for p in perm): mult for w, mult in table.items()}
            assert permuted == table


def test_weighted_betti_returns_a_copy():
    # tables are not memoized but built anew from the weight blocks on each call;
    # what a caller does to one must not reach the next
    g = free_nilpotent_lie(3, 2)
    for d in (2, g.dim - 2):  # one degree ranked, one read off duality
        first = weighted_betti(g, d)
        second = weighted_betti(g, d)
        assert first == second and first
        expected = dict(second)
        first[next(iter(first))] += 1
        first[(9, 9, 9)] = 1
        assert second == expected
        assert weighted_betti(g, d) == expected
        assert betti_number(g, d) == sum(expected.values())


def test_lower_central_series():
    ab = abelian(4)
    assert lower_central_series_dims(ab) == [4, 0]
    assert nilpotency_class(ab) == 1
    g = free_nilpotent_lie(2, 3)
    layer = [witt_dimension(2, n) for n in (1, 2, 3)]
    assert lower_central_series_dims(g) == [5, 3, 2, 0]
    assert nilpotency_class(g) == 3
    assert layer == [2, 1, 2]
    # brackets with denominators are read S times each, which changes no span
    h = rescaled(free_nilpotent_lie(2, 4), random.Random(4))
    assert any(q.denominator > 1 for vec in h.brackets.values() for q in vec.values())
    assert lower_central_series_dims(h) == lower_central_series_dims(free_nilpotent_lie(2, 4)) == [8, 6, 5, 3, 0]
    assert nilpotency_class(h) == 4


def one_table_cases():
    """(an algebra, the table it was built from, zeros included) for F(3,3), IA(3,3) and a rescaled F(2,4)."""
    f = free_nilpotent_lie(3, 3)
    cases = [(f, f.hall.structure_constants())]
    for g in (ia_lie_algebra(3, 3), rescaled(free_nilpotent_lie(2, 4), random.Random(4))):
        table = {key: {**vec, g.dim - 1: 0} for key, vec in g.brackets.items()}  # an explicit zero coefficient
        table[next(pair for pair in combinations(range(g.dim), 2) if pair not in table)] = {0: Fraction(0)}
        cases.append((GradedLieAlgebra(g.labels, g.weights, table, g.weight_length), table))
    return cases


def test_brackets_are_the_input_table_read_from_the_one_integer_table():
    for g, table in one_table_cases():
        expected = {key: {k: Fraction(q) for k, q in vec.items() if q} for key, vec in table.items()}
        expected = {key: vec for key, vec in expected.items() if vec}
        brackets = g.brackets
        assert brackets == expected
        assert all(type(q) is Fraction for vec in brackets.values() for q in vec.values())
        for i in range(g.dim):
            for j in range(g.dim):
                vec = g.bracket_basis(i, j)
                if i < j:
                    assert vec == brackets.get((i, j), {})
                else:
                    assert vec == {k: -q for k, q in brackets.get((j, i), {}).items()}
        for i, j in ((-1, 0), (0, -1), (0, g.dim), (g.dim, 0)):
            with pytest.raises(ValueError, match="outside range"):
                g.bracket_basis(i, j)


def test_editing_returned_brackets_leaves_the_algebra_unchanged():
    # brackets and bracket_basis hand out copies: clearing or editing them must
    # reach no later bracket, lower central series or homology
    for g, table in one_table_cases():
        fresh = GradedLieAlgebra(g.labels, g.weights, table, g.weight_length)
        pairs = list(combinations(range(g.dim), 2))
        before = {pair: g.bracket_basis(*pair) for pair in pairs}
        first = next(iter(g.brackets))
        edited = g.brackets
        edited[first][g.dim - 1] = Fraction(7)
        edited[(0, 1)] = {0: Fraction(1)}
        g.brackets.clear()
        g.bracket_basis(*first).clear()
        g.bracket_basis(first[1], first[0])[0] = Fraction(5)
        assert {pair: g.bracket_basis(*pair) for pair in pairs} == before
        assert lower_central_series_dims(g) == lower_central_series_dims(fresh)
        for d in range(3):
            assert weighted_betti(g, d) == weighted_betti(fresh, d)


def test_wedge_limit_refuses_a_degree_before_listing_it(monkeypatch):
    # the documented envelope stays inside the limit: IA(3,4) in degree 3 needs
    # its degree-4 wedges, and F(2,6)'s full vector its degree-11 ones
    assert comb(87, 4) == 2_225_895 <= _MAX_WEDGES < comb(87, 5)
    assert comb(23, 11) == 1_352_078 <= _MAX_WEDGES
    ia = ia_lie_algebra(3, 3)
    fresh = GradedLieAlgebra(ia.labels, ia.weights, ia.brackets)
    for g in (ia, fresh):
        with pytest.raises(ValueError, match=r"^degree 16 of a 33-dimensional algebra has 1,166,803,110 wedges"):
            betti_numbers(g)
    assert not fresh._cache  # refused before any degree was ranked
    with pytest.raises(ValueError, match=r"^degree 5 of a 87-dimensional algebra has 36,949,857 wedges, above the limit of 10,000,000"):
        weighted_betti(ia_lie_algebra(3, 4), 5)
    # at the limit a degree is ranked, one wedge above it is refused
    f = free_nilpotent_lie(2, 3)
    monkeypatch.setattr(lie_homology, "_MAX_WEDGES", comb(5, 2))
    assert betti_numbers(GradedLieAlgebra(f.labels, f.weights, f.brackets)) == betti_numbers(f)
    monkeypatch.setattr(lie_homology, "_MAX_WEDGES", comb(5, 2) - 1)
    fresh = GradedLieAlgebra(f.labels, f.weights, f.brackets)
    for call in (betti_numbers, lambda g: betti_number(g, 2), lambda g: weighted_betti(g, 1)):
        with pytest.raises(ValueError, match=r"^degree 2 of a 5-dimensional algebra has 10 wedges, above the limit of 9 per degree$"):
            call(fresh)
    assert weighted_betti(fresh, 0) == {(0, 0): 1}


def test_euler_characteristic_of_each_weight_matches_wedge_counts():
    # for each weight w, sum_d (-1)^d b_d(w) = sum_d (-1)^d #{d-wedges of weight w}:
    # ranks telescope out, so this checks the symmetry spread, the duality map
    # and that every bucket was counted, against combinations() alone
    algebras = (
        free_nilpotent_lie(3, 3), free_nilpotent_lie(2, 5), free_nilpotent_lie(5, 2),
        ia_lie_algebra(2, 4), ia_lie_algebra(3, 2), rescaled(free_nilpotent_lie(2, 4), random.Random(4)),
    )
    for g in algebras:
        homology, wedges = {}, {}
        for d in range(g.dim + 1):
            for w, b in weighted_betti(g, d).items():
                homology[w] = homology.get(w, 0) + (-1) ** d * b
            for combo in combinations(range(g.dim), d):
                w = tuple(sum(g.weights[i][t] for i in combo) for t in range(g.weight_length))
                wedges[w] = wedges.get(w, 0) + (-1) ** d
        nonzero = {w: x for w, x in wedges.items() if x}
        assert {w: x for w, x in homology.items() if x} == nonzero


def copy_of(g):
    """A new algebra with g's table and symmetry certificate, and nothing ranked yet."""
    h = GradedLieAlgebra(g.labels, g.weights, g.brackets, weight_length=g.weight_length)
    h._cache["permutes_generators"] = _permutes_generators(g)
    return h


def held_pivots(g):
    """The degree whose pivot columns g holds, and each block's pivot masks decoded."""
    degree, held = g._cache["pivots"]
    width = -(-g.dim // 8)
    return degree, {w: {int.from_bytes(b[i : i + width], "little") for i in range(0, len(b), width)} for w, b in held.items()}


def test_chained_ranks_match_ranks_with_no_pivots_held():
    # degree d ranked just after d - 1 leaves out the rows of d - 1's pivot
    # columns; ranked with nothing held it builds every row; the ranks agree
    cases = ((free_nilpotent_lie(2, 5), 8), (free_nilpotent_lie(3, 3), 8), (free_nilpotent_lie(5, 2), 8), (ia_lie_algebra(3, 3), 4))
    for g, top in cases:
        chained, plain = copy_of(g), copy_of(g)
        for d in range(top + 1):
            if d:
                degree, held = held_pivots(chained)
                assert degree == d - 1
            if d == 4:  # some rows are left out
                buckets = _wedge_buckets(g, d, _permutes_generators(g))
                built = {w: len(_block_rows(g, masks, held.get(w, set()))) for w, masks in buckets.items()}
                assert sum(built.values()) < sum(len(_block_rows(g, masks)) for masks in buckets.values())
            blocks = _blocks(chained, d)
            plain._cache.pop("pivots", None)
            assert blocks == _blocks(plain, d)


def test_degree_above_half_read_by_duality_matches_direct_ranks():
    # for a unimodular g of even dimension n, the ranks of degree n/2 + 1 are
    # those of degree n/2 at total - w, and weighted_betti(g, n/2) ranks no more
    algebras = (
        free_nilpotent_lie(2, 5), free_nilpotent_lie(3, 3), free_nilpotent_lie(3, 2),
        ia_lie_algebra(2, 4), rescaled(free_nilpotent_lie(2, 4), random.Random(4)),
    )
    for g in algebras:
        assert g.dim % 2 == 0
        h, half = copy_of(g), g.dim // 2
        table = weighted_betti(h, half)
        assert ("blocks", half + 1) not in h._cache
        blocks, up = _blocks(h, half), _blocks(copy_of(g), half + 1)
        total = tuple(map(sum, zip(*g.weights)))
        for w in {*blocks, *up}:
            dual = tuple(a - x for a, x in zip(total, w))
            if _permutes_generators(g):
                dual = tuple(sorted(dual, reverse=True))
            assert blocks.get(dual, (0, 0))[1] == up.get(w, (0, 0))[1]
        direct = {w: count - r - up.get(w, (0, 0))[1] for w, (count, r) in blocks.items()}
        assert {w: b for w, b in table.items() if w in blocks} == {w: b for w, b in direct.items() if b}


def test_only_the_latest_degree_holds_its_pivots_as_bytes():
    g = copy_of(free_nilpotent_lie(2, 5))
    assert betti_numbers(g) == group_betti(2, 5)
    assert g.dim == 14 and ("blocks", 8) not in g._cache  # degree 8 comes from degree 7 by duality
    assert {key for key in g._cache if type(key) is str} == {"permutes_generators", "pivots"}
    ia = copy_of(ia_lie_algebra(3, 2))
    assert weighted_betti(ia, 3) == weighted_betti(ia_lie_algebra(3, 2), 3)
    assert ia._cache[("blocks", 4)][0] is not None  # degree 4 ranked only where degree 3 reads it
    for h in (g, ia):  # no Betti table is held: every other key is one degree's record of blocks
        assert all(key[0] == "blocks" for key in h._cache if type(key) is tuple)
        for (_, d), (asked, blocks) in ((key, v) for key, v in h._cache.items() if type(key) is tuple):
            counts = {w: len(masks) for w, masks in _wedge_buckets(h, d, True).items()}
            if asked is None:  # the whole degree
                assert {w: count for w, (count, _) in blocks.items()} == counts
            else:  # the blocks at the weights asked for, and no others
                assert {w: count for w, (count, _) in blocks.items()} == {w: c for w, c in counts.items() if w in asked}
                assert set(blocks) < set(counts)
    degree, held = g._cache["pivots"]
    blocks = _blocks(g, 7)
    assert degree == 7 and all(type(packed) is bytes for packed in held.values())
    assert {w: len(packed) for w, packed in held.items()} == {w: 2 * r for w, (_, r) in blocks.items() if r}
    for w, masks in held_pivots(g)[1].items():
        assert len(masks) == blocks[w][1]
        assert all(m.bit_count() == 7 for m in masks)
        assert all(tuple(map(sum, zip(*(g.weights[i] for i in range(14) if m >> i & 1)))) == w for m in masks)


def test_self_dual_degree_ranks_one_block_of_each_dual_pair(monkeypatch):
    # in odd dimension n, degree (n + 1)/2 is its own dual: a block whose dual
    # block is already ranked takes that rank and is not eliminated
    calls = []

    def counted(rows, width):
        calls.append(width)
        return _eliminate(rows, width)

    monkeypatch.setattr(lie_homology, "_eliminate", counted)
    # IA(3,2) is abelian with weights of coordinate sum 1, so no block of its
    # degree 5 meets its dual (of sum 4), and each one is ranked
    for g, paired in ((free_nilpotent_lie(2, 3), True), (ia_lie_algebra(3, 2), False), (free_nilpotent_lie(5, 2), True)):
        assert g.dim % 2 == 1
        d = (g.dim + 1) // 2
        calls.clear()
        blocks = _blocks(copy_of(g), d)
        total = tuple(map(sum, zip(*g.weights)))
        dual = {w: tuple(sorted((a - x for a, x in zip(total, w)), reverse=True)) for w in blocks}
        assert len(calls) == len({frozenset((w, dual[w] if dual[w] in blocks else w)) for w in blocks})
        assert (len(calls) < len(blocks)) == paired
        buckets = _wedge_buckets(g, d, _permutes_generators(g))
        assert blocks == {w: (len(masks), len(_eliminate(_block_rows(g, masks), len(masks)))) for w, masks in buckets.items()}


def test_pruned_reads_match_the_full_path():
    # a single-degree read ranks its other degree only at the weights it reads,
    # through the dual degree above dim/2 and through the self-dual degree
    # (dim + 1)/2 of F(2,3) and IA(3,2); the full path ranks every block first
    pruned_somewhere = False
    for g in direct_oracle_algebras():
        full = copy_of(g)
        betti_numbers(full)
        for d in range(g.dim + 1):
            h = copy_of(g)
            assert weighted_betti(h, d) == weighted_betti(full, d)
            assert betti_number(copy_of(g), d) == betti_number(full, d)
            for key, (asked, blocks) in ((key, v) for key, v in h._cache.items() if type(key) is tuple):
                pruned_somewhere |= asked is not None and len(blocks) < len(full._cache[key][1])
    assert pruned_somewhere


def test_reads_in_turn_on_one_algebra_match_fresh_answers():
    # weighted_betti(g, q), then weighted_betti(g, q + 1), then betti_numbers(g):
    # a pruned degree read whole later is completed, and never answers in part
    for g in direct_oracle_algebras():
        expected = betti_numbers(copy_of(g))
        for q in range(g.dim):
            h = copy_of(g)
            assert weighted_betti(h, q) == weighted_betti(copy_of(g), q)
            assert weighted_betti(h, q + 1) == weighted_betti(copy_of(g), q + 1)
            assert betti_numbers(h) == expected
            assert all(value[0] is None for key, value in h._cache.items() if type(key) is tuple)


def test_no_block_is_ranked_twice(monkeypatch):
    # betti_numbers ranks each degree whole and chained, as many blocks and
    # boundary rows as before pruning (296 blocks and 2,391 rows for F(2,5),
    # 21 blocks for the abelian IA(3,2)); a chain of single-degree reads
    # completes each pruned degree without ranking its blocks again
    calls = []

    def counted(rows, width):
        calls.append(len(rows))
        return _eliminate(rows, width)

    monkeypatch.setattr(lie_homology, "_eliminate", counted)
    for g, blocks, rows in ((free_nilpotent_lie(2, 5), 296, 2391), (ia_lie_algebra(3, 2), 21, 0)):
        calls.clear()
        betti_numbers(copy_of(g))
        assert (len(calls), sum(calls)) == (blocks, rows)
    # the ia_betti(2, 4, q) chain for q = 0..4, counted on a fresh copy of its algebra
    tables = [ia_betti(2, 4, q)[1] for q in range(5)]
    g = copy_of(ia_lie_algebra(2, 4))
    assert g.dim % 2 == 0  # no self-dual degree: each block ranked is eliminated
    calls.clear()
    assert [weighted_betti(g, q) for q in range(5)] == tables
    records = [value for key, value in g._cache.items() if type(key) is tuple]
    ranked = [len(blocks) for asked, blocks in records if asked is None]
    asked, pruned = g._cache[("blocks", 5)]
    assert asked is not None and len(ranked) == 5 and len(calls) == sum(ranked) + len(pruned)
    # betti_number reads as weighted_betti does, so the same degrees answer it
    assert [betti_number(g, q) for q in range(5)] == [sum(table.values()) for table in tables]
    assert len(calls) == sum(ranked) + len(pruned)


def test_hopf_formula_gives_the_second_homology_and_its_dual():
    # H_2(F/Γ_{c+1}) ≅ Γ_{c+1}/Γ_{c+2}: H_2 of F(r, c) is the degree-(c + 1) Lie
    # layer weight for weight, and by duality H_{dim-2} is it at total - w;
    # degree 3, past every direct oracle here, is ranked chained on degree 2
    for r, c in ((4, 4), (3, 5), (2, 8), (5, 3)):
        g = free_nilpotent_lie(r, c)
        layer = evaluate(Lie(c + 1), r).weights
        assert weighted_betti(g, 2) == layer
        total = tuple(map(sum, zip(*g.weights)))
        assert weighted_betti(g, g.dim - 2) == {tuple(a - x for a, x in zip(total, w)): b for w, b in layer.items()}


def direct_sum(g, h):
    """g ⊕ h through the constructor: weights side by side, h's indices after g's."""
    pad_g, pad_h = (0,) * h.weight_length, (0,) * g.weight_length
    brackets = g.brackets
    for (i, j), vec in h.brackets.items():
        brackets[(g.dim + i, g.dim + j)] = {g.dim + k: q for k, q in vec.items()}
    return GradedLieAlgebra(
        g.labels + h.labels,
        tuple(w + pad_g for w in g.weights) + tuple(pad_h + w for w in h.weights),
        brackets,
    )


def test_kunneth_formula_gives_the_tables_of_a_direct_sum():
    # H_d(g ⊕ h) = sum over i + j = d of H_i(g) ⊗ H_j(h), weight for weight.  The
    # sums are not certified to permute their generators, so every block is
    # ranked; the two of dimension 9 read degree 5 through its self-dual mirror
    f22 = free_nilpotent_lie(2, 2)
    tables_h = [weighted_betti(f22, j) for j in range(f22.dim + 1)]
    for g in (free_nilpotent_lie(2, 3), ia_lie_algebra(2, 3), free_nilpotent_lie(3, 2)):
        s = direct_sum(g, f22)
        assert not _permutes_generators(s)
        tables_g = [weighted_betti(g, i) for i in range(g.dim + 1)]
        for d in range(s.dim + 1):
            expected = {}
            for i, tg in enumerate(tables_g):
                if 0 <= d - i <= f22.dim:
                    for u, a in tg.items():
                        for v, b in tables_h[d - i].items():
                            expected[u + v] = expected.get(u + v, 0) + a * b
            assert weighted_betti(s, d) == expected


def test_zero_algebra():
    zero = GradedLieAlgebra((), (), {}, weight_length=2)
    assert betti_numbers(zero) == [1]
    assert weighted_betti(zero, 0) == {(0, 0): 1}
    assert nilpotency_class(zero) == 0


def test_weight_split_ranks_match_full_matrices():
    # the Betti numbers read off the weight tables must agree with ranks of
    # the unsplit boundary matrices, degree by degree
    for g in (free_nilpotent_lie(2, 3), free_nilpotent_lie(3, 2), free_nilpotent_lie(2, 4)):
        for d in range(g.dim + 1):
            up = rank(ce_boundary(g, d + 1)) if d + 1 <= g.dim else 0
            assert betti_number(g, d) == comb(g.dim, d) - rank(ce_boundary(g, d)) - up


def self_conjugate_partitions(r):
    """(k, lam) for each self-conjugate partition lam with at most r parts, k = (|lam| + Durfee rank) / 2.

    In Frobenius notation lam = (a_1, ..., a_p | a_1, ..., a_p) with
    r > a_1 > ... > a_p >= 0, so k = sum(a_i + 1).
    """
    for p in range(r + 1):
        for arms in combinations(range(r - 1, -1, -1), p):
            lam = [a + i + 1 for i, a in enumerate(arms)]
            lam += [sum(1 for part in lam if part > i) for i in range(p, lam[0] if lam else 0)]
            yield sum(a + 1 for a in arms), lam


def class_two_betti(r):
    """Betti numbers of F(r, 2) by Jozefiak-Weyman (1985) and Sigg (1996).

    H_k(V + wedge^2 V) is the sum of the Schur modules S_lam V over the
    self-conjugate lam with (|lam| + Durfee rank) / 2 = k; dim S_lam(Q^r)
    comes from the hook-content formula.
    """
    out = [0] * (r + r * (r - 1) // 2 + 1)
    for k, lam in self_conjugate_partitions(r):
        cells = [(i, j) for i, part in enumerate(lam) for j in range(part)]
        contents = prod(r + j - i for i, j in cells)
        hooks = prod(lam[i] - j + lam[j] - i - 1 for i, j in cells)  # lam is its own conjugate
        out[k] += contents // hooks
    return out


def test_class_two_closed_form():
    assert class_two_betti(2) == [1, 2, 2, 1]
    for r in range(2, 6):
        assert group_betti(r, 2) == class_two_betti(r)


def test_class_two_homology_splits_into_self_conjugate_schur_modules():
    # Jozefiak-Weyman and Sigg irreducible by irreducible: H_k(F(r, 2)) holds
    # each S_lam with lam self-conjugate, (|lam| + Durfee rank) / 2 = k and at
    # most r parts, once, and nothing else
    for r in (3, 4):
        g = free_nilpotent_lie(r, 2)
        expected = [{} for _ in range(g.dim + 1)]
        for k, lam in self_conjugate_partitions(r):
            expected[k][tuple(lam) + (0,) * (r - len(lam))] = 1
        assert [_weyl_multiplicities(WeightModule(r, weighted_betti(g, k))) for k in range(g.dim + 1)] == expected


def test_weights_with_last_entry_zero_restrict_to_one_generator_fewer():
    # a block whose weight has last entry 0 holds only wedges of basis elements
    # free of the last generator, and those span F(r - 1, c)
    for r, c in ((4, 2), (3, 3), (2, 4)):
        g, h = free_nilpotent_lie(r, c), free_nilpotent_lie(r - 1, c)
        for d in range(g.dim + 1):
            restricted = {w[:-1]: b for w, b in weighted_betti(g, d).items() if w[-1] == 0}
            assert restricted == weighted_betti(h, d)


def direct_weighted_betti(g, d):
    """Degree-d homology by weight from ranks of ce_boundary restricted to each weight.

    Uses no weight blocks, symmetry or duality: every wedge is listed, and
    each weight's rows and columns are cut out of the full boundary matrices.
    """

    @cache
    def wedge_weights(k):
        return [
            tuple(sum(g.weights[i][t] for i in combo) for t in range(g.weight_length))
            for combo in combinations(range(g.dim), k)
        ]

    boundary = cache(lambda k: ce_boundary(g, k))

    def restricted_rank(k, w):
        if not 1 <= k <= g.dim:
            return 0
        matrix = boundary(k)
        rows = [i for i, v in enumerate(wedge_weights(k - 1)) if v == w]
        cols = [j for j, v in enumerate(wedge_weights(k)) if v == w]
        entries = {(a, b): matrix.entry(i, j) for a, i in enumerate(rows) for b, j in enumerate(cols)}
        return rank(RationalMatrix(len(rows), len(cols), entries))

    weights = wedge_weights(d)
    out = {}
    for w in sorted(set(weights)):
        b = weights.count(w) - restricted_rank(d, w) - restricted_rank(d + 1, w)
        if b:
            out[w] = b
    return out


def assert_matches_direct_oracle(g):
    for d in range(g.dim + 1):
        direct = direct_weighted_betti(g, d)
        assert list(weighted_betti(g, d).items()) == list(direct.items())
        assert betti_number(g, d) == sum(direct.values())


def direct_oracle_algebras():
    """The algebras whose weight tables are checked against direct_weighted_betti."""
    ia = (ia_lie_algebra(2, 3), ia_lie_algebra(3, 2), ia_lie_algebra(2, 4))
    assert all(map(_permutes_generators, ia))  # certified: only dominant blocks are ranked
    return (free_nilpotent_lie(2, 3), free_nilpotent_lie(3, 2), free_nilpotent_lie(2, 4), *ia)


def test_direct_ranks_match_weighted_tables():
    for g in direct_oracle_algebras():
        assert_matches_direct_oracle(g)


def test_orbit_lists_each_distinct_permutation_once():
    rng = random.Random(3301)
    for n in range(8):
        for _ in range(40):
            w = tuple(rng.randint(-2, 2) for _ in range(n))
            assert list(orbit(w)) == sorted(set(permutations(w)))


def test_weight_tables_equal_the_spread_over_all_permutations():
    # the tables as spreading each dominant weight by set(permutations(w)) gave them
    for g in direct_oracle_algebras():
        for d in range(g.dim + 1):
            table = weighted_betti(g, d)
            dominant = {w: b for w, b in table.items() if list(w) == sorted(w, reverse=True)}
            spread = {image: b for w, b in dominant.items() for image in set(permutations(w))}
            assert table == dict(sorted(spread.items()))
            assert list(table) == sorted(table)


def test_abelian_rank_twelve_spreads_without_listing_permutations():
    # the weight of a d-wedge of F(12, 1) has an orbit of C(12, d) weights, where
    # listing all 12! = 479,001,600 permutations of it would not finish
    g = free_nilpotent_lie(12, 1)
    for d in (1, 6):
        table = weighted_betti(g, d)
        assert len(table) == comb(12, d) and set(table.values()) == {1}
        assert betti_number(g, d) == comb(12, d)


def mask(combo):
    """The bitmask of a wedge, the sum of 2^i over its indices."""
    return sum(1 << i for i in combo)


def test_wedge_buckets_match_filtered_combinations():
    # every degree 0..dim + 1, both values of dominant: the same weights in the
    # same order as filtering all combinations, each bucket the masks of its
    # combinations in lexicographic order
    shapes = [(g, g.dim + 1) for g in (*direct_oracle_algebras(), free_nilpotent_lie(5, 2))]
    shapes += [(ia_lie_algebra(3, 3), 4), (ia_lie_algebra(2, 1), 1), (free_nilpotent_lie(1, 1), 2)]
    for g, max_degree in shapes:
        for d in range(max_degree + 1):
            for dominant in (False, True):
                expected = {}
                for combo in combinations(range(g.dim), d):
                    w = tuple(map(sum, zip(*(g.weights[i] for i in combo)))) or (0,) * g.weight_length
                    if not dominant or list(w) == sorted(w, reverse=True):
                        expected.setdefault(w, []).append(mask(combo))
                assert list(_wedge_buckets(g, d, dominant).items()) == list(expected.items())


def test_block_rows_match_oracle_entries():
    # the engine's nonzero rows of each weight block, as a multiset, are L times
    # the rows of ce_boundary restricted to that block's wedges; IA(3,4) has
    # dimension 87, so its masks pass 64 bits
    h = rescaled(free_nilpotent_lie(2, 4), random.Random(4))
    assert any(q.denominator > 1 for vec in h.brackets.values() for q in vec.values())  # L > 1
    ia = ia_lie_algebra(3, 4)
    assert ia.dim == 87
    for g, max_degree in (*((g, g.dim) for g in (*direct_oracle_algebras(), h)), (ia, 2)):
        scale = lcm(*(q.denominator for vec in g.brackets.values() for q in vec.values()))
        for d in range(1, max_degree + 1):
            columns = ce_boundary(g, d).columns()
            col_of = {mask(combo): j for j, combo in enumerate(combinations(range(g.dim), d))}
            for masks in _wedge_buckets(g, d, False).values():
                expected = {}
                for j, wedge in enumerate(masks):
                    for i, q in columns[col_of[wedge]].items():
                        expected.setdefault(i, {})[j] = scale * q
                engine = [row for row in _block_rows(g, masks) if row]
                assert sorted(sorted(row.items()) for row in engine) == sorted(
                    sorted(row.items()) for row in expected.values()
                )


def test_terms_cancelling_inside_one_column():
    # [a, b] = b and [a, c] = -c give d(a^b^c) = -b^c + b^c = 0: the row of b^c
    # is reached and then cancels
    g = GradedLieAlgebra(("a", "b", "c"), ((0,), (1,), (-1,)), {(0, 1): {1: 1}, (0, 2): {2: -1}})
    assert not any(_block_rows(g, [0b111]))
    assert betti_numbers(g) == [1, 1, 1, 1]
    assert_matches_direct_oracle(g)


def test_duality_needs_unimodular_algebra():
    # [x, y] = y: ad x has trace 1, and x has weight zero
    g = GradedLieAlgebra(("x", "y"), ((0,), (1,)), {(0, 1): {1: 1}})
    assert betti_numbers(g) == [1, 1, 0]
    assert_matches_direct_oracle(g)


def test_sl2_is_not_nilpotent_and_has_the_homology_of_a_three_sphere():
    # sl_2 with [e, f] = h, [h, e] = 2e, [h, f] = -2f, graded by the eigenvalue of ad h / 2;
    # H_*(sl_2) = Λ[x_3], with both classes of weight zero
    g = GradedLieAlgebra(("e", "f", "h"), ((1,), (-1,), (0,)), {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    assert betti_numbers(g) == [1, 0, 0, 1]
    assert [weighted_betti(g, d) for d in range(4)] == [{(0,): 1}, {}, {}, {(0,): 1}]
    assert_matches_direct_oracle(g)
    for invariant in (lower_central_series_dims, nilpotency_class):
        with pytest.raises(ValueError, match="^algebra is not nilpotent$"):
            invariant(g)


def test_symmetry_needs_free_nilpotent_algebra():
    # the weights and Hall basis of F(2,3) with [e0,e1] = e2 and [e0,e2] = e3 only:
    # swapping the generators is no automorphism, so H_1 has weight (1,2) but not (2,1)
    basis = hall_basis(2, 3)
    g = GradedLieAlgebra(
        tuple(basis.label(w) for w in basis.elements),
        tuple(basis.multiweight(w) for w in basis.elements),
        {(0, 1): {2: 1}, (0, 2): {3: 1}},
        hall=basis,
    )
    assert weighted_betti(g, 1) == {(0, 1): 1, (1, 0): 1, (1, 2): 1}
    assert_matches_direct_oracle(g)


def test_class_one_ia_algebra_is_certified_like_every_class():
    # the zero algebra IA(r, 1) goes through the same path as every other class
    for r in (1, 2, 3):
        g = ia_lie_algebra(r, 1)
        assert g.dim == 0 and g.weight_length == r and _permutes_generators(g)
        assert betti_numbers(g) == [1]


def test_symmetry_certificate_rejects_a_non_automorphic_swap():
    # IA(2,4)'s pair basis and weights with only [x1->12, x2->12] = x1->112 and
    # [x1->12, x1->112] = x1->1122: Jacobi holds (degree 3 is central), but
    # swapping the generators is no automorphism, and H_1 has weight (2,1)
    # twice and (1,2) once
    ia = ia_lie_algebra(2, 4)
    g = GradedLieAlgebra(ia.labels, ia.weights, {(0, 6): {1: 1}, (0, 1): {4: 1}})
    assert not _certify_generator_symmetry(g, 4)
    assert not _permutes_generators(g)
    assert weighted_betti(g, 1)[(2, 1)] == 2 and weighted_betti(g, 1)[(1, 2)] == 1
    assert_matches_direct_oracle(g)
    # IA(2,3)'s brackets with weights (2a, b): Jacobi and additivity still
    # hold, but the swap sends a vector of weight (2a, b) to one of weight
    # (2b, a), not (b, 2a), so the certificate fails on weights alone
    ia = ia_lie_algebra(2, 3)
    h = GradedLieAlgebra(ia.labels, tuple((2 * a, b) for a, b in ia.weights), ia.brackets)
    assert not _certify_generator_symmetry(h, 3)
    assert not _permutes_generators(h)
