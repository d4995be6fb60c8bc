"""Automorphisms of free nilpotent groups as graded Lie algebra automorphisms.

Through the exp/log correspondence, an automorphism of the rational
completion of a free nilpotent group is the same thing as an automorphism
of the free nilpotent Lie algebra, and the automorphisms acting trivially
on the abelianization correspond rationally to the exponentials of
strictly filtration-raising derivations.  Such a derivation is freely
determined by its values on the generators, so the derivation Lie algebra
has a basis indexed by pairs (generator, basis word of degree >= 2); its
dimension matches, layer by layer, the iterated extensions of the
identity-on-abelianization automorphism subgroups by the free abelian
kernels Hom(generators, top-degree layer).

The identification of the rational homology of those subgroups with the
homology of the derivation Lie algebra is the standard completion route;
it is an assumption of this module, cross-checked against the abelian
class-2 case and the dimension ledger of the iterated extensions, not
something re-proved here.  Outer automorphisms are represented only
through quotient data (center, inner action, coinvariants); they carry no
natural coordinates of their own.

Both actions of the integral general linear group are read from
``rep.action_matrix``.  Each public call here reads its GL matrix once,
with ``exact_linalg._as_matrix``, and hands on the ``RationalMatrix``,
which every call below takes as it is.  The derivation pair (i, w) is
(dual generator i) tensor w, so the action on derivations is the dual
action tensored with the degree-2..c block of the certified action on
the algebra; no Lie layer is built twice.  Its definition by
conjugation, A D A^-1, lives in ``invariants.conjugation_consistency``.

Everything is pure and immutable; construction of an object verifies its
defining identities (bracket preservation, Leibniz rule, filtration) on
all basis pairs, exactly.  Each certified object has one construction
path, and that path certifies: no constructor here takes a switch that
skips the check, and a composite is built through the same constructor.

The pair check runs in sparse integer arithmetic and visits only terms
that can be nonzero.  It reads the algebra's integer bracket table,
built once with the algebra, and scales both sides of each identity by
one fixed nonzero integer, so it accepts and rejects exactly what a
Fraction loop over every basis pair would, and names the same first
failing pair (``_CertifiedMap`` gives the details).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping

from .exact_linalg import RationalMatrix, _add, _add_scaled, _as_matrix, _kron, determinant, rank
from .exact_linalg import exp_nilpotent  # noqa: F401 - perfbench wraps it by name
from .exact_linalg import invert  # noqa: F401 - perfbench wraps it by name
from .free_lie import LieElement, bracket_coordinates, hall_basis
from .free_lie import bracket  # noqa: F401 - perfbench wraps it by name
from .free_lie import induced_map_lie  # noqa: F401 - perfbench wraps it by name
from .lie_homology import GradedLieAlgebra, free_nilpotent_lie, weighted_betti
from .lie_homology import betti_number  # noqa: F401 - perfbench wraps it by name

# after lie_homology, so that whatever imports aut runs the modules in the
# order exact_linalg, free_lie, weights, lie_homology, rep, aut: a nilhom
# process's peak RSS moves with that order
from . import rep

__all__ = [
    "LieAutomorphism",
    "DerivationMatrix",
    "automorphism_from_gl",
    "derivation_from_images",
    "ia_basis_pairs",
    "ia_lie_algebra",
    "ia_betti",
    "gl_conjugation_on_ia",
]


_ONE = Fraction(1)


class _CertifiedMap:
    """Matrix on a graded Lie algebra whose defining identity holds on all basis pairs.

    A subclass checks the whole matrix in ``_check_matrix`` and gives, in
    ``_sides``, both sides of its identity on the pairs (i, j), j > i, as
    integer vectors.  The constructor is the only way to make one, and it
    always runs the check: a map that exists has been certified.

    The check is exact and covers every pair i < j, but it only visits
    terms that can be nonzero.  The matrix is scaled by the lcm L of its
    denominators, and the brackets are read, S times each, from the
    algebra's integer table ``_partners`` with the sign of the index
    order.  So both sides are integer vectors, each a fixed nonzero
    multiple of the rational side it stands for; they are equal exactly
    when the rational sides are.  For each i the left sides of all pairs
    (i, j) are built from the brackets [e_i, e_j] with j > i, and the
    right sides from the nonzero entries of column i, their bracket
    partners, and a row index of the matrix that tells which columns meet
    a given partner.  A pair neither side reaches has both sides zero.
    Pairs are compared in order, least i then least j, so the pair a
    failure names is the first failing one.
    """

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: GradedLieAlgebra, matrix: RationalMatrix) -> None:
        m = algebra.dim
        if matrix.rows != m or matrix.cols != m:
            raise ValueError("matrix shape does not match the algebra dimension")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "matrix", matrix)
        self._check()

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check(self) -> None:
        m = self.algebra.dim
        self._check_matrix()
        entries = self.matrix.entries
        scale = lcm(*(q.denominator for q in entries.values()))
        cols: list[dict[int, int]] = [{} for _ in range(m)]  # column j of L times the matrix
        rows: list[dict[int, int]] = [{} for _ in range(m)]  # the same entries, by row
        for (a, j), q in entries.items():
            cols[j][a] = rows[a][j] = q.numerator * (scale // q.denominator)
        for i in range(m):
            left, right = self._sides(i, cols, rows, scale)
            if left != right:  # maybe only a side that cancelled to an empty vector
                for j in sorted(left.keys() | right.keys()):
                    if left.get(j, {}) != right.get(j, {}):
                        raise ValueError(f"{self._pair_failure} on basis pair ({i}, {j})")

    def _bracket_images(self, i, cols, factor) -> dict[int, dict[int, int]]:
        """{j: factor times the matrix applied to S [e_i, e_j]} for the j > i with [e_i, e_j] != 0."""
        out: dict[int, dict[int, int]] = {}
        for j, vec in self.algebra._partners[i][1].items():
            if j > i:
                acc: dict[int, int] = {}
                for k, q in vec.items():
                    _add_scaled(acc, cols[k], factor * q)
                if acc:
                    out[j] = acc
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.algebra is other.algebra and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.algebra.dim})"


class LieAutomorphism(_CertifiedMap):
    """Invertible, bracket-preserving, filtration-respecting matrix on a graded Lie algebra."""

    __slots__ = ()
    _pair_failure = "brackets are not preserved"

    def _check_matrix(self) -> None:
        g, mat = self.algebra, self.matrix
        if rank(mat) != g.dim:
            raise ValueError("matrix is not invertible")
        for i, j in mat.entries:
            if g.degree(i) < g.degree(j):
                raise ValueError("matrix does not respect the degree filtration")

    def _sides(self, i, cols, rows, scale):
        """L phi[e_i, e_j] and [L phi e_i, L phi e_j], times S, for every j > i either reaches."""
        partners = self.algebra._partners
        right: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for a, p in cols[i].items():  # [phi e_i, phi e_j] = sum of phi_ai phi_bj [e_a, e_b]
            for b, vec in partners[a][1].items():
                sp = p if b > a else -p  # [e_a, e_b] = sign(b - a) vec / S
                for j, q in rows[b].items():
                    if j > i:
                        _add_scaled(right[j], vec, sp * q)
        return self._bracket_images(i, cols, scale), right

    def compose(self, other: "LieAutomorphism") -> "LieAutomorphism":
        if self.algebra is not other.algebra:
            raise ValueError("automorphisms live on different algebras")
        return LieAutomorphism(self.algebra, self.matrix @ other.matrix)

    @property
    def is_identity(self) -> bool:
        return self.matrix == RationalMatrix.identity(self.algebra.dim)


class DerivationMatrix(_CertifiedMap):
    """Strictly filtration-raising derivation of a graded Lie algebra.

    Satisfies the Leibniz rule on all basis pairs and sends every basis
    vector into strictly higher degrees, hence is nilpotent as a matrix.
    """

    __slots__ = ()
    _pair_failure = "Leibniz rule fails"

    def _check_matrix(self) -> None:
        g = self.algebra
        for i, j in self.matrix.entries:
            if g.degree(i) <= g.degree(j):
                raise ValueError("derivation is not strictly filtration-raising")

    def _sides(self, i, cols, rows, scale):
        """D[e_i, e_j] and [D e_i, e_j] + [e_i, D e_j], times L S, for every j > i either reaches."""
        partners = self.algebra._partners
        right: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for a, p in cols[i].items():  # [D e_i, e_j] = sum of D_ai [e_a, e_j]
            for j, vec in partners[a][1].items():
                if j > i:
                    _add_scaled(right[j], vec, p if j > a else -p)
        for b, vec in partners[i][1].items():  # [e_i, D e_j] = sum of D_bj [e_i, e_b]
            for j, q in rows[b].items():
                if j > i:
                    _add_scaled(right[j], vec, q if b > i else -q)
        return self._bracket_images(i, cols, 1), right


def automorphism_from_gl(matrix, cls: int) -> LieAutomorphism:
    """Block-diagonal automorphism induced degreewise by a matrix in GL_r(Z).

    The matrix must be square, of determinant +-1 and with integer
    entries, checked in that order.  The degree-n block is the degree-n
    Lie functor applied to the matrix, read from ``rep.action_matrix`` on
    lie[1..cls] and certified as above.
    """
    gl = _as_matrix(matrix)
    if gl.rows != gl.cols:
        raise ValueError("matrix must be square")
    det = determinant(gl)
    if det not in (Fraction(1), Fraction(-1)):
        raise ValueError(f"matrix must be unimodular, determinant is {det}")
    if any(q.denominator != 1 for q in gl.entries.values()):
        raise ValueError("matrix must have integer entries")
    algebra = free_nilpotent_lie(gl.rows, cls)
    return LieAutomorphism(algebra, rep.action_matrix(rep.lie_interval(1, cls), gl, gl.rows))


def derivation_from_images(algebra: GradedLieAlgebra, images: Mapping[int, LieElement]) -> DerivationMatrix:
    """The unique derivation extending an assignment on the generators.

    ``images`` maps generator positions (0-based, the degree-1 basis
    slots) to elements supported in degrees 2..c; the extension follows
    the Leibniz rule through the standard factorizations.  Degree-1
    coordinates in an image are a usage error.
    """
    basis = algebra.hall
    if basis is None:
        raise ValueError("derivations need a free nilpotent algebra with a word basis")
    r = basis.rank
    assigned: dict[int, dict[int, Fraction]] = {}
    for pos, img in images.items():
        if not 0 <= pos < r:
            raise ValueError(f"generator index {pos} outside 0..{r - 1}")
        if not basis.same_as(img.basis):
            raise ValueError("image lives over a different basis")
        if any(len(w) < 2 for w in img.coords):
            raise ValueError("generator images must have coordinates in degrees 2..c only")
        assigned[pos] = {basis.index[w]: q for w, q in img.coords.items()}
    columns: list[dict[int, Fraction]] = []
    for col, word in enumerate(basis.elements):
        if len(word) == 1:
            value = assigned.get(col, {})  # the generator in position col
        else:
            # D[e_u, e_v] = [D e_u, e_v] + [e_u, D e_v]
            u, v = basis.factorization[word]
            u, v = basis.index[u], basis.index[v]
            value = bracket_coordinates(basis, columns[u], {v: _ONE}) if columns[u] else {}
            if columns[v]:
                for k, q in bracket_coordinates(basis, {u: _ONE}, columns[v]).items():
                    _add(value, k, q)
        columns.append(value)
    return DerivationMatrix(algebra, RationalMatrix._from_columns(algebra.dim, columns))


def ia_basis_pairs(r: int, c: int) -> list[tuple[int, tuple[int, ...]]]:
    """Basis index of the derivation algebra: (generator position, word of degree 2..c)."""
    basis = hall_basis(r, c)
    return [(i, w) for i in range(r) for w in basis.elements if len(w) >= 2]


@lru_cache(maxsize=None)
def ia_lie_algebra(r: int, c: int) -> GradedLieAlgebra:
    """Lie algebra of strictly filtration-raising derivations, in the pair basis.

    Dimension r * sum_{b=2}^{c} witt_dimension(r, b); the bracket is the
    matrix commutator read back through generator images; the multiweight
    of the pair (i, w) is weight(w) minus the i-th unit vector.  Nilpotent
    of class at most c - 1; class 1 gives the zero algebra.  Permuting the
    generators acts by Lie automorphisms that permute the weights; that is
    certified here, once, so homology ranks only non-increasing weights.
    """
    if r < 1:
        raise ValueError("rank must be at least 1")
    if c < 1:
        raise ValueError("class must be at least 1")
    algebra = free_nilpotent_lie(r, c)
    basis = algebra.hall
    pairs = ia_basis_pairs(r, c)
    pair_index = {pair: n for n, pair in enumerate(pairs)}
    # each basis derivation's nonzero columns only: most of its columns are zero
    columns: list[dict[int, dict[int, Fraction]]] = []
    for i, w in pairs:
        derivation = derivation_from_images(algebra, {i: LieElement(basis, {w: 1})})
        columns.append({col: vec for col, vec in enumerate(derivation.matrix.columns()) if vec})
    labels = tuple(f"x{i + 1}->{basis.label(w)}" for i, w in pairs)
    weights = tuple(
        tuple(wt - (1 if t == i else 0) for t, wt in enumerate(basis.multiweight(w)))
        for i, w in pairs
    )
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(len(pairs)):
        ia_gen, wa = pairs[a]
        for b in range(a + 1, len(pairs)):
            ib_gen, wb = pairs[b]
            coords: dict[int, Fraction] = {}
            # [Da, Db] sends the generator of Db to Da(wb) and the
            # generator of Da to -Db(wa); all other generators to zero.
            for row, q in columns[a].get(basis.index[wb], {}).items():
                _add(coords, pair_index[(ib_gen, basis.elements[row])], q)
            for row, q in columns[b].get(basis.index[wa], {}).items():
                _add(coords, pair_index[(ia_gen, basis.elements[row])], -q)
            if coords:
                brackets[(a, b)] = coords
    g = GradedLieAlgebra(labels, weights, brackets, weight_length=r)
    _certify_generator_symmetry(g, c)
    return g


def _certify_generator_symmetry(g: GradedLieAlgebra, c: int) -> bool:
    """Certify that permuting the generators permutes the weight blocks of g.

    g carries the pair basis of ia_lie_algebra(r, c), r = g.weight_length.
    For each adjacent transposition s_t, the conjugation action of its
    permutation matrix must map each weight w to s_t w and pass the
    LieAutomorphism check (invertible, filtration, every bracket pair).  Such
    a map carries weight block w of every exterior power onto block s_t w
    and commutes with the boundary; the s_t generate S_r.  Only a passing
    certificate marks g, which lets homology rank only non-increasing
    weights.
    """
    r = g.weight_length
    for t in range(r - 1):
        swap = [*range(t), t + 1, t, *range(t + 2, r)]
        matrix = gl_conjugation_on_ia([[int(j == swap[i]) for j in range(r)] for i in range(r)], r, c)
        for i, j in matrix.entries:
            w = g.weights[j]
            if g.weights[i] != (*w[:t], w[t + 1], w[t], *w[t + 2 :]):
                return False
        try:
            LieAutomorphism(g, matrix)
        except ValueError:
            return False
    g._cache["permutes_generators"] = True
    return True


def ia_betti(r: int, c: int, q: int) -> tuple[int, dict[tuple[int, ...], int]]:
    """Degree-q homology of the derivation algebra: dimension and weight refinement."""
    table = weighted_betti(ia_lie_algebra(r, c), q)
    return sum(table.values()), table


def gl_conjugation_on_ia(matrix, r: int, c: int) -> RationalMatrix:
    """Conjugation action of a matrix in GL_r(Z) on the derivation pair basis.

    The dual action from ``rep.action_matrix``, tensored with the degree-2..c
    block of the automorphism the matrix induces; ``invariants.conjugation_consistency``
    checks it against the definition, A D A^-1 on each basis derivation D.
    The matrix is read once, here; a square one of the wrong size is
    refused before ``automorphism_from_gl`` checks the rest.
    """
    gl = _as_matrix(matrix)
    if gl.rows == gl.cols != r:
        raise ValueError(f"matrix must be {r}x{r}")
    auto = automorphism_from_gl(gl, c).matrix
    upper = {(i - r, j - r): q for (i, j), q in auto.entries.items() if j >= r}
    return _kron(rep.action_matrix(rep.DualStd(), gl, r),
                 RationalMatrix._computed(auto.rows - r, auto.cols - r, upper))
