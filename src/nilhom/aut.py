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

Everything is pure and immutable; construction of an object verifies its
defining identities (bracket preservation, Leibniz rule, filtration) on
all basis pairs, exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .exact_linalg import (
    RationalMatrix,
    determinant,
    exp_nilpotent,
    fraction_rows,
    invert,
    rank,
)
from .free_lie import LieElement, hall_basis, bracket, induced_map_lie
from .lie_homology import (
    GradedLieAlgebra,
    betti_number,
    free_nilpotent_lie,
    weighted_betti,
)

__all__ = [
    "LieAutomorphism",
    "DerivationMatrix",
    "automorphism_from_gl",
    "derivation_from_images",
    "exp_derivation",
    "ia_basis_pairs",
    "ia_lie_algebra",
    "ia_betti",
    "gl_conjugation_on_ia",
]


def _apply(matrix: RationalMatrix, vec: Mapping[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for j, q in vec.items():
        for i, a in matrix.column(j).items():
            v = out.get(i, Fraction(0)) + a * q
            if v:
                out[i] = v
            else:
                out.pop(i, None)
    return out


class LieAutomorphism:
    """Invertible, bracket-preserving, filtration-respecting matrix on a graded Lie algebra."""

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: GradedLieAlgebra, matrix: RationalMatrix, check: bool = True) -> None:
        m = algebra.dim
        if matrix.rows != m or matrix.cols != m:
            raise ValueError("matrix shape does not match the algebra dimension")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "matrix", matrix)
        if check:
            self._check()

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LieAutomorphism is immutable")

    def _check(self) -> None:
        g, mat = self.algebra, self.matrix
        if rank(mat) != g.dim:
            raise ValueError("matrix is not invertible")
        for (i, j), q in mat.entries.items():
            if g.degree(i) < g.degree(j):
                raise ValueError("matrix does not respect the degree filtration")
        cols = [mat.column(j) for j in range(g.dim)]
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = _apply(mat, g.bracket_basis(i, j))
                rhs = g.bracket_vectors(cols[i], cols[j])
                if lhs != rhs:
                    raise ValueError(
                        f"brackets are not preserved on basis pair ({i}, {j})"
                    )

    def compose(self, other: "LieAutomorphism") -> "LieAutomorphism":
        if self.algebra is not other.algebra:
            raise ValueError("automorphisms live on different algebras")
        return LieAutomorphism(self.algebra, self.matrix @ other.matrix, check=False)

    def inverse(self) -> "LieAutomorphism":
        return LieAutomorphism(self.algebra, invert(self.matrix), check=False)

    def is_identity(self) -> bool:
        return self.matrix == RationalMatrix.identity(self.algebra.dim)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieAutomorphism):
            return NotImplemented
        return self.algebra is other.algebra and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"LieAutomorphism(dim={self.algebra.dim})"


class DerivationMatrix:
    """Strictly filtration-raising derivation of a graded Lie algebra.

    Satisfies the Leibniz rule on all basis pairs and sends every basis
    vector into strictly higher degrees, hence is nilpotent as a matrix.
    """

    __slots__ = ("algebra", "matrix")

    def __init__(self, algebra: GradedLieAlgebra, matrix: RationalMatrix, check: bool = True) -> None:
        m = algebra.dim
        if matrix.rows != m or matrix.cols != m:
            raise ValueError("matrix shape does not match the algebra dimension")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "matrix", matrix)
        if check:
            self._check()

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("DerivationMatrix is immutable")

    def _check(self) -> None:
        g, mat = self.algebra, self.matrix
        for (i, j), q in mat.entries.items():
            if g.degree(i) <= g.degree(j):
                raise ValueError("derivation is not strictly filtration-raising")
        cols = [mat.column(j) for j in range(g.dim)]
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = _apply(mat, g.bracket_basis(i, j))
                rhs = g.bracket_vectors(cols[i], {j: Fraction(1)})
                for k, q in g.bracket_vectors({i: Fraction(1)}, cols[j]).items():
                    v = rhs.get(k, Fraction(0)) + q
                    if v:
                        rhs[k] = v
                    else:
                        rhs.pop(k, None)
                if lhs != rhs:
                    raise ValueError(f"Leibniz rule fails on basis pair ({i}, {j})")

    def __add__(self, other: "DerivationMatrix") -> "DerivationMatrix":
        if self.algebra is not other.algebra:
            raise ValueError("derivations live on different algebras")
        return DerivationMatrix(self.algebra, self.matrix + other.matrix, check=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DerivationMatrix):
            return NotImplemented
        return self.algebra is other.algebra and self.matrix == other.matrix

    def __repr__(self) -> str:
        return f"DerivationMatrix(dim={self.algebra.dim})"


def _normalize_square(matrix) -> list[list[Fraction]]:
    rows = fraction_rows(matrix)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return rows


def automorphism_from_gl(matrix, cls: int) -> LieAutomorphism:
    """Block-diagonal automorphism induced degreewise by a unimodular matrix.

    The degree-n block is the degree-n Lie functor applied to the matrix.
    """
    rows = _normalize_square(matrix)
    r = len(rows)
    det = determinant(RationalMatrix.from_rows(rows)) if r else Fraction(1)
    if det not in (Fraction(1), Fraction(-1)):
        raise ValueError(f"matrix must be unimodular, determinant is {det}")
    algebra = free_nilpotent_lie(r, cls)
    basis = algebra.hall
    entries: dict[tuple[int, int], Fraction] = {}
    for n in range(1, cls + 1):
        block = induced_map_lie(rows, n)
        offset = basis.degree_start[n]
        for (i, j), q in block.entries.items():
            entries[(offset + i, offset + j)] = q
    return LieAutomorphism(algebra, RationalMatrix(algebra.dim, algebra.dim, entries))


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
    zero = LieElement(basis)
    assigned: dict[tuple[int, ...], LieElement] = {}
    for pos, img in images.items():
        if not 0 <= pos < r:
            raise ValueError(f"generator index {pos} outside 0..{r - 1}")
        if not basis.same_as(img.basis):
            raise ValueError("image lives over a different basis")
        if any(len(w) < 2 for w in img.coords):
            raise ValueError("generator images must have coordinates in degrees 2..c only")
        assigned[basis.elements[pos]] = img
    memo: dict[tuple[int, ...], LieElement] = {}
    entries: dict[tuple[int, int], Fraction] = {}
    for col, word in enumerate(basis.elements):
        if len(word) == 1:
            value = assigned.get(word, zero)
        else:
            u, v = basis.factorization[word]
            value = bracket(memo[u], LieElement(basis, {v: 1})) + bracket(
                LieElement(basis, {u: 1}), memo[v]
            )
        memo[word] = value
        for w, q in value.coords.items():
            entries[(basis.index[w], col)] = q
    return DerivationMatrix(algebra, RationalMatrix(algebra.dim, algebra.dim, entries))


def exp_derivation(d: DerivationMatrix) -> LieAutomorphism:
    """Exact exponential of a strictly raising derivation: an automorphism fixing degree 1."""
    return LieAutomorphism(d.algebra, exp_nilpotent(d.matrix))


def ia_basis_pairs(r: int, c: int) -> list[tuple[int, tuple[int, ...]]]:
    """Basis index of the derivation algebra: (generator position, word of degree 2..c)."""
    basis = hall_basis(r, c)
    return [(i, w) for i in range(r) for w in basis.elements if len(w) >= 2]


@lru_cache(maxsize=None)
def _ia_generators(r: int, c: int):
    algebra = free_nilpotent_lie(r, c)
    basis = algebra.hall
    pairs = tuple(ia_basis_pairs(r, c))
    derivations = tuple(
        derivation_from_images(algebra, {i: LieElement(basis, {w: 1})}) for i, w in pairs
    )
    return pairs, derivations


@lru_cache(maxsize=None)
def ia_lie_algebra(r: int, c: int) -> GradedLieAlgebra:
    """Lie algebra of strictly filtration-raising derivations, in the pair basis.

    Dimension r * sum_{b=2}^{c} witt_dimension(r, b); the bracket is the
    matrix commutator read back through generator images; the multiweight
    of the pair (i, w) is weight(w) minus the i-th unit vector.  Nilpotent
    of class at most c - 1; class 1 gives the zero algebra.
    """
    if r < 1:
        raise ValueError("rank must be at least 1")
    if c < 1:
        raise ValueError("class must be at least 1")
    if c == 1:
        return GradedLieAlgebra((), (), {}, weight_length=r)
    algebra = free_nilpotent_lie(r, c)
    basis = algebra.hall
    pairs, derivations = _ia_generators(r, c)
    pair_index = {pair: n for n, pair in enumerate(pairs)}
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
            for row, q in derivations[a].matrix.column(basis.index[wb]).items():
                key = pair_index[(ib_gen, basis.elements[row])]
                coords[key] = coords.get(key, Fraction(0)) + q
            for row, q in derivations[b].matrix.column(basis.index[wa]).items():
                key = pair_index[(ia_gen, basis.elements[row])]
                coords[key] = coords.get(key, Fraction(0)) - q
            coords = {k: q for k, q in coords.items() if q}
            if coords:
                brackets[(a, b)] = coords
    return GradedLieAlgebra(labels, weights, brackets, weight_length=r, check=True)


def ia_betti(r: int, c: int, q: int) -> tuple[int, dict[tuple[int, ...], int]]:
    """Degree-q homology of the derivation algebra: dimension and weight refinement."""
    g = ia_lie_algebra(r, c)
    return betti_number(g, q), weighted_betti(g, q)


def gl_conjugation_on_ia(matrix, r: int, c: int) -> RationalMatrix:
    """Conjugation action of a unimodular matrix on the derivation pair basis.

    Equals the natural action on Hom(standard, degree-[2..c] part) under
    the identification of the pair (i, w) with (dual generator i) tensor w.
    """
    rows = _normalize_square(matrix)
    if len(rows) != r:
        raise ValueError(f"matrix must be {r}x{r}")
    auto = automorphism_from_gl(rows, c)
    auto_inv = invert(auto.matrix)
    basis = auto.algebra.hall
    pairs, derivations = _ia_generators(r, c)
    pair_index = {pair: n for n, pair in enumerate(pairs)}
    entries: dict[tuple[int, int], Fraction] = {}
    for col, der in enumerate(derivations):
        conj = auto.matrix @ der.matrix @ auto_inv
        for k in range(r):
            for row, q in conj.column(k).items():
                word = basis.elements[row]
                entries[(pair_index[(k, word)], col)] = q
    return RationalMatrix(len(pairs), len(pairs), entries)
