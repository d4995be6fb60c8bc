"""Group arithmetic in rational completions of free nilpotent groups.

Group elements are stored through their logarithms: sparse rational
coordinate vectors over the Lyndon basis (coordinates of the first kind).
The group law is the truncated Baker-Campbell-Hausdorff product.  The
universal series z(X, Y) = log(e^X e^Y) is computed once per class, never
from a hard-coded coefficient table: exponentiate in the degree-truncated
tensor algebra on two letters, multiply, take the logarithm and project
back to Hall coordinates on hall_basis(2, c).  The projection doubles as a
certificate: it raises if the logarithm were not a Lie element.  A product
evaluates that series at (log u, log v) through the structure constants of
the element's own Hall basis.

The integral group itself appears only through its generators; no lattice
membership test is provided.  Pure functions on immutable values
throughout.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .exact_linalg import RationalMatrix, exp_nilpotent, nullspace_basis, rank
from .free_lie import (
    HallBasis,
    LieElement,
    _add_frac,
    _expansion_dict,  # unused here; perfbench/tracing.py wraps nilgroup._expansion_dict by name
    _lie_coords_from_tensor,  # certifies the universal BCH series in _bch_series
    bracket,  # unused here; perfbench/tracing.py wraps nilgroup.bracket by name
    bracket_coordinates,
    hall_basis,
)
from .lie_homology import free_nilpotent_lie
from .aut import LieAutomorphism

__all__ = [
    "MalcevElement",
    "malcev_element",
    "group_generator",
    "group_identity",
    "multiply",
    "inverse",
    "group_commutator",
    "lcs_ranks",
    "center_basis",
    "inner_action",
    "adjoint_matrix",
]

Word = tuple[int, ...]


class MalcevElement:
    """Group element of the rational completion, stored by its logarithm."""

    __slots__ = ("basis", "coords")

    def __init__(self, basis: HallBasis, coords: Mapping[Word, object] = ()) -> None:
        lie = LieElement(basis, coords)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coords", lie.coords)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("MalcevElement is immutable")

    @property
    def is_identity(self) -> bool:
        return not self.coords

    def log(self) -> LieElement:
        return LieElement(self.basis, self.coords)

    def __mul__(self, other: "MalcevElement") -> "MalcevElement":
        return multiply(self, other)

    def __invert__(self) -> "MalcevElement":
        return inverse(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MalcevElement):
            return NotImplemented
        return self.basis.same_as(other.basis) and self.coords == other.coords

    def __hash__(self):
        return hash((self.basis.rank, self.basis.cls, frozenset(self.coords.items())))

    def __repr__(self) -> str:
        if not self.coords:
            return "MalcevElement(1)"
        parts = [
            f"{q}*[{self.basis.label(w)}]"
            for w, q in sorted(self.coords.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
        return "MalcevElement(exp(" + " + ".join(parts) + "))"


def malcev_element(basis: HallBasis, coords) -> MalcevElement:
    return MalcevElement(basis, coords)


def group_generator(basis: HallBasis, letter: int) -> MalcevElement:
    if not 1 <= letter <= basis.rank:
        raise ValueError(f"letter {letter} outside 1..{basis.rank}")
    return MalcevElement(basis, {(letter,): Fraction(1)})


def group_identity(basis: HallBasis) -> MalcevElement:
    return MalcevElement(basis)


def _require_same_basis(u: MalcevElement, v: MalcevElement) -> None:
    if not u.basis.same_as(v.basis):
        raise ValueError(
            f"basis mismatch: (rank={u.basis.rank}, cls={u.basis.cls}) vs "
            f"(rank={v.basis.rank}, cls={v.basis.cls})"
        )


# -- truncated tensor algebra -----------------------------------------------


def _tensor_mul(a: dict[Word, Fraction], b: dict[Word, Fraction], cap: int) -> dict[Word, Fraction]:
    out: dict[Word, Fraction] = {}
    for wa, ca in a.items():
        la = len(wa)
        for wb, cb in b.items():
            if la + len(wb) <= cap:
                _add_frac(out, wa + wb, ca * cb)
    return out


def _tensor_exp(u: dict[Word, Fraction], cap: int) -> dict[Word, Fraction]:
    out: dict[Word, Fraction] = {(): Fraction(1)}
    term: dict[Word, Fraction] = {(): Fraction(1)}
    for k in range(1, cap + 1):
        term = _tensor_mul(term, u, cap)
        if not term:
            break
        term = {w: q / k for w, q in term.items()}
        for w, q in term.items():
            _add_frac(out, w, q)
    return out


def _tensor_log(g: dict[Word, Fraction], cap: int) -> dict[Word, Fraction]:
    if g.get((), Fraction(0)) != 1:
        raise ValueError("logarithm needs a group-like element with constant term 1")
    p = {w: q for w, q in g.items() if w}
    out: dict[Word, Fraction] = {}
    term: dict[Word, Fraction] = {(): Fraction(1)}
    for k in range(1, cap + 1):
        term = _tensor_mul(term, p, cap)
        if not term:
            break
        factor = Fraction(-1 if k % 2 == 0 else 1, k)
        for w, q in term.items():
            _add_frac(out, w, q * factor)
    return out


@lru_cache(maxsize=None)
def _bch_series(cls: int) -> tuple[tuple[Word, Fraction], ...]:
    """Hall coordinates of log(e^X e^Y) on hall_basis(2, cls), in basis order, zeros included."""
    x = _tensor_exp({(1,): Fraction(1)}, cls)
    y = _tensor_exp({(2,): Fraction(1)}, cls)
    basis = hall_basis(2, cls)
    coords = _lie_coords_from_tensor(basis, _tensor_log(_tensor_mul(x, y, cls), cls))
    return tuple((w, coords.get(w, Fraction(0))) for w in basis.elements)


def multiply(u: MalcevElement, v: MalcevElement) -> MalcevElement:
    """The group law log(exp(u) exp(v)), truncated at the class.

    The universal series z(X, Y) is computed once per class through the
    tensor algebra, and the projection to Hall coordinates certifies it.
    Each product evaluates it at X = log u, Y = log v: each 2-letter
    Lyndon word w with standard factorization (a, b) maps to
    [image(a), image(b)] through the structure constants of u's basis.
    """
    _require_same_basis(u, v)
    basis = u.basis
    index = basis.index
    start = basis.degree_start
    cls = basis.cls
    table = basis.structure_constants()
    factorization = hall_basis(2, cls).factorization
    images = {
        (1,): {index[w]: q for w, q in u.coords.items()},
        (2,): {index[w]: q for w, q in v.coords.items()},
    }
    out: dict[int, Fraction] = {}
    for word, coefficient in _bch_series(cls):
        if len(word) > 1:
            a, b = factorization[word]
            # image(w) starts in degree len(w): drop the terms whose bracket passes the class
            images[word] = bracket_coordinates(
                table,
                {k: q for k, q in images[a].items() if k < start[cls - len(b) + 1]},
                {k: q for k, q in images[b].items() if k < start[cls - len(a) + 1]},
            )
        if coefficient:
            for k, q in images[word].items():
                _add_frac(out, k, coefficient * q)
    return MalcevElement(basis, {basis.elements[k]: out[k] for k in sorted(out)})


def inverse(u: MalcevElement) -> MalcevElement:
    return MalcevElement(u.basis, {w: -q for w, q in u.coords.items()})


def group_commutator(u: MalcevElement, v: MalcevElement) -> MalcevElement:
    """u v u^-1 v^-1; in class 2 this is the bracket of the degree-1 parts."""
    _require_same_basis(u, v)
    return multiply(multiply(u, v), multiply(inverse(u), inverse(v)))


def lcs_ranks(r: int, c: int) -> list[int]:
    """Ranks of the lower-central-series layers, from iterated group commutators.

    The n-th entry is the dimension of the span of the degree-n
    coordinates of logarithms of n-fold commutators of the generators; it
    must equal witt_dimension(r, n).
    """
    if r < 1 or c < 1:
        raise ValueError("rank and class must be at least 1")
    basis = hall_basis(r, c)
    generators = [group_generator(basis, i) for i in range(1, r + 1)]
    level = list(generators)
    ranks: list[int] = []
    for n in range(1, c + 1):
        offset = basis.degree_start[n]
        size = len(basis.elements_of_degree(n))
        entries: dict[tuple[int, int], Fraction] = {}
        for row, h in enumerate(level):
            for w, q in h.coords.items():
                if len(w) == n:
                    entries[(row, basis.index[w] - offset)] = q
        ranks.append(rank(RationalMatrix(len(level), size, entries)))
        if n < c:
            level = [group_commutator(g, h) for g in generators for h in level]
    return ranks


def adjoint_matrix(u: MalcevElement) -> RationalMatrix:
    """Matrix of x -> [log u, x] on the Hall basis; strictly degree-raising."""
    basis = u.basis
    m = len(basis.elements)
    table = basis.structure_constants()
    x = {basis.index[w]: q for w, q in u.coords.items()}
    one = Fraction(1)
    entries: dict[tuple[int, int], Fraction] = {}
    for j in range(m):
        column = bracket_coordinates(table, x, {j: one})
        for k in sorted(column):
            entries[(k, j)] = column[k]
    return RationalMatrix(m, m, entries)


def center_basis(r: int, c: int) -> list[MalcevElement]:
    """Basis of the elements commuting with every generator.

    An element commutes with a generator exactly when the generator's
    adjoint exponential fixes it, so the center is the joint kernel of
    exp(ad generator) - identity, a single linear solve.  The result spans
    the degree-c coordinate subspace.
    """
    if r < 1 or c < 1:
        raise ValueError("rank and class must be at least 1")
    basis = hall_basis(r, c)
    m = len(basis.elements)
    eye = RationalMatrix.identity(m)
    blocks = [
        exp_nilpotent(adjoint_matrix(group_generator(basis, i))) - eye
        for i in range(1, r + 1)
    ]
    vectors = nullspace_basis(RationalMatrix.vstack(blocks))
    return [
        MalcevElement(basis, {basis.elements[k]: q for k, q in enumerate(vec) if q})
        for vec in vectors
    ]


def inner_action(g: MalcevElement) -> LieAutomorphism:
    """Conjugation by g as a Lie algebra automorphism: exp(ad log g).

    The identity exactly when log g is central, so the kernel of this map
    is the span of center_basis.
    """
    algebra = free_nilpotent_lie(g.basis.rank, g.basis.cls)
    return LieAutomorphism(algebra, exp_nilpotent(adjoint_matrix(g)))
