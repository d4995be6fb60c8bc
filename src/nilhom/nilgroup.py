"""Group arithmetic in rational completions of free nilpotent groups.

Group elements are stored through their logarithms: sparse rational
coordinate vectors over the Lyndon basis (coordinates of the first kind).
MalcevElement shares free_lie's ``_HallElement`` base with LieElement, so
the coordinates are checked once, by the constructor, on input from
outside; products, inverses and center vectors are wrapped as computed.
Tensor-algebra sums use exact_linalg's accumulator ``_add``.
The group law is the truncated Baker-Campbell-Hausdorff product.  The
universal series z(X, Y) = log(e^X e^Y) is computed once per class, never
from a hard-coded coefficient table: exponentiate in the degree-truncated
tensor algebra on two letters, multiply, take the logarithm and project
back to Hall coordinates on hall_basis(2, c).  The projection doubles as a
certificate: it raises if the logarithm were not a Lie element.  A product
evaluates that series at (log u, log v) in integer arithmetic: each
argument is cleared once by the lcm of its denominators, the integer
vectors go through the integer structure constants of the element's own
Hall basis, and the terms of each degree are summed over one known common
denominator, so each output coordinate becomes a Fraction exactly once.

The integral group itself appears only through its generators; no lattice
membership test is provided.  Pure functions on immutable values
throughout.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING

from .exact_linalg import RationalMatrix, _add, exp_nilpotent, nullspace_basis, rank
from .free_lie import (
    HallBasis,
    LieElement,
    _HallElement,
    _lie_coords_from_tensor,  # certifies the universal BCH series in _bch_series
    _require_same_basis,
    bracket_coordinates,
    hall_basis,
)
from .free_lie import _expansion_dict  # noqa: F401 - perfbench wraps it by name
from .free_lie import bracket  # noqa: F401 - perfbench wraps it by name
from .lie_homology import free_nilpotent_lie

if TYPE_CHECKING:
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


class MalcevElement(_HallElement):
    """Group element of the rational completion, stored by its logarithm."""

    __slots__ = ()

    @property
    def is_identity(self) -> bool:
        return not self.coords

    def log(self) -> LieElement:
        return LieElement._computed(self.basis, self.coords)

    def __repr__(self) -> str:
        return f"MalcevElement(exp({self._terms()}))" if self.coords else "MalcevElement(1)"


def malcev_element(basis: HallBasis, coords) -> MalcevElement:
    return MalcevElement(basis, coords)


def group_generator(basis: HallBasis, letter: int) -> MalcevElement:
    if not 1 <= letter <= basis.rank:
        raise ValueError(f"letter {letter} outside 1..{basis.rank}")
    return MalcevElement(basis, {(letter,): Fraction(1)})


def group_identity(basis: HallBasis) -> MalcevElement:
    return MalcevElement(basis)


# -- truncated tensor algebra -----------------------------------------------


def _tensor_mul(a: dict[Word, Fraction], b: dict[Word, Fraction], cap: int) -> dict[Word, Fraction]:
    out: dict[Word, Fraction] = {}
    for wa, ca in a.items():
        la = len(wa)
        for wb, cb in b.items():
            if la + len(wb) <= cap:
                _add(out, wa + wb, ca * cb)
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
            _add(out, w, q)
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
            _add(out, w, q * factor)
    return out


@lru_cache(maxsize=None)
def _bch_series(cls: int) -> tuple[tuple, tuple]:
    """log(e^X e^Y) on hall_basis(2, cls), as integers over one denominator per degree.

    Returns (terms, levels).  For n = 1..cls, levels[n] = (L_n, a_n, b_n):
    L_n is the lcm of the denominators of the nonzero coefficients on words
    of length at most n, and a_n, b_n are the largest numbers of letters X
    and Y among those words; levels[0] = (1, 0, 0).  terms holds, for every
    basis word in order, (word, i, numerators): i is the word's number of
    letters X, and numerators[n] is its coefficient times L_n for
    len(word) <= n <= cls, and 0 below.
    """
    x = _tensor_exp({(1,): Fraction(1)}, cls)
    y = _tensor_exp({(2,): Fraction(1)}, cls)
    basis = hall_basis(2, cls)
    coords = _lie_coords_from_tensor(basis, _tensor_log(_tensor_mul(x, y, cls), cls))
    levels = [(1, 0, 0)]
    for n in range(1, cls + 1):
        words = [w for w in coords if len(w) <= n]
        levels.append((
            lcm(*(coords[w].denominator for w in words)),
            max(w.count(1) for w in words),
            max(w.count(2) for w in words),
        ))
    terms = tuple(
        (w, w.count(1), tuple(
            int(coords[w] * levels[n][0]) if w in coords and n >= len(w) else 0 for n in range(cls + 1)
        ))
        for w in basis.elements
    )
    return terms, tuple(levels)


def _cleared(u: MalcevElement) -> tuple[int, dict[int, int]]:
    """(D, x): D the lcm of u's coordinate denominators, log u = x / D with x integral."""
    denominator = 1
    for q in u.coords.values():
        denominator = lcm(denominator, q.denominator)
    index = u.basis.index
    return denominator, {
        index[w]: q.numerator * (denominator // q.denominator) for w, q in u.coords.items()
    }


def multiply(u: MalcevElement, v: MalcevElement) -> MalcevElement:
    """The group law log(exp(u) exp(v)), truncated at the class, in integer arithmetic.

    The universal series z(X, Y) is computed once per class through the
    tensor algebra, and the projection to Hall coordinates certifies it.
    Each product evaluates it at X = log u, Y = log v on integer vectors:
    log u = x / D_u and log v = y / D_v with x, y integral, and each
    2-letter Lyndon word w with standard factorization (a, b) maps to
    [image(a), image(b)] through the integer structure constants of u's
    basis.  The image of a word with i letters X and j letters Y is then
    an integer vector over D_u^i D_v^j.  A degree-n output coordinate
    collects only words of length at most n, so it is summed as one
    integer over the denominator L_n D_u^a_n D_v^b_n of _bch_series, and
    becomes a Fraction once, at the end.
    """
    _require_same_basis(u, v)
    basis = u.basis
    start = basis.degree_start
    cls = basis.cls
    factorization = hall_basis(2, cls).factorization
    du, x = _cleared(u)
    dv, y = _cleared(v)
    terms, levels = _bch_series(cls)
    degree = [n for n in range(1, cls + 1) for _ in range(start[n], start[n + 1])]
    images = {(1,): x, (2,): y}
    out: dict[int, int] = {}
    for word, i, numerators in terms:
        if len(word) > 1:
            a, b = factorization[word]
            # image(w) starts in degree len(w): drop the terms whose bracket passes the class
            images[word] = bracket_coordinates(
                basis,
                {k: n for k, n in images[a].items() if k < start[cls - len(b) + 1]},
                {k: n for k, n in images[b].items() if k < start[cls - len(a) + 1]},
            )
        if numerators[cls]:  # zero when the word only feeds longer words
            j = len(word) - i
            scale = [q * du ** (a_n - i) * dv ** (b_n - j) if q else 0
                     for q, (_, a_n, b_n) in zip(numerators, levels)]
            for k, n in images[word].items():
                out[k] = out.get(k, 0) + scale[degree[k]] * n
    denominators = [l_n * du**a_n * dv**b_n for l_n, a_n, b_n in levels]
    return MalcevElement._computed(
        basis, {basis.elements[k]: Fraction(out[k], denominators[degree[k]]) for k in sorted(out) if out[k]}
    )


def inverse(u: MalcevElement) -> MalcevElement:
    return MalcevElement._computed(u.basis, {w: -q for w, q in u.coords.items()})


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
        ranks.append(rank(RationalMatrix._computed(len(level), size, entries)))
        if n < c:
            level = [group_commutator(g, h) for g in generators for h in level]
    return ranks


def adjoint_matrix(u: MalcevElement) -> RationalMatrix:
    """Matrix of x -> [log u, x] on the Hall basis; strictly degree-raising."""
    basis = u.basis
    m = len(basis.elements)
    x = {basis.index[w]: q for w, q in u.coords.items()}
    return RationalMatrix._from_columns(m, [bracket_coordinates(basis, x, {j: Fraction(1)}) for j in range(m)])


def center_basis(r: int, c: int) -> list[MalcevElement]:
    """Basis of the elements commuting with every generator.

    An element commutes with a generator exactly when the generator's
    adjoint exponential fixes it, i.e. lies in the kernel of
    exp(ad x) - I = ad x (I + ad x/2! + ...).  The second factor is
    unipotent, hence invertible, so that kernel is the kernel of ad x, and
    the center is the joint kernel of the ad x_i, a single linear solve.
    The result spans the degree-c coordinate subspace.
    """
    if r < 1 or c < 1:
        raise ValueError("rank and class must be at least 1")
    basis = hall_basis(r, c)
    blocks = [adjoint_matrix(group_generator(basis, i)) for i in range(1, r + 1)]
    vectors = nullspace_basis(RationalMatrix.vstack(blocks))
    return [
        MalcevElement._computed(basis, {basis.elements[k]: q for k, q in enumerate(vec) if q})
        for vec in vectors
    ]


def inner_action(g: MalcevElement) -> LieAutomorphism:
    """Conjugation by g as a Lie algebra automorphism: exp(ad log g).

    The identity exactly when log g is central, so the kernel of this map
    is the span of center_basis.
    """
    from .aut import LieAutomorphism  # here, so that BCH arithmetic loads neither aut nor rep

    algebra = free_nilpotent_lie(g.basis.rank, g.basis.cls)
    return LieAutomorphism(algebra, exp_nilpotent(adjoint_matrix(g)))
