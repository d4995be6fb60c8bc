"""Free Lie algebras on r generators, truncated at a nilpotency class.

The basis is the Lyndon-word basis: Lyndon words over the alphabet
{1, ..., r} of length at most c, each bracketed through its standard
(Chen-Fox-Lyndon) factorization.  Among the many Hall orders this one has
unique factorization, which gives a canonical and easily testable
bracketing.

Brackets read structure constants computed once per basis through the
tensor algebra, whose elements are plain {word: coefficient} dicts
throughout the package: [e_u, e_v] is the commutator of the two
expansions, projected back to Hall coordinates by a solve against the
cached basis expansions.
The expansion of a Lyndon bracketing is its own word plus lexicographically
larger words of the same multidegree, so the solve is a unit-triangular
forward substitution; a remainder whose smallest word is not Lyndon
certifies that the input was not a Lie element, so the projection certifies
every constant.  The constants are held in rows, in the format of
lie_homology's ``GradedLieAlgebra._partners``: row i is the dict
{j: [e_min(i,j), e_max(i,j)]} over the j with a nonzero bracket, one dict per
pair held at both ends, so [e_i, e_j] = sign(j - i) rows[i][j].  Only this
module reads them: ``bracket_coordinates(basis, a, b)`` is the one sparse
bracket on index-keyed coordinates, and ``structure_constants`` returns a
new i < j keyed copy.

Lie elements and nilgroup's group elements hold the same data, sparse
exact coordinates on the basis words, and share one base, ``_HallElement``,
for it.  Its constructor checks outside input word by word; a result the
package has just computed (a bracket, a sum, a multiple, a BCH product) is
wrapped as it is, not checked again.  Sparse sums here go through
exact_linalg's accumulator ``_add``, except in the bracket's inner loop.

All values are immutable after construction; every function is pure and
safe to call concurrently.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .exact_linalg import RationalMatrix, _add, _as_fraction, _as_matrix

__all__ = [
    "NotLieElementError",
    "HallBasis",
    "LieElement",
    "lyndon_words",
    "witt_dimension",
    "hall_basis",
    "bracket",
    "bracket_coordinates",
    "expand_to_tensor",
    "dynkin",
    "induced_map_lie",
]

Word = tuple[int, ...]


class NotLieElementError(ValueError):
    """A tensor that was required to be a Lie element is not one."""


def _mobius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(r: int, n: int) -> int:
    """Number of degree-n basis elements: (1/n) sum_{d|n} mu(d) r^(n/d).

    Equals the number of Lyndon words of length n over r letters.
    """
    if n < 1:
        raise ValueError("degree must be at least 1")
    if r < 0:
        raise ValueError("rank must be non-negative")
    total = sum(_mobius(d) * r ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def lyndon_words(rank: int, max_len: int) -> list[Word]:
    """All Lyndon words over {1..rank} of length <= max_len (Duval's algorithm)."""
    words: list[Word] = []
    if rank < 1 or max_len < 1:
        return words
    w = [1]
    while True:
        words.append(tuple(w))
        m = len(w)
        w = [w[i % m] for i in range(max_len)]
        while w and w[-1] == rank:
            w.pop()
        if not w:
            return words
        w[-1] += 1


class HallBasis:
    """Ordered Lyndon-word basis of the free Lie algebra, truncated at class ``cls``.

    Elements are sorted by (degree, lexicographic word); every element of
    degree >= 2 factors as a bracket [u, v] of two earlier elements, the
    standard factorization taking v to be the lexicographically least
    proper suffix.  Instances are shared through ``hall_basis``: treat
    ``index``, ``factorization`` and ``degree_start`` as read-only, as
    ``RationalMatrix.entries`` is.
    """

    __slots__ = ("rank", "cls", "elements", "index", "factorization", "degree_start",
                 "_expansions", "_rows")

    def __init__(self, rank: int, cls: int) -> None:
        if rank < 0:
            raise ValueError("rank must be non-negative")
        if cls < 1:
            raise ValueError("class must be at least 1")
        words = lyndon_words(rank, cls)
        words.sort(key=lambda w: (len(w), w))
        self.rank = rank
        self.cls = cls
        self.elements: tuple[Word, ...] = tuple(words)
        self.index: dict[Word, int] = {w: i for i, w in enumerate(words)}
        starts = [0] * (cls + 2)
        for w in words:
            starts[len(w) + 1] += 1
        for n in range(1, cls + 2):
            starts[n] += starts[n - 1]
        self.degree_start = starts
        factorization: dict[Word, tuple[Word, Word]] = {}
        for w in words:
            if len(w) < 2:
                continue
            split = min(range(1, len(w)), key=lambda s: w[s:])
            factorization[w] = (w[:split], w[split:])
        self.factorization = factorization
        self._expansions: dict[Word, dict[Word, int]] = {}
        self._rows: list[dict[int, dict[int, int]]] | None = None

    def elements_of_degree(self, n: int) -> tuple[Word, ...]:
        if not 1 <= n <= self.cls:
            return ()
        return self.elements[self.degree_start[n] : self.degree_start[n + 1]]

    def multiweight(self, word: Word) -> tuple[int, ...]:
        """Letter-count vector of a basis word."""
        counts = [0] * self.rank
        for letter in word:
            counts[letter - 1] += 1
        return tuple(counts)

    def _expansion(self, word: Word) -> dict[Word, int]:
        """Image of the bracketing of ``word`` in the tensor algebra: the cached dict itself."""
        cached = self._expansions.get(word)
        if cached is not None:
            return cached
        if word not in self.index:
            raise KeyError(f"{word} is not a basis word")
        if len(word) == 1:
            out = {word: 1}
        else:
            u, v = self.factorization[word]
            out = _commutator(self._expansion(u), self._expansion(v))
        self._expansions[word] = out
        return out

    def _bracket_rows(self) -> list[dict[int, dict[int, int]]]:
        """The bracket table in rows: [e_i, e_j] = sign(j - i) ``rows[i][j]``; read-only.

        Built once by the certifying tensor route and published whole, one
        dict per nonzero pair held at both ends.  The values are plain ints:
        the Lyndon basis is a Z-basis of the free Lie ring, so the projection
        of an integer commutator, a unit-triangular solve, has integer
        coordinates.  That is checked here, once.
        """
        rows = self._rows
        if rows is not None:
            return rows
        rows = [{} for _ in self.elements]
        for i, wi in enumerate(self.elements):
            ti = self._expansion(wi)
            for j in range(i + 1, self.degree_start[self.cls - len(wi) + 1]):
                acc = _commutator(ti, self._expansion(self.elements[j]))
                if acc:
                    coords = _lie_coords_from_tensor(self, acc)
                    rows[i][j] = rows[j][i] = {self.index[w]: q for w, q in coords.items()}
        if any(type(q) is not int for row in rows for vec in row.values() for q in vec.values()):
            raise ArithmeticError("a structure constant of the Lyndon basis is not an integer")
        self._rows = rows
        return rows

    def structure_constants(self) -> dict[tuple[int, int], dict[int, int]]:
        """The nonzero [e_i, e_j], i < j, keyed as GradedLieAlgebra.brackets, as a new dict."""
        return {(i, j): dict(vec) for i, row in enumerate(self._bracket_rows()) for j, vec in row.items() if i < j}

    def label(self, word: Word) -> str:
        return "".join(str(letter) for letter in word)

    def same_as(self, other: "HallBasis") -> bool:
        return self.rank == other.rank and self.cls == other.cls

    def __repr__(self) -> str:
        return f"HallBasis(rank={self.rank}, cls={self.cls}, dim={len(self.elements)})"


def _commutator(a: Mapping[Word, int], b: Mapping[Word, int]) -> dict[Word, int]:
    """ab - ba in the tensor algebra, for sparse word-keyed coefficients."""
    out: dict[Word, int] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            c = ca * cb
            _add(out, wa + wb, c)
            _add(out, wb + wa, -c)
    return out


@lru_cache(maxsize=None)
def hall_basis(rank: int, cls: int) -> HallBasis:
    """Shared HallBasis instances; construction for distinct (rank, cls) is independent."""
    return HallBasis(rank, cls)


class _HallElement:
    """Exact sparse Hall coordinates: the data of a Lie or a group element.

    ``coords`` maps basis words to nonzero Fractions.  The constructor
    checks outside input; ``_computed`` wraps coordinates the package has
    just produced in that form, without checking them again.
    """

    __slots__ = ("basis", "coords")

    def __init__(self, basis: HallBasis, coords: Mapping[Word, object] = ()) -> None:
        data: dict[Word, Fraction] = {}
        items = coords.items() if isinstance(coords, Mapping) else coords
        for word, value in items:
            if word not in basis.index:
                raise ValueError(f"{word} is not a word of {basis!r}")
            _add(data, word, _as_fraction(value))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coords", data)

    @classmethod
    def _computed(cls, basis: HallBasis, coords: dict[Word, Fraction]):
        element = object.__new__(cls)
        object.__setattr__(element, "basis", basis)
        object.__setattr__(element, "coords", coords)
        return element

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.basis.same_as(other.basis) and self.coords == other.coords

    def _terms(self) -> str:
        return " + ".join(
            f"{q}*[{self.basis.label(w)}]"
            for w, q in sorted(self.coords.items(), key=lambda kv: (len(kv[0]), kv[0]))
        )


class LieElement(_HallElement):
    """Element of the truncated free Lie algebra in Hall coordinates."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def scaled(self, factor) -> "LieElement":
        f = _as_fraction(factor)
        if not f:
            return LieElement(self.basis)
        return LieElement._computed(self.basis, {w: q * f for w, q in self.coords.items()})

    def __add__(self, other: "LieElement") -> "LieElement":
        _require_same_basis(self, other)
        data = dict(self.coords)
        for w, q in other.coords.items():
            _add(data, w, q)
        return LieElement._computed(self.basis, data)

    def __repr__(self) -> str:
        return f"LieElement({self._terms()})" if self.coords else "LieElement(0)"


def _require_same_basis(a: _HallElement, b: _HallElement) -> None:
    if not a.basis.same_as(b.basis):
        raise ValueError(
            f"basis mismatch: (rank={a.basis.rank}, cls={a.basis.cls}) vs "
            f"(rank={b.basis.rank}, cls={b.basis.cls})"
        )


def _expansion_dict(a: LieElement) -> dict[Word, Fraction]:
    out: dict[Word, Fraction] = {}
    for w, q in a.coords.items():
        for word, n in a.basis._expansion(w).items():
            _add(out, word, q * n)
    return out


def _lie_coords_from_tensor(basis: HallBasis, tensor: Mapping[Word, Fraction]) -> dict[Word, Fraction]:
    """Hall coordinates of a tensor that is required to be a Lie element.

    Unit-triangular forward substitution against the basis expansions;
    raises NotLieElementError when the remainder's smallest word is not a
    basis word, which happens exactly when the input is not Lie.
    """
    work = {w: q for w, q in tensor.items() if q}
    coords: dict[Word, Fraction] = {}
    while work:
        w = min(work, key=lambda u: (len(u), u))
        if w not in basis.index:
            raise NotLieElementError(
                f"component at word {''.join(map(str, w)) or '()'} is not a Lie element"
            )
        c = work[w]
        coords[w] = c
        for word, n in basis._expansion(w).items():
            _add(work, word, -c * n)
    return coords


def bracket_coordinates(basis: HallBasis, a: Mapping[int, Fraction], b: Mapping[int, Fraction]) -> dict:
    """[a, b] for vectors keyed by index into ``basis``, read from its bracket rows.

    Row i holds {j: [e_min(i,j), e_max(i,j)]} over the j with a nonzero
    bracket, so [e_i, e_j] = sign(j - i) ``rows[i][j]``.
    """
    rows = basis._bracket_rows()
    out: dict[int, Fraction] = {}
    for i, qa in a.items():
        row = rows[i]
        for j, qb in b.items():
            vec = row.get(j)
            if vec:
                c = qa * qb if i < j else -qa * qb
                for k, q in vec.items():  # _add, inlined: this loop carries every BCH product
                    q *= c
                    if k in out:
                        q += out[k]
                        if not q:
                            del out[k]
                            continue
                    out[k] = q
    return out


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Lie bracket in Hall coordinates from the structure constants; beyond the class it is zero."""
    _require_same_basis(a, b)
    basis = a.basis
    index = basis.index
    out = bracket_coordinates(
        basis,
        {index[w]: q for w, q in a.coords.items()},
        {index[w]: q for w, q in b.coords.items()},
    )
    return LieElement._computed(basis, {basis.elements[k]: out[k] for k in sorted(out)})


def expand_to_tensor(a: LieElement) -> dict[Word, Fraction]:
    """Image under the canonical inclusion into the tensor algebra, as a new {word: Fraction} dict."""
    return _expansion_dict(a)


def dynkin(tensor: Mapping[Word, object], basis: HallBasis) -> LieElement:
    """Left-to-right bracketing w_1...w_b -> [[..[w_1,w_2],..],w_b] divided by b.

    A retract of the tensor algebra onto the Lie subspace: on Lie elements
    of degree b the bracketing multiplies by b, so after division this is
    the identity (Dynkin-Specht-Wever).  ``tensor`` maps words over the
    letters 1..basis.rank to exact coefficients; its nonzero terms must
    share one degree, in 1..basis.cls.
    """
    terms: dict[Word, Fraction] = {}
    for w, value in tensor.items():
        if any(not 1 <= letter <= basis.rank for letter in w):
            raise ValueError(f"word {w} uses letters outside 1..{basis.rank}")
        _add(terms, w, _as_fraction(value))
    if not terms:
        return LieElement(basis)
    lengths = {len(w) for w in terms}
    if len(lengths) != 1:
        raise ValueError("input must be homogeneous")
    degree = lengths.pop()
    if not 1 <= degree <= basis.cls:
        raise ValueError(f"degree {degree} outside 1..{basis.cls}")
    acc: dict[Word, Fraction] = {}
    for w, q in terms.items():
        cur: dict[Word, int] = {(w[0],): 1}
        for letter in w[1:]:
            cur = _commutator(cur, {(letter,): 1})
        for u, n in cur.items():
            _add(acc, u, q * n)
    coords = _lie_coords_from_tensor(basis, acc)
    return LieElement._computed(basis, {w: q / degree for w, q in coords.items()})


def induced_map_lie(matrix, degree: int) -> RationalMatrix:
    """Matrix of the degree-``degree`` Lie functor applied to a linear map.

    ``matrix`` is an s x r matrix (rows x cols, nested sequences or a
    RationalMatrix); the result maps degree-``degree`` Hall coordinates on
    r letters to degree-``degree`` Hall coordinates on s letters, extending
    letter l -> column l along standard factorizations, phi(e_w) = [phi(e_u), phi(e_v)].
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    m = _as_matrix(matrix)
    letters = m.columns()
    src = hall_basis(m.cols, degree)
    dst = hall_basis(m.rows, degree)
    images: list[dict[int, Fraction]] = []
    for w in src.elements:
        if len(w) == 1:
            images.append(letters[w[0] - 1])
        else:
            u, v = src.factorization[w]
            images.append(bracket_coordinates(dst, images[src.index[u]], images[src.index[v]]))
    offset = dst.degree_start[degree]
    columns = [{k - offset: q for k, q in image.items()} for image in images[src.degree_start[degree]:]]
    return RationalMatrix._from_columns(len(dst.elements_of_degree(degree)), columns)
