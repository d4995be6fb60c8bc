"""Free Lie algebras on r generators, truncated at a nilpotency class.

The basis is the Lyndon-word basis: Lyndon words over the alphabet
{1, ..., r} of length at most c, each bracketed through its standard
(Chen-Fox-Lyndon) factorization.  Among the many Hall orders this one has
unique factorization, which gives a canonical and easily testable
bracketing.

Brackets read structure constants computed once per basis through the
tensor algebra: [e_u, e_v] is the commutator of the two expansions, projected
back to Hall coordinates by a solve against the cached basis expansions.
The expansion of a Lyndon bracketing is its own word plus lexicographically
larger words of the same multidegree, so the solve is a unit-triangular
forward substitution; a remainder whose smallest word is not Lyndon
certifies that the input was not a Lie element, so the projection certifies
every constant.

All values are immutable after construction; every function is pure and
safe to call concurrently.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .exact_linalg import RationalMatrix, _as_fraction, fraction_rows

__all__ = [
    "NotLieElementError",
    "HallBasis",
    "LieElement",
    "TensorElement",
    "lyndon_words",
    "witt_dimension",
    "hall_basis",
    "generator",
    "bracket",
    "bracket_coordinates",
    "expand_to_tensor",
    "tensor_to_hall",
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
    proper suffix.
    """

    __slots__ = ("rank", "cls", "elements", "index", "factorization", "degree_start",
                 "_expansions", "_structure")

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
        self._structure: dict[tuple[int, int], dict[int, Fraction]] | None = None

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

    def expansion(self, word: Word) -> dict[Word, int]:
        """Image of the bracketing of ``word`` in the tensor algebra."""
        cached = self._expansions.get(word)
        if cached is not None:
            return cached
        if word not in self.index:
            raise KeyError(f"{word} is not a basis word")
        if len(word) == 1:
            out = {word: 1}
        else:
            u, v = self.factorization[word]
            out = {}
            for wu, cu in self.expansion(u).items():
                for wv, cv in self.expansion(v).items():
                    c = cu * cv
                    _add_int(out, wu + wv, c)
                    _add_int(out, wv + wu, -c)
        self._expansions[word] = out
        return out

    def structure_constants(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """Nonzero [e_i, e_j], i < j, keyed as GradedLieAlgebra.brackets; read-only.

        Built once by the certifying tensor route and published whole.
        """
        table = self._structure
        if table is not None:
            return table
        table = {}
        for i, wi in enumerate(self.elements):
            ti = self.expansion(wi)
            for j in range(i + 1, self.degree_start[self.cls - len(wi) + 1]):
                tj = self.expansion(self.elements[j])
                acc: dict[Word, int] = {}
                for wa, ca in ti.items():
                    for wb, cb in tj.items():
                        c = ca * cb
                        _add_int(acc, wa + wb, c)
                        _add_int(acc, wb + wa, -c)
                if acc:
                    coords = _lie_coords_from_tensor(self, acc)
                    table[(i, j)] = {self.index[w]: Fraction(q) for w, q in coords.items()}
        self._structure = table
        return table

    def label(self, word: Word) -> str:
        return "".join(str(letter) for letter in word)

    def same_as(self, other: "HallBasis") -> bool:
        return self.rank == other.rank and self.cls == other.cls

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"HallBasis(rank={self.rank}, cls={self.cls}, dim={len(self.elements)})"


@lru_cache(maxsize=None)
def hall_basis(rank: int, cls: int) -> HallBasis:
    """Shared HallBasis instances; construction for distinct (rank, cls) is independent."""
    return HallBasis(rank, cls)


def _add_int(d: dict, key, value: int) -> None:
    v = d.get(key, 0) + value
    if v:
        d[key] = v
    else:
        d.pop(key, None)


def _add_frac(d: dict, key, value: Fraction) -> None:
    v = d.get(key, Fraction(0)) + value
    if v:
        d[key] = v
    else:
        d.pop(key, None)


class LieElement:
    """Element of the truncated free Lie algebra in Hall coordinates."""

    __slots__ = ("basis", "coords")

    def __init__(self, basis: HallBasis, coords: Mapping[Word, object] = ()) -> None:
        data: dict[Word, Fraction] = {}
        items = coords.items() if isinstance(coords, Mapping) else coords
        for word, value in items:
            if word not in basis.index:
                raise ValueError(f"{word} is not a word of {basis!r}")
            q = data.get(word, Fraction(0)) + _as_fraction(value)
            if q:
                data[word] = q
            else:
                data.pop(word, None)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coords", data)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("LieElement is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({len(w) for w in self.coords}))

    def homogeneous_part(self, n: int) -> "LieElement":
        return LieElement(self.basis, {w: q for w, q in self.coords.items() if len(w) == n})

    def scaled(self, factor) -> "LieElement":
        f = _as_fraction(factor)
        if not f:
            return LieElement(self.basis)
        return LieElement(self.basis, {w: q * f for w, q in self.coords.items()})

    def __add__(self, other: "LieElement") -> "LieElement":
        _require_same_basis(self, other)
        data = dict(self.coords)
        for w, q in other.coords.items():
            _add_frac(data, w, q)
        return LieElement(self.basis, data)

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + other.scaled(-1)

    def __neg__(self) -> "LieElement":
        return self.scaled(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        return self.basis.same_as(other.basis) and self.coords == other.coords

    def __hash__(self):
        return hash((self.basis.rank, self.basis.cls, frozenset(self.coords.items())))

    def __repr__(self) -> str:
        if not self.coords:
            return "LieElement(0)"
        parts = [
            f"{q}*[{self.basis.label(w)}]"
            for w, q in sorted(self.coords.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
        return "LieElement(" + " + ".join(parts) + ")"


class TensorElement:
    """Element of the tensor algebra: a sparse rational combination of words."""

    __slots__ = ("rank", "coords")

    def __init__(self, rank: int, coords: Mapping[Word, object] = ()) -> None:
        data: dict[Word, Fraction] = {}
        items = coords.items() if isinstance(coords, Mapping) else coords
        for word, value in items:
            if any(not 1 <= letter <= rank for letter in word):
                raise ValueError(f"word {word} uses letters outside 1..{rank}")
            q = data.get(word, Fraction(0)) + _as_fraction(value)
            if q:
                data[word] = q
            else:
                data.pop(word, None)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "coords", data)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("TensorElement is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.rank == other.rank and self.coords == other.coords

    def __hash__(self):
        return hash((self.rank, frozenset(self.coords.items())))

    def __repr__(self) -> str:
        if not self.coords:
            return "TensorElement(0)"
        parts = [
            f"{q}*{''.join(map(str, w))}"
            for w, q in sorted(self.coords.items(), key=lambda kv: (len(kv[0]), kv[0]))
        ]
        return "TensorElement(" + " + ".join(parts) + ")"


def _require_same_basis(a: LieElement, b: LieElement) -> None:
    if not a.basis.same_as(b.basis):
        raise ValueError(
            f"basis mismatch: (rank={a.basis.rank}, cls={a.basis.cls}) vs "
            f"(rank={b.basis.rank}, cls={b.basis.cls})"
        )


def generator(basis: HallBasis, letter: int) -> LieElement:
    if not 1 <= letter <= basis.rank:
        raise ValueError(f"letter {letter} outside 1..{basis.rank}")
    return LieElement(basis, {(letter,): Fraction(1)})


def _expansion_dict(a: LieElement) -> dict[Word, Fraction]:
    out: dict[Word, Fraction] = {}
    for w, q in a.coords.items():
        for word, n in a.basis.expansion(w).items():
            _add_frac(out, word, q * n)
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
        for word, n in basis.expansion(w).items():
            _add_frac(work, word, -c * n)
    return coords


def bracket_coordinates(table: Mapping, a: Mapping[int, Fraction], b: Mapping[int, Fraction]) -> dict:
    """[a, b] for index-keyed coordinate vectors, given brackets [e_i, e_j] keyed (i, j) with i < j."""
    out: dict[int, Fraction] = {}
    for i, qa in a.items():
        for j, qb in b.items():
            vec = table.get((i, j)) if i < j else table.get((j, i))
            if vec:
                c = qa * qb if i < j else -qa * qb
                for k, q in vec.items():
                    _add_frac(out, k, c * q)
    return out


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Lie bracket in Hall coordinates from the structure constants; beyond the class it is zero."""
    _require_same_basis(a, b)
    basis = a.basis
    index = basis.index
    out = bracket_coordinates(
        basis.structure_constants(),
        {index[w]: q for w, q in a.coords.items()},
        {index[w]: q for w, q in b.coords.items()},
    )
    return LieElement(basis, {basis.elements[k]: out[k] for k in sorted(out)})


def expand_to_tensor(a: LieElement) -> TensorElement:
    """Image under the canonical inclusion into the tensor algebra."""
    return TensorElement(a.basis.rank, _expansion_dict(a))


def tensor_to_hall(t: TensorElement, basis: HallBasis) -> LieElement:
    """Inverse of expand_to_tensor on the Lie subspace.

    Raises NotLieElementError when some homogeneous component is not a
    Lie element, and ValueError when a word exceeds the basis class.
    """
    if t.rank != basis.rank:
        raise ValueError("rank mismatch between tensor and basis")
    for w in t.coords:
        if len(w) > basis.cls:
            raise ValueError(f"word of degree {len(w)} exceeds class {basis.cls}")
    return LieElement(basis, _lie_coords_from_tensor(basis, t.coords))


def dynkin(t: TensorElement, basis: HallBasis | None = None) -> LieElement:
    """Left-to-right bracketing w_1...w_b -> [[..[w_1,w_2],..],w_b] divided by b.

    A retract of the tensor algebra onto the Lie subspace: on Lie elements
    of degree b the bracketing multiplies by b, so after division this is
    the identity (Dynkin-Specht-Wever).
    """
    if not t.coords:
        return LieElement(basis if basis is not None else hall_basis(t.rank, 1))
    lengths = {len(w) for w in t.coords}
    if len(lengths) != 1:
        raise ValueError("input must be homogeneous")
    degree = lengths.pop()
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if basis is None:
        basis = hall_basis(t.rank, degree)
    elif degree > basis.cls:
        raise ValueError(f"degree {degree} exceeds class {basis.cls}")
    acc: dict[Word, Fraction] = {}
    for w, q in t.coords.items():
        cur: dict[Word, int] = {(w[0],): 1}
        for letter in w[1:]:
            nxt: dict[Word, int] = {}
            for u, n in cur.items():
                _add_int(nxt, u + (letter,), n)
                _add_int(nxt, (letter,) + u, -n)
            cur = nxt
        for u, n in cur.items():
            _add_frac(acc, u, q * n)
    coords = _lie_coords_from_tensor(basis, acc)
    return LieElement(basis, {w: q / degree for w, q in coords.items()})


def induced_map_lie(matrix, degree: int) -> RationalMatrix:
    """Matrix of the degree-``degree`` Lie functor applied to a linear map.

    ``matrix`` is an s x r matrix (rows x cols, nested sequences or a
    RationalMatrix); the result maps degree-``degree`` Hall coordinates on
    r letters to degree-``degree`` Hall coordinates on s letters, extending
    letter l -> column l along standard factorizations, phi(e_w) = [phi(e_u), phi(e_v)].
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    rows_data = fraction_rows(matrix)
    s = len(rows_data)
    r = len(rows_data[0]) if s else 0
    src = hall_basis(r, degree)
    dst = hall_basis(s, degree)
    table = dst.structure_constants()
    images: list[dict[int, Fraction]] = []
    for w in src.elements:
        if len(w) == 1:
            images.append({j: row[w[0] - 1] for j, row in enumerate(rows_data) if row[w[0] - 1]})
        else:
            u, v = src.factorization[w]
            images.append(bracket_coordinates(table, images[src.index[u]], images[src.index[v]]))
    src_offset = src.degree_start[degree]
    dst_offset = dst.degree_start[degree]
    entries: dict[tuple[int, int], Fraction] = {}
    for col, image in enumerate(images[src_offset:]):
        for k in sorted(image):
            entries[(k - dst_offset, col)] = image[k]
    return RationalMatrix(len(dst.elements_of_degree(degree)), len(images) - src_offset, entries)
