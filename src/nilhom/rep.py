"""Desk-scale polynomial and rational GL_r representation calculus.

Representations are symbolic expressions built from the standard
representation, its dual, constants, the Lie-functor layers, exterior
powers, tensor products and direct sums.  Hom out of the standard
representation is no node of its own: HomStd(V) builds std* tensor V,
as lie_interval(a, c) builds a sum of Lie layers.  An expression
evaluates at a rank to its torus-weight multiset; weight multiplicities
determine a rational representation up to isomorphism, so the weight
module is the equivariant fingerprint used for all comparisons.  It is
counted without listing a basis.

Irreducible multiplicities come from the Weyl character formula
(Fulton-Harris, section 24): multiplying a symmetric weight multiset by
the Weyl denominator leaves, at each dominant lambda, the multiplicity
m_lambda = sum over w in S_r of sgn(w) mult(lambda + rho - w rho).  This
is exact at every rank; a weight multiset that is not symmetric, or that
leaves some m_lambda negative, is not a character.

Coinvariants of the integral general linear group are read off the same
multiplicities.  SL_r(Z) is Zariski-dense in SL_r for r >= 2 (Borel
density), so on a rational representation its coinvariants are the
summands det^k; diag(-1, 1, ..., 1) acts on det^k by (-1)^k, so only the
even powers survive.

Functor degree is read off through finite differences of a dimension
sequence, i.e. by cross-effect vanishing.  "Polynomial" and "finite
degree" are used interchangeably here with cross-effect vanishing as the
single definition.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from typing import Sequence, Union

from .exact_linalg import RationalMatrix, _add, _as_matrix, _kron, invert
from .exact_linalg import rank as matrix_rank  # noqa: F401 - perfbench wraps it by name
from .free_lie import _mobius, induced_map_lie
from .free_lie import hall_basis  # noqa: F401 - perfbench wraps it by name
from .weights import Weight, multinomials, wedge_counts

__all__ = [
    "Std",
    "DualStd",
    "Const",
    "Lie",
    "Wedge",
    "Tensor",
    "Sum",
    "HomStd",
    "ReprExpr",
    "WeightModule",
    "NotCharacterError",
    "evaluate",
    "action_matrix",
    "lie_interval",
    "weight_dominance_compare",
    "DominanceReport",
    "schur_decompose_gl2",
    "coinvariants_dim",
    "degree_estimate",
    "parse_expr",
]

# weights of total n at rank r that Lie(n) may list, C(n + r - 1, r - 1); a layer
# with more is refused, not listed (at the limit, rank 4: about 1 s, 44 MB peak RSS)
_MAX_LIE_WEIGHTS = 10**5
# bits that Lie(n)'s counts may hold at once, bounded by the weights times
# n * (r - 1).bit_length(); lie(82) at rank 4 comes to 16,198,280
_MAX_LIE_BITS = 10**8


class NotCharacterError(ValueError):
    """A weight multiset is not a non-negative combination of irreducible characters."""


@dataclass(frozen=True)
class Std:
    pass


@dataclass(frozen=True)
class DualStd:
    pass


@dataclass(frozen=True)
class Const:
    dimension: int

    def __post_init__(self):
        if self.dimension < 0:
            raise ValueError("constant dimension must be non-negative")


@dataclass(frozen=True)
class Lie:
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("Lie layer degree must be at least 1")


@dataclass(frozen=True)
class Wedge:
    power: int
    inner: "ReprExpr"

    def __post_init__(self):
        if self.power < 0:
            raise ValueError("exterior power must be non-negative")


@dataclass(frozen=True)
class Tensor:
    left: "ReprExpr"
    right: "ReprExpr"


@dataclass(frozen=True)
class Sum:
    left: "ReprExpr"
    right: "ReprExpr"


ReprExpr = Union[Std, DualStd, Const, Lie, Wedge, Tensor, Sum]


class WeightModule:
    """Torus-weight multiset of a representation at a fixed rank."""

    __slots__ = ("rank", "weights")

    def __init__(self, rank_: int, weights: dict[Weight, int]) -> None:
        clean = {}
        for w, mult in weights.items():
            for x in (*w, mult):
                if not isinstance(x, int):
                    raise TypeError(f"weights and multiplicities must be integers, not {x!r}")
            if mult < 0:
                raise ValueError("multiplicities must be non-negative")
            if len(w) != rank_:
                raise ValueError("weight length must equal the rank")
            if mult:
                clean[tuple(w)] = mult
        object.__setattr__(self, "rank", rank_)
        object.__setattr__(self, "weights", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("WeightModule is immutable")

    @property
    def dimension(self) -> int:
        return sum(self.weights.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightModule):
            return NotImplemented
        return self.rank == other.rank and self.weights == other.weights

    def __repr__(self) -> str:
        return f"WeightModule(rank={self.rank}, dim={self.dimension})"


def evaluate(expr: ReprExpr, rank_: int) -> WeightModule:
    """Dimension and torus-weight multiset of the evaluation at a rank."""
    if rank_ < 1:
        raise ValueError("rank must be at least 1")
    return WeightModule(rank_, _weights(expr, rank_))


def _weights(expr: ReprExpr, rank_: int) -> Counter:
    """{weight: multiplicity} of the evaluation; no basis is listed.

    Lambda^q is counted by weights.wedge_counts over the distinct inner
    weights.  Lie(n) counts each multiweight w by the multigraded Witt
    formula (1/n) sum over d | gcd(w) of mu(d) (n/d)! / prod (w_i/d)!, so
    no Hall basis is built; it lists the C(n + r - 1, r - 1) weights of
    total n, and more than _MAX_LIE_WEIGHTS of them are refused with
    ValueError before any is listed.  Each count is below r^n, so it takes
    at most n * (r - 1).bit_length() bits; a layer whose weights times that
    is above _MAX_LIE_BITS is refused the same way, since all its counts are
    held at once.  The multinomials come from
    weights.multinomials, one walk per squarefree divisor d of n, each
    value from the one before it, so no factorial is taken.
    """
    if isinstance(expr, (Std, DualStd)):
        sign = 1 if isinstance(expr, Std) else -1
        return Counter(tuple(sign if t == i else 0 for t in range(rank_)) for i in range(rank_))
    if isinstance(expr, Const):
        return Counter({(0,) * rank_: expr.dimension})
    if isinstance(expr, Lie):
        n, out = expr.degree, Counter()
        count = comb(n + rank_ - 1, rank_ - 1)
        if count > _MAX_LIE_WEIGHTS:
            raise ValueError(
                f"lie({n}) at rank {rank_} has {count:,} weights of total {n},"
                f" above the limit of {_MAX_LIE_WEIGHTS:,}"
            )
        bits = n * (rank_ - 1).bit_length()  # each count is below r^n
        if count * bits > _MAX_LIE_BITS:
            raise ValueError(
                f"lie({n}) at rank {rank_} holds {count:,} counts of up to {bits:,} bits,"
                f" above the limit of {_MAX_LIE_BITS:,} bits in all"
            )
        # one walk per squarefree divisor d > 1 of n: the weights w / d of total
        # n / d come in the order of the weights w that d divides, so each
        # walk is read alongside the walk of total n
        walks = [(d, mu, multinomials(n // d, rank_))
                 for d in range(2, n + 1) if n % d == 0 and (mu := _mobius(d))]
        for w, total in multinomials(n, rank_):
            top = gcd(*w)
            if top > 1:
                for d, mu, walk in walks:
                    if top % d == 0:
                        total += mu * next(walk)[1]
            count = total // n
            if count:
                out[w] = count
        return out
    if isinstance(expr, Wedge):
        return wedge_counts(_weights(expr.inner, rank_), expr.power, rank_)
    if isinstance(expr, Tensor):
        left, right = _weights(expr.left, rank_), _weights(expr.right, rank_)
        out: Counter = Counter()
        for wl, ml in left.items():
            for wr, mr in right.items():
                out[tuple(a + b for a, b in zip(wl, wr))] += ml * mr
        return out
    if isinstance(expr, Sum):
        return _weights(expr.left, rank_) + _weights(expr.right, rank_)
    raise TypeError(f"not a representation expression: {expr!r}")


def action_matrix(expr: ReprExpr, matrix, rank_: int) -> RationalMatrix:
    """Matrix of an invertible r x r matrix acting on the evaluation.

    Only this function fixes a basis: tensor factors pair row-major, sums
    concatenate, exterior powers run over index combinations in
    lexicographic order.  The dual standard representation acts by the
    inverse transpose; an exterior power sends e_j1 ^ ... ^ e_jq to
    A e_j1 ^ ... ^ A e_jq, the wedge of the inner action's columns.  The
    matrix is read here, once, not per subexpression; a RationalMatrix is
    taken as it is.
    """
    m = _as_matrix(matrix)
    if (m.rows, m.cols) != (rank_, rank_):
        raise ValueError(f"matrix must be {rank_}x{rank_}")
    return _action(expr, m)


def _action(expr: ReprExpr, m: RationalMatrix) -> RationalMatrix:
    if isinstance(expr, Std):
        return m
    if isinstance(expr, DualStd):
        return invert(m).transpose()
    if isinstance(expr, Const):
        return RationalMatrix.identity(expr.dimension)
    if isinstance(expr, Lie):
        return induced_map_lie(m, expr.degree)
    if isinstance(expr, Wedge):
        inner = _action(expr.inner, m).columns()
        if expr.power > len(inner):
            return RationalMatrix(0, 0)
        row_index = {combo: i for i, combo in enumerate(combinations(range(len(inner)), expr.power))}
        columns = []
        for combo in combinations(range(len(inner)), expr.power):
            wedge: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
            for j in combo:
                step: dict[tuple[int, ...], Fraction] = {}
                for support, coeff in wedge.items():
                    for i, q in inner[j].items():
                        pos = bisect_left(support, i)
                        if pos < len(support) and support[pos] == i:
                            continue
                        # e_support ^ e_i: move e_i left past the indices above it
                        target = support[:pos] + (i,) + support[pos:]
                        _add(step, target, coeff * q if (len(support) - pos) % 2 == 0 else -coeff * q)
                wedge = step
            columns.append({row_index[support]: v for support, v in wedge.items()})
        return RationalMatrix._from_columns(len(row_index), columns)
    if isinstance(expr, Tensor):
        return _kron(_action(expr.left, m), _action(expr.right, m))
    if isinstance(expr, Sum):
        left = _action(expr.left, m)
        right = _action(expr.right, m)
        entries = dict(left.entries)
        for (i, j), q in right.entries.items():
            entries[(left.rows + i, left.cols + j)] = q
        return RationalMatrix._computed(left.rows + right.rows, left.cols + right.cols, entries)
    raise TypeError(f"not a representation expression: {expr!r}")


def HomStd(inner: ReprExpr) -> ReprExpr:
    """Hom(standard, inner), built as dual-standard tensor inner."""
    return Tensor(DualStd(), inner)


def lie_interval(a: int, c: int) -> ReprExpr:
    """Direct sum of the Lie layers of degrees a..c."""
    if a < 1:
        raise ValueError("lower degree must be at least 1")
    if a > c:
        raise ValueError("empty degree interval")
    expr: ReprExpr = Lie(a)
    for b in range(a + 1, c + 1):
        expr = Sum(expr, Lie(b))
    return expr


@dataclass(frozen=True)
class DominanceReport:
    holds: bool
    violations: tuple[tuple[Weight, int, int], ...]


def weight_dominance_compare(a: WeightModule, b: WeightModule) -> DominanceReport:
    """Whether every multiplicity of ``a`` is bounded by the one in ``b``."""
    if a.rank != b.rank:
        raise ValueError("rank mismatch")
    violations = []
    for w, mult in sorted(a.weights.items()):
        other = b.weights.get(w, 0)
        if mult > other:
            violations.append((w, mult, other))
    return DominanceReport(not violations, tuple(violations))


def _weyl_multiplicities(m: WeightModule) -> dict[Weight, int]:
    """Multiplicity of each irreducible highest weight in a weight multiset.

    Weyl character formula: m_lambda = sum over w in S_r of
    sgn(w) mult(lambda + rho - w rho), with rho = (r-1, ..., 1, 0).  On a
    symmetric multiset mult(lambda + rho - w rho) = mult(nu) for
    nu + rho = w^-1 (lambda + rho), so each weight nu of the support adds
    sgn(w) mult(nu) to the lambda with lambda + rho the decreasing sort of
    nu + rho, and nothing when nu + rho has a repeated entry (lambda + rho,
    lambda dominant, has none).  That visits
    every dominant lambda some term reaches from the support, not only the
    dominant weights present: {(2,0), (0,2)} is negative only at (1,1).
    Keys come in decreasing lexicographic order; zeros are left out.
    """
    r, mults = m.rank, m.weights
    for w, mult in mults.items():
        for i in range(r - 1):
            if mults.get(w[:i] + (w[i + 1], w[i]) + w[i + 2:], 0) != mult:
                raise NotCharacterError(f"weights are not symmetric at {w}")
    rho = range(r - 1, -1, -1)
    sums: dict[Weight, int] = {}
    for nu, mult in mults.items():
        shifted = [x + p for x, p in zip(nu, rho)]
        if len(set(shifted)) < r:
            continue
        inversions = sum(a < b for a, b in combinations(shifted, 2))
        lam = tuple(x - p for x, p in zip(sorted(shifted, reverse=True), rho))
        sums[lam] = sums.get(lam, 0) + (-mult if inversions % 2 else mult)
    out: dict[Weight, int] = {}
    for lam in sorted(sums, reverse=True):
        if sums[lam] < 0:
            raise NotCharacterError(f"highest weight {lam} has multiplicity {sums[lam]}")
        if sums[lam]:
            out[lam] = sums[lam]
    return out


def schur_decompose_gl2(m: WeightModule) -> dict[tuple[int, int], int]:
    """Decomposition of a rank-2 weight multiset into irreducible highest weights."""
    if m.rank != 2:
        raise ValueError("only rank 2 is supported")
    return _weyl_multiplicities(m)


def coinvariants_dim(expr: ReprExpr, rank_: int) -> int:
    """Dimension of the largest quotient with trivial integral GL action.

    SL_r(Z) is Zariski-dense in SL_r (Borel density, r >= 2), so its
    coinvariants on a rational representation are the det^k summands;
    diag(-1, 1, ..., 1) acts on det^k by (-1)^k.  The answer is the sum of
    the multiplicities of the highest weights (k, ..., k) with k even.
    """
    if rank_ < 2:
        raise ValueError("rank must be at least 2")
    return sum(
        mult
        for lam, mult in _weyl_multiplicities(evaluate(expr, rank_)).items()
        if lam[0] % 2 == 0 and len(set(lam)) == 1
    )


def degree_estimate(dims: Sequence[int]) -> tuple[int, bool]:
    """Polynomial degree read off a dimension sequence by finite differences.

    Returns the smallest d whose (d+1)-st differences vanish on the
    window, with a sufficiency flag that is set when the vanishing row
    holds at least two entries (one witness beyond the minimum).  When no
    difference row vanishes the estimate is the largest testable degree
    and the flag is False.
    """
    values = list(dims)
    if any(not isinstance(v, int) for v in values):
        raise TypeError("dimensions must be ints")
    if len(values) < 2:
        raise ValueError("need at least two sequence values")
    row = values
    d = 0
    while True:
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        if not row:
            return len(values) - 1, False
        if all(v == 0 for v in row):
            return d, len(row) >= 2
        d += 1


# -- textual form -------------------------------------------------------------

_TOKEN = re.compile(r"\s*([a-z]+|\d+|\(|\)|\[|\]|,|\.\.)")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


# each constructor's argument kinds: "n" an integer, "e" an expression, any
# other string a token that must stand there; lie[a..c] is read apart
_CONSTRUCTORS = {
    "std": (Std, None),
    "dual": (DualStd, None),
    "const": (Const, ("n",)),
    "lie": (Lie, ("n",)),
    "wedge": (Wedge, ("n", "e")),
    "tensor": (Tensor, ("e", "e")),
    "sum": (Sum, ("e", "e")),
    "hom": (HomStd, ("std", "e")),
}


def _take(tokens: list[str], expected: str | None = None) -> str:
    """Pop the next token of a reversed token list, checking it when one is expected."""
    if not tokens:
        raise ValueError("unexpected end of expression")
    tok = tokens.pop()
    if expected is not None and tok != expected:
        raise ValueError(f"expected {expected!r}, found {tok!r}")
    return tok


def _integer(tokens: list[str]) -> int:
    tok = _take(tokens)
    if not tok.isdigit():
        raise ValueError(f"expected an integer, found {tok!r}")
    return int(tok)


def _parse(tokens: list[str]) -> ReprExpr:
    tok = _take(tokens)
    if tok not in _CONSTRUCTORS:
        raise ValueError(f"unknown constructor {tok!r}")
    if tok == "lie" and tokens and tokens[-1] == "[":
        _take(tokens)
        a = _integer(tokens)
        _take(tokens, "..")
        c = _integer(tokens)
        _take(tokens, "]")
        return lie_interval(a, c)
    build, kinds = _CONSTRUCTORS[tok]
    if kinds is None:
        return build()
    args = []
    for n, kind in enumerate(kinds):
        _take(tokens, "," if n else "(")
        if kind == "n":
            args.append(_integer(tokens))
        elif kind == "e":
            args.append(_parse(tokens))
        else:
            _take(tokens, kind)
    _take(tokens, ")")
    return build(*args)


def parse_expr(text: str) -> ReprExpr:
    """Parse the textual form, e.g. ``wedge(2, hom(std, lie[2..3]))``."""
    tokens = _tokenize(text)[::-1]
    expr = _parse(tokens)
    if tokens:
        raise ValueError(f"trailing input from {tokens[-1]!r}")
    return expr

