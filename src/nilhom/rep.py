"""Desk-scale polynomial and rational GL_r representation calculus.

Representations are symbolic expressions built from the standard
representation, its dual, constants, the Lie-functor layers, exterior
powers, tensor products, direct sums, and Hom out of the standard
representation.  An expression evaluates at a rank to its torus-weight
multiset; weight multiplicities determine a rational representation up to
isomorphism, so the weight module is the equivariant fingerprint used for
all comparisons.

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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence, Union

from .exact_linalg import RationalMatrix, fraction_rows, invert
from .exact_linalg import rank as matrix_rank  # noqa: F401 - perfbench wraps it by name
from .free_lie import hall_basis, induced_map_lie

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
    "basis_weights",
    "action_matrix",
    "lie_interval",
    "weight_dominance_compare",
    "DominanceReport",
    "schur_decompose_gl2",
    "coinvariants_dim",
    "degree_estimate",
    "parse_expr",
    "expr_text",
]

Weight = tuple[int, ...]


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


@dataclass(frozen=True)
class HomStd:
    """Hom(standard, inner) = dual-standard tensor inner."""

    inner: "ReprExpr"


ReprExpr = Union[Std, DualStd, Const, Lie, Wedge, Tensor, Sum, HomStd]


class WeightModule:
    """Torus-weight multiset of a representation at a fixed rank."""

    __slots__ = ("rank", "weights")

    def __init__(self, rank_: int, weights: dict[Weight, int]) -> None:
        clean = {}
        for w, mult in weights.items():
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

    def multiplicity(self, w: Weight) -> int:
        return self.weights.get(tuple(w), 0)

    def sorted_items(self) -> list[tuple[Weight, int]]:
        return sorted(self.weights.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightModule):
            return NotImplemented
        return self.rank == other.rank and self.weights == other.weights

    def __repr__(self) -> str:
        return f"WeightModule(rank={self.rank}, dim={self.dimension})"


def basis_weights(expr: ReprExpr, rank_: int) -> list[Weight]:
    """Ordered basis weight labels of the evaluation at the given rank.

    The order fixes the basis used by action_matrix: tensor factors pair
    row-major, sums concatenate, exterior powers run over index
    combinations in lexicographic order.
    """
    if rank_ < 1:
        raise ValueError("rank must be at least 1")
    zero = (0,) * rank_
    if isinstance(expr, Std):
        return [tuple(1 if t == i else 0 for t in range(rank_)) for i in range(rank_)]
    if isinstance(expr, DualStd):
        return [tuple(-1 if t == i else 0 for t in range(rank_)) for i in range(rank_)]
    if isinstance(expr, Const):
        return [zero] * expr.dimension
    if isinstance(expr, Lie):
        basis = hall_basis(rank_, expr.degree)
        return [basis.multiweight(w) for w in basis.elements_of_degree(expr.degree)]
    if isinstance(expr, Wedge):
        inner = basis_weights(expr.inner, rank_)
        return [
            tuple(sum(ws) for ws in zip(zero, *(inner[i] for i in combo)))
            for combo in combinations(range(len(inner)), expr.power)
        ]
    if isinstance(expr, Tensor):
        left = basis_weights(expr.left, rank_)
        right = basis_weights(expr.right, rank_)
        return [tuple(a + b for a, b in zip(wl, wr)) for wl in left for wr in right]
    if isinstance(expr, Sum):
        return basis_weights(expr.left, rank_) + basis_weights(expr.right, rank_)
    if isinstance(expr, HomStd):
        return basis_weights(Tensor(DualStd(), expr.inner), rank_)
    raise TypeError(f"not a representation expression: {expr!r}")


def evaluate(expr: ReprExpr, rank_: int) -> WeightModule:
    """Dimension and torus-weight multiset of the evaluation at a rank."""
    counts: dict[Weight, int] = {}
    for w in basis_weights(expr, rank_):
        counts[w] = counts.get(w, 0) + 1
    return WeightModule(rank_, counts)


def action_matrix(expr: ReprExpr, matrix, rank_: int) -> RationalMatrix:
    """Matrix of an invertible r x r matrix acting on the evaluation.

    Basis order is the one fixed by basis_weights.  The dual standard
    representation acts by the inverse transpose; an exterior power sends
    e_j1 ^ ... ^ e_jq to A e_j1 ^ ... ^ A e_jq, the wedge of the inner
    action's columns.
    """
    rows = fraction_rows(matrix)
    if len(rows) != rank_ or any(len(row) != rank_ for row in rows):
        raise ValueError(f"matrix must be {rank_}x{rank_}")
    base = RationalMatrix.from_rows(rows)
    if isinstance(expr, Std):
        return base
    if isinstance(expr, DualStd):
        return invert(base).transpose()
    if isinstance(expr, Const):
        return RationalMatrix.identity(expr.dimension)
    if isinstance(expr, Lie):
        return induced_map_lie(rows, expr.degree)
    if isinstance(expr, Wedge):
        inner = action_matrix(expr.inner, rows, rank_)
        columns: list[dict[int, Fraction]] = [{} for _ in range(inner.cols)]
        for (i, j), q in inner.entries.items():
            columns[j][i] = q
        row_index = {
            combo: i for i, combo in enumerate(combinations(range(inner.rows), expr.power))
        }
        entries = {}
        for col, combo in enumerate(combinations(range(inner.cols), expr.power)):
            wedge: dict[tuple[int, ...], Fraction] = {(): Fraction(1)}
            for j in combo:
                step: dict[tuple[int, ...], Fraction] = {}
                for support, coeff in wedge.items():
                    for i, q in columns[j].items():
                        pos = bisect_left(support, i)
                        if pos < len(support) and support[pos] == i:
                            continue
                        # e_support ^ e_i: move e_i left past the indices above it
                        target = support[:pos] + (i,) + support[pos:]
                        v = coeff * q if (len(support) - pos) % 2 == 0 else -coeff * q
                        step[target] = step.get(target, 0) + v
                wedge = step
            for support, v in wedge.items():
                if v:
                    entries[(row_index[support], col)] = v
        return RationalMatrix(len(row_index), comb(inner.cols, expr.power), entries)
    if isinstance(expr, Tensor):
        left = action_matrix(expr.left, rows, rank_)
        right = action_matrix(expr.right, rows, rank_)
        entries = {}
        for (i1, j1), a in left.entries.items():
            for (i2, j2), b in right.entries.items():
                entries[(i1 * right.rows + i2, j1 * right.cols + j2)] = a * b
        return RationalMatrix(left.rows * right.rows, left.cols * right.cols, entries)
    if isinstance(expr, Sum):
        left = action_matrix(expr.left, rows, rank_)
        right = action_matrix(expr.right, rows, rank_)
        entries = dict(left.entries)
        for (i, j), q in right.entries.items():
            entries[(left.rows + i, left.cols + j)] = q
        return RationalMatrix(left.rows + right.rows, left.cols + right.cols, entries)
    if isinstance(expr, HomStd):
        return action_matrix(Tensor(DualStd(), expr.inner), rows, rank_)
    raise TypeError(f"not a representation expression: {expr!r}")


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
    for w, mult in a.sorted_items():
        other = b.multiplicity(w)
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


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        if self.pos >= len(self.tokens):
            raise ValueError("unexpected end of expression")
        tok = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def integer(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ValueError(f"expected an integer, found {tok!r}")
        return int(tok)

    def expr(self) -> ReprExpr:
        tok = self.take()
        if tok == "std":
            return Std()
        if tok == "dual":
            return DualStd()
        if tok == "const":
            self.take("(")
            n = self.integer()
            self.take(")")
            return Const(n)
        if tok == "lie":
            if self.peek() == "[":
                self.take("[")
                a = self.integer()
                self.take("..")
                c = self.integer()
                self.take("]")
                return lie_interval(a, c)
            self.take("(")
            b = self.integer()
            self.take(")")
            return Lie(b)
        if tok == "wedge":
            self.take("(")
            q = self.integer()
            self.take(",")
            inner = self.expr()
            self.take(")")
            return Wedge(q, inner)
        if tok in ("tensor", "sum"):
            self.take("(")
            left = self.expr()
            self.take(",")
            right = self.expr()
            self.take(")")
            return Tensor(left, right) if tok == "tensor" else Sum(left, right)
        if tok == "hom":
            self.take("(")
            self.take("std")
            self.take(",")
            inner = self.expr()
            self.take(")")
            return HomStd(inner)
        raise ValueError(f"unknown constructor {tok!r}")


def parse_expr(text: str) -> ReprExpr:
    """Parse the textual form, e.g. ``wedge(2, hom(std, lie[2..3]))``."""
    parser = _Parser(_tokenize(text))
    expr = parser.expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing input from {parser.peek()!r}")
    return expr


def expr_text(expr: ReprExpr) -> str:
    if isinstance(expr, Std):
        return "std"
    if isinstance(expr, DualStd):
        return "dual"
    if isinstance(expr, Const):
        return f"const({expr.dimension})"
    if isinstance(expr, Lie):
        return f"lie({expr.degree})"
    if isinstance(expr, Wedge):
        return f"wedge({expr.power}, {expr_text(expr.inner)})"
    if isinstance(expr, Tensor):
        return f"tensor({expr_text(expr.left)}, {expr_text(expr.right)})"
    if isinstance(expr, Sum):
        return f"sum({expr_text(expr.left)}, {expr_text(expr.right)})"
    if isinstance(expr, HomStd):
        return f"hom(std, {expr_text(expr.inner)})"
    raise TypeError(f"not a representation expression: {expr!r}")
