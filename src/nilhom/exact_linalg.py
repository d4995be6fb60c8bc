"""Exact sparse linear algebra over the rationals.

Ranks, nullspaces, row spaces, determinants and inverses, all in exact
arbitrary-precision arithmetic.  There is deliberately no floating point
on any code path here: every downstream quantity (homology ranks, weight
multiplicities, group-law coefficients) must come out as an exact integer
or rational.

All of them run one elimination kernel, fraction-free in the Bareiss
style: rows are cleared to integers, and each elimination step divides
by the previous pivot, which is exact by Sylvester's determinant
identity.  Pivots are chosen by a Markowitz minimum-fill score with a
deterministic (row, column) tie-break, so results are reproducible byte
for byte.

All values are immutable after construction and all operations are pure
functions; everything in this module is safe to use concurrently.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

__all__ = [
    "RationalMatrix",
    "fraction_rows",
    "rank",
    "nullspace_basis",
    "row_space_basis",
    "determinant",
    "invert",
    "exp_nilpotent",
]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact arithmetic only: cannot accept {type(value).__name__}")


def fraction_rows(matrix) -> list[list[Fraction]]:
    """Dense rows of Fractions of a RationalMatrix or of nested sequences."""
    if isinstance(matrix, RationalMatrix):
        return matrix.to_rows()
    rows = [[_as_fraction(v) for v in row] for row in matrix]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged rows")
    return rows


class RationalMatrix:
    """Immutable sparse matrix over the rationals.

    Entries live in a dict keyed by (row, col); zero is never stored, so
    two equal matrices have equal entry dicts.  Treat instances and their
    ``entries`` dict as read-only.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=()) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        data: dict[tuple[int, int], Fraction] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (i, j), value in items:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            q = data.get((i, j), Fraction(0)) + _as_fraction(value)
            if q:
                data[(i, j)] = q
            else:
                data.pop((i, j), None)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence]) -> "RationalMatrix":
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if nrows else 0
        entries = {}
        for i, row in enumerate(rows_data):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, value in enumerate(row):
                q = _as_fraction(value)
                if q:
                    entries[(i, j)] = q
        return cls(nrows, ncols, entries)

    @classmethod
    def vstack(cls, mats: Sequence["RationalMatrix"]) -> "RationalMatrix":
        if not mats:
            return cls(0, 0)
        cols = mats[0].cols
        entries = {}
        offset = 0
        for m in mats:
            if m.cols != cols:
                raise ValueError("column count mismatch in vstack")
            for (i, j), q in m.entries.items():
                entries[(offset + i, j)] = q
            offset += m.rows
        return cls(offset, cols, entries)

    @classmethod
    def hstack(cls, mats: Sequence["RationalMatrix"]) -> "RationalMatrix":
        if not mats:
            return cls(0, 0)
        rows = mats[0].rows
        entries = {}
        offset = 0
        for m in mats:
            if m.rows != rows:
                raise ValueError("row count mismatch in hstack")
            for (i, j), q in m.entries.items():
                entries[(i, offset + j)] = q
            offset += m.cols
        return cls(rows, offset, entries)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

    def to_rows(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (i, j), q in self.entries.items():
            out[i][j] = q
        return out

    def column(self, j: int) -> dict[int, Fraction]:
        return {i: q for (i, jj), q in self.entries.items() if jj == j}

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols, self.rows, {(j, i): q for (i, j), q in self.entries.items()}
        )

    def scaled(self, factor) -> "RationalMatrix":
        f = _as_fraction(factor)
        if not f:
            return RationalMatrix(self.rows, self.cols)
        return RationalMatrix(
            self.rows, self.cols, {k: q * f for k, q in self.entries.items()}
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        data = dict(self.entries)
        for k, q in other.entries.items():
            s = data.get(k, Fraction(0)) + q
            if s:
                data[k] = s
            else:
                data.pop(k, None)
        return RationalMatrix(self.rows, self.cols, data)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scaled(-1)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (k, j), q in other.entries.items():
            by_row.setdefault(k, []).append((j, q))
        data: dict[tuple[int, int], Fraction] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                key = (i, j)
                s = data.get(key, Fraction(0)) + a * b
                if s:
                    data[key] = s
                else:
                    data.pop(key, None)
        return RationalMatrix(self.rows, other.cols, data)

    def mul_vector(self, vec: Sequence) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [Fraction(0)] * self.rows
        for (i, j), q in self.entries.items():
            v = vec[j]
            if v:
                out[i] += q * v
        return tuple(out)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


# ---------------------------------------------------------------------------
# fraction-free elimination engine


def _integer_rows(m: RationalMatrix) -> list[dict[int, int]]:
    """Clear denominators row by row.

    Row scaling changes neither rank, nullspace nor solution sets.
    """
    rows: list[dict[int, Fraction]] = [dict() for _ in range(m.rows)]
    for (i, j), q in m.entries.items():
        rows[i][j] = q
    out: list[dict[int, int]] = []
    for row in rows:
        mult = lcm(*(v.denominator for v in row.values())) if row else 1
        out.append({j: int(v * mult) for j, v in row.items()})
    return out


def _bareiss(rows: list[dict[int, int]], ncols: int) -> list[tuple[int, int]]:
    """Fraction-free elimination with Markowitz pivoting, in place.

    Returns the pivot list [(row, col), ...] in elimination order.  Columns
    with index >= ncols (augmented right-hand sides) ride along and are
    never chosen as pivots.  The pivot with the least (nnz_row - 1) *
    (nnz_col - 1) score wins, ties broken by lowest row then lowest column,
    which makes the whole elimination deterministic.
    """
    nrows = len(rows)
    pivots: list[tuple[int, int]] = []
    pivot_rows: set[int] = set()
    prev = 1
    while True:
        col_count: dict[int, int] = {}
        for i in range(nrows):
            if i in pivot_rows:
                continue
            for c in rows[i]:
                if c < ncols:
                    col_count[c] = col_count.get(c, 0) + 1
        if not col_count:
            break
        best: tuple[int, int, int] | None = None
        for i in range(nrows):
            if i in pivot_rows:
                continue
            row = rows[i]
            nnz = sum(1 for c in row if c < ncols)
            if not nnz:
                continue
            for c in row:
                if c >= ncols:
                    continue
                cand = ((nnz - 1) * (col_count[c] - 1), i, c)
                if best is None or cand < best:
                    best = cand
        assert best is not None
        _, pi, pj = best
        pval = rows[pi][pj]
        prow = rows[pi]
        for k in range(nrows):
            if k == pi or k in pivot_rows:
                continue
            row = rows[k]
            if not row:
                continue
            f = row.get(pj)
            new_row: dict[int, int] = {}
            if f is None:
                # Bareiss scales untouched rows too; division stays exact.
                if pval == prev:
                    new_row = row
                else:
                    for c, v in row.items():
                        new_row[c] = v * pval // prev
            else:
                for c in row.keys() | prow.keys():
                    v = (row.get(c, 0) * pval - f * prow.get(c, 0)) // prev
                    if v:
                        new_row[c] = v
            rows[k] = new_row
        pivots.append((pi, pj))
        pivot_rows.add(pi)
        prev = pval
    return pivots


def _back_substitute(
    rows: list[dict[int, int]],
    pivots: list[tuple[int, int]],
    x: dict[int, Fraction],
    rhs_col: int | None = None,
) -> dict[int, Fraction]:
    """Solve the echelon pivot rows for their pivot columns, in place.

    ``x`` holds the values of free columns on entry (absent means zero);
    each pivot row is then solved for its pivot column, last pivot first.
    The right-hand side is the ride-along column ``rhs_col``, or zero
    when it is None.  Ride-along and unsolved pivot columns have no key
    in ``x``, so they drop out of each row's sum.
    """
    for ri, ci in reversed(pivots):
        row = rows[ri]
        s = Fraction(row.get(rhs_col, 0))
        for c, v in row.items():
            xc = x.get(c)
            if xc:
                s -= v * xc
        if s:
            x[ci] = s / row[ci]
    return x


def rank(m: RationalMatrix) -> int:
    """Rank over the rationals by fraction-free elimination."""
    rows = _integer_rows(m)
    return len(_bareiss(rows, m.cols))


def nullspace_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """A deterministic basis of the right nullspace.

    One vector per free column, in increasing column order, with a 1 in
    the free coordinate; back-substitution through the pivot rows fills
    the rest.
    """
    rows = _integer_rows(m)
    pivots = _bareiss(rows, m.cols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        x = _back_substitute(rows, pivots, {free: Fraction(1)})
        basis.append(tuple(x.get(c, Fraction(0)) for c in range(m.cols)))
    return basis


def row_space_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Echelon pivot rows, a deterministic basis of the row space."""
    rows = _integer_rows(m)
    pivots = _bareiss(rows, m.cols)
    return [
        tuple(Fraction(rows[ri].get(c, 0)) for c in range(m.cols)) for ri, _ in pivots
    ]


def determinant(m: RationalMatrix) -> Fraction:
    """Exact determinant; 1 for the empty matrix.

    After full-rank elimination the last pivot is the determinant of the
    cleared matrix with rows and columns taken in pivot order, so it is
    corrected by the sign of the row-to-column pivot permutation and by
    the row multipliers used to clear denominators.
    """
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    rows = _integer_rows(m)
    # clearing multiplied each nonzero row by the ratio of any one of its
    # cleared entries to the original entry
    scale = Fraction(1)
    for i, row in enumerate(rows):
        if row:
            j, v = next(iter(row.items()))
            scale *= v / m.entries[i, j]
    pivots = _bareiss(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    col_of = [0] * n
    for ri, ci in pivots:
        col_of[ri] = ci
    inversions = sum(a > b for k, a in enumerate(col_of) for b in col_of[k + 1 :])
    last = rows[pivots[-1][0]][pivots[-1][1]] if pivots else 1
    return (-last if inversions % 2 else last) / scale


def invert(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse; raises ValueError on singular input.

    [m | I] is eliminated once, the identity riding along in columns
    n..2n-1; column j of the inverse is then back-substituted against
    ride-along column n + j.
    """
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    rows = _integer_rows(RationalMatrix.hstack([m, RationalMatrix.identity(n)]))
    pivots = _bareiss(rows, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    entries = {}
    for j in range(n):
        for i, q in _back_substitute(rows, pivots, {}, n + j).items():
            entries[(i, j)] = q
    return RationalMatrix(n, n, entries)


def exp_nilpotent(m: RationalMatrix) -> RationalMatrix:
    """Finite matrix exponential of a nilpotent matrix.

    Raises ValueError when a power beyond the dimension is still nonzero.
    """
    if m.rows != m.cols:
        raise ValueError("matrix exponential needs a square matrix")
    acc = RationalMatrix.identity(m.rows)
    term = RationalMatrix.identity(m.rows)
    k = 0
    while True:
        k += 1
        term = (term @ m).scaled(Fraction(1, k))
        if term.is_zero:
            return acc
        if k > m.rows:
            raise ValueError("matrix is not nilpotent")
        acc = acc + term
