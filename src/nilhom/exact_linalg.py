"""Exact sparse linear algebra over the rationals.

Ranks, nullspaces, row spaces, determinants and inverses, all in exact
arbitrary-precision arithmetic.  There is deliberately no floating point
on any code path here: every downstream quantity (homology ranks, weight
multiplicities, group-law coefficients) must come out as an exact integer
or rational.

All of them run one fraction-free elimination kernel on primitive
rows: rows are cleared to integers and divided by their content (the gcd
of their entries), and each elimination step cross-multiplies only the
rows that meet the pivot column, then divides each of them by its content
again.  No row is rescaled by a pivot it does not meet, and nothing is
divided by the previous pivot.  The determinant reads the product of
those row factors from an identity block riding along.  Pivots are chosen
by a Markowitz minimum-fill score (Markowitz, Management Sci. 3 (1957))
with a deterministic (row, column) tie-break, the same pivots classical
Bareiss elimination picks, so results are reproducible byte for byte.

The pivots of score 0 (a row with one pivotable entry, or a column met by
one row) are taken first, lowest row first, in one pass that rescores
nothing.  That is the order the scores give: 0 is the least score, and
such a step fills no pivotable column, because either no other row meets
the pivot column or the pivot row has no other pivotable entry.  So
counts only fall, and a row that scores 0 keeps scoring 0 until it is
pivoted or emptied.

The loop that takes the rest keeps, for each row, a heap key that is a
lower bound of its true (score, row, column), and checks a key when it is
popped.  A heap of lower bounds pops the true minimum first: a popped key
that equals its row's recomputed entry is at or below every other key,
and so below every other row's entry.  After a step a row it did not
rewrite is only visited through a column whose count fell, because for a
fixed row count the score grows with the column count.  So the pivots and
rows stay Bareiss's.

Sparse vectors throughout the package are dicts holding no zero value.
Their accumulators live here in the bottom module: ``_add`` adds one
value, and ``_add_scaled`` adds an integer multiple of a whole integer
vector, for the Jacobi check and the map certificates.  The modules above
import them rather than re-type the add-or-delete step.  Only the hot
loops of elimination, boundary assembly and the Lie bracket inline
``_add``.

A matrix is checked where it enters: the ``RationalMatrix`` constructor
bound-checks every key, takes exact values only and sums duplicate keys,
and ``from_rows``, the one reader of nested rows, rejects inexact values
first and ragged rows second.  A matrix the package has just computed is
wrapped as it is, by ``_computed`` or column by column by
``_from_columns``, and not checked again.  A public call that takes a
matrix reads it with ``_as_matrix``, which hands a ``RationalMatrix`` on
as it is, so whatever it calls with that matrix reads it again for free.

All values are immutable after construction and all operations are pure
functions; everything in this module is safe to use concurrently.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Mapping, Sequence

__all__ = [
    "RationalMatrix",
    "rank",
    "nullspace_basis",
    "row_space_basis",
    "determinant",
    "invert",
    "exp_nilpotent",
]


# the one grammar of an exact number written as a string, for the library
# and the CLI alike: an integer, n/d with d nonzero, or a plain decimal;
# no exponent to expand, no zero denominator, no surrounding blanks
_EXACT_NUMBER = re.compile(r"[+-]?([0-9]+(/[0-9]*[1-9][0-9]*)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _EXACT_NUMBER.fullmatch(value):
            raise ValueError(f"{value!r} is not an integer, n/d (d nonzero) or plain decimal")
        return Fraction(value)
    raise TypeError(f"exact arithmetic only: cannot accept {type(value).__name__}")


def _add(d: dict, key, value) -> None:
    """d[key] += value for int or Fraction values, keeping no zero entry."""
    if key in d:
        value = d[key] + value
        if not value:
            del d[key]
            return
    elif not value:
        return
    d[key] = value


def _add_scaled(out: dict[int, int], vec: Mapping[int, int], c: int) -> None:
    """out += c * vec for integer sparse vectors, keeping no zero entry."""
    for k, q in vec.items():  # _add, inlined: this loop carries every Jacobi and certificate term
        q *= c
        if k in out:
            q += out[k]
            if not q:
                del out[k]
                continue
        out[k] = q


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
            _add(data, (i, j), _as_fraction(value))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", data)

    @classmethod
    def _computed(cls, rows: int, cols: int, entries: dict[tuple[int, int], Fraction]) -> "RationalMatrix":
        """Wrap entries the package has just computed, nonzero Fractions at in-range keys."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def _from_columns(cls, rows: int, columns: Sequence[dict[int, Fraction]]) -> "RationalMatrix":
        """Wrap computed sparse columns, each row-keyed dict becoming one column."""
        return cls._computed(
            rows, len(columns), {(k, j): col[k] for j, col in enumerate(columns) for k in sorted(col)}
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._computed(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def from_rows(cls, rows_data: Sequence[Sequence]) -> "RationalMatrix":
        """Read nested rows, rejecting inexact values first and ragged rows second."""
        rows = [[_as_fraction(v) for v in row] for row in rows_data]
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged rows")
        return cls._computed(
            len(rows), len(rows[0]) if rows else 0,
            {(i, j): q for i, row in enumerate(rows) for j, q in enumerate(row) if q},
        )

    @classmethod
    def vstack(cls, mats: Sequence["RationalMatrix"]) -> "RationalMatrix":
        if not mats:
            return cls._computed(0, 0, {})
        cols = mats[0].cols
        entries = {}
        offset = 0
        for m in mats:
            if m.cols != cols:
                raise ValueError("column count mismatch in vstack")
            for (i, j), q in m.entries.items():
                entries[(offset + i, j)] = q
            offset += m.rows
        return cls._computed(offset, cols, entries)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries.get((i, j), Fraction(0))

    def columns(self) -> list[dict[int, Fraction]]:
        """Every column as a sparse row-keyed dict, in one pass over the entries."""
        cols: list[dict[int, Fraction]] = [{} for _ in range(self.cols)]
        for (i, j), q in self.entries.items():
            cols[j][i] = q
        return cols

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._computed(
            self.cols, self.rows, {(j, i): q for (i, j), q in self.entries.items()}
        )

    def scaled(self, factor) -> "RationalMatrix":
        f = _as_fraction(factor)
        return RationalMatrix._computed(
            self.rows, self.cols, {k: q * f for k, q in self.entries.items()} if f else {}
        )

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        data = dict(self.entries)
        for k, q in other.entries.items():
            _add(data, k, q)
        return RationalMatrix._computed(self.rows, self.cols, data)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (k, j), q in other.entries.items():
            by_row.setdefault(k, []).append((j, q))
        data: dict[tuple[int, int], Fraction] = {}
        for (i, k), a in self.entries.items():
            for j, b in by_row.get(k, ()):
                _add(data, (i, j), a * b)
        return RationalMatrix._computed(self.rows, other.cols, data)

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

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def _as_matrix(matrix) -> RationalMatrix:
    """A RationalMatrix as it is, or nested rows read by ``from_rows``."""
    return matrix if isinstance(matrix, RationalMatrix) else RationalMatrix.from_rows(matrix)


def _kron(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Kronecker product: entry (i1, j1) of a times entry (i2, j2) of b, pairs row-major."""
    entries = {(i1 * b.rows + i2, j1 * b.cols + j2): p * q
               for (i1, j1), p in a.entries.items() for (i2, j2), q in b.entries.items()}
    return RationalMatrix._computed(a.rows * b.rows, a.cols * b.cols, entries)


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
        if mult == 1:
            out.append({j: v.numerator for j, v in row.items()})
        else:
            out.append({j: v.numerator * (mult // v.denominator) for j, v in row.items()})
    return out


def _eliminate(rows: list[dict[int, int]], ncols: int) -> list[tuple[int, int]]:
    """Primitive-row fraction-free elimination with Markowitz pivoting, in place.

    Returns the pivot list [(row, col), ...] in elimination order.  Columns
    with index >= ncols (augmented right-hand sides) ride along and are
    never chosen as pivots.  The pivot with the least
    (nnz_row - 1) * (nnz_col - 1) score wins, ties broken by lowest row
    then lowest column, which makes the whole elimination deterministic.

    Every row is kept primitive: divided by the gcd of all its entries,
    ride-along columns included.  A pivot step rewrites only the rows that
    meet the pivot column, as (p/g) row - (f/g) pivot_row with g = gcd(p, f).
    Each non-pivot row therefore stays a nonzero rational multiple of the
    row classical Bareiss elimination would hold, and supports, scores and
    pivots are the same as Bareiss's.

    The pivots of score 0 come first, in one pass that rescores nothing.
    A row scores 0 when it has one pivotable entry or meets a column that
    no other row meets.  Score 0 is the least score, so while such a row
    is left, the lowest-indexed one is the next pivot, at its best column.
    Such a step fills no pivotable column: either no other row meets the
    pivot column, and no row is rewritten, or the pivot row has no other
    pivotable entry, and each rewritten row only loses the pivot column.
    So row and column counts only fall, and a row that scores 0 keeps
    scoring 0 until it is pivoted or emptied.  The pass pops row indices
    from a min-heap: a row is pushed when its count falls to 1 or when one
    of its columns comes to be met by it alone, and a row pivoted or
    emptied since it was pushed is skipped.

    The rows left then go through the Markowitz loop, each non-pivot
    row's key in a heap.  A key is a lower bound of the row's true entry,
    (score, row, column), and is checked when it is popped: a key that is
    no longer the row's current one is skipped, and one that differs from
    the row's recomputed entry is replaced by that entry, which is pushed
    and waits its turn.  A key that equals its row's entry is at or below
    every other key, each a lower bound of its row's entry, so the row is
    the next pivot, the one Bareiss's full scan picks.

    A pivot step moves only the counts of the pivot row's columns.  A row
    the step rewrote is rescanned in full.  Any other row keeps its count,
    and each row in a pivot-row column whose count fell has its key
    lowered to the least of the key and (score at the new count, row,
    column).  The key stays a lower bound.  Every column of the row whose
    count fell is in that minimum.  Every other column's (score, column)
    is no less than before, because for a fixed row count the score grows
    with the column count (a row still in the loop has at least two
    pivotable entries, or just one column), so it is at least the row's
    old entry and therefore at least the old key.
    """
    nnz = [0] * len(rows)  # pivotable nonzeros of each non-pivot row
    by_col: dict[int, set[int]] = {}  # column -> non-pivot rows meeting it
    for i, row in enumerate(rows):
        if not row:
            continue
        content = gcd(*row.values())
        if content != 1:
            rows[i] = row = {c: v // content for c, v in row.items()}
        for c in row:
            if c < ncols:
                by_col.setdefault(c, set()).add(i)
                nnz[i] += 1

    def entry(i: int) -> tuple[int, int, int]:
        # (score, row, column) of row i's best pivot: its column met by fewest rows, lowest first
        bk = bc = -1
        for c in rows[i]:
            if c < ncols:
                k = len(by_col[c])
                if bc < 0 or k < bk or (k == bk and c < bc):
                    bk, bc = k, c
        return (nnz[i] - 1) * (bk - 1), i, bc

    pivots: list[tuple[int, int]] = []

    def step(pi: int, pj: int, pcols: list[int]) -> set[int]:
        # pivot at (pi, pj), pcols being the pivot row's other pivotable
        # columns; returns the rows it rewrote, those meeting column pj
        pivots.append((pi, pj))
        nnz[pi] = 0
        for c in pcols:
            by_col[c].discard(pi)
        targets = by_col.pop(pj)
        targets.discard(pi)
        prow = rows[pi]
        p = prow[pj]
        for k in targets:
            row = rows[k]
            f = row[pj]
            g = gcd(p, f)
            a, b = p // g, f // g
            new = {c: a * v for c, v in row.items()} if a != 1 else row
            count = nnz[k]
            for c, v in prow.items():
                w = new.get(c)
                if w is None:
                    new[c] = -b * v
                    if c < ncols:
                        by_col[c].add(k)
                        count += 1
                    continue
                w -= b * v
                if w:
                    new[c] = w
                    continue
                del new[c]
                if c < ncols:
                    count -= 1
                    if c != pj:
                        by_col[c].discard(k)
            nnz[k] = count
            content = gcd(*new.values()) if new else 1
            if content != 1:
                new = {c: v // content for c, v in new.items()}
            rows[k] = new
        return targets

    queue = [i for i, n in enumerate(nnz) if n == 1]
    queue += [next(iter(col)) for col in by_col.values() if len(col) == 1]
    heapify(queue)
    while queue:
        pi = heappop(queue)
        if not nnz[pi]:
            continue  # pivoted or emptied since it was pushed
        pj = entry(pi)[2]
        pcols = [c for c in rows[pi] if c < ncols and c != pj]
        for k in step(pi, pj, pcols):
            if nnz[k] == 1:
                heappush(queue, k)
        for c in pcols:
            col = by_col[c]
            if len(col) == 1:
                heappush(queue, next(iter(col)))

    current = {i: entry(i) for i, n in enumerate(nnz) if n}
    heap = list(current.values())
    heapify(heap)
    while heap:
        key = heappop(heap)
        pi = key[1]
        if current.get(pi) != key:
            continue  # superseded by a lower key, or the row has left
        e = entry(pi)
        if e != key:
            current[pi] = e  # the key was a lower bound: the true entry waits its turn
            heappush(heap, e)
            continue
        del current[pi]
        pj = e[2]
        pcols = [c for c in rows[pi] if c < ncols and c != pj]
        counts = [len(by_col[c]) for c in pcols]  # before the step
        for k in step(pi, pj, pcols):
            if nnz[k]:
                e = entry(k)
                if current.get(k) != e:
                    current[k] = e
                    heappush(heap, e)
            else:
                del current[k]
        # any other row's entry can fall only through a column whose count
        # fell; a rewritten row's key is exact, so no column lowers it
        for c, before in zip(pcols, counts):
            col = by_col[c]
            count = len(col)
            if count < before:
                for k in col:
                    e = ((nnz[k] - 1) * (count - 1), k, c)
                    if e < current[k]:
                        current[k] = e
                        heappush(heap, e)
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
    return len(_eliminate(_integer_rows(m), m.cols))


def nullspace_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """A deterministic basis of the right nullspace.

    One vector per free column, in increasing column order, with a 1 in
    the free coordinate; back-substitution through the pivot rows fills
    the rest.
    """
    rows = _integer_rows(m)
    pivots = _eliminate(rows, m.cols)
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
    pivots = _eliminate(rows, m.cols)
    return [
        tuple(Fraction(rows[ri].get(c, 0)) for c in range(m.cols)) for ri, _ in pivots
    ]


def _augmented_rows(m: RationalMatrix) -> list[dict[int, int]]:
    """The integer rows of [m | I] for a square m, as determinant and invert eliminate them."""
    n = m.rows
    identity = {(i, n + i): Fraction(1) for i in range(n)}
    return _integer_rows(RationalMatrix._computed(n, 2 * n, {**m.entries, **identity}))


def determinant(m: RationalMatrix) -> Fraction:
    """Exact determinant; 1 for the empty matrix.

    [m | I] is eliminated once, as by ``invert``.  The pivot rows, taken
    in pivot order, then form a triangular matrix whose determinant is the
    product of the pivots times the sign of the row-to-column pivot
    permutation.  Row i has become s_i times row i of m plus multiples of
    rows pivoted before it, s_i being the product of the clearing and
    elimination factors applied to it.  Those earlier rows carry
    ride-along entries only in their own identity columns and in those of
    rows pivoted before them, never in column n + i, so rows[i][n + i] is
    s_i.  The determinant of m is the signed product of the pivots over
    the product of the s_i.
    """
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    rows = _augmented_rows(m)
    pivots = _eliminate(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    col_of = [0] * n
    product = 1
    factors = 1
    for ri, ci in pivots:
        col_of[ri] = ci
        product *= rows[ri][ci]
        factors *= rows[ri][n + ri]
    inversions = sum(a > b for k, a in enumerate(col_of) for b in col_of[k + 1 :])
    return Fraction(-product if inversions % 2 else product, factors)


def invert(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse; raises ValueError on singular input.

    [m | I] is eliminated once, the identity riding along in columns
    n..2n-1; column j of the inverse is then back-substituted against
    ride-along column n + j.
    """
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    rows = _augmented_rows(m)
    pivots = _eliminate(rows, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return RationalMatrix._from_columns(n, [_back_substitute(rows, pivots, {}, n + j) for j in range(n)])


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
