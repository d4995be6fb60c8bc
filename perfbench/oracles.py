"""Independent invariants the benchmark checks nilhom's answers against.

Each function returns a list of failure messages, empty when the answer
passes.  They use plain Python and closed forms from the literature, not
the code paths being measured, except where a docstring says otherwise.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import prod


def digest(value) -> str:
    """SHA-256 of the canonical JSON of a normalized answer."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def against_pinned(item_id: str, value, pinned: dict) -> list[str]:
    """The answer equals the one recorded for this item at the seed commit."""
    if item_id not in pinned:
        return [f"no pinned answer for {item_id}"]
    if digest(value) != pinned[item_id]:
        return [f"answer differs from the pinned one for {item_id}"]
    return []


# -- Betti numbers -------------------------------------------------------------


def witt(r: int, n: int) -> int:
    """Dimension of the degree-n part of the free Lie algebra on r letters (Witt's formula)."""

    def mobius(k: int) -> int:
        out, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if k > 1 else out

    return sum(mobius(d) * r ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def betti_vector(betti: list[int], r: int) -> list[str]:
    """b0 = 1, b1 = r, Poincare duality and Euler characteristic 0 (nilpotent, dim > 0)."""
    errors = []
    if not betti or betti[0] != 1:
        errors.append("b0 is not 1")
    if len(betti) > 1 and betti[1] != r:
        errors.append(f"b1 is not the rank {r}")
    if betti != betti[::-1]:
        errors.append("not Poincare-duality symmetric")
    if sum((-1) ** d * b for d, b in enumerate(betti)) != 0:
        errors.append("Euler characteristic is not 0")
    return errors


def _partitions_in_box(rows: int, cols: int, max_part: int | None = None):
    """Partitions with at most `rows` parts, each at most `cols`, as tuples."""
    if max_part is None:
        max_part = cols
    yield ()
    if rows == 0:
        return
    for first in range(1, max_part + 1):
        for rest in _partitions_in_box(rows - 1, cols, first):
            yield (first,) + rest


def _conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0])) if lam else ()


def schur_dim(lam: tuple[int, ...], r: int) -> int:
    """dim of the Schur module S_lam(Q^r), by the hook-content formula."""
    if len(lam) > r:
        return 0
    conj = _conjugate(lam)
    num = prod(r + j - i for i, part in enumerate(lam) for j in range(part))
    hooks = prod(part - j + conj[j] - i - 1 for i, part in enumerate(lam) for j in range(part))
    return num // hooks


def class2_betti(r: int) -> list[int]:
    """Betti numbers of the free 2-step nilpotent Lie algebra on r generators.

    Jozefiak-Weyman (1985) and Sigg (1996): H_k(V + wedge^2 V) is the sum of
    S_lam V over self-conjugate lam with (|lam| + Durfee rank) / 2 = k.
    """
    dim = r + r * (r - 1) // 2
    out = [0] * (dim + 1)
    for lam in _partitions_in_box(r, r):
        if lam != _conjugate(lam):
            continue
        durfee = sum(1 for i, part in enumerate(lam) if part > i)
        k, odd = divmod(sum(lam) + durfee, 2)
        if not odd and k <= dim:
            out[k] += schur_dim(lam, r)
    return out


def weight_table(table: dict, total: int, perm: list[int]) -> list[str]:
    """Multiplicities sum to `total` and do not change when weight coordinates are permuted."""
    errors = []
    if sum(table.values()) != total:
        errors.append(f"multiplicities sum to {sum(table.values())}, not {total}")
    for w, mult in table.items():
        if table.get(tuple(w[i] for i in perm), 0) != mult:
            errors.append(f"weight {w} changes multiplicity under the permutation {perm}")
            break
    return errors


# -- representations -----------------------------------------------------------


def ia_dimension(r: int, c: int) -> int:
    """dim of the derivation algebra: r times the sum of Witt dimensions of degrees 2..c."""
    return r * sum(witt(r, b) for b in range(2, c + 1))


def gl2_schur_dimension(schur: dict) -> int:
    """Dimension of a GL_2 module from its highest weights (a, b): sum of mult * (a - b + 1)."""
    return sum(mult * (a - b + 1) for (a, b), mult in schur.items())


def coinvariant_bound(weights: dict, r: int) -> int:
    """Upper bound on GL_r(Z)-coinvariants: multiplicity of the weights (k, ..., k), k even.

    A trivial quotient of a rational representation is a det^k summand
    (SL_r(Z) is Zariski-dense), which has weight (k, ..., k), and the
    reflection diag(-1, 1, ...) kills odd k.
    """
    return sum(mult for w, mult in weights.items() if len(set(w)) == 1 and w[0] % 2 == 0 and len(w) == r)


# -- group arithmetic -------------------------------------------------------------


def bch_low_degrees(u: dict, v: dict, z: dict, r: int, sign_v: int = 1) -> list[str]:
    """Degree-1 and degree-2 coordinates of z = u * v^sign_v in Lyndon coordinates.

    z_1 = u_1 + s v_1 and z_ij = u_ij + s v_ij + s (u_i v_j - u_j v_i) / 2 for
    i < j, the first two terms of the Baker-Campbell-Hausdorff series.
    """
    errors = []
    zero = Fraction(0)
    for i in range(1, r + 1):
        w = (i,)
        want = u.get(w, zero) + sign_v * v.get(w, zero)
        if z.get(w, zero) != want:
            errors.append(f"degree-1 coordinate {i} is {z.get(w, zero)}, expected {want}")
            return errors
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            w = (i, j)
            ui, uj = u.get((i,), zero), u.get((j,), zero)
            vi, vj = v.get((i,), zero), v.get((j,), zero)
            want = u.get(w, zero) + sign_v * (v.get(w, zero) + (ui * vj - uj * vi) / 2)
            if z.get(w, zero) != want:
                errors.append(f"degree-2 coordinate {i}{j} is {z.get(w, zero)}, expected {want}")
                return errors
    return errors


def commutator_low_degrees(u: dict, v: dict, z: dict, r: int) -> list[str]:
    """log of u v u^-1 v^-1: no degree-1 part and degree-2 part [u_1, v_1]."""
    zero = Fraction(0)
    for i in range(1, r + 1):
        if z.get((i,), zero):
            return [f"commutator has degree-1 coordinate {i}"]
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            want = u.get((i,), zero) * v.get((j,), zero) - u.get((j,), zero) * v.get((i,), zero)
            if z.get((i, j), zero) != want:
                return [f"commutator degree-2 coordinate {i}{j} is {z.get((i, j), zero)}, expected {want}"]
    return []


def inverse(a: list[list[int]]) -> list[list[Fraction]]:
    """Inverse of a square matrix by Gauss-Jordan elimination over the rationals."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if work[i][col])
        work[col], work[pivot] = work[pivot], work[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                factor = work[i][col]
                work[i] = [x - factor * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]
