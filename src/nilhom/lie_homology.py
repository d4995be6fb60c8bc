"""Chevalley-Eilenberg homology of multiweighted rational Lie algebras.

The chain complex is the exterior algebra on the underlying space with
the usual boundary.  Because brackets add multiweights, the complex is
block-diagonal over the weight lattice; every rank computation here is
performed weight block by weight block, which is both an enormous speedup
and an exact equivariant refinement for free.

Betti numbers are read off the weight tables at the ranked weights:
weighted_betti spreads each over its S_r orbit with weights.orbit, and
betti_number weighs each by weights.orbit_size, so it lists no weight.

Only the blocks that symmetry and duality leave undetermined are ranked:
for the free nilpotent algebra, and for an IA derivation algebra whose
certificate aut.ia_lie_algebra has checked, a permutation of the
generators carries each weight block onto the block of the permuted
weight, so only non-increasing weights are computed.  When no basis
weight is zero the algebra is unimodular, and Poincare duality, which
pairs weight w with total - w, is applied as one rule: a count of
k-wedges with 2k > dim is read off degree dim - k, and a rank of the
degree-k boundary with 2k > dim + 1 off degree dim + 1 - k, both at the
dual weight.  So no degree above (dim + 1)/2 is ever listed, and in odd
dimension a block of degree (dim + 1)/2 whose dual block is already
ranked takes that rank.  Degree d's table is b_d(w) = c_d(w) - r_d(w) -
r_{d+1}(w), built afresh from the memoized blocks on each call; no
table is held.  A read of one degree ranks the degree whose counts it
reads whole, and the other degree only at the weights those counts
carry; betti_numbers ranks every block of every degree it reads, each
once.  Degrees ranked in turn are chained: the rows of degree
d - 1's pivot columns are left out of degree d's blocks, which keeps
their ranks.  Only the latest degree's pivot columns are held, each
block's packed into one bytes string.

A wedge e_i1 ^ ... ^ e_id is held as the int bitmask 2^i1 + ... + 2^id
from enumeration through assembly: weight buckets list masks, a sign is
a bit count of the mask below an index, and the bracket partners of a
member inside a wedge are one AND with its partner mask.  Each block's
boundary is assembled as integer rows from the algebra's integer bracket
table and ranked directly by exact_linalg: a certificate mod 2 answers
when the nonzero rows are independent mod 2, and the exact kernel answers
every other block.  Each boundary term is added straight into the row of
its target wedge; terms that cancel inside one column can leave a row
empty, which both skip.

Every algebra here is certified: the one constructor of GradedLieAlgebra
always checks weight additivity and the Jacobi identity, which d^2 = 0
rests on, and no path builds an algebra without them.

A degree d whose C(dim, d) wedges pass _MAX_WEDGES (10^7) is refused
with ValueError before any wedge is listed, and betti_numbers checks its
widest degree before it ranks any; README's "Practical envelope" gives
sizes and times.  All values immutable, all functions pure; cached
derived data is memoized idempotently, so concurrent use is safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, lcm
from typing import AbstractSet, Callable, Mapping

from .exact_linalg import RationalMatrix, _add, _add_scaled, _as_fraction, _pivot_columns, row_space_basis
from .exact_linalg import rank  # noqa: F401 - perfbench wraps it by name
from .free_lie import HallBasis, hall_basis
from .free_lie import bracket  # noqa: F401 - perfbench wraps it by name
from .weights import Weight, orbit, orbit_size

__all__ = [
    "GradedLieAlgebra",
    "free_nilpotent_lie",
    "betti_number",
    "betti_numbers",
    "group_betti",
    "weighted_betti",
    "lower_central_series_dims",
    "nilpotency_class",
]

_MAX_WEDGES = 10**7  # wedges in one degree; a degree with more is refused, not enumerated


class GradedLieAlgebra:
    """Finite-dimensional Lie algebra over Q with a multiweight on each basis vector.

    Structure constants are given for index pairs i < j only; antisymmetry
    is implicit.  Weights are tuples of ints.  Construction verifies the
    Jacobi identity on all basis triples and additivity of multiweights
    under the bracket, so instances are Lie algebras by certificate, not by
    convention.  The constructor is the only way to build one, and it has
    no switch that skips the checks.

    The one bracket table held is ``_partners``, over the integers, and
    ``brackets`` and ``bracket_basis`` return new copies read from it.  With
    S = ``_scale`` the lcm of the bracket denominators, ``_partners[i]`` is
    the bitmask of the j > i with [e_i, e_j] != 0 and the dict
    {j: S [e_min(i,j), e_max(i,j)]} over the j with a nonzero bracket, one
    dict object per pair at both ends, so [e_i, e_j] = sign(j - i) vec / S.
    """

    __slots__ = ("labels", "weights", "weight_length", "hall", "_partners", "_scale", "_cache")

    def __init__(
        self,
        labels: tuple[str, ...],
        weights: tuple[Weight, ...],
        brackets: Mapping[tuple[int, int], Mapping[int, object]],
        weight_length: int | None = None,
        hall: HallBasis | None = None,
    ) -> None:
        m = len(labels)
        if len(weights) != m:
            raise ValueError("labels and weights must have equal length")
        if weight_length is None:
            if not weights:
                raise ValueError("weight_length is required for the zero algebra")
            weight_length = len(weights[0])
        for w in weights:
            if len(w) != weight_length:
                raise ValueError("inconsistent multiweight lengths")
            for x in w:
                if not isinstance(x, int):
                    raise TypeError(f"weight entries must be integers, not {x!r}")
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), vec in brackets.items():
            if not 0 <= i < j < m:
                raise ValueError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
            clean = {}
            for k, value in vec.items():
                if not 0 <= k < m:
                    raise ValueError(f"bracket target index {k} out of range")
                q = _as_fraction(value)
                if q:
                    clean[k] = q
            if clean:
                table[(i, j)] = clean
        self.labels = tuple(labels)
        self.weights = tuple(tuple(w) for w in weights)
        self.weight_length = weight_length
        self.hall = hall
        # memoized derived data (weight blocks, the latest degree's pivots) and
        # the generator-symmetry certificate; recomputing under a race is harmless
        # because the values are deterministic
        self._cache: dict = {}
        self._check_weights(table)
        scale = self._scale = lcm(*(q.denominator for vec in table.values() for q in vec.values()))
        rows: list[dict[int, dict[int, int]]] = [{} for _ in range(m)]
        for (i, j), vec in table.items():
            rows[i][j] = rows[j][i] = {k: q.numerator * (scale // q.denominator) for k, q in vec.items()}
        self._partners = [(sum(1 << j for j in row if j > i), row) for i, row in enumerate(rows)]
        self._check_jacobi(table)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def degree(self, i: int) -> int:
        """Filtration degree of a basis vector: its total multiweight."""
        return sum(self.weights[i])

    @property
    def brackets(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """The nonzero [e_i, e_j], i < j, as a new dict of sparse coordinate vectors."""
        return {(i, j): self.bracket_basis(i, j) for i, (_, row) in enumerate(self._partners) for j in row if j > i}

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a new sparse coordinate vector; both indices must lie in range(dim)."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise ValueError(f"basis index pair ({i}, {j}) outside range({self.dim})")
        s = self._scale if i < j else -self._scale
        return {k: Fraction(q, s) for k, q in self._partners[i][1].get(j, {}).items()}

    def _check_weights(self, table: Mapping[tuple[int, int], Mapping[int, Fraction]]) -> None:
        for (i, j), vec in table.items():
            expected = tuple(a + b for a, b in zip(self.weights[i], self.weights[j]))
            for k in vec:
                if self.weights[k] != expected:
                    raise ValueError(
                        f"bracket [{self.labels[i]}, {self.labels[j]}] is not weight-additive"
                    )

    def _check_jacobi(self, table: Mapping[tuple[int, int], Mapping[int, Fraction]]) -> None:
        """Raise on the lexicographically first basis triple whose Jacobiator is nonzero.

        The Jacobiator is alternating, so on a triple i < j < k it is
        [[e_i, e_j], e_k] - [[e_i, e_k], e_j] + [[e_j, e_k], e_i].  Each
        nonzero product [[e_a, e_b], e_c] is added into the triple {a, b, c}
        with that sign; a triple no such product reaches has Jacobiator zero.
        Triples with a repeated index satisfy the identity by antisymmetry.
        Products read from ``_partners`` make each Jacobiator S^2 times the rational one.
        """
        partners = self._partners
        jacobiators: dict[tuple[int, int, int], dict[int, int]] = {}
        for a, b in table:
            for l, q in partners[a][1][b].items():
                for c, outer in partners[l][1].items():
                    coeff = q if c > l else -q  # [e_l, e_c] = sign(c - l) outer / S
                    if c > b:
                        triple = (a, b, c)
                    elif c < a:
                        triple = (c, a, b)
                    elif a < c < b:
                        triple, coeff = (a, c, b), -coeff
                    else:
                        continue
                    _add_scaled(jacobiators.setdefault(triple, {}), outer, coeff)
        failing = [triple for triple, acc in jacobiators.items() if acc]
        if failing:
            i, j, k = min(failing)
            raise ValueError(f"Jacobi identity fails on basis triple ({i}, {j}, {k})")

    def __repr__(self) -> str:
        return f"GradedLieAlgebra(dim={self.dim}, weight_length={self.weight_length})"


@lru_cache(maxsize=None)
def free_nilpotent_lie(rank_: int, cls: int) -> GradedLieAlgebra:
    """The free nilpotent Lie algebra of class ``cls`` on ``rank_`` generators.

    Basis, labels and multiweights come from the Lyndon-word basis;
    brackets of total degree beyond the class truncate to zero.
    """
    if rank_ < 0:
        raise ValueError("rank must be non-negative")
    if cls < 1:
        raise ValueError("class must be at least 1")
    basis = hall_basis(rank_, cls)
    labels = tuple(basis.label(w) for w in basis.elements)
    weights = tuple(basis.multiweight(w) for w in basis.elements)
    g = GradedLieAlgebra(
        labels, weights, basis.structure_constants(), weight_length=rank_, hall=basis
    )
    # a permutation of the letters extends to an automorphism of the free Lie
    # algebra that permutes multiweights, and it preserves the truncation
    g._cache["permutes_generators"] = True
    return g


def _permutes_generators(g: GradedLieAlgebra) -> bool:
    """True when each permutation of the generators carries weight block w onto block σw.

    That holds by construction for the algebra free_nilpotent_lie built,
    and for an IA algebra once aut.ia_lie_algebra has certified each
    adjacent transposition as a Lie automorphism mapping weight w to σw;
    a hand-built algebra, even one carrying a Hall basis, proves nothing.
    """
    return g._cache.get("permutes_generators", False)


def _duality(g: GradedLieAlgebra) -> Callable[[Weight], Weight] | None:
    """The weight map w -> total - w of Poincare duality, or None when tr ad != 0.

    Brackets add weights, so when no basis weight is zero, ad(e_i) moves
    every e_j into another weight space and has zero diagonal: g is
    unimodular, and H_d at weight w is dual to H_{dim-d} at total - w, with
    total summed over all weight_length coordinates.  When the generators
    permute, the dual weight is taken at its non-increasing rearrangement,
    the one weight of its orbit whose block is ranked.
    """
    if not all(any(w) for w in g.weights):
        return None
    total = tuple(sum(w[t] for w in g.weights) for t in range(g.weight_length))

    def dual(w: Weight) -> Weight:
        v = tuple(a - x for a, x in zip(total, w))
        return tuple(sorted(v, reverse=True)) if _permutes_generators(g) else v

    return dual


def _wedge_buckets(
    g: GradedLieAlgebra, d: int, dominant: bool, wanted: Callable[[Weight], bool] | None = None
) -> dict[Weight, list[int]]:
    """The d-wedges of g bucketed by weight; only non-increasing weights when ``dominant``,
    and only the weights ``wanted`` accepts when it is given.

    A wedge e_i1 ^ ... ^ e_id (i1 < ... < id) is the bitmask 2^i1 + ... + 2^id.
    Each bucket lists its masks in lexicographic order of the index
    tuples, and the buckets come in the order their weights are first met.

    Each weight is packed into one integer, a digit per coordinate in a
    base no sum of d basis weights can overflow, so a wedge's weight is
    a plain integer sum.  combinations() gives the first d - 2 indices and
    two loops add the last two, carrying weight and mask forward; whether
    a weight is kept is decided once, when it is first met, and a wedge
    of a dropped weight is never built.  Below degree 2 the wedge is
    padded in front with 2 - d phantom indices, which weigh nothing and
    set no bit, so one loop serves every degree.  The buckets are built
    for one degree at a time and dropped once their blocks are ranked.
    """
    m, n = g.dim, g.weight_length
    lows = [min((w[t] for w in g.weights), default=0) for t in range(n)]
    base = d * max((w[t] - lows[t] for w in g.weights for t in range(n)), default=0) + 1
    packed = [sum((w[t] - lows[t]) * base**t for t in range(n)) for w in g.weights]
    bits = [1 << i for i in range(m)]
    digits = [(base**t, d * lows[t]) for t in range(n)]

    def weight(key: int) -> Weight:
        return tuple(key // power % base + offset for power, offset in digits)

    pairs = list(zip(packed, bits))
    # each second-to-last index: its packed weight, its bit and the pairs that may end the wedge
    seconds = [(*pairs[j], pairs[j + 1 :]) for j in range(m - 1)]
    if d < 2:  # 2 - d phantoms in front, which weigh nothing and set no bit
        seconds = [(0, 0, pairs if d else [(0, 0)])]
    h = max(d - 2, 0)
    # the first d - 2 indices, each followed by at least two more
    heads = zip(
        combinations(range(m - 2), h), combinations(packed[: m - 2], h), combinations(bits[: m - 2], h)
    )
    buckets: dict[int, list[int] | None] = {}
    for head, head_keys, head_bits in heads:
        head_key = sum(head_keys)
        head_mask = sum(head_bits)
        for j_key, j_bit, lasts in seconds[head[-1] + 1 if head else 0 :]:
            j_key += head_key
            j_mask = head_mask | j_bit
            for k_key, k_bit in lasts:
                key = j_key + k_key
                bucket = buckets.get(key, False)  # False: a weight not met before
                if bucket is False:
                    w = weight(key)
                    kept = (not dominant or list(w) == sorted(w, reverse=True)) and (wanted is None or wanted(w))
                    bucket = buckets[key] = [] if kept else None
                if bucket is not None:
                    bucket.append(j_mask | k_bit)
    return {weight(key): bucket for key, bucket in buckets.items() if bucket is not None}


def _block_rows(g: GradedLieAlgebra, masks: list[int], skip: AbstractSet[int] = frozenset()) -> list[dict[int, int]]:
    """The integer rows of S times the boundary on the d-wedges ``masks``, less the rows in ``skip``.

    S is the bracket scale of g._partners, which changes no rank.  Column
    c is the wedge masks[c]; the boundary of x_1 ^ ... ^ x_d is the sum
    over s < t of (-1)^(s+t) [x_s, x_t] ^ (the wedge without x_s and
    x_t).  Only the pairs with a nonzero bracket are visited: for each
    member i, the partners of i inside the wedge.  Positions are bit
    counts of the mask below an index, and each term is added straight
    into the row of its (d-1)-wedge, made when that wedge's mask is first
    reached; a term whose (d-1)-wedge is in ``skip`` is dropped, so that
    row is never built.  An entry that cancels to 0 is deleted, so a row
    can be left empty.
    """
    table = g._partners
    rows: dict[int, dict[int, int]] = {}  # by target mask, in the order first reached
    for col, mask in enumerate(masks):
        members = mask
        while members:
            bit_i = members & -members
            members ^= bit_i
            partners, brackets = table[bit_i.bit_length() - 1]
            inside = partners & mask
            if not inside:
                continue
            s = (mask & (bit_i - 1)).bit_count()  # the position of e_i in the wedge
            while inside:
                bit_j = inside & -inside
                inside ^= bit_j
                rest = mask ^ bit_i ^ bit_j
                parity = s + (mask & (bit_j - 1)).bit_count()  # s + t
                for k, q in brackets[bit_j.bit_length() - 1].items():
                    bit_k = 1 << k
                    if rest & bit_k:
                        continue  # a repeated vector: the term is zero
                    # the sign of moving e_k into place is (-1)^(members of rest below k)
                    coeff = -q if (parity + (rest & (bit_k - 1)).bit_count()) & 1 else q
                    target = rest | bit_k
                    row = rows.get(target)
                    if row is None:
                        if target not in skip:
                            rows[target] = {col: coeff}
                    else:
                        _add(row, col, coeff)
    return list(rows.values())


def _blocks(g: GradedLieAlgebra, d: int, weights: AbstractSet[Weight] | None = None) -> dict[Weight, tuple[int, int]]:
    """(number of d-wedges, rank of the degree-d boundary) for each weight block.

    For an algebra whose generators may be permuted, only the blocks of
    non-increasing weights are computed: a permutation of the generators
    carries each block isomorphically onto the block of the permuted weight.

    Pruning: given ``weights``, only the blocks at those weights are
    needed, and the wedges of any other weight are never built.  Degree d
    is memoized as g._cache[("blocks", d)] = (asked, blocks), with asked
    the weights asked for so far, or None once every block is ranked; a
    read ranks only the blocks it wants that asked does not cover.

    Degrees are chained (Kaczynski-Mrozek-Slusarek, Comput. Math. Appl. 35,
    1998).  Let P be the pivot columns of the degree-(d-1) boundary on
    block w.  Then C_{d-1}(w) = ker ∂_{d-1} ⊕ span(P), and im ∂_d lies in
    ker ∂_{d-1}, which meets no nonzero vector supported on P; so deleting
    P's rows keeps the rank of ∂_d, and when degree d - 1's pivots are
    still held those rows are never built.  P may be any rank-many
    columns of ∂_{d-1} independent over Q, for then C_{d-1}(w) is the
    same direct sum.  The reduced matrix has the column dependencies of
    ∂_d, so its pivot columns, or the columns of the certificate mod 2
    (exact_linalg._pivot_columns), are again a valid P for degree d + 1.
    Each block's P is held as one bytes string, ceil(dim/8) little-endian
    bytes a wedge mask, decoded into a set for one block at a time; only
    the latest degree ranked keeps them in g._cache, so degree d - 1's go
    once degree d is ranked, and a degree ranked in parts keeps those of
    each part.  When none are held for a block of degree d - 1, P is
    empty, which keeps every rank.

    For a unimodular g of odd dimension, degree (dim + 1)/2 is its own
    dual: ∂_d on w is the transpose of ∂_d on the dual weight (see
    _duality).  A block whose dual block is already ranked copies that
    rank and is not ranked again; its pivots are not held, which costs
    nothing, as weighted_betti never ranks the degree after this one.
    """
    asked, ranked = g._cache.get(("blocks", d), (frozenset(), {}))
    if asked is None or (weights is not None and weights <= asked):
        return ranked
    _check_wedge_count(g, d)
    held_degree, held = g._cache.get("pivots", (None, {}))
    chained = held if held_degree == d - 1 else {}
    width = max(1, -(-g.dim // 8))
    out = dict(ranked)
    kept: dict[Weight, bytes] = dict(held) if held_degree == d else {}
    dual = _duality(g) if 2 * d == g.dim + 1 else None  # degree d is its own dual

    def wanted(w: Weight) -> bool:
        return w not in asked and (weights is None or w in weights)

    buckets = _wedge_buckets(g, d, _permutes_generators(g), wanted)
    # each bucket is freed once its block is ranked, the largest first
    for weight in sorted(buckets, key=lambda w: -len(buckets[w])):
        masks = buckets.pop(weight)
        mirror = out.get(dual(weight)) if dual else None
        if mirror is not None:
            out[weight] = (len(masks), mirror[1])
            continue
        packed = chained.get(weight, b"")
        skip = {int.from_bytes(packed[i : i + width], "little") for i in range(0, len(packed), width)}
        cols = _pivot_columns(_block_rows(g, masks, skip), len(masks))
        out[weight] = (len(masks), len(cols))
        if cols:
            kept[weight] = b"".join(masks[c].to_bytes(width, "little") for c in cols)
    g._cache["pivots"] = (d, kept)
    g._cache[("blocks", d)] = (None if weights is None else asked | weights, out)
    return out


def _check_wedge_count(g: GradedLieAlgebra, d: int) -> None:
    """Raise ValueError when degree d has more than _MAX_WEDGES wedges."""
    count = comb(g.dim, d)
    if count > _MAX_WEDGES:
        raise ValueError(
            f"degree {d} of a {g.dim}-dimensional algebra has {count:,} wedges,"
            f" above the limit of {_MAX_WEDGES:,} per degree"
        )


def betti_number(g: GradedLieAlgebra, d: int) -> int:
    """dim of the degree-d homology: the sum of the degree-d weight table.

    Each ranked weight's b counts once per weight of its S_r orbit when
    the generators permute, so no weight is listed.  Degrees beyond the
    dimension have zero homology.
    """
    return _table_sum(g, _ranked_table(g, d))


def betti_numbers(g: GradedLieAlgebra) -> list[int]:
    """Every Betti number, once the widest degree has passed the wedge limit.

    Each degree is read with every block ranked, so the degrees are ranked
    whole and in turn, each chained on the one before.
    """
    _check_wedge_count(g, g.dim // 2)
    return [_table_sum(g, _ranked_table(g, d, every_block=True)) for d in range(g.dim + 1)]


def _table_sum(g: GradedLieAlgebra, table: Mapping[Weight, int]) -> int:
    """The sum of a weight table kept at its ranked weights, each counted over its orbit."""
    if _permutes_generators(g):
        return sum(b * orbit_size(w) for w, b in table.items())
    return sum(table.values())


def group_betti(rank_: int, cls: int) -> list[int]:
    """Rational Betti numbers of the free class-``cls`` nilpotent group on ``rank_`` generators.

    Computed on the associated free nilpotent Lie algebra; these equal the
    Betti numbers of the corresponding iterated torus-bundle manifold.
    """
    return betti_numbers(free_nilpotent_lie(rank_, cls))


def weighted_betti(g: GradedLieAlgebra, d: int) -> dict[Weight, int]:
    """Homology dimensions in degree d, refined by multiweight.

    Only weights with nonzero homology appear, in increasing order; the
    values sum to betti_number(g, d).  When the generators permute, each
    ranked weight's b is spread over its S_r orbit.  The table is built
    anew on each call from the memoized blocks.
    """
    table = _ranked_table(g, d)
    if _permutes_generators(g):
        table = {image: b for w, b in table.items() for image in orbit(w)}
    return dict(sorted(table.items()))


def _ranked_table(g: GradedLieAlgebra, d: int, every_block: bool = False) -> dict[Weight, int]:
    """Degree d's nonzero homology at the weights whose blocks are ranked.

    Every degree is read off the weight blocks by one formula,
    b_d(w) = c_d(w) - r_d(w) - r_{d+1}(w), with c_k the number of k-wedges
    of weight w and r_k the rank of the degree-k boundary on them.  For a
    unimodular algebra Poincare duality pairs weight w with total - w (see
    _duality): a count c_k with 2k > dim is c_{dim-k} at the dual weight,
    and a rank r_k with 2k > dim + 1 is r_{dim+1-k} there, since that
    boundary is the transpose of this one.  So a lower degree ranks d and
    d + 1, an upper degree dim - d and dim + 1 - d, and the even middle
    dim/2 alone.

    Pruning rule: the degree whose counts are read is ranked whole, and the
    other degree only at the weights that carry those counts, mapped by
    _duality when the rank is read off the dual degree; no other rank
    enters b_d.  With ``every_block``, as betti_numbers reads each degree
    in turn, both are ranked whole, so no degree is ranked in two parts.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    if d > g.dim:
        return {}
    dual = _duality(g)

    def read(k: int, i: int, weights: AbstractSet[Weight] | None = None) -> dict[Weight, int]:
        # degree k's counts (i = 0) or ranks (i = 1) by weight, at least at ``weights``;
        # the counts come first, so the wedge limit of C(dim, d) = C(dim, dim - d) is
        # checked before any rank
        if dual and 2 * k > g.dim + i:
            wanted = None if weights is None else {dual(w) for w in weights}
            return {dual(w): block[i] for w, block in _blocks(g, g.dim + i - k, wanted).items()}
        return {w: block[i] for w, block in _blocks(g, k, weights).items()}

    counts = read(d, 0)
    weights = None if every_block else set(counts)
    ranks, ranks_up = read(d, 1, weights), read(d + 1, 1, weights)
    return {w: b for w, count in counts.items() if (b := count - ranks.get(w, 0) - ranks_up.get(w, 0))}


def lower_central_series_dims(g: GradedLieAlgebra) -> list[int]:
    """Dimensions of the lower central series, ending with the first zero term."""
    dims = [g.dim]
    current: list[dict[int, Fraction]] = [
        {i: Fraction(1)} for i in range(g.dim)
    ]
    while dims[-1] > 0:
        if len(dims) > g.dim + 1:
            raise ValueError("algebra is not nilpotent")
        produced: list[dict[int, Fraction]] = []
        for i, (_, row) in enumerate(g._partners):
            for v in current:
                w: dict[int, Fraction] = {}
                for k, q in v.items():  # S [e_i, e_k] = sign(k - i) row[k]; S changes no span
                    _add_scaled(w, row.get(k, {}), q if k > i else -q)
                if w:
                    produced.append(w)
        if not produced:
            dims.append(0)
            break
        matrix = RationalMatrix._computed(
            len(produced),
            g.dim,
            {(r, k): q for r, vec in enumerate(produced) for k, q in vec.items()},
        )
        span = row_space_basis(matrix)
        dims.append(len(span))
        current = [
            {k: q for k, q in enumerate(vec) if q} for vec in span
        ]
    return dims


def nilpotency_class(g: GradedLieAlgebra) -> int:
    """Number of nonzero terms in the lower central series."""
    return sum(1 for d in lower_central_series_dims(g) if d)
