"""Invariants the package's results must satisfy, each held once.

Every check is a function of its cases that returns ``(ok, detail)``:
on failure ``detail`` names the failing case, on success it summarizes
what was checked.  ``nilhom selftest`` runs them on small cases and the
acceptance suite on larger ones.  The layers are called through their
module attributes, so whatever wraps those attributes sees these calls.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from . import aut, exact_linalg, lie_homology, nilgroup, rep
from .free_lie import LieElement, dynkin, expand_to_tensor, hall_basis, witt_dimension

__all__ = [
    "bch_commutator",
    "bch_group_law",
    "betti_heisenberg",
    "betti_over_ranks",
    "betti_symmetry",
    "brute_lyndon_words",
    "center",
    "coinvariants",
    "conjugation_consistency",
    "degree_bound",
    "dynkin_failures",
    "dynkin_retract",
    "ia_ledger",
    "lcs",
    "spans_top_degree",
    "summand",
    "summand_payload",
    "witt_lyndon",
]


def brute_lyndon_words(r: int, n: int) -> list[tuple[int, ...]]:
    """All length-n Lyndon words over 1..r, by the rotation definition on every word."""
    return [
        w
        for w in product(range(1, r + 1), repeat=n)
        if all(w < w[i:] + w[:i] for i in range(1, n))
    ]


def betti_over_ranks(cls: int, degree: int, max_rank: int) -> list[int]:
    """b_degree of the free nilpotent Lie algebra of class cls at ranks 0..max_rank."""
    return [
        lie_homology.betti_number(lie_homology.free_nilpotent_lie(r, cls), degree)
        for r in range(max_rank + 1)
    ]


def spans_top_degree(basis, vectors, cls: int) -> bool:
    """Whether the vectors are as many as, and supported on, the degree-cls words."""
    top = set(basis.elements_of_degree(cls))
    return len(vectors) == len(top) and all(set(v.coords) <= top for v in vectors)


def dynkin_failures(basis) -> list[str]:
    """Labels of the basis words the Dynkin bracketing retract does not fix."""
    failures = []
    for w in basis.elements:
        element = LieElement(basis, {w: 1})
        if dynkin(expand_to_tensor(element), basis) != element:
            failures.append(basis.label(w))
    return failures


def summand_payload(r: int, c: int, q: int) -> dict:
    """IA homology weights in degree q against Λ^q Hom(H, L_{2..c}).

    Equality at class 2, and at class 1, where L_{2..1} is zero and so is
    the algebra; weight dominance at higher class, refined by the Schur
    decomposition at rank 2.
    """
    _, ia_weights = aut.ia_betti(r, c, q)
    ia_module = rep.WeightModule(r, ia_weights)
    layers = rep.lie_interval(2, c) if c >= 2 else rep.Const(0)
    bound = rep.evaluate(rep.Wedge(q, rep.HomStd(layers)), r)
    result: dict = {"rank": r, "cls": c, "degree": q}
    if c <= 2:
        result["mode"] = "equality"
        result["holds"] = ia_module == bound
    else:
        report = rep.weight_dominance_compare(ia_module, bound)
        result["mode"] = "dominance"
        result["holds"] = report.holds
        result["violations"] = [
            [list(w), a, b] for w, a, b in report.violations
        ]
        if r == 2:
            ia_schur = rep.schur_decompose_gl2(ia_module)
            bound_schur = rep.schur_decompose_gl2(bound)
            ok = all(ia_schur[w] <= bound_schur.get(w, 0) for w in ia_schur)
            result["schur_holds"] = ok
            result["schur_ia"] = [[list(w), mult] for w, mult in sorted(ia_schur.items())]
            result["schur_bound"] = [[list(w), mult] for w, mult in sorted(bound_schur.items())]
            result["holds"] = result["holds"] and ok
    return result


# ---------------------------------------------------------------------------
# the invariants


def witt_lyndon(max_rank: int, max_degree: int):
    """Witt's dimension formula equals a brute-force Lyndon word count."""
    for r in range(1, max_rank + 1):
        for n in range(1, max_degree + 1):
            if witt_dimension(r, n) != len(brute_lyndon_words(r, n)):
                return False, {"rank": r, "degree": n}
    return True, {"max_rank": max_rank, "max_degree": max_degree}


def bch_group_law(shapes, samples: int, seed: int, bound: int):
    """Associativity, two-sided unit and inverses on seeded random elements.

    Coordinates are n/d with |n| <= bound and 1 <= d <= 3.
    """
    rng = random.Random(seed)
    cases = 0
    for r, c in shapes:
        basis = hall_basis(r, c)
        identity = nilgroup.group_identity(basis)
        for _ in range(samples):
            u, v, w = (
                nilgroup.malcev_element(
                    basis,
                    {
                        word: Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                        for word in basis.elements
                    },
                )
                for _ in range(3)
            )
            uv = nilgroup.multiply(u, v)
            if nilgroup.multiply(uv, w) != nilgroup.multiply(u, nilgroup.multiply(v, w)):
                return False, {"rank": r, "cls": c, "law": "associativity"}
            if nilgroup.multiply(u, identity) != u or nilgroup.multiply(identity, u) != u:
                return False, {"rank": r, "cls": c, "law": "unit"}
            if not nilgroup.multiply(u, nilgroup.inverse(u)).is_identity:
                return False, {"rank": r, "cls": c, "law": "inverse"}
            cases += 1
    return True, {"triples": cases}


def bch_commutator(classes, rank: int = 2):
    """The group commutator of the first two generators has coordinate 1 on [x1, x2]."""
    for c in classes:
        basis = hall_basis(rank, c)
        x1 = nilgroup.group_generator(basis, 1)
        x2 = nilgroup.group_generator(basis, 2)
        if nilgroup.group_commutator(x1, x2).coords.get((1, 2)) != 1:
            return False, {"cls": c}
    return True, {"classes": list(classes)}


def lcs(cases):
    """Lower central series ranks of the free nilpotent group equal Witt dimensions."""
    for r, c in cases:
        if nilgroup.lcs_ranks(r, c) != [witt_dimension(r, n) for n in range(1, c + 1)]:
            return False, {"rank": r, "cls": c}
    return True, {"cases": [list(case) for case in cases]}


def center(cases):
    """The center of the free nilpotent group is its top-degree layer."""
    for r, c in cases:
        if not spans_top_degree(hall_basis(r, c), nilgroup.center_basis(r, c), c):
            return False, {"rank": r, "cls": c}
    return True, {"cases": [list(case) for case in cases]}


def betti_heisenberg():
    """The Heisenberg nilmanifold has Betti numbers 1, 2, 2, 1."""
    value = lie_homology.group_betti(2, 2)
    return value == [1, 2, 2, 1], {"betti": value}


def betti_symmetry(cases):
    """b0 = 1, b1 = rank, Poincaré duality and Euler characteristic 0."""
    for r, c in cases:
        b = lie_homology.group_betti(r, c)
        m = len(b) - 1
        if (
            b[0] != 1
            or b[1] != r
            or any(b[d] != b[m - d] for d in range(m + 1))
            or sum((-1) ** d * v for d, v in enumerate(b)) != 0
        ):
            return False, {"rank": r, "cls": c, "betti": b}
    return True, {"cases": [list(case) for case in cases]}


def dynkin_retract(cases):
    """The Dynkin bracketing retract fixes every Hall basis element."""
    for r, b in cases:
        failures = dynkin_failures(hall_basis(r, b))
        if failures:
            return False, {"rank": r, "word": failures[0]}
    return True, {"cases": [list(case) for case in cases]}


def ia_ledger(cases):
    """The IA derivation algebra has dimension r·Σ_{2..c} witt and class below c."""
    for r, c in cases:
        g = aut.ia_lie_algebra(r, c)
        if g.dim != r * sum(witt_dimension(r, b) for b in range(2, c + 1)):
            return False, {"rank": r, "cls": c, "dim": g.dim}
        if lie_homology.nilpotency_class(g) > max(c - 1, 0):
            return False, {"rank": r, "cls": c, "reason": "nilpotency"}
    return True, {"cases": [list(case) for case in cases]}


def summand(cls: int, max_degree: int, ranks=None):
    """``summand_payload`` holds in degrees 0..max_degree, at each of ranks or at rank 2.

    The rank appears in the detail only when ranks are given.
    """
    for r in ranks or (2,):
        for q in range(max_degree + 1):
            if not summand_payload(r, cls, q)["holds"]:
                return False, ({"rank": r} if ranks else {}) | {"degree": q}
    return True, ({"ranks": list(ranks)} if ranks else {}) | {"max_degree": max_degree}


def coinvariants(exprs, ranks, constants):
    """Reduced functors have no GL(Z)-coinvariants; const(k) has k of them."""
    for text in exprs:
        for r in ranks:
            if rep.coinvariants_dim(rep.parse_expr(text), r) != 0:
                return False, {"expr": text, "rank": r}
    for k in constants:
        for r in ranks:
            if rep.coinvariants_dim(rep.Const(k), r) != k:
                return False, {"expr": f"const({k})", "rank": r}
    return True, {"exprs": list(exprs)}


def _conjugation_by_definition(mats, r: int, c: int) -> list:
    """For each matrix, A·D·A⁻¹ on the basis derivations D of IA(r, c), in the pair basis.

    A is the induced automorphism; column (i, w) holds the conjugate of the
    derivation sending generator i to w, read back through its generator images.
    """
    algebra = lie_homology.free_nilpotent_lie(r, c)
    basis = algebra.hall
    pairs = aut.ia_basis_pairs(r, c)
    pair_index = {pair: n for n, pair in enumerate(pairs)}
    derivations = [aut.derivation_from_images(algebra, {i: LieElement(basis, {w: 1})}).matrix
                   for i, w in pairs]
    out = []
    for mat in mats:
        auto = aut.automorphism_from_gl(mat, c).matrix
        auto_inv = exact_linalg.invert(auto)
        entries = {}
        for col, der in enumerate(derivations):
            images = (auto @ der @ auto_inv).columns()
            for k in range(r):
                for row, q in images[k].items():
                    entries[(pair_index[(k, basis.elements[row])], col)] = q
        out.append(exact_linalg.RationalMatrix._computed(len(pairs), len(pairs), entries))
    return out


def conjugation_consistency(samples, classes):
    """GL conjugation on IA derivations, A·D·A⁻¹, equals the action on Hom(std, lie[2..c]).

    ``samples`` maps a rank to unimodular matrices of that size.
    """
    for r, mats in samples.items():
        for c in classes:
            reference = _conjugation_by_definition(mats, r, c)
            for mat, want in zip(mats, reference):
                if aut.gl_conjugation_on_ia(mat, r, c) != want:
                    return False, {"rank": r, "cls": c}
    return True, {"ranks": list(samples), "classes": list(classes)}


def degree_bound(cls: int, degree: int, max_rank: int):
    """b_degree at class cls is a polynomial in the rank of degree <= cls·degree."""
    dims = betti_over_ranks(cls, degree, max_rank)
    estimate, _ = rep.degree_estimate(dims)
    return estimate <= cls * degree, {"dims": dims, "estimate": estimate}
