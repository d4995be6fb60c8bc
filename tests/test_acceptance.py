"""Acceptance suite: every exit criterion, exact arithmetic, one report line each.

The invariants come from ``nilhom.invariants``, which ``nilhom selftest``
runs on smaller cases; this suite adds only the checks selftest never makes.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines; each criterion asserts after printing its verdict.
"""

import json

from nilhom import invariants
from nilhom.aut import ia_basis_pairs, ia_lie_algebra
from nilhom.cli import main as cli_main
from nilhom.exact_linalg import RationalMatrix, nullspace_basis, rank
from nilhom.free_lie import hall_basis, witt_dimension
from nilhom.lie_homology import free_nilpotent_lie
from nilhom.nilgroup import center_basis, group_generator, inner_action
from test_lie_homology import ce_boundary


def _report(number, name, *checks):
    """Print the verdict of (ok, detail) pairs and fail on the first false one."""
    failed = [detail for ok, detail in checks if not ok]
    print(f"[ACCEPTANCE] {number:02d} {name}: {'FAIL' if failed else 'PASS'}")
    assert not failed, f"acceptance criterion {number} ({name}) failed: {failed}"


def test_criterion_01_witt_lyndon_agreement():
    _report(1, "Witt dimensions match brute-force Lyndon counts (r<=4, n<=6)",
            invariants.witt_lyndon(4, 6))


def test_criterion_02_group_law():
    _report(2, "BCH group law: associativity, units, inverses, commutator coordinate",
            invariants.bch_group_law(((2, 2), (2, 3), (3, 2), (2, 4), (2, 5), (3, 4)), 100, 987654321, 3),
            invariants.bch_commutator((2, 3, 4)),
            invariants.bch_commutator((2,), rank=3))


def test_criterion_03_lower_central_series():
    _report(3, "lower central series ranks equal Witt dimensions",
            invariants.lcs(((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (2, 5))))


def _ad_linearization(r, c):
    """Matrix of u -> ad(u) flattened over (target, argument) pairs."""
    g = free_nilpotent_lie(r, c)
    entries = {}
    for (i, j), vec in g.brackets.items():
        for k, q in vec.items():
            # row (j, k) of column i, and the antisymmetric partner
            entries[(j * g.dim + k, i)] = q
            entries[(i * g.dim + k, j)] = -q
    return RationalMatrix(g.dim * g.dim, g.dim, entries)


def test_criterion_04_center_and_inner():
    cases = ((2, 2), (2, 3), (3, 2))
    ok = True
    for r, c in cases:
        basis = hall_basis(r, c)
        top = set(basis.elements_of_degree(c))
        vectors = center_basis(r, c)
        span = RationalMatrix(
            len(vectors),
            len(basis.elements),
            {
                (i, basis.index[w]): q
                for i, v in enumerate(vectors)
                for w, q in v.coords.items()
            },
        )
        if rank(span) != len(top):
            ok = False
        # kernel of the adjoint-linearization is the same span
        kernel = nullspace_basis(_ad_linearization(r, c))
        if len(kernel) != len(top):
            ok = False
        for vec in kernel:
            support = {basis.elements[k] for k, q in enumerate(vec) if q}
            if not support <= top:
                ok = False
        # the group-level statement: conjugation is trivial exactly on the span
        for v in vectors:
            if not inner_action(v).is_identity:
                ok = False
        for i in range(1, r + 1):
            if inner_action(group_generator(basis, i)).is_identity:
                ok = False
    _report(4, "center equals the top-degree layer and is ker(inner action)",
            invariants.center(cases),
            (ok, "rank, ad-kernel or inner action"))


def test_criterion_05_nilmanifold_homology():
    cases = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (3, 3), (5, 2))
    ok = True
    for r, c in cases:
        g = free_nilpotent_lie(r, c)
        assert g.dim <= 21
        lower = ce_boundary(g, 1)
        for d in range(2, g.dim + 1):
            upper = ce_boundary(g, d)
            if not (lower @ upper).is_zero:
                ok = False
            lower = upper
    _report(5, "nilmanifold homology: boundary^2=0, b0, b1, duality, Euler",
            (ok, "boundary^2 != 0"),
            invariants.betti_heisenberg(),
            invariants.betti_symmetry(cases))


def test_criterion_06_polynomial_degree_bound():
    _report(6, "Betti sequences in the rank have degree at most class*degree",
            *(invariants.degree_bound(c, d, 5) for c, d in ((2, 1), (2, 2), (3, 1))))


def test_criterion_07_dynkin_retract():
    _report(7, "bracketing retract is the identity on the Lie subspace (b<=4, r<=3)",
            invariants.dynkin_retract(((1, 4), (2, 4), (3, 4))))


def test_criterion_08_ia_structure_ledger():
    cases = [(r, c) for r in (1, 2, 3) for c in (1, 2, 3, 4)]
    ok = True
    for r, c in cases:
        if c >= 2:
            g = ia_lie_algebra(r, c)
            pairs = ia_basis_pairs(r, c)
            top = {n for n, (i, w) in enumerate(pairs) if len(w) == c}
            if len(top) != r * witt_dimension(r, c):
                ok = False
            for (a, b) in g.brackets:
                if a in top or b in top:
                    ok = False
    _report(8, "derivation algebra ledger: dimensions, nilpotency, central top layer",
            invariants.ia_ledger(cases),
            (ok, "top layer not central"))


def test_criterion_09_direct_summand_check():
    _report(9, "IA homology weights sit inside the exterior-power bound",
            invariants.summand(2, 3, ranks=(2, 3)),
            invariants.summand(3, 2))


def test_criterion_10_coinvariants():
    _report(10, "coinvariants vanish for reduced functors and count constants",
            invariants.coinvariants(("std", "wedge(2, std)", "lie(2)", "hom(std, lie(2))"),
                                    (2, 3), (1, 2, 5)))


def test_criterion_11_cross_module_consistency():
    samples = {
        2: [[[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [1, 1]], [[-1, 0], [0, 1]]],
        3: [
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
            [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
        ],
    }
    _report(11, "conjugation on derivations matches the functorial Hom action",
            invariants.conjugation_consistency(samples, (2, 3)))


def test_criterion_12_reproducibility(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("NILHOM_CACHE_DIR", raising=False)
    outputs = []
    # cold cache, warm cache, no cache
    for flags in (["--cache-dir", str(tmp_path)],) * 2 + (["--no-cache"],):
        code = cli_main(["selftest"] + flags)
        outputs.append((code, capsys.readouterr().out))
    ok = all(code == 0 for code, _ in outputs)
    ok = ok and outputs[0][1] == outputs[1][1] == outputs[2][1]
    ok = ok and all(
        json.loads(line)["result"]["status"] == "pass"
        for line in outputs[0][1].splitlines()
    )
    _report(12, "selftest output byte-identical across cold, warm, and no cache", (ok, None))
