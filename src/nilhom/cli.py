"""Command-line front end.

Every computation is exposed as a subcommand that emits one structured
JSON record per result line on stdout (CSV is available as an
alternative), with diagnostics on stderr.  Exit codes: 0 success, 1
computation error, 2 usage error.

Records carry command, params, result, elapsed_ms and schema_version.
elapsed_ms is null unless --timings is given, so identical invocations
produce byte-identical output, warm or cold cache.  The cache directory
defaults to .nilhom-cache and the NILHOM_CACHE_DIR environment variable
overrides the flag.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
import time
from fractions import Fraction

from . import aut, lie_homology, nilgroup, rep
from .cache import Cache, SCHEMA_VERSION, canonical_json
from .free_lie import LieElement, dynkin, expand_to_tensor, hall_basis, witt_dimension

__all__ = ["main", "run"]


def _check_label_rank(rank: int) -> None:
    # word labels spell one digit per generator, so they are unique up to rank 9
    if rank > 9:
        raise ValueError(f"rank {rank} is above 9: words are written one digit per generator")


def _parse_coords(basis, text: str) -> "nilgroup.MalcevElement":
    coords = {}
    text = text.strip()
    if text:
        for item in text.split(","):
            word_part, _, value_part = item.partition(":")
            word = tuple(int(ch) for ch in word_part.strip())
            if word in coords:
                raise ValueError(f"word {word_part.strip()} is given more than once")
            coords[word] = Fraction(value_part.strip() or "1")
    return nilgroup.malcev_element(basis, coords)


def _coords_payload(element) -> list[list[str]]:
    basis = element.basis
    return [
        [basis.label(w), str(element.coords[w])]
        for w in basis.elements
        if w in element.coords
    ]


def _weights_payload(weights: dict) -> list[list]:
    return [[list(w), mult] for w, mult in sorted(weights.items())]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a list of (params, result) pairs


def _cmd_witt(args, cache):
    params = {"rank": args.rank, "max_degree": args.max_degree}
    dims = [witt_dimension(args.rank, n) for n in range(1, args.max_degree + 1)]
    return [(params, {"dims": dims})]


def _cmd_hall(args, cache):
    params = {"rank": args.rank, "cls": args.cls}
    _check_label_rank(args.rank)
    basis = hall_basis(args.rank, args.cls)
    words = [basis.label(w) for w in basis.elements]
    sizes = [len(basis.elements_of_degree(n)) for n in range(1, args.cls + 1)]
    result = {
        "words": words,
        "degree_sizes": sizes,
        "degree_offsets": list(basis.degree_start[1 : args.cls + 2]),
    }
    return [(params, result)]


def _cmd_bch(args, cache):
    params = {"rank": args.rank, "cls": args.cls, "u": args.u, "v": args.v}
    _check_label_rank(args.rank)
    basis = hall_basis(args.rank, args.cls)
    product = nilgroup.multiply(_parse_coords(basis, args.u), _parse_coords(basis, args.v))
    return [(params, {"coords": _coords_payload(product)})]


def _cmd_lcs_ranks(args, cache):
    params = {"rank": args.rank, "cls": args.cls}
    ranks = nilgroup.lcs_ranks(args.rank, args.cls)
    witt = [witt_dimension(args.rank, n) for n in range(1, args.cls + 1)]
    return [(params, {"ranks": ranks, "witt": witt, "match": ranks == witt})]


def _cmd_center(args, cache):
    params = {"rank": args.rank, "cls": args.cls}
    _check_label_rank(args.rank)
    basis = hall_basis(args.rank, args.cls)
    vectors = nilgroup.center_basis(args.rank, args.cls)
    degree_c = set(basis.elements_of_degree(args.cls))
    spans_top = all(set(v.coords) <= degree_c for v in vectors) and len(vectors) == len(degree_c)
    result = {
        "dimension": len(vectors),
        "basis": [_coords_payload(v) for v in vectors],
        "spans_top_degree": spans_top,
    }
    return [(params, result)]


def _algebra(target: str, r: int, c: int) -> "lie_homology.GradedLieAlgebra":
    if target == "ia":
        return aut.ia_lie_algebra(r, c)
    return lie_homology.free_nilpotent_lie(r, c)


def _betti_payload(target: str, r: int, c: int, degree) -> dict:
    g = _algebra(target, r, c)
    if degree is None:
        return {"betti": lie_homology.betti_numbers(g)}
    return {"degree": degree, "betti": lie_homology.betti_number(g, degree)}


def _cmd_betti(args, cache):
    params = {"target": args.target, "rank": args.rank, "cls": args.cls, "degree": args.degree}
    cached = cache.get("betti", params)
    if cached is None:
        cached = _betti_payload(args.target, args.rank, args.cls, args.degree)
        cache.put("betti", params, cached)
    return [(params, cached)]


def _cmd_weighted_betti(args, cache):
    params = {"target": args.target, "rank": args.rank, "cls": args.cls, "degree": args.degree}
    cached = cache.get("weighted-betti", params)
    if cached is None:
        g = _algebra(args.target, args.rank, args.cls)
        weights = lie_homology.weighted_betti(g, args.degree)
        cached = {"degree": args.degree, "weights": _weights_payload(weights)}
        cache.put("weighted-betti", params, cached)
    return [(params, cached)]


def _cmd_dynkin_check(args, cache):
    params = {"rank": args.rank, "max_degree": args.max_degree}
    failures = []
    checked = 0
    basis = hall_basis(args.rank, args.max_degree)
    for w in basis.elements:
        element = LieElement(basis, {w: 1})
        checked += 1
        if dynkin(expand_to_tensor(element), basis) != element:
            failures.append(basis.label(w))
    return [(params, {"checked": checked, "failures": failures})]


def _summand_payload(r: int, c: int, q: int) -> dict:
    _, ia_weights = aut.ia_betti(r, c, q)
    ia_module = rep.WeightModule(r, ia_weights)
    bound = rep.evaluate(rep.Wedge(q, rep.HomStd(rep.lie_interval(2, c))), r)
    result: dict = {"rank": r, "cls": c, "degree": q}
    if c == 2:
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


def _cmd_summand_check(args, cache):
    params = {"rank": args.rank, "cls": args.cls, "degree": args.degree}
    return [(params, _summand_payload(args.rank, args.cls, args.degree))]


def _cmd_coinv(args, cache):
    params = {"expr": args.expr, "rank": args.rank}
    expr = rep.parse_expr(args.expr)
    return [(params, {"dim": rep.coinvariants_dim(expr, args.rank)})]


def _cmd_degree_check(args, cache):
    params = {"cls": args.cls, "degree": args.degree, "max_rank": args.max_rank}
    cached = cache.get("degree-check", params)
    if cached is None:
        dims = []
        for r in range(args.max_rank + 1):
            g = lie_homology.free_nilpotent_lie(r, args.cls)
            dims.append(
                lie_homology.betti_number(g, args.degree) if args.degree <= g.dim else 0
            )
        estimate, sufficient = rep.degree_estimate(dims)
        bound = args.cls * args.degree
        cached = {
            "dims": dims,
            "estimate": estimate,
            "bound": bound,
            "within_bound": estimate <= bound,
            "window_sufficient": sufficient,
        }
        cache.put("degree-check", params, cached)
    return [(params, cached)]


# ---------------------------------------------------------------------------
# selftest


def _brute_lyndon_count(r: int, n: int) -> int:
    count = 0
    words = [[]]
    for _ in range(n):
        words = [w + [a] for w in words for a in range(1, r + 1)]
    for w in words:
        t = tuple(w)
        if all(t < t[i:] + t[:i] for i in range(1, n)):
            count += 1
    return count


def _selftest_checks(cache):
    def witt_lyndon():
        for r in range(1, 4):
            for n in range(1, 6):
                if witt_dimension(r, n) != _brute_lyndon_count(r, n):
                    return False, {"rank": r, "degree": n}
        return True, {"max_rank": 3, "max_degree": 5}

    def bch_group_law():
        import random

        rng = random.Random(20240601)
        cases = 0
        for r, c in ((2, 2), (2, 3)):
            basis = hall_basis(r, c)
            identity = nilgroup.group_identity(basis)
            for _ in range(5):
                u, v, w = (
                    nilgroup.malcev_element(
                        basis,
                        {
                            word: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
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

    def bch_commutator():
        for c in (2, 3):
            basis = hall_basis(2, c)
            x1 = nilgroup.group_generator(basis, 1)
            x2 = nilgroup.group_generator(basis, 2)
            if nilgroup.group_commutator(x1, x2).coords.get((1, 2)) != 1:
                return False, {"cls": c}
        return True, {"classes": [2, 3]}

    def lcs():
        for r, c in ((2, 3), (3, 2)):
            expected = [witt_dimension(r, n) for n in range(1, c + 1)]
            if nilgroup.lcs_ranks(r, c) != expected:
                return False, {"rank": r, "cls": c}
        return True, {"cases": [[2, 3], [3, 2]]}

    def center():
        for r, c in ((2, 2), (3, 2), (2, 3)):
            basis = hall_basis(r, c)
            vectors = nilgroup.center_basis(r, c)
            top = set(basis.elements_of_degree(c))
            if len(vectors) != len(top) or not all(set(v.coords) <= top for v in vectors):
                return False, {"rank": r, "cls": c}
        return True, {"cases": [[2, 2], [3, 2], [2, 3]]}

    def betti_heisenberg():
        value = lie_homology.group_betti(2, 2)
        return value == [1, 2, 2, 1], {"betti": value}

    def betti_symmetry():
        for r, c in ((3, 2), (2, 4)):
            b = lie_homology.group_betti(r, c)
            m = len(b) - 1
            if b[0] != 1 or b[1] != r:
                return False, {"rank": r, "cls": c, "betti": b}
            if any(b[d] != b[m - d] for d in range(m + 1)):
                return False, {"rank": r, "cls": c, "betti": b}
            if sum((-1) ** d * v for d, v in enumerate(b)) != 0:
                return False, {"rank": r, "cls": c, "betti": b}
        return True, {"cases": [[3, 2], [2, 4]]}

    def dynkin_retract():
        for r, b in ((2, 4), (3, 3)):
            basis = hall_basis(r, b)
            for w in basis.elements:
                element = LieElement(basis, {w: 1})
                if dynkin(expand_to_tensor(element), basis) != element:
                    return False, {"rank": r, "word": basis.label(w)}
        return True, {"cases": [[2, 4], [3, 3]]}

    def ia_ledger():
        for r, c in ((2, 3), (3, 2), (2, 4)):
            g = aut.ia_lie_algebra(r, c)
            expected = r * sum(witt_dimension(r, b) for b in range(2, c + 1))
            if g.dim != expected:
                return False, {"rank": r, "cls": c, "dim": g.dim}
            if lie_homology.nilpotency_class(g) > c - 1:
                return False, {"rank": r, "cls": c, "reason": "nilpotency"}
        return True, {"cases": [[2, 3], [3, 2], [2, 4]]}

    def summand_c2():
        for r in (2, 3):
            for q in range(3):
                if not _summand_payload(r, 2, q)["holds"]:
                    return False, {"rank": r, "degree": q}
        return True, {"ranks": [2, 3], "max_degree": 2}

    def summand_2_3():
        for q in range(3):
            if not _summand_payload(2, 3, q)["holds"]:
                return False, {"degree": q}
        return True, {"max_degree": 2}

    def coinvariants():
        exprs = ["std", "wedge(2, std)", "lie(2)", "hom(std, lie(2))"]
        for text in exprs:
            for r in (2, 3):
                if rep.coinvariants_dim(rep.parse_expr(text), r) != 0:
                    return False, {"expr": text, "rank": r}
        if rep.coinvariants_dim(rep.Const(3), 2) != 3:
            return False, {"expr": "const(3)"}
        return True, {"exprs": exprs}

    def conjugation_consistency():
        samples = {
            2: [((0, 1), (1, 0)), ((1, 1), (0, 1)), ((-1, 0), (0, 1))],
            3: [((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((1, 0, 0), (0, 1, 1), (0, 0, 1))],
        }
        for r, mats in samples.items():
            for c in (2, 3):
                expr = rep.HomStd(rep.lie_interval(2, c))
                for mat in mats:
                    lhs = aut.gl_conjugation_on_ia(mat, r, c)
                    rhs = rep.action_matrix(expr, mat, r)
                    if lhs != rhs:
                        return False, {"rank": r, "cls": c}
        return True, {"ranks": [2, 3], "classes": [2, 3]}

    def degree_bound():
        dims = []
        for r in range(5):
            g = lie_homology.free_nilpotent_lie(r, 2)
            dims.append(lie_homology.betti_number(g, 1) if g.dim >= 1 else 0)
        estimate, _ = rep.degree_estimate(dims)
        return estimate <= 2, {"dims": dims, "estimate": estimate}

    def betti_cache():
        # exercised through the same key space as the betti subcommand: a
        # warm cache must agree with the fresh computation byte for byte
        payload = _betti_payload("group", 2, 3, None)
        params = {"target": "group", "rank": 2, "cls": 3, "degree": None}
        cached = cache.get("betti", params)
        if cached is not None and cached != payload:
            return False, {"reason": "cache disagrees with recomputation"}
        cache.put("betti", params, payload)
        return True, payload

    return [
        ("witt_lyndon", witt_lyndon),
        ("bch_group_law", bch_group_law),
        ("bch_commutator", bch_commutator),
        ("lcs_ranks", lcs),
        ("center", center),
        ("betti_heisenberg", betti_heisenberg),
        ("betti_symmetry", betti_symmetry),
        ("dynkin_retract", dynkin_retract),
        ("ia_ledger", ia_ledger),
        ("summand_c2", summand_c2),
        ("summand_2_3", summand_2_3),
        ("coinvariants", coinvariants),
        ("conjugation_consistency", conjugation_consistency),
        ("degree_bound", degree_bound),
        ("betti_cache", betti_cache),
    ]


def _cmd_selftest(args, cache):
    records = []
    for name, check in _selftest_checks(cache):
        ok, detail = check()
        records.append(
            ({"check": name}, {"check": name, "status": "pass" if ok else "fail", "detail": detail})
        )
    return records


# ---------------------------------------------------------------------------
# output


_CSV_HEADERS = {
    "witt": ("rank", "degree", "dimension"),
    "hall": ("rank", "class", "degree", "word"),
    "bch": ("rank", "class", "word", "coefficient"),
    "lcs-ranks": ("rank", "class", "degree", "rank_value"),
    "center": ("rank", "class", "vector", "word", "coefficient"),
    "betti": ("target", "rank", "class", "degree", "betti"),
    "weighted-betti": ("target", "rank", "class", "degree", "weight", "multiplicity"),
    "dynkin-check": ("rank", "max_degree", "checked", "failures"),
    "summand-check": ("rank", "class", "degree", "mode", "holds"),
    "coinv": ("expr", "rank", "dim"),
    "degree-check": ("class", "degree", "max_rank", "estimate", "bound", "within_bound"),
    "selftest": ("check", "status"),
}


def _csv_rows(command: str, params: dict, result: dict):
    if command == "witt":
        return [
            (params["rank"], n + 1, dim) for n, dim in enumerate(result["dims"])
        ]
    if command == "hall":
        return [
            (params["rank"], params["cls"], len(word), word) for word in result["words"]
        ]
    if command == "bch":
        return [
            (params["rank"], params["cls"], word, value) for word, value in result["coords"]
        ]
    if command == "lcs-ranks":
        return [
            (params["rank"], params["cls"], n + 1, value)
            for n, value in enumerate(result["ranks"])
        ]
    if command == "center":
        return [
            (params["rank"], params["cls"], idx, word, value)
            for idx, vector in enumerate(result["basis"])
            for word, value in vector
        ]
    if command == "betti":
        if "degree" in result:
            return [
                (params["target"], params["rank"], params["cls"], result["degree"], result["betti"])
            ]
        return [
            (params["target"], params["rank"], params["cls"], d, b)
            for d, b in enumerate(result["betti"])
        ]
    if command == "weighted-betti":
        return [
            (
                params["target"],
                params["rank"],
                params["cls"],
                result["degree"],
                "|".join(str(v) for v in weight),
                mult,
            )
            for weight, mult in result["weights"]
        ]
    if command == "dynkin-check":
        return [
            (
                params["rank"],
                params["max_degree"],
                result["checked"],
                ";".join(result["failures"]),
            )
        ]
    if command == "summand-check":
        return [
            (params["rank"], params["cls"], params["degree"], result["mode"], result["holds"])
        ]
    if command == "coinv":
        return [(params["expr"], params["rank"], result["dim"])]
    if command == "degree-check":
        return [
            (
                params["cls"],
                params["degree"],
                params["max_rank"],
                result["estimate"],
                result["bound"],
                result["within_bound"],
            )
        ]
    if command == "selftest":
        return [(result["check"], result["status"])]
    raise ValueError(f"no CSV layout for {command}")


def _emit(args, records_with_timing) -> None:
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_CSV_HEADERS[args.command])
        for params, result, _elapsed in records_with_timing:
            for row in _csv_rows(args.command, params, result):
                writer.writerow(row)
        sys.stdout.write(buffer.getvalue())
        return
    for params, result, elapsed in records_with_timing:
        record = {
            "command": args.command,
            "params": params,
            "result": result,
            "elapsed_ms": elapsed if args.timings else None,
            "schema_version": SCHEMA_VERSION,
        }
        sys.stdout.write(canonical_json(record) + "\n")


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=".nilhom-cache")
    common.add_argument("--no-cache", action="store_true")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--timings", action="store_true", help="report real elapsed_ms")

    parser = argparse.ArgumentParser(
        prog="nilhom",
        description="exact computations on free nilpotent groups and their symmetries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def rank_arg(p, required=True):
        p.add_argument("-r", "--rank", type=int, required=required)

    def cls_arg(p, required=True):
        p.add_argument("-c", "--class", dest="cls", type=int, required=required)

    p = sub.add_parser("witt", parents=[common], help="dimensions of the free Lie algebra layers")
    rank_arg(p)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("hall", parents=[common], help="the Lyndon-word basis")
    rank_arg(p)
    cls_arg(p)

    p = sub.add_parser("bch", parents=[common], help="group product in logarithmic coordinates")
    rank_arg(p)
    cls_arg(p)
    p.add_argument("--u", required=True, help='coordinates like "1:1,12:1/2"')
    p.add_argument("--v", required=True)

    p = sub.add_parser("lcs-ranks", parents=[common], help="lower central series ranks")
    rank_arg(p)
    cls_arg(p)

    p = sub.add_parser("center", parents=[common], help="basis of the center")
    rank_arg(p)
    cls_arg(p)

    p = sub.add_parser("betti", parents=[common], help="rational Betti numbers")
    p.add_argument("target", choices=("group", "lie", "ia"))
    rank_arg(p)
    cls_arg(p)
    p.add_argument("-d", "--degree", type=int, default=None)

    p = sub.add_parser("weighted-betti", parents=[common], help="Betti numbers refined by weight")
    p.add_argument("target", nargs="?", choices=("group", "lie", "ia"), default="group")
    rank_arg(p)
    cls_arg(p)
    p.add_argument("-d", "--degree", type=int, required=True)

    p = sub.add_parser("dynkin-check", parents=[common], help="verify the bracketing retract")
    rank_arg(p)
    p.add_argument("--max-degree", type=int, required=True)

    p = sub.add_parser("summand-check", parents=[common], help="weight comparison for IA homology")
    rank_arg(p)
    cls_arg(p)
    p.add_argument("-d", "--degree", type=int, required=True)

    p = sub.add_parser("coinv", parents=[common], help="GL(Z) coinvariants of an expression")
    p.add_argument("--expr", required=True)
    rank_arg(p)

    p = sub.add_parser("degree-check", parents=[common], help="polynomial degree of a Betti sequence")
    cls_arg(p)
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("--max-rank", type=int, default=5)

    sub.add_parser("selftest", parents=[common], help="run the invariant suite")
    return parser


_HANDLERS = {
    "witt": _cmd_witt,
    "hall": _cmd_hall,
    "bch": _cmd_bch,
    "lcs-ranks": _cmd_lcs_ranks,
    "center": _cmd_center,
    "betti": _cmd_betti,
    "weighted-betti": _cmd_weighted_betti,
    "dynkin-check": _cmd_dynkin_check,
    "summand-check": _cmd_summand_check,
    "coinv": _cmd_coinv,
    "degree-check": _cmd_degree_check,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cache_dir = os.environ.get("NILHOM_CACHE_DIR") or args.cache_dir
    cache = Cache(cache_dir, enabled=not args.no_cache)
    handler = _HANDLERS[args.command]
    try:
        start = time.perf_counter()
        records = handler(args, cache)
        elapsed = int((time.perf_counter() - start) * 1000)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        print(f"nilhom: error: {exc}", file=sys.stderr)
        return 1
    _emit(args, [(params, result, elapsed) for params, result in records])
    if args.command == "selftest":
        if any(result["status"] != "pass" for _, result in records):
            return 1
    return 0


run = main


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
