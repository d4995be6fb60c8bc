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
import re
import sys
import time
from fractions import Fraction
from functools import partial

from . import aut, invariants, lie_homology, nilgroup, rep
from .cache import Cache, SCHEMA_VERSION, canonical_json
from .free_lie import hall_basis, witt_dimension

__all__ = ["main", "run"]


def _check_label_rank(rank: int) -> None:
    # word labels spell one digit per generator, so they are unique up to rank 9
    if rank > 9:
        raise ValueError(f"rank {rank} is above 9: words are written one digit per generator")


# exact coefficients only: no exponent to expand, no zero denominator
_WORD = re.compile(r"[0-9]+")
_COEFFICIENT = re.compile(r"[+-]?([0-9]+(/[0-9]*[1-9][0-9]*)?|[0-9]+\.[0-9]*|\.[0-9]+)")


def _parse_coords(basis, text: str) -> "nilgroup.MalcevElement":
    coords = {}
    text = text.strip()
    if text:
        for item in text.split(","):
            word_part, _, value_part = item.partition(":")
            word_part, value_part = word_part.strip(), value_part.strip() or "1"
            if not _WORD.fullmatch(word_part) or not _COEFFICIENT.fullmatch(value_part):
                raise ValueError(
                    f"item {item.strip()!r} is not word:coefficient with an integer, "
                    "n/d (d nonzero) or plain decimal coefficient"
                )
            word = tuple(int(ch) for ch in word_part)
            if word in coords:
                raise ValueError(f"word {word_part} is given more than once")
            try:
                coords[word] = Fraction(value_part)
            except ValueError:  # more digits than int() converts from a string
                raise ValueError(f"item {item.strip()!r} has too many digits") from None
    return nilgroup.malcev_element(basis, coords)


def _coords_payload(element) -> list[list[str]]:
    basis = element.basis
    payload = []
    for w in basis.elements:
        if w in element.coords:
            try:
                payload.append([basis.label(w), str(element.coords[w])])
            except ValueError:  # more digits than str() converts from an int
                raise ValueError(
                    f"the coefficient of word {basis.label(w)} has a numerator or denominator of more "
                    f"than {sys.get_int_max_str_digits()} digits, Python's limit for printing an integer"
                ) from None
    return payload


def _weights_payload(weights: dict) -> list[list]:
    return [[list(w), mult] for w, mult in sorted(weights.items())]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a list of (params, result) pairs, and
# declares its CSV header and the CSV rows of one (params, result) pair


_HANDLERS = {}
_CSV_LAYOUTS = {}


def _command(name: str, header: str, rows):
    def declare(handler):
        _HANDLERS[name] = handler
        _CSV_LAYOUTS[name] = (header, rows)
        return handler

    return declare


@_command("witt", "rank,degree,dimension",
          lambda p, res: [(p["rank"], n + 1, d) for n, d in enumerate(res["dims"])])
def _cmd_witt(args, cache):
    params = {"rank": args.rank, "max_degree": args.max_degree}
    dims = [witt_dimension(args.rank, n) for n in range(1, args.max_degree + 1)]
    return [(params, {"dims": dims})]


@_command("hall", "rank,class,degree,word",
          lambda p, res: [(p["rank"], p["cls"], len(w), w) for w in res["words"]])
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


@_command("bch", "rank,class,word,coefficient",
          lambda p, res: [(p["rank"], p["cls"], w, q) for w, q in res["coords"]])
def _cmd_bch(args, cache):
    params = {"rank": args.rank, "cls": args.cls, "u": args.u, "v": args.v}
    _check_label_rank(args.rank)
    basis = hall_basis(args.rank, args.cls)
    product = nilgroup.multiply(_parse_coords(basis, args.u), _parse_coords(basis, args.v))
    return [(params, {"coords": _coords_payload(product)})]


@_command("lcs-ranks", "rank,class,degree,rank_value",
          lambda p, res: [(p["rank"], p["cls"], n + 1, v) for n, v in enumerate(res["ranks"])])
def _cmd_lcs_ranks(args, cache):
    params = {"rank": args.rank, "cls": args.cls}
    ranks = nilgroup.lcs_ranks(args.rank, args.cls)
    witt = [witt_dimension(args.rank, n) for n in range(1, args.cls + 1)]
    return [(params, {"ranks": ranks, "witt": witt, "match": ranks == witt})]


@_command("center", "rank,class,vector,word,coefficient",
          lambda p, res: [(p["rank"], p["cls"], i, w, q)
                          for i, vector in enumerate(res["basis"]) for w, q in vector])
def _cmd_center(args, cache):
    params = {"rank": args.rank, "cls": args.cls}
    _check_label_rank(args.rank)
    basis = hall_basis(args.rank, args.cls)
    vectors = nilgroup.center_basis(args.rank, args.cls)
    result = {
        "dimension": len(vectors),
        "basis": [_coords_payload(v) for v in vectors],
        "spans_top_degree": invariants.spans_top_degree(basis, vectors, args.cls),
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


def _betti_rows(p, res):
    pairs = [(res["degree"], res["betti"])] if "degree" in res else enumerate(res["betti"])
    return [(p["target"], p["rank"], p["cls"], d, b) for d, b in pairs]


@_command("betti", "target,rank,class,degree,betti", _betti_rows)
def _cmd_betti(args, cache):
    params = {"target": args.target, "rank": args.rank, "cls": args.cls, "degree": args.degree}
    cached = cache.get("betti", params)
    if cached is None:
        cached = _betti_payload(args.target, args.rank, args.cls, args.degree)
        cache.put("betti", params, cached)
    return [(params, cached)]


@_command("weighted-betti", "target,rank,class,degree,weight,multiplicity",
          lambda p, res: [(p["target"], p["rank"], p["cls"], res["degree"],
                           "|".join(map(str, weight)), mult) for weight, mult in res["weights"]])
def _cmd_weighted_betti(args, cache):
    params = {"target": args.target, "rank": args.rank, "cls": args.cls, "degree": args.degree}
    cached = cache.get("weighted-betti", params)
    if cached is None:
        g = _algebra(args.target, args.rank, args.cls)
        weights = lie_homology.weighted_betti(g, args.degree)
        cached = {"degree": args.degree, "weights": _weights_payload(weights)}
        cache.put("weighted-betti", params, cached)
    return [(params, cached)]


@_command("dynkin-check", "rank,max_degree,checked,failures",
          lambda p, res: [(p["rank"], p["max_degree"], res["checked"], ";".join(res["failures"]))])
def _cmd_dynkin_check(args, cache):
    params = {"rank": args.rank, "max_degree": args.max_degree}
    basis = hall_basis(args.rank, args.max_degree)
    failures = invariants.dynkin_failures(basis)
    return [(params, {"checked": len(basis.elements), "failures": failures})]


@_command("summand-check", "rank,class,degree,mode,holds",
          lambda p, res: [(p["rank"], p["cls"], p["degree"], res["mode"], res["holds"])])
def _cmd_summand_check(args, cache):
    params = {"rank": args.rank, "cls": args.cls, "degree": args.degree}
    return [(params, invariants.summand_payload(args.rank, args.cls, args.degree))]


@_command("coinv", "expr,rank,dim", lambda p, res: [(p["expr"], p["rank"], res["dim"])])
def _cmd_coinv(args, cache):
    params = {"expr": args.expr, "rank": args.rank}
    expr = rep.parse_expr(args.expr)
    return [(params, {"dim": rep.coinvariants_dim(expr, args.rank)})]


@_command("degree-check", "class,degree,max_rank,estimate,bound,within_bound",
          lambda p, res: [(p["cls"], p["degree"], p["max_rank"],
                           res["estimate"], res["bound"], res["within_bound"])])
def _cmd_degree_check(args, cache):
    params = {"cls": args.cls, "degree": args.degree, "max_rank": args.max_rank}
    cached = cache.get("degree-check", params)
    if cached is None:
        dims = invariants.betti_over_ranks(args.cls, args.degree, args.max_rank)
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
# selftest: the invariant registry on small cases, then the cache


_SELFTEST_CHECKS = (
    ("witt_lyndon", partial(invariants.witt_lyndon, 3, 5)),
    ("bch_group_law", partial(invariants.bch_group_law, ((2, 2), (2, 3)), 5, 20240601, 2)),
    ("bch_commutator", partial(invariants.bch_commutator, (2, 3))),
    ("lcs_ranks", partial(invariants.lcs, ((2, 3), (3, 2)))),
    ("center", partial(invariants.center, ((2, 2), (3, 2), (2, 3)))),
    ("betti_heisenberg", invariants.betti_heisenberg),
    ("betti_symmetry", partial(invariants.betti_symmetry, ((3, 2), (2, 4)))),
    ("dynkin_retract", partial(invariants.dynkin_retract, ((2, 4), (3, 3)))),
    ("ia_ledger", partial(invariants.ia_ledger, ((2, 3), (3, 2), (2, 4)))),
    ("summand_c2", partial(invariants.summand, 2, 2, ranks=(2, 3))),
    ("summand_2_3", partial(invariants.summand, 3, 2)),
    ("coinvariants", partial(invariants.coinvariants,
                             ("std", "wedge(2, std)", "lie(2)", "hom(std, lie(2))"), (2, 3), (3,))),
    ("conjugation_consistency", partial(invariants.conjugation_consistency, {
        2: [((0, 1), (1, 0)), ((1, 1), (0, 1)), ((-1, 0), (0, 1))],
        3: [((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((1, 0, 0), (0, 1, 1), (0, 0, 1))],
    }, (2, 3))),
    ("degree_bound", partial(invariants.degree_bound, 2, 1, 4)),
)


def _betti_cache_check(cache):
    # exercised through the same key space as the betti subcommand: a
    # warm cache must agree with the fresh computation byte for byte
    payload = _betti_payload("group", 2, 3, None)
    params = {"target": "group", "rank": 2, "cls": 3, "degree": None}
    cached = cache.get("betti", params)
    if cached is not None and cached != payload:
        return False, {"reason": "cache disagrees with recomputation"}
    cache.put("betti", params, payload)
    return True, payload


@_command("selftest", "check,status", lambda p, res: [(res["check"], res["status"])])
def _cmd_selftest(args, cache):
    checks = _SELFTEST_CHECKS + (("betti_cache", partial(_betti_cache_check, cache)),)
    records = []
    for name, check in checks:
        ok, detail = check()
        records.append(
            ({"check": name}, {"check": name, "status": "pass" if ok else "fail", "detail": detail})
        )
    return records


# ---------------------------------------------------------------------------
# output


def _emit(args, records_with_timing) -> None:
    if args.format == "csv":
        header, rows = _CSV_LAYOUTS[args.command]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header.split(","))
        for params, result, _elapsed in records_with_timing:
            writer.writerows(rows(params, result))
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
    except MemoryError:
        # str(MemoryError()) is empty
        print("nilhom: error: out of memory", file=sys.stderr)
        return 1
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
