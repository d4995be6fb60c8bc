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

Each subcommand is declared once, by the @_command decorator on its
handler: its help line, its arguments, its CSV layout and whether its
result is cached.  The parser, the record params and the cache step in
main are all read from those declarations.

Each handler imports the nilhom modules it calls, so a process loads only
what its command uses: a warm cache hit loads cli, cache, free_lie and
exact_linalg and nothing else.  weights, which imports no nilhom module,
runs first among the rest, since lie_homology and rep import it;
lie_homology comes next: aut imports it before rep, and invariants imports
aut first, so whatever a command loads runs in the order exact_linalg,
free_lie, weights, lie_homology, rep, aut, nilgroup, invariants.  A nilhom
process's peak RSS moves with that order.
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
from typing import TYPE_CHECKING, Callable, NamedTuple

from .cache import Cache, SCHEMA_VERSION, canonical_json
from .exact_linalg import _EXACT_NUMBER
from .free_lie import hall_basis, witt_dimension

if TYPE_CHECKING:
    from .lie_homology import GradedLieAlgebra
    from .nilgroup import MalcevElement

__all__ = ["main"]


def _check_label_rank(rank: int) -> None:
    # word labels spell one digit per generator, so they are unique up to rank 9
    if rank > 9:
        raise ValueError(f"rank {rank} is above 9: words are written one digit per generator")


_WORD = re.compile(r"[0-9]+")


def _parse_coords(basis, text: str) -> MalcevElement:
    from . import nilgroup

    coords = {}
    text = text.strip()
    if text:
        for item in text.split(","):
            word_part, _, value_part = item.partition(":")
            word_part, value_part = word_part.strip(), value_part.strip() or "1"
            if not _WORD.fullmatch(word_part) or not _EXACT_NUMBER.fullmatch(value_part):
                raise ValueError(
                    f"item {item.strip()!r} is not word:coefficient with an integer, "
                    "n/d (d nonzero) or plain decimal coefficient"
                )
            word = tuple(int(ch) for ch in word_part)
            if word not in basis.index:
                raise ValueError(
                    f"item {item.strip()!r}: {word_part} is not a word of the Hall basis"
                    f" at rank {basis.rank}, class {basis.cls}"
                )
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


# ---------------------------------------------------------------------------
# subcommands: each is declared once, by @_command.  The declaration holds
# the help line, the arguments (flags and argparse options), the CSV header,
# the CSV rows of one (params, result) pair, and whether main caches the
# result.  A handler takes the parsed values of its arguments as keywords,
# named by argparse dest; they are also the record's params.  It returns
# the result.  Only selftest differs: it takes the cache and returns its
# (params, result) records.


class _Command(NamedTuple):
    help: str
    arguments: tuple
    header: str
    rows: Callable
    cached: bool


_HANDLERS = {}
_COMMANDS = {}


def _command(name: str, help: str, arguments: tuple, header: str, rows, cached: bool = False):
    def declare(handler):
        _HANDLERS[name] = handler
        _COMMANDS[name] = _Command(help, arguments, header, rows, cached)
        return handler

    return declare


def _arg(*flags, **options) -> tuple:
    return flags, options


_RANK = _arg("-r", "--rank", type=int, required=True)
_CLASS = _arg("-c", "--class", dest="cls", type=int, required=True)
_DEGREE = _arg("-d", "--degree", type=int, required=True)
_MAX_DEGREE = _arg("--max-degree", type=int, required=True)
_TARGETS = ("group", "lie", "ia")


@_command("witt", "dimensions of the free Lie algebra layers", (_RANK, _MAX_DEGREE),
          "rank,degree,dimension",
          lambda p, res: [(p["rank"], n + 1, d) for n, d in enumerate(res["dims"])])
def _cmd_witt(rank, max_degree):
    if max_degree < 0:
        raise ValueError("max degree must be non-negative")
    return {"dims": [witt_dimension(rank, n) for n in range(1, max_degree + 1)]}


@_command("hall", "the Lyndon-word basis", (_RANK, _CLASS), "rank,class,degree,word",
          lambda p, res: [(p["rank"], p["cls"], len(w), w) for w in res["words"]])
def _cmd_hall(rank, cls):
    _check_label_rank(rank)
    basis = hall_basis(rank, cls)
    return {
        "words": [basis.label(w) for w in basis.elements],
        "degree_sizes": [len(basis.elements_of_degree(n)) for n in range(1, cls + 1)],
        "degree_offsets": list(basis.degree_start[1 : cls + 2]),
    }


@_command("bch", "group product in logarithmic coordinates",
          (_RANK, _CLASS, _arg("--u", required=True, help='coordinates like "1:1,12:1/2"'),
           _arg("--v", required=True)),
          "rank,class,word,coefficient",
          lambda p, res: [(p["rank"], p["cls"], w, q) for w, q in res["coords"]])
def _cmd_bch(rank, cls, u, v):
    from . import nilgroup

    _check_label_rank(rank)
    basis = hall_basis(rank, cls)
    product = nilgroup.multiply(_parse_coords(basis, u), _parse_coords(basis, v))
    return {"coords": _coords_payload(product)}


@_command("lcs-ranks", "lower central series ranks", (_RANK, _CLASS), "rank,class,degree,rank_value",
          lambda p, res: [(p["rank"], p["cls"], n + 1, v) for n, v in enumerate(res["ranks"])])
def _cmd_lcs_ranks(rank, cls):
    from . import nilgroup

    ranks = nilgroup.lcs_ranks(rank, cls)
    witt = [witt_dimension(rank, n) for n in range(1, cls + 1)]
    return {"ranks": ranks, "witt": witt, "match": ranks == witt}


@_command("center", "basis of the center", (_RANK, _CLASS), "rank,class,vector,word,coefficient",
          lambda p, res: [(p["rank"], p["cls"], i, w, q)
                          for i, vector in enumerate(res["basis"]) for w, q in vector])
def _cmd_center(rank, cls):
    from . import invariants, nilgroup

    _check_label_rank(rank)
    basis = hall_basis(rank, cls)
    vectors = nilgroup.center_basis(rank, cls)
    return {
        "dimension": len(vectors),
        "basis": [_coords_payload(v) for v in vectors],
        "spans_top_degree": invariants.spans_top_degree(basis, vectors, cls),
    }


def _algebra(target: str, r: int, c: int) -> GradedLieAlgebra:
    from . import lie_homology

    if target == "ia":
        from . import aut

        return aut.ia_lie_algebra(r, c)
    return lie_homology.free_nilpotent_lie(r, c)


def _betti_rows(p, res):
    pairs = [(res["degree"], res["betti"])] if "degree" in res else enumerate(res["betti"])
    return [(p["target"], p["rank"], p["cls"], d, b) for d, b in pairs]


@_command("betti", "rational Betti numbers",
          (_arg("target", choices=_TARGETS), _RANK, _CLASS, _arg("-d", "--degree", type=int)),
          "target,rank,class,degree,betti", _betti_rows, cached=True)
def _cmd_betti(target, rank, cls, degree):
    from . import lie_homology

    g = _algebra(target, rank, cls)
    if degree is None:
        return {"betti": lie_homology.betti_numbers(g)}
    return {"degree": degree, "betti": lie_homology.betti_number(g, degree)}


@_command("weighted-betti", "Betti numbers refined by weight",
          (_arg("target", nargs="?", choices=_TARGETS, default="group"), _RANK, _CLASS, _DEGREE),
          "target,rank,class,degree,weight,multiplicity",
          lambda p, res: [(p["target"], p["rank"], p["cls"], res["degree"],
                           "|".join(map(str, weight)), mult) for weight, mult in res["weights"]],
          cached=True)
def _cmd_weighted_betti(target, rank, cls, degree):
    from . import lie_homology

    weights = lie_homology.weighted_betti(_algebra(target, rank, cls), degree)
    return {"degree": degree, "weights": [[list(w), mult] for w, mult in sorted(weights.items())]}


@_command("dynkin-check", "verify the bracketing retract", (_RANK, _MAX_DEGREE),
          "rank,max_degree,checked,failures",
          lambda p, res: [(p["rank"], p["max_degree"], res["checked"], ";".join(res["failures"]))])
def _cmd_dynkin_check(rank, max_degree):
    from . import invariants

    _check_label_rank(rank)
    if max_degree < 1:
        raise ValueError("max degree must be at least 1")
    basis = hall_basis(rank, max_degree)
    return {"checked": len(basis.elements), "failures": invariants.dynkin_failures(basis)}


@_command("summand-check", "weight comparison for IA homology", (_RANK, _CLASS, _DEGREE),
          "rank,class,degree,mode,holds",
          lambda p, res: [(p["rank"], p["cls"], p["degree"], res["mode"], res["holds"])])
def _cmd_summand_check(rank, cls, degree):
    from . import invariants

    return invariants.summand_payload(rank, cls, degree)


@_command("coinv", "GL(Z) coinvariants of an expression", (_arg("--expr", required=True), _RANK),
          "expr,rank,dim", lambda p, res: [(p["expr"], p["rank"], res["dim"])])
def _cmd_coinv(expr, rank):
    from . import rep

    return {"dim": rep.coinvariants_dim(rep.parse_expr(expr), rank)}


@_command("degree-check", "polynomial degree of a Betti sequence",
          (_CLASS, _DEGREE, _arg("--max-rank", type=int, default=5)),
          "class,degree,max_rank,estimate,bound,within_bound",
          lambda p, res: [(p["cls"], p["degree"], p["max_rank"],
                           res["estimate"], res["bound"], res["within_bound"])],
          cached=True)
def _cmd_degree_check(cls, degree, max_rank):
    from . import invariants, rep

    if max_rank < 1:  # a degree estimate needs the values at two ranks at least
        raise ValueError("max rank must be at least 1")
    dims = invariants.betti_over_ranks(cls, degree, max_rank)
    estimate, sufficient = rep.degree_estimate(dims)
    bound = cls * degree
    return {
        "dims": dims,
        "estimate": estimate,
        "bound": bound,
        "within_bound": estimate <= bound,
        "window_sufficient": sufficient,
    }


# ---------------------------------------------------------------------------
# selftest: the invariant registry on small cases, then the cache


def _store(cache, kind, params, result) -> None:
    try:
        cache.put(kind, params, result)
    except OSError as exc:  # a result that cannot be stored is still the answer
        print(f"nilhom: warning: result not cached: {exc}", file=sys.stderr)


def _betti_cache_check(cache):
    # exercised through the same key space as the betti subcommand: a
    # warm cache must agree with the fresh computation byte for byte
    params = {"target": "group", "rank": 2, "cls": 3, "degree": None}
    payload = _cmd_betti(**params)
    cached = cache.get("betti", params)
    if cached is not None and cached != payload:
        return False, {"reason": "cache disagrees with recomputation"}
    _store(cache, "betti", params, payload)
    return True, payload


@_command("selftest", "run the invariant suite", (), "check,status",
          lambda p, res: [(res["check"], res["status"])])
def _cmd_selftest(cache):
    # the one command with a record per check, and the one handler given the cache
    from . import invariants

    checks = (
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
        ("betti_cache", partial(_betti_cache_check, cache)),
    )
    records = []
    for name, check in checks:
        ok, detail = check()
        records.append(
            ({"check": name}, {"check": name, "status": "pass" if ok else "fail", "detail": detail})
        )
    return records


# ---------------------------------------------------------------------------
# output


def _render(args, records_with_timing) -> str:
    """The whole output, CSV or one JSON line per record, built before any of it is written."""
    buffer = io.StringIO()
    try:
        if args.format == "csv":
            command = _COMMANDS[args.command]
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerow(command.header.split(","))
            for params, result, _elapsed in records_with_timing:
                writer.writerows(command.rows(params, result))
        else:
            for params, result, elapsed in records_with_timing:
                record = {
                    "command": args.command,
                    "params": params,
                    "result": result,
                    "elapsed_ms": elapsed if args.timings else None,
                    "schema_version": SCHEMA_VERSION,
                }
                buffer.write(canonical_json(record) + "\n")
    except ValueError:  # more digits than str() converts from an int
        raise ValueError(
            f"the result holds an integer of more than {sys.get_int_max_str_digits()} digits,"
            " Python's limit for printing an integer"
        ) from None
    return buffer.getvalue()


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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        # each command's params are the parsed values of its own arguments
        p.set_defaults(dests=[p.add_argument(*flags, **options).dest
                              for flags, options in command.arguments])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cache_dir = os.environ.get("NILHOM_CACHE_DIR") or args.cache_dir
    cache = Cache(cache_dir, enabled=not args.no_cache)
    command = _COMMANDS[args.command]
    params = {dest: getattr(args, dest) for dest in args.dests}
    handler = _HANDLERS[args.command]
    try:
        start = time.perf_counter()
        if args.command == "selftest":
            records = handler(cache)
        elif command.cached:
            result = cache.get(args.command, params)
            if result is None:
                result = handler(**params)
                _store(cache, args.command, params, result)
            records = [(params, result)]
        else:
            records = [(params, handler(**params))]
        elapsed = int((time.perf_counter() - start) * 1000)
        output = _render(args, [(params, result, elapsed) for params, result in records])
    except (KeyboardInterrupt, SystemExit):
        raise
    except MemoryError:
        # str(MemoryError()) is empty
        print("nilhom: error: out of memory", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"nilhom: error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    if args.command == "selftest":
        if any(result["status"] != "pass" for _, result in records):
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
