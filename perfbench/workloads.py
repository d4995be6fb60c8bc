"""The four workloads: seeded inputs, the call each item makes, and its oracle.

`make_inputs(workload, seed)` returns plain data (lists, ints, strings), so
the same seed gives the same inputs and the inputs can be compared in tests.
`Context` turns that data into nilhom objects during set-up.  Each
item then runs through `run_item` and is judged by `check_item`; the worker
times only `run_item`.

Items reach nilhom through module attributes looked up at call time, so the
wrappers that tracing installs see every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import oracles

WORKLOADS = ("homology", "automorphisms", "group_arith", "cli_session")

# group_arith: items per (operation, density) cell and shape; half of each cell
# has numerators below 10 and half from 10^5 to 10^6.  The counts are fixed so
# that a pass costs the same whatever the seed, and so that the p95 item falls
# among the dense (4,4) products and quotients rather than between two groups.
GROUP_SHAPES = ((2, 5), (3, 4), (4, 4))
GROUP_CELLS = (
    ("product", "sparse", 24), ("product", "medium", 8), ("product", "dense", 4),
    ("quotient", "sparse", 18), ("quotient", "medium", 6), ("quotient", "dense", 4),
    ("commutator", "sparse", 14), ("commutator", "medium", 4), ("commutator", "dense", 2),
)
DEEP_CHECKS_PER_SHAPE = 6

CACHED_COMMANDS = (
    ("betti", "group", "-r", "3", "-c", "3"),
    ("weighted-betti", "group", "-r", "2", "-c", "5", "-d", "7"),
    ("betti", "ia", "-r", "3", "-c", "3", "-d", "3"),
    ("degree-check", "-c", "2", "-d", "1"),
)
UNCACHED_COMMANDS = (
    ("summand-check", "-r", "3", "-c", "3", "-d", "2"),
    ("coinv", "--expr", "wedge(2, hom(std, lie(2)))", "-r", "2"),
    ("hall", "-r", "3", "-c", "4"),
    ("selftest",),
)
BCH_SHAPES = ((2, 4), (3, 3), (3, 4))


# ---------------------------------------------------------------------------
# seeded inputs, as plain data


def _perm(rng: random.Random, r: int) -> list[int]:
    """A permutation of range(r) that moves something when r > 1."""
    perm = list(range(r))
    while r > 1 and perm == list(range(r)):
        rng.shuffle(perm)
    return perm


def _hall_words(r: int, c: int) -> list[list[int]]:
    """Basis words of the Hall basis (r, c); building it here puts it in set-up."""
    from nilhom import hall_basis

    return [list(w) for w in hall_basis(r, c).elements]


def _coefficient(rng: random.Random, large: bool) -> list[int]:
    num = rng.randint(10**5, 10**6) if large else rng.randint(1, 9)
    return [rng.choice((-1, 1)) * num, rng.choice((1, 2, 3))]


def _element(rng: random.Random, words: list[list[int]], density: str, large: bool) -> list:
    """An element with a fixed number of coordinates in each degree; the seed picks which."""
    chosen = []
    for n in sorted({len(w) for w in words}):
        layer = [w for w in words if len(w) == n]
        size = {"sparse": max(1, len(layer) // 10), "medium": (len(layer) + 1) // 2, "dense": len(layer)}[density]
        chosen += rng.sample(layer, size)
    return [[w, *_coefficient(rng, large)] for w in sorted(chosen, key=lambda w: (len(w), w))]


def _unimodular(rng: random.Random, r: int) -> list[list[int]]:
    """A signed permutation times a unitriangular matrix with entries +-1 above the diagonal.

    The seed picks the permutation and the signs; the number and size of the
    entries are fixed, so the cost of acting by the matrix is too.
    """
    upper = [[int(i == j) if j <= i else rng.choice((-1, 1)) for j in range(r)] for i in range(r)]
    perm = list(range(r))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) * x for x in upper[perm[i]]] for i in range(r)]


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The items of one pass of a workload, as plain data fixed by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "homology":
        items = [
            {"id": f"group_betti({r},{c})", "op": "group_betti", "r": r, "c": c, "perm": _perm(rng, r)}
            for r, c in ((5, 2), (3, 3), (2, 5))
        ]
        items += [
            {"id": f"weighted_betti({r},{c},{d})", "op": "weighted_betti", "r": r, "c": c, "d": d,
             "perm": _perm(rng, r)}
            for r, c, d in ((2, 6, 4), (4, 3, 3))
        ]
        return items
    if workload == "automorphisms":
        items = [{"id": "ia_lie_algebra(3,4)", "op": "ia_lie_algebra", "r": 3, "c": 4}]
        ia = [(3, 4, "2", [2]), (3, 3, "3", [3]), (2, 4, "0..4", [0, 1, 2, 3, 4])]
        items += [
            {"id": f"ia_betti({r},{c},{label})", "op": "ia_betti", "r": r, "c": c, "qs": qs, "perm": _perm(rng, r)}
            for r, c, label, qs in ia
        ]
        items += [
            {"id": f"summand({r},{c},{label})", "op": "summand", "r": r, "c": c, "qs": qs,
             "tables": f"ia_betti({r},{c},{label})"}
            for r, c, label, qs in ia
        ]
        # Distinct matrices, so no item repeats another's work.  The four
        # equally costly rank-3 conjugations hold the pass's median item, so
        # item_ms_p50 does not jump between items of different cost.
        rank3 = []
        while len(rank3) < 5:
            a = _unimodular(rng, 3)
            if a not in rank3:
                rank3.append(a)
        items.append({"id": "automorphism_from_gl(3,4)", "op": "automorphism_from_gl",
                      "r": 3, "c": 4, "matrix": rank3[0]})
        for k, a in enumerate(rank3[1:] + [_unimodular(rng, 2)]):
            r = len(a)
            items.append({"id": f"gl_conjugation_on_ia#{k}({r},4)", "op": "gl_conjugation_on_ia",
                          "r": r, "c": 4, "matrix": a})
        for expr, r in (("wedge(2, hom(std, lie(2)))", 4), ("hom(std, lie[2..4])", 3)):
            items.append({"id": f"coinvariants_dim({expr},{r})", "op": "coinvariants_dim", "expr": expr, "r": r})
        return items
    if workload == "group_arith":
        items = []
        for r, c in GROUP_SHAPES:
            words = _hall_words(r, c)
            shape_items = []
            for op, density, count in GROUP_CELLS:
                for k in range(count):
                    large = k % 2 == 1
                    shape_items.append({
                        "id": f"{op}({r},{c},{density},{'large' if large else 'small'})#{k}",
                        "op": op, "r": r, "c": c,
                        "u": _element(rng, words, density, large),
                        "v": _element(rng, words, density, large),
                    })
            cheap = [it for it in shape_items if "dense" not in it["id"]]
            for it in rng.sample(cheap, DEEP_CHECKS_PER_SHAPE):
                it["deep"] = _element(rng, words, "sparse", False)
            items += shape_items
        words = _hall_words(3, 4)
        items.append({"id": "lcs_ranks(3,4)", "op": "lcs_ranks", "r": 3, "c": 4})
        items.append({"id": "center_basis(4,4)", "op": "center_basis", "r": 4, "c": 4})
        for k in range(2):
            items.append({"id": f"inner_action#{k}(3,4)", "op": "inner_action", "r": 3, "c": 4,
                          "u": _element(rng, words, "medium", False),
                          "v": _element(rng, words, "sparse", False)})
        return items
    if workload == "cli_session":
        items = []
        for argv in CACHED_COMMANDS:
            items.append({"id": f"cold:{' '.join(argv)}", "op": "cli", "argv": list(argv)})
        for rep_no in (1, 2):
            for argv in CACHED_COMMANDS:
                items.append({"id": f"warm{rep_no}:{' '.join(argv)}", "op": "cli", "argv": list(argv),
                              "same_as": f"cold:{' '.join(argv)}"})
        for argv in UNCACHED_COMMANDS:
            items.append({"id": f"plain:{' '.join(argv)}", "op": "cli", "argv": list(argv)})
        for k, (r, c) in enumerate(BCH_SHAPES):
            words = _hall_words(r, c)
            u = _element(rng, words, "medium", False)
            v = _element(rng, words, "medium", False)
            argv = ["bch", "-r", str(r), "-c", str(c), "--u", _coords_text(u), "--v", _coords_text(v)]
            items.append({"id": f"bch#{k}({r},{c})", "op": "cli", "argv": argv, "r": r, "u": u, "v": v})
        return items
    raise ValueError(f"unknown workload {workload!r}")


def _coords_text(element: list) -> str:
    return ",".join(f"{''.join(map(str, w))}:{n}/{d}" for w, n, d in element)


# ---------------------------------------------------------------------------
# set-up: plain data to nilhom objects


class Context:
    """The built inputs of one pass and the answers of items already run."""

    def __init__(self, specs: list[dict], work_dir: str | None = None, shim_env: dict | None = None):
        import nilhom

        self.nilhom = nilhom
        self.results: dict[str, object] = {}
        self.elements: dict[tuple[str, str], object] = {}
        self.work_dir = work_dir
        self.shim_env = shim_env or {}
        self.tracer = None
        self.child_probes: tuple[int, int] | None = None
        for spec in specs:
            for key in ("u", "v", "deep"):
                if key in spec and spec["op"] != "cli":
                    basis = nilhom.hall_basis(spec["r"], spec["c"])
                    self.elements[(spec["id"], key)] = nilhom.malcev_element(basis, _coords(spec[key]))


def _coords(element: list) -> dict:
    return {tuple(w): Fraction(n, d) for w, n, d in element}


# ---------------------------------------------------------------------------
# the timed call of each item


def run_item(spec: dict, ctx: Context):
    n = ctx.nilhom
    op = spec["op"]
    if op == "group_betti":
        return n.lie_homology.group_betti(spec["r"], spec["c"])
    if op == "weighted_betti":
        g = n.lie_homology.free_nilpotent_lie(spec["r"], spec["c"])
        return n.lie_homology.weighted_betti(g, spec["d"])
    if op == "ia_lie_algebra":
        return n.aut.ia_lie_algebra(spec["r"], spec["c"])
    if op == "ia_betti":
        return [n.aut.ia_betti(spec["r"], spec["c"], q) for q in spec["qs"]]
    if op == "summand":
        return [_summand(n.rep, spec["r"], spec["c"], q, table)
                for q, (_, table) in zip(spec["qs"], ctx.results[spec["tables"]])]
    if op == "automorphism_from_gl":
        return n.aut.automorphism_from_gl(spec["matrix"], spec["c"])
    if op == "gl_conjugation_on_ia":
        return n.aut.gl_conjugation_on_ia(spec["matrix"], spec["r"], spec["c"])
    if op == "coinvariants_dim":
        return n.rep.coinvariants_dim(n.rep.parse_expr(spec["expr"]), spec["r"])
    if op in ("product", "quotient", "commutator"):
        ng = n.nilgroup
        u, v = ctx.elements[(spec["id"], "u")], ctx.elements[(spec["id"], "v")]
        if op == "product":
            return ng.multiply(u, v)
        if op == "quotient":
            return ng.multiply(u, ng.inverse(v))
        return ng.group_commutator(u, v)
    if op == "lcs_ranks":
        return n.nilgroup.lcs_ranks(spec["r"], spec["c"])
    if op == "center_basis":
        return n.nilgroup.center_basis(spec["r"], spec["c"])
    if op == "inner_action":
        return n.nilgroup.inner_action(ctx.elements[(spec["id"], "u")])
    if op == "cli":
        return run_cli(spec, ctx)
    raise ValueError(f"unknown operation {op!r}")


def _summand(rep, r: int, c: int, q: int, table: dict) -> dict:
    """The IA weight table against wedge^q hom(std, lie[2..c]), as `summand-check` compares them."""
    ia_module = rep.WeightModule(r, table)
    bound = rep.evaluate(rep.Wedge(q, rep.HomStd(rep.lie_interval(2, c))), r)
    report = rep.weight_dominance_compare(ia_module, bound)
    out = {"ia": ia_module, "bound": bound, "holds": report.holds,
           "violations": [[list(w), a, b] for w, a, b in report.violations]}
    if r == 2:
        out["schur_ia"] = rep.schur_decompose_gl2(ia_module)
        out["schur_bound"] = rep.schur_decompose_gl2(bound)
    return out


def run_cli(spec: dict, ctx: Context):
    """One `nilhom` process through the shim; returns (exit code, stdout bytes).

    The probes the shim took in that process go to ctx.child_probes.
    """
    shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
    argv = [sys.executable, shim, *spec["argv"], "--cache-dir", os.path.join(ctx.work_dir, "cache")]
    tracer = ctx.tracer
    if tracer is None:
        proc = subprocess.run(argv, env=ctx.shim_env, capture_output=True)
        ctx.child_probes = _child_probes(proc.stderr)
        return proc.returncode, proc.stdout
    spans_path = os.path.join(ctx.work_dir, "cli-spans.json")
    env = dict(ctx.shim_env, PERFBENCH_SPANS=spans_path)
    tracer.open("cli.process")
    process_span = tracer.open_id
    try:
        proc = subprocess.run(argv, env=env, capture_output=True)
    finally:
        tracer.close()
    with open(spans_path, encoding="utf-8") as fh:
        child = json.load(fh)
    os.remove(spans_path)
    tracer.graft(child["spans"], process_span)
    for key, value in child["counters"].items():
        tracer.count(key, value)
    for key, value in child["maxima"].items():
        tracer.peak(key, value)
    ctx.child_probes = _child_probes(proc.stderr)
    return proc.returncode, proc.stdout


def _child_probes(stderr: bytes) -> tuple[int, int] | None:
    lines = [line for line in stderr.decode(errors="replace").splitlines() if line.startswith("perfbench-probe ")]
    if not lines:
        return None
    before, after = lines[-1].split()[1:]
    return int(before), int(after)


# ---------------------------------------------------------------------------
# oracles, checked outside the timed call


def _element_value(element) -> list:
    basis = element.basis
    return [[basis.label(w), str(element.coords[w])] for w in basis.elements if w in element.coords]


def normalized(spec: dict, result):
    """The JSON form of an answer that pinned digests are taken of."""
    op = spec["op"]
    if op in ("group_betti", "lcs_ranks", "coinvariants_dim"):
        return result
    if op == "weighted_betti":
        return sorted([list(w), m] for w, m in result.items())
    if op == "ia_lie_algebra":
        return {"labels": list(result.labels), "weights": [list(w) for w in result.weights],
                "brackets": sorted([i, j, sorted([k, str(q)] for k, q in vec.items())]
                                   for (i, j), vec in result.brackets.items())}
    if op == "ia_betti":
        return [[betti, sorted([list(w), m] for w, m in table.items())] for betti, table in result]
    if op == "summand":
        return [_summand_value(one) for one in result]
    if op == "center_basis":
        return [_element_value(e) for e in result]
    if op == "cli":
        return [result[0], result[1].decode("utf-8")]
    raise ValueError(f"{op} answers depend on the seed and have no pinned digest")


def _summand_value(result: dict) -> dict:
    out = {"holds": result["holds"], "violations": result["violations"]}
    for key in ("ia", "bound"):
        out[key] = sorted([list(w), m] for w, m in result[key].weights.items())
    for key in ("schur_ia", "schur_bound"):
        if key in result:
            out[key] = sorted([list(w), m] for w, m in result[key].items())
    return out


PINNED_OPS = ("group_betti", "weighted_betti", "ia_lie_algebra", "ia_betti", "summand",
              "coinvariants_dim", "lcs_ranks", "center_basis")


def is_pinned(spec: dict) -> bool:
    """Items whose inputs do not depend on the seed; their answers are pinned."""
    return spec["op"] in PINNED_OPS or (spec["op"] == "cli" and not spec["id"].startswith(("bch", "warm")))


def check_item(spec: dict, result, ctx: Context, pinned: dict) -> list[str]:
    """Failure messages for one answer: the pinned digest plus an independent invariant."""
    errors = oracles.against_pinned(spec["id"], normalized(spec, result), pinned) if is_pinned(spec) else []
    return errors + _invariant(spec, result, ctx)


def _invariant(spec: dict, result, ctx: Context) -> list[str]:
    n = ctx.nilhom
    op = spec["op"]
    if op == "group_betti":
        errors = oracles.betti_vector(result, spec["r"])
        if spec["c"] == 2 and result != oracles.class2_betti(spec["r"]):
            errors.append("differs from the Jozefiak-Weyman closed form")
        return errors
    if op == "weighted_betti":
        g = n.lie_homology.free_nilpotent_lie(spec["r"], spec["c"])
        total = n.lie_homology.betti_number(g, spec["d"])
        return oracles.weight_table(result, total, spec["perm"])
    if op == "ia_lie_algebra":
        want = oracles.ia_dimension(spec["r"], spec["c"])
        return [] if result.dim == want else [f"dimension {result.dim}, expected {want}"]
    if op == "ia_betti":
        return [e for betti, table in result for e in oracles.weight_table(table, betti, spec["perm"])]
    if op == "summand":
        errors = []
        for q, one in zip(spec["qs"], result):
            want = comb(oracles.ia_dimension(spec["r"], spec["c"]), q)
            if one["bound"].dimension != want:
                errors.append(f"degree {q}: bound has dimension {one['bound'].dimension}, expected {want}")
            for key, module in (("schur_ia", "ia"), ("schur_bound", "bound")):
                if key in one and oracles.gl2_schur_dimension(one[key]) != one[module].dimension:
                    errors.append(f"degree {q}: {key} does not add up to the module dimension")
        return errors
    if op == "automorphism_from_gl":
        a = spec["matrix"]
        a_inv = oracles.inverse(a)
        r = spec["r"]
        block = [[result.matrix.entry(i, j) for j in range(r)] for i in range(r)]
        if block != [[Fraction(x) for x in row] for row in a]:
            return ["degree-1 block is not the input matrix"]
        if not n.aut.automorphism_from_gl(a_inv, spec["c"]).compose(result).is_identity:
            return ["composition with the inverse matrix's automorphism is not the identity"]
        return []
    if op == "gl_conjugation_on_ia":
        a = spec["matrix"]
        rep = n.rep
        want = rep.action_matrix(rep.HomStd(rep.lie_interval(2, spec["c"])), a, spec["r"])
        return [] if result == want else ["differs from the action on hom(std, lie[2..c])"]
    if op == "coinvariants_dim":
        module = n.rep.evaluate(n.rep.parse_expr(spec["expr"]), spec["r"])
        bound = oracles.coinvariant_bound(module.weights, spec["r"])
        return [] if 0 <= result <= bound else [f"{result} coinvariants exceed the weight bound {bound}"]
    if op in ("product", "quotient", "commutator"):
        return _group_invariant(spec, result, ctx)
    if op == "lcs_ranks":
        want = [oracles.witt(spec["r"], k) for k in range(1, spec["c"] + 1)]
        return [] if result == want else [f"ranks {result}, Witt dimensions {want}"]
    if op == "center_basis":
        want = oracles.witt(spec["r"], spec["c"])
        if len(result) != want:
            return [f"center has dimension {len(result)}, expected {want}"]
        if any(len(w) != spec["c"] for e in result for w in e.coords):
            return ["center is not in the top degree"]
        return []
    if op == "inner_action":
        ng = n.nilgroup
        g, h = ctx.elements[(spec["id"], "u")], ctx.elements[(spec["id"], "v")]
        conj = ng.multiply(ng.multiply(g, h), ng.inverse(g))
        basis = g.basis
        image = result.matrix.mul_vector([h.coords.get(w, 0) for w in basis.elements])
        if [q for q in image] != [conj.coords.get(w, 0) for w in basis.elements]:
            return ["exp(ad log g) differs from conjugation by g"]
        return []
    if op == "cli":
        return _cli_invariant(spec, result, ctx)
    raise ValueError(f"unknown operation {op!r}")


def _group_invariant(spec: dict, z, ctx: Context) -> list[str]:
    ng = ctx.nilhom.nilgroup
    op, r = spec["op"], spec["r"]
    u, v = ctx.elements[(spec["id"], "u")], ctx.elements[(spec["id"], "v")]
    if op == "commutator":
        errors = oracles.commutator_low_degrees(u.coords, v.coords, z.coords, r)
    else:
        errors = oracles.bch_low_degrees(u.coords, v.coords, z.coords, r, 1 if op == "product" else -1)
    if errors or "deep" not in spec:
        return errors
    w = ctx.elements[(spec["id"], "deep")]
    if op == "product":
        if ng.multiply(z, ng.inverse(v)) != u:
            return ["(u v) v^-1 is not u"]
        if ng.multiply(z, w) != ng.multiply(u, ng.multiply(v, w)):
            return ["the product is not associative"]
    elif op == "quotient":
        if ng.multiply(z, v) != u:
            return ["(u v^-1) v is not u"]
    elif ng.multiply(z, ng.multiply(v, u)) != ng.multiply(u, v):
        return ["[u, v] (v u) is not u v"]
    if not ng.multiply(w, ng.inverse(w)).is_identity:
        return ["w w^-1 is not the identity"]
    return []


def _cli_invariant(spec: dict, result, ctx: Context) -> list[str]:
    code, out = result
    if code != 0:
        return [f"exit code {code}"]
    if "same_as" in spec:
        cold = ctx.results.get(spec["same_as"])
        return [] if cold is not None and cold[1] == out else ["warm output differs from cold output"]
    if spec["argv"][0] == "bch":
        record = json.loads(out)
        z = {tuple(int(ch) for ch in word): Fraction(q) for word, q in record["result"]["coords"]}
        return oracles.bch_low_degrees(_coords(spec["u"]), _coords(spec["v"]), z, spec["r"])
    lines = out.decode("utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    if spec["argv"][0] == "selftest":
        failed = [rec["params"]["check"] for rec in records if rec["result"]["status"] != "pass"]
        return [f"selftest checks failed: {failed}"] if failed else []
    if spec["argv"][0] == "betti" and "-d" not in spec["argv"]:
        return oracles.betti_vector(records[0]["result"]["betti"], int(spec["argv"][3]))
    return [] if len(records) == 1 else [f"{len(records)} records, expected 1"]
