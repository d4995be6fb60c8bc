"""The package resolves its names lazily; each check runs in a fresh interpreter.

The pytest process has already imported every nilhom module, so what a bare
import loads can only be seen in a new process.  The last test calls the
public API through those names, in process, to check that it refuses bad
input.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nilhom

ROOT = Path(__file__).resolve().parents[1]
PUBLIC_MODULES = ("exact_linalg", "free_lie", "lie_homology", "aut", "nilgroup", "rep")


def _run(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(statement: str) -> list[str]:
    listing = "sorted(m for m in sys.modules if m.split('.')[0] == 'nilhom')"
    script = f"import json, sys\n{statement}\nprint(json.dumps({listing}))\n"
    return json.loads(_run(script))


def test_import_loads_no_submodule():
    assert _loaded_after("import nilhom") == ["nilhom"]
    assert _loaded_after("import nilhom.cache") == ["nilhom", "nilhom.cache"]
    assert _loaded_after("from nilhom import cache") == ["nilhom", "nilhom.cache"]


# the order in which the nilhom modules below cli run when a command loads them all
RUN_ORDER = ("exact_linalg", "free_lie", "weights", "lie_homology", "rep", "aut", "nilgroup", "invariants")
# what every command loads before its handler runs
CLI_BASE = ["nilhom", "nilhom.cache", "nilhom.cli", "nilhom.exact_linalg", "nilhom.free_lie"]

# records each nilhom module as its body finishes running, then runs one command
_CLI_SCRIPT = """\
import contextlib, importlib.abc, importlib.machinery, io, json, sys

ran = []


class Recorder(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if not name.startswith("nilhom."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        run = spec.loader.exec_module

        def exec_module(module):
            run(module)
            ran.append(name.split(".", 1)[1])

        spec.loader.exec_module = exec_module
        return spec


sys.meta_path.insert(0, Recorder())
from nilhom.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "nilhom")
print(json.dumps({"code": code, "loaded": loaded, "ran": ran}))
"""


def _cli_loads(argv: list[str]) -> list[str]:
    """The nilhom modules `nilhom <argv>` loads in a fresh interpreter, sorted.

    Also checks that the command succeeds, and that the modules below cli
    ran in an order that keeps RUN_ORDER.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_SCRIPT, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0, argv
    ran = [name for name in report["ran"] if name in RUN_ORDER]
    assert ran == sorted(ran, key=RUN_ORDER.index), (argv, report["ran"])
    return report["loaded"]


def test_warm_hit_hall_and_witt_load_only_cache_and_free_lie(tmp_path):
    betti = ["betti", "group", "-r", "2", "-c", "3", "--cache-dir", str(tmp_path)]
    assert _cli_loads(betti) == sorted(CLI_BASE + ["nilhom.lie_homology", "nilhom.weights"])  # cold
    assert _cli_loads(betti) == CLI_BASE  # warm
    assert _cli_loads(["hall", "-r", "2", "-c", "3", "--no-cache"]) == CLI_BASE
    assert _cli_loads(["witt", "-r", "2", "--max-degree", "3", "--no-cache"]) == CLI_BASE


def test_bch_loads_neither_aut_nor_rep():
    loaded = _cli_loads(["bch", "-r", "2", "-c", "3", "--u", "1:1", "--v", "2:1", "--no-cache"])
    assert loaded == sorted(CLI_BASE + ["nilhom.lie_homology", "nilhom.nilgroup", "nilhom.weights"])


def test_selftest_loads_every_module_in_run_order():
    # _cli_loads checks the order: all eight modules below cli, exactly RUN_ORDER
    loaded = _cli_loads(["selftest", "--no-cache"])
    assert loaded == sorted(["nilhom", "nilhom.cache", "nilhom.cli"] + [f"nilhom.{m}" for m in RUN_ORDER])


def test_every_public_name_resolves_to_its_object():
    script = (
        "import importlib, json, nilhom\n"
        "report = {}\n"
        f"for name in {PUBLIC_MODULES!r}:\n"
        "    module = importlib.import_module('nilhom.' + name)\n"
        "    report[name] = {x: getattr(nilhom, x) is getattr(module, x) for x in module.__all__}\n"
        "print(json.dumps(report))\n"
    )
    report = json.loads(_run(script))
    mismatched = [(m, x) for m, names in report.items() for x, same in names.items() if not same]
    assert mismatched == []
    # no name is public in two modules, so the lookup order cannot change an answer
    names = [x for m in PUBLIC_MODULES for x in report[m]]
    assert len(names) == len(set(names))
    for name in ("row_space_basis", "bracket_coordinates", "evaluate", "DominanceReport"):
        assert name in names


def test_submodule_attribute_after_bare_import():
    assert _run("import nilhom\nprint(nilhom.lie_homology.group_betti(2, 2))").strip() == "[1, 2, 2, 1]"


def test_unknown_name_raises_attribute_error():
    script = (
        "import nilhom\n"
        "try:\n"
        "    nilhom.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    out = _run(script)
    assert "'nilhom'" in out and "no_such_name" in out


def test_version_is_declared_once():
    # the cache key holds nilhom.__version__, so the build reads it from there
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in project["project"] and "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "nilhom.__version__"}


def _calls_by_function(tree, name):
    """(innermost enclosing function, line) of each call to ``name`` or ``.name``."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) == name:
                    found.append((where, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner)

    visit(tree, None)
    return found


def test_hall_bracket_rows_stay_inside_free_lie():
    # the Hall basis's bracket rows have one format, known only in free_lie:
    # other modules pass the basis to bracket_coordinates, and the one caller
    # of structure_constants() hands its copy to the GradedLieAlgebra constructor
    readers, callers = [], []
    for path in sorted((ROOT / "src" / "nilhom").glob("*.py")):
        source = path.read_text()
        if re.search(r"\b_(bracket_)?rows\b", source):
            readers.append(path.stem)
        callers += [(path.stem, where) for where, _ in _calls_by_function(ast.parse(source), "structure_constants")]
    assert readers == ["free_lie"]
    assert callers == [("lie_homology", "free_nilpotent_lie")]


def test_rep_lists_combinations_only_for_matrices():
    # weights are counted, not listed, and the Weyl formula's sign comes from
    # the cycles of a sort: only the action matrix's basis calls
    # itertools.combinations in rep
    tree = ast.parse((ROOT / "src" / "nilhom" / "rep.py").read_text())
    callers = {where for where, _ in _calls_by_function(tree, "combinations")}
    assert callers == {"_action"}


def test_weight_tables_are_counted_and_spread_only_in_weights():
    # weights is the one module that counts a weight table or walks an S_r
    # orbit: it imports no nilhom module, rep counts Lambda^q through it, and
    # betti_number sums orbit sizes without spreading a table
    src = ROOT / "src" / "nilhom"
    imported = set()
    for node in ast.walk(ast.parse((src / "weights.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported == {"__future__", "collections", "typing"}
    homology = ast.parse((src / "lie_homology.py").read_text())
    for name in ("weighted_betti", "orbit"):
        assert "betti_number" not in {where for where, _ in _calls_by_function(homology, name)}
    rep_tree = ast.parse((src / "rep.py").read_text())
    assert "_weights" in {where for where, _ in _calls_by_function(rep_tree, "wedge_counts")}
    defined = [
        (path.stem, node.name)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in ("orbit", "_orbit")
    ]
    assert defined == [("weights", "orbit")]


# public calls whose arguments the API refuses: (call, exception, message fragment)
REFUSED_INPUTS = {
    "matrix_shape": (lambda: nilhom.RationalMatrix(-1, 2), ValueError, "dimensions must be non-negative"),
    "determinant": (lambda: nilhom.determinant(nilhom.RationalMatrix(2, 3)), ValueError, "needs a square matrix"),
    "invert": (lambda: nilhom.invert(nilhom.RationalMatrix(2, 3)), ValueError, "only square matrices"),
    "exp_nilpotent": (lambda: nilhom.exp_nilpotent(nilhom.RationalMatrix(2, 3)), ValueError, "needs a square matrix"),
    "matmul": (lambda: nilhom.RationalMatrix(2, 3) @ nilhom.RationalMatrix(2, 3), ValueError, "shape mismatch"),
    "add": (lambda: nilhom.RationalMatrix(2, 3) + nilhom.RationalMatrix(3, 2), ValueError, "shape mismatch"),
    "vstack": (
        lambda: nilhom.RationalMatrix.vstack([nilhom.RationalMatrix(1, 2), nilhom.RationalMatrix(1, 3)]),
        ValueError, "column count mismatch",
    ),
    "witt_rank": (lambda: nilhom.witt_dimension(-1, 2), ValueError, "rank must be non-negative"),
    "hall_rank": (lambda: nilhom.HallBasis(-1, 2), ValueError, "rank must be non-negative"),
    "hall_class": (lambda: nilhom.HallBasis(2, 0), ValueError, "class must be at least 1"),
    "free_rank": (lambda: nilhom.free_nilpotent_lie(-1, 2), ValueError, "rank must be non-negative"),
    "free_class": (lambda: nilhom.free_nilpotent_lie(2, 0), ValueError, "class must be at least 1"),
    "algebra_labels": (lambda: nilhom.GradedLieAlgebra(("x",), (), {}), ValueError, "equal length"),
    "algebra_zero": (lambda: nilhom.GradedLieAlgebra((), (), {}), ValueError, "weight_length is required"),
    "algebra_weights": (
        lambda: nilhom.GradedLieAlgebra(("x", "y"), ((1,), (1, 0)), {}), ValueError, "inconsistent multiweight"
    ),
    "algebra_target": (
        lambda: nilhom.GradedLieAlgebra(("x", "y"), ((1,), (1,)), {(0, 1): {2: 1}}), ValueError, "index 2 out of range"
    ),
    "betti_degree": (
        lambda: nilhom.weighted_betti(nilhom.free_nilpotent_lie(2, 2), -1), ValueError, "degree must be non-negative"
    ),
    "generator_letter": (lambda: nilhom.group_generator(nilhom.hall_basis(2, 2), 3), ValueError, "letter 3 outside 1..2"),
    "lcs_rank": (lambda: nilhom.lcs_ranks(0, 2), ValueError, "rank and class must be at least 1"),
    "center_rank": (lambda: nilhom.center_basis(0, 2), ValueError, "rank and class must be at least 1"),
    "const": (lambda: nilhom.Const(-1), ValueError, "constant dimension must be non-negative"),
    "lie": (lambda: nilhom.Lie(0), ValueError, "Lie layer degree must be at least 1"),
    "lie_interval": (lambda: nilhom.lie_interval(0, 2), ValueError, "lower degree must be at least 1"),
    "wedge": (lambda: nilhom.Wedge(-1, nilhom.Std()), ValueError, "exterior power must be non-negative"),
    "evaluate_rank": (lambda: nilhom.evaluate(nilhom.Std(), 0), ValueError, "rank must be at least 1"),
    "evaluate_text": (lambda: nilhom.evaluate("std", 2), TypeError, "not a representation expression: 'std'"),
    "schur_rank": (
        lambda: nilhom.schur_decompose_gl2(nilhom.evaluate(nilhom.Std(), 3)), ValueError, "only rank 2"
    ),
    "induced_degree": (lambda: nilhom.induced_map_lie([[1]], 0), ValueError, "degree must be at least 1"),
}


@pytest.mark.parametrize("case", REFUSED_INPUTS)
def test_public_calls_refuse_bad_input(case):
    call, error, fragment = REFUSED_INPUTS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
