"""The package resolves its names lazily; each check runs in a fresh interpreter.

The pytest process has already imported every nilhom module, so what a bare
import loads can only be seen in a new process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_loads_every_module():
    modules = ["nilhom", "nilhom.cache", "nilhom.cli", "nilhom.invariants"]
    modules += [f"nilhom.{name}" for name in PUBLIC_MODULES]
    assert _loaded_after("import nilhom.cli") == sorted(modules)


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
    for name in ("fraction_rows", "row_space_basis", "bracket_coordinates", "basis_weights", "DominanceReport"):
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
