"""The benchmark's tracer wraps nilhom names by attribute; each must still exist."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER_ONLY = "# noqa: F401 - perfbench wraps it by name"


def test_tracer_finds_every_wrapped_name():
    # perfbench/tracing.py patches module attributes such as rep.matrix_rank
    # and lie_homology.rank by name; a removed name raises AttributeError here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracer_sees_rep_action_matrix_under_gl_conjugation():
    # aut reads its GL actions from rep through the module attribute, so the
    # tracer's rep.action_matrix wrapper records them inside an open item
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    script = (
        "import tracing\n"
        "from nilhom import aut\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "tracer.item = 'probe'\n"
        "aut.gl_conjugation_on_ia([[0, 1], [1, 0]], 2, 3)\n"
        "tracer.item = None\n"
        "print(sorted({span[1] for span in tracer.spans}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "'rep.action_matrix'" in proc.stdout, proc.stdout


def tracer_only_imports():
    """(module, bound name, other Name loads of it) for each import labelled TRACER_ONLY."""
    found = []
    for path in sorted((ROOT / "src" / "nilhom").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for line in lines:
            assert "noqa: F401" not in line or line.endswith(TRACER_ONLY), (path.name, line)
        tree = ast.parse(source)
        loads: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[node.id] = loads.get(node.id, 0) + 1
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if lines[alias.lineno - 1].endswith(TRACER_ONLY):
                        name = alias.asname or alias.name
                        found.append((path.stem, name, loads.get(name, 0)))
    return found


def test_tracer_only_imports_are_unused_and_wrapped():
    # a label on an import the module calls would hide a live dependency, and
    # one on a name the tracer does not wrap would keep an import for nothing
    labelled = tracer_only_imports()
    assert labelled
    assert [(module, name) for module, name, uses in labelled if uses] == []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    script = (
        "import importlib, json, sys, tracing\n"
        "tracing.install(tracing.Tracer())\n"
        "names = json.loads(sys.argv[1])\n"
        "print(json.dumps([[m, n] for m, n in names\n"
        "                  if not hasattr(getattr(importlib.import_module('nilhom.' + m), n), '__wrapped__')]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps([[m, n] for m, n, _ in labelled])],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []

