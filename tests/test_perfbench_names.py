"""The benchmark's tracer wraps nilhom names by attribute; each must still exist."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
