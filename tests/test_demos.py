"""Every demo script runs to completion and prints something.

The demos that import ``tests/paper_checks.py`` also run in a fresh
interpreter with pytest and hypothesis blocked, the way a reader runs them.
"""

import contextlib
import io
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CHECKED = [demo for demo in DEMOS if "paper_checks" in demo.read_text()]

# the child: make importing the test tools fail, then run the demo
BLOCKED = """
import runpy, sys
sys.modules["pytest"] = sys.modules["hypothesis"] = None
runpy.run_path(sys.argv[1], run_name="__main__")
"""


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, monkeypatch):
    # the CLI walkthrough starts ``python -m descent_kit.cli`` subprocesses
    path = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(ROOT / "src"), path])))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue().strip()


@pytest.mark.parametrize("demo", CHECKED, ids=lambda p: p.stem)
def test_demo_runs_without_the_test_tools(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", BLOCKED, str(demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
