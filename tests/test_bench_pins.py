"""The benchmark's correctness gate, run in-process as part of the suite.

For every workload of ``perfbench/gen.py`` and two of its variants, the
problem is generated and every CLI command the benchmark times is run on
it; the exit code and the sha256 of the report must equal the entry pinned
in ``perfbench/pins.json``.  ``perfbench/`` is only read here.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from descent_kit.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
VARIANTS = (0, 5)


def _load_benchmark():
    """perfbench/run.py, which imports perfbench/gen.py by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


BENCH = _load_benchmark()


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("workload", sorted(BENCH.gen.FAMILIES))
def test_reports_match_the_pins(workload, variant, tmp_path):
    pins = BENCH.load_pins(workload)[str(variant)]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(BENCH.gen.generate(workload, variant), indent=1),
                       encoding="utf-8")
    report = tmp_path / "report.json"
    for metric, args in BENCH.COMMANDS.items():
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(args + ["--input", str(problem), "--output", str(report)])
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        assert (metric, code, digest) == (metric, pins[metric]["exit"], pins[metric]["sha256"])
        report.unlink()
