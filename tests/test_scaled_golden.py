"""Golden reports on scaled instances of the benchmark families.

The bundled fixtures and the benchmark's own sizes stop at rank r = 4;
these pins give the monomial and normal-form kernels an oracle above that.
Each problem is built with ``perfbench/gen.py`` (seed 1, the size given
here; ``perfbench/`` is only read) and run through the CLI in-process.
The exit codes and report digests were captured at commit 4b0ace1, before
monomials were interned, the three above r = 20 at 7b9fa50, before B's
flat ring was read off its validated table (that commit needed its pair
budget raised to reach them), the two at r = 32 at 600a483, before the
structure-constant table was kept sparse, and the Hom enumeration's k = 6
at 62e2b85, before D and the Hom targets read the same sparse table.

Monomials hash by identity, so no report may depend on the iteration order
of a set or a dict keyed by them, nor on string hashing: one fixture's
``compose-check`` is also run as a fresh interpreter under two values of
``PYTHONHASHSEED`` and must give the same bytes.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from descent_kit.cli import main
from conftest import FIXTURES

ROOT = Path(__file__).resolve().parent.parent


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_gen()

SCALED = [
    ("gfp-relations", 6, "descend --audit", 0,
     "2b9f343a2c919f0ae6e108be56db69d64e9e20819190595bb5dad07822c9d04c"),
    ("gfp-relations", 6, "compose-check", 0,
     "79b992fbb95da3b46f4395b7876862236fe2ae2c94f1318c0c38f1771d2591ce"),
    ("qq-differential", 8, "compose-check", 0,
     "79b992fbb95da3b46f4395b7876862236fe2ae2c94f1318c0c38f1771d2591ce"),
    ("nilpotent-obstruction", 8, "descend", 2,
     "0c9cdfa687f306160be0a2eabf7cdebbdd79a5b953b572d6e69e3f1e89f93e66"),
    # past r = 20, where B's table has more S-pairs than the default pair
    # budget; captured at 7b9fa50 with DEFAULT_PAIR_BUDGET raised to 10^6
    ("qq-differential", 22, "validate", 0,
     "a8412bce163bbadb6d1fd8573f3361ef221896f8cc5ddd81665b92214c9ce928"),
    ("qq-differential", 22, "descend --audit", 0,
     "585a99e3066c6608a71bb6089391c17940f5070faa1b3c779c9f41342472fa21"),
    ("nilpotent-obstruction", 24, "descend", 2,
     "b1121e54534c85d46e839458141561f1f964b25e82a6886c1cdb45197726977e"),
    # B's validate on 32 x 32 x 32 tables; captured at 600a483
    ("qq-differential", 32, "validate", 0,
     "a8412bce163bbadb6d1fd8573f3361ef221896f8cc5ddd81665b92214c9ce928"),
    ("nilpotent-obstruction", 32, "validate", 0,
     "a8412bce163bbadb6d1fd8573f3361ef221896f8cc5ddd81665b92214c9ce928"),
    # the Hom enumeration past the benchmark's k = 3; captured at 62e2b85
    ("gf2-hom-enumeration", 6, "adjoint-check", 0,
     "dee7bdbc3ca5e074ac6f16bbacb0e4c96d041f1c3576cbd08778f7477cc3dbbd"),
]


@pytest.mark.parametrize("workload,size,command,code,digest", SCALED)
def test_scaled_report(workload, size, command, code, digest, tmp_path):
    (name,) = GEN.SIZES[workload]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(GEN.generate(workload, 1, **{name: size}), indent=1),
                       encoding="utf-8")
    out = tmp_path / "report.json"
    with contextlib.redirect_stderr(io.StringIO()):
        got = main(command.split() + ["--input", str(problem), "--output", str(out)])
    assert (got, hashlib.sha256(out.read_bytes()).hexdigest()) == (code, digest)


def test_reports_do_not_depend_on_hash_seeds(tmp_path):
    reports = []
    for seed in ("0", "1"):
        out = tmp_path / f"report-{seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                            os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "descent_kit.cli", "compose-check",
             "--input", str(FIXTURES / "compose_difference.json"), "--output", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert hashlib.sha256(reports[0]).hexdigest() == (
        "7260a986d0fad628fe465f92026704e54927c94d77ab701545a15a327f759aa2")
