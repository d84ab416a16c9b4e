"""The package makes no reference cycles, so ``cli.run`` can turn the cyclic
collector off for its process.

Each command runs in process with the collector off and
``gc.DEBUG_SAVEALL`` set, so one collection afterwards saves in
``gc.garbage`` every object that only the collector could have freed.
None of them may belong to the package.  What remains comes from the
standard library (the JSON encoder's closures), once per report, so its
size must not grow with the instance: a cycle made per candidate or per
basis element would.
"""

import contextlib
import gc
import importlib
import io
import json
import os
import pkgutil

import pytest

import descent_kit
from descent_kit.cli import main
from conftest import FIXTURES
from test_scaled_golden import GEN

# every module is imported up front: a first import inside a command would
# leave the import system's own garbage in the count
for _info in pkgutil.iter_modules(descent_kit.__path__):
    importlib.import_module(f"descent_kit.{_info.name}")

COMMANDS = ["validate", "matrix", "descend", "descend --audit", "adjoint-check",
            "compose-check"]


def _is_package_object(obj) -> bool:
    module = getattr(obj, "__module__", None) if callable(obj) else None
    module = module or type(obj).__module__
    return isinstance(module, str) and module.startswith("descent_kit")


def cyclic_garbage(argv) -> list:
    """The objects a command leaves that only the cyclic collector frees."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            main(argv + ["--output", os.devnull])
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def _problem(tmp_path, workload, **sizes):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(GEN.generate(workload, 1, **sizes), indent=1), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_fixture_command_leaves_no_package_cycles(fixture, command):
    garbage = cyclic_garbage(command.split() + ["--input", str(FIXTURES / fixture)])
    assert [obj for obj in garbage if _is_package_object(obj)] == []


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("workload", sorted(GEN.FAMILIES))
def test_workload_command_leaves_no_package_cycles(workload, command, tmp_path):
    garbage = cyclic_garbage(command.split() + ["--input", _problem(tmp_path, workload)])
    assert [obj for obj in garbage if _is_package_object(obj)] == []


@pytest.mark.parametrize("workload,command,small,large", [
    ("gf2-hom-enumeration", "adjoint-check", 3, 5),
    ("qq-differential", "descend --audit", 4, 8),
])
def test_cyclic_garbage_does_not_grow_with_the_instance(workload, command, small, large,
                                                        tmp_path):
    (name,) = GEN.SIZES[workload]
    sizes = [len(cyclic_garbage(command.split()
                                + ["--input", _problem(tmp_path, workload, **{name: size})]))
             for size in (small, large)]
    assert sizes[0] == sizes[1]
