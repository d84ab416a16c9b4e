"""What importing the package and running a command load.

``import descent_kit`` loads no submodule: each public name is imported
from its submodule on first access.  A command imports only the layers it
runs, so ``validate`` never loads the descent, homomorphism or composition
code.  The import checks run in fresh interpreters, since this process has
long since loaded everything.  The modules from outside the package that
package modules import at their top are listed, since every CLI process
pays for them at start-up.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import descent_kit
from conftest import FIXTURES

# the public names of the package by submodule; a name added or dropped
# is a change to this table
EXPORTED = {
    "scalars": ["GF", "QQ", "ScalarField"],
    "polynomials": ["DegRevLex", "Monomial", "Polynomial", "parse_polynomial", "render"],
    "groebner": ["GroebnerBasis", "buchberger", "buchberger_extended", "normal_form",
                 "staircase"],
    "presented": ["PresentedRing"],
    "structure": ["AlgebraElement", "StructureAlgebra", "evaluate_poly"],
    "dalgebra": ["DCoefficientAlgebra", "build_d_algebra", "difference_algebra",
                 "dual_numbers", "dual_numbers_times_field", "product_of_fields",
                 "truncated_jets"],
    "dstructures": ["DStructure", "truncated_operator_polynomials"],
    "tower": ["OperatorTower", "PresentedBAlgebra"],
    "descent_matrix": ["DescentMatrix", "associated_matrix", "invertibility_equivalences"],
    "matrices": ["RingMatrix"],
    "weil": ["WeilDescentResult", "tau_forward", "tau_inverse", "weil_descend"],
    "weil_d": ["DDescentResult", "descend_d_structure", "rederive_images", "tau_d_forward",
               "tau_d_inverse", "verify_d_hom"],
    "compose": ["commutes", "compose_descent_check", "compose_structures", "compose_towers",
                "gamma_swap", "tensor_coefficients"],
    "homs": ["adjoint_evidence", "adjunction_audit", "enumerate_descended_homs",
             "enumerate_homs", "enumerate_upstairs_homs"],
    "problem": ["ProblemDescription", "load_problem", "problem_from_file"],
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)

# modules validate has no use for
NOT_FOR_VALIDATE = {"compose", "homs", "weil", "weil_d", "descent_matrix", "matrices"}

# the modules from outside the package that some package module imports at
# its top, outside any function: a CLI process loads them all before its
# command runs, and start-up is most of a run on small inputs, so one added
# here is a change to this set
STARTUP_IMPORTS = frozenset({
    "__future__", "gc", "getopt", "heapq", "importlib", "itertools", "json",
    "os", "sys", "time", "types", "weakref",
})


def loaded_modules(code: str, *flags) -> set:
    """The modules loaded once ``code`` has run in a fresh interpreter
    started with ``flags``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(FIXTURES.parent / "src"), env.get("PYTHONPATH")])
    )
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_submodules(code: str) -> set:
    """The ``descent_kit`` submodules loaded once ``code`` has run in a fresh
    interpreter."""
    return {name.split(".", 1)[1] for name in loaded_modules(code)
            if name.startswith("descent_kit.")}


def test_importing_the_package_loads_no_submodule():
    assert loaded_submodules("import descent_kit") == set()


def test_validate_loads_only_what_it_runs():
    loaded = loaded_submodules(
        "import os\n"
        "from descent_kit.cli import main\n"
        f"assert main(['validate', '--input', {str(FIXTURES / 'differential.json')!r},"
        " '--output', os.devnull]) == 0"
    )
    assert "problem" in loaded
    assert loaded.isdisjoint(NOT_FOR_VALIDATE)


def test_validate_over_a_prime_field_loads_no_fractions():
    """Scalars over GF(p) are ints, so ``fractions`` and the ``decimal`` it
    loads stay out of the process; ``-S`` keeps out what site imports."""
    loaded = loaded_modules(
        "import os\n"
        "from descent_kit.cli import main\n"
        f"assert main(['validate', '--input', {str(FIXTURES / 'unit_pivot.json')!r},"
        " '--output', os.devnull]) == 0", "-S")
    assert "descent_kit.scalars" in loaded
    assert loaded.isdisjoint({"fractions", "decimal"})


def test_every_exported_name_resolves_to_its_submodule_object():
    assert sorted(descent_kit.__all__) == NAMES
    for module, names in EXPORTED.items():
        submodule = importlib.import_module(f"descent_kit.{module}")
        for name in names:
            assert getattr(descent_kit, name) is getattr(submodule, name)


def test_dir_lists_every_name():
    assert set(NAMES) | {"__version__"} <= set(dir(descent_kit))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from descent_kit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(descent_kit.__all__) == NAMES


def top_imports(tree):
    """The top-level names of the modules ``tree`` imports outside function
    bodies, relative imports left out."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module.split(".")[0]
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes.extend(ast.iter_child_nodes(node))


def test_start_up_imports_are_the_listed_ones():
    imported = set()
    for path in (FIXTURES.parent / "src" / "descent_kit").glob("*.py"):
        imported.update(top_imports(ast.parse(path.read_text(encoding="utf-8"))))
    assert imported - {"descent_kit"} == STARTUP_IMPORTS
