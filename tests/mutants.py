"""A code-mutation sweep of the exact kernels: what does the suite miss?

    python3 tests/mutants.py --list                 # count the mutation points
    python3 tests/mutants.py --seed 1 --sample 50   # run a seeded sample
    python3 tests/mutants.py --seed 1 --sample 50 --root CHECKOUT
    python3 tests/mutants.py --module tower --sample 1000  # every point of one module

A mutation point is one small change to one module of ``MODULES``:

- ``+`` and ``-`` swapped;
- ``==`` / ``!=``, ``<`` / ``<=``, ``>`` / ``>=``, ``is`` / ``is not``,
  ``in`` / ``not in`` and ``and`` / ``or`` swapped;
- ``not x`` turned into ``bool(x)``;
- an int constant 0, 1 or 2 raised by one.

The points are read from the source with ``ast`` and the change is made in
the source text, so the rest of the module stays as it is.  A sample is
drawn with the seed given from all points, or from one module's with
``--module``.  Each mutant is written into a copy of the checkout in a
temporary directory, never into the checkout itself, and the kill set
runs there with ``pytest -x``: the pinned reports first
(``tests/test_golden.py``, ``tests/test_bench_pins.py``,
``tests/test_scaled_golden.py``), then the normal-form guard
(``tests/test_normal_forms.py``) and the kernel and pipeline tests.  A
mutant is killed when the run fails or passes its time limit.  Survivors
that ``EQUIVALENT`` lists are reported as equivalent, the rest as survived,
and the tool exits 1 when any mutant survived.  A point is named by the
function that holds it, its change and its ordinal there
(``descent_matrix.invertibility_equivalences: 0 -> 1 #2``), so the keys
of ``EQUIVALENT`` stay put when lines outside that function move.

A full population takes hours on a small machine, so the tool is kept out
of the test suite; its name does not start with ``test_``, so pytest does
not collect it.
"""

import argparse
import ast
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("matrices", "linear", "groebner", "dalgebra", "structure", "descent_matrix",
           "weil_d", "weil", "homs", "polynomials", "dstructures", "compose", "tower")
KILL_SET = (
    "test_golden.py", "test_bench_pins.py", "test_scaled_golden.py", "test_normal_forms.py",
    "test_matrices.py", "test_eliminator.py", "test_groebner.py",
    "test_normal_form_kernel.py", "test_known_prefix.py", "test_polynomials.py",
    "test_monomial_kernel.py", "test_arith_kernel.py", "test_structure.py",
    "test_dalgebra.py", "test_dstructures.py", "test_descent_matrix.py", "test_weil.py",
    "test_weil_d.py", "test_homs.py", "test_hom_enumeration.py", "test_compose.py",
    "test_work_counts.py", "test_acceptance.py", "test_cli.py",
)
# name of a mutation point (see ``mutation_points``) -> why no test can tell
# the mutant from the code; a name that is not a point of the package is
# an error, so a listed point cannot silently go stale
SAME_FOR_ANY_BASIS = ("clause (ii) of invertibility_equivalences is the invertibility of"
                      " Y M X, the same for every invertible X and Y")
EQUIVALENT = {
    "compose.tensor_coefficients: 0 -> 1 #3": "the last key of the pair sort breaks ties by"
                                              " a, and the stable sort of the a-major list"
                                              " already does",
    "descent_matrix.invertibility_equivalences: >= -> >": SAME_FOR_ANY_BASIS + "; the mutant"
                                                          " leaves X = Y = I when r = 2",
    "descent_matrix.invertibility_equivalences: 2 -> 3": SAME_FOR_ANY_BASIS + "; the mutant"
                                                         " leaves X = Y = I when r = 2",
    "descent_matrix.invertibility_equivalences: 0 -> 1": SAME_FOR_ANY_BASIS + "; the mutant"
                                                         " sets X's diagonal entry x[1][1] to"
                                                         " the 1 it holds, so X = I",
    "descent_matrix.invertibility_equivalences: 0 -> 1 #2": SAME_FOR_ANY_BASIS + "; the"
                                                            " mutant makes Y the diagonal"
                                                            " matrix diag(1, -1, 1, ...),"
                                                            " still invertible",
    "dstructures.truncated_operator_polynomials: 0 -> 1 #2": "with no names the window"
                                                             " adjoins no variable, and"
                                                             " the one level of words the"
                                                             " mutant builds is never read",
    "homs.enumerate_homs: 1 -> 2": "checks gets one more list than there are depths;"
                                   " holds reads depths 0 to len(free) only, so the"
                                   " extra list stays empty and unread",
    "structure.StructureAlgebra.coordinatize: and -> or": "coordinatize then also gives the"
                                                          " labels that do not occur an image,"
                                                          " which evaluation never reads",
}
SWAPS = {
    ast.Add: "-", ast.Sub: "+", ast.Eq: "!=", ast.NotEq: "==", ast.Lt: "<=", ast.LtE: "<",
    ast.Gt: ">=", ast.GtE: ">", ast.Is: "is not", ast.IsNot: "is", ast.In: "not in",
    ast.NotIn: "in", ast.And: "or", ast.Or: "and",
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in", ast.And: "and", ast.Or: "or",
}
TIME_LIMIT = 300  # seconds for one kill-set run, about 6x an unmutated one
MEMORY_LIMIT = 2 << 30  # bytes of address space for one kill-set run


class Source:
    """A module's text as bytes, addressed by the (line, column) pairs of
    ``ast``, whose columns count UTF-8 bytes."""

    def __init__(self, text):
        self.data = text.encode("utf-8")
        self.starts = [0]
        for line in self.data.split(b"\n"):
            self.starts.append(self.starts[-1] + len(line) + 1)

    def offset(self, line, col):
        return self.starts[line - 1] + col

    def start(self, node):
        return self.offset(node.lineno, node.col_offset)

    def end(self, node):
        return self.offset(node.end_lineno, node.end_col_offset)


def _operator(source, left, right, symbol):
    """The byte span of the operator ``symbol`` between two operand nodes."""
    lo, hi = source.end(left), source.start(right)
    gap = source.data[lo:hi]
    words = symbol.split()
    at = gap.find(words[0].encode())
    if len(words) == 1:
        return lo + at, lo + at + len(symbol)
    last = gap.find(words[-1].encode(), at + len(words[0]))
    return lo + at, lo + last + len(words[-1])


def _scoped(tree, module):
    """Every node of ``tree`` with the dotted name of the function or class
    that holds it (``module.Class.method``), as ``tests/test_raise_reach.py``
    names its raise statements."""
    stack = [(tree, module)]
    while stack:
        node, scope = stack.pop()
        yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def mutation_points(module, text):
    """Every mutation point of a module, in source order, as (name, line,
    change, edits); ``edits`` lists (start, end, replacement bytes).  A
    point is named by the function that holds it and its change
    (``compose.tensor_coefficients: 0 -> 1``), the second and later points
    of that name by their ordinal (``... #2``), so that an edit outside the
    function does not rename it."""
    source = Source(text)
    tree = ast.parse(text)
    # positions inside f-strings are not reliable before Python 3.12
    in_fstrings = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                   for inner in ast.walk(node)}
    points = []
    for node, scope in _scoped(tree, module):
        if id(node) in in_fstrings:
            continue
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            span = _operator(source, node.left, node.right, SYMBOLS[type(node.op)])
            points.append((scope, node.lineno,
                           f"{SYMBOLS[type(node.op)]} -> {SWAPS[type(node.op)]}",
                           [(*span, SWAPS[type(node.op)].encode())]))
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops,
                                       node.comparators):
                if type(op) in SWAPS:
                    span = _operator(source, left, right, SYMBOLS[type(op)])
                    points.append((scope, node.lineno,
                                   f"{SYMBOLS[type(op)]} -> {SWAPS[type(op)]}",
                                   [(*span, SWAPS[type(op)].encode())]))
        elif isinstance(node, ast.BoolOp):
            symbol = SYMBOLS[type(node.op)]
            edits = [(*_operator(source, a, b, symbol), SWAPS[type(node.op)].encode())
                     for a, b in zip(node.values, node.values[1:])]
            points.append((scope, node.lineno, f"{symbol} -> {SWAPS[type(node.op)]}", edits))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            operand = source.data[source.start(node.operand):source.end(node.operand)]
            points.append((scope, node.lineno, "not x -> bool(x)",
                           [(source.start(node), source.end(node), b"bool(" + operand + b")")]))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and node.value in (0, 1, 2)):
            points.append((scope, node.lineno, f"{node.value} -> {node.value + 1}",
                           [(source.start(node), source.end(node),
                             str(node.value + 1).encode())]))
    points.sort(key=lambda p: (p[3][0][0], p[2]))
    named, counts = [], {}
    for scope, line, change, edits in points:
        if not _changes_one_node(text, edits):
            continue
        name = f"{scope}: {change}"
        counts[name] = counts.get(name, 0) + 1
        if counts[name] > 1:
            name += f" #{counts[name]}"
        named.append((module, name, line, change, edits))
    return named


def _changes_one_node(text, edits):
    """True when the edits give a module that parses and differs from
    ``text``: a guard against an edit that breaks the module."""
    try:
        return ast.dump(ast.parse(mutated(text, edits))) != ast.dump(ast.parse(text))
    except SyntaxError:
        return False


def mutated(text, edits):
    data = Source(text).data
    for start, end, replacement in sorted(edits, reverse=True):
        data = data[:start] + replacement + data[end:]
    return data


def population(root):
    points = []
    for module in MODULES:
        text = (root / "src" / "descent_kit" / f"{module}.py").read_text(encoding="utf-8")
        points += mutation_points(module, text)
    return points


def _limits():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def kill_run(copy, tests):
    """True when the kill set fails (or runs out of time) on ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIME_LIMIT, preexec_fn=_limits)
    except subprocess.TimeoutExpired:
        return True
    return proc.returncode != 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="the checkout to mutate")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sample", type=int, default=50)
    parser.add_argument("--module", choices=MODULES, help="draw only this module's points")
    parser.add_argument("--list", action="store_true", help="only count the points")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    points = population(root)
    stale = sorted(set(EQUIVALENT) - {name for _, name, _, _, _ in points})
    if stale:
        raise SystemExit(f"EQUIVALENT names no mutation point: {stale}")
    points = [p for p in points if args.module in (None, p[0])]
    if args.list:
        for module in MODULES:
            print(f"{sum(p[0] == module for p in points):5d}  {module}")
        print(f"{len(points):5d}  total")
        return 0
    sample = random.Random(args.seed).sample(points, min(args.sample, len(points)))
    tests = [f"tests/{name}" for name in KILL_SET if (root / "tests" / name).exists()]
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch) / "checkout"
        ignore = shutil.ignore_patterns("__pycache__", ".git", ".pytest_cache", ".hypothesis",
                                        ".perfbench", ".benchmarks")
        for part in ("src", "tests", "fixtures", "perfbench", "demos", "README.md"):
            if (root / part).is_dir():
                shutil.copytree(root / part, copy / part, ignore=ignore)
            elif (root / part).exists():
                shutil.copy2(root / part, copy / part)
        if kill_run(copy, tests):
            raise SystemExit("the kill set fails on the unmutated copy")
        counts = {"killed": 0, "survived": 0, "equivalent": 0}
        for module, name, line, change, edits in sample:
            path = copy / "src" / "descent_kit" / f"{module}.py"
            original = path.read_bytes()
            path.write_bytes(mutated(original.decode("utf-8"), edits))
            started = time.perf_counter()
            try:
                killed = kill_run(copy, tests)
            finally:
                path.write_bytes(original)
            outcome = ("killed" if killed else
                       "equivalent" if name in EQUIVALENT else "survived")
            counts[outcome] += 1
            print(f"{outcome:10s} {name}  ({module}.py:{line},"
                  f" {time.perf_counter() - started:.0f} s)", flush=True)
    total = len(sample) - counts["equivalent"]
    print(f"killed {counts['killed']} of {total} non-equivalent mutants"
          f" ({100 * counts['killed'] / max(total, 1):.0f}%), {counts['survived']} survived,"
          f" {counts['equivalent']} equivalent; seed {args.seed}, {len(points)} points")
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
