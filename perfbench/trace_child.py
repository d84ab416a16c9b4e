"""Run one descent-kit CLI command with its layers traced from outside.

    python3 perfbench/trace_child.py STATS.json validate --input p.json --output r.json

Before calling ``descent_kit.cli.main(argv)`` this wraps the functions and
methods named in ``LAYERS``.  A function imported by name into another
module is rebound there too.  Spans are folded into per-layer totals in
memory and written to STATS.json when the command has finished:

- ``calls``: every call of the layer's functions;
- ``s``: wall time of the outermost spans of the layer (a call nested in
  another call of the same layer is not counted twice);
- ``self_s``: span time minus the time covered by child spans;
- ``raised``: exceptions leaving a span, by class name.

``enumerate_homs`` also records its candidate count, computed from its
arguments with tracing paused, and the number of homomorphisms returned.
The package itself holds no tracing code.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

# layer name -> functions and methods, as (module, qualified name)
LAYERS = {
    "problem.load_problem": [("problem", "load_problem")],
    "problem.dump_report": [("problem", "dump_report")],
    "scalars.normalize": [("scalars", "ScalarField.normalize")],
    "scalars.inv": [("scalars", "ScalarField.inv")],
    "polynomials.arith": [
        ("polynomials", "Polynomial.__add__"),
        ("polynomials", "Polynomial.__sub__"),
        ("polynomials", "Polynomial.__mul__"),
        ("polynomials", "Polynomial.term_mul"),
        ("polynomials", "Polynomial.scale"),
    ],
    "polynomials.order_key": [("polynomials", "DegRevLex.key")],
    "polynomials.substitute": [("polynomials", "Polynomial.substitute")],
    "groebner.normal_form": [("groebner", "normal_form")],
    "groebner.buchberger": [("groebner", "buchberger"), ("groebner", "buchberger_extended")],
    "presented.unit_inverse": [("presented", "PresentedRing.unit_inverse")],
    "presented.extend": [("presented", "PresentedRing.extend")],
    "structure.multiply_coords": [("structure", "StructureAlgebra.multiply_coords")],
    "structure.evaluate_poly": [("structure", "evaluate_poly")],
    "structure.validate": [("structure", "StructureAlgebra.validate")],
    "dalgebra.build_d_algebra": [("dalgebra", "build_d_algebra")],
    "dstructures.apply": [("dstructures", "DStructure.apply")],
    "dstructures.validate": [("dstructures", "DStructure.validate")],
    "dstructures.is_d_ideal": [("dstructures", "DStructure.is_d_ideal")],
    "dstructures.quotient": [("dstructures", "DStructure.quotient")],
    "tower.validate": [("tower", "OperatorTower.validate")],
    "descent_matrix.associated_matrix": [("descent_matrix", "associated_matrix")],
    "matrices.charpoly": [("matrices", "RingMatrix.charpoly")],
    "matrices.solve_cramer": [("matrices", "RingMatrix.solve_cramer")],
    "matrices.inverse": [("matrices", "RingMatrix.inverse")],
    "matrices.adjugate": [("matrices", "RingMatrix.adjugate")],
    "linear.rref": [("linear", "rref")],
    "weil.weil_descend": [("weil", "weil_descend")],
    "weil_d.descend_d_structure": [("weil_d", "descend_d_structure")],
    "weil_d.verify_d_hom": [("weil_d", "verify_d_hom")],
    "weil_d.rederive_images": [("weil_d", "rederive_images")],
    "homs.enumerate_homs": [("homs", "enumerate_homs")],
    "homs.adjoint_evidence": [("homs", "adjoint_evidence")],
    "compose.compose_descent_check": [("compose", "compose_descent_check")],
}


class Tracer:
    """Per-layer span totals, kept in memory until the command ends."""

    def __init__(self):
        self.totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "raised": {}}
                       for name in LAYERS}
        self.depth = dict.fromkeys(LAYERS, 0)
        self.stack = []  # child time covered so far, one entry per open span
        self.paused = False
        self.candidates = 0
        self.accepted = 0

    def wrap(self, layer, fn):
        totals = self.totals[layer]
        depth = self.depth
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            depth[layer] += 1
            cover = [0.0]
            stack.append(cover)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised = totals["raised"]
                raised[type(exc).__name__] = raised.get(type(exc).__name__, 0) + 1
                raise
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                depth[layer] -= 1
                totals["calls"] += 1
                totals["self_s"] += span - cover[0]
                if not depth[layer]:
                    totals["s"] += span

        return traced

    def count_homs(self, fn):
        """Record candidates and results of enumerate_homs around its span."""
        from descent_kit.errors import DescentKitError

        def counted(source, target, fixed=None, *args, **kwargs):
            p = target.field.characteristic
            if p:
                self.paused = True
                try:
                    free = [v for v in source.variables if v not in (fixed or {})]
                    self.candidates += (p ** len(target.staircase())) ** len(free)
                except DescentKitError:
                    pass  # enumerate_homs raises its own error for this input
                finally:
                    self.paused = False
            homs = fn(source, target, fixed, *args, **kwargs)
            self.accepted += len(homs)
            return homs

        return counted

    def install(self):
        """Wrap every layer function and rebind it wherever it is held."""
        package = importlib.import_module("descent_kit")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"descent_kit.{info.name}")
        modules = [m for name, m in sys.modules.items()
                   if name == "descent_kit" or name.startswith("descent_kit.")]
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                owner = sys.modules[f"descent_kit.{module_name}"]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapped = self.wrap(layer, original)
                if layer == "homs.enumerate_homs":
                    wrapped = self.count_homs(wrapped)
                setattr(owner, attr, wrapped)
                if path:
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapped)

    def stats(self) -> dict:
        return {"layers": self.totals,
                "homs": {"candidates": self.candidates, "accepted": self.accepted}}


def main(argv) -> int:
    stats_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from descent_kit import cli

    try:
        return cli.main(cli_argv)
    finally:
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.stats(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
