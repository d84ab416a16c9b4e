"""Command line interface.

Exit codes: 0 on success, 1 on malformed input, 2 on a genuine
mathematical obstruction (a non-invertible descent matrix).  Reports are
deterministic JSON; timing goes to stderr so report files stay
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
import time

from .compose import compose_descent_check
from .descent_matrix import associated_matrix, classify_descent_matrix, invertibility_equivalences
from .dstructures import truncated_operator_polynomials
from .errors import DescentKitError, NonInvertibleMatrix, ParseError
from .homs import DEFAULT_BUDGET, adjoint_evidence, adjunction_audit
from .matrices import RingMatrix
from .problem import dump_report, problem_from_file, render_presentation
from .weil_d import descend_d_structure, rederive_images, verify_d_hom


def _write_report(report: dict, path):
    text = dump_report(report)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(problem, args):
    report = {"status": "ok", "certificates": problem.certificates}
    if args.truncate is not None:
        window = truncated_operator_polynomials(
            problem.e, list(problem.c.generators), args.truncate
        )
        report["truncated_window"] = {
            "depth": args.truncate,
            "variables": [
                v for v in window.carrier.variables
                if v not in problem.a_ring.variables
            ],
        }
    return report, 0


def _cmd_matrix(problem, args):
    dm = classify_descent_matrix(associated_matrix(problem.tower))
    report = {
        "matrix": dm.render(),
        "invertible": dm.invertible,
        "block_layout": {"rank": dm.r, "coefficient_dimension": dm.l,
                         "vector_position": "(i, j) -> (j-1)*r + i"},
    }
    if dm.inverse is not None:
        report["inverse"] = dm.inverse.render()
    if dm.witness:
        report["witness"] = dm.witness
    equivalences = []
    for factor in range(problem.coeff.factor_count):
        images = problem.tower.endo_images(factor)
        equivalences.append(
            {"factor": factor + 1,
             **invertibility_equivalences(problem.tower.algebra, images)}
        )
    report["endomorphism_equivalences"] = equivalences
    return report, 0


def _descend_report(problem, result, audited: bool) -> dict:
    from .polynomials import render as render_poly

    ring = result.descended
    report = {
        "matrix": result.matrix.render(),
        "inverse": result.matrix.inverse.render(),
        "presentation": render_presentation(ring, result.structure),
        "descent_ideal": [
            render_poly(g, ring.order) for g in result.classical.ideal_generators
        ],
        "certificates": result.certificates,
    }
    if audited:
        rederived = rederive_images(result)
        unit_images = {
            g: result.classical.unit_image(g) for g in result.classical.source.generators
        }
        audit = {
            "matrix_times_inverse_is_identity": (
                result.matrix.matrix * result.matrix.inverse
                == RingMatrix.identity(result.matrix.ring, result.matrix.r * result.matrix.l)
            ),
            "unit_is_operator_hom": verify_d_hom(
                unit_images, result.c_structure, result.structure,
                result.matrix, result.classical,
            ),
            "descent_ideal_closed": result.pre_structure.is_d_ideal(
                [g for g in result.classical.ideal_generators if not g.is_zero()]
            ),
            "independent_rederivation_matches": all(
                ring.equal(a, b)
                for name in rederived
                for a, b in zip(rederived[name], result.structure.images[name])
            ),
        }
        audit["ok"] = all(audit.values())
        report["audit"] = audit
    return report


def _cmd_descend(problem, args):
    result = descend_d_structure(problem.c, problem.g_structure)
    return _descend_report(problem, result, args.audit), 0


def _cmd_adjoint_check(problem, args):
    dm = classify_descent_matrix(associated_matrix(problem.tower))
    if dm.invertible == "no":
        if problem.z_coords is None:
            raise ParseError(
                "adjoint-check on a non-invertible instance needs a \"z\" entry"
            )
        report = adjoint_evidence(problem.tower, problem.z_coords)
        report["matrix_invertible"] = False
        return report, 0
    if problem.u is None:
        raise ParseError("adjoint-check needs a test algebra \"R\"")
    result = descend_d_structure(problem.c, problem.g_structure)
    report = adjunction_audit(result, problem.u, args.budget)
    report["matrix_invertible"] = True
    return report, 0


def _cmd_compose_check(problem, args):
    if problem.second is None:
        raise ParseError("compose-check needs a \"second\" structure block")
    report = compose_descent_check(
        problem.c,
        problem.g_images,
        problem.second["tower"],
        problem.second["g_images"],
    )
    return report, 0


_COMMANDS = {
    "validate": _cmd_validate,
    "matrix": _cmd_matrix,
    "descend": _cmd_descend,
    "adjoint-check": _cmd_adjoint_check,
    "compose-check": _cmd_compose_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="descent-kit",
        description="Exact Weil restriction for difference/differential algebras",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", required=True, help="problem description (JSON)")
    parser.add_argument("--output", help="write the report here instead of stdout")
    parser.add_argument("--audit", action="store_true",
                        help="re-verify every certificate from scratch")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="candidate cap for homomorphism enumeration")
    parser.add_argument("--truncate", type=int, default=None,
                        help="also build the operator-polynomial window of this depth")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        problem = problem_from_file(args.input)
        report, code = _COMMANDS[args.command](problem, args)
        outcome = "done in"
    except NonInvertibleMatrix as exc:
        report = {"status": "obstruction", "error": "NonInvertibleMatrix",
                  "witness": exc.witness}
        if exc.matrix is not None:
            report["matrix"] = exc.matrix
        code, outcome = 2, "obstruction after"
    except (DescentKitError, OSError, KeyError, ValueError) as exc:
        report = {"status": "error", "error": type(exc).__name__, "detail": str(exc)}
        code, outcome = 1, "error after"
    _write_report(report, args.output)
    print(f"{outcome} {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
