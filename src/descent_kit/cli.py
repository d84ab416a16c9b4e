"""Command line interface.

Exit codes: 0 on success, 1 on malformed input or a usage error (or an
internal certificate that fails to verify, reported as
``CertificateFailure`` with its stage), 2 on a genuine mathematical
obstruction (a non-invertible descent matrix).  A report that cannot be
written exits 1 with no traceback.  Reports are deterministic JSON;
timing goes to stderr so report files stay byte-identical across runs.
Run as a program (``run``), the process ends at its flushed report.
Each command imports the layers it runs when it runs, so a command loads
only its own code.
"""

from __future__ import annotations

import gc
import getopt
import os
import sys
import time
from types import SimpleNamespace

from .errors import DescentKitError, NonInvertibleMatrix, ParseError
from .problem import dump_report, problem_from_file, render_presentation


def _write_report(report: dict, path) -> bool:
    """Write ``report`` to ``path`` (stdout when None) and flush it.  A report
    that cannot be written gives no traceback: an unwritable ``path`` puts an
    error report naming it on stdout, a closed stdout one line on stderr.
    True when ``report`` itself was written."""
    try:
        if path:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(dump_report(report))
        else:
            sys.stdout.write(dump_report(report))
            sys.stdout.flush()
        return True
    except OSError as exc:
        error, reason = type(exc).__name__, exc.strerror or str(exc)
    if path:
        _write_report({"status": "error", "error": error,
                       "detail": f"cannot write the report to {path}: {reason}"}, None)
    else:
        print(f"descent-kit: cannot write the report to stdout: {reason}", file=sys.stderr)
        # the unwritten report stays in stdout's buffer: with stdout on
        # os.devnull, an in-process caller's flush at exit drops it quietly
        try:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        except (OSError, ValueError):
            pass
    return False


def _cmd_validate(problem, args):
    from .dstructures import truncated_operator_polynomials

    report = {"status": "ok", "certificates": problem.certificates}
    if args.truncate is not None:
        window = truncated_operator_polynomials(
            problem.tower.e, list(problem.c.generators), args.truncate
        )
        report["truncated_window"] = {
            "depth": args.truncate,
            "variables": [
                v for v in window.carrier.variables
                if v not in problem.tower.base_ring.variables
            ],
        }
    return report, 0


def _cmd_matrix(problem, args):
    from .descent_matrix import associated_matrix, invertibility_equivalences

    dm = associated_matrix(problem.tower)
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
    for factor in range(problem.tower.coeff.factor_count):
        images = problem.tower.endo_images(factor)
        equivalences.append(
            {"factor": factor + 1,
             **invertibility_equivalences(problem.tower.algebra, images)}
        )
    report["endomorphism_equivalences"] = equivalences
    return report, 0


def _descend_report(result, audited: bool) -> dict:
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
        from .dstructures import DStructure
        from .matrices import RingMatrix
        from .weil_d import rederive_images, verify_d_hom

        # the unit gate reads the rederived images, not the main route's
        rederived = rederive_images(result)
        e = result.c.tower.e
        audited_structure = DStructure(ring, e.coeff, {**e.images, **rederived})
        matrix = result.matrix.matrix
        audit = {
            "matrix_times_inverse_is_identity": (
                matrix * result.matrix.inverse == RingMatrix.identity(matrix.ring, matrix.nrows)
            ),
            "unit_is_operator_hom": verify_d_hom(
                result.classical.unit_map(), result.c_structure, audited_structure,
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
    from .weil_d import descend_d_structure

    result = descend_d_structure(problem.c, problem.g_structure)
    return _descend_report(result, args.audit), 0


def _cmd_adjoint_check(problem, args):
    from .descent_matrix import associated_matrix
    from .homs import DEFAULT_BUDGET, adjoint_evidence, adjunction_audit
    from .weil_d import descend_d_structure

    if associated_matrix(problem.tower).inverse is None:
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
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    report = adjunction_audit(result, problem.u, budget)
    report["matrix_invertible"] = True
    return report, 0


def _cmd_compose_check(problem, args):
    from .compose import compose_descent_check

    if problem.second is None:
        raise ParseError("compose-check needs a \"second\" structure block")
    report = compose_descent_check(
        problem.c, problem.g_structure, problem.second["c"], problem.second["g_structure"]
    )
    return report, 0


_COMMANDS = {
    "validate": _cmd_validate,
    "matrix": _cmd_matrix,
    "descend": _cmd_descend,
    "adjoint-check": _cmd_adjoint_check,
    "compose-check": _cmd_compose_check,
}

_USAGE = """\
usage: descent-kit [-h] --input INPUT [--output OUTPUT] [--audit]
                   [--budget BUDGET] [--truncate TRUNCATE]
                   {adjoint-check,compose-check,descend,matrix,validate}
"""

_HELP = _USAGE + """
Exact Weil restriction for difference/differential algebras

positional arguments:
  {adjoint-check,compose-check,descend,matrix,validate}

options:
  -h, --help            show this help message and exit
  --input INPUT         problem description (JSON)
  --output OUTPUT       write the report here instead of stdout
  --audit               re-verify every certificate from scratch
  --budget BUDGET       candidate cap for homomorphism enumeration
  --truncate TRUNCATE   also build the operator-polynomial window of this
                        depth
"""

# getopt's long options: a trailing "=" takes a value
_OPTIONS = ["help", "input=", "output=", "audit", "budget=", "truncate="]


def _usage_error(message):
    """Usage errors exit 1, as malformed input does: exit 2 is an obstruction."""
    sys.stderr.write(f"{_USAGE}descent-kit: error: {message}\n")
    raise SystemExit(1)


def _parse_args(argv):
    """The command and its options, from ``argv`` in any order.  ``--help``
    exits 0 with the help text; a usage error exits 1 through
    ``_usage_error``.  ``budget`` is None when not given."""
    try:
        opts, positional = getopt.gnu_getopt(argv, "h", _OPTIONS)
    except getopt.GetoptError as exc:
        _usage_error(exc.msg)
    args = SimpleNamespace(command=None, input=None, output=None, audit=False,
                           budget=None, truncate=None)
    for opt, value in opts:
        if opt in ("-h", "--help"):
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        name = opt[2:]
        if name == "audit":
            value = True
        elif name in ("budget", "truncate"):
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {opt}: invalid int value: {value!r}")
        setattr(args, name, value)
    if positional:
        args.command = positional[0]
        if args.command not in _COMMANDS:
            choices = ", ".join(map(repr, sorted(_COMMANDS)))
            _usage_error(f"argument command: invalid choice: {args.command!r} "
                         f"(choose from {choices})")
    missing = [name for name, value in (("command", args.command), ("--input", args.input))
               if value is None]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if len(positional) > 1:
        _usage_error(f"unrecognized arguments: {' '.join(positional[1:])}")
    return args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)

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
    if not _write_report(report, args.output):
        code, outcome = 1, "error after"
    print(f"{outcome} {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


def run():
    """The process entry: ``main`` on the command line, then exit at the
    flushed report.  ``os._exit`` skips interpreter teardown (module cleanup,
    the final collection, freeing every interned monomial), which takes
    longer than most commands' own work.  ``SystemExit`` from a usage error
    or ``--help`` and any uncaught exception leave through the normal exit.

    The cyclic collector is off for the process: the package makes no
    reference cycles, so a collection finds nothing to free and only walks
    the live objects.  ``main`` called in process keeps the caller's
    collector."""
    gc.disable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = code or 1
    os._exit(code)


if __name__ == "__main__":
    run()
