"""The command line interface: reports, exit codes, determinism, audit."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

from descent_kit.cli import main
from conftest import FIXTURES


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, json.loads(out.read_text())


def test_validate_fixture(tmp_path):
    code, report = run_cli(
        ["validate", "--input", str(FIXTURES / "differential.json")], tmp_path
    )
    assert code == 0
    assert report["status"] == "ok"
    assert all(cert["ok"] for cert in report["certificates"])


def test_validate_with_truncation_window(tmp_path):
    code, report = run_cli(
        ["validate", "--input", str(FIXTURES / "differential.json"), "--truncate", "1"],
        tmp_path,
    )
    assert code == 0
    assert sorted(report["truncated_window"]["variables"]) == ["t", "t_1", "t_2"]


def test_truncation_window_over_the_bound_is_an_error_report(tmp_path):
    """Depth 40 with one name and l = 2 would adjoin 2^41 - 1 variables; the
    window is counted before it is built and refused at once."""
    code, report = run_cli(
        ["validate", "--input", str(FIXTURES / "differential.json"), "--truncate", "40"],
        tmp_path,
    )
    assert (code, report["status"], report["error"]) == (1, "error", "ResourceLimit")
    assert report["detail"] == ("the operator-polynomial window of depth 40 with 1 name(s)"
                                " and l = 2 has more than 16384 variables")


def test_matrix_on_introduction_instance(tmp_path):
    code, report = run_cli(
        ["matrix", "--input", str(FIXTURES / "introduction.json")], tmp_path
    )
    assert code == 0
    assert report["matrix"] == [["1", "0"], ["0", "0"]]
    assert report["invertible"] == "no"
    eq = report["endomorphism_equivalences"][0]
    assert eq["all_agree"] and not eq["matrix_invertible_given_basis"]


def test_descend_obstruction_exit_code(tmp_path):
    code, report = run_cli(
        ["descend", "--input", str(FIXTURES / "introduction.json")], tmp_path
    )
    assert code == 2
    assert report["error"] == "NonInvertibleMatrix"
    assert report["matrix"] == [["1", "0"], ["0", "0"]]


def test_descend_example_with_audit(tmp_path):
    code, report = run_cli(
        ["descend", "--input", str(FIXTURES / "frobenius_square.json"), "--audit"], tmp_path
    )
    assert code == 0
    images = report["presentation"]["images"]
    assert images["t(1)"] == ["t(1)^2"]
    assert images["t(2)"] == ["0"]
    assert report["audit"]["ok"]


@pytest.mark.parametrize("fixture", ["frobenius_square.json", "differential.json"])
def test_audit_unit_gate_reads_the_rederived_images(fixture, tmp_path, monkeypatch):
    """The audit checks the unit map against the images it rederives, not
    against the main route's structure: one changed coordinate fails it."""
    from descent_kit import Polynomial, weil_d

    rederive = weil_d.rederive_images

    def off_by_one(result):
        images = rederive(result)
        name = sorted(images)[0]
        first, *rest = images[name]
        images[name] = (first + Polynomial.constant(first.field, 1), *rest)
        return images

    monkeypatch.setattr(weil_d, "rederive_images", off_by_one)
    code, report = run_cli(["descend", "--input", str(FIXTURES / fixture), "--audit"], tmp_path)
    assert code == 0
    audit = report["audit"]
    assert audit["matrix_times_inverse_is_identity"] and audit["descent_ideal_closed"]
    assert not audit["unit_is_operator_hom"]
    assert not audit["independent_rederivation_matches"] and not audit["ok"]


def test_descend_differential_fixture(tmp_path):
    code, report = run_cli(
        ["descend", "--input", str(FIXTURES / "differential.json")], tmp_path
    )
    assert code == 0
    images = report["presentation"]["images"]
    assert images["t(1)"] == ["t(1)", "t(1)^2"]
    assert images["t(2)"] == ["t(2)", "2*t(1)*t(2) - t(2)"]


def test_adjoint_check_bijection(tmp_path):
    code, report = run_cli(
        ["adjoint-check", "--input", str(FIXTURES / "adjoint_f2.json")], tmp_path
    )
    assert code == 0
    assert report["downstairs_count"] == 8
    assert report["upstairs_count"] == 8
    assert report["ok"]


def test_adjoint_check_evidence_branch(tmp_path):
    code, report = run_cli(
        ["adjoint-check", "--input", str(FIXTURES / "introduction.json")], tmp_path
    )
    assert code == 0
    assert report["matrix_invertible"] is False
    assert report["system_rhs"] == ["0", "1"]
    assert report["solvable"] is False


def test_compose_check(tmp_path):
    code, report = run_cli(
        ["compose-check", "--input", str(FIXTURES / "compose_difference.json")], tmp_path
    )
    assert code == 0
    assert report["ok"] and report["theta_compatible"]
    assert report["difference_monoid_law"]


def test_reports_are_byte_identical(tmp_path):
    for fixture, command in (
        ("frobenius_square.json", "descend"),
        ("introduction.json", "matrix"),
        ("adjoint_f2.json", "adjoint-check"),
    ):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main([command, "--input", str(FIXTURES / fixture), "--output", str(out1)])
        main([command, "--input", str(FIXTURES / fixture), "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


def test_bad_input_exit_code(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, report = run_cli(["validate", "--input", str(broken)], tmp_path)
    assert code == 1
    assert report["status"] == "error"

    missing_image = json.loads((FIXTURES / "frobenius_square.json").read_text())
    del missing_image["C"]["images"]["t"]
    bad = tmp_path / "missing.json"
    bad.write_text(json.dumps(missing_image))
    code, report = run_cli(["validate", "--input", str(bad)], tmp_path)
    assert code == 1


def _frobenius_with(**sections):
    doc = json.loads((FIXTURES / "frobenius_square.json").read_text())
    doc.update(sections)
    return doc


def _adjoint_f2_with(section, key, value):
    doc = json.loads((FIXTURES / "adjoint_f2.json").read_text())
    doc[section][key] = value
    return doc


def _generator(name):
    """frobenius_square.json with its one generator named ``name`` and sent
    to 0: a document that ``validate`` and ``descend`` used to accept."""
    doc = _frobenius_with()
    doc["C"]["generators"] = [name]
    doc["C"]["images"] = {name: ["0"]}
    return doc


def _differential_unit(unit):
    doc = json.loads((FIXTURES / "differential.json").read_text())
    doc["D"]["unit"] = unit
    return doc


SHORT_PRODUCT = {
    "basis": ["1", "eps"],
    "products": [[["1"], ["0", "1"]], [["0", "1"], ["0", "0"]]],
    "images": {"eps": ["eps"]},
}


@pytest.mark.parametrize("doc,detail", [
    ([], "the problem document must be a JSON object"),
    (_frobenius_with(D={"basis": 5}), "D.basis must be a JSON array"),
    (_frobenius_with(D="x"), "D must be a JSON object"),
    (_frobenius_with(C={"generators": ["t"], "images": {"t": 5}}),
     "C.images.t must be a JSON array"),
    (_frobenius_with(B=SHORT_PRODUCT),
     "B.products must be an r x r table of coordinate vectors"),
    (_generator("2"), "C.generators[0] must be an identifier, got '2'"),
    (_generator(""), "C.generators[0] must be an identifier, got ''"),
    (_generator("y y"), "C.generators[0] must be an identifier, got 'y y'"),
    (_adjoint_f2_with("A", "variables", ["3a"]),
     "A.variables[0] must be an identifier, got '3a'"),
    (_adjoint_f2_with("R", "variables", ["u", "u+1"]),
     "R.variables[1] must be an identifier, got 'u+1'"),
    (_adjoint_f2_with("B", "basis", ["1", "w*"]), "B.basis[1] must be an identifier, got 'w*'"),
    (_differential_unit(["1"]), "D.unit needs 2 coordinates"),
    (_differential_unit(["1", "0", "0"]), "D.unit needs 2 coordinates"),
], ids=["top-level-array", "D.basis-number", "D-string", "C-image-number",
        "B-product-too-short", "C-generator-digit", "C-generator-empty",
        "C-generator-space", "A-variable-digit-first", "R-variable-plus", "B-label-star",
        "D-unit-too-short", "D-unit-too-long"])
def test_malformed_shape_is_an_error_report(doc, detail, tmp_path, capsys):
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps(doc))
    code, report = run_cli(["validate", "--input", str(bad)], tmp_path)
    assert code == 1
    assert report["status"] == "error"
    assert report["error"] == "ParseError"
    assert report["detail"] == detail
    assert "Traceback" not in capsys.readouterr().err


def _gf2_hom_enumeration():
    """perfbench/gen.py's gf2-hom-enumeration document for seed 1 (read only):
    C = B[s]/(s^2) with a second structure block."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", FIXTURES.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.generate("gf2-hom-enumeration", 1)


def _second_with(doc, key, name, value, a_variable=None):
    """``doc`` with second.<key>.<name> set to ``value`` (absent for None);
    ``a_variable`` adds a base variable to A that the first structure fixes."""
    doc = copy.deepcopy(doc)
    if a_variable is not None:
        doc["A"] = {"variables": [a_variable], "relations": [],
                    "images": {a_variable: [a_variable] * len(doc["D"]["basis"])}}
    images = doc["second"][key]
    images.pop(name, None)
    if value is not None:
        images[name] = value
    return doc


COMPOSE = json.loads((FIXTURES / "compose_difference.json").read_text())


@pytest.mark.parametrize("doc,error,detail", [
    (_second_with(_gf2_hom_enumeration(), "C_images", "s", ["1"]), "NotWellDefined", None),
    (_second_with(COMPOSE, "C_images", "t", ["t", "t"]),
     "ParseError", "second.C_images.t needs 1 coordinates"),
    (_second_with(COMPOSE, "A_images", "b", None, a_variable="b"),
     "ParseError", "missing operator image second.A_images.b"),
    (_second_with(COMPOSE, "A_images", "b", ["b", "b"], a_variable="b"),
     "ParseError", "second.A_images.b needs 1 coordinates"),
    (_second_with(COMPOSE, "B_images", "eps", ["eps", "0"]),
     "ParseError", "second.B_images.eps needs 1 coordinates"),
], ids=["C-image-not-well-defined", "C-image-too-long", "A-image-missing", "A-image-too-long",
        "B-image-too-long"])
def test_malformed_second_block_is_an_error_report(doc, error, detail, tmp_path, capsys):
    """The second structure is parsed and validated as the first is, by
    ``validate`` as well as by ``compose-check``."""
    bad = tmp_path / "second.json"
    bad.write_text(json.dumps(doc))
    for command in ("validate", "compose-check"):
        code, report = run_cli([command, "--input", str(bad)], tmp_path)
        assert (code, report["status"], report["error"]) == (1, "error", error)
        if detail is not None:
            assert report["detail"] == detail
    assert "Traceback" not in capsys.readouterr().err


def test_failed_certificate_is_an_error_report(tmp_path, capsys, monkeypatch):
    from descent_kit import weil

    # a unit map that misses the relation t^2 stands in for a kernel defect
    monkeypatch.setattr(weil.WeilDescentResult, "evaluate_under_unit",
                        lambda self, flat, ring=None: self.tensor_algebra(ring).one_el())
    code, report = run_cli(
        ["descend", "--input", str(FIXTURES / "adjoint_f2.json")], tmp_path
    )
    assert code == 1
    assert report["status"] == "error"
    assert report["error"] == "CertificateFailure"
    assert report["detail"].startswith("classical_descent: ")
    assert "Traceback" not in capsys.readouterr().err


def test_budget_flag(tmp_path):
    code, report = run_cli(
        ["adjoint-check", "--input", str(FIXTURES / "adjoint_f2.json"),
         "--budget", "3"],
        tmp_path,
    )
    assert code == 1
    assert report["error"] == "CombinatorialBudgetExceeded"


def test_installed_entry_point(tmp_path):
    out = tmp_path / "cli.json"
    # the child finds the package where conftest.py puts it on sys.path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(FIXTURES.parent / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "descent_kit.cli", "descend",
         "--input", str(FIXTURES / "frobenius_square.json"), "--output", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["presentation"]["images"]["t(2)"] == ["0"]


@pytest.mark.parametrize("argv", [
    ["descend"],
    ["descend-everything", "--input", str(FIXTURES / "differential.json")],
    ["validate", "--input", str(FIXTURES / "differential.json"), "--budget", "many"],
], ids=["missing-input", "unknown-command", "bad-option-value"])
def test_usage_error_exits_one(argv, capsys):
    """Exit 2 is kept for an obstruction; a usage error is malformed input."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: descent-kit")
    assert "descent-kit: error: " in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: descent-kit")


def test_word_sized_prime_field_validates_quickly(tmp_path):
    """GF(2**61 - 1): primality is decided by Miller-Rabin, not trial division."""
    doc = json.loads((FIXTURES / "differential.json").read_text())
    doc["field"] = {"prime": 2**61 - 1}
    path = tmp_path / "big_prime.json"
    path.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, report = run_cli(["validate", "--input", str(path)], tmp_path)
    assert time.perf_counter() - started < 2
    assert code == 0
    assert report["status"] == "ok"
