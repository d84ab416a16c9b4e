"""The command line interface: reports, exit codes, determinism, audit."""

import json
import subprocess
import sys

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
], ids=["top-level-array", "D.basis-number", "D-string", "C-image-number",
        "B-product-too-short"])
def test_malformed_shape_is_an_error_report(doc, detail, tmp_path, capsys):
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps(doc))
    code, report = run_cli(["validate", "--input", str(bad)], tmp_path)
    assert code == 1
    assert report["status"] == "error"
    assert report["error"] == "ParseError"
    assert report["detail"] == detail
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
    proc = subprocess.run(
        [sys.executable, "-m", "descent_kit.cli", "descend",
         "--input", str(FIXTURES / "frobenius_square.json"), "--output", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["presentation"]["images"]["t(2)"] == ["0"]
