"""The CLI run as a program: ``cli.run`` ends the process at its flushed
report, so every command must give, through a fresh interpreter, the exit
code and report bytes that ``main`` gives in process.

Children run with ``PYTHONUNBUFFERED`` removed from their environment, so
stdout is block buffered and a report left unflushed at exit shows.
"""

import json
import os
import subprocess
import sys

import pytest

from descent_kit.cli import main
from conftest import FIXTURES

COMMANDS = {
    "validate": ["validate"],
    "matrix": ["matrix"],
    "descend": ["descend"],
    "descend-audit": ["descend", "--audit"],
    "adjoint-check": ["adjoint-check"],
    "compose-check": ["compose-check"],
}
FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))
OUTCOMES = ("done in ", "obstruction after ", "error after ")


def _child(argv, unbuffered=False, entry=("-m", "descent_kit.cli")):
    """``python <entry> <argv>``: the program by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(FIXTURES.parent / "src"), env.get("PYTHONPATH")])
    )
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, *entry, *argv], env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fixture", FIXTURE_NAMES)
def test_program_matches_main(fixture, command, tmp_path):
    """Without ``--output`` the whole report arrives on stdout, and the last
    line on stderr is the outcome with its time."""
    argv = [*COMMANDS[command], "--input", str(FIXTURES / fixture)]
    out = tmp_path / "report.json"
    code = main([*argv, "--output", str(out)])
    proc = _child(argv)
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == code
    assert stdout == out.read_bytes()
    assert stderr.decode().splitlines()[-1].startswith(OUTCOMES)


def test_unwritable_output_is_an_error_report(tmp_path):
    path = tmp_path / "no" / "such" / "dir" / "r.json"
    proc = _child(["validate", "--input", str(FIXTURES / "differential.json"),
                   "--output", str(path)])
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 1
    report = json.loads(stdout)
    assert (report["status"], report["error"]) == ("error", "FileNotFoundError")
    assert str(path) in report["detail"]
    lines = stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error after ")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_is_one_line_on_stderr(unbuffered):
    proc = _child(["validate", "--input", str(FIXTURES / "differential.json")],
                  unbuffered=unbuffered)
    # the child never holds the read end, so its report meets a broken pipe
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    lines = stderr.splitlines()
    assert lines[0] == "descent-kit: cannot write the report to stdout: Broken pipe"
    assert len(lines) == 2 and lines[1].startswith("error after ")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_seen_from_an_in_process_caller(unbuffered):
    """A caller that runs ``main`` in process and then leaves through the
    normal exit, with its report unflushed at interpreter teardown, still
    gets exit 1 and the one line: no "Exception ignored", no exit 120."""
    call = ("import sys; from descent_kit.cli import main; "
            f"sys.exit(main(['validate', '--input', {str(FIXTURES / 'differential.json')!r}]))")
    proc = _child([], unbuffered=unbuffered, entry=("-c", call))
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    lines = stderr.splitlines()
    assert lines[0] == "descent-kit: cannot write the report to stdout: Broken pipe"
    assert len(lines) == 2 and lines[1].startswith("error after ")


@pytest.mark.parametrize("argv,code,stream", [
    (["--help"], 0, 0),
    (["descend"], 1, 1),
], ids=["help", "usage-error"])
def test_usage_leaves_through_normal_exit(argv, code, stream):
    proc = _child(argv)
    streams = proc.communicate(timeout=120)
    assert proc.returncode == code
    assert streams[stream].decode().startswith("usage: descent-kit")
    assert b"Traceback" not in streams[1]


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((FIXTURES.parent / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"descent-kit": "descent_kit.cli:run"}
