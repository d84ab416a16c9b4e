"""The command line parser: ``getopt`` and a static help text, checked
against the argparse parser it replaced, kept here as the reference.

Valid command lines must give the same arguments under both parsers, with
``--budget`` left as None when not given (the command resolves it from
``homs.DEFAULT_BUDGET``).  Invalid ones must exit 1 under both, with the
usage text and then ``descent-kit: error:`` on stderr.  The help and usage
texts must be argparse's, up to line wrapping, which argparse takes from
the terminal width and has changed between Python versions.
"""

import argparse
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descent_kit.cli import _COMMANDS, _parse_args
from descent_kit.homs import DEFAULT_BUDGET


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, as malformed input does: exit 2 is an obstruction."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def reference_parser():
    parser = _ArgumentParser(
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
    return parser


def words(text: str) -> str:
    return " ".join(text.split())


def parsed(argv) -> dict:
    args = vars(_parse_args(argv))
    if args["budget"] is None:
        args["budget"] = DEFAULT_BUDGET
    return args


def spelled(option, value):
    """``option`` with ``value`` as one or two words, under a unique prefix."""
    return st.tuples(st.integers(3, len(option)), st.booleans()).map(
        lambda p: [f"{option[:p[0]]}={value}"] if p[1] else [option[:p[0]], value])


@st.composite
def command_lines(draw):
    """Every command with a random subset of the options in random order and
    spelling; the command itself may sit anywhere among them."""
    groups = [[draw(st.sampled_from(sorted(_COMMANDS)))],
              draw(spelled("--input", "problem.json"))]
    optional = [spelled("--output", "report.json"),
                st.sampled_from([["--audit"], ["--aud"]]),
                spelled("--budget", str(draw(st.integers(-5, 10**6)))),
                spelled("--truncate", str(draw(st.integers(-3, 9))))]
    for strategy in optional:
        if draw(st.booleans()):
            groups.append(draw(strategy))
    return [word for group in draw(st.permutations(groups)) for word in group]


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_valid_command_lines_parse_as_argparse_did(argv):
    assert parsed(argv) == vars(reference_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [command, "--input", "p.json"] for command in sorted(_COMMANDS)
] + [
    ["--input=p.json", "descend", "--audit", "--output", "r.json"],
    ["--inp", "p.json", "--out=r.json", "adjoint-check", "--bud", "12"],
    ["validate", "--input", "a.json", "--input", "b.json"],
    ["validate", "--input", "p.json", "--truncate", "-3"],
    ["--input", "p.json", "--", "compose-check"],
])
def test_listed_command_lines_parse_as_argparse_did(argv):
    assert parsed(argv) == vars(reference_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["descend"],
    ["descend-everything", "--input", "p.json"],
    ["validate", "--input", "p.json", "--budget", "many"],
    ["validate", "--input", "p.json", "--bogus"],
    ["validate", "--input"],
    ["validate", "--input", "p.json", "--truncate"],
    ["validate", "--input", "p.json", "--audit=yes"],
    ["validate", "extra", "--input", "p.json"],
    [],
], ids=["missing-input", "unknown-command", "bad-int", "unknown-option",
        "missing-value", "missing-int-value", "flag-with-value", "extra-positional",
        "empty"])
def test_invalid_command_lines_exit_one_with_usage(argv, capsys):
    usage = words(reference_parser().format_usage())
    for parse in (reference_parser().parse_args, _parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: descent-kit")
        assert words(err).startswith(usage + " descent-kit: error: ")


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_is_argparse_help(flag, capsys):
    for parse in (reference_parser().parse_args, _parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(["validate", flag])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert (words(out), err) == (words(reference_parser().format_help()), "")
