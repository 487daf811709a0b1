"""The README's code examples run as written against the current API."""

import contextlib
import dataclasses
import io
import pathlib
import re
import shlex

import qbfkit
import qbfkit.cli as cli
from qbfkit.solver import SolveConfig

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_block(heading: str) -> str:
    """The first fenced code block under a `## heading` of the README."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```\w*\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_what_it_claims():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code_block("Library"), {})
    assert out.getvalue().splitlines() == ["True [0]", "valid"]


def test_command_line_examples_parse():
    commands = [shlex.split(line, comments=True)
                for line in code_block("Command line").splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "qbfkit"]
    assert {argv[1] for argv in commands} == {
        "solve", "certify", "verify", "bench", "convert"}
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # a usage error raises SystemExit


def test_seed_is_a_bench_option_only(capsys):
    assert cli.main(["solve", "x.qcir", "--seed", "3"]) == cli.EXIT_USAGE
    assert "--seed" in capsys.readouterr().err


def test_solve_config_fields_match_the_readme():
    documented = re.findall(r"SolveConfig\(([^)]*)\)", README)
    fields = ", ".join(f"{f.name}={f.default!r}"
                       for f in dataclasses.fields(SolveConfig))
    assert documented == [fields]


def test_every_export_resolves():
    assert [name for name in qbfkit.__all__ if not hasattr(qbfkit, name)] == []
