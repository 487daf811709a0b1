"""Tests for the command line interface."""

import csv
import logging

import pytest

import qbfkit.cli as cli
from qbfkit.bench import gen_expansion_hard, gen_qparity
from qbfkit.formula import InternalError, problems_equal
from qbfkit.parsing import parse_qcir, write_qcir

EXAMPLE_QCIR = """\
#QCIR-G14
forall(x)
exists(y)
output(f)
g = and(-x, y)
f = or(x, g)
"""

QDIMACS = "p cnf 2 2\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n"


@pytest.fixture
def example_path(tmp_path):
    path = tmp_path / "example.qcir"
    path.write_text(EXAMPLE_QCIR)
    return str(path)


@pytest.fixture
def parity_path(tmp_path):
    path = tmp_path / "qparity3.qcir"
    path.write_text(write_qcir(gen_qparity(3)))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_reports_true(example_path, capsys):
    for extra in ((), ("--no-preprocess",)):
        code, out, _ = run(capsys, "solve", example_path, *extra)
        assert code == 10
        assert out == "r TRUE\n"


def test_solve_reports_false(parity_path, capsys):
    for algorithm in ("abstraction", "assignment"):
        code, out, _ = run(capsys, "solve", parity_path,
                           "--algorithm", algorithm)
        assert code == 20
        assert out == "r FALSE\n"



def test_solve_deep_prefix_at_the_default_recursion_limit(tmp_path, capsys):
    # 1,025 blocks after merging; the solver once took a Python frame per
    # block on the path and exited as "input nested too deeply"
    path = tmp_path / "expansion512.qcir"
    path.write_text(write_qcir(gen_expansion_hard(512)))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 20
    assert out == "r FALSE\n"

def test_verbose_reports_nodes_before_and_after_preprocessing(
        tmp_path, capsys, caplog):
    # tree text of qparity(4): every gate use written out as its own copy
    path = tmp_path / "qparity4.qcir"
    path.write_text(write_qcir(gen_qparity(4)))
    caplog.set_level(logging.INFO, logger="qbfkit")
    code, _, _ = run(capsys, "-v", "solve", str(path))
    assert code == 20
    assert "eliminated 0 of 5 variables in 1 rounds, 65 -> 29 nodes" \
        in caplog.text


def test_solve_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.qcir"))
    assert code == 1
    assert "error:" in err


def test_solve_parse_error_names_the_line(tmp_path, capsys):
    path = tmp_path / "broken.qcir"
    path.write_text("#QCIR-G14\nexists(x)\noutput(f)\nf = nand(x, x)\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 1
    assert "line 4" in err


def test_solve_reads_qdimacs_by_content(tmp_path, capsys):
    path = tmp_path / "input.txt"
    path.write_text(QDIMACS)
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 10
    assert out == "r TRUE\n"


def test_solve_writes_stats(example_path, tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    code, _, _ = run(capsys, "solve", example_path, "--no-preprocess",
                     "--stats", str(stats))
    assert code == 10
    header, row = stats.read_text().splitlines()
    assert header.startswith("family,n,algorithm,")
    fields = row.split(",")
    assert fields[0] == "example.qcir"
    assert fields[2] == "abstraction"
    assert fields[3] == "TRUE"


def test_certify_then_verify(example_path, tmp_path, capsys):
    cert = tmp_path / "cert.aag"
    trace = tmp_path / "proof.trace"
    code, out, _ = run(capsys, "certify", example_path, "-o", str(cert),
                       "--trace", str(trace), "--no-preprocess")
    assert code == 10
    assert out == "r TRUE\n"
    assert cert.read_text() == "aag 1 1 0 1 0\n2\n3\ni0 x\no0 y\nc\nskolem\n"
    assert "p 2 t" in trace.read_text()
    code, out, _ = run(capsys, "verify", example_path, str(cert))
    assert code == 0
    assert out == "Valid\n"



def test_stats_csv_quotes_file_names(tmp_path, capsys):
    path = tmp_path / "a,b.qcir"
    path.write_text(EXAMPLE_QCIR)
    stats = tmp_path / "stats.csv"
    for command in (("solve",), ("certify", "-o", str(tmp_path / "c.aag"))):
        code, _, _ = run(capsys, *command, str(path), "--stats", str(stats))
        assert code == 10
        with open(stats, newline="") as handle:
            header, row = csv.reader(handle)
        assert len(header) == len(row) == 7
        assert row[0] == "a,b.qcir"


def test_certificate_input_named_like_a_placeholder_verifies(tmp_path, capsys):
    """An input named `i1` must not clash with the reader's default name
    for the second input."""
    path = tmp_path / "placeholder.qcir"
    path.write_text("#QCIR-G14\nforall(i1, x)\nexists(y)\noutput(f)\n"
                    "g = and(i1, x)\nf = or(-y, g)\n")
    cert = tmp_path / "cert.aag"
    code, _, _ = run(capsys, "certify", str(path), "-o", str(cert))
    assert code == 10
    code, out, _ = run(capsys, "verify", str(path), str(cert))
    assert code == 0
    assert out == "Valid\n"

def test_certify_with_preprocessing_still_verifies(example_path, parity_path,
                                                   tmp_path, capsys):
    for path, expected in ((example_path, 10), (parity_path, 20)):
        cert = tmp_path / "cert.aag"
        code, _, _ = run(capsys, "certify", path, "-o", str(cert))
        assert code == expected
        code, out, _ = run(capsys, "verify", path, str(cert))
        assert code == 0
        assert out == "Valid\n"


def test_verify_invalid_prints_a_counterexample(example_path, tmp_path,
                                                capsys):
    cert = tmp_path / "wrong.aag"
    cert.write_text("aag 1 1 0 1 0\n2\n2\ni0 x\no0 y\nc\nskolem\n")
    code, out, _ = run(capsys, "verify", example_path, str(cert))
    assert code == 2
    assert out.splitlines()[0] == "Invalid"
    assert "counterexample: x=0" in out


def test_verify_prints_the_counterexample_in_prefix_order(tmp_path, capsys):
    names = [f"x{i}" for i in range(1, 13)]
    problem = tmp_path / "wide.qcir"
    problem.write_text(f"#QCIR-G14\nforall({', '.join(names)})\nexists(y)\n"
                       f"output(f)\nf = or({', '.join(names)}, y)\n")
    cert = tmp_path / "false.aag"  # y := false loses when every x is 0
    cert.write_text("aag 0 0 0 1 0\n0\no0 y\nc\nskolem\n")
    code, out, _ = run(capsys, "verify", str(problem), str(cert))
    assert code == 2
    assert out.splitlines()[1] == "counterexample: " + " ".join(
        f"{name}=0" for name in names)


def test_verify_reports_ill_formed(example_path, tmp_path, capsys):
    cert = tmp_path / "nokind.aag"
    cert.write_text("aag 1 1 0 1 0\n2\n3\ni0 x\no0 y\n")
    code, out, _ = run(capsys, "verify", example_path, str(cert))
    assert code == 2
    assert out.splitlines()[0] == "IllFormed"
    assert "reason:" in out


def test_verify_unreadable_certificate(example_path, tmp_path, capsys):
    code, _, err = run(capsys, "verify", example_path,
                       str(tmp_path / "missing.aag"))
    assert code == 1
    bad = tmp_path / "bad.aag"
    bad.write_text("aag nope\n")
    code, _, err = run(capsys, "verify", example_path, str(bad))
    assert code == 1
    assert "error:" in err


def test_verify_rejects_a_symbol_line_without_a_tag(example_path, tmp_path,
                                                     capsys):
    cert = tmp_path / "untagged.aag"
    cert.write_text("aag 1 1 0 1 0\n2\n3\n x\no0 y\nc\nskolem\n")
    code, out, err = run(capsys, "verify", example_path, str(cert))
    assert code == 1
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in out + err


def test_bench_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "--family", "qparity", "--n", "2..3",
                     "--csv", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("family,n,algorithm,")
    assert len(lines) == 1 + 2 * 2  # two sizes, both algorithms


def test_bench_prints_to_stdout(capsys):
    code, out, _ = run(capsys, "bench", "--family", "expansion", "--n", "1",
                       "--algorithm", "abstraction")
    assert code == 0
    assert out.startswith("family,n,algorithm,")
    assert "expansion,1,abstraction,FALSE" in out


def test_bench_is_deterministic_up_to_timing(capsys):
    def rows(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return [line.rsplit(",", 1)[0] for line in out.splitlines()]

    first = rows("bench", "--family", "random", "--n", "1..3", "--seed", "0")
    second = rows("bench", "--family", "random", "--n", "1..3", "--seed", "0")
    assert first == second


def test_bench_seed_env_fallback(capsys, monkeypatch):
    def rows(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return [line.rsplit(",", 1)[0] for line in out.splitlines()]

    explicit = rows("bench", "--family", "random", "--n", "2", "--seed", "9")
    monkeypatch.setenv("QBFKIT_SEED", "9")
    assert rows("bench", "--family", "random", "--n", "2") == explicit


def test_bench_rejects_bad_ranges(capsys):
    for bad in ("5..2", "x", "0..3"):
        code, _, err = run(capsys, "bench", "--family", "qparity", "--n", bad)
        assert code == 1
        assert "error:" in err


def test_convert_round_trips(tmp_path, capsys):
    source = tmp_path / "input.qdimacs"
    source.write_text(QDIMACS)
    target = tmp_path / "output.qcir"
    code, _, _ = run(capsys, "convert", str(source), "-o", str(target))
    assert code == 0
    from qbfkit.parsing import load_problem
    assert problems_equal(load_problem(str(source)),
                          load_problem(str(target)))


def test_convert_to_qdimacs_requires_cnf(example_path, tmp_path, capsys):
    target = tmp_path / "out.qdimacs"
    code, _, err = run(capsys, "convert", example_path, "-o", str(target))
    assert code == 1
    assert "CNF" in err


def test_convert_prints_qcir_by_default(example_path, capsys):
    code, out, _ = run(capsys, "convert", example_path)
    assert code == 0
    assert problems_equal(parse_qcir(out), parse_qcir(EXAMPLE_QCIR))


def test_help_lists_every_command(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    for command in ("solve", "certify", "verify", "bench", "convert"):
        assert command in out


def test_usage_errors_exit_one(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "solve")[0] == 1  # missing file argument


def test_internal_errors_exit_three(example_path, capsys, monkeypatch):
    def boom(*_args, **_kwargs):
        raise InternalError("invariant violated")

    monkeypatch.setattr("qbfkit.solver.solve_abstraction", boom)
    code, _, err = run(capsys, "solve", example_path, "--no-preprocess")
    assert code == 3
    assert "internal error" in err


@pytest.mark.parametrize("error, message", [
    (RecursionError, "input nested too deeply"),
    (MemoryError, "out of memory"),
])
def test_resource_errors_exit_four(example_path, capsys, monkeypatch, error,
                                   message):
    def boom(*_args, **_kwargs):
        raise error

    monkeypatch.setattr(cli, "preprocess", boom)
    code, _, err = run(capsys, "solve", example_path)
    assert code == cli.EXIT_RESOURCE
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
