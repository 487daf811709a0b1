"""Command-line frontend: solve, certify, verify, bench and convert.

Exit codes follow the QBF-evaluation convention: 10 means the problem is
true, 20 false, 0 is success without a truth verdict (verify/convert/bench),
1 a usage, I/O or parse error, 2 a failed certificate check, 3 an
internal invariant violation, and 4 an input too deep or too large to
handle (Python's recursion limit or memory ran out).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .aiger import read_aiger, write_aiger
from .bench import (GenSpec, gen_expansion_hard, gen_qparity, gen_random,
                    run_experiment, stats_csv)
from .certify import build_certificate, verify, write_trace
from .formula import InternalError
from .parsing import ParseError, load_problem, write_qcir, write_qdimacs
from .preprocess import PreprocessInfo, preprocess
from .solver import solve, solve_abstraction

EXIT_TRUE = 10
EXIT_FALSE = 20
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3
EXIT_RESOURCE = 4

log = logging.getLogger("qbfkit")


def _reduce(problem, args):
    if args.no_preprocess:
        return problem, PreprocessInfo()
    reduced, info = preprocess(problem)
    log.info("preprocessing eliminated %d of %d variables in %d rounds, "
             "%d -> %d nodes", len(info.eliminated), len(problem.all_vars()),
             info.rounds, len(problem.arena), len(reduced.arena))
    return reduced, info


def _write_stats(path: str, source: str, problem, algorithm: str,
                 value: bool, stats) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(stats_csv([(os.path.basename(source),
                                 len(problem.all_vars()), algorithm, value,
                                 stats)]))


def _report(value: bool) -> int:
    print("r TRUE" if value else "r FALSE")
    return EXIT_TRUE if value else EXIT_FALSE


def cmd_solve(args) -> int:
    problem = load_problem(args.file)
    reduced, _ = _reduce(problem, args)
    value, stats = solve(reduced, args.algorithm)
    log.info("solved %s in %.3fs after %d solver queries",
             args.file, stats.wall_time, stats.total_iterations)
    if args.stats:
        _write_stats(args.stats, args.file, problem, args.algorithm, value,
                     stats)
    return _report(value)


def cmd_certify(args) -> int:
    problem = load_problem(args.file)
    reduced, info = _reduce(problem, args)
    value, trace, stats = solve_abstraction(reduced)
    circuit = build_certificate(problem, reduced, info.eliminated, trace,
                                value)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(write_aiger(circuit))
    log.info("wrote %s certificate with %d gates to %s",
             circuit.kind, len(circuit.gates), args.output)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(write_trace(reduced, trace))
    if args.stats:
        _write_stats(args.stats, args.file, problem, "abstraction", value,
                     stats)
    return _report(value)


def cmd_verify(args) -> int:
    problem = load_problem(args.file)
    with open(args.certificate, "r", encoding="utf-8") as handle:
        circuit = read_aiger(handle.read())
    result = verify(problem, circuit)
    if result.status == "valid":
        print("Valid")
        return EXIT_OK
    if result.status == "invalid":
        print("Invalid")
        assignment = " ".join(f"{name}={int(val)}" for name, val in
                              result.counterexample.items())
        print(f"counterexample: {assignment}")
    else:
        print("IllFormed")
        print(f"reason: {result.reason}")
    return EXIT_INVALID


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        low = int(lo)
        high = int(hi) if sep else low
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected N or A..B") from None
    if low < 1 or high < low:
        raise ValueError(f"bad range {text!r}; expected 1 <= A <= B")
    return low, high


def cmd_bench(args) -> int:
    low, high = _parse_range(args.n)
    seed = (args.seed if args.seed is not None
            else int(os.environ.get("QBFKIT_SEED", "0")))
    instances = []
    for n in range(low, high + 1):
        if args.family == "qparity":
            instances.append((args.family, n, gen_qparity(n)))
        elif args.family == "expansion":
            instances.append((args.family, n, gen_expansion_hard(n)))
        else:
            instances.append((args.family, n, gen_random(GenSpec(seed=seed + n))))
    algorithms = (("abstraction", "assignment") if args.algorithm == "both"
                  else (args.algorithm,))
    text = run_experiment(instances, algorithms)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_convert(args) -> int:
    problem = load_problem(args.file)
    if args.output and args.output.lower().endswith(
            (".qdimacs", ".cnf", ".dimacs")):
        text = write_qdimacs(problem)
    else:
        text = write_qcir(problem)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbfkit",
        description="Solve prenex NNF QBFs and certify the answers.")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress details to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser(
        "solve", help="decide a QCIR or QDIMACS problem (exit 10/20)")
    solve.add_argument("file", help="input problem (.qcir or .qdimacs)")
    solve.add_argument("--algorithm", choices=("abstraction", "assignment"),
                       default="abstraction",
                       help="solving algorithm (default: abstraction)")
    solve.add_argument("--no-preprocess", action="store_true",
                       help="skip the simplification pipeline")
    solve.add_argument("--stats", metavar="OUT.CSV", default=None,
                       help="write solver statistics as CSV (default: off)")
    solve.set_defaults(func=cmd_solve)

    certify = sub.add_parser(
        "certify",
        help="solve and write a Skolem/Herbrand certificate (exit 10/20)")
    certify.add_argument("file", help="input problem (.qcir or .qdimacs)")
    certify.add_argument("-o", "--output", required=True, metavar="CERT.AAG",
                         help="certificate output path (AIGER)")
    certify.add_argument("--trace", metavar="OUT.TRACE", default=None,
                         help="also write the proof trace (default: off)")
    certify.add_argument("--no-preprocess", action="store_true",
                         help="skip the simplification pipeline")
    certify.add_argument("--stats", metavar="OUT.CSV", default=None,
                         help="write solver statistics as CSV (default: off)")
    certify.set_defaults(func=cmd_certify)

    check = sub.add_parser(
        "verify", help="check a certificate (exit 0 valid, 2 otherwise)")
    check.add_argument("file", help="input problem (.qcir or .qdimacs)")
    check.add_argument("certificate", help="AIGER certificate to check")
    check.set_defaults(func=cmd_verify)

    bench = sub.add_parser(
        "bench", help="run benchmark families and report CSV")
    bench.add_argument("--family", choices=("qparity", "expansion", "random"),
                       required=True, help="instance family")
    bench.add_argument("--n", required=True, metavar="A..B",
                       help="instance size or size range, e.g. 2..5")
    bench.add_argument("--algorithm",
                       choices=("abstraction", "assignment", "both"),
                       default="both",
                       help="algorithms to run (default: both)")
    bench.add_argument("--csv", metavar="OUT.CSV", default=None,
                       help="CSV output path (default: stdout)")
    bench.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="seed of the random family (default: $QBFKIT_SEED if set, "
             "else 0)")
    bench.set_defaults(func=cmd_bench)

    convert = sub.add_parser(
        "convert", help="re-emit a problem as QCIR (or QDIMACS if CNF)")
    convert.add_argument("file", help="input problem (.qcir or .qdimacs)")
    convert.add_argument("-o", "--output", default=None,
                         help="output path; format follows the extension "
                              "(default: QCIR on stdout)")
    convert.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RecursionError:
        print("error: input nested too deeply (recursion limit reached)",
              file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
