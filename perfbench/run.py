"""qbfkit benchmark: QCIR text to a verified certificate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in this single process, along the
path a user runs: QCIR text -> ``parse_qcir`` -> ``preprocess`` ->
``solve_abstraction`` -> ``build_certificate`` -> ``write_aiger`` ->
``read_aiger`` -> ``verify``. On ``random-batch`` every instance is also
solved with ``solve_assignment``. The loop is closed: one instance at a time,
repeated (or cycled through the random pool, at least once) until ``S``
seconds have passed.

Every verdict is checked against the answer the benchmark knows, every
certificate must verify as valid, and certificates of small instances are
also checked by brute force (``oracle.py``). Each miss, exception, timeout
or memory exhaustion is a failed attempt.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` every other instance runs under the tracer of ``tracing.py``,
the result holds the per-layer metrics, and the spans are written to
``.perfbench/spans-<workload>-<seed>.jsonl``. A table for people comes
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import qbfkit
except ImportError as exc:
    sys.exit(f"perfbench: cannot import qbfkit from {SRC}: {exc}")
if not os.path.abspath(qbfkit.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: qbfkit was imported from {qbfkit.__file__}, "
             f"not from {SRC}")

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5  # set up at least this often
SETUP_MIN_S = 2.5  # and for at least this long, then report the median
INSTANCE_CAP_S = 60.0  # wall clock allowed to one instance
RUN_CAP_S = 150.0  # wall clock after which no instance may still run
WATCHDOG_S = 170.0  # wall clock after which the whole run gives up
MEMORY_CAP = 2 << 30  # bytes of address space
TAIL_SAMPLES = 100  # p90 is reported from this many samples on
SHOWN_FAILURES = 10  # failed attempts described on standard error

WARM_UP = workloads.xor_chain_qcir(3)


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def _give_up() -> None:
    print(f"perfbench: no result after {WATCHDOG_S:.0f} s", file=sys.stderr)
    os._exit(3)


@dataclass
class Outcome:
    verdict_s: float
    certified_s: float
    instance_s: float
    value: bool
    status: str
    agrees: bool
    aag: str
    counts: dict


def certify(text: str, both_algorithms: bool) -> Outcome:
    """Take one QCIR text to a verified certificate, timing the user's path."""
    t0 = perf_counter()
    problem = qbfkit.parse_qcir(text)
    reduced, info = qbfkit.preprocess(problem)
    value, trace, stats = qbfkit.solve_abstraction(reduced)
    t1 = perf_counter()
    circuit = qbfkit.build_certificate(problem, reduced, info.eliminated,
                                       trace, value)
    aag = qbfkit.write_aiger(circuit)
    status = qbfkit.verify(problem, qbfkit.read_aiger(aag)).status
    t2 = perf_counter()
    agrees = True
    if both_algorithms:
        agrees = qbfkit.solve_assignment(reduced)[0] == value
    t3 = perf_counter()
    counts = {
        "refinements": sum(stats.refinements),
        "cert_gates": len(circuit.gates),
        "parsing.nodes": len(problem.arena),
        "preprocess.nodes": len(reduced.arena),
        "preprocess.vars_eliminated": len(info.eliminated),
        "preprocess.blocks": reduced.scope_count,
    }
    return Outcome(t1 - t0, t2 - t0, t3 - t0, value, status, agrees, aag,
                   counts)


def failure(outcome: Outcome, expected: bool, problem) -> str | None:
    """Why an outcome is wrong, or None; ``problem`` is an ``oracle.Qcir``
    when the certificate should also be checked by brute force."""
    if outcome.value != expected:
        return f"verdict {outcome.value}, expected {expected}"
    if outcome.status != "valid":
        return f"certificate is {outcome.status}"
    if not outcome.agrees:
        return "solve_assignment disagrees"
    if problem is not None:
        return problem.check_certificate(outcome.aag, expected)
    return None


@dataclass(slots=True)
class Attempt:
    key: int  # which distinct instance
    traced: bool
    error: str | None
    verdict_s: float = 0.0
    certified_s: float = 0.0
    instance_s: float = 0.0


def measure(workload: str, texts: list[str], expected: list[bool],
            seconds: float, deadline: float,
            tracer: tracing.Tracer | None):
    """Run instances until ``seconds`` have passed and every distinct one ran.

    Returns the attempts and, per distinct instance, the counts of its first
    successful attempt. Under a tracer, even-numbered attempts are traced and
    odd ones are not, which gives the tracing overhead on the same run;
    there are always at least two attempts.
    """
    both = workload == "random-batch"
    unchecked = set(range(len(texts))) if workloads.is_small(workload) \
        else set()
    attempts: list[Attempt] = []
    counts: dict[int, dict] = {}
    failed = 0
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = perf_counter()
    while True:
        now = perf_counter()
        i = len(attempts)
        if i >= max(2, len(texts)) and now - start >= seconds:
            break
        budget = min(INSTANCE_CAP_S, deadline - now)
        if budget <= 0:
            break
        key = i % len(texts)
        traced = tracer is not None and i % 2 == 0
        outcome = error = None
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            if traced:
                tracer.instance = i
                tracer.install()
                root = tracer.begin("instance")
            try:
                outcome = certify(texts[key], both)
            finally:
                if traced:
                    tracer.end(root)
                    tracer.uninstall()
            problem = oracle.Qcir(texts[key]) if key in unchecked else None
            error = failure(outcome, expected[key], problem)
            unchecked.discard(key)
        except Timeout:
            error = f"timed out after {budget:.0f} s"
        except MemoryError:
            error = "ran out of memory"
        except Exception as exc:  # any crash counts as a failed attempt
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if error is not None:
            failed += 1
            if failed <= SHOWN_FAILURES:
                print(f"attempt {i} (instance {key}) failed: {error}",
                      file=sys.stderr)
            attempts.append(Attempt(key, traced, error))
            continue
        counts.setdefault(key, outcome.counts)
        attempts.append(Attempt(key, traced, None, outcome.verdict_s,
                                outcome.certified_s, outcome.instance_s))
    signal.signal(signal.SIGALRM, previous)
    return attempts, counts


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(setup_times, ok: list[Attempt], counts: dict) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "verdict_s": (statistics.median(a.verdict_s for a in ok), "s"),
        "certified_s": (statistics.median(a.certified_s for a in ok), "s"),
        "instances_per_s": (len(ok) / sum(a.instance_s for a in ok), "1/s"),
        "refinements": (_mean(c["refinements"] for c in counts.values()),
                        "count"),
        "cert_gates": (_mean(c["cert_gates"] for c in counts.values()),
                       "count"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def tails(ok: list[Attempt]) -> dict:
    """p90 of the per-instance times, where 10 samples lie beyond it."""
    if len(ok) < TAIL_SAMPLES:
        return {}
    out = {}
    for name in ("verdict_s", "certified_s"):
        values = [getattr(a, name) for a in ok]
        out[name + ".p90"] = (statistics.quantiles(values, n=10)[-1], "s")
    return out


LAYER_UNITS = {
    "parsing.s": "s", "parsing.nodes": "count",
    "preprocess.s": "s", "preprocess.nodes": "count",
    "preprocess.vars_eliminated": "count", "preprocess.blocks": "count",
    "abstraction.influence_s": "s", "abstraction.build_s": "s",
    "abstraction.blocks_built": "count",
    "sat.s": "s", "sat.queries": "count", "sat.query_ms": "ms",
    "sat.max_query_s": "s", "sat.conflicts": "count",
    "sat.propagations": "count", "sat.unsat_frac": "ratio",
    "sat.core_len": "count", "sat.clauses": "count",
    "sat.claim.s": "s", "sat.claim.queries": "count",
    "sat.claim.conflicts": "count",
    "sat.challenger.s": "s", "sat.challenger.queries": "count",
    "sat.challenger.conflicts": "count",
    "sat.verify.s": "s", "sat.verify.conflicts": "count",
    "sat.assignment.s": "s", "sat.assignment.queries": "count",
    "solver.s": "s", "solver.self_s": "s", "solver.refinements": "count",
    "solver.assignment_s": "s",
    "certify.extract_s": "s", "certify.verify_s": "s",
    "certify.verify_encode_s": "s",
    "aiger.write_s": "s", "aiger.read_s": "s", "aiger.gates": "count",
    "trace.verdict_s": "s", "trace.untraced_verdict_s": "s",
    "trace.overhead": "ratio",
}


def per_layer(prof: dict, attempts: list[Attempt], counts: dict) -> dict:
    """Per-layer metrics. Times are means over the traced instances, counts
    are means over the distinct instances traced, and the ``trace.*`` metrics
    compare traced with untraced instances of the same run."""
    traced = [i for i, a in enumerate(attempts)
              if a.traced and a.error is None]
    distinct = list({attempts[i].key: i for i in reversed(traced)}.values())

    def time(field: str) -> float:
        return _mean(prof[i][field] for i in traced)

    def count(field: str) -> float:
        return _mean(prof[i][field] for i in distinct)

    def outcome(field: str) -> float:
        return _mean(counts[attempts[i].key][field] for i in distinct)

    def abstraction_sat(field: str, per=count) -> float:
        return per(f"sat.claim.{field}") + per(f"sat.challenger.{field}")

    def verdict(is_traced: bool) -> float:
        times = [a.verdict_s for a in attempts
                 if a.traced == is_traced and a.error is None]
        return statistics.median(times) if times else 0.0

    sat_s = abstraction_sat("total", time)
    queries = abstraction_sat("count")
    unsat = abstraction_sat("unsat")
    traced_verdict, untraced_verdict = verdict(True), verdict(False)
    values = {
        "parsing.s": time("parsing.total"),
        "parsing.nodes": outcome("parsing.nodes"),
        "preprocess.s": time("preprocess.total"),
        "preprocess.nodes": outcome("preprocess.nodes"),
        "preprocess.vars_eliminated": outcome("preprocess.vars_eliminated"),
        "preprocess.blocks": outcome("preprocess.blocks"),
        "abstraction.influence_s": time("abstraction.influence.total"),
        "abstraction.build_s": time("abstraction.build.total"),
        "abstraction.blocks_built": count("abstraction.build.count"),
        "sat.s": sat_s,
        "sat.queries": queries,
        "sat.query_ms": 1000 * _ratio(sat_s, abstraction_sat("count", time)),
        "sat.max_query_s": _mean(max(prof[i]["sat.claim.max"],
                                     prof[i]["sat.challenger.max"])
                                 for i in traced),
        "sat.conflicts": abstraction_sat("conflicts"),
        "sat.propagations": abstraction_sat("propagations"),
        "sat.unsat_frac": _ratio(unsat, queries),
        "sat.core_len": _ratio(abstraction_sat("core"), unsat),
        "sat.clauses": abstraction_sat("clauses"),
        "sat.claim.s": time("sat.claim.total"),
        "sat.claim.queries": count("sat.claim.count"),
        "sat.claim.conflicts": count("sat.claim.conflicts"),
        "sat.challenger.s": time("sat.challenger.total"),
        "sat.challenger.queries": count("sat.challenger.count"),
        "sat.challenger.conflicts": count("sat.challenger.conflicts"),
        "sat.verify.s": time("sat.verify.total"),
        "sat.verify.conflicts": count("sat.verify.conflicts"),
        "sat.assignment.s": time("sat.assignment.total"),
        "sat.assignment.queries": count("sat.assignment.count"),
        "solver.s": time("solver.total"),
        "solver.self_s": time("solver.self"),
        "solver.refinements": outcome("refinements"),
        "solver.assignment_s": time("solver.assignment.total"),
        "certify.extract_s": time("certify.extract.total"),
        "certify.verify_s": time("certify.verify.total"),
        "certify.verify_encode_s": time("certify.verify.self"),
        "aiger.write_s": time("aiger.write.total"),
        "aiger.read_s": time("aiger.read.total"),
        "aiger.gates": outcome("cert_gates"),
        "trace.verdict_s": traced_verdict,
        "trace.untraced_verdict_s": untraced_verdict,
        "trace.overhead": _ratio(traced_verdict, untraced_verdict),
    }
    return {name: (value, LAYER_UNITS[name]) for name, value in values.items()}


def span_table(prof: dict, attempts: list[Attempt]) -> list[str]:
    """Count, total and self time of every span name, per traced instance."""
    traced = [i for i, a in enumerate(attempts)
              if a.traced and a.error is None]
    names = sorted({key.rsplit(".", 1)[0] for i in traced for key in prof[i]
                    if key.endswith(".self")})
    lines = [f"  {'span':24s} {'count':>10s} {'total_s':>12s} {'self_s':>12s}"]
    for name in names:
        row = [_mean(prof[i][f"{name}.{k}"] for i in traced)
               for k in ("count", "total", "self")]
        lines.append(f"  {name:24s} {row[0]:10.6g} {row[1]:12.6g} "
                     f"{row[2]:12.6g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    watchdog = threading.Timer(WATCHDOG_S, _give_up)
    watchdog.daemon = True
    watchdog.start()
    try:
        return run(args)
    finally:
        watchdog.cancel()


def run(args) -> int:
    deadline = perf_counter() + RUN_CAP_S
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, hard))

    setup_times: list[float] = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        t0 = perf_counter()
        texts = workloads.generate(args.workload, args.seed)
        certify(WARM_UP, both_algorithms=True)
        setup_times.append(perf_counter() - t0)
    expected = workloads.expected_values(args.workload, texts)

    tracer = tracing.Tracer() if args.trace else None
    attempts, counts = measure(args.workload, texts, expected, args.seconds,
                               deadline, tracer)
    ok = [a for a in attempts if a.error is None]
    failed = len(attempts) - len(ok)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"instances {len(attempts)} ({len(texts)} distinct)  "
          f"failed {failed}  failure_rate {failed / max(1, len(attempts)):.4g}")
    if not ok:
        return 1
    if tracer is None:
        metrics = end_to_end(setup_times, ok, counts)
        table = {**metrics, **tails(ok)}
    else:
        prof = tracing.profiles(tracer.spans)
        metrics = table = per_layer(prof, attempts, counts)
    for name, (value, unit) in table.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    if tracer is not None:
        print("\n".join(span_table(prof, attempts)))
        out = os.path.join(ROOT, ".perfbench")
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        print(f"  {len(tracer.spans)} spans written to {path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
