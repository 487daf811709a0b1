"""Count fingerprint of every workload.

The counts below must repeat exactly from run to run, and on the two
structured families they must match the facts measured when the benchmark
was defined. Run with ``python3 -m pytest perfbench``.
"""

import math
import os
import sys
from time import perf_counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (puts src/ on the import path)
import tracing  # noqa: E402
import workloads  # noqa: E402

FINGERPRINT = ("solver.refinements", "sat.queries", "sat.conflicts",
               "aiger.gates", "parsing.nodes")

BASELINE = {
    "qparity": {"sat.queries": 7, "solver.refinements": 2,
                "parsing.nodes": 4097},
    "expansion": {"sat.queries": 2043, "solver.refinements": 511},
}


def fingerprint(workload: str, seed: int = 0) -> dict:
    texts = workloads.generate(workload, seed)
    expected = workloads.expected_values(workload, texts)
    tracer = tracing.Tracer()
    attempts, counts = run.measure(workload, texts, expected, seconds=0,
                           deadline=perf_counter() + run.RUN_CAP_S,
                           tracer=tracer)
    assert [a.error for a in attempts if a.error] == []
    metrics = run.per_layer(tracing.profiles(tracer.spans), attempts, counts)
    return {name: metrics[name][0] for name in FINGERPRINT}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = fingerprint(workload)
    assert all(value > 0 for value in first.values()), first
    assert fingerprint(workload) == first


@pytest.mark.parametrize("workload", sorted(BASELINE))
def test_counts_match_the_baseline(workload):
    counts = fingerprint(workload)
    for name, value in BASELINE[workload].items():
        assert math.isclose(counts[name], value), (name, counts[name])
