"""The benchmark's inputs: QCIR texts and the truth value each must get.

Why each workload exists, and which layer it stresses, is recorded in
``BENCHMARK.json`` and ``perfbench/README.md``. The program under test sees
only the QCIR text that ``generate`` returns.
"""

from __future__ import annotations

import random

import qbfkit

import oracle

WORKLOADS = ("qparity", "expansion", "xor-chain", "random-batch")

QPARITY_N = 32
EXPANSION_N = 128
XOR_CHAIN_N = 12
RANDOM_POOL = 4000


def xor_chain_qcir(n: int) -> str:
    """exists x1..xn forall z: z must equal the parity of X, so it is false.

    ``p_i = xor(p_{i-1}, x_i)`` uses the previous gate twice once expanded
    into and/or form, so a parser that re-expands each use of a gate
    doubles its work at every level.
    """
    lines = ["#QCIR-G14",
             "exists(" + ", ".join(f"x{i}" for i in range(1, n + 1)) + ")",
             "forall(z)",
             "output(m)"]
    prev = "x1"
    for i in range(2, n + 1):
        lines.append(f"p{i} = xor({prev}, x{i})")
        prev = f"p{i}"
    lines += [f"a = or(z, {prev})", f"b = or(-z, -{prev})", "m = and(a, b)"]
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int) -> list[str]:
    """The distinct instances of a workload, in the order they are run.

    ``qparity``, ``expansion`` and ``xor-chain`` are one fixed instance each.
    ``random-batch`` is a fixed pool of ``gen_random`` instances at the
    default envelope, and the seed shuffles the order they are run in: a
    pool drawn per seed would make its certificate gates (about one per
    thousand instances) and refinements differ from seed to seed.
    """
    if workload == "qparity":
        return [qbfkit.write_qcir(qbfkit.gen_qparity(QPARITY_N))]
    if workload == "expansion":
        return [qbfkit.write_qcir(qbfkit.gen_expansion_hard(EXPANSION_N))]
    if workload == "xor-chain":
        return [xor_chain_qcir(XOR_CHAIN_N)]
    if workload == "random-batch":
        texts = [qbfkit.write_qcir(qbfkit.gen_random(qbfkit.GenSpec(seed=i)))
                 for i in range(RANDOM_POOL)]
        random.Random(seed).shuffle(texts)
        return texts
    raise ValueError(f"unknown workload {workload!r}")


def expected_values(workload: str, texts: list[str]) -> list[bool]:
    """The truth value of each instance, known without running qbfkit.

    The parity games (``qparity``, ``xor-chain``) and the expansion-hard
    family are false by construction. Instances with few enough variables
    (``xor-chain`` and the random pool) are decided by brute force instead.
    """
    if is_small(workload):
        return [oracle.Qcir(text).value() for text in texts]
    return [False] * len(texts)


def is_small(workload: str) -> bool:
    """Whether the brute-force oracle can decide and check its instances."""
    return workload in ("xor-chain", "random-batch")
