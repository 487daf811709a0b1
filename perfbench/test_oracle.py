"""The brute-force oracle decides small problems and judges certificates."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (puts src/ on the import path)
import oracle  # noqa: E402
import workloads  # noqa: E402

TRUE_QCIR = """#QCIR-G14
forall(x)
exists(y)
output(f)
g = and(-x, y)
f = or(x, g)
"""

# forall x exists y: y must copy x, which the Skolem function y = x does
COPY_QCIR = """#QCIR-G14
forall(x)
exists(y)
output(f)
a = or(-x, y)
b = or(x, -y)
f = and(a, b)
"""

SKOLEM_COPY = "aag 1 1 0 1 0\n2\n2\ni0 x\no0 y\nc\nskolem\n"


def test_values():
    assert oracle.Qcir(TRUE_QCIR).value() is True
    assert oracle.Qcir(COPY_QCIR).value() is True
    assert oracle.Qcir(workloads.xor_chain_qcir(4)).value() is False


def test_certificate_judgement():
    problem = oracle.Qcir(COPY_QCIR)
    assert problem.check_certificate(SKOLEM_COPY, True) is None
    negated = SKOLEM_COPY.replace("\n2\n2\n", "\n2\n3\n")
    assert problem.check_certificate(negated, True) is not None
    assert problem.check_certificate(SKOLEM_COPY, False) is not None


def test_qbfkit_certificates_pass_and_flipped_ones_fail():
    text = workloads.xor_chain_qcir(5)
    outcome = run.certify(text, both_algorithms=True)
    problem = oracle.Qcir(text)
    assert problem.check_certificate(outcome.aag, False) is None
    lines = outcome.aag.splitlines()
    ninputs = int(lines[0].split()[2])
    lines[1 + ninputs] = str(int(lines[1 + ninputs]) ^ 1)
    assert problem.check_certificate("\n".join(lines) + "\n", False) is not None
