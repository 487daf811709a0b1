"""The QCIR reader's output on a fixed corpus, and its error messages.

Both were recorded from the reader before its gate expansion became one
loop over gate frames, and must not move: the same nodes in the same order,
the same variable numbering, hoisted blocks and gate provenance, and word for
word the same `ParseError` messages.
"""

import hashlib
import random

import pytest

from qbfkit.bench import GenSpec, gen_expansion_hard, gen_qparity, gen_random
from qbfkit.parsing import ParseError, parse_qcir, write_qcir

from test_parsing import GOLDEN_QCIR
from test_sharing import random_hoisting_qcir, random_shared_qcir, xor_chain

CORPUS_DIGEST = \
    "613855782eb8034deb1609451888ada4e8acfa30636d8e3bd8f84dec6bbbb2b3"


def corpus():
    yield GOLDEN_QCIR
    for n in range(2, 7):
        yield write_qcir(gen_qparity(n))
    for n in range(1, 7):
        yield write_qcir(gen_expansion_hard(n))
    for i in range(300):
        yield write_qcir(gen_random(GenSpec(seed=i)))
    yield xor_chain(14)
    rng = random.Random(31)
    for _ in range(300):
        yield random_shared_qcir(rng)[0]
    rng = random.Random(32)
    for _ in range(300):
        yield from random_hoisting_qcir(rng)[:2]


def fingerprint(problem) -> bytes:
    arena = problem.arena
    prefix = [(scope.quantifier.value, scope.vars) for scope in problem.prefix]
    return repr((arena.kinds, arena.payload, arena.canon, problem.matrix,
                 prefix, problem.var_names, problem.node_gate)).encode()


def test_parse_of_the_corpus_matches_its_digest():
    digest = hashlib.sha256()
    for text in corpus():
        digest.update(fingerprint(parse_qcir(text)))
    assert digest.hexdigest() == CORPUS_DIGEST


HEAD = "#QCIR-G14\nexists(a, b, c)\noutput(g)\n"


@pytest.mark.parametrize("text, message", [
    (HEAD + "g = and(a,,b)\n", "line 4: bad literal ''"),
    (HEAD + "g = and(a, )\n", "line 4: bad literal ''"),
    (HEAD + "g = and(- a)\n", "line 4: bad literal '- a'"),
    (HEAD + "g = and(--a)\n", "line 4: bad literal '--a'"),
    (HEAD + "g = and(a b)\n", "line 4: bad literal 'a b'"),
    (HEAD + "g = xor(a)\n", "line 4: xor takes exactly two arguments"),
    (HEAD + "g = ite(a, b)\n", "line 4: ite takes exactly three arguments"),
    (HEAD + "g = and(a\tb)\n", "line 4: bad literal 'a\\tb'"),
    ("#QCIR-G14\nexists(a, b)\ng = and(a, b)\noutput(g)\n",
     "line 3: gate definition before output"),
])
def test_gate_line_errors_keep_their_wording(text, message):
    with pytest.raises(ParseError) as caught:
        parse_qcir(text)
    assert str(caught.value) == message


@pytest.mark.parametrize("text, signature", [
    (HEAD + "g = and(a,\tb,\t-c)\n", ("and", [1, 2, -3])),
    (HEAD + "g = AND(a, b)\n", ("and", [1, 2])),
    (HEAD + "g = and()\n", ("true", ())),
])
def test_gate_lines_that_parse(text, signature):
    problem = parse_qcir(text)
    arena = problem.arena
    kind = arena.kinds[problem.matrix]
    children = arena.payload[problem.matrix]
    if kind == "and":
        children = [arena.payload[c] for c in children]
    assert (kind, children) == signature
