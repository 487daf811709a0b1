"""And-inverter graph circuits with ASCII AIGER serialization.

Strategy functions are stored as combinational AIGs in the ``aag`` text
format: literal 0 is the constant false, 1 true, input ``i`` (0-based) gets
literal ``2 * (i + 1)``, and-gates follow the inputs, and negation toggles
the low bit. The symbol table names every input and output after a problem
variable, and a trailing comment section records which kind of strategy the
circuit carries.

`Circuit.and_` hashes gates structurally and folds constants. It also
keeps one gate triple per XOR: ``-(p & q) & -(-p & -q)`` is ``p ^ q``,
so the QCIR reader's two spellings of an XOR and of its complement become
one literal and its negation. A rule that returns an earlier literal leaves
the operand gates the caller built for it unused; `Circuit.sweep` drops
them.
"""

from __future__ import annotations

from .formula import AND, LIT, OR, TRUE, Arena, class_postorder
from .parsing import ParseError
from .sat import Solver

FALSE_LIT = 0
TRUE_LIT = 1


def negate(lit: int) -> int:
    return lit ^ 1


class Circuit:
    """A combinational and-inverter graph built bottom-up.

    `and_` folds constants and hashes gates and XORs structurally: it keys
    ``p ^ q`` by the variables of p and q and the parity of their signs, so
    a later spelling of an XOR or of its complement returns the first
    spelling's literal, negated when the parities differ.
    """

    def __init__(self):
        self.inputs: list[str] = []
        self._input_lit: dict[str, int] = {}
        self._gates: list[tuple[int, int]] = []  # operand pair per gate
        self._cache: dict[tuple[int, int], int] = {}
        self._xors: dict[tuple[int, int], int] = {}  # (P, Q) -> lit of P ^ Q
        self.outputs: list[tuple[str, int]] = []
        self.kind: str | None = None

    # ------------------------------------------------------------------
    # construction

    def add_input(self, name: str) -> int:
        if self._gates:  # a gate's literal follows every input's
            raise ValueError(f"input {name!r} added after the first gate")
        if name in self._input_lit:
            raise ValueError(f"duplicate input {name!r}")
        lit = 2 * (len(self.inputs) + 1)
        self.inputs.append(name)
        self._input_lit[name] = lit
        return lit

    def input_lit(self, name: str) -> int:
        return self._input_lit[name]

    def and_(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a == FALSE_LIT or a == negate(b):
            return FALSE_LIT
        if a == TRUE_LIT or a == b:
            return b
        cached = self._cache.get((a, b))
        if cached is not None:
            return cached
        gates, first = self._gates, len(self.inputs) + 1
        lit = 2 * (first + len(gates))
        if a & b & 1 and a // 2 >= first:  # -(p & q) & -(-p & -q) = p ^ q
            p, q = gates[a // 2 - first]
            if gates[b // 2 - first] == (p ^ 1, q ^ 1):
                xor, parity = (p & ~1, q & ~1), (p ^ q) & 1
                known = self._xors.get(xor)
                if known is not None:
                    return known ^ parity
                self._xors[xor] = lit ^ parity
        gates.append((a, b))
        self._cache[(a, b)] = lit
        return lit

    def or_(self, a: int, b: int) -> int:
        return negate(self.and_(negate(a), negate(b)))

    def and_many(self, lits) -> int:
        out = TRUE_LIT
        for lit in lits:
            out = self.and_(out, lit)
        return out

    def or_many(self, lits) -> int:
        out = FALSE_LIT
        for lit in lits:
            out = self.or_(out, lit)
        return out

    def add_output(self, name: str, lit: int) -> None:
        self.outputs.append((name, lit))

    @property
    def max_var(self) -> int:
        return len(self.inputs) + len(self._gates)

    @property
    def gates(self) -> list[tuple[int, int, int]]:
        """(lhs, rhs0, rhs1) triples in topological order."""
        first = len(self.inputs) + 1
        return [(2 * (first + i), a, b)
                for i, (a, b) in enumerate(self._gates)]

    def sweep(self) -> Circuit:
        """This circuit without the gates no output reads.

        One pass from the last gate back marks the live ones; they are
        rebuilt in order into a new circuit with the same inputs, outputs
        and kind. A circuit with no dead gate is returned as it is.
        """
        if not self._gates:
            return self
        first = len(self.inputs) + 1
        live = [False] * (first + len(self._gates))
        for _, lit in self.outputs:
            live[lit // 2] = True
        for v in range(len(live) - 1, first - 1, -1):
            if live[v]:
                a, b = self._gates[v - first]
                live[a // 2] = live[b // 2] = True
        if all(live[first:]):
            return self
        swept = Circuit()
        lit_of = [FALSE_LIT] + [swept.add_input(name) for name in self.inputs]

        def moved(lit: int) -> int:
            return lit_of[lit // 2] ^ (lit & 1)

        for v, (a, b) in enumerate(self._gates, start=first):
            lit_of.append(swept.and_(moved(a), moved(b)) if live[v]
                          else FALSE_LIT)
        swept.outputs = [(name, moved(lit)) for name, lit in self.outputs]
        swept.kind = self.kind
        return swept

    # ------------------------------------------------------------------
    # semantics

    def evaluate(self, values: dict[str, bool]) -> dict[str, bool]:
        """Output values under an assignment of the named inputs."""
        val = [False, True] + [None] * (2 * self.max_var)
        for name in self.inputs:
            lit = self._input_lit[name]
            bit = bool(values[name])
            val[lit], val[lit + 1] = bit, not bit
        for lhs, a, b in self.gates:
            bit = val[a] and val[b]
            val[lhs], val[lhs + 1] = bit, not bit
        return {name: val[lit] for name, lit in self.outputs}

    def cone(self, lit: int) -> list[int]:
        """The non-constant variables the given literal structurally depends
        on, itself included, in ascending (topological) order."""
        ninputs = len(self.inputs)
        seen: set[int] = set()
        stack = [lit // 2]
        while stack:
            v = stack.pop()
            if v == 0 or v in seen:
                continue
            seen.add(v)
            if v > ninputs:
                a, b = self._gates[v - ninputs - 1]
                stack.extend((a // 2, b // 2))
        return sorted(seen)

    def cone_inputs(self, lit: int) -> set[str]:
        """Names of the inputs the given literal structurally depends on."""
        ninputs = len(self.inputs)
        return {self.inputs[v - 1] for v in self.cone(lit) if v <= ninputs}

    def to_cnf(self, solver: Solver, lit: int) -> dict[int, int]:
        """Tseitin-encode the cone of a non-constant literal into `solver`.

        Each cone variable gets a fresh SAT variable in ascending order, so
        inputs come first and fresh solvers number a cone alike, and each
        gate gets its three clauses. Returns the map from circuit variable to
        SAT variable; the literal itself is left unasserted.
        """
        sat_var = {v: solver.fresh_var() for v in self.cone(lit)}

        def to_sat(lit: int) -> int:
            base = sat_var[lit // 2]
            return -base if lit & 1 else base

        gates, first_gate = self._gates, len(self.inputs) + 1
        for v in sat_var:
            if v < first_gate:
                continue
            a, b = gates[v - first_gate]
            gate, lit_a, lit_b = sat_var[v], to_sat(a), to_sat(b)
            solver.add_clause([-gate, lit_a])
            solver.add_clause([-gate, lit_b])
            solver.add_clause([gate, -lit_a, -lit_b])
        return sat_var


def encode_formula(circuit: Circuit, arena: Arena, node: int,
                   var_lit: dict[int, int], encoded: dict[int, int]) -> int:
    """Encode an NNF subformula into the circuit, substituting variables.

    `var_lit` maps each variable of the subformula to a circuit literal.
    `encoded` memoizes the circuit literal of every structural class
    (`arena.canon`) encoded so far, across calls, so each class is encoded
    once however many nodes it has. Reusing it is sound as long as no entry
    of `var_lit` that an encoded class reads is changed afterwards.
    """
    kinds, payload, canon = arena.kinds, arena.payload, arena.canon
    for n in class_postorder(arena, node, encoded):
        kind = kinds[n]
        if kind == LIT:
            lit = payload[n]
            base = var_lit[abs(lit)]
            out = base if lit > 0 else negate(base)
        elif kind == AND:
            out = circuit.and_many([encoded[canon[c]] for c in payload[n]])
        elif kind == OR:
            out = circuit.or_many([encoded[canon[c]] for c in payload[n]])
        else:
            out = TRUE_LIT if kind == TRUE else FALSE_LIT
        encoded[canon[n]] = out
    return encoded[canon[node]]


class TwoLevelCircuit(Circuit):
    """A circuit whose `and_` also applies the local two-level rules of
    Brummayer and Biere, "Local Two-Level And-Inverter Graph Minimization
    without Blowup" (MEMICS 2006), wherever an operand is a gate, plain or
    negated:

    * contradiction: ``(x1 & x2) & -x1 = 0``, and
      ``(x1 & x2) & (y1 & y2) = 0`` when some ``xi`` is ``-yj``;
    * idempotence: ``(x1 & x2) & x1 = x1 & x2``;
    * subsumption: ``-(x1 & x2) & -x1 = -x1``;
    * substitution: ``-(x1 & x2) & x1 = x1 & -x2``.

    Each rule returns an existing literal or asks for at most one gate, so
    the graph never grows. Substitution swaps an operand for one of its
    operands, which is defined before it, so rewriting the pair in a loop
    ends after at most as many steps as the operands are deep. A rule can
    leave a gate built earlier without a user. Only the checker's miter uses
    this class; certificates are plain `Circuit`s, swept of dead gates.
    """

    def and_(self, a: int, b: int) -> int:
        gates, first = self._gates, len(self.inputs) + 1
        while True:
            if a > b:
                a, b = b, a
            if a == FALSE_LIT or a == negate(b):
                return FALSE_LIT
            if a == TRUE_LIT or a == b:
                return b
            pair_a = gates[a // 2 - first] if a // 2 >= first else None
            pair_b = gates[b // 2 - first] if b // 2 >= first else None
            if pair_a and pair_b and not (a | b) & 1 and (
                    negate(pair_a[0]) in pair_b or negate(pair_a[1]) in pair_b):
                return FALSE_LIT
            substituted = None
            for x, y, pair in ((a, b, pair_a), (b, a, pair_b)):
                if pair is None:
                    continue
                if negate(y) in pair:  # subsumption or contradiction
                    return y if x & 1 else FALSE_LIT
                if y in pair:
                    if not x & 1:  # idempotence
                        return x
                    if substituted is None:
                        substituted = y, negate(
                            pair[1] if y == pair[0] else pair[0])
            if substituted is None:
                return super().and_(a, b)
            a, b = substituted


def write_aiger(circuit: Circuit) -> str:
    lines = [f"aag {circuit.max_var} {len(circuit.inputs)} 0 "
             f"{len(circuit.outputs)} {len(circuit._gates)}"]
    lines += [str(circuit.input_lit(name)) for name in circuit.inputs]
    lines += [str(lit) for _, lit in circuit.outputs]
    lines += [f"{lhs} {a} {b}" for lhs, a, b in circuit.gates]
    lines += [f"i{i} {name}" for i, name in enumerate(circuit.inputs)]
    lines += [f"o{i} {name}" for i, (name, _) in enumerate(circuit.outputs)]
    if circuit.kind is not None:
        lines += ["c", circuit.kind]
    return "\n".join(lines) + "\n"


def read_aiger(text: str) -> Circuit:
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty AIGER file")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "aag":
        raise ParseError(f"bad AIGER header: {lines[0]!r}")
    try:
        maxvar, nin, nlatch, nout, nand = (int(tok) for tok in header[1:])
    except ValueError:
        raise ParseError(f"bad AIGER header: {lines[0]!r}") from None
    if min(maxvar, nin, nlatch, nout, nand) < 0:
        raise ParseError(f"negative AIGER header field: {lines[0]!r}")
    if nlatch != 0:
        raise ParseError("latches are not supported")
    if maxvar != nin + nand:
        raise ParseError("header size fields are inconsistent")
    body = lines[1:]
    if len(body) < nin + nout + nand:
        raise ParseError("truncated AIGER file")

    for i in range(nin):
        lit = _aiger_int(body[i])
        if lit != 2 * (i + 1):
            raise ParseError(f"input {i} has unexpected literal {lit}")
    out_lits = [_aiger_int(body[nin + i]) for i in range(nout)]
    gates: list[tuple[int, int]] = []
    defined = nin
    for i in range(nand):
        parts = body[nin + nout + i].split()
        if len(parts) != 3:
            raise ParseError(f"bad and-gate line: {body[nin + nout + i]!r}")
        lhs, a, b = (_aiger_int(p) for p in parts)
        if lhs != 2 * (defined + 1):
            raise ParseError(f"and-gate defines unexpected literal {lhs}")
        if lhs % 2 or a // 2 > defined or b // 2 > defined:
            raise ParseError(f"and-gate {lhs} uses undefined operands")
        gates.append((min(a, b), max(a, b)))
        defined += 1
    for lit in out_lits:
        if lit // 2 > maxvar:
            raise ParseError(f"output literal {lit} is out of range")

    in_names = [f"i{i}" for i in range(nin)]  # unless the symbol table names them
    out_names = [f"o{i}" for i in range(nout)]
    rest = body[nin + nout + nand:]
    comment_at = None
    for offset, line in enumerate(rest):
        if line == "c":
            comment_at = offset
            break
        tag, _, name = line.partition(" ")
        if not name or tag[:1] not in ("i", "o") or not tag[1:].isdigit():
            raise ParseError(f"bad symbol table entry: {line!r}")
        index = int(tag[1:])
        if tag[0] == "i":
            if index >= nin:
                raise ParseError(f"symbol for unknown input: {line!r}")
            in_names[index] = name
        else:
            if index >= nout:
                raise ParseError(f"symbol for unknown output: {line!r}")
            out_names[index] = name
    circuit = Circuit()
    for name in in_names:
        if name in circuit._input_lit:
            raise ParseError(f"duplicate input name {name!r}")
        circuit.add_input(name)
    circuit._gates = gates
    circuit.outputs = list(zip(out_names, out_lits))
    if comment_at is not None:
        comment = [ln for ln in rest[comment_at + 1:] if ln.strip()]
        if comment and comment[0] in ("skolem", "herbrand"):
            circuit.kind = comment[0]
    return circuit


def _aiger_int(line: str) -> int:
    try:
        value = int(line)
    except ValueError:
        raise ParseError(f"expected a literal, got {line!r}") from None
    if value < 0:
        raise ParseError(f"negative literal {value}")
    return value
