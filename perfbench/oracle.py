"""Brute-force reference answers that share no code with qbfkit.

Small instances are decided from their QCIR text with truth tables, and
their AIGER certificates are checked the same way. A truth table is a Python
integer with one bit per assignment of all n variables: bit ``a`` holds the
value under the assignment that gives the variable with index ``j`` the value
``(a >> j) & 1``. Variables are indexed in the order the prefix declares
them. Tables have 2**n bits, so only instances with at most ``MAX_VARS``
variables are checked this way.
"""

from __future__ import annotations

import re

MAX_VARS = 16

_CALL = re.compile(r"(\w+)\s*\((.*)\)\Z")
_GATE = re.compile(r"(\w+)\s*=\s*(\w+)\s*\((.*)\)\Z")


class Tables:
    """Truth tables of the n variables and the quantifier elimination."""

    def __init__(self, n: int) -> None:
        if n > MAX_VARS:
            raise ValueError(f"{n} variables are too many to enumerate")
        self.full = (1 << (1 << n)) - 1
        self.var = []
        for j in range(n):
            width = 1 << j
            period = (1 << (2 * width)) - 1
            self.var.append(self.full // period * (((1 << width) - 1) << width))

    def depends_on(self, table: int, j: int) -> bool:
        low = self.full ^ self.var[j]
        return (table & low) != ((table >> (1 << j)) & low)

    def eliminate(self, table: int, j: int, exists: bool) -> int:
        """Quantify variable j away; the result lives on the bit j = 0 half."""
        low = self.full ^ self.var[j]
        a, b = table & low, (table >> (1 << j)) & low
        return a | b if exists else a & b


class Qcir:
    """A prenex QCIR problem read from text, gate by gate."""

    def __init__(self, text: str) -> None:
        self.prefix: list[tuple[bool, list[str]]] = []  # (exists, names)
        self.gates: dict[str, tuple[str, list[str]]] = {}
        self.output = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            gate = _GATE.match(line)
            if gate:
                self.gates[gate.group(1)] = (gate.group(2).lower(),
                                             _args(gate.group(3)))
                continue
            call = _CALL.match(line)
            keyword = call.group(1).lower() if call else None
            if keyword in ("exists", "forall"):
                self.prefix.append((keyword == "exists", _args(call.group(2))))
            elif keyword == "output":
                self.output = call.group(2).strip()
            else:
                raise ValueError(f"unsupported QCIR line {line!r}")
        self.order = [name for _, names in self.prefix for name in names]
        self.index = {name: j for j, name in enumerate(self.order)}
        self.exists = {name: ex for ex, names in self.prefix for name in names}
        self.tables = Tables(len(self.order))

    def matrix(self, subst: dict[str, int] | None = None) -> int:
        """The truth table of the output, with some variables substituted."""
        memo: dict[str, int] = {}
        full = self.tables.full

        def of(tok: str) -> int:
            if tok.startswith("-"):
                return full ^ of(tok[1:])
            if tok in memo:
                return memo[tok]
            if tok in self.gates:
                op, args = self.gates[tok]
                values = [of(a) for a in args]
                if op == "and":
                    out = full
                    for v in values:
                        out &= v
                elif op == "or":
                    out = 0
                    for v in values:
                        out |= v
                elif op == "xor":
                    out = 0
                    for v in values:
                        out ^= v
                else:
                    raise ValueError(f"unsupported gate type {op!r}")
            elif subst is not None and tok in subst:
                out = subst[tok]
            else:
                out = self.tables.var[self.index[tok]]
            memo[tok] = out
            return out

        return of(self.output)

    def value(self) -> bool:
        """Truth of the closed problem, innermost variable eliminated first."""
        table = self.matrix()
        for name in reversed(self.order):
            table = self.tables.eliminate(table, self.index[name],
                                          self.exists[name])
        return bool(table & 1)

    def check_certificate(self, aag: str, value: bool) -> str | None:
        """Why an ASCII AIGER strategy fails this problem, or None if it holds.

        A true problem needs a Skolem function for each existential variable
        and a false one a Herbrand function for each universal variable. A
        function may read only the variables of the other kind declared
        before its own, and substituting every function must leave the
        matrix true (Skolem) or false (Herbrand) under all assignments.
        """
        kind, inputs, outputs, gates = _read_aag(aag)
        if kind != ("skolem" if value else "herbrand"):
            return f"certificate kind {kind!r} does not fit a value of {value}"
        own = [name for name in self.order if self.exists[name] == value]
        if sorted(outputs) != sorted(own):
            return "outputs are not exactly the strategy variables"
        lit_table = {0: 0, 1: self.tables.full}
        for lit, name in inputs.items():
            if name not in self.index or self.exists[name] == value:
                return f"input {name!r} is not a reaction variable"
            lit_table[lit] = self.tables.var[self.index[name]]
        for lhs, a, b in gates:
            lit_table[lhs] = _lit(lit_table, a) & _lit(lit_table, b)
        subst = {}
        for name, lit in outputs.items():
            table = _lit(lit_table, lit)
            j = self.index[name]
            for other in self.order[j + 1:]:
                if self.exists[other] != value and \
                        self.tables.depends_on(table, self.index[other]):
                    return f"function of {name} reads the inner {other}"
            subst[name] = table
        if self.matrix(subst) != (self.tables.full if value else 0):
            return "the matrix does not follow the strategy"
        return None


def _args(text: str) -> list[str]:
    return [a.strip() for a in text.split(",") if a.strip()]


def _lit(lit_table: dict[int, int], lit: int) -> int:
    table = lit_table[lit & ~1]
    return table ^ lit_table[1] if lit & 1 else table


def _read_aag(text: str):
    """Kind, input literal -> name, output name -> literal, and the gates."""
    lines = text.splitlines()
    _, _, nin, _, nout, nand = lines[0].split()
    nin, nout, nand = int(nin), int(nout), int(nand)
    in_lits = [int(line) for line in lines[1:1 + nin]]
    out_lits = [int(line) for line in lines[1 + nin:1 + nin + nout]]
    body = 1 + nin + nout
    gates = [tuple(int(tok) for tok in line.split())
             for line in lines[body:body + nand]]
    in_names, out_names, kind = {}, {}, None
    rest = lines[body + nand:]
    for k, line in enumerate(rest):
        if line == "c":
            kind = rest[k + 1] if k + 1 < len(rest) else None
            break
        tag, name = line.split(" ", 1)
        (in_names if tag[0] == "i" else out_names)[int(tag[1:])] = name
    inputs = {lit: in_names[i] for i, lit in enumerate(in_lits)}
    outputs = {out_names[i]: lit for i, lit in enumerate(out_lits)}
    return kind, inputs, outputs, gates
