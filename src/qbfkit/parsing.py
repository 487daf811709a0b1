"""Readers and writers for QCIR-G14 and QDIMACS problem files.

Parsing produces a closed prenex NNF `QbfProblem`:

* gate definitions are expanded into NNF with polarity pushed down to the
  leaves (`xor` and `ite` are rewritten into and/or form) by one loop over
  an explicit stack of gate frames, so gate chains of any depth parse,
* gate quantifiers (non-prenex input) are hoisted to the end of the prefix in
  depth-first order, with bound variables renamed apart per expansion,
* a gate is expanded once per polarity and per binding of its support: the
  names bound by gate quantifiers that it reads, itself or through the gates
  it reads, unless a gate quantifier on the way rebinds them. Its expansion
  depends on nothing else, so a shared gate stays one node per such key.
  That is sound for a gate that hoists a quantifier too: in NNF each use of
  it is monotone, and its block, hoisted at its first expansion, sits inside
  every variable it reads (an outer one, or a support name's binding,
  hoisted before it), so one hoisted copy per key serves all its uses,
* free variables - declared via `free(...)` or simply never quantified - are
  closed under an outermost existential block,
* adjacent blocks with the same quantifier are merged.
"""

from __future__ import annotations

import itertools
import re

from .formula import (AND, FALSE, LIT, OR, TRUE, Arena, QbfProblem, Quantifier,
                      Scope)

_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")
_LITERAL = re.compile(r"-?[A-Za-z0-9_]+\Z")
_GATE_DEF = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([A-Za-z]+)\s*\((.*)\)\Z")
# a gate line whose arguments are all literals, checked in one match
_LITERAL_GATE = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([A-Za-z]+)\s*\("
                           r"(\s*(?:-?[A-Za-z0-9_]+\s*(?:,\s*-?[A-Za-z0-9_]+\s*)*)?)\)\Z")
_BLOCK = re.compile(r"(free|exists|forall)\s*\((.*)\)\Z", re.IGNORECASE)
_OUTPUT = re.compile(r"output\s*\((.*)\)\Z", re.IGNORECASE)

_QUANT_KEYWORDS = {"exists": Quantifier.EXISTS, "forall": Quantifier.FORALL}


class ParseError(Exception):
    """Malformed problem file; the message names the offending line."""


def _split_args(text: str):
    return [p.strip() for p in text.split(",")] if text.strip() else []


def _check_literal(token: str, lineno: int) -> str:
    if not _LITERAL.match(token):
        raise ParseError(f"line {lineno}: bad literal {token!r}")
    return token


def _negated(literal: str) -> str:
    return literal[1:] if literal[0] == "-" else "-" + literal


class _QcirReader:
    def __init__(self, text: str) -> None:
        self.text = text
        self.arena = Arena()
        self.var_ids: dict[str, int] = {}  # declared prefix variables
        self.var_names: dict[int, str] = {}
        self.next_var = 1
        self.free_ids: list[int] = []
        self.explicit: list[Scope] = []
        self.hoisted: list[Scope] = []
        # name -> (op, args, lineno, number), each argument a literal: a name,
        # negated by a leading `-`; a gate quantifier's op is (quantifier,
        # bound names, argument) and its args are None
        self.gates: dict[str, tuple] = {}
        self.node_gate: dict[int, int] = {}
        self.output: str | None = None  # a literal
        self.bound: dict[str, int] = {}  # gate-quantifier bindings in scope
        self.used_names: set[str] = set()

    # -- variable allocation -------------------------------------------

    def _new_var(self, name: str) -> int:
        v = self.next_var
        self.next_var += 1
        final = name
        k = 1
        while final in self.used_names:  # rename apart, keeping names unique
            final = f"{name}_{k}"
            k += 1
        self.used_names.add(final)
        self.var_names[v] = final
        return v

    def _declare(self, name: str, lineno: int) -> int:
        if name in self.var_ids or name in self.gates:
            raise ParseError(f"line {lineno}: {name!r} is already defined")
        v = self._new_var(name)
        self.var_ids[name] = v
        return v

    # -- line collection -------------------------------------------------

    def read_lines(self) -> None:
        gate_number = itertools.count(1)
        for lineno, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            # gate lines first, as most lines are gates; no line matches two
            # patterns, since the leading word is followed by `=` in a gate
            # and by `(` in a block or the output
            gate = _LITERAL_GATE.match(line) or _GATE_DEF.match(line)
            if gate:
                self._read_gate(gate, lineno, next(gate_number))
                continue
            block = _BLOCK.match(line)
            if block:
                self._read_block(block, lineno)
                continue
            out = _OUTPUT.match(line)
            if out:
                if self.output is not None:
                    raise ParseError(f"line {lineno}: second output statement")
                self.output = _check_literal(out.group(1).strip(), lineno)
                continue
            raise ParseError(f"line {lineno}: cannot parse {line!r}")
        if self.output is None:
            raise ParseError("missing output statement")

    def _read_block(self, match: re.Match, lineno: int) -> None:
        if self.output is not None:
            raise ParseError(f"line {lineno}: quantifier block after output")
        keyword = match.group(1).lower()
        names = _split_args(match.group(2))
        if not names:
            raise ParseError(f"line {lineno}: empty {keyword} block")
        ids = []
        for name in names:
            if not _IDENT.match(name):
                raise ParseError(f"line {lineno}: bad variable name {name!r}")
            ids.append(self._declare(name, lineno))
        if keyword == "free":
            if self.explicit or self.free_ids:
                raise ParseError(f"line {lineno}: free block must come first")
            self.free_ids.extend(ids)
        else:
            self.explicit.append(Scope(_QUANT_KEYWORDS[keyword], tuple(ids)))

    def _read_gate(self, match: re.Match, lineno: int, number: int) -> None:
        if self.output is None:
            raise ParseError(f"line {lineno}: gate definition before output")
        name, op, body = match.groups()
        op = op.lower()
        if name in self.var_ids or name in self.gates:
            raise ParseError(f"line {lineno}: {name!r} is already defined")
        if op in ("and", "or", "xor", "ite"):
            if match.re is _LITERAL_GATE:  # no literal holds white space
                args = "".join(body.split()).split(",") if body.strip() else []
            else:  # raise on the first bad literal
                args = [_check_literal(a, lineno) for a in _split_args(body)]
            if op == "xor" and len(args) != 2:
                raise ParseError(f"line {lineno}: xor takes exactly two arguments")
            if op == "ite" and len(args) != 3:
                raise ParseError(f"line {lineno}: ite takes exactly three arguments")
            self.gates[name] = (op, args, lineno, number)
        elif op in _QUANT_KEYWORDS:
            head, sep, tail = body.partition(";")
            if not sep:
                raise ParseError(f"line {lineno}: gate quantifier needs ';'")
            bound = _split_args(head)
            if not bound:
                raise ParseError(f"line {lineno}: gate quantifier binds no variables")
            for b in bound:
                if not _IDENT.match(b):
                    raise ParseError(f"line {lineno}: bad variable name {b!r}")
            inner = _check_literal(tail.strip(), lineno)
            self.gates[name] = ((_QUANT_KEYWORDS[op], bound, inner), None, lineno, number)
        else:
            raise ParseError(f"line {lineno}: unknown gate type {op!r}")

    def supports(self) -> dict[str, tuple[str, ...]]:
        """Each gate's support (see the module docstring) where it is not
        empty: the least solution of the support equations, found by a
        worklist, as gate definitions may read each other in a cycle."""
        gates = self.gates
        binds = {name: op[1] for name, (op, *_) in gates.items()
                   if type(op) is tuple}
        bindable = {b for names in binds.values() for b in names}
        support: dict[str, set[str]] = {}
        readers: dict[str, list[str]] = {}  # gate -> the gates reading it
        for name, (op, args, _, _) in gates.items() if bindable else ():
            names = [a.lstrip("-") for a in (args if args is not None else [op[2]])]
            support[name] = bindable.intersection(names).difference(binds.get(name, ()))
            for a in names:
                if a in gates:
                    readers.setdefault(a, []).append(name)
        work = list(support)
        while work:
            name = work.pop()
            for reader in readers.get(name, ()):
                grown = support[name].difference(binds.get(reader, ()), support[reader])
                if grown:
                    support[reader] |= grown
                    work.append(reader)
        return {name: tuple(names) for name, names in support.items() if names}

    # -- expansion to NNF -------------------------------------------------

    def expand(self, literal: str) -> int:
        """The NNF node of a literal: a variable's leaf, or a gate expanded
        with its polarity pushed down to the leaves.

        This runs over an explicit stack of gate frames, taking arguments in
        the order a recursion would, so nodes, variables and hoisted blocks
        are created in that order. The current frame is held in locals: the
        connective of its node (None passes its one child up), its argument
        literals, the polarity they are read in, the next argument's index,
        the nodes built so far, whether each two of them are joined by an
        `and` first (the arms of `xor` and `ite`), and its gate (None for the
        root). A gate argument not in the memo suspends the frame on `stack`.
        """
        arena, bound, gates, var_ids = self.arena, self.bound, self.gates, self.var_ids
        build, lit, node_gate, support = (arena.build, arena.lit, self.node_gate,
                                          self.supports())
        memo: dict[tuple, int] = {}  # (gate, negate, support bindings) -> node
        expanding: set[str] = set()
        stack: list[tuple] = []
        kind, args, negate, i, children, pair, gate = (
            None, (literal,), False, 0, [], False, None)
        while True:
            if i < len(args):
                a = args[i]
                i += 1
                neg = a[0] == "-"
                if neg:
                    a = a[1:]
                neg ^= negate
                if a in gates and a not in bound:
                    sup = support.get(a)
                    key = (a, neg) if sup is None else (a, neg, *map(bound.get, sup))
                    node = memo.get(key)
                    if node is None:
                        if a in expanding:
                            raise ParseError(
                                f"line {gates[a][2]}: gate {a!r} is defined cyclically")
                        expanding.add(a)
                        stack.append((kind, args, negate, i, children, pair, gate))
                        op, args, _, number = gates[a]
                        gate, negate, pair = (a, key, number, None), neg, False
                        i, children = 0, []
                        if op == AND or op == OR:
                            kind = (OR if op == AND else AND) if neg else op
                        elif op == "xor":  # one arm per way to be true
                            x, y = args
                            args = (x, y if neg else _negated(y), _negated(x),
                                    _negated(y) if neg else y)
                            kind, pair, negate = OR, True, False
                        elif op == "ite":
                            c, t, e = args
                            if neg:
                                t, e = _negated(t), _negated(e)
                            args = (c, t, _negated(c), e)
                            kind, pair, negate = OR, True, False
                        else:  # hoist to the prefix, renaming apart per expansion
                            quantifier, names, inner = op
                            if neg:
                                quantifier = quantifier.complement
                            saved = {b: bound.get(b) for b in names}
                            ids = []
                            for b in names:
                                bound[b] = v = self._new_var(b)
                                ids.append(v)
                            self.hoisted.append(Scope(quantifier, tuple(ids)))
                            kind, args, gate = None, (inner,), (a, key, number, saved)
                        continue
                else:
                    v = bound.get(a) or var_ids.get(a)
                    if v is None:  # never declared: close it under the outer block
                        v = self._declare(a, 0)
                        self.free_ids.append(v)
                    node = lit(-v if neg else v)
            elif gate is None:
                return children[0]
            else:
                a, key, number, saved = gate
                if kind is None:
                    node = children[0]
                    for b, old in saved.items():
                        if old is None:
                            del bound[b]
                        else:
                            bound[b] = old
                else:
                    node = build(kind, children)
                expanding.discard(a)
                node_gate.setdefault(node, number)
                memo[key] = node
                kind, args, negate, i, children, pair, gate = stack.pop()
            children.append(node)
            if pair and not i & 1:  # an arm of `xor` or `ite` is complete
                children[-2:] = [build(AND, children[-2:])]

    def problem(self) -> QbfProblem:
        self.read_lines()
        matrix = self.expand(self.output)
        scopes: list[Scope] = []
        if self.free_ids:
            scopes.append(Scope(Quantifier.EXISTS, tuple(self.free_ids)))
        scopes.extend(self.explicit)
        scopes.extend(self.hoisted)
        try:
            return QbfProblem.make(self.arena, scopes, matrix,
                                   self.var_names, self.node_gate)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc


def parse_qcir(text: str) -> QbfProblem:
    """Parse QCIR-G14 text into a closed prenex NNF problem."""
    return _QcirReader(text).problem()


def parse_qdimacs(text: str) -> QbfProblem:
    """Parse QDIMACS text into a closed prenex NNF problem."""
    nvars = None
    scopes: list[Scope] = []
    bound: set[int] = set()
    clause_tokens: list[int] = []
    clauses: list[list[int]] = []
    saw_clause = False

    def check_var(v: int, lineno: int) -> None:
        if abs(v) > nvars:
            raise ParseError(
                f"line {lineno}: variable {abs(v)} exceeds declared maximum {nvars}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if nvars is not None:
                raise ParseError(f"line {lineno}: second problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"line {lineno}: malformed problem line {line!r}")
            try:
                nvars = int(parts[2])
                int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: malformed problem line {line!r}")
            continue
        if nvars is None:
            raise ParseError(f"line {lineno}: clause or prefix before problem line")
        if line[0] in "ea" and not line[0].isdigit():
            if saw_clause or clause_tokens:
                raise ParseError(f"line {lineno}: quantifier line after clauses")
            try:
                ids = [int(t) for t in line[1:].split()]
            except ValueError:
                raise ParseError(f"line {lineno}: malformed quantifier line")
            if not ids or ids[-1] != 0 or 0 in ids[:-1]:
                raise ParseError(f"line {lineno}: quantifier line must end with 0")
            quantifier = Quantifier.EXISTS if line[0] == "e" else Quantifier.FORALL
            for v in ids[:-1]:
                if v < 0:
                    raise ParseError(f"line {lineno}: negative variable in prefix")
                check_var(v, lineno)
            bound.update(ids[:-1])
            scopes.append(Scope(quantifier, tuple(ids[:-1])))
            continue
        try:
            tokens = [int(t) for t in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: malformed clause line {line!r}")
        for t in tokens:
            if t == 0:
                clauses.append(clause_tokens)
                clause_tokens = []
                saw_clause = True
            else:
                check_var(t, lineno)
                clause_tokens.append(t)
    if nvars is None:
        raise ParseError("missing problem line")
    if clause_tokens:
        raise ParseError("last clause is not terminated by 0")

    arena = Arena()
    matrix = arena.build(
        AND, [arena.build(OR, [arena.lit(l) for l in cl]) for cl in clauses])
    used = {abs(l) for cl in clauses for l in cl}
    free = sorted(used - bound)
    if free:
        scopes.insert(0, Scope(Quantifier.EXISTS, tuple(free)))
    try:
        return QbfProblem.make(arena, scopes, matrix)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# ----------------------------------------------------------------------
# writers

def write_qcir(problem: QbfProblem) -> str:
    """Render a problem as QCIR-G14, preserving variable names."""
    arena = problem.arena
    names = problem.var_names
    for v in problem.all_vars():
        if not _IDENT.match(names[v]):
            raise ValueError(f"variable name {names[v]!r} is not QCIR-compatible")
    taken = {names[v] for v in problem.all_vars()}
    prefix = "_g"
    while any(name.startswith(prefix) for name in taken):
        prefix = "_" + prefix
    # one gate per occurrence: names are numbered in preorder, lines are
    # written in postorder, over an explicit stack
    kinds, payload = arena.kinds, arena.payload
    connective = {AND: AND, OR: OR, TRUE: AND, FALSE: OR}  # constants: empty
    counter = itertools.count(1)
    gate_lines: list[str] = []
    tokens: list[str] = []  # rendered operands not yet used by a gate line
    stack: list = [problem.matrix]
    while stack:
        item = stack.pop()
        if type(item) is tuple:  # every operand of this gate is rendered
            gname, op, arity = item
            args = tokens[len(tokens) - arity:]
            del tokens[len(tokens) - arity:]
            gate_lines.append(f"{gname} = {op}({', '.join(args)})")
            tokens.append(gname)
        elif kinds[item] == LIT:
            lit = payload[item]
            tokens.append(names[lit] if lit > 0 else "-" + names[-lit])
        else:
            children = payload[item]
            stack.append((f"{prefix}{next(counter)}", connective[kinds[item]],
                          len(children)))
            stack.extend(reversed(children))
    token = tokens.pop()
    lines = ["#QCIR-G14"]
    for scope in problem.prefix:
        keyword = "exists" if scope.quantifier is Quantifier.EXISTS else "forall"
        lines.append(f"{keyword}({', '.join(names[v] for v in scope.vars)})")
    lines.append(f"output({token})")
    lines.extend(gate_lines)
    return "\n".join(lines) + "\n"


def write_qdimacs(problem: QbfProblem) -> str:
    """Render a CNF-shaped problem as QDIMACS.

    Raises ValueError when the matrix is not a conjunction of clauses.
    """
    arena = problem.arena

    def clause_of(node: int) -> list[int]:
        kind = arena.kinds[node]
        if kind == LIT:
            return [arena.payload[node]]
        if kind == OR:
            lits = []
            for c in arena.payload[node]:
                if arena.kinds[c] != LIT:
                    raise ValueError("matrix is not in CNF")
                lits.append(arena.payload[c])
            return lits
        raise ValueError("matrix is not in CNF")

    kind = arena.kinds[problem.matrix]
    if kind == TRUE:
        clauses: list[list[int]] = []
    elif kind == FALSE:
        clauses = [[]]
    elif kind == AND:
        clauses = [clause_of(c) for c in arena.payload[problem.matrix]]
    else:
        clauses = [clause_of(problem.matrix)]

    renum = {v: i for i, v in enumerate(problem.all_vars(), start=1)}
    lines = [f"p cnf {len(renum)} {len(clauses)}"]
    for scope in problem.prefix:
        keyword = "e" if scope.quantifier is Quantifier.EXISTS else "a"
        lines.append(f"{keyword} {' '.join(str(renum[v]) for v in scope.vars)} 0")
    for clause in clauses:
        rendered = [str(renum[l] if l > 0 else -renum[-l]) for l in clause]
        lines.append(" ".join(rendered + ["0"]))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# format detection

def detect_format(text: str, path: str | None = None) -> str:
    """Guess 'qcir' or 'qdimacs' from a file name and its content."""
    if path:
        lowered = path.lower()
        if lowered.endswith(".qcir"):
            return "qcir"
        if lowered.endswith((".qdimacs", ".cnf", ".dimacs")):
            return "qdimacs"
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "qcir" in line.lower():
                return "qcir"
            continue
        if _GATE_DEF.match(line) or _BLOCK.match(line) or _OUTPUT.match(line):
            return "qcir"
        if line.split()[:2] == ["p", "cnf"]:
            return "qdimacs"
        if line.startswith("c"):  # QDIMACS comment
            continue
        if line[0] in "ea-0123456789":
            return "qdimacs"
    raise ParseError("cannot determine the input format")


def parse_problem(text: str, fmt: str | None = None,
                  path: str | None = None) -> QbfProblem:
    fmt = fmt or detect_format(text, path)
    if fmt == "qcir":
        return parse_qcir(text)
    if fmt == "qdimacs":
        return parse_qdimacs(text)
    raise ValueError(f"unknown format {fmt!r}")


def load_problem(path: str, fmt: str | None = None) -> QbfProblem:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_problem(text, fmt, path)
