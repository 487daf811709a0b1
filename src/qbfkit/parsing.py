"""Readers and writers for QCIR-G14 and QDIMACS problem files.

Parsing produces a closed prenex NNF `QbfProblem`:

* gate definitions are expanded into NNF with polarity pushed down to the
  leaves (`xor` and `ite` are rewritten into and/or form); a gate is
  expanded once per polarity, so a gate used several times stays one node
  per polarity,
* gate quantifiers (non-prenex input) are hoisted to the end of the prefix in
  depth-first order, with bound variables renamed apart per expansion; a
  gate that hoists a quantifier is expanded once per polarity like any
  other, which is sound because every use of it in NNF is monotone and its
  hoisted block sits inside every variable it reads; a gate used where a
  gate quantifier binds a name is expanded afresh at each use instead,
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
_BLOCK = re.compile(r"(free|exists|forall)\s*\((.*)\)\Z", re.IGNORECASE)
_OUTPUT = re.compile(r"output\s*\((.*)\)\Z", re.IGNORECASE)

_QUANT_KEYWORDS = {"exists": Quantifier.EXISTS, "forall": Quantifier.FORALL}

_EXPAND, _BUILD, _UNBIND = range(3)  # work items of `_QcirReader.expand`


class ParseError(Exception):
    """Malformed problem file; the message names the offending line."""


def _split_args(text: str):
    return [p.strip() for p in text.split(",")] if text.strip() else []


def _check_literal(token: str, lineno: int) -> tuple[str, bool]:
    if not _LITERAL.match(token):
        raise ParseError(f"line {lineno}: bad literal {token!r}")
    return (token[1:], True) if token[0] == "-" else (token, False)


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
        # name -> (op, args, lineno, number), each argument a (name, negated)
        # pair; a gate quantifier's op is (quantifier, bound names, argument)
        self.gates: dict[str, tuple] = {}
        self.node_gate: dict[int, int] = {}
        self.output: tuple[str, bool] | None = None  # (name, negated)
        self.bound: dict[str, int] = {}  # gate-quantifier bindings in scope
        self.expanding: set[str] = set()
        self.expanded: dict[tuple[str, bool], int] = {}  # (gate, negate) -> node
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

    def _resolve_var(self, name: str) -> int:
        if name in self.bound:
            return self.bound[name]
        v = self.var_ids.get(name)
        if v is None:  # never declared: close it under the outer block
            v = self._declare(name, 0)
            self.free_ids.append(v)
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
            gate = _GATE_DEF.match(line)
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
        name, op, body = match.group(1), match.group(2).lower(), match.group(3)
        if name in self.var_ids or name in self.gates:
            raise ParseError(f"line {lineno}: {name!r} is already defined")
        if op in ("and", "or", "xor", "ite"):
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

    # -- expansion to NNF -------------------------------------------------
    #
    # `expand` runs over an explicit stack of work items, taking them in the
    # order a recursion over gate arguments would, so nodes, variables and
    # hoisted blocks are created in that order. An item's first field says
    # what to do:
    #   (_EXPAND, name, negate)    push the node of a literal
    #   (_BUILD, kind, arity, gate)
    #                              replace the top `arity` nodes by their
    #                              `kind`; that node expands `gate` unless
    #                              it is None
    #   (_UNBIND, saved, gate)     leave a gate quantifier's bindings; the
    #                              top node expands `gate`
    # where `gate` is (name, negate, shareable, number).

    def expand(self, name: str, negate: bool) -> int:
        """The NNF node of a literal: a variable's leaf, or a gate expanded
        with its polarity pushed down to the leaves."""
        arena, bound, gates = self.arena, self.bound, self.gates
        nodes: list[int] = []
        work: list[tuple] = [(_EXPAND, name, negate)]
        while work:
            item = work.pop()
            what = item[0]
            if what == _EXPAND:
                _, name, negate = item
                if name in gates and name not in bound:
                    node = self._enter_gate(name, negate, work)
                    if node is not None:
                        nodes.append(node)
                else:
                    v = self._resolve_var(name)
                    nodes.append(arena.lit(-v if negate else v))
                continue
            if what == _BUILD:
                _, kind, arity, gate = item
                at = len(nodes) - arity
                node = arena.build(kind, nodes[at:])
                del nodes[at:]
                nodes.append(node)
            else:
                _, saved, gate = item
                for b, old in saved.items():
                    if old is None:
                        del bound[b]
                    else:
                        bound[b] = old
            if gate is not None:
                name, negate, shareable, number = gate
                self.expanding.discard(name)
                self.node_gate.setdefault(nodes[-1], number)
                if shareable:
                    self.expanded[name, negate] = nodes[-1]
        return nodes[0]

    def _enter_gate(self, name: str, negate: bool, work: list) -> int | None:
        """The node of a gate expanded before, or None after pushing the
        work items that expand it."""
        # Outside every gate quantifier a gate's expansion depends only on
        # the gate and the polarity. That holds for a gate that hoists a
        # quantifier too: its block is the same function of the outer
        # variables at every use, and in NNF each use is monotone, so one
        # hoisted copy per polarity serves them all.
        shareable = not self.bound
        if shareable:
            node = self.expanded.get((name, negate))
            if node is not None:
                return node
        if name in self.expanding:
            line = self.gates[name][2]
            raise ParseError(f"line {line}: gate {name!r} is defined cyclically")
        op, args, _, number = self.gates[name]
        self.expanding.add(name)
        gate = (name, negate, shareable, number)
        if op == "and" or op == "or":
            kind = op if not negate else (OR if op == "and" else AND)
            work.append((_BUILD, kind, len(args), gate))
            work += [(_EXPAND, a, neg ^ negate) for a, neg in reversed(args)]
        elif op == "xor":
            (a, neg_a), (b, neg_b) = args
            if negate:  # both equal
                arms = [(False, False), (True, True)]
            else:  # exactly one true
                arms = [(False, True), (True, False)]
            work.append((_BUILD, OR, 2, gate))
            for na, nb in reversed(arms):
                work += [(_BUILD, AND, 2, None), (_EXPAND, b, neg_b ^ nb),
                         (_EXPAND, a, neg_a ^ na)]
        elif op == "ite":
            (c, neg_c), (t, neg_t), (e, neg_e) = args
            work += [(_BUILD, OR, 2, gate),
                     (_BUILD, AND, 2, None), (_EXPAND, e, neg_e ^ negate),
                     (_EXPAND, c, not neg_c),
                     (_BUILD, AND, 2, None), (_EXPAND, t, neg_t ^ negate),
                     (_EXPAND, c, neg_c)]
        else:
            # gate quantifier: hoist to the prefix, renaming apart per
            # occurrence
            quantifier, names, (inner, neg) = op
            if negate:
                quantifier = quantifier.complement
            work.append((_UNBIND, {b: self.bound.get(b) for b in names}, gate))
            ids = []
            for b in names:
                v = self._new_var(b)
                self.bound[b] = v
                ids.append(v)
            self.hoisted.append(Scope(quantifier, tuple(ids)))
            work.append((_EXPAND, inner, neg ^ negate))
        return None

    def problem(self) -> QbfProblem:
        self.read_lines()
        matrix = self.expand(*self.output)
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
