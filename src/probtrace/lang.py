"""Surface language: parsing and compilation to PCFA.

A program file is UTF-8 text with three header lines (``@pre``, ``@post``,
``@beta p/q``), followed by declarations (``int X;`` / ``bool B;``),
followed by statements.  Probabilistic choice is written
``{ s1 } <+> { s2 }`` and nondeterministic choice ``{ s1 } <*> { s2 }``;
``if``/``while`` take parenthesised guards.  Comparison operators are
``< <= = != >= >`` over linear integer terms; boolean connectives are
``&& || !`` plus ``true``/``false`` and declared boolean variables.

Choice occurrences are numbered in source order starting from 0 —
separately for the probabilistic and the nondeterministic kind; each
nondeterministic occurrence consumes two consecutive branch tags.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from . import cfa
from .cfa import PCFA, Assume, Assign, SKIP, Pb, Nd
from .formula import (
    Formula,
    IntTerm,
    TRUE,
    FALSE,
    bvar,
    eq,
    fand,
    fnot,
    for_,
    ge,
    gt,
    ivar,
    le,
    lt,
    ne,
)


class ParseError(ValueError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {msg}" if line else msg)
        self.msg = msg
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# abstract syntax
# ---------------------------------------------------------------------------

class Stmt:
    __slots__ = ()


@dataclass(frozen=True)
class SAssign(Stmt):
    var: str
    expr: Union[IntTerm, Formula]


@dataclass(frozen=True)
class SSkip(Stmt):
    pass


@dataclass(frozen=True)
class SSeq(Stmt):
    first: Stmt
    second: Stmt


@dataclass(frozen=True)
class SIf(Stmt):
    cond: Formula
    then: Stmt
    els: Stmt


@dataclass(frozen=True)
class SWhile(Stmt):
    cond: Formula
    body: Stmt


@dataclass(frozen=True)
class SProb(Stmt):
    left: Stmt
    right: Stmt


@dataclass(frozen=True)
class SNd(Stmt):
    left: Stmt
    right: Stmt


@dataclass(frozen=True)
class Program:
    declarations: tuple[tuple[str, str], ...]  # (name, "int"|"bool")
    body: Stmt


@dataclass(frozen=True)
class Specification:
    pre: Formula
    post: Formula
    beta: Fraction


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_SYMBOLS = [
    "<+>", "<*>", ":=", "<=", ">=", "!=", "&&", "||",
    "<", ">", "=", "!", "+", "-", "*", "/", "(", ")", "{", "}", ";",
]

_TOKEN_RE = re.compile(
    r"[ \t\r]+"
    r"|//[^\n]*|#[^\n]*"
    r"|\n"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<int>[0-9]+)"
    r"|(?P<sym>" + "|".join(re.escape(s) for s in _SYMBOLS) + ")"
)


@dataclass
class Tok:
    kind: str  # "name" | "int" | "sym" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str, start_line: int = 1) -> list[Tok]:
    toks: list[Tok] = []
    line, col = start_line, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup:
            toks.append(Tok(m.lastgroup, lexeme, line, col))
        if "\n" in lexeme:
            line += lexeme.count("\n")
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    toks.append(Tok("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[Tok], sorts: Mapping[str, str]):
        self.toks = toks
        self.i = 0
        self.sorts = dict(sorts)

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Tok:
        return self.toks[self.i]

    def next(self) -> Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == text

    def at_name(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "name" and t.text == text

    def expect(self, text: str) -> Tok:
        t = self.peek()
        if (t.kind == "sym" or t.kind == "name") and t.text == text:
            return self.next()
        raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- linear integer terms -------------------------------------------------

    def parse_term(self) -> IntTerm:
        t = self.parse_product()
        while self.at("+") or self.at("-"):
            op = self.next().text
            rhs = self.parse_product()
            t = t + rhs if op == "+" else t - rhs

        return t

    def parse_product(self) -> IntTerm:
        factors = [self.parse_factor()]
        while self.at("*"):
            self.next()
            factors.append(self.parse_factor())
        acc = IntTerm((), 1)
        for f in factors:
            if not acc.vars():
                acc = f.scale(acc.const)
            elif not f.vars():
                acc = acc.scale(f.const)
            else:
                self.fail("nonlinear expression: product of two variables")
        return acc

    def parse_factor(self) -> IntTerm:
        t = self.peek()
        if self.at("-"):
            self.next()
            return -self.parse_factor()
        if t.kind == "int":
            self.next()
            return IntTerm((), int(t.text))
        if t.kind == "name":
            sort = self.sorts.get(t.text)
            if sort is None:
                raise ParseError(f"undeclared variable {t.text!r}", t.line, t.col)
            if sort != "int":
                raise ParseError(
                    f"boolean variable {t.text!r} used in an integer term",
                    t.line, t.col,
                )
            self.next()
            return ivar(t.text)
        if self.at("("):
            self.next()
            inner = self.parse_term()
            self.expect(")")
            return inner
        self.fail(f"expected an integer term, found {t.text!r}")
        raise AssertionError

    # -- formulas --------------------------------------------------------------

    def parse_formula(self) -> Formula:
        f = self.parse_conj()
        while self.at("||"):
            self.next()
            f = for_(f, self.parse_conj())
        return f

    def parse_conj(self) -> Formula:
        f = self.parse_negation()
        while self.at("&&"):
            self.next()
            f = fand(f, self.parse_negation())
        return f

    def parse_negation(self) -> Formula:
        if self.at("!"):
            self.next()
            return fnot(self.parse_negation())
        return self.parse_atom()

    _CMP = {"<": lt, "<=": le, "=": eq, "!=": ne, ">=": ge, ">": gt}

    def parse_atom(self) -> Formula:
        t = self.peek()
        if t.kind == "name" and t.text == "true":
            self.next()
            return TRUE
        if t.kind == "name" and t.text == "false":
            self.next()
            return FALSE
        if t.kind == "name" and self.sorts.get(t.text) == "bool":
            nxt = self.toks[self.i + 1]
            if not (nxt.kind == "sym" and nxt.text in self._CMP):
                self.next()
                return bvar(t.text)
            raise ParseError(
                f"boolean variable {t.text!r} compared like an integer",
                t.line, t.col,
            )
        if self.at("("):
            # could be a parenthesised formula or a parenthesised term
            # starting a comparison; backtrack on the term reading.
            save = self.i
            try:
                self.next()
                f = self.parse_formula()
                self.expect(")")
                if self.peek().kind == "sym" and self.peek().text in self._CMP:
                    raise ParseError("term", t.line, t.col)
                return f
            except ParseError:
                self.i = save
        lhs = self.parse_term()
        op = self.peek()
        if op.kind != "sym" or op.text not in self._CMP:
            raise ParseError(
                f"expected a comparison operator, found {op.text!r}",
                op.line, op.col,
            )
        self.next()
        rhs = self.parse_term()
        return self._CMP[op.text](lhs, rhs)

    # -- statements --------------------------------------------------------------

    def parse_stmts_until(self, closer: Optional[str]) -> Stmt:
        stmts: list[Stmt] = []
        while True:
            t = self.peek()
            if closer is None and t.kind == "eof":
                break
            if closer is not None and self.at(closer):
                break
            if t.kind == "eof":
                self.fail(f"expected {closer!r} before end of input")
            stmts.append(self.parse_stmt())
        if not stmts:
            return SSkip()
        out = stmts[-1]
        for s in reversed(stmts[:-1]):
            out = SSeq(s, out)
        return out

    def parse_block(self) -> Stmt:
        self.expect("{")
        body = self.parse_stmts_until("}")
        self.expect("}")
        return body

    def parse_stmt(self) -> Stmt:
        t = self.peek()
        if self.at("{"):
            left = self.parse_block()
            if self.at("<+>"):
                self.next()
                right = self.parse_block()
                if self.at(";"):
                    self.next()
                return SProb(left, right)
            if self.at("<*>"):
                self.next()
                right = self.parse_block()
                if self.at(";"):
                    self.next()
                return SNd(left, right)
            self.fail("a bare block must be followed by <+> or <*>")
        if t.kind == "name" and t.text == "skip":
            self.next()
            self.expect(";")
            return SSkip()
        if t.kind == "name" and t.text == "if":
            self.next()
            self.expect("(")
            cond = self.parse_formula()
            self.expect(")")
            then = self.parse_block()
            els: Stmt = SSkip()
            if self.at_name("else"):
                self.next()
                els = self.parse_block()
            return SIf(cond, then, els)
        if t.kind == "name" and t.text == "while":
            self.next()
            self.expect("(")
            cond = self.parse_formula()
            self.expect(")")
            body = self.parse_block()
            return SWhile(cond, body)
        if t.kind == "name":
            sort = self.sorts.get(t.text)
            if sort is None:
                raise ParseError(f"undeclared variable {t.text!r}", t.line, t.col)
            var = self.next().text
            self.expect(":=")
            expr: Union[IntTerm, Formula]
            if sort == "int":
                expr = self.parse_term()
            else:
                expr = self.parse_formula()
            self.expect(";")
            return SAssign(var, expr)
        self.fail(f"expected a statement, found {t.text!r}")
        raise AssertionError


_HEADER_RE = re.compile(r"^\s*@(pre|post|beta)\b(.*)$")


def _split_headers(text: str) -> tuple[dict[str, tuple[str, int]], str]:
    headers: dict[str, tuple[str, int]] = {}
    body_lines: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _HEADER_RE.match(line)
        if m:
            key = m.group(1)
            if key in headers:
                raise ParseError(f"duplicate @{key} header", lineno, 1)
            headers[key] = (m.group(2).strip(), lineno)
            body_lines.append("")  # keep line numbers aligned
        else:
            body_lines.append(line)
    return headers, "\n".join(body_lines)


def _parse_decls(p: _Parser) -> list[tuple[str, str]]:
    decls: list[tuple[str, str]] = []
    while p.at_name("int") or p.at_name("bool"):
        sort = p.next().text
        t = p.peek()
        if t.kind != "name":
            p.fail("expected a variable name")
        if t.text in p.sorts:
            raise ParseError(f"variable {t.text!r} declared twice", t.line, t.col)
        if t.text in ("true", "false", "skip", "if", "else", "while", "int", "bool"):
            raise ParseError(f"{t.text!r} is a reserved word", t.line, t.col)
        p.next()
        p.expect(";")
        decls.append((t.text, sort))
        p.sorts[t.text] = sort
    return decls


def parse_formula(text: str, sorts: Mapping[str, str], line: int = 1) -> Formula:
    """Parse a standalone formula over the given variable sorts."""
    p = _Parser(_tokenize(text, start_line=line), sorts)
    f = p.parse_formula()
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input after formula: {t.text!r}", t.line, t.col)
    return f


def parse_term(text: str, sorts: Mapping[str, str], line: int = 1) -> IntTerm:
    """Parse a standalone linear integer term over the given variable sorts."""
    p = _Parser(_tokenize(text, start_line=line), sorts)
    t = p.parse_term()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input after term: {tok.text!r}", tok.line, tok.col)
    return t


_PB_LABEL_RE = re.compile(r"pb\(\s*(\d+)\s*,\s*([LR])\s*\)")
_ND_LABEL_RE = re.compile(r"nd\(\s*(\d+)\s*\)")


def parse_label(text: str, sorts: Mapping[str, str]) -> cfa.Label:
    """Parse one transition label in its printed form: an assignment
    ``X := e``, an assumption ``assume f``, ``skip``, a coin side
    ``pb(i,L)``/``pb(i,R)``, or a branch tag ``nd(k)``."""
    s = text.strip()
    if s == "skip":
        return SKIP
    m = _PB_LABEL_RE.fullmatch(s)
    if m:
        return Pb(int(m.group(1)), m.group(2))
    m = _ND_LABEL_RE.fullmatch(s)
    if m:
        return Nd(int(m.group(1)))
    if s.startswith("assume") and (len(s) == 6 or not s[6].isalnum()):
        return Assume(parse_formula(s[6:], sorts))
    if ":=" in s:
        var, expr = s.split(":=", 1)
        var = var.strip()
        sort = sorts.get(var)
        if sort is None:
            raise ParseError(f"undeclared variable {var!r} in label {text!r}")
        if sort == "int":
            return Assign(var, parse_term(expr, sorts))
        return Assign(var, parse_formula(expr, sorts))
    raise ParseError(f"cannot parse label {text!r}")


def parse(text: str) -> tuple[Program, Specification]:
    headers, body_text = _split_headers(text)
    for key in ("pre", "post", "beta"):
        if key not in headers:
            raise ParseError(f"missing @{key} header")

    p = _Parser(_tokenize(body_text), {})
    decls = _parse_decls(p)
    body = p.parse_stmts_until(None)
    program = Program(tuple(decls), body)

    sorts = dict(p.sorts)
    pre = parse_formula(headers["pre"][0], sorts, line=headers["pre"][1])
    post = parse_formula(headers["post"][0], sorts, line=headers["post"][1])

    beta_text, beta_line = headers["beta"]
    m = re.fullmatch(r"\s*(\d+)\s*(?:/\s*(\d+)\s*)?", beta_text)
    if not m or int(m.group(2) or 1) == 0:
        raise ParseError("@beta expects an exact rational p/q", beta_line, 1)
    beta = Fraction(int(m.group(1)), int(m.group(2) or 1))
    if not (0 <= beta <= 1):
        raise ParseError(f"@beta {beta} is outside [0,1]", beta_line, 1)
    return program, Specification(pre, post, beta)


# ---------------------------------------------------------------------------
# compilation to PCFA
# ---------------------------------------------------------------------------

def to_pcfa(program: Program) -> PCFA:
    transitions: set[tuple[int, cfa.Label, int]] = set()
    fresh = itertools.count(2).__next__  # 0 = initial, 1 = accepting
    coins, tags = itertools.count(), itertools.count()  # emit visits choices in pre-order

    def emit(stmt: Stmt, entry: int, exit_: int) -> None:
        if isinstance(stmt, SAssign):
            transitions.add((entry, Assign(stmt.var, stmt.expr), exit_))
        elif isinstance(stmt, SSkip):
            transitions.add((entry, SKIP, exit_))
        elif isinstance(stmt, SSeq):
            mid = fresh()
            emit(stmt.first, entry, mid)
            emit(stmt.second, mid, exit_)
        elif isinstance(stmt, SIf):
            then_in, els_in = fresh(), fresh()
            transitions.add((entry, Assume(stmt.cond), then_in))
            transitions.add((entry, Assume(fnot(stmt.cond)), els_in))
            emit(stmt.then, then_in, exit_)
            emit(stmt.els, els_in, exit_)
        elif isinstance(stmt, SWhile):
            body_in = fresh()
            transitions.add((entry, Assume(stmt.cond), body_in))
            transitions.add((entry, Assume(fnot(stmt.cond)), exit_))
            emit(stmt.body, body_in, entry)
        elif isinstance(stmt, SProb):
            pid = next(coins)
            lin, rin = fresh(), fresh()
            transitions.add((entry, Pb(pid, "L"), lin))
            transitions.add((entry, Pb(pid, "R"), rin))
            emit(stmt.left, lin, exit_)
            emit(stmt.right, rin, exit_)
        elif isinstance(stmt, SNd):
            lin, rin = fresh(), fresh()
            transitions.add((entry, Nd(next(tags)), lin))
            transitions.add((entry, Nd(next(tags)), rin))
            emit(stmt.left, lin, exit_)
            emit(stmt.right, rin, exit_)
        else:
            raise TypeError(f"not a statement: {stmt!r}")

    emit(program.body, 0, 1)
    out = PCFA(transitions, 0, 1)
    assert out.is_cfmdp(), "compiled automaton must be deterministic"
    return out
