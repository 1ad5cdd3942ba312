"""Reader for the program syntax.

Hand-written lexer and recursive-descent parser.  The accepted language is
definite clauses over integers, variables and compound terms, with list
syntax, `%` comments, the infix builtins (is > < >= =< =:= =), the
arithmetic operators + - * // inside `is/2` right-hand sides, and `&` for a
parallel group inside a clause body.  Operator-free by design: user code
cannot declare new operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from .terms import (
    BUILTIN_KEYS,
    NIL,
    Atom,
    BodyGoal,
    Clause,
    Int,
    ParGroup,
    Program,
    SeqAtom,
    Struct,
    Term,
    Var,
    cons,
    fresh_var_name,
    note_parsed_var,
    warn_if_nonlinear,
)

T = TypeVar("T")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Tok:
    kind: str  # NAME VAR INT PUNCT EOF
    text: str
    line: int
    col: int


_PUNCT = [
    ":-", ">=", "=<", "=:=", "//",
    ".", ",", "(", ")", "[", "]", "|", "&",
    "is", ">", "<", "=", "+", "-", "*",
]
# multi-char punct first so the lexer takes the longest match
_SYMBOLIC = [p for p in _PUNCT if not p.isalpha()]


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isupper() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("VAR", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.islower():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "PUNCT" if word == "is" else "NAME"
            toks.append(_Tok(kind, word, line, col))
            col += j - i
            i = j
            continue
        matched = None
        for p in sorted(_SYMBOLIC, key=len, reverse=True):
            if text.startswith(p, i):
                matched = p
                break
        if matched is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        toks.append(_Tok("PUNCT", matched, line, col))
        i += len(matched)
        col += len(matched)
    toks.append(_Tok("EOF", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = _lex(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        tok = self.cur
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.cur.kind == "PUNCT" and self.cur.text == text

    def expect(self, text: str) -> _Tok:
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {self.cur.text!r}", self.cur.line, self.cur.col)
        return self.advance()

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.cur.line, self.cur.col)

    # -- terms ---------------------------------------------------------------

    def term(self) -> Term:
        """additive, optionally joined by one infix builtin operator."""
        left = self.additive()
        for op in ("is", ">=", "=<", "=:=", ">", "<", "="):
            if self.at(op):
                self.advance()
                right = self.additive()
                return Struct(op, (left, right))
        return left

    def additive(self) -> Term:
        left = self.multiplicative()
        while self.at("+") or self.at("-"):
            op = self.advance().text
            left = Struct(op, (left, self.multiplicative()))
        return left

    def multiplicative(self) -> Term:
        left = self.primary()
        while self.at("*") or self.at("//"):
            op = self.advance().text
            left = Struct(op, (left, self.primary()))
        return left

    def primary(self) -> Term:
        tok = self.cur
        if tok.kind == "INT":
            self.advance()
            return Int(int(tok.text))
        if self.at("-") and self.toks[self.pos + 1].kind == "INT":
            self.advance()
            return Int(-int(self.advance().text))
        if tok.kind == "VAR":
            self.advance()
            if tok.text == "_":
                return Var(fresh_var_name())
            note_parsed_var(tok.text)
            return Var(tok.text)
        if tok.kind == "NAME":
            self.advance()
            if self.at("("):
                self.advance()
                args = [self.term()]
                while self.at(","):
                    self.advance()
                    args.append(self.term())
                self.expect(")")
                return Struct(tok.text, tuple(args))
            return Struct(tok.text)
        if self.at("["):
            return self.list_term()
        if self.at("("):
            # a parenthesised comma sequence is the ','/2 pairing used for
            # goal arguments of scheduling predicates
            self.advance()
            items = [self.term()]
            while self.at(","):
                self.advance()
                items.append(self.term())
            self.expect(")")
            out = items[-1]
            for item in reversed(items[:-1]):
                out = Struct(",", (item, out))
            return out
        raise self.fail(f"expected a term, found {tok.text!r}")

    def list_term(self) -> Term:
        self.expect("[")
        if self.at("]"):
            self.advance()
            return NIL
        items = [self.term()]
        while self.at(","):
            self.advance()
            items.append(self.term())
        tail: Term = NIL
        if self.at("|"):
            self.advance()
            tail = self.term()
        self.expect("]")
        out = tail
        for item in reversed(items):
            out = cons(item, out)
        return out

    # -- atoms and goals -----------------------------------------------------

    def atom(self) -> Atom:
        t = self.term()
        if isinstance(t, Struct):
            return Atom(t.functor, t.args)
        raise self.fail("expected an atom")

    def goal_conjunction(self) -> list[Atom]:
        atoms = [self.atom()]
        while self.at(","):
            self.advance()
            atoms.append(self.atom())
        return atoms

    def body_goal(self) -> list[BodyGoal]:
        if self.at("("):
            self.advance()
            left = self.goal_conjunction()
            if self.at("&"):
                self.advance()
                right = self.goal_conjunction()
                self.expect(")")
                return [ParGroup(tuple(left), tuple(right))]
            self.expect(")")
            # plain parenthesised conjunction: splice
            return [SeqAtom(a) for a in left]
        return [SeqAtom(self.atom())]

    def body(self) -> list[BodyGoal]:
        goals = self.body_goal()
        while self.at(","):
            self.advance()
            goals.extend(self.body_goal())
        return goals

    def clause(self) -> Clause:
        head = self.atom()
        if head.key in BUILTIN_KEYS:
            raise self.fail(f"builtin {head.pred}/{head.arity} cannot be a clause head")
        body: tuple[BodyGoal, ...] = ()
        if self.at(":-"):
            self.advance()
            body = tuple(self.body())
        self.expect(".")
        warn_if_nonlinear(head, "clause head")
        return Clause(head, body)

    def query(self) -> tuple[Atom, ...]:
        atoms = self.goal_conjunction()
        if self.at("."):
            self.advance()
        return tuple(atoms)

    def program(self) -> Program:
        clauses = []
        while self.cur.kind != "EOF":
            clauses.append(self.clause())
        return Program(tuple(clauses))


def _parse(text: str, rule: Callable[[_Parser], T], what: Optional[str]) -> T:
    """Apply `rule` to `text`; unless `what` is None, it must take all of it.

    The descent recurses once per nesting level of a term, so running
    out of stack is reported as a parse error.
    """
    p = _Parser(text)
    try:
        out = rule(p)
    except RecursionError:
        raise p.fail("term nested too deeply") from None
    if what is not None and p.cur.kind != "EOF":
        raise p.fail(f"trailing input after {what}")
    return out


def parse_program(text: str) -> Program:
    return _parse(text, _Parser.program, None)


def parse_clause(text: str) -> Clause:
    return _parse(text, _Parser.clause, "clause")


def parse_term(text: str) -> Term:
    return _parse(text, _Parser.term, "term")


def parse_atom(text: str) -> Atom:
    return _parse(text, _Parser.atom, "atom")


def parse_query(text: str) -> tuple[Atom, ...]:
    """One query: a comma-separated conjunction, optional trailing dot."""
    return _parse(text, _Parser.query, "query")


def parse_query_file(text: str) -> list[tuple[Atom, ...]]:
    """One query per nonempty line; `%` comments allowed."""
    out = []
    for raw in text.splitlines():
        stripped = raw.split("%", 1)[0].strip()
        if stripped:
            out.append(parse_query(stripped))
    return out
