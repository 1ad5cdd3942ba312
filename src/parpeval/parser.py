"""Reader for the program syntax.

Hand-written lexer and recursive-descent parser.  The accepted language is
definite clauses over integers, variables and compound terms, with list
syntax, `%` comments, the infix builtins (is > < >= =< =:= =), the
arithmetic operators + - * // inside `is/2` right-hand sides, and `&` for a
parallel group inside a clause body.  Operator-free by design: user code
cannot declare new operators.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Optional, TypeVar

from .terms import (
    BUILTIN_KEYS,
    NIL,
    Atom,
    BodyGoal,
    Clause,
    Int,
    ParGroup,
    Program,
    Struct,
    Term,
    Var,
    cons,
    fresh_names,
    warn_if_nonlinear,
)

T = TypeVar("T")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} at line {line}, column {col}")
        self.line = line
        self.col = col


class _Tok(NamedTuple):
    kind: str  # NAME VAR INT PUNCT EOF
    text: str
    line: int
    col: int


# blanks, then one lexeme: a newline, a comment, a run of decimal digits,
# a word (a word character that is no digit, then word characters, as
# str.isalnum or "_"), symbolic punctuation with the longest one first,
# or any other character, which is an error; `is` comes out as a word.
# Every position is matched, so consecutive matches cover the text.
_LEXEME = re.compile(
    r"[ \t\r]*(?:(\n)|(%[^\n]*)|(\d+)|([^\W\d]\w*)|(=:=|:-|>=|=<|//|[.,()\[\]|&><=+*-])|(.)|\Z)"
)
_NEWLINE, _COMMENT, _INT, _WORD, _SYMBOL = 1, 2, 3, 4, 5


def _lex(text: str) -> list[_Tok]:
    """Tokens with 1-based line and column; a column counts characters.

    A word is a variable when its first character is upper case or "_",
    a name when it is lower case, and an error otherwise.  A comment
    advances no column, which shows only in the column of an end-of-file
    token that follows a comment.
    """
    toks: list[_Tok] = []
    line, line_start, n = 1, 0, len(text)
    eof_col = None
    for m in _LEXEME.finditer(text):
        kind = m.lastindex
        if kind is None:  # blanks up to the end
            continue
        col = m.start(kind) - line_start + 1
        lexeme = m.group(kind)
        if kind == _INT:
            toks.append(_Tok("INT", lexeme, line, col))
        elif kind == _WORD and (lexeme[0].isupper() or lexeme[0] == "_"):
            toks.append(_Tok("VAR", lexeme, line, col))
        elif kind == _WORD and lexeme[0].islower():
            toks.append(_Tok("PUNCT" if lexeme == "is" else "NAME", lexeme, line, col))
        elif kind == _SYMBOL:
            toks.append(_Tok("PUNCT", lexeme, line, col))
        elif kind == _NEWLINE:
            line, line_start = line + 1, m.end()
        elif kind == _COMMENT:
            if m.end() == n:
                eof_col = col
        else:
            raise ParseError(f"unexpected character {lexeme[0]!r}", line, col)
    toks.append(_Tok("EOF", "", line, eof_col or n - line_start + 1))
    return toks


_INFIX = frozenset(("is", ">=", "=<", "=:=", ">", "<", "="))
_ADDITIVE = frozenset(("+", "-"))
_MULTIPLICATIVE = frozenset(("*", "//"))


class _Parser:
    def __init__(self, text: str) -> None:
        self.toks = _lex(text)
        self.pos = 0
        # each `_` is a new variable, named apart from every variable
        # written in the text
        self.fresh = fresh_names({t.text for t in self.toks if t.kind == "VAR"})

    # -- token plumbing ----------------------------------------------------

    @property
    def cur(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        tok = self.cur
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.toks[self.pos]
        return tok.text == text and tok.kind == "PUNCT"

    def at_one_of(self, texts: frozenset[str]) -> bool:
        tok = self.toks[self.pos]
        return tok.text in texts and tok.kind == "PUNCT"

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
        if self.at_one_of(_INFIX):
            op = self.advance().text
            return Struct(op, (left, self.additive()))
        return left

    def additive(self) -> Term:
        left = self.multiplicative()
        while self.at_one_of(_ADDITIVE):
            op = self.advance().text
            left = Struct(op, (left, self.multiplicative()))
        return left

    def multiplicative(self) -> Term:
        left = self.primary()
        while self.at_one_of(_MULTIPLICATIVE):
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
            return Var(next(self.fresh) if tok.text == "_" else tok.text)
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
            return left
        return [self.atom()]

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
