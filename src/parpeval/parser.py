"""Reader for the program syntax.

Hand-written lexer and recursive-descent parser.  The accepted language is
definite clauses over integers, variables and compound terms, with list
syntax, `%` comments, the infix builtins (is > < >= =< =:= =), the
arithmetic operators + - * // inside `is/2` right-hand sides, and `&`
between the two or more sides of a parallel group inside a clause body.
Operator terms are read by precedence climbing over `terms._OPERATORS`,
the table the printer uses, so each operator's level and associativity
are written once.  Operator-free by design: user code cannot declare new
operators.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Optional, TypeVar

from .terms import (
    BUILTIN_KEYS,
    _OPERATORS,
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
    fresh_names,
    make_conjunction,
    make_list,
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


def _lex(text: str, line: int = 1) -> list[_Tok]:
    """Tokens with line and 1-based column, the text starting on `line`;
    a column counts characters.

    A word is a variable when its first character is upper case or "_",
    a name when it is lower case, and an error otherwise.  A comment
    advances no column, which shows only in the column of an end-of-file
    token that follows a comment.
    """
    toks: list[_Tok] = []
    line_start, n = 0, len(text)
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


class _Parser:
    def __init__(self, text: str, line: int = 1) -> None:
        self.toks = _lex(text, line)
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

    def accept(self, text: str) -> bool:
        """Step over the punctuation `text` if it comes next."""
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> _Tok:
        if not self.at(text):
            raise ParseError(f"expected {text!r}, found {self.cur.text!r}", self.cur.line, self.cur.col)
        return self.advance()

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.cur.line, self.cur.col)

    def sequence(self, rule: Callable[[], T]) -> list[T]:
        """One or more `rule`s separated by commas."""
        items = [rule()]
        while self.accept(","):
            items.append(rule())
        return items

    # -- terms ---------------------------------------------------------------

    def term(self, prec: int = 700) -> Term:
        """A term of level at most `prec`, by precedence climbing.

        A primary has level 0.  An operator with the entry (bare, left,
        right) in `_OPERATORS` extends the term read so far when `bare`
        is at most `prec` and the term's level at most `left`; it takes
        a right operand of level at most `right`, and the result has
        level `bare`.
        """
        left, level = self.primary(), 0
        while True:
            tok = self.cur
            op = _OPERATORS.get(tok.text) if tok.kind == "PUNCT" else None
            if op is None or op[0] > prec or level > op[1]:
                return left
            self.advance()
            left, level = Struct(tok.text, (left, self.term(op[2]))), op[0]

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
            if self.accept("("):
                args = self.sequence(self.term)
                self.expect(")")
                return Struct(tok.text, tuple(args))
            return Struct(tok.text)
        if self.accept("["):
            return self.list_term()
        if self.accept("("):
            # a parenthesised comma sequence is the ','/2 pairing used for
            # goal arguments of scheduling predicates
            items = self.sequence(self.term)
            self.expect(")")
            return make_conjunction(items)
        raise self.fail(f"expected a term, found {tok.text!r}")

    def list_term(self) -> Term:
        """The rest of a list after its `[`."""
        if self.accept("]"):
            return NIL
        items = self.sequence(self.term)
        tail = self.term() if self.accept("|") else NIL
        self.expect("]")
        return make_list(items, tail)

    # -- atoms and goals -----------------------------------------------------

    def atom(self) -> Atom:
        t = self.term()
        if isinstance(t, Struct):
            return Atom(t.functor, t.args)
        raise self.fail("expected an atom")

    def body_goal(self) -> list[BodyGoal]:
        # `(` opens a `&` group or a conjunction to splice, unless an
        # operator follows its matching `)`: `(X + 1) > 0` is one goal
        if self.at("(") and not self._opens_left_operand():
            self.advance()
            sides = [tuple(self.sequence(self.atom))]
            while self.accept("&"):
                sides.append(tuple(self.sequence(self.atom)))
            self.expect(")")
            # one side is a plain parenthesised conjunction: splice it
            return [ParGroup(tuple(sides))] if len(sides) > 1 else list(sides[0])
        return [self.atom()]

    def _opens_left_operand(self) -> bool:
        depth = 0
        for i in range(self.pos, len(self.toks)):
            tok = self.toks[i]
            if tok.kind == "PUNCT" and tok.text in ("(", ")"):
                depth += 1 if tok.text == "(" else -1
                if depth == 0:
                    after = self.toks[i + 1]
                    return after.kind == "PUNCT" and after.text in _OPERATORS
        return False

    def clause(self) -> Clause:
        head = self.atom()
        if head.key in BUILTIN_KEYS:
            raise self.fail(f"builtin {head.pred}/{head.arity} cannot be a clause head")
        body: tuple[BodyGoal, ...] = ()
        if self.accept(":-"):
            body = tuple(g for goals in self.sequence(self.body_goal) for g in goals)
        self.expect(".")
        warn_if_nonlinear(head, "clause head")
        return Clause(head, body)

    def query(self) -> tuple[Atom, ...]:
        atoms = self.sequence(self.atom)
        self.accept(".")
        return tuple(atoms)

    def program(self) -> Program:
        clauses = []
        while self.cur.kind != "EOF":
            clauses.append(self.clause())
        return Program(tuple(clauses))


def _parse(p: _Parser, rule: Callable[[_Parser], T], what: Optional[str]) -> T:
    """Apply `rule` to the parser's text; unless `what` is None, it must
    take all of it.

    The descent recurses once per nesting level of a term, so running
    out of stack is reported as a parse error.
    """
    try:
        out = rule(p)
    except RecursionError:
        raise p.fail("term nested too deeply") from None
    if what is not None and p.cur.kind != "EOF":
        raise p.fail(f"trailing input after {what}")
    return out


def parse_program(text: str) -> Program:
    return _parse(_Parser(text), _Parser.program, None)


def parse_atom(text: str) -> Atom:
    return _parse(_Parser(text), _Parser.atom, "atom")


def parse_query(text: str) -> tuple[Atom, ...]:
    """One query: a comma-separated conjunction, optional trailing dot."""
    return _parse(_Parser(text), _Parser.query, "query")


def parse_query_file(text: str) -> list[tuple[Atom, ...]]:
    """One query per line that holds a token; `%` comments allowed."""
    return [q for _, q in parse_query_lines(text)]


def parse_query_lines(text: str) -> list[tuple[int, tuple[Atom, ...]]]:
    """Each query of a query file with its line number.

    Each line is read on its own, and errors give its line and column
    in the file.
    """
    out = []
    for line, raw in enumerate(text.splitlines(), start=1):
        p = _Parser(raw, line)
        if p.cur.kind != "EOF":
            out.append((line, _parse(p, _Parser.query, "query")))
    return out
