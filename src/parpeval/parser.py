"""Reader for the program syntax.

A one-pass regex lexer and a flat reader.  The accepted language is
definite clauses over integers, variables and compound terms, with list
syntax, `%` comments, the infix builtins (is > < >= =< =:= =), the
arithmetic operators + - * // inside `is/2` right-hand sides, and `&`
between the two or more sides of a parallel group inside a clause body.
Operator terms are read by precedence climbing over `terms._OPERATORS`,
the table the printer uses, so each operator's level and associativity
are written once.  Operator-free by design: user code cannot declare new
operators.

A term is read by one loop that keeps the compound terms, lists,
brackets and operators still open on a stack of its own, so term depth
is not bounded by Python's recursion limit.
"""

from __future__ import annotations

import re
from typing import Callable, Optional, TypeVar, Union

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


# One lexeme per match; blanks and newlines are skipped by the search.
# The groups: a comment, a run of decimal digits, symbolic punctuation
# with the longest one first (`is` as a whole word among it), a word (a
# word character that is no digit, then word characters, as str.isalnum
# or "_") that starts with an upper-case ASCII letter or "_", one that
# starts with a lower-case ASCII letter, any other word, and any other
# character, which is an error.
_LEXEME = re.compile(
    r"(%[^\n]*)|(\d+)|(is(?!\w)|=:=|:-|>=|=<|//|[.,()\[\]|&><=+*-])"
    r"|([A-Z_]\w*)|([a-z]\w*)|([^\W\d]\w*)|([^ \t\r\n])"
)
# token kinds: the group each lexeme matched, and 0 for the end of the text
_EOF, _INT, _PUNCT, _VAR, _NAME = 0, 2, 3, 4, 5


def _position(text: str, offset: int, line: int = 1) -> tuple[int, int]:
    """Line and 1-based column of `offset` in `text`, the text starting
    on `line`; a column counts characters."""
    return line + text.count("\n", 0, offset), offset - text.rfind("\n", 0, offset)


def _lex(text: str, line: int = 1) -> tuple[list[int], list[str], list[int]]:
    """The kinds, texts and offsets of the tokens of `text`, ending in an
    end-of-text token with the text "".

    A word is a variable when its first character is upper case or "_",
    a name when it is lower case, and an error otherwise; `is` is
    punctuation.  A comment advances no column: an end of text that
    follows one sits at the comment's start.  `line` only places errors.
    """
    kinds: list[int] = []
    texts: list[str] = []
    offsets: list[int] = []
    eof = len(text)
    for m in _LEXEME.finditer(text):
        kind = m.lastindex
        if kind == 1:  # a comment
            if m.end() == len(text):
                eof = m.start()
            continue
        lexeme = m.group()
        if kind > _NAME:
            c = lexeme[0]
            if kind == 7 or not (c.isupper() or c.islower()):
                raise ParseError(f"unexpected character {c!r}", *_position(text, m.start(), line))
            kind = _VAR if c.isupper() else _NAME
        kinds.append(kind)
        texts.append(lexeme)
        offsets.append(m.start())
    kinds.append(_EOF)
    texts.append("")
    offsets.append(eof)
    return kinds, texts, offsets


# the open frames of `_Parser.term`: a compound term's arguments, a
# list's items, a list's tail, a bracketed comma sequence, an operator
# waiting for its right operand
_ARGS, _ITEMS, _TAIL, _BRACKET, _OP = range(5)


class _Parser:
    def __init__(self, text: str, line: int = 1) -> None:
        self.text, self.line = text, line
        self.kinds, self.texts, self.offsets = _lex(text, line)
        self.pos = 0
        self.vars: dict[str, Var] = {}
        self.fresh = None  # the names for `_`, drawn once a `_` is read
        self.closes: Optional[dict[int, int]] = None  # see `close_of`

    # -- token plumbing ----------------------------------------------------

    def fail(self, message: str, pos: Optional[int] = None) -> ParseError:
        offset = self.offsets[self.pos if pos is None else pos]
        return ParseError(message, *_position(self.text, offset, self.line))

    def accept(self, text: str) -> bool:
        """Step over the punctuation `text` if it comes next."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            raise self.fail(f"expected {text!r}, found {self.texts[self.pos]!r}")

    def close_of(self, pos: int) -> Optional[int]:
        """The position of the `)` that matches the `(` at `pos`, if any;
        every bracket is matched on the first call."""
        if self.closes is None:
            self.closes, opens = {}, []
            for i, text in enumerate(self.texts):
                if text == "(":
                    opens.append(i)
                elif text == ")" and opens:
                    self.closes[opens.pop()] = i
        return self.closes.get(pos)

    def var(self, name: str) -> Var:
        """The variable `name`, not yet in `vars`: kept there for the rest
        of the text, unless it is `_`."""
        if name == "_":
            # each `_` is a new variable, named apart from every variable
            # written in the text
            if self.fresh is None:
                self.fresh = fresh_names({t for k, t in zip(self.kinds, self.texts) if k == _VAR})
            return Var(next(self.fresh))
        v = self.vars[name] = Var(name)
        return v

    # -- terms ---------------------------------------------------------------

    def term(self, goal: bool = False) -> Union[Term, Atom]:
        """A term of level at most 700, by precedence climbing; as an
        `Atom` when `goal` is set.

        A primary has level 0.  An operator with the entry (bare, left,
        right) in `_OPERATORS` extends the term read so far when `bare`
        is at most the level allowed there and the term's level at most
        `left`; it takes a right operand of level at most `right`, and
        the result has level `bare`.  Each frame on the stack holds its
        kind, a functor or operator, the items or left operand read so
        far, and the level allowed where it started.
        """
        kinds, texts, variables, ops = self.kinds, self.texts, self.vars, _OPERATORS
        pos, prec = self.pos, 700
        stack: list[tuple] = []
        while True:
            # a primary at `pos`; a compound one opens a frame
            kind, tok = kinds[pos], texts[pos]
            if kind == _VAR:
                t = variables.get(tok) or self.var(tok)
                pos += 1
            elif kind == _NAME:
                if texts[pos + 1] == "(":
                    stack.append((_ARGS, tok, [], prec))
                    pos, prec = pos + 2, 700
                    continue
                t = Struct(tok)
                pos += 1
            elif kind == _INT:
                t = Int(int(tok))
                pos += 1
            elif tok == "[" and texts[pos + 1] == "]":
                t = NIL
                pos += 2
            elif tok == "[" or tok == "(":
                # a bracketed comma sequence is the ','/2 pairing used for
                # goal arguments of scheduling predicates
                stack.append((_ITEMS if tok == "[" else _BRACKET, None, [], prec))
                pos, prec = pos + 1, 700
                continue
            elif tok == "-" and kinds[pos + 1] == _INT:
                t = Int(-int(texts[pos + 1]))
                pos += 2
            else:
                raise self.fail(f"expected a term, found {tok!r}", pos)
            level = 0
            # `t` is complete at `level`: extend it or close frames
            while True:
                op = ops.get(texts[pos])
                if op is not None and op[0] <= prec and level <= op[1]:
                    stack.append((_OP, texts[pos], t, prec))
                    pos, prec = pos + 1, op[2]
                    break
                if not stack:
                    self.pos = pos
                    if not goal:
                        return t
                    if isinstance(t, Struct):
                        return Atom(t.functor, t.args)
                    raise self.fail("expected an atom")
                frame, functor, items, outer = stack[-1]
                if frame == _OP:
                    stack.pop()
                    args, level, prec = (items, t), ops[functor][0], outer
                elif frame == _TAIL:
                    if texts[pos] != "]":
                        raise self.fail(f"expected ']', found {texts[pos]!r}", pos)
                    stack.pop()
                    t, level, prec, pos = make_list(items, t), 0, outer, pos + 1
                    continue
                else:
                    items.append(t)
                    sep = texts[pos]
                    if sep == ",":
                        pos += 1
                        break
                    if frame == _ITEMS:
                        if sep == "|":
                            stack[-1] = (_TAIL, None, items, outer)
                            pos += 1
                            break
                        if sep != "]":
                            raise self.fail(f"expected ']', found {sep!r}", pos)
                        t = make_list(items)
                    elif sep != ")":
                        raise self.fail(f"expected ')', found {sep!r}", pos)
                    elif frame == _BRACKET:
                        t = make_conjunction(items)
                    stack.pop()
                    pos, level, prec = pos + 1, 0, outer
                    if frame != _ARGS:
                        continue
                    args = tuple(items)
                # a compound term `functor(*args)`, at `level`; a goal is
                # built as an Atom when nothing extends it
                if not stack and goal:
                    op = ops.get(texts[pos])
                    if op is None or level > op[1]:
                        self.pos = pos
                        return Atom(functor, args)
                t = Struct(functor, args)

    # -- atoms and goals -----------------------------------------------------

    def atoms(self) -> list[Atom]:
        """One or more atoms separated by commas."""
        atoms = [self.term(True)]
        while self.accept(","):
            atoms.append(self.term(True))
        return atoms

    def body(self) -> tuple[BodyGoal, ...]:
        goals: list[BodyGoal] = []
        while True:
            # `(` opens a `&` group or a conjunction to splice, unless an
            # operator follows its matching `)`: `(X + 1) > 0` is one goal
            group = self.texts[self.pos] == "("
            if group:
                close = self.close_of(self.pos)
                group = close is None or self.texts[close + 1] not in _OPERATORS
            if group:
                self.pos += 1
                sides = [tuple(self.atoms())]
                while self.accept("&"):
                    sides.append(tuple(self.atoms()))
                self.expect(")")
                # one side is a plain parenthesised conjunction: splice it
                goals += [ParGroup(tuple(sides))] if len(sides) > 1 else sides[0]
            else:
                goals.append(self.term(True))
            if not self.accept(","):
                return tuple(goals)

    def clause(self) -> Clause:
        head = self.term(True)
        if head.key in BUILTIN_KEYS:
            raise self.fail(f"builtin {head.pred}/{head.arity} cannot be a clause head")
        body = self.body() if self.accept(":-") else ()
        self.expect(".")
        warn_if_nonlinear(head, "clause head")
        return Clause(head, body)

    def query(self) -> tuple[Atom, ...]:
        atoms = self.atoms()
        self.accept(".")
        return tuple(atoms)

    def program(self) -> Program:
        clauses = []
        while self.kinds[self.pos] != _EOF:
            clauses.append(self.clause())
        return Program(tuple(clauses))


def _parse(p: _Parser, rule: Callable[[_Parser], T], what: Optional[str]) -> T:
    """Apply `rule` to the parser's text; unless `what` is None, it must
    take all of it."""
    out = rule(p)
    if what is not None and p.kinds[p.pos] != _EOF:
        raise p.fail(f"trailing input after {what}")
    return out


def parse_program(text: str) -> Program:
    return _parse(_Parser(text), _Parser.program, None)


def parse_atom(text: str) -> Atom:
    return _parse(_Parser(text), lambda p: p.term(True), "atom")


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
        if p.kinds[0] != _EOF:
            out.append((line, _parse(p, _Parser.query, "query")))
    return out
