"""Concrete syntax: programs, queries, and parse errors."""
import warnings

import pytest
from hypothesis import example, given, strategies as st

from parpeval import (
    Atom,
    Clause,
    Int,
    ParGroup,
    ParseError,
    Program,
    Solver,
    Struct,
    Var,
    parse_atom,
    parse_program,
    parse_query,
    parse_query_file,
)
from parpeval import parser
from parpeval.terms import (
    _OPERATORS,
    BUILTIN_KEYS,
    NIL,
    NonlinearArgumentWarning,
    format_atom,
    format_program,
    format_term,
    make_list,
)


def read_term(text):
    """The term `text` spells, read as the argument of an atom."""
    return parse_atom(f"t({text})").args[0]


def test_facts_and_rules():
    prog = parse_program(
        """
        % a comment line
        parent(tom, bob).
        grand(X, Z) :- parent(X, Y), parent(Y, Z).
        """
    )
    assert len(prog.clauses) == 2
    fact, rule = prog.clauses
    assert fact.head == Atom("parent", (Struct("tom", ()), Struct("bob", ())))
    assert fact.body == ()
    assert [g.pred for g in rule.body] == ["parent", "parent"]


def test_list_sugar_desugars_to_cons():
    t = read_term("[1,2|T]")
    assert t == Struct(".", (Int(1), Struct(".", (Int(2), Var("T")))))
    assert read_term("[]") == Struct("[]", ())
    assert read_term("[a]") == make_list([Struct("a", ())])


def test_operators_parse_with_usual_precedence():
    # is binds loosest, comparison in the middle, arithmetic tightest
    assert format_term(read_term("X is Y-1+2")) == "X is Y-1+2"
    assert read_term("1+2*3") == Struct(
        "+", (Int(1), Struct("*", (Int(2), Int(3))))
    )
    assert read_term("1-2-3") == Struct(
        "-", (Struct("-", (Int(1), Int(2))), Int(3))
    )
    assert format_term(read_term("(1-2)*3")) == "(1-2)*3"


def test_par_group_requires_parentheses_and_two_sides():
    prog = parse_program("h(X) :- (a(X,Y) & b(X,Z)).")
    (clause,) = prog.clauses
    (group,) = clause.body
    assert isinstance(group, ParGroup)
    assert [[a.pred for a in side] for side in group.sides] == [["a"], ["b"]]

    prog = parse_program("h(X) :- (a(X), b(X) & c(X), d(X)).")
    (group,) = prog.clauses[0].body
    assert [[a.pred for a in side] for side in group.sides] == [["a", "b"], ["c", "d"]]


def test_group_of_three_sides_reads_as_one_group_and_round_trips():
    text = "h(X,Y,Z) :- (a(X) & b(Y), c(Y) & d(Z)), e(X)."
    prog = parse_program(text)
    group, last = prog.clauses[0].body
    assert isinstance(group, ParGroup)
    assert [[a.pred for a in side] for side in group.sides] == [["a"], ["b", "c"], ["d"]]
    assert last == Atom("e", (Var("X"),))
    assert format_program(prog) == text + "\n"
    assert parse_program(format_program(prog)) == prog


def test_bracketed_left_operand_starts_a_goal_not_a_group():
    # an operator after the matching `)` makes the bracket an operand
    (clause,) = parse_program("p(X) :- (X + 1) > 0, ((X) * 2) =:= 4.").clauses
    assert [format_atom(g) for g in clause.body] == ["X+1 > 0", "X*2 =:= 4"]
    assert clause.body[0] == Atom(">", (Struct("+", (Var("X"), Int(1))), Int(0)))
    # otherwise a bracketed conjunction still splices, and `&` still groups
    (clause,) = parse_program("p(X) :- (q(X), r(X)), (q(X) & r(X)).").clauses
    assert [type(g).__name__ for g in clause.body] == ["Atom", "Atom", "ParGroup"]


def test_anonymous_variables_are_distinct():
    clause = parse_program("p(_, _).").clauses[0]
    a, b = clause.head.args
    assert isinstance(a, Var) and isinstance(b, Var)
    assert a != b


def test_anonymous_variable_is_named_apart_from_written_ones():
    program = parse_program("p(_, _G1).")
    assert parse_program("p(_, _G1).") == program  # the same in any process
    a, b = program.clauses[0].head.args
    assert a != b
    assert len(Solver(program).solve(parse_query("p(a, b)"))) == 1


def test_builtin_head_rejected():
    with pytest.raises(ParseError):
        parse_program("is(X, Y) :- p(X, Y).")
    with pytest.raises(ParseError):
        parse_program("=(X, X).")


def test_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_program("p(X) :- q(X)\nr(Y).")
    assert exc.value.line in (1, 2)
    with pytest.raises(ParseError):
        parse_program("p(X.")
    with pytest.raises(ParseError):
        parse_program("p(X) :- .")


def test_parse_query_forms():
    q = parse_query("append([1],Y,Z)")
    assert q == (Atom("append", (make_list([Int(1)]), Var("Y"), Var("Z"))),)
    assert parse_query("p(X), q(X).") == (
        Atom("p", (Var("X"),)),
        Atom("q", (Var("X"),)),
    )


def test_parse_query_file_skips_comments_and_blanks():
    queries = parse_query_file(
        """
        % header comment
        fibonacci(3, N).

        fibonacci(4, N)
        """
    )
    assert len(queries) == 2
    assert all(q[0].pred == "fibonacci" for q in queries)


def test_program_round_trip_through_formatter():
    text = "\n".join(
        [
            "p(0, []).",
            "p(N, [N|T]) :- N > 0, M is N-1, p(M, T).",
            "q(X, Y) :- (p(X, A) & p(Y, B)), r(A, B).",
        ]
    )
    prog = parse_program(text)
    assert parse_program(format_program(prog)) == prog


def test_atom_parsing_rejects_clause_syntax():
    assert parse_atom("p(X)") == Atom("p", (Var("X"),))
    with pytest.raises(ParseError):
        parse_atom("p(X) :- q(X)")


def test_cased_character_that_is_not_alphanumeric_is_rejected():
    # 'Ⓐ' is upper case but no word character: no token can hold it
    with pytest.raises(ParseError) as exc:
        parse_program("p(X) :-\n  q(Ⓐ).")
    assert str(exc.value) == "unexpected character 'Ⓐ' at line 2, column 5"


# ---------------------------------------------------------------------------
# the lexer against a per-character reference

_REF_SYMBOLIC = [":-", ">=", "=<", "=:=", "//", ".", ",", "(", ")", "[", "]", "|", "&",
                 ">", "<", "=", "+", "-", "*"]


def reference_lex(text):
    """(kind, text, line, col) per token, one character at a time."""
    toks = []
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
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isupper() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("VAR", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.islower():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(("PUNCT" if word == "is" else "NAME", word, line, col))
            col += j - i
            i = j
            continue
        matched = None
        for p in sorted(_REF_SYMBOLIC, key=len, reverse=True):
            if text.startswith(p, i):
                matched = p
                break
        if matched is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        toks.append(("PUNCT", matched, line, col))
        i += len(matched)
        col += len(matched)
    toks.append(("EOF", "", line, col))
    return toks


_KIND_NAMES = {
    parser._EOF: "EOF", parser._INT: "INT", parser._PUNCT: "PUNCT", parser._VAR: "VAR", parser._NAME: "NAME"
}


def lex_tokens(text):
    """(kind, text, line, col) per token of `_lex`, each token placed by
    the offset-to-position function that error messages use."""
    kinds, texts, offsets = parser._lex(text)
    return [(_KIND_NAMES[k], t, *parser._position(text, o)) for k, t, o in zip(kinds, texts, offsets)]


def lex_outcome(lex, text):
    try:
        return [tuple(t) for t in lex(text)]
    except ParseError as exc:
        return str(exc)


# single characters: program punctuation, blanks, ASCII and non-ASCII
# letters and digits ('²' is a digit but not decimal, 'ǅ' title case,
# '中' and '½' word characters neither digit nor cased, '$' and '\v'
# no token at all); and multi-character lexemes, so they occur often
_FRAGMENTS = list(".,()[]|&><=+-*/:%_ \t\n\r$\v") + list("aXz09") + [
    "é", "Σ", "σ", "٣", "²", "ǅ", "中", "½",
    ":-", ">=", "=<", "=:=", "//", "is", "% note\n", "p(X, [1|T])",
]


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join))
@example("p(X) :- q(X) % trailing")
@example("x²y 12中 ǅa")
def test_prop_lexer_matches_per_character_reference(text):
    assert lex_outcome(lex_tokens, text) == lex_outcome(reference_lex, text)


# ---------------------------------------------------------------------------
# programs read back what the printer writes

# nested compound terms, lists with and without a tail, negative
# integers, ','/2, and every operator of the table, nested at mixed levels
_terms = st.recursive(
    st.one_of(
        st.sampled_from(["X", "Y", "Z"]).map(Var),
        st.integers(min_value=-9, max_value=9).map(Int),
        st.sampled_from([NIL, Struct("a")]),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["f", "g"]), st.lists(sub, min_size=1, max_size=3)).map(
            lambda fa: Struct(fa[0], tuple(fa[1]))
        ),
        st.tuples(st.lists(sub, min_size=1, max_size=3), st.one_of(st.just(NIL), sub)).map(
            lambda it: make_list(*it)
        ),
        st.tuples(st.sampled_from([",", *sorted(_OPERATORS)]), sub, sub).map(
            lambda o: Struct(o[0], o[1:])
        ),
    ),
    max_leaves=8,
)
_user_atoms = st.tuples(st.sampled_from(["p", "q"]), st.lists(_terms, max_size=3)).map(
    lambda pa: Atom(pa[0], tuple(pa[1]))
)
# a builtin goal prints its operands at level 500: one of a higher level,
# such as `(X = Y) > 0`, is a bracketed left operand that starts the goal
_builtin_atoms = st.tuples(st.sampled_from(sorted(p for p, _ in BUILTIN_KEYS)), _terms, _terms).map(
    lambda o: Atom(o[0], o[1:])
)
_goals = st.one_of(_user_atoms, _builtin_atoms)
_groups = st.lists(st.lists(_goals, min_size=1, max_size=2).map(tuple), min_size=2, max_size=3).map(
    lambda sides: ParGroup(tuple(sides))
)
_programs = st.lists(
    st.tuples(_user_atoms, st.lists(st.one_of(_goals, _groups), max_size=4)).map(
        lambda hb: Clause(hb[0], tuple(hb[1]))
    ),
    max_size=4,
).map(lambda clauses: Program(tuple(clauses)))


@given(_programs)
@example(parse_program("p(X) :- (X = Y) > 0, ((a, b) = Z & p), (X+1)*2 =:= -3, q([1, -2|T])."))
@example(parse_program("p(X) :- (p & q, r & X is 1-(2-3)//4), p(f(g([a|f(X)]))), p((a, (b, c)))."))
def test_prop_program_reads_back_what_the_printer_writes(program):
    text = format_program(program)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonlinearArgumentWarning)
        assert parse_program(text) == program
