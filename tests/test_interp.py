"""Sequential solver: answers, builtins, limits, hooks, conformance."""
import sys
import warnings
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from corpus import worst_sharing
from parpeval import Solver, answer_multiset, interp, parse_program, parse_query, terms
from parpeval.interp import (
    DEFAULT_STEP_LIMIT,
    IndependenceReport,
    InstantiationError,
    SolverError,
    StepLimitExceeded,
    answer_key,
    conformance_issue,
    parse_step_limit_env,
)
from parpeval.patterns import (
    groundness,
    independent_sharing,
    parse_sharing,
)
from parpeval.terms import (
    Atom,
    Int,
    NonlinearArgumentWarning,
    Struct,
    Var,
    apply_subst,
    format_atom,
    format_term,
    make_list,
    term_vars,
    unify_in_place,
    walk,
)


FIB = """
fibonacci(0, 1).
fibonacci(1, 1).
fibonacci(M, N) :- M > 1, M1 is M-1, fibonacci(M1, N1),
                   M2 is M-2, fibonacci(M2, N2), N is N1+N2.
"""


def answers(source, query_text, **kw):
    return Solver(parse_program(source), **kw).solve(parse_query(query_text))


def test_fibonacci_answers():
    out = answers(FIB, "fibonacci(5, N)")
    assert out == [{"N": Int(8)}]


def test_finite_failure_is_empty_not_an_error():
    assert answers(FIB, "fibonacci(-1, N)") == []


def test_answers_are_a_multiset_not_a_set():
    out = answers("p(1). p(1).", "p(X)")
    assert out == [{"X": Int(1)}, {"X": Int(1)}]
    counts = answer_multiset(parse_program("p(1). p(1)."), parse_query("p(X)"))
    assert counts == {"1": 2}


def test_clause_order_is_answer_order():
    out = answers("p(3). p(1). p(2).", "p(X)")
    assert [a["X"] for a in out] == [Int(3), Int(1), Int(2)]


def test_step_limit_raises_rather_than_failing():
    with pytest.raises(StepLimitExceeded):
        answers("p(X) :- p(X).", "p(1)", max_steps=50)
    # a genuinely failing query stays well under the same budget
    assert answers("p(0).", "p(1)", max_steps=50) == []


def test_step_budget_is_exact():
    prog = parse_program(FIB)
    solver = Solver(prog)
    solver.solve(parse_query("fibonacci(10, N)"))
    steps = solver._steps
    assert steps == 972  # one per clause tried and one per builtin
    assert answers(FIB, "fibonacci(10, N)", max_steps=steps) == [{"N": Int(89)}]
    with pytest.raises(StepLimitExceeded):
        answers(FIB, "fibonacci(10, N)", max_steps=steps - 1)


def test_long_list_of_fresh_variables_needs_no_recursion(monkeypatch):
    def refuse(limit):
        raise AssertionError("the solver must not raise the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    prog = parse_program("len([], 0). len([_|T], N) :- len(T, M), N is M+1.")
    items = make_list([Var(f"E{i}") for i in range(1500)])
    out = Solver(prog).solve([Atom("len", (items, Var("N")))])
    assert Counter(format_term(a["N"]) for a in out) == {"1500": 1}


def test_step_limit_is_a_solver_error():
    assert issubclass(StepLimitExceeded, SolverError)
    assert issubclass(InstantiationError, SolverError)


# -- arithmetic


def test_is_evaluates_ground_expressions():
    assert answers("", "X is 3+4") == [{"X": Int(7)}]
    assert answers("", "X is 2-5") == [{"X": Int(-3)}]
    assert answers("", "X is 2*3+1") == [{"X": Int(7)}]
    assert answers("", "X is 7//2") == [{"X": Int(3)}]


def test_integer_division_truncates_toward_zero():
    # ISO Prolog's `//` under SWI-Prolog's default toward_zero rounding
    d = "d(X, D, Y) :- Y is X // D."
    assert answers(d, "d(-7, 2, Y)") == [{"Y": Int(-3)}]
    assert answers(d, "d(7, -2, Y)") == [{"Y": Int(-3)}]
    assert answers(d, "d(-7, -2, Y)") == [{"Y": Int(3)}]
    with pytest.raises(SolverError, match="zero"):
        answers(d, "d(-7, 0, Y)")


def test_is_over_unbound_variable_raises():
    with pytest.raises(InstantiationError):
        answers("", "X is Y+1")


def test_is_over_non_arithmetic_term_just_fails():
    assert answers("", "X is foo+1") == []
    assert answers("", "X is f(1)") == []


def test_division_by_zero_raises():
    with pytest.raises(SolverError, match="zero"):
        answers("", "X is 1//0")


def test_comparisons():
    assert answers("", "2 > 1") == [{}]
    assert answers("", "1 > 2") == []
    assert answers("", "1 < 2") == [{}]
    assert answers("", "2 >= 2") == [{}]
    assert answers("", "2 =< 1") == []
    assert answers("", "1+1 =:= 2") == [{}]
    # a side that does not evaluate fails quietly
    assert answers("", "1 < foo") == []


def test_unification_builtin():
    out = answers("", "X = f(Y)")
    assert len(out) == 1
    got = out[0]["X"]
    assert isinstance(got, Struct) and got.functor == "f"
    assert isinstance(got.args[0], Var)
    # occurs check: no rational-tree answers
    assert answers("", "X = f(X)") == []


def test_builtins_count_against_the_step_budget():
    prog = parse_program("count(0). count(N) :- N > 0, M is N-1, count(M).")
    with pytest.raises(StepLimitExceeded):
        Solver(prog, max_steps=10).solve(parse_query("count(100)"))


def test_body_builtins_raise_and_fail_as_query_goals_do():
    # a clause body's builtins run from its slots, a query's from its arguments
    with pytest.raises(InstantiationError, match="unbound variable _G1$"):
        answers("p(X) :- X is f(1)+Y.", "p(A)")
    with pytest.raises(InstantiationError, match="unbound variable Y$"):
        answers("", "X is f(1)+Y")
    with pytest.raises(InstantiationError, match="unbound variable A$"):
        answers("p(X) :- X > 0.", "p(A)")
    with pytest.raises(SolverError, match="zero"):
        answers("p(X) :- Y = 0, X is 1//Y.", "p(A)")
    assert answers("p(X) :- 1 < foo.", "p(A)") == []
    # a non-arithmetic operand fails without its subterms being evaluated
    assert answers("p(X) :- X is f(Y)+1.", "p(A)") == []
    assert answers("p(X) :- Y = f(Z), X is Y+1.", "p(A)") == []


def test_deep_runtime_arithmetic_needs_no_recursion(monkeypatch):
    def refuse(limit):
        raise AssertionError("the solver must not raise the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    # T is bound to a left-nested sum 5000 deep, built at run time
    prog = "mk(0,0). mk(N,T+1) :- N > 0, M is N-1, mk(M,T). p(N,X) :- mk(N,T), X is T."
    assert answers(prog, "p(5000,X)") == [{"X": Int(5000)}]


# -- parallel groups run sequentially, with a fork hook


PAR = """
p(X, Y) :- (q(X) & r(Y)).
q(1).
r(2).
"""


def test_par_group_is_solved_as_a_conjunction():
    out = answers(PAR, "p(A, B)")
    assert out == [{"A": Int(1), "B": Int(2)}]


def test_on_par_reports_resolved_sides_and_site():
    forks = []
    solver = Solver(
        parse_program(PAR),
        on_par=lambda site, side_vars, sides: forks.append((site, *side_vars, *sides())),
    )
    solver.solve(parse_query("p(A, B)"))
    assert len(forks) == 1
    site, left_vars, right_vars, left, right = forks[0]
    assert site == (0, 0)
    assert [a.pred for a in left] == ["q"]
    assert [a.pred for a in right] == ["r"]
    # each side's variables are those of its resolved atoms
    assert (left_vars, right_vars) == (term_vars(left), term_vars(right))


def test_on_par_sees_bindings_made_before_the_fork():
    forks = []
    solver = Solver(
        parse_program("p(X) :- X = 7, (q(X) & r(_)). q(7). r(_)."),
        on_par=lambda site, side_vars, sides: forks.append((side_vars[0], sides())),
    )
    assert solver.solve(parse_query("p(A)")) == [{"A": Int(7)}]
    left_vars, (left, right) = forks[0]
    assert format_atom(left[0]) == "q(7)"
    assert left_vars == set()


def test_on_par_fires_once_per_entry():
    src = """
    len([], 0).
    len([_|T], N) :- (len(T, M) & one(U)), N is M+U.
    one(1).
    """
    forks = []
    solver = Solver(parse_program(src), on_par=lambda site, vs, sides: forks.append(sides()))
    out = solver.solve(parse_query("len([a,b,c], N)"))
    assert out == [{"N": Int(3)}]
    assert len(forks) == 3
    # each fork sees the list tail bound at that depth
    assert [format_term(left[0].args[0]) for left, _ in forks] == ["[b,c]", "[c]", "[]"]


def test_builtin_in_a_group_side_reaches_the_fork_hook():
    report = IndependenceReport()
    forks = []

    def on_par(site, side_vars, sides):
        forks.append(tuple(side_vars))
        report.on_par(site, side_vars, sides)

    src = "p(X, Y) :- (q(X, A), B is A+1 & r(B, Y)). q(1, 2). r(3, 4)."
    solver = Solver(parse_program(src), on_par=on_par)
    assert solver.solve(parse_query("p(1, Y)")) == [{"Y": Int(4)}]
    # A and B, unbound at the fork, are in the set of the side whose
    # builtin binds B
    assert forks == [({"_G1", "_G2"}, {"_G2", "Y"})]
    assert report.lines() == [
        "site <0,0> checked 1 violations 1",
        "  q(1,_G1),_G2 is _G1+1 & r(_G2,Y) share _G2",
    ]


THREE = """
p(X, Y, Z) :- (a(X) & b(Y), c(Y) & d(Z)).
flat(X, Y, Z) :- a(X), b(Y), c(Y), d(Z).
q(X, Y) :- (a(X) & b(Y) & c(X)).
a(1). a(2).
b(3). b(4).
c(4).
d(5). d(6).
"""


def test_three_sided_group_answers_as_its_flattened_body():
    solver = Solver(parse_program(THREE))
    got, want = (
        [answer_key(["X", "Y", "Z"], a) for a in solver.solve(parse_query(q))]
        for q in ("p(X, Y, Z)", "flat(X, Y, Z)")
    )
    assert got == want == ["1,4,5", "1,4,6", "2,4,5", "2,4,6"]


def test_on_par_gets_every_side_of_a_three_sided_group():
    forks = []
    solver = Solver(
        parse_program(THREE),
        on_par=lambda site, side_vars, sides: forks.append((site, side_vars, sides())),
    )
    solver.solve(parse_query("p(1, Y, Z)"))
    ((site, side_vars, sides),) = forks
    assert site == (0, 0)
    assert side_vars == [set(), {"Y"}, {"Z"}]
    texts = [[format_atom(a) for a in side] for side in sides]
    assert texts == [["a(1)"], ["b(Y)", "c(Y)"], ["d(Z)"]]


def test_independence_flags_only_the_pair_of_sides_that_shares():
    report = IndependenceReport()
    solver = Solver(parse_program(THREE), on_par=report.on_par)
    solver.solve(parse_query("p(X, Y, Z)"))  # no two sides share
    solver.solve(parse_query("q(X, Y)"))  # sides 1 and 3 share X
    solver.solve(parse_query("q(1, Y)"))  # X is bound before the fork
    assert report.lines() == [
        "site <0,0> checked 1 violations 0",
        "site <2,0> checked 2 violations 1",
        "  a(X) & b(Y) & c(X) share X",
    ]


# -- the call hook drives the safeness check


def resolved_calls_and_exits(seen):
    """A call hook recording the resolved text of each call and exit."""

    def on_call(key, call_vars, call):
        text = format_atom(call())
        return lambda answer_vars, answer: seen.append((text, format_atom(answer())))

    return on_call


def test_on_call_reports_user_calls_and_their_exits():
    seen = []
    solver = Solver(
        parse_program("p(X) :- q(X), X > 1. q(1). q(2)."),
        on_call=resolved_calls_and_exits(seen),
    )
    out = solver.solve(parse_query("p(Z)"))
    assert out == [{"Z": Int(2)}]
    preds = {c.split("(")[0] for c, _ in seen}
    assert preds == {"p", "q"}  # builtins never appear
    # both q answers are observed even though only one survives the guard
    q_pairs = [(c, a) for c, a in seen if c.startswith("q")]
    assert [a for _, a in q_pairs] == ["q(1)", "q(2)"]
    assert ("p(Z)", "p(2)") in seen


def test_exits_are_skipped_unless_the_call_hook_asks_for_them():
    calls, exits = [], []

    def on_call(key, call_vars, call):
        calls.append((key, call_vars))
        if key == ("q", 1):
            return lambda answer_vars, answer: exits.append(answer_vars)
        return None

    solver = Solver(parse_program("p(X) :- q(X), X > 1. q(1). q(2)."), on_call=on_call)
    assert solver.solve(parse_query("p(Z)")) == [{"Z": Int(2)}]
    assert calls == [(("p", 1), [{"Z"}]), (("q", 1), [{"Z"}])]
    # a position not ground at the call is walked again at each exit
    assert exits == [[set()], [set()]]


def test_call_and_exit_sequence_is_pinned():
    seen = []
    solver = Solver(parse_program(FIB), on_call=resolved_calls_and_exits(seen))
    solver.solve(parse_query("fibonacci(4, N)"))
    # a solve names the body-only variables M1, M2, N1, N2 of each try
    # of the third clause from one generator: _G1.._G4, _G5.._G8, ...
    assert seen == [
        ("fibonacci(1,_G11)", "fibonacci(1,1)"),
        ("fibonacci(0,_G12)", "fibonacci(0,1)"),
        ("fibonacci(2,_G7)", "fibonacci(2,2)"),
        ("fibonacci(1,_G8)", "fibonacci(1,1)"),
        ("fibonacci(3,_G3)", "fibonacci(3,3)"),
        ("fibonacci(1,_G15)", "fibonacci(1,1)"),
        ("fibonacci(0,_G16)", "fibonacci(0,1)"),
        ("fibonacci(2,_G4)", "fibonacci(2,2)"),
        ("fibonacci(4,N)", "fibonacci(4,5)"),
    ]


def test_variable_set_memo_is_dropped_on_backtracking():
    seen = []

    def on_call(key, call_vars, call):
        if key == ("t", 1):
            seen.append((format_atom(call()), call_vars))

    solver = Solver(
        parse_program("r(X) :- X = f(Y), t(g(X)), s(Y), t(g(X)). s(1). s(_). t(_)."),
        on_call=on_call,
    )
    assert len(solver.solve(parse_query("r(Z)"))) == 2
    # f(Y)'s set is remembered inside the first g(X); binding Y makes it
    # stale, and undoing s(Y) must forget the ground set made after
    assert seen == [
        ("t(g(f(_G1)))", [{"_G1"}]),
        ("t(g(f(1)))", [set()]),
        ("t(g(f(_G1)))", [{"_G1"}]),
    ]


# -- clause heads are matched, not renamed


def test_head_match_makes_no_occurs_check_on_open_lists(monkeypatch):
    walks = []
    occurs = terms._occurs

    def counting(name, t, binds):
        t_now = walk(t, binds)
        if isinstance(t_now, Struct) and not t_now.ground:
            walks.append(name)
        return occurs(name, t, binds)

    monkeypatch.setattr(terms, "_occurs", counting)
    prog = parse_program("len([], 0). len([_|T], N) :- len(T, M), N is M+1.")
    items = make_list([Var(f"E{i}") for i in range(500)])
    out = Solver(prog).solve([Atom("len", (items, Var("N")))])
    assert [a["N"] for a in out] == [Int(500)]
    # each tail meets a head variable's first occurrence
    assert walks == []


def counted_matches(monkeypatch):
    """Record (clause number, the call's first argument) for each head match."""
    seen = []
    match = Solver._match

    def counting(self, entry, args, env):
        seen.append((entry.number, walk(args[0], self._binds)))
        return match(self, entry, args, env)

    monkeypatch.setattr(Solver, "_match", counting)
    return seen


LEN = "len([], 0). len([_|T], N) :- len(T, M), N is M+1."


def test_clause_whose_first_argument_cannot_match_is_not_matched(monkeypatch):
    seen = counted_matches(monkeypatch)
    solver = Solver(parse_program(LEN))
    assert solver.solve(parse_query("len([a,b,c], N)")) == [{"N": Int(3)}]
    # the [] clause meets a cons cell three times and is matched only
    # against the [] at the end, where the retry passes over the cons
    # clause; each of the 8 tries, 4 passed over, is still a step
    assert [(n, format_term(t)) for n, t in seen] == [
        (1, "[a,b,c]"), (1, "[b,c]"), (1, "[c]"), (0, "[]"),
    ]
    assert solver._steps == 8 + 3  # clause tries and is/2


APP = "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R)."


def test_retry_passes_over_clauses_whose_first_argument_cannot_match(monkeypatch):
    seen = counted_matches(monkeypatch)
    query = "app([1,2], [3], X), X = [b]"
    solver = Solver(parse_program(APP))
    assert solver.solve(parse_query(query)) == []
    # app([],...) leaves a choicepoint at the cons clause; X = [b] fails
    # and the retry charges that clause its step without matching it
    assert [n for n, _ in seen] == [1, 1, 0]
    assert solver._steps == 7  # as when every clause tried was matched
    assert Solver(parse_program(APP), max_steps=7).solve(parse_query(query)) == []
    with pytest.raises(StepLimitExceeded):
        Solver(parse_program(APP), max_steps=6).solve(parse_query(query))


def test_app_charges_each_passed_over_clause_and_undoes_nothing(monkeypatch):
    undos = []
    undo = Solver._undo
    monkeypatch.setattr(Solver, "_undo", lambda self, mark: undos.append(mark) or undo(self, mark))
    solver = Solver(parse_program(APP))
    out = solver.solve(parse_query("app([1,2,3], [4], X)"))
    assert out == [{"X": make_list([Int(1), Int(2), Int(3), Int(4)])}]
    # each cons call passes over the [] clause and matches the cons one
    # (2 steps, 3 times); app([],...) matches the [] clause (1 step) and
    # leaves the cons clause only as the step charged when it is resumed
    assert solver._steps == 8
    assert undos == []


def test_a_goal_after_a_failing_goal_builds_nothing(monkeypatch):
    built = []
    build = interp._build

    def counting(t, env):
        out = build(t, env)
        built.append(tuple(map(format_term, out)))
        return out

    monkeypatch.setattr(interp, "_build", counting)
    assert answers("p(X) :- q(X), r(f(X)), s(g(X)). q(1).", "p(2)") == []
    # the arguments of p(2) and of q(2), which fails: r(f(2)) and s(g(2))
    # are never selected, so neither they nor the structures in them are
    # built
    assert built == [("2",), ("2",)]


def test_a_call_atom_is_built_only_for_the_call_hook(monkeypatch):
    made = []
    monkeypatch.setattr(interp, "Atom", lambda pred, args: made.append(pred) or Atom(pred, args))
    program = parse_program(APP)
    assert len(Solver(program).solve(parse_query("app([1,2], [3], X)"))) == 1
    assert made == []
    solver = Solver(program, on_call=lambda key, call_vars, call: None)
    assert len(solver.solve(parse_query("app([1,2], [3], X)"))) == 1
    assert made == ["app"] * 3


class RenamingSolver(Solver):
    """The solver as it was before head matching, the first-argument
    switch and the variable-set memo: a call tries every clause of its
    predicate and is charged one step for each; each try renames the
    whole head and unifies it with the call; hooks get variable sets
    from a plain walk of the bindings.  The reference for the property
    below."""

    def _vars(self, t):
        out, seen, todo = set(), set(), [t]
        while todo:
            t = walk(todo.pop(), self._binds)
            if isinstance(t, Var):
                out.add(t.name)
            elif isinstance(t, Struct) and id(t) not in seen:
                seen.add(id(t))  # a subterm held twice is walked once
                todo.extend(t.args)
        return frozenset(out)

    def _switch(self, pred, args):
        return pred  # the plan `_try` gets is the predicate: it reads every clause

    def _try(self, args, exit_, pred, rest, mark, i):
        atom = Atom(pred.name, args)
        alternatives = pred.entries
        while i < len(alternatives):
            entry = alternatives[i]
            i += 1
            self._steps += 1
            if self._steps > self.max_steps:
                raise StepLimitExceeded(f"exceeded {self.max_steps} resolution steps")
            clause_vars = sorted(term_vars((entry.head, entry.body)))
            mapping = {v: Var(next(self._fresh)) for v in clause_vars}
            head = apply_subst(Atom(atom.pred, entry.head), mapping)
            if not unify_in_place(atom, head, self._binds, self._trail):
                self._undo(mark)
                continue
            if i < len(alternatives):
                self._choices.append((args, exit_, pred, rest, mark, i))
            goals = rest
            if exit_ is not None:
                goals = (exit_, None, goals)
            # the renamed body's goals, each slot holding its own variable
            slots = {}
            body = [apply_subst(g, mapping) for g in entry.body]
            body_t = interp.compile_body(entry.number, body, slots, self._number)
            env = [Var(name) for name in slots]
            for g in reversed(body_t):
                goals = (g, env, goals)
            return goals
        return None


def numbered(*sets):
    """The variable sets with each variable replaced by a number that
    does not depend on its name: the variables are sorted by the indices
    of the sets they occur in, and numbered in that order."""
    where = {}
    for i, vs in enumerate(sets):
        for v in vs:
            where.setdefault(v, []).append(i)
    out = [set() for _ in sets]
    for n, positions in enumerate(sorted(where.values())):
        for i in positions:
            out[i].add(n)
    return tuple(map(frozenset, out))


def run_traced(solver_class, program, query, max_steps):
    """For the conjunction `query`: answer keys or the error raised,
    steps taken, and what the hooks receive: the per-position variable
    sets of each call and exit, and the variables of each side at each
    fork, numbered canonically.

    Each event is numbered on its own: a caller variable that a head
    variable takes stays the same variable in the answer, where renaming
    bound it to the head's fresh one.
    """
    events = []

    def on_call(key, call_vars, call):
        events.append(("call", key, numbered(*call_vars)))
        return lambda answer_vars, answer: events.append(("exit", numbered(*answer_vars)))

    def on_par(site, side_vars, sides):
        # the sets are those of the sides' atoms, resolved
        assert side_vars == list(map(term_vars, sides()))
        events.append((site, numbered(*side_vars)))

    solver = solver_class(program, max_steps=max_steps, on_call=on_call, on_par=on_par)
    qvars = sorted(term_vars(query))
    try:
        outcome = [answer_key(qvars, a) for a in solver.solve(query)]
    except SolverError as exc:
        outcome = type(exc).__name__
    return outcome, solver._steps, events


_cvar = st.sampled_from(["X", "Y", "Z"])


def _term(var):
    return st.recursive(
        st.one_of(var, st.sampled_from(["0", "1", "a", "[]"])),
        lambda sub: st.one_of(
            st.builds("f({})".format, sub),
            st.builds("g({},{})".format, sub, sub),
            st.builds("[{}|{}]".format, sub, sub),
        ),
        max_leaves=4,
    )


def _user_atom(var):
    return st.one_of(
        st.builds("p({})".format, _term(var)),
        st.builds("{}({},{})".format, st.sampled_from("qr"), _term(var), _term(var)),
    )


def _builtin(var):
    """A builtin goal over the variables `var` draws."""
    # an operand that is not arithmetic makes its goal fail
    operand = st.one_of(var, st.sampled_from(["0", "1", "2", "a"]), st.builds("f({})".format, var))
    arith = st.sampled_from(["+", "-", "*", "//"])
    expr = st.one_of(operand, st.builds("({} {} {})".format, operand, arith, operand))
    # a nested left side of a comparison, bare or bracketed: `A+B > C` and
    # `(A+B) > C` read alike
    lhs = st.one_of(
        operand,
        st.builds("{} {} {}".format, operand, arith, operand),
        st.builds("({} {} {})".format, operand, arith, operand),
    )
    return st.one_of(
        st.builds("{} = {}".format, _term(var), _term(var)),
        st.builds("{} is {} {} {}".format, var, expr, arith, expr),
        st.builds("{} {} {}".format, lhs, st.sampled_from([">", "<", ">=", "=<", "=:="]), expr),
    )


_plain_goal = st.one_of(_user_atom(_cvar), _user_atom(_cvar), _builtin(_cvar))
# a group has two or three sides, each one or two goals, builtins included
_side = st.lists(_plain_goal, min_size=1, max_size=2).map(", ".join)
_group = st.lists(_side, min_size=2, max_size=3).map(" & ".join).map("({})".format)
_goal = st.one_of(_plain_goal, _group)
_clause = st.builds(
    lambda head, body: head + (" :- " + ", ".join(body) if body else "") + ".",
    _user_atom(_cvar),
    st.lists(_goal, max_size=3),
)


#: a clause for each kind of first head argument: [], a cons cell, an
#: integer and a variable
FIRST_ARGUMENTS = ["q([],a).", "q([X|T],T).", "q(0,b).", "q(Y,c)."]


@settings(max_examples=300, deadline=None)
@given(
    clauses=st.lists(_clause, min_size=1, max_size=6),
    # a user atom, optionally followed by a builtin goal
    query=st.builds(
        "{}{}".format,
        _user_atom(st.sampled_from(["A", "B"])),
        st.one_of(st.just(""), _builtin(st.sampled_from(["A", "B"])).map(", {}".format)),
    ),
    max_steps=st.integers(min_value=1, max_value=60),
)
# a repeated head variable meets two caller terms
@example(clauses=["q(X,X).", "q(f(X),X)."], query="q(A,f(B))", max_steps=60)
# a nested head struct is built for an unbound caller variable, once
# from unseen variables and once around a seen one (occurs check fails)
@example(clauses=["q(X,f(X)).", "q(g(Y,Z),Z)."], query="q(A,A)", max_steps=60)
# backtracking into a fork, and arithmetic over a head variable
@example(
    clauses=["p(X) :- (q(X,Y) & r(Y,Z)), Z is Y+1.", "q(0,1).", "q(1,1).", "r(1,Y)."],
    query="p(A)",
    max_steps=60,
)
# one f(Y) resolves ground under two bindings of Y
@example(
    clauses=["p(X) :- X = f(Y), q(Y,Y), r(X,X).", "q(0,0).", "q(1,1).", "r(Z,Z)."],
    query="p(A)",
    max_steps=60,
)
# the call term doubles as a tree at each step
@example(clauses=["p(X) :- p(g(X,X))."], query="p(A)", max_steps=60)
# body builtins: an unbound operand beside a non-arithmetic one raises,
# since evaluation is full; a slot bound to 0 divides; a constant fails
@example(clauses=["p(X) :- X is f(1)+Y."], query="p(A)", max_steps=60)
@example(clauses=["p(X) :- Y = 0, X is 1//Y."], query="p(A)", max_steps=60)
@example(clauses=["p(X) :- 1 < foo."], query="p(A)", max_steps=60)
# a non-arithmetic operand makes the sum fail, without reading f(X)
@example(clauses=["p(X) :- Y is f(X) + 1."], query="p(A)", max_steps=60)
# operands evaluate left to right: the unbound Y raises before 1//0 does
@example(clauses=["p(X) :- X is Y + (1 // 0)."], query="p(A)", max_steps=60)
# a goal may start with a bracketed left operand
@example(clauses=["p(X) :- X = 1, (X + X) > X."], query="p(A)", max_steps=60)
# each side of a fork starts with is/2, and the sides share Z
@example(
    clauses=["p(X) :- X = 1, (Y is X+1, q(Y,Z) & Z is X*2).", "q(2,2).", "q(2,3)."],
    query="p(A)",
    max_steps=60,
)
# a group of three sides, the first and the last sharing Y
@example(
    clauses=["p(X) :- (q(X,Y) & r(X,Z) & Y is X+1).", "q(1,2).", "r(1,3)."],
    query="p(A)",
    max_steps=60,
)
# a builtin query goal runs after the user goal binds its operand
@example(clauses=["p(0).", "p(1).", "p(f(0))."], query="p(A), A > 0", max_steps=60)
# each kind of first argument against each kind of first head argument
@example(clauses=FIRST_ARGUMENTS, query="q([],B)", max_steps=60)
@example(clauses=FIRST_ARGUMENTS, query="q([B],B)", max_steps=60)
@example(clauses=FIRST_ARGUMENTS, query="q(0,B)", max_steps=60)
@example(clauses=FIRST_ARGUMENTS, query="q(A,B)", max_steps=60)
@example(clauses=FIRST_ARGUMENTS, query="q(f(A),B)", max_steps=60)
# the budget runs out in the charge for the clauses after the last
# candidate, and in the charge for those before the first
@example(clauses=["q(a).", "q(b).", "q(c)."], query="q(a)", max_steps=2)
@example(clauses=["q(a).", "q(b).", "q(c)."], query="q(c)", max_steps=1)
# the last candidate fails to match, and the clause after it is charged
@example(clauses=["q(f(a)).", "q(b)."], query="q(f(c))", max_steps=60)
def test_prop_head_match_agrees_with_rename_then_unify(clauses, query, max_steps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonlinearArgumentWarning)
        program = parse_program("\n".join(clauses))
    goals = parse_query(query)
    want = run_traced(RenamingSolver, program, goals, max_steps)
    got = run_traced(Solver, program, goals, max_steps)
    assert got == want


# -- conformance of queries against call patterns


def test_conformance_accepts_exact_instantiation():
    atom = parse_query("append([1], Y, Z)")[0]
    gr = groundness(3, (1,))
    assert conformance_issue(atom, gr, independent_sharing(3)) is None


def test_conformance_requires_claimed_positions_ground():
    atom = parse_query("append(X, Y, Z)")[0]
    issue = conformance_issue(atom, groundness(3, (1,)), independent_sharing(3))
    assert issue == "position 1 must be ground"


def test_conformance_requires_unclaimed_positions_nonground():
    atom = parse_query("append([1], [2], Z)")[0]
    issue = conformance_issue(atom, groundness(3, (1,)), independent_sharing(3))
    assert issue == "position 2 must be non-ground"


def test_conformance_checks_sharing_licence():
    atom = parse_query("p(X, X)")[0]
    gr = groundness(2)
    assert conformance_issue(atom, gr, independent_sharing(2)) is not None
    assert conformance_issue(atom, gr, worst_sharing(2)) is None
    linked = parse_sharing("<{1,2},{1,2}>", 2)
    assert conformance_issue(atom, gr, linked) is None


def test_conformance_checks_arity():
    atom = parse_query("p(X)")[0]
    assert conformance_issue(atom, groundness(2), independent_sharing(2)) == (
        "arity mismatch"
    )


# -- answer keys compare answers up to variable renaming


def test_answer_key_ignores_variable_names():
    f = lambda *a: Struct("f", a)
    one = {"X": f(Var("A"), Var("B")), "Y": Var("A")}
    two = {"X": f(Var("Q"), Var("R")), "Y": Var("Q")}
    assert answer_key(["X", "Y"], one) == answer_key(["X", "Y"], two)
    three = {"X": f(Var("Q"), Var("R")), "Y": Var("R")}
    assert answer_key(["X", "Y"], one) != answer_key(["X", "Y"], three)


# -- the step budget can come from the environment


def test_step_limit_env_default_and_parse(monkeypatch):
    monkeypatch.delenv("PARPEVAL_DEPTH_CAP", raising=False)
    assert parse_step_limit_env() == DEFAULT_STEP_LIMIT
    monkeypatch.setenv("PARPEVAL_DEPTH_CAP", "1234")
    assert parse_step_limit_env() == 1234
    monkeypatch.setenv("PARPEVAL_DEPTH_CAP", "zero")
    with pytest.raises(SolverError):
        parse_step_limit_env()
    monkeypatch.setenv("PARPEVAL_DEPTH_CAP", "-3")
    with pytest.raises(SolverError):
        parse_step_limit_env()
