"""Equivalence, independence and safeness checks over residual programs."""
import dataclasses
import itertools
import re
import warnings

import pytest
from hypothesis import event, example, given, reject, settings, strategies as st

import corpus
from parpeval import (
    Analyzer,
    Atom,
    ExtendedAtom,
    RenamingScheme,
    ResidualProgram,
    Var,
    check_equivalence,
    check_independence,
    check_safeness,
    extract_residual,
    parse_program,
    parse_query,
    partially_evaluate,
)
from parpeval.interp import (
    CHECKS,
    CheckStats,
    IndependenceReport,
    InstantiationError,
    Solver,
    SolverError,
    StepLimitExceeded,
    verify,
)
from parpeval.patterns import (
    PatternTable,
    SuccessPattern,
    groundness,
    independent_sharing,
    parse_sharing,
)
from parpeval.terms import Int, NonlinearArgumentWarning, ParGroup, Struct


def fib_parts():
    program, analyzer, trace, residual = corpus.compiled("fib")
    bench = corpus.BENCHES["fib"]
    return program, residual, bench.entry.gr, bench.entry.sh


# -- equivalence


def test_equivalence_holds_on_fibonacci():
    program, residual, gr, sh = fib_parts()
    queries = corpus.bench_queries("fib")[:6]
    report = check_equivalence(program, residual, gr, sh, queries)
    assert report.ok
    assert not report.rejected
    assert len(report.outcomes) == len(queries)
    assert all(" ok" in line or line.endswith("ok") for line in report.lines()[:1])


def test_equivalence_detects_a_corrupted_residual():
    program, residual, gr, sh = fib_parts()
    # break one unit clause: fibonacci(1, 1) answers 2 instead
    broken = []
    changed = 0
    for clause in residual.residual_clauses:
        if not clause.body and clause.head.args[1] == Int(1) and clause.head.args[0] == Int(1):
            broken.append(dataclasses.replace(clause, head=dataclasses.replace(clause.head, args=(Int(1), Int(2)))))
            changed += 1
        else:
            broken.append(clause)
    assert changed == 1
    bad = dataclasses.replace(residual, residual_clauses=tuple(broken))
    queries = parse_query("fibonacci(4, N)")
    report = check_equivalence(program, bad, gr, sh, [queries[0]])
    assert not report.ok
    line = report.lines()[0]
    assert "DIFFER" in line and "fibonacci(4,N)" in line


def test_equivalence_rejects_nonconforming_queries():
    program, residual, gr, sh = fib_parts()
    good = parse_query("fibonacci(3, N)")[0]
    free = parse_query("fibonacci(M, N)")[0]
    bound = parse_query("fibonacci(3, 4)")[0]
    report = check_equivalence(program, residual, gr, sh, [good, free, bound])
    assert report.ok  # rejected queries do not poison the verdict
    assert len(report.outcomes) == 1
    assert [why for _, why in report.rejected] == [
        "position 1 must be ground",
        "position 2 must be non-ground",
    ]
    assert any(line.startswith("rejected fibonacci(M,N)") for line in report.lines())


def test_equivalence_with_nothing_run_is_not_ok():
    program, residual, gr, sh = fib_parts()
    report = check_equivalence(program, residual, gr, sh, [])
    assert not report.ok
    free = parse_query("fibonacci(M, N)")[0]
    report = check_equivalence(program, residual, gr, sh, [free])
    assert not report.ok and report.rejected


# -- independence


def test_independence_holds_on_fibonacci():
    program, residual, gr, sh = fib_parts()
    queries = corpus.bench_queries("fib")[:6]
    report = check_independence(residual, gr, sh, queries)
    assert report.ok
    assert set(report.sites) == {(2, 1)}
    stats = report.sites[(2, 1)]
    assert stats.checked > 0 and stats.violations == 0
    assert report.lines() == [
        "site <2,1> checked %d violations 0" % stats.checked
    ]


def test_independence_sites_start_at_zero_checks():
    # a site that is never reached still appears in the report
    program, residual, gr, sh = fib_parts()
    report = check_independence(residual, gr, sh, [])
    assert report.sites[(2, 1)].checked == 0
    assert report.ok  # no evidence of violation; equivalence owns coverage


def hand_annotated(source_text):
    """A residual program whose annotations we control completely."""
    program = parse_program(source_text)
    return ResidualProgram(
        residual_clauses=program.clauses,
        source=program,
        scheme=RenamingScheme(),
        entries={},
    )


def test_independence_flags_a_shared_variable_at_fork_time():
    residual = hand_annotated(
        """
        p(X, Y) :- (q(X, Z) & r(Z, Y)).
        q(1, 2).
        r(2, 3).
        """
    )
    gr = groundness(2, (1,))
    sh = independent_sharing(2)
    residual.entries[("p", 2, gr, sh)] = "p"
    report = check_independence(residual, gr, sh, [parse_query("p(1, Y)")[0]])
    assert not report.ok
    stats = report.sites[(0, 0)]
    assert stats.checked == 1 and stats.violations == 1
    # the clause is renamed apart at call time, so Z shows under a fresh name
    assert "share" in stats.examples[0]


def test_independence_flags_aliasing_through_the_query():
    # the annotation itself is fine; the call aliases the two sides
    residual = hand_annotated(
        """
        p(X, Y) :- (q(X) & r(Y)).
        q(1).
        r(1).
        """
    )
    gr = groundness(2)
    sh = parse_sharing("<{1,2},{1,2}>", 2)
    residual.entries[("p", 2, gr, sh)] = "p"
    query = parse_query("p(A, A)")[0]
    report = check_independence(residual, gr, sh, [query])
    assert not report.ok
    assert report.sites[(0, 0)].violations == 1


def test_independence_passes_when_sides_are_ground():
    residual = hand_annotated(
        """
        p(X) :- X = 1, (q(X) & r(X)).
        q(1).
        r(1).
        """
    )
    gr = groundness(1)
    sh = independent_sharing(1)
    residual.entries[("p", 1, gr, sh)] = "p"
    report = check_independence(residual, gr, sh, [parse_query("p(A)")[0]])
    assert report.ok
    assert report.sites[(0, 1)].checked == 1


# -- safeness


def test_safeness_holds_for_the_inferred_fibonacci_table():
    program, analyzer, trace, residual = corpus.compiled("fib")
    queries = corpus.bench_queries("fib")[:6]
    report = check_safeness(analyzer.table(), program, queries)
    assert report.ok
    assert any(s.checked > 0 for s in report.rows.values())
    assert all("violations 0" in line for line in report.lines())


def test_safeness_flags_a_wrong_table_row():
    # claim appending a ground list to anything grounds everything
    program = parse_program(
        "append([], Ys, Ys). append([H|T], Ys, [H|R]) :- append(T, Ys, R)."
    )
    table = PatternTable()
    key = ("append", 3, groundness(3, (1,)), independent_sharing(3))
    table.put(
        key,
        SuccessPattern(groundness(3, (1, 2, 3)), independent_sharing(3)),
    )
    report = check_safeness(table, program, [parse_query("append([1], Y, Z)")[0]])
    assert not report.ok
    stats = report.rows[key]
    assert stats.violations >= 1
    assert "not ground" in stats.examples[0]
    assert any("violations %d" % stats.violations in line for line in report.lines())


def test_safeness_flags_undeclared_sharing():
    program = parse_program("p(X, Y) :- X = f(Z), Y = g(Z).")
    table = PatternTable()
    key = ("p", 2, groundness(2), independent_sharing(2))
    table.put(key, SuccessPattern(groundness(2), independent_sharing(2)))
    report = check_safeness(table, program, [parse_query("p(A, B)")[0]])
    assert not report.ok
    assert "share" in report.rows[key].examples[0]


def test_safeness_rows_only_fire_on_conforming_calls():
    program = parse_program(
        "append([], Ys, Ys). append([H|T], Ys, [H|R]) :- append(T, Ys, R)."
    )
    table = PatternTable()
    key = ("append", 3, groundness(3, (1, 2)), independent_sharing(3))
    table.put(
        key,
        SuccessPattern(groundness(3, (1, 2, 3)), independent_sharing(3)),
    )
    # position 2 is never ground here, so the row never applies
    report = check_safeness(table, program, [parse_query("append([1], Y, Z)")[0]])
    assert report.ok
    assert report.rows[key].checked == 0


def test_safeness_accepts_extra_instantiation_in_calls():
    # a call more instantiated than the row claims still matches it
    program = parse_program(
        "append([], Ys, Ys). append([H|T], Ys, [H|R]) :- append(T, Ys, R)."
    )
    table = PatternTable()
    key = ("append", 3, groundness(3, (1,)), independent_sharing(3))
    table.put(
        key,
        SuccessPattern(
            groundness(3, (1,)), parse_sharing("<{1,3},{2,3},{1,2,3}>", 3)
        ),
    )
    report = check_safeness(
        table, program, [parse_query("append([1], [2], Z)")[0]]
    )
    assert report.ok
    assert report.rows[key].checked > 0


# -- terms that grow at each step


@pytest.mark.parametrize(
    "source, query, max_steps",
    [
        # the call term doubles as a tree at each step
        ("p(X) :- p([X|X]).", "p(A)", 60),
        # the call term grows by a cell at each step
        ("p(1, X) :- p(Y, f(X)).", "p(A1, f(B1))", 3000),
    ],
)
def test_a_growing_call_term_runs_every_check_to_the_step_budget(source, query, max_steps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonlinearArgumentWarning)
        program = parse_program(source)
    atom = parse_query(query)[0]
    gr, sh = groundness(atom.arity, ()), independent_sharing(atom.arity)
    analyzer = Analyzer(program)
    analyzer.success(atom.pred, atom.arity, gr, sh)
    init = ExtendedAtom(Atom(atom.pred, tuple(Var(f"V{i}") for i in range(atom.arity))), gr, sh)
    residual = extract_residual([partially_evaluate(program, init, analyzer)])
    with pytest.raises(StepLimitExceeded):
        verify(program, residual, analyzer.table(), gr, sh, [atom], CHECKS, max_steps)


# -- the whole corpus passes all three checks (small query budgets)


@pytest.mark.parametrize("name", sorted(corpus.BENCHES))
def test_corpus_verifies(name):
    program, analyzer, trace, residual = corpus.compiled(name)
    bench = corpus.BENCHES[name]
    gr, sh = bench.entry.gr, bench.entry.sh
    queries = corpus.bench_queries(name)[:5]
    eq = check_equivalence(program, residual, gr, sh, queries)
    assert eq.ok, "\n".join(eq.lines())
    ind = check_independence(residual, gr, sh, queries)
    assert ind.ok, "\n".join(ind.lines())
    safe = check_safeness(analyzer.table(), program, queries)
    assert safe.ok, "\n".join(safe.lines())


#: the steps of the source and of the residual solve of each of a
#: corpus program's first five queries
CORPUS_STEPS = {
    "amatrix": ([28, 54, 30, 41, 2], [28, 54, 30, 41, 2]),
    "fib": ([4, 972, 598, 81, 1577], [4, 972, 598, 81, 1577]),
    "flatten": ([158, 26, 166, 28, 170], [158, 26, 166, 28, 170]),
    "hanoi": ([3, 12, 32, 76, 172], [3, 12, 32, 76, 172]),
    "mmatrix": ([62, 110, 86, 110, 14], [62, 110, 86, 110, 14]),
    "msort": ([3, 3, 25, 55, 85], [3, 3, 23, 51, 79]),
    "palin": ([57, 77, 13, 11, 31], [57, 77, 13, 11, 31]),
    "qsort": ([2, 11, 27, 44, 71], [2, 11, 27, 44, 71]),
    "tak": ([4, 118, 4, 4, 4], [4, 118, 4, 4, 4]),
}


@pytest.mark.parametrize("name", sorted(corpus.BENCHES))
def test_corpus_solves_take_their_pinned_steps(name):
    program, _, _, residual = corpus.compiled(name)
    entry = corpus.BENCHES[name].entry
    source, renamed = Solver(program), Solver(residual.program())
    steps = ([], [])
    for query in corpus.bench_queries(name)[:5]:
        source.solve([query])
        steps[0].append(source._steps)
        renamed.solve([residual.rename_query(query, entry.gr, entry.sh)])
        steps[1].append(renamed._steps)
    assert steps == CORPUS_STEPS[name]


# -- the checks catch corrupted corpus residuals

#: residual clauses that the first five queries of a program never reach,
#: so deleting one changes no answer: palin's `[]` clauses of
#: reverse_1_2_1_2 and append_1_2_3_1_2_3
UNREACHED = {"palin": {1, 5}}


@pytest.mark.parametrize("name", sorted(corpus.BENCHES))
def test_corrupted_corpus_residual_is_caught(name):
    """`eq` sees a deleted clause and `indep` a fork made to share.

    A wrong table row is not tried here: corpus answers are ground, so
    every success pattern holds and `safe` has nothing to catch.  The
    hand-made `test_safeness_flags_*` tests above cover `safe`.
    """
    program, analyzer, trace, residual = corpus.compiled(name)
    bench = corpus.BENCHES[name]
    gr, sh = bench.entry.gr, bench.entry.sh
    queries = corpus.bench_queries(name)[:5]
    clauses = residual.residual_clauses

    def corrupted(i, *replacement):
        return dataclasses.replace(
            residual, residual_clauses=clauses[:i] + replacement + clauses[i + 1:]
        )

    missed = {
        i for i in range(len(clauses))
        if check_equivalence(program, corrupted(i), gr, sh, queries).ok
    }
    assert missed == UNREACHED.get(name, set())

    # each fork: the second side's last atom takes the first side's last
    # output variable as its last argument
    sites = residual.par_sites()
    assert len(sites) == bench.par_sites
    for ci, pos in sites:
        clause = clauses[ci]
        group = clause.body[pos]
        first, second = group.sides
        out = first[-1].args[-1]
        last = second[-1]
        assert isinstance(out, Var) and isinstance(last.args[-1], Var)
        shared = Atom(last.pred, last.args[:-1] + (out,))
        body = list(clause.body)
        body[pos] = ParGroup((first, second[:-1] + (shared,)))
        bad = corrupted(ci, dataclasses.replace(clause, body=tuple(body)))
        report = IndependenceReport({site: CheckStats() for site in sites})
        solver = Solver(bad.program(), on_par=report.on_par)
        for query in queries:
            try:
                solver.solve([bad.rename_query(query, gr, sh)])
            except InstantiationError:
                pass  # fib's right side no longer binds N2; its forks are recorded
        assert report.sites[(ci, pos)].violations > 0, (ci, pos)


# -- soundness over generated programs


_constant = st.sampled_from(["0", "1", "2", "[]"])


def _term(leaf):
    """A leaf, f/1 of a leaf, or a cons cell of a leaf and a constant.

    No compound term has two arguments that may hold variables, so no
    clause builds a term that holds one subterm twice (`[X|X]`, or
    `[X|Y]` once X and Y are aliased), and terms grow at most linearly
    with the steps taken.  The hooks walk each shared subterm once, but
    `eq` resolves and prints each answer as a tree, so an answer that
    doubles per step exhausts memory long before any step budget ends.
    """
    return st.one_of(
        leaf,
        st.builds("f({})".format, leaf),
        st.builds("[{}|{}]".format, leaf, _constant),
        st.builds("[{}|{}]".format, _constant, leaf),
    )


_gvar = st.sampled_from(["X", "Y", "Z", "W"])
_gterm = _term(st.one_of(_gvar, _constant))
_body_atom = st.one_of(
    st.builds("p({},{})".format, _gterm, _gterm),
    # a recursion that grows a term, so that the embedding whistle fires
    st.builds("p(f({}),{})".format, _gvar, _gvar),
    st.builds("q({},{})".format, _gterm, _gterm),
    st.builds("r({})".format, _gterm),
    st.builds("{} = {}".format, _gterm, _gterm),
    st.builds("{} is {}+{}".format, _gvar, st.one_of(_gvar, _constant), _constant),
)


def _clauses(head):
    clause = st.builds(
        lambda h, body: h + (" :- " + ", ".join(body) if body else "") + ".",
        head,
        st.lists(_body_atom, max_size=3),
    )
    return st.lists(clause, min_size=1, max_size=3).map("\n".join)


_generated_program = st.builds(
    "{}\n{}\n{}".format,
    _clauses(st.builds("p({},{})".format, _gterm, _gterm)),
    _clauses(st.builds("q({},{})".format, _gterm, _gterm)),
    _clauses(st.builds("r({})".format, _gterm)),
)


def _open_term(prefix):
    """A non-ground term whose variables are distinct and named after
    `prefix`: a query argument that shares with no other, linear."""
    leaf = st.one_of(st.just("V"), _constant)
    shape = st.one_of(
        st.just("V"), st.just("f(V)"), st.builds("[V|{}]".format, leaf), st.builds("[{}|V]".format, leaf)
    )

    def numbered(t):
        n = itertools.count(1)
        return re.sub("V", lambda _: f"{prefix}{next(n)}", t)

    return shape.map(numbered)


@st.composite
def _entry_and_queries(draw):
    """A groundness pattern for p/2 and queries that conform to it under
    independent sharing."""
    ground = draw(st.sets(st.sampled_from([1, 2])))
    args = [_term(_constant) if i in ground else _open_term("AB"[i - 1]) for i in (1, 2)]
    return ground, draw(st.lists(st.builds("p({},{})".format, *args), min_size=1, max_size=3))


def instance_of(t, g, binds=None):
    """Some substitution for the variables of term `g` maps it onto `t`."""
    binds = {} if binds is None else binds
    if isinstance(g, Var):
        return binds.setdefault(g.name, t) == t
    if isinstance(g, Struct) and isinstance(t, Struct) and g.functor == t.functor:
        pairs = zip(t.args, g.args)
        return len(g.args) == len(t.args) and all(instance_of(x, y, binds) for x, y in pairs)
    return g == t


@settings(max_examples=150, deadline=None)
@given(program=_generated_program, entry=_entry_and_queries())
# two identical resultants must both reach the residual
@example(program="p(X, X). p(X, X).", entry=(set(), ["p(A, B)"]))
# a growing recursion: the whistle closes p(f(X),Y) against p(X,Y)
@example(program="p(X, Y) :- p(f(X), Y).\np(0, 1).", entry=({1}, ["p(0, B)"]))
# q(f(Y),Y,T) embeds q(X,X,L), and their msg q(_G1,_G2,_G3) is a new root
@example(
    program="p(X, L) :- q(X, X, L).\nq(X, Y, []).\nq(X, Y, [Z|T]) :- q(f(X), Y, T).",
    entry=({2}, ["p(A1, [0,1])", "p(A1, [])"]),
)
# q's arguments repeat X, which the head claims ground: they share nothing
@example(program="p(X, Y) :- q(f(X), [X|0]), r(Y).\nq(f(X), Y).\nr(1).", entry=({1}, ["p(0, B)"]))
def test_prop_residual_of_a_generated_program_passes_every_check(program, entry):
    ground, texts = entry
    gr, sh = groundness(2, ground), independent_sharing(2)
    source = parse_program(program)
    analyzer = Analyzer(source)
    analyzer.success("p", 2, gr, sh)
    init = ExtendedAtom(Atom("p", (Var("A"), Var("B"))), gr, sh)
    trace = partially_evaluate(source, init, analyzer)
    residual = extract_residual([trace])
    # an embedding-closed atom calls the specialized code of its
    # generalization, and no call reaches the source program
    unfolded = {t.subject.ea.memo_key for t in trace.transitions() if t.label in "up"}
    closed = [t for t in trace.transitions() if t.label == "e"]
    event("an embedding closes an atom" if closed else "no embedding")
    for t in closed:
        assert instance_of(t.subject.ea.atom.to_term(), t.general.atom.to_term())
        assert t.general.memo_key in unfolded
    queries = [parse_query(t)[0] for t in texts]
    # the hooks read variable sets off the bound terms, so a query whose
    # terms grow by a cell per step costs about the same per step at any
    # budget; a run that reaches the budget is rejected, not failed
    try:
        reports = verify(source, residual, analyzer.table(), gr, sh, queries, CHECKS, 3000)
    except SolverError:
        reject()
    for report in reports.values():
        assert report.ok, "\n".join(report.lines())


@settings(max_examples=150, deadline=None)
@given(program=_generated_program, ground=st.sets(st.sampled_from([1, 2])))
def test_prop_trace_is_one_tree_whose_root_to_leaf_paths_are_the_derivations(
    program, ground
):
    gr, sh = groundness(2, ground), independent_sharing(2)
    source = parse_program(program)
    analyzer = Analyzer(source)
    init = ExtendedAtom(Atom("p", (Var("A"), Var("B"))), gr, sh)
    trace = partially_evaluate(source, init, analyzer)
    derivations = trace.derivations
    # the reference: every transition of the derivations once, by
    # identity, in the order the derivations list them
    want = list({id(t): t for d in derivations for t in d}.values())
    assert list(trace.transitions()) == want
    # each derivation runs from the root to a transition without a child,
    # and each such transition ends one derivation
    parents = {id(t.parent) for t in want}
    childless = [t for t in want if id(t) not in parents]
    assert [d[0].parent for d in derivations] == [None] * len(derivations)
    assert sorted(map(id, childless)) == sorted(id(d[-1]) for d in derivations)
