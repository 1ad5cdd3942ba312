"""End-to-end acceptance: the pinned behaviours, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines;
each criterion is also an ordinary assertion, so a plain run fails
loudly on any regression.
"""
import re
import time

import pytest

import corpus
from corpus import label_sequences, worst_sharing
from parpeval import (
    Analyzer,
    EntryPoint,
    check_equivalence,
    check_independence,
    check_safeness,
    parse_program,
    parse_query,
    partially_evaluate,
)
from parpeval.codegen import RenamingScheme, ResidualProgram, extract_residual
from parpeval.engine import (
    ExtendedAtom,
    _refresh,
    head_state,
    propagate_success,
    split_independent,
)
from parpeval.patterns import (
    PatternTable,
    SuccessPattern,
    format_groundness,
    format_sharing,
    groundness,
    independent_sharing,
    parse_groundness,
    parse_sharing,
)
from parpeval.terms import Atom, Int, Var, format_atom, format_clause


APPEND = """
append([], Ys, Ys).
append([H|T], Ys, [H|R]) :- append(T, Ys, R).
"""

FIB = """
fibonacci(0, 1).
fibonacci(1, 1).
fibonacci(M, N) :- M > 1, M1 is M-1, fibonacci(M1, N1),
                   M2 is M-2, fibonacci(M2, N2), N is N1+N2.
"""


def verdict(num, ok, summary):
    print("criterion %2d %s: %s" % (num, "PASS" if ok else "FAIL", summary))
    assert ok, "criterion %d: %s" % (num, summary)


def fib_head():
    return ExtendedAtom(
        Atom("fibonacci", (Var("M"), Var("N"))),
        parse_groundness("{1}", 2),
        parse_sharing("<{1},{2}>", 2),
    )


def shapes(query):
    return [
        (format_atom(ea.atom), format_groundness(ea.gr), format_sharing(ea.sh))
        for ea in query
    ]


def test_criterion_01_append_analysis():
    program = parse_program(APPEND)
    entries = [
        EntryPoint("append", 3, parse_groundness("{1}", 3), worst_sharing(3)),
        EntryPoint("append", 3, parse_groundness("{1,2}", 3), worst_sharing(3)),
        EntryPoint("append", 3, groundness(3), independent_sharing(3)),
        EntryPoint("append", 3, groundness(3), parse_sharing("<{1,2},{1,2},{3}>", 3)),
    ]
    start = time.perf_counter()
    analyzer = Analyzer(program)
    for e in entries:
        analyzer.success(*e.key)
    table = analyzer.table()
    elapsed = time.perf_counter() - start
    got = {
        (format_groundness(e.gr), format_sharing(e.sh)): (
            format_groundness(table.get(e.key).ground),
            format_sharing(table.get(e.key).share),
        )
        for e in entries
    }
    ok = (
        got[("{1}", format_sharing(worst_sharing(3)))][0] == "{1}"
        and got[("{1,2}", format_sharing(worst_sharing(3)))][0] == "{1,2,3}"
        and got[("{}", "<{1},{2},{3}>")][1] == "<{1,3},{2,3},{1,2,3}>"
        and got[("{}", "<{1,2},{1,2},{3}>")][1] == "<{1,2,3},{1,2,3},{1,2,3}>"
        and elapsed < 1.0
    )
    verdict(
        1,
        ok,
        "append/3 rows {1}->{1}, {1,2}->{1,2,3}, "
        "ind-><{1,3},{2,3},{1,2,3}>, linked->worst in %.3fs" % elapsed,
    )


def test_criterion_02_entry_patterns():
    program = parse_program(FIB)
    head = fib_head()
    # the body refreshed against the head state, before any success is absorbed
    state = head_state(head)
    query = [_refresh(a, state) for a in program.clauses[2].body_atoms()]
    want = [
        ("M > 1", "{1,2}", "<{1},{2}>"),
        ("M1 is M-1", "{2}", "<{1},{2}>"),
        ("fibonacci(M1,N1)", "{}", "<{1},{2}>"),
        ("M2 is M-2", "{2}", "<{1},{2}>"),
        ("fibonacci(M2,N2)", "{}", "<{1},{2}>"),
        ("N is N1+N2", "{}", "<{1},{2}>"),
    ]
    verdict(2, shapes(query) == want, "six-pattern entry query for the recursive clause")


def test_criterion_03_success_propagation():
    program = parse_program(FIB)
    head = fib_head()
    body = program.clauses[2].body_atoms()
    walked, _ = propagate_success(body, Analyzer(program), head_state(head))
    want = [
        ("M > 1", "{1,2}", "<{1},{2}>"),
        ("M1 is M-1", "{2}", "<{1},{2}>"),
        ("fibonacci(M1,N1)", "{1}", "<{1},{2}>"),
        ("M2 is M-2", "{2}", "<{1},{2}>"),
        ("fibonacci(M2,N2)", "{1}", "<{1},{2}>"),
        ("N is N1+N2", "{2}", "<{1},{2}>"),
    ]
    verdict(
        3,
        shapes(walked) == want,
        "propagated patterns across the whole recursive body",
    )


def test_criterion_04_independent_split():
    program = parse_program(FIB)
    head = fib_head()
    quad = split_independent(head, program.clauses[2].body_atoms(), Analyzer(program))
    ok = quad is not None and [shapes(seg) for seg in quad] == [
        [("M > 1", "{1,2}", "<{1},{2}>")],
        [
            ("M1 is M-1", "{2}", "<{1},{2}>"),
            ("fibonacci(M1,N1)", "{1}", "<{1},{2}>"),
        ],
        [
            ("M2 is M-2", "{2}", "<{1},{2}>"),
            ("fibonacci(M2,N2)", "{1}", "<{1},{2}>"),
        ],
        [("N is N1+N2", "{2}", "<{1},{2}>")],
    ]
    verdict(4, ok, "split quadruple boundaries and patterns for fibonacci")


def test_criterion_05_trace_labels():
    _, _, trace, _ = corpus.compiled("fib")
    got = label_sequences(trace)
    want = [["u"], ["u"], ["p", "n", "n", "v", "n", "v", "n"]]
    verdict(5, got == want, "three derivations labelled %s" % want)


VAR_TOKEN = re.compile(r"[_A-Z][A-Za-z0-9_]*")


def alpha_equal(text_a, text_b):
    """Equal up to a consistent renaming of (Prolog) variables."""
    if VAR_TOKEN.split(text_a) != VAR_TOKEN.split(text_b):
        return False
    fwd, bwd = {}, {}
    for x, y in zip(VAR_TOKEN.findall(text_a), VAR_TOKEN.findall(text_b)):
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    return True


def origin(scheme, atom):
    return scheme.original_of(atom.pred) or (atom.pred, atom.arity)


def test_criterion_06_residual_programs():
    problems = []

    _, _, _, fib_rp = corpus.compiled("fib")
    want = [
        "fibonacci_1_1_2(0,1).",
        "fibonacci_1_1_2(1,1).",
        "fibonacci_1_1_2(M,N) :- M > 1, "
        "(M1 is M-1, fibonacci_1_1_2(M1,N1) & M2 is M-2, fibonacci_1_1_2(M2,N2)), "
        "N is N1+N2.",
    ]
    got = [format_clause(c) for c in fib_rp.residual_clauses]
    if len(got) != 3 or not all(alpha_equal(g, w) for g, w in zip(got, want)):
        problems.append("fibonacci clauses differ: %s" % got)

    # quicksort: partition, then a fork of the two recursive sorts, then append
    _, _, _, q_rp = corpus.compiled("qsort")
    sites = q_rp.par_sites()
    if len(sites) != 1:
        problems.append("qsort has %d fork sites" % len(sites))
    else:
        clause = q_rp.residual_clauses[sites[0][0]]
        kinds = [
            origin(q_rp.scheme, g)[0] if isinstance(g, Atom) else "&"
            for g in clause.body
        ]
        if kinds != ["partition", "&", "append"]:
            problems.append("qsort body is %s" % kinds)
        group = clause.body[sites[0][1]]
        for side in group.sides:
            if [origin(q_rp.scheme, a) for a in side] != [("quicksort", 2)]:
                problems.append("qsort fork side is %s" % [a.pred for a in side])
        rec = corpus.guarded_sections(q_rp)[0].clauses[sites[0][0]]
        preds = [g.pred for g in rec.body]
        if preds != ["partition", "concurrent_k", "append"]:
            problems.append("guarded qsort body is %s" % preds)
        else:
            _, left, right = rec.body[1].args
            if (left.functor, right.functor) != ("quicksort_par", "quicksort_par"):
                problems.append("guarded qsort forks %s" % [left.functor, right.functor])

    # amatrix: the row product and the recursive call fork; nothing else
    _, _, _, a_rp = corpus.compiled("amatrix")
    sites = a_rp.par_sites()
    if len(sites) != 1:
        problems.append("amatrix has %d fork sites" % len(sites))
    else:
        clause = a_rp.residual_clauses[sites[0][0]]
        group = clause.body[sites[0][1]]
        if [[origin(a_rp.scheme, a) for a in side] for side in group.sides] != [
            [("am1", 3)],
            [("amatrix", 3)],
        ]:
            problems.append("amatrix fork is not am1 & amatrix")
        rec = corpus.guarded_sections(a_rp)[0].clauses[sites[0][0]]
        _, left, right = rec.body[0].args
        if (left.functor, right.functor) != ("am1", "amatrix_par"):
            problems.append("guarded amatrix forks %s" % [left.functor, right.functor])

    verdict(6, not problems, "; ".join(problems) or "fib exact, qsort and amatrix structural")


def test_criterion_07_equivalence_suite():
    start = time.perf_counter()
    failures = []
    total = 0
    for name in sorted(corpus.BENCHES):
        program, _, _, residual = corpus.compiled(name)
        bench = corpus.BENCHES[name]
        queries = corpus.bench_queries(name)
        if len(queries) < 20:
            failures.append("%s has only %d queries" % (name, len(queries)))
            continue
        report = check_equivalence(program, residual, bench.entry.gr, bench.entry.sh, queries)
        total += len(report.outcomes)
        if len(report.outcomes) != len(queries) or not report.ok:
            bad = [l for l in report.lines() if " ok" not in l]
            failures.append("%s: %s" % (name, "; ".join(bad[:3])))
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append("suite took %.1fs" % elapsed)
    verdict(
        7,
        not failures,
        "; ".join(failures)
        or "answer multisets match on %d queries over %d programs in %.1fs"
        % (total, len(corpus.BENCHES), elapsed),
    )


def test_criterion_08_independence_and_safeness():
    failures = []
    checked_sites = 0
    for name in sorted(corpus.BENCHES):
        program, analyzer, _, residual = corpus.compiled(name)
        bench = corpus.BENCHES[name]
        queries = corpus.bench_queries(name)
        ind = check_independence(residual, bench.entry.gr, bench.entry.sh, queries)
        checked_sites += len(ind.sites)
        if not ind.ok:
            failures.append("%s independence: %s" % (name, "; ".join(ind.lines())))
        safe = check_safeness(analyzer.table(), program, queries)
        if not safe.ok:
            bad = [l for l in safe.lines() if not l.endswith("violations 0")]
            failures.append("%s safeness: %s" % (name, "; ".join(bad[:3])))

    # negative control: a fork annotation that is simply wrong
    corrupt_src = parse_program("p(X, Y) :- (q(X, Z) & r(Z, Y)). q(1, 2). r(2, 3).")
    corrupt = ResidualProgram(
        residual_clauses=corrupt_src.clauses,
        source=corrupt_src,
        scheme=RenamingScheme(),
        entries={("p", 2, groundness(2, (1,)), independent_sharing(2)): "p"},
    )
    bad_fork = check_independence(
        corrupt,
        groundness(2, (1,)),
        independent_sharing(2),
        [Atom("p", (Int(1), Var("Y")))],
    )
    if bad_fork.ok or sum(s.violations for s in bad_fork.sites.values()) < 1:
        failures.append("corrupted annotation went unnoticed")

    # negative control: a table row claiming more groundness than holds
    append_prog = parse_program(APPEND)
    table = PatternTable()
    key = ("append", 3, groundness(3, (1,)), independent_sharing(3))
    table.put(key, SuccessPattern(groundness(3, (1, 2, 3)), independent_sharing(3)))
    bad_row = check_safeness(table, append_prog, [parse_query("append([1], Y, Z)")[0]])
    if bad_row.ok or bad_row.rows[key].violations < 1:
        failures.append("wrong table row went unnoticed")

    verdict(
        8,
        not failures,
        "; ".join(failures)
        or "zero violations across %d fork sites and all table rows; both controls fire"
        % checked_sites,
    )


def test_criterion_09_termination():
    failures = []
    for name in sorted(corpus.BENCHES):
        _, _, trace, _ = corpus.compiled(name)  # a hang would time the suite out
        if not all(
            label in "upvenf" for seq in label_sequences(trace) for label in seq
        ):
            failures.append("%s has an unexpected label" % name)
    adversarial = parse_program("p(X) :- p(f(X)).")
    an = Analyzer(adversarial)
    init = ExtendedAtom(Atom("p", (Var("X"),)), groundness(1), independent_sharing(1))
    trace = partially_evaluate(adversarial, init, an)
    labels = [label for seq in label_sequences(trace) for label in seq]
    if "e" not in labels:
        failures.append("no embedding transition on p(X) :- p(f(X))")
    residual = extract_residual([trace], RenamingScheme(adversarial))
    if not residual.residual_clauses:
        failures.append("whistle produced no residual definition")
    verdict(
        9,
        not failures,
        "; ".join(failures)
        or "all corpus runs terminate; the embedding whistle stops p(f(X))",
    )


def test_criterion_10_static_fork_counts():
    want = {"fib": 1, "qsort": 1, "amatrix": 1}
    got = {}
    for name in sorted(corpus.BENCHES):
        _, _, _, residual = corpus.compiled(name)
        got[name] = len(residual.par_sites())
    short = {name: got[name] for name, floor in want.items() if got[name] < floor}
    verdict(
        10,
        not short,
        "fork sites per program: %s" % ", ".join("%s:%d" % kv for kv in sorted(got.items())),
    )
