"""Residual extraction: renaming, generalization, and guarded output."""
import dataclasses

import pytest

import corpus
from parpeval import (
    Analyzer,
    CodegenError,
    ParGroup,
    extract_residual,
    format_guarded,
    format_residual,
    parse_program,
    partially_evaluate,
)
from parpeval.codegen import RenamingScheme, _mangle
from parpeval.engine import ExtendedAtom
from parpeval.patterns import (
    groundness,
    independent_sharing,
    parse_groundness,
    parse_sharing,
    sharing,
)
from parpeval.terms import (
    Atom,
    Int,
    Struct,
    Var,
    canonical,
    format_atom,
    format_clause,
    format_term,
)


def compile_text(text, pred, arity, gr_text, sh_text=None):
    prog = parse_program(text)
    an = Analyzer(prog)
    names = tuple(Var(chr(65 + i)) for i in range(arity))
    sh = parse_sharing(sh_text, arity) if sh_text else independent_sharing(arity)
    init = ExtendedAtom(Atom(pred, names), parse_groundness(gr_text, arity), sh)
    return extract_residual([partially_evaluate(prog, init, an)])


def clause_set(clauses):
    out = []
    for c in clauses:
        head, body = canonical((c.head, tuple(c.body_atoms())))
        out.append(format_atom(head) + " :- " + ", ".join(format_atom(a) for a in body))
    return sorted(out)


# ---------------------------------------------------------------------------
# surface naming


def test_mangled_names_encode_both_patterns():
    assert _mangle("fibonacci", parse_groundness("{1}", 2), parse_sharing("<{1},{2}>", 2)) == "fibonacci_1_1_2"
    assert _mangle("reverse", parse_groundness("{1,2}", 2), sharing(2, [{1, 2}])) == "reverse_1_2_12_12"
    assert _mangle("p", groundness(1), independent_sharing(1)) == "p__1"


def test_scheme_disambiguates_same_pattern_entities():
    scheme = RenamingScheme()
    gr, sh = parse_groundness("{1}", 1), independent_sharing(1)
    a = scheme.name(ExtendedAtom(Atom("p", (Var("X"),)), gr, sh))
    b = scheme.name(ExtendedAtom(Atom("p", (Struct("f", (Var("X"),)),)), gr, sh))
    again = scheme.name(ExtendedAtom(Atom("p", (Var("Y"),)), gr, sh))
    assert a == "p_1_1"
    assert b == "p_1_1_2"
    assert again == a


# ---------------------------------------------------------------------------
# fibonacci residual (three clauses, one parallel group)


def test_fibonacci_residual_clauses():
    _, _, _, rp = corpus.compiled("fib")
    texts = [format_clause(c) for c in rp.residual_clauses]
    assert texts[0] == "fibonacci_1_1_2(0,1)."
    assert texts[1] == "fibonacci_1_1_2(1,1)."
    assert texts[2] == (
        "fibonacci_1_1_2(M,N) :- M > 1, "
        "(M1 is M-1, fibonacci_1_1_2(M1,N1) & M2 is M-2, fibonacci_1_1_2(M2,N2)), "
        "N is N1+N2."
    )
    assert rp.par_sites() == [(2, 1)]


def test_residual_program_answers_queries_via_entry_renaming():
    _, _, _, rp = corpus.compiled("fib")
    bench = corpus.BENCHES["fib"]
    renamed = rp.rename_query(
        Atom("fibonacci", (Var("X"), Var("Y"))), bench.entry.gr, bench.entry.sh
    )
    assert renamed.pred == "fibonacci_1_1_2"
    with pytest.raises(CodegenError):
        rp.rename_query(Atom("fibonacci", (Var("X"), Var("Y"))), parse_groundness("{2}", 2), bench.entry.sh)


# ---------------------------------------------------------------------------
# embedding-closed atoms call the specialized generalization


def test_embedding_closes_with_generalization():
    rp = compile_text("p(X) :- p(f(X)).", "p", 1, "{}")
    texts = [format_clause(c) for c in rp.residual_clauses]
    # p(f(X)) embeds p(X); their msg p(_G1) is a variant of p(X)
    assert texts == ["p__1(X) :- p__1(f(X))."]
    assert rp.entries == {("p", 1, groundness(1), independent_sharing(1)): "p__1"}


# ---------------------------------------------------------------------------
# failing atoms


def test_unmatched_atom_is_recorded_not_emitted():
    rp = compile_text("p(X) :- missing(X).", "p", 1, "{1}")
    assert [format_clause(c) for c in rp.residual_clauses] == ["p_1_1(X) :- missing(X)."]
    preds = {c.head.pred for c in rp.program().clauses}
    assert "missing" not in preds


@pytest.mark.parametrize("name", sorted(corpus.BENCHES))
def test_each_residual_predicate_has_its_clauses_together(name):
    _, _, _, rp = corpus.compiled(name)
    heads = [c.head.pred for c in rp.residual_clauses]
    runs = [p for i, p in enumerate(heads) if i == 0 or heads[i - 1] != p]
    assert len(runs) == len(set(runs)), heads


@pytest.mark.parametrize("name", sorted(corpus.BENCHES))
def test_a_residual_specialized_again_at_its_entry_keeps_its_forks_and_clauses(name):
    _, _, _, rp = corpus.compiled(name)
    entry = corpus.BENCHES[name].entry
    name = rp.entries[(entry.pred, entry.arity, entry.gr, entry.sh)]
    renamed = dataclasses.replace(entry, pred=name)
    program = rp.program()
    again = extract_residual(
        [partially_evaluate(program, corpus.entry_atom(renamed), Analyzer(program))]
    )

    def ands(r):
        return sum(format_clause(c).count("&") for c in r.residual_clauses)

    assert ands(again) == ands(rp)
    assert len(again.residual_clauses) == len(rp.residual_clauses)


# ---------------------------------------------------------------------------
# extraction errors


def test_extracting_no_traces_is_an_error():
    with pytest.raises(CodegenError, match="nothing to extract"):
        extract_residual([])


def test_traces_of_different_programs_are_an_error():
    text = "p(X) :- q(X). q(1)."
    init = ExtendedAtom(Atom("p", (Var("A"),)), groundness(1), independent_sharing(1))
    traces = []
    for _ in range(2):
        prog = parse_program(text)  # equal, but not the same program
        traces.append(partially_evaluate(prog, init, Analyzer(prog)))
    with pytest.raises(CodegenError, match="different programs"):
        extract_residual(traces)


def test_a_call_to_an_entity_no_trace_unfolds_is_dangling():
    prog = parse_program("p(X) :- q(X). q(1).")
    init = ExtendedAtom(Atom("p", (Var("A"),)), groundness(1), independent_sharing(1))
    trace = partially_evaluate(prog, init, Analyzer(prog))
    (unfold_p,) = [t for t in trace.transitions() if t.subject.ea.key == ("p", 1)]
    (call,) = unfold_p.body
    assert call.callee.memo_key == call.ea.memo_key
    assert [format_clause(c) for c in extract_residual([trace]).residual_clauses] == [
        "p__1(X) :- q__1(X).",
        "q__1(1).",
    ]
    # the same call, naming q at patterns nothing unfolded
    call.callee = ExtendedAtom(call.ea.atom, parse_groundness("{1}", 1), independent_sharing(1))
    with pytest.raises(CodegenError, match=r"dangling call q_1_1/1 in residual clause p__1\(X\)"):
        extract_residual([trace])


def test_rename_query_needs_an_unfolded_entry_at_its_patterns():
    rp = compile_text("p(X) :- q(X). q(1).", "p", 1, "{}")
    assert rp.rename_query(Atom("p", (Var("X"),)), groundness(1), independent_sharing(1)) == Atom(
        "p__1", (Var("X"),)
    )
    with pytest.raises(CodegenError, match="no residual entry for p/1"):
        rp.rename_query(Atom("p", (Var("X"),)), parse_groundness("{1}", 1), independent_sharing(1))
    # an entry atom that no clause matches is not unfolded: it has no
    # residual predicate, so no query reaches it
    prog = parse_program("p(1).")
    gr = parse_groundness("{1}", 1)
    init = ExtendedAtom(Atom("p", (Int(2),)), gr, independent_sharing(1))
    rp = extract_residual([partially_evaluate(prog, init, Analyzer(prog))])
    assert rp.residual_clauses == ()
    with pytest.raises(CodegenError, match="no residual entry for p/1"):
        rp.rename_query(Atom("p", (Int(2),)), gr, independent_sharing(1))


# ---------------------------------------------------------------------------
# thread guards


def test_guarded_fibonacci_renames_every_clause_of_par_predicates():
    _, _, _, rp = corpus.compiled("fib")
    par, source, support = corpus.guarded_sections(rp)
    heads = [c.head.pred for c in par.clauses]
    assert heads == ["fibonacci_par", "fibonacci_par", "fibonacci_par"]
    rec = par.clauses[2]
    assert format_clause(rec) == (
        "fibonacci_par(M,N) :- M > 1, concurrent_k("
        "(M1 is M-1,fibonacci(M1,N1),M2 is M-2,fibonacci(M2,N2)),"
        "(M1 is M-1,fibonacci_par(M1,N1)),"
        "(M2 is M-2,fibonacci_par(M2,N2))), N is N1+N2."
    )
    # the full source rides along for the sequential fallback
    assert clause_set(source.clauses) == clause_set(corpus.load("fib").clauses)
    assert "max_threads(4)." in support
    assert "concurrent_k(A,B,C)" in support
    assert ":- dynamic current_threads/1." in support


def test_guarded_qsort_structure():
    _, _, _, rp = corpus.compiled("qsort")
    rec = corpus.guarded_sections(rp)[0].clauses[1]
    body_preds = [goal.pred for goal in rec.body]
    assert body_preds == ["partition", "concurrent_k", "append"]
    seq, left, right = rec.body[1].args
    assert left.functor == "quicksort_par"
    assert right.functor == "quicksort_par"
    assert seq.functor == "," and {a.functor for a in seq.args} == {"quicksort"}


def test_guarded_amatrix_parallelizes_only_the_recursive_side():
    _, _, _, rp = corpus.compiled("amatrix")
    rec = corpus.guarded_sections(rp)[0].clauses[1]
    seq, left, right = rec.body[0].args
    # left segment is not a parallelized predicate: it falls back to the original
    assert left.functor == "am1"
    assert right.functor == "amatrix_par"
    assert {a.functor for a in seq.args} == {"am1", "amatrix"}


def test_guard_counter_respects_max_threads_argument():
    _, _, _, rp = corpus.compiled("fib")
    assert "max_threads(2)." in corpus.guarded_sections(rp, max_threads=2)[2]
    with pytest.raises(ValueError):
        format_guarded(rp, max_threads=0)


def test_guarding_twice_gives_the_same_names():
    _, _, _, rp = corpus.compiled("qsort")
    first = format_guarded(rp, max_threads=4)
    second = format_guarded(rp, max_threads=4)
    assert first == second
    assert "quicksort_par(" in first and "quicksort_par_2" not in first


def test_every_predicate_that_reaches_a_fork_gets_a_par_variant():
    # p does not fork, but it calls s, which does: a user calling p_par
    # must reach the fork
    rp = compile_text(
        """
        p(X, Y) :- X > 0, s(X, Y).
        s(X, Y) :- q(X, A), r(X, B), Y is A+B.
        q(X, Y) :- Y is X+1.
        r(X, Y) :- Y is X+2.
        """,
        "p",
        2,
        "{1}",
    )
    par = corpus.guarded_sections(rp)[0]
    assert [c.head.pred for c in par.clauses] == ["p_par", "s_par"]
    assert [g.pred for g in par.clauses[0].body] == [">", "s_par"]


def test_par_clauses_call_par_variants_outside_the_fallback():
    # tak forks two of its three recursive calls; the third and the
    # combining call run in the _par code too, so their subtrees fork
    _, _, _, rp = corpus.compiled("tak")
    rec = corpus.guarded_sections(rp)[0].clauses[1]
    preds = [g.pred for g in rec.body]
    assert preds[-3:] == ["concurrent_k", "tak_par", "tak_par"]
    # the sequential fallback runs the source program only
    assert "tak_par" not in format_term(rec.body[-3].args[0])


def test_guard_names_avoid_source_predicates():
    prog = parse_program(
        """
        r(0, 0).
        r(N, M) :- N > 0, N1 is N-1, N2 is N-1, r(N1, A), r(N2, B), M is A+B.
        r_par(1).
        """
    )
    an = Analyzer(prog)
    init = ExtendedAtom(
        Atom("r", (Var("X"), Var("Y"))), parse_groundness("{1}", 2), independent_sharing(2)
    )
    trace = partially_evaluate(prog, init, an)
    rp = extract_residual([trace], RenamingScheme(prog))
    assert rp.par_sites()
    heads = {c.head.pred for c in corpus.guarded_sections(rp)[0].clauses}
    assert heads == {"r_par_2"}  # r_par/1 already belongs to the source


def test_unparallelized_residual_passes_through_unguarded():
    _, _, _, rp = corpus.compiled("palin")
    assert rp.par_sites() == []
    assert format_guarded(rp, 4) == format_residual(rp)


# ---------------------------------------------------------------------------
# layout


def test_format_residual_sections():
    _, _, _, rp = corpus.compiled("fib")
    text = format_residual(rp)
    assert text.endswith("\n") and not text.endswith("\n\n")
    gtext = format_guarded(rp, 4)
    head, sep, support = gtext.partition(":- dynamic current_threads/1.")
    assert sep and "concurrent_k" in support
    assert "fibonacci_par" in head and "fibonacci(0,1)." in head


def test_structural_dedup_keeps_first_occurrence():
    # both branches specialize the same helper; it is emitted once
    rp = compile_text(
        """
        p(X, Y) :- q(X, Y).
        p(X, Y) :- q(Y, X).
        q(A, B) :- r(A), r(B).
        r(0).
        """,
        "p",
        2,
        "{1,2}",
    )
    texts = [format_clause(c) for c in rp.residual_clauses]
    assert len(texts) == len(set(texts))
