"""Residual extraction: renaming, generalization, and thread guards."""
import pytest

import corpus
from parpeval import (
    Analyzer,
    CodegenError,
    ParGroup,
    add_thread_guards,
    extract_residual,
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
from parpeval.terms import Atom, Struct, Var, canonical, format_atom, format_clause


def compile_text(text, pred, arity, gr_text, sh_text=None):
    prog = parse_program(text)
    an = Analyzer(prog)
    names = tuple(Var(chr(65 + i)) for i in range(arity))
    sh = parse_sharing(sh_text, arity) if sh_text else independent_sharing(arity)
    init = ExtendedAtom(Atom(pred, names), parse_groundness(gr_text, arity), sh)
    return extract_residual(partially_evaluate(prog, init, an))


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
    assert rp.original_clauses == ()


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
    assert rp.original_clauses == ()
    assert rp.entries == {("p", 1, groundness(1), independent_sharing(1)): "p__1"}


# ---------------------------------------------------------------------------
# failing atoms


def test_unmatched_atom_is_recorded_not_emitted():
    rp = compile_text("p(X) :- missing(X).", "p", 1, "{1}")
    assert ("missing", 1) in rp.failing
    preds = {c.head.pred for c in rp.program().clauses}
    assert "missing" not in preds


# ---------------------------------------------------------------------------
# thread guards


def test_guarded_fibonacci_renames_every_clause_of_par_predicates():
    _, _, _, rp = corpus.compiled("fib")
    g = add_thread_guards(rp, max_threads=4)
    assert g is not rp and g.guarded
    heads = [c.head.pred for c in g.residual_clauses]
    assert heads == ["fibonacci_par", "fibonacci_par", "fibonacci_par"]
    rec = g.residual_clauses[2]
    assert format_clause(rec) == (
        "fibonacci_par(M,N) :- M > 1, concurrent_k("
        "(M1 is M-1,fibonacci(M1,N1),M2 is M-2,fibonacci(M2,N2)),"
        "(M1 is M-1,fibonacci_par(M1,N1)),"
        "(M2 is M-2,fibonacci_par(M2,N2))), N is N1+N2."
    )
    # the full source rides along for the sequential fallback
    assert clause_set(g.original_clauses) == clause_set(corpus.load("fib").clauses)
    assert "max_threads(4)." in g.support_text
    assert "concurrent_k(A,B,C)" in g.support_text
    assert ":- dynamic current_threads/1." in g.support_text


def test_guarded_qsort_structure():
    _, _, _, rp = corpus.compiled("qsort")
    g = add_thread_guards(rp, max_threads=4)
    rec = g.residual_clauses[1]
    body_preds = [goal.pred for goal in rec.body]
    assert body_preds == ["partition", "concurrent_k", "append"]
    seq, left, right = rec.body[1].args
    assert left.functor == "quicksort_par"
    assert right.functor == "quicksort_par"
    assert seq.functor == "," and {a.functor for a in seq.args} == {"quicksort"}


def test_guarded_amatrix_parallelizes_only_the_recursive_side():
    _, _, _, rp = corpus.compiled("amatrix")
    g = add_thread_guards(rp, max_threads=4)
    rec = g.residual_clauses[1]
    seq, left, right = rec.body[0].args
    # left segment is not a parallelized predicate: it falls back to the original
    assert left.functor == "am1"
    assert right.functor == "amatrix_par"
    assert {a.functor for a in seq.args} == {"am1", "amatrix"}


def test_guard_counter_respects_max_threads_argument():
    _, _, _, rp = corpus.compiled("fib")
    assert "max_threads(2)." in add_thread_guards(rp, max_threads=2).support_text
    with pytest.raises(ValueError):
        add_thread_guards(rp, max_threads=0)


def test_guarding_twice_gives_the_same_names():
    _, _, _, rp = corpus.compiled("qsort")
    first = format_residual(add_thread_guards(rp, max_threads=4))
    second = format_residual(add_thread_guards(rp, max_threads=4))
    assert first == second
    assert "quicksort_par(" in first and "quicksort_par_2" not in first


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
    g = add_thread_guards(rp, max_threads=4)
    heads = {c.head.pred for c in g.residual_clauses}
    assert heads == {"r_par_2"}  # r_par/1 already belongs to the source


def test_unparallelized_residual_passes_through_unguarded():
    _, _, _, rp = corpus.compiled("palin")
    assert rp.par_sites() == []
    assert add_thread_guards(rp) is rp


# ---------------------------------------------------------------------------
# layout


def test_format_residual_sections():
    _, _, _, rp = corpus.compiled("fib")
    text = format_residual(rp)
    assert text.endswith("\n") and not text.endswith("\n\n")
    g = add_thread_guards(rp)
    gtext = format_residual(g)
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
