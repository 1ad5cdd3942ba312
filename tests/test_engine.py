"""Pattern-extended unfolding: entry, propagation, splitting, driving."""
import pytest

import corpus
from parpeval import Analyzer, PELimitExceeded, parse_program, partially_evaluate
from parpeval.engine import (
    ExtendedAtom,
    PropState,
    Transition,
    body_call_patterns,
    embeds,
    format_subst,
    format_trace,
    format_transition,
    head_state,
    is_variant,
    propagate_success,
    split_independent,
    unfold_step,
)
from parpeval.patterns import (
    format_groundness,
    format_sharing,
    groundness,
    independent_sharing,
    parse_groundness,
    parse_sharing,
)
from parpeval.terms import Atom, Struct, Var, apply_subst, canonical, format_atom, mgu

FIB = """
fibonacci(0, 1).
fibonacci(1, 1).
fibonacci(M, N) :- M > 1, M1 is M-1, fibonacci(M1, N1),
                   M2 is M-2, fibonacci(M2, N2), N is N1+N2.
"""


def fib_setup():
    prog = parse_program(FIB)
    head = ExtendedAtom(
        Atom("fibonacci", (Var("M"), Var("N"))),
        parse_groundness("{1}", 2),
        parse_sharing("<{1},{2}>", 2),
    )
    return prog, Analyzer(prog), head


def shapes(query):
    return [
        (format_atom(ea.atom), format_groundness(ea.gr), format_sharing(ea.sh))
        for ea in query
    ]


# ---------------------------------------------------------------------------
# entry patterns


def test_entry_patterns_fibonacci_recursive_clause():
    prog, _, head = fib_setup()
    q = body_call_patterns(head.gr, head.sh, prog.clauses[2])
    assert shapes(q) == [
        ("M > 1", "{1,2}", "<{1},{2}>"),
        ("M1 is M-1", "{2}", "<{1},{2}>"),
        ("fibonacci(M1,N1)", "{}", "<{1},{2}>"),
        ("M2 is M-2", "{2}", "<{1},{2}>"),
        ("fibonacci(M2,N2)", "{}", "<{1},{2}>"),
        ("N is N1+N2", "{}", "<{1},{2}>"),
    ]


def test_entry_patterns_respect_head_sharing():
    prog = parse_program("p(X, Y) :- q(X, Y).")
    clause = prog.clauses[0]
    linked = body_call_patterns(
        groundness(2), parse_sharing("<{1,2},{1,2}>", 2), clause
    )
    assert format_sharing(linked[0].sh) == "<{1,2},{1,2}>"
    free = body_call_patterns(groundness(2), independent_sharing(2), clause)
    assert format_sharing(free[0].sh) == "<{1},{2}>"


def test_entry_links_positions_sharing_a_variable():
    prog = parse_program("p(X) :- q(X, f(X), Y).")
    (q,) = body_call_patterns(groundness(1), independent_sharing(1), prog.clauses[0])
    assert format_sharing(q.sh) == "<{1,2},{1,2},{3}>"


# ---------------------------------------------------------------------------
# success propagation


def test_propagation_matches_sequential_walk():
    prog, an, head = fib_setup()
    q = body_call_patterns(head.gr, head.sh, prog.clauses[2])
    walked, rest, state = propagate_success(q, (), an, head_state(head))
    assert rest == ()
    assert shapes(walked) == [
        ("M > 1", "{1,2}", "<{1},{2}>"),
        ("M1 is M-1", "{2}", "<{1},{2}>"),
        ("fibonacci(M1,N1)", "{1}", "<{1},{2}>"),
        ("M2 is M-2", "{2}", "<{1},{2}>"),
        ("fibonacci(M2,N2)", "{1}", "<{1},{2}>"),
        ("N is N1+N2", "{2}", "<{1},{2}>"),
    ]
    assert state.ground >= {"M", "N", "M1", "N1", "M2", "N2"}


def test_propagation_claims_only_for_right_part():
    # q2 sees groundness claims of atoms to its left but no successes
    prog = parse_program("p(X,Y) :- q(X,Z), r(Z,Y).")
    an = Analyzer(prog)
    head = ExtendedAtom(
        Atom("p", (Var("X"), Var("Y"))), parse_groundness("{1}", 2), independent_sharing(2)
    )
    q = body_call_patterns(head.gr, head.sh, prog.clauses[0])
    _, rest, _ = propagate_success((), q, an, head_state(head))
    # r's first position is not claimed: q's success was never consulted
    assert shapes(rest)[1][1] == "{}"


def test_propagation_absorbs_aliases():
    # s(Y,Z) links its arguments; a later atom must see them shared
    prog = parse_program("p(X) :- s(Y, Z), t(Y, Z).")
    an = Analyzer(prog)  # s undefined: identity success keeps the alias claim
    head = ExtendedAtom(Atom("p", (Var("X"),)), groundness(1, (1,)), independent_sharing(1))
    q = body_call_patterns(head.gr, head.sh, prog.clauses[0])
    seeded = (
        ExtendedAtom(q[0].atom, q[0].gr, parse_sharing("<{1,2},{1,2}>", 2)),
        q[1],
    )
    walked, _, state = propagate_success(seeded, (), an, head_state(head))
    assert state.may_alias("Y", "Z")
    assert format_sharing(walked[1].sh) == "<{1,2},{1,2}>"


# ---------------------------------------------------------------------------
# independent splitting


def test_split_fibonacci_quadruple():
    prog, an, head = fib_setup()
    q = body_call_patterns(head.gr, head.sh, prog.clauses[2])
    quad = split_independent(head, q, an)
    assert quad is not None
    q1, q2, q3, q4 = quad
    assert [format_atom(ea.atom) for ea in q1] == ["M > 1"]
    assert [format_atom(ea.atom) for ea in q2] == ["M1 is M-1", "fibonacci(M1,N1)"]
    assert [format_atom(ea.atom) for ea in q3] == ["M2 is M-2", "fibonacci(M2,N2)"]
    assert [format_atom(ea.atom) for ea in q4] == ["N is N1+N2"]
    assert [format_groundness(ea.gr) for ea in q2] == ["{2}", "{1}"]
    assert format_groundness(q4[0].gr) == "{2}"


def test_split_rejects_shared_free_variable():
    prog = parse_program("p(X) :- q(X, Y), r(Y, Z).")
    an = Analyzer(prog)
    head = ExtendedAtom(Atom("p", (Var("X"),)), groundness(1, (1,)), independent_sharing(1))
    q = body_call_patterns(head.gr, head.sh, prog.clauses[0])
    assert split_independent(head, q, an) is None


def test_split_needs_a_user_atom_per_segment():
    prog = parse_program("p(X, Y) :- Y is X+1, q(X, Y).")
    an = Analyzer(prog)
    head = ExtendedAtom(
        Atom("p", (Var("X"), Var("Y"))), groundness(2, (1,)), independent_sharing(2)
    )
    q = body_call_patterns(head.gr, head.sh, prog.clauses[0])
    assert split_independent(head, q, an) is None


def test_split_never_forks_comparisons():
    prog = parse_program("p(X) :- X > 0, q(X), r(X).")
    an = Analyzer(prog)
    head = ExtendedAtom(Atom("p", (Var("X"),)), groundness(1, (1,)), independent_sharing(1))
    q = body_call_patterns(head.gr, head.sh, prog.clauses[0])
    quad = split_independent(head, q, an)
    assert quad is not None
    q1, q2, q3, _ = quad
    assert [format_atom(ea.atom) for ea in q1] == ["X > 0"]
    assert [ea.atom.pred for ea in q2] == ["q"]
    assert [ea.atom.pred for ea in q3] == ["r"]


def driver_split(head, clause, oracle):
    # mirror the driver: patterns from the renamed clause, atoms under the mgu
    out = unfold_step(head, clause)
    assert out is not None
    sigma, _, equery = out
    head_ea = ExtendedAtom(apply_subst(head.atom, sigma), head.gr, head.sh)
    return split_independent(head_ea, equery, oracle)


def test_split_blocked_by_head_sharing():
    # Y and Z are distinct but the head pattern says they may alias
    prog = parse_program("p(Y, Z) :- q(Y), r(Z).")
    an = Analyzer(prog)
    free = ExtendedAtom(
        Atom("p", (Var("A"), Var("B"))), groundness(2), independent_sharing(2)
    )
    assert driver_split(free, prog.clauses[0], an) is not None
    aliased = ExtendedAtom(
        Atom("p", (Var("A"), Var("B"))), groundness(2), parse_sharing("<{1,2},{1,2}>", 2)
    )
    assert driver_split(aliased, prog.clauses[0], an) is None


def test_split_examples_from_corpus():
    cases = {
        "amatrix": (1, [0, 1, 1, 0]),     # clause 2: (∅, [am1], [amatrix], ∅)
        "qsort": (1, [1, 1, 1, 1]),       # partition / qs & qs / append
        "hanoi": (1, [2, 1, 1, 1]),       # guard+is prefix of two
        "tak": (1, [3, 2, 1, 2]),         # is rides along in the left segment
        "flatten": (2, [0, 1, 1, 1]),
        "msort": (2, [1, 1, 1, 1]),
    }
    for name, (clause_idx, sizes) in cases.items():
        program = corpus.load(name)
        bench = corpus.BENCHES[name]
        head = corpus.entry_atom(bench.entry)
        an = Analyzer(program)
        quad = driver_split(head, program.clauses[clause_idx], an)
        assert quad is not None, name
        assert [len(seg) for seg in quad] == sizes, name


def test_split_none_for_vmul_and_merge():
    mm = corpus.load("mmatrix")
    an = Analyzer(mm)
    head = ExtendedAtom(
        Atom("vmul", (Var("A"), Var("B"), Var("C"))),
        groundness(3, (1, 2)),
        independent_sharing(3),
    )
    q = body_call_patterns(head.gr, head.sh, mm.clauses[5])
    assert split_independent(head, q, an) is None


# ---------------------------------------------------------------------------
# variants and embedding


def ea(atom, gr_text, sh_text=None):
    n = atom.arity
    sh = parse_sharing(sh_text, n) if sh_text else independent_sharing(n)
    return ExtendedAtom(atom, parse_groundness(gr_text, n), sh)


def test_variant_ignores_names_not_structure():
    a = ea(Atom("p", (Var("X"), Var("X"))), "{1}")
    b = ea(Atom("p", (Var("Q"), Var("Q"))), "{1}")
    c = ea(Atom("p", (Var("Q"), Var("R"))), "{1}")
    assert is_variant(a, b)
    assert not is_variant(a, c)
    assert not is_variant(b, ea(b.atom, "{1,2}"))


def test_embedding_by_diving_and_coupling():
    small = ea(Atom("p", (Var("X"),)), "{}")
    big = ea(Atom("p", (Struct("f", (Var("Y"),)),)), "{}")
    assert embeds(big, small)
    assert not embeds(small, big)
    # integers embed each other; distinct functors never couple
    assert embeds(ea(Atom("p", (Struct("f", ()),)), "{}"), ea(Atom("p", (Struct("f", ()),)), "{}"))
    assert not embeds(
        ea(Atom("p", (Struct("g", ()),)), "{}"), ea(Atom("p", (Struct("f", ()),)), "{}")
    )


def test_embedding_requires_equal_patterns():
    small = ea(Atom("p", (Var("X"),)), "{}")
    big = ea(Atom("p", (Struct("f", (Var("Y"),)),)), "{1}")
    assert not embeds(big, small)


# ---------------------------------------------------------------------------
# the driver


def test_fibonacci_label_sequences():
    prog, an, _ = fib_setup()
    init = ea(Atom("fibonacci", (Var("A"), Var("B"))), "{1}")
    trace = partially_evaluate(prog, init, an)
    assert trace.label_sequences() == [
        ["u"],
        ["u"],
        ["p", "n", "n", "v", "n", "v", "n"],
    ]


def test_selection_is_leftmost():
    # unfolding q pushes its body in front of r
    prog = parse_program("p(X) :- q(X), r(X).  q(X) :- s(X).  s(1).  r(1).")
    an = Analyzer(prog)
    init = ea(Atom("p", (Var("A"),)), "{1}")
    trace = partially_evaluate(prog, init, an)
    (deriv,) = trace.derivations
    assert [t.subject.ea.atom.pred for t in deriv.transitions] == ["p", "q", "s", "r"]


def test_memo_is_shared_across_branches():
    # both branches of q call r; only the first one unfolds it
    prog = parse_program(
        """
        p(X) :- q(X, Y), r(Y).
        q(X, X).
        q(X, f(X)).
        r(_).
        """
    )
    an = Analyzer(prog)
    init = ea(Atom("p", (Var("A"),)), "{1}")
    trace = partially_evaluate(prog, init, an)
    r_labels = [
        t.label
        for t in trace.transitions()
        if t.subject.ea.atom.pred == "r"
    ]
    assert r_labels.count("u") == 1
    assert all(l in ("u", "v") for l in r_labels)


def test_adversarial_embedding_whistle():
    prog = parse_program("p(X) :- p(f(X)).")
    an = Analyzer(prog)
    init = ea(Atom("p", (Var("A"),)), "{}")
    trace = partially_evaluate(prog, init, an)
    assert trace.label_sequences() == [["u", "e"]]
    e_steps = [t for t in trace.transitions() if t.label == "e"]
    assert e_steps and e_steps[0].matched is not None


def test_transition_budget_is_enforced():
    prog, an, _ = fib_setup()
    init = ea(Atom("fibonacci", (Var("A"), Var("B"))), "{1}")
    with pytest.raises(PELimitExceeded):
        partially_evaluate(prog, init, an, max_transitions=3)


def test_corpus_termination_and_labels():
    for name in corpus.BENCHES:
        _, _, trace, _ = corpus.compiled(name)
        labels = {l for seq in trace.label_sequences() for l in seq}
        assert labels <= {"u", "p", "v", "e", "n", "f"}, name


# ---------------------------------------------------------------------------
# conservativity: recorded steps replay as plain resolution steps


def replay(transition: Transition) -> None:
    subject = transition.subject.ea.atom
    rclause = transition.renamed_clause
    sigma = mgu(subject, rclause.head)
    assert sigma is not None
    assert apply_subst(rclause.head, sigma) == transition.head_instance
    body = tuple(apply_subst(b, sigma) for b in rclause.body_atoms())
    recorded = tuple(occ.ea.atom for occ in transition.body)
    if transition.quad is not None:
        recorded = tuple(
            occ.ea.atom for seg in transition.quad for occ in seg
        )
    assert canonical(recorded) == canonical(body)


def test_unfold_transitions_replay_as_resolution():
    for name in ("fib", "qsort", "amatrix", "tak"):
        _, _, trace, _ = corpus.compiled(name)
        seen = 0
        for t in trace.transitions():
            if t.label in ("u", "p"):
                replay(t)
                seen += 1
        assert seen > 0, name


def test_unfold_step_preserves_patterns_under_mgu():
    prog, _, head = fib_setup()
    out = unfold_step(head, prog.clauses[2])
    assert out is not None
    sigma, rclause, query = out
    assert apply_subst(rclause.head, sigma) == apply_subst(head.atom, sigma)
    uninstantiated = body_call_patterns(head.gr, head.sh, rclause)
    assert [(x.gr, x.sh) for x in query] == [(x.gr, x.sh) for x in uninstantiated]
    assert [x.atom for x in query] == [
        apply_subst(x.atom, sigma) for x in uninstantiated
    ]


# ---------------------------------------------------------------------------
# trace text


def test_format_subst_sorted_by_name():
    from parpeval.terms import Int

    assert format_subst({"B": Int(1), "A": Int(0)}) == "{A->0,B->1}"
    assert format_subst({}) == "{}"


def test_trace_text_matches_golden():
    prog, an, _ = fib_setup()
    init = ea(Atom("fibonacci", (Var("A"), Var("B"))), "{1}")
    trace = partially_evaluate(prog, init, an)
    golden = (corpus.Path(__file__).parent / "golden" / "fibonacci.trace").read_text()
    assert format_trace(trace) == golden
