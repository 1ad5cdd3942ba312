"""Pattern-extended unfolding: entry, propagation, splitting, driving."""
import copy
import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

import corpus
from corpus import label_sequences, worst_sharing
from parpeval import (
    Analyzer,
    PELimitExceeded,
    engine,
    extract_residual,
    format_residual,
    parse_program,
    partially_evaluate,
)
from parpeval.cli import main
from parpeval.engine import (
    ExtendedAtom,
    Memo,
    Transition,
    embeds,
    format_subst,
    format_trace,
    format_transition,
    head_state,
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
    sharing_from_pairs,
)
from parpeval.terms import (
    BUILTIN_KEYS,
    COMPARISON_PREDS,
    Atom,
    Int,
    Struct,
    Var,
    apply_subst,
    canonical,
    format_atom,
    mgu,
    rename_apart,
    term_vars,
)


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


def entry_query(head, clause):
    """The entry patterns of `clause`'s body under `head`, whose atom is
    the clause head: the body refreshed against the head state before
    any success is absorbed."""
    state = head_state(head)
    return tuple(engine._refresh(a, state) for a in clause.body_atoms())


def test_entry_patterns_fibonacci_recursive_clause():
    prog, an, head = fib_setup()
    q = entry_query(head, prog.clauses[2])
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
    head = ExtendedAtom(clause.head, groundness(2), parse_sharing("<{1,2},{1,2}>", 2))
    linked = entry_query(head, clause)
    assert format_sharing(linked[0].sh) == "<{1,2},{1,2}>"
    head = ExtendedAtom(clause.head, groundness(2), independent_sharing(2))
    free = entry_query(head, clause)
    assert format_sharing(free[0].sh) == "<{1},{2}>"


def test_entry_links_positions_sharing_a_variable():
    prog = parse_program("p(X) :- q(X, f(X), Y).")
    clause = prog.clauses[0]
    head = ExtendedAtom(clause.head, groundness(1), independent_sharing(1))
    (q,) = entry_query(head, clause)
    assert format_sharing(q.sh) == "<{1,2},{1,2},{3}>"


# ---------------------------------------------------------------------------
# success propagation


def test_propagation_matches_sequential_walk():
    prog, an, head = fib_setup()
    walked, state = propagate_success(prog.clauses[2].body_atoms(), an, head_state(head))
    assert shapes(walked) == [
        ("M > 1", "{1,2}", "<{1},{2}>"),
        ("M1 is M-1", "{2}", "<{1},{2}>"),
        ("fibonacci(M1,N1)", "{1}", "<{1},{2}>"),
        ("M2 is M-2", "{2}", "<{1},{2}>"),
        ("fibonacci(M2,N2)", "{1}", "<{1},{2}>"),
        ("N is N1+N2", "{2}", "<{1},{2}>"),
    ]
    assert state.ground >= {"M", "N", "M1", "N1", "M2", "N2"}


def test_refresh_reads_the_state_alone():
    # the entry patterns assume no success of an atom to the left; the
    # walk absorbs q's success before it refreshes r
    prog = parse_program("q(X, Z) :- Z is X+1.\np(X,Y) :- q(X,Z), r(Z,Y).")
    clause = prog.clauses[-1]
    head = ExtendedAtom(clause.head, parse_groundness("{1}", 2), independent_sharing(2))
    entry = entry_query(head, clause)
    assert shapes(entry) == [("q(X,Z)", "{1}", "<{1},{2}>"), ("r(Z,Y)", "{}", "<{1},{2}>")]
    walked, _ = propagate_success(clause.body_atoms(), Analyzer(prog), head_state(head))
    assert shapes(walked)[1] == ("r(Z,Y)", "{1}", "<{1},{2}>")


def test_propagation_absorbs_aliases():
    # s(Y,Z) links its arguments; a later atom must see them shared
    prog = parse_program("s(A, A).\np(X) :- s(Y, Z), t(Y, Z).")
    an = Analyzer(prog)
    head = ExtendedAtom(Atom("p", (Var("X"),)), groundness(1, (1,)), independent_sharing(1))
    walked, state = propagate_success(prog.clauses[-1].body_atoms(), an, head_state(head))
    assert format_sharing(walked[0].sh) == "<{1},{2}>"
    assert "Z" in state.partners["Y"]
    assert format_sharing(walked[1].sh) == "<{1,2},{1,2}>"


@st.composite
def disjoint_patterned_atoms(draw):
    """An atom whose arguments have non-empty, pairwise disjoint variable
    sets, under any groundness and sharing patterns."""
    n = draw(st.integers(min_value=1, max_value=4))
    args = []
    for i in range(1, n + 1):
        names = [Var(f"V{i}_{k}") for k in range(draw(st.integers(min_value=1, max_value=3)))]
        if len(names) == 1 and draw(st.booleans()):
            args.append(names[0])
        else:
            args.append(Struct("f", (*names, Int(i))))
    positions = st.integers(min_value=1, max_value=n)
    gr = groundness(n, draw(st.sets(positions)))
    pairs = draw(st.sets(st.tuples(positions, positions).filter(lambda p: p[0] < p[1])))
    return ExtendedAtom(Atom("p", tuple(args)), gr, sharing_from_pairs(n, pairs))


@given(disjoint_patterned_atoms())
def test_prop_refresh_reads_back_what_head_state_absorbed(ea):
    # pattern -> state -> pattern keeps the groundness and every pair
    # of free positions; a ground position shares with nothing
    got = engine._refresh(ea.atom, head_state(ea))
    assert got.gr == ea.gr
    free_pairs = [(i, j) for i, j in ea.sh.pairs if i not in ea.gr and j not in ea.gr]
    assert got.sh == sharing_from_pairs(ea.atom.arity, free_pairs)


# ---------------------------------------------------------------------------
# independent splitting


def test_split_fibonacci_quadruple():
    prog, an, head = fib_setup()
    quad = split_independent(head, prog.clauses[2].body_atoms(), an)
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
    assert split_independent(head, prog.clauses[0].body_atoms(), an) is None


def test_split_needs_a_user_atom_per_segment():
    prog = parse_program("p(X, Y) :- Y is X+1, q(X, Y).")
    an = Analyzer(prog)
    head = ExtendedAtom(
        Atom("p", (Var("X"), Var("Y"))), groundness(2, (1,)), independent_sharing(2)
    )
    assert split_independent(head, prog.clauses[0].body_atoms(), an) is None


def test_split_never_forks_comparisons():
    prog = parse_program("p(X) :- X > 0, q(X), r(X).")
    an = Analyzer(prog)
    head = ExtendedAtom(Atom("p", (Var("X"),)), groundness(1, (1,)), independent_sharing(1))
    quad = split_independent(head, prog.clauses[0].body_atoms(), an)
    assert quad is not None
    q1, q2, q3, _ = quad
    assert [format_atom(ea.atom) for ea in q1] == ["X > 0"]
    assert [ea.atom.pred for ea in q2] == ["q"]
    assert [ea.atom.pred for ea in q3] == ["r"]


def test_split_tail_patterns_come_from_the_join():
    # both q calls ground D and E, so t(D,D) is called with D ground: no
    # pair survives from the fork, where D was free
    prog = parse_program("q(X,Y) :- Y is X+1.\nt(X,Y).\np(A,B,C) :- q(A,D), q(A,E), t(D,D).")
    clause = prog.clauses[-1]
    head = ExtendedAtom(clause.head, groundness(3, (1,)), independent_sharing(3))
    quad = split_independent(head, clause.body_atoms(), Analyzer(prog))
    assert quad is not None
    assert [shapes(seg) for seg in quad] == [
        [],
        [("q(A,D)", "{1}", "<{1},{2}>")],
        [("q(A,E)", "{1}", "<{1},{2}>")],
        [("t(D,D)", "{1,2}", "<{1},{2}>")],
    ]


def test_split_segment_patterns_come_from_the_walk_from_the_fork():
    # g grounds Y before b is called, so b's positions share nothing,
    # though the head lets Y and Z alias at the fork
    prog = parse_program("g(a).\nb(A,B).\nr(C).\np(Y,Z,W) :- g(Y), b(Y,Z), r(W).")
    clause = prog.clauses[-1]
    head = ExtendedAtom(clause.head, groundness(3), parse_sharing("<{1,2},{1,2},{3}>", 3))
    quad = split_independent(head, clause.body_atoms(), Analyzer(prog))
    assert quad is not None
    assert shapes(quad[1]) == [("g(Y)", "{}", "<{1}>"), ("b(Y,Z)", "{1}", "<{1},{2}>")]
    assert shapes(quad[2]) == [("r(W)", "{}", "<{1}>")]


def driver_split(head, clause, oracle):
    # mirror the driver: the renamed body under the mgu, as plain atoms
    out = unfold_step(head, clause)
    assert out is not None
    sigma, _, body = out
    head_ea = ExtendedAtom(apply_subst(head.atom, sigma), head.gr, head.sh)
    return split_independent(head_ea, body, oracle)


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
    assert driver_split(head, mm.clauses[5], an) is None


def reference_split(head, query, oracle):
    """The search as first written: every candidate (prefix, tail,
    boundary) propagated afresh from the head state, each segment from
    its own copy of the fork and the tail from the join of the segment
    states, the paper's fork/join reading of a parallel conjunction."""

    def admissible(segment):
        has_user = False
        for x in segment:
            if x.key not in BUILTIN_KEYS:
                has_user = True
            elif x.key[0] in COMPARISON_PREDS:
                return False
            elif x.key[0] == "is" and 2 not in x.gr:
                return False
        return has_user

    def independent(left, right, fork, head_pairs):
        vleft = term_vars([x.atom for x in left])
        vright = term_vars([x.atom for x in right])
        grounded = fork.ground
        if (vleft & vright) - grounded:
            return False
        for x in vleft - grounded:
            for y in vright - grounded:
                if (x, y) in head_pairs or y in fork.partners.get(x, ()):
                    return False
        return True

    n = len(query)
    if n < 2:
        return None
    # the variables of each pair of positions the head's pattern links,
    # both ways round
    args = [term_vars(a) for a in head.atom.args]
    head_pairs = {
        (x, y)
        for i, j in head.sh.pairs
        for x in args[i - 1]
        for y in args[j - 1]
        if x != y
    }
    head_pairs |= {(y, x) for x, y in head_pairs}
    for n1 in range(0, n - 1):
        for n4 in range(0, n - n1 - 1):
            mid = n - n1 - n4
            for n2 in range(1, mid):
                p1, fork = propagate_success(query[:n1], oracle, head_state(head))
                rest = tuple(engine._refresh(a, fork) for a in query[n1:])
                p2, p3 = rest[:n2], rest[n2:mid]
                if not (admissible(p2) and admissible(p3)):
                    continue
                if not independent(p2, p3, fork, head_pairs):
                    continue
                right = copy.deepcopy(fork)
                f2, s2 = propagate_success(query[n1 : n1 + n2], oracle, fork)
                f3, s3 = propagate_success(query[n1 + n2 : n1 + mid], oracle, right)
                join = s2  # the union of the two segment states
                join.ground |= s3.ground
                for x, ys in s3.partners.items():
                    join.partners.setdefault(x, set()).update(ys)
                f4, _ = propagate_success(query[n1 + mid :], oracle, join)
                return p1, f2, f3, f4
    return None


# helpers with different success patterns: q grounds its output from a
# ground input, r aliases, s grounds, t tells nothing, u is undefined
SPLIT_HELPERS = """
q(X, Y) :- Y is X + 1.
r(X, Y) :- X = Y.
s(a).
t(X, Y).
"""
_var = st.sampled_from("ABCDE")
_goal = st.one_of(
    st.builds("{}({},{})".format, st.sampled_from("qrt"), _var, _var),
    st.builds("{}({})".format, st.sampled_from("su"), _var),
    st.builds("t(f({},{}),{})".format, _var, _var, _var),
    st.builds("{} is {}+{}".format, _var, _var, _var),
    st.builds("{} > {}".format, _var, _var),
    st.builds("{} = f({})".format, _var, _var),
    st.builds("{} = {}".format, _var, _var),
)


@settings(max_examples=300, deadline=None)
@given(
    goals=st.lists(_goal, min_size=2, max_size=8),
    ground=st.sets(st.sampled_from([1, 2, 3])),
    pairs=st.sets(st.sampled_from([(1, 2), (1, 3), (2, 3)])),
)
# a prefix =/2 links D and E, so only the fork state forbids the split
@example(goals=["D = E", "t(D,A)", "t(E,B)"], ground={1, 2}, pairs=set())
# the walk grows by two atoms at a time over prefixes that would start
# with a comparison
@example(
    goals=["q(A,C)", "A > B", "q(B,D)", "B > C", "t(C,D)", "q(D,E)"],
    ground={1, 2},
    pairs=set(),
)
# the only cut is at the last prefix tried, once q has grounded E
@example(goals=["q(A,D)", "q(D,E)", "t(E,B)", "t(E,C)"], ground={1}, pairs=set())
# the segments ground D, which the tail repeats
@example(goals=["q(A,D)", "q(A,E)", "t(D,D)"], ground={1}, pairs=set())
# the whole body admits a cut after s(A) and one after s(B); the leftmost wins
@example(goals=["s(A)", "s(B)", "t(C,D)", "t(D,E)"], ground=set(), pairs=set())
# the fork holds the head's B-C link; the tail reads C ground from the
# left segment and the D-E link from the right one
@example(goals=["q(A,C)", "r(D,E)", "t(C,E)", "t(D,E)"], ground={1}, pairs={(2, 3)})
def test_prop_split_matches_per_candidate_search(goals, ground, pairs):
    prog = parse_program(SPLIT_HELPERS + "p(A, B, C) :- " + ", ".join(goals) + ".")
    clause = prog.clauses[-1]
    head = ExtendedAtom(clause.head, groundness(3, ground), sharing_from_pairs(3, pairs))
    query = clause.body_atoms()
    want = reference_split(head, query, Analyzer(prog))
    got = split_independent(head, query, Analyzer(prog))
    # equal extended atoms: the same canonical atoms under the same patterns
    assert got == want


class FirstRequests:
    """An oracle that records each request the first time it is made."""

    def __init__(self, inner):
        self.inner, self.order = inner, []

    def success(self, pred, arity, gr, sh):
        if (pred, arity, gr, sh) not in self.order:
            self.order.append((pred, arity, gr, sh))
        return self.inner.success(pred, arity, gr, sh)


@settings(max_examples=200, deadline=None)
@given(goals=st.lists(_goal, min_size=2, max_size=8), ground=st.sets(st.sampled_from([1, 2, 3])))
@example(goals=["A > B", "q(A,C)", "B > C", "q(B,D)", "t(C,D)"], ground={1, 2})
@example(goals=["q(A,C)", "A > B", "q(B,D)", "B > C", "t(C,D)", "q(D,E)"], ground={1, 2})
@example(goals=["q(A,D)", "q(D,E)", "t(E,B)", "t(E,C)"], ground={1})
def test_prop_split_asks_the_oracle_as_the_full_search_does(goals, ground):
    # a skipped prefix leaves the analyzer's rows, and so the table, as
    # they are: the one walk `_unfold` runs asks what the per-candidate
    # search asks, followed, when it finds no split, by a walk of the
    # whole body; split or not, the walk is the body's propagation
    prog = parse_program(SPLIT_HELPERS + "p(A, B, C) :- " + ", ".join(goals) + ".")
    clause = prog.clauses[-1]
    head = ExtendedAtom(clause.head, groundness(3, ground), independent_sharing(3))
    query = clause.body_atoms()
    reference = FirstRequests(Analyzer(prog))
    if reference_split(head, query, reference) is None:
        propagate_success(query, reference, head_state(head))
    oracle = FirstRequests(Analyzer(prog))
    walk, _ = engine._walk_body(head, query, oracle)
    assert oracle.order == reference.order
    assert walk == propagate_success(query, Analyzer(prog), head_state(head))[0]


class CountingOracle:
    """An oracle that counts the requests made to it."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def success(self, pred, arity, gr, sh):
        self.calls += 1
        return self.inner.success(pred, arity, gr, sh)


def test_split_looks_up_each_prefix_atom_once():
    # a dependent chain: every boundary shares a variable, no split
    # exists, and prefixes of 0..22 goals are tried: one lookup per atom
    # of the body, as the walk that found no split is finished, where a
    # walk per prefix makes 0 + 1 + ... + 22 = 253 before the body's own
    goals = ", ".join(f"q(X{i},X{i + 1})" for i in range(24))
    prog = parse_program(f"q(X, Y) :- Y is X + 1.\nr(X0, X24) :- {goals}.")
    clause = prog.clauses[-1]
    head = ExtendedAtom(clause.head, groundness(2, (1,)), independent_sharing(2))
    oracle = CountingOracle(Analyzer(prog))
    assert split_independent(head, clause.body_atoms(), oracle) is None
    assert oracle.calls == 24
    # specializing the chain walks r's body once, 24 lookups, and q's
    # body once, one lookup; q's other calls are variants
    oracle = CountingOracle(Analyzer(prog))
    trace = partially_evaluate(prog, ea(Atom("r", (Var("A"), Var("B"))), "{1}"), oracle)
    labels = [t.label for t in trace.transitions()]
    assert labels.count("u") == 2 and "p" not in labels
    assert oracle.calls == 25


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
    assert a.memo_key == b.memo_key
    assert a.memo_key != c.memo_key
    assert b.memo_key != ea(b.atom, "{1,2}").memo_key


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


_whistle_terms = st.recursive(
    st.one_of(st.sampled_from(["X", "Y"]).map(Var), st.integers(0, 1).map(Int)),
    lambda sub: st.tuples(st.sampled_from(["f", "g"]), st.lists(sub, min_size=1, max_size=2)).map(
        lambda fa: Struct(fa[0], tuple(fa[1]))
    ),
    max_leaves=4,
)


@st.composite
def whistle_atoms(draw):
    n = draw(st.integers(1, 2))
    args = tuple(draw(st.lists(_whistle_terms, min_size=n, max_size=n)))
    gr = groundness(n, draw(st.sets(st.integers(1, n), max_size=1)))
    sh = draw(st.sampled_from([independent_sharing(n), worst_sharing(n)]))
    return ExtendedAtom(Atom(draw(st.sampled_from("pq")), args), gr, sh)


@given(st.lists(whistle_atoms(), max_size=16), whistle_atoms())
# the hit is the second entry of its bucket, after one it does not embed
@example(
    entries=[
        ea(Atom("p", (Struct("g", (Var("X"),)),)), "{}"),
        ea(Atom("q", (Var("X"),)), "{}"),
        ea(Atom("p", (Var("X"),)), "{}"),
    ],
    selected=ea(Atom("p", (Struct("f", (Var("Y"),)),)), "{}"),
)
def test_prop_bucketed_whistle_matches_linear_scan(entries, selected):
    memo = Memo()
    added = [memo.add(x) for x in entries]
    linear = next((m for m in added if embeds(selected, m)), None)
    assert memo.embedding(selected) is linear


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
    assert label_sequences(trace) == [
        ["u"],
        ["u"],
        ["p", "n", "n", "v", "n", "v", "n"],
    ]
    # the split is cut positions in the walk of the whole body:
    # M > 1 | M1 is M-1, fibonacci(M1,N1) & M2 is M-2, fibonacci(M2,N2) | N is N1+N2
    (split,) = [t for t in trace.transitions() if t.label == "p"]
    assert len(split.body) == 6 and split.cuts == (1, 3, 5)


def test_selection_is_leftmost():
    # unfolding q pushes its body in front of r
    prog = parse_program("p(X) :- q(X), r(X).  q(X) :- s(X).  s(1).  r(1).")
    an = Analyzer(prog)
    init = ea(Atom("p", (Var("A"),)), "{1}")
    trace = partially_evaluate(prog, init, an)
    (deriv,) = trace.derivations
    assert [t.subject.ea.atom.pred for t in deriv] == ["p", "q", "s", "r"]


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
    assert label_sequences(trace) == [["u", "e"]]
    e_steps = [t for t in trace.transitions() if t.label == "e"]
    assert e_steps and any(embeds(e_steps[0].subject.ea, m) for m in trace.memo)


def test_embedding_decides_each_pair_of_subterms_once(monkeypatch):
    # p(f^16(a)) is checked against the memo entry p(f^8(b)): diving and
    # coupling reach one pair of subterms along many paths (89,845
    # decisions when each path decided its pairs again), but there are
    # only 17 * 9 pairs
    def nested(n, inner):
        return "f(" * n + inner + ")" * n

    prog = parse_program(
        f"main :- q, r. q :- p({nested(8, 'b')}). r :- p({nested(16, 'a')}). p(X)."
    )
    calls = []
    real = engine._term_embeds

    def counting(big, small, sub):
        calls.append((big, small))
        return real(big, small, sub)

    monkeypatch.setattr(engine, "_term_embeds", counting)
    trace = partially_evaluate(prog, ea(Atom("main", ()), "{}"), Analyzer(prog))
    assert 0 < len(calls) <= 17 * 9
    assert format_residual(extract_residual([trace])) == (
        "main__ :- (q__ & r__).\n"
        f"q__ :- p_1_1({nested(8, 'b')}).\n"
        f"p_1_1({nested(8, 'b')}).\n"
        f"r__ :- p_1_1_2({nested(16, 'a')}).\n"
        f"p_1_1_2({nested(16, 'a')}).\n"
    )


def test_whistle_skips_entries_larger_than_the_new_atom(tmp_path, monkeypatch, capsys):
    # len/2 over a static 60-item list meets each tail of the list in
    # turn, and a term embeds only in one at least its size: no pair of
    # subterms where the small side is the larger is decided (1,711,355
    # decisions when every such pair was)
    items = ",".join(["1"] * 60)
    program = tmp_path / "len.pl"
    program.write_text(
        f"len([],0).\nlen([_|T],N) :- len(T,M), N is M+1.\nt(N) :- len([{items}],N).\n"
    )
    calls = 0
    real = engine._term_embeds

    def counting(big, small, sub):
        nonlocal calls
        calls += 1
        return real(big, small, sub)

    monkeypatch.setattr(engine, "_term_embeds", counting)
    assert main([str(program), "--entry", "t/1 gr {}"]) == 0
    assert calls < 100_000
    # the output the whistle gave when it decided every pair
    out = capsys.readouterr().out
    assert hashlib.sha1(out.encode()).hexdigest().startswith("63996281468c")


def test_embedding_records_its_msg_and_a_root_with_a_variant_is_skipped():
    prog = parse_program("p(X) :- p(f(X)).")
    init = ea(Atom("p", (Var("A"),)), "{}")
    trace = partially_evaluate(prog, init, Analyzer(prog))
    (e_step,) = [t for t in trace.transitions() if t.label == "e"]
    # msg(p(f(X)), p(X)) is a variant of the memo entry: no new root
    assert canonical(e_step.general.atom) == canonical(init.atom)
    assert len(trace.memo) == 1


def test_root_is_unfolded_without_the_whistle():
    # p(f(Y),Y) embeds p(X,X); the root p(_G1,_G2), their msg, embeds
    # p(X,X) too: were the root whistled, it would be its own msg and the
    # driver would loop
    prog = parse_program("q(X) :- p(X,X). p(X,Y) :- p(f(X),Y). p(a,_).")
    init = ea(Atom("q", (Var("A"),)), "{}")
    trace = partially_evaluate(prog, init, Analyzer(prog), max_transitions=20)
    assert len(trace.transitions()) == 7
    assert [format_atom(m.atom) for m in trace.memo] == ["q(A)", "p(X,X)", "p(_G1,_G2)"]
    assert format_residual(extract_residual([trace])) == (
        "q__1(X) :- p__12_12(X,X).\n"
        "p__12_12(Y,Y) :- p__12_12_2(f(Y),Y).\n"
        "p__12_12(a,a).\n"
        "p__12_12_2(X,Y) :- p__12_12_2(f(X),Y).\n"
        "p__12_12_2(a,_G3).\n"
    )


def test_transition_budget_is_enforced():
    prog, an, _ = fib_setup()
    init = ea(Atom("fibonacci", (Var("A"), Var("B"))), "{1}")
    with pytest.raises(PELimitExceeded):
        partially_evaluate(prog, init, an, max_transitions=3)


def test_corpus_termination_and_labels():
    for name in corpus.BENCHES:
        _, _, trace, _ = corpus.compiled(name)
        labels = {l for seq in label_sequences(trace) for l in seq}
        assert labels <= {"u", "p", "v", "e", "n", "f"}, name


# ---------------------------------------------------------------------------
# conservativity: recorded steps replay as plain resolution steps


def replay(program, transition: Transition) -> None:
    subject = transition.subject.ea.atom
    # the renaming `unfold_step` made: it depends on the clause and the atom alone
    rclause = rename_apart(program.clauses[transition.clause_index], term_vars(subject))
    sigma = mgu(subject, rclause.head)
    assert sigma is not None
    assert apply_subst(rclause.head, sigma) == transition.head_instance
    body = tuple(apply_subst(b, sigma) for b in rclause.body_atoms())
    recorded = tuple(occ.ea.atom for occ in transition.body)
    assert canonical(recorded) == canonical(body)


def test_unfold_transitions_replay_as_resolution():
    for name in ("fib", "qsort", "amatrix", "tak"):
        program, _, trace, _ = corpus.compiled(name)
        seen = 0
        for t in trace.transitions():
            if t.label in ("u", "p"):
                replay(program, t)
                seen += 1
        assert seen > 0, name


def test_unfold_step_returns_the_instantiated_body_without_claims():
    prog, _, head = fib_setup()
    out = unfold_step(head, prog.clauses[2])
    assert out is not None
    sigma, rclause, body = out
    assert apply_subst(rclause.head, sigma) == apply_subst(head.atom, sigma)
    # plain atoms: propagation from the head state gives them their patterns
    assert body == tuple(apply_subst(b, sigma) for b in rclause.body_atoms())
    assert all(isinstance(x, Atom) for x in body)


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
    golden = (corpus.Path(__file__).parent / "golden" / "fib.trace").read_text()
    assert format_trace(trace) == golden


# ---------------------------------------------------------------------------
# cost of the memo of `partially_evaluate`; the program is left as it is


def many_preds(n):
    """pI calls pI+1 and pI+2 behind a guard, as the benchmark's
    many-predicates programs do."""
    lines = ["q(X, Y) :- Y is X + 1."]
    for i in range(n):
        lines.append(f"p{i}(X,Y,Z) :- X >= 500, Y is X, Z is X.")
        lines.append(f"p{i}(X,Y,Z) :- X < 500, q(X,A), p{i + 1}(A,B,C), p{i + 2}(X,Y,D), q(B,Z).")
    lines += [f"p{i}(X,Y,Z) :- Y is X, Z is X." for i in (n, n + 1)]
    return "\n".join(lines)


def test_whistle_compares_only_atoms_of_one_predicate_and_pattern(monkeypatch):
    prog = parse_program(many_preds(100))
    calls = {"all": 0, "builtin": 0}
    real = engine.embeds

    def counting(big, small):
        calls["all"] += 1
        calls["builtin"] += big.key in BUILTIN_KEYS
        return real(big, small)

    monkeypatch.setattr(engine, "embeds", counting)
    trace = partially_evaluate(prog, ea(Atom("p0", (Var("A"), Var("B"), Var("C"))), "{1}"), Analyzer(prog))
    labels = [t.label for t in trace.transitions()]
    assert (len(labels), labels.count("n")) == (3456, 405)
    # a scan of the whole memo made 28,810 calls here; the memo holds no
    # builtin, and each predicate is unfolded under one pattern only, so
    # no bucket holds an atom to compare when one is searched
    assert calls == {"all": 0, "builtin": 0}


def test_analysis_and_specialization_leave_the_program_clauses_as_they_are():
    # nothing is cached on a program object, so output cannot depend on
    # what ran on the program before
    prog = parse_program(many_preds(100))
    before = [dict(c.__dict__) for c in prog.clauses]
    an = Analyzer(prog)
    an.success("p0", 3, groundness(3, (1,)), independent_sharing(3))
    partially_evaluate(prog, ea(Atom("p0", (Var("A"), Var("B"), Var("C"))), "{1}"), an)
    assert [c.__dict__ for c in prog.clauses] == before


def test_every_pattern_the_specializer_holds_is_the_one_object_for_its_value():
    # patterns are interned, so the keys of the table rows, the memo and
    # the transitions compare by identity first
    prog = parse_program((corpus.Path(__file__).parent / "golden" / "preds12.pl").read_text())
    an = Analyzer(prog)
    trace = partially_evaluate(prog, ea(Atom("p0", (Var("A"), Var("B"), Var("C"))), "{1}"), an)
    held = [p for (_, _, gr, sh), row in an.rows.rows.items() for p in (gr, sh, row.ground, row.share)]
    atoms = [*trace.memo]
    for t in trace.transitions():
        atoms += [t.subject.ea, *(o.ea for o in t.body)]
        atoms += [t.general] if t.general is not None else []
    held += [p for x in atoms for p in (x.gr, x.sh)]
    assert len(set(held)) < len(held) / 10  # many holders per value
    assert len({id(p) for p in held}) == len(set(held))
