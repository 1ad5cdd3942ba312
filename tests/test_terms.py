"""Term representation, substitution, and unification."""
import re
import warnings

import pytest
from hypothesis import assume, example, given, strategies as st

from parpeval import Atom, Clause, Int, ParGroup, Struct, Var, parse_atom, parse_program
from parpeval.terms import (
    _OPERATORS,
    NIL,
    NonlinearArgumentWarning,
    apply_subst,
    canonical,
    format_atom,
    format_clause,
    format_goal,
    format_term,
    make_list,
    mgu,
    msg,
    rename_apart,
    resolve,
    term_vars,
    unify,
    walk,
    warn_if_nonlinear,
)


def read_term(text):
    """The term `text` spells, read as the argument of an atom."""
    return parse_atom(f"t({text})").args[0]


def V(n):
    return Var(n)


def S(f, *args):
    return Struct(f, tuple(args))


def instance_of(t, g, binds=None):
    """Some substitution for the variables of term `g` maps it onto `t`."""
    binds = {} if binds is None else binds
    if isinstance(g, Var):
        return binds.setdefault(g.name, t) == t
    if isinstance(g, Struct) and isinstance(t, Struct) and g.functor == t.functor:
        pairs = zip(t.args, g.args)
        return len(g.args) == len(t.args) and all(instance_of(x, y, binds) for x, y in pairs)
    return g == t


# ---------------------------------------------------------------------------
# construction and variables


def test_term_vars_collects_across_shapes():
    t = S("f", V("X"), S("g", V("Y"), Int(3)), V("X"))
    assert term_vars(t) == {"X", "Y"}
    assert term_vars(Atom("p", (V("A"), NIL))) == {"A"}
    assert term_vars([V("A"), (V("B"),)]) == {"A", "B"}


def test_make_list_builds_cons_cells():
    t = make_list([Int(1), Int(2)])
    assert t == S(".", Int(1), S(".", Int(2), NIL))
    assert format_term(t) == "[1,2]"


def test_clause_body_atoms_flattens_par_groups():
    prog = parse_program("h(X) :- a(X), (b(X) & c(X)), d(X).")
    (clause,) = prog.clauses
    assert [a.pred for a in clause.body_atoms()] == ["a", "b", "c", "d"]
    assert isinstance(clause.body[1], ParGroup)


def test_three_sided_group_keeps_every_side():
    (clause,) = parse_program("h(X,Y,Z) :- (a(X) & b(Y), c(Y) & d(Z)).").clauses
    (group,) = clause.body
    assert term_vars(group) == {"X", "Y", "Z"}
    assert format_goal(group) == "(a(X) & b(Y), c(Y) & d(Z))"
    moved = apply_subst(group, {"X": Int(1), "Z": V("W")})
    assert moved == ParGroup(
        (
            (Atom("a", (Int(1),)),),
            (Atom("b", (V("Y"),)), Atom("c", (V("Y"),))),
            (Atom("d", (V("W"),)),),
        )
    )
    assert format_goal(moved) == "(a(1) & b(Y), c(Y) & d(W))"
    assert term_vars(apply_subst(clause, {"Y": Int(2)})) == {"X", "Z"}


# ---------------------------------------------------------------------------
# substitution


def test_apply_subst_is_simultaneous():
    # X->Y applied together with Y->0: X must not chase through Y.
    s = {"X": V("Y"), "Y": Int(0)}
    assert apply_subst(S("f", V("X"), V("Y")), s) == S("f", V("Y"), Int(0))


def test_walk_follows_chains_resolve_goes_deep():
    binds = {"X": V("Y"), "Y": S("f", V("Z")), "Z": Int(1)}
    assert walk(V("X"), binds) == S("f", V("Z"))
    assert resolve(V("X"), binds) == S("f", Int(1))


# ---------------------------------------------------------------------------
# unification


def test_unify_extends_bindings_without_mutation():
    binds = {}
    out = unify(S("f", V("X")), S("f", Int(3)), binds)
    assert out == {"X": Int(3)}
    assert binds == {}


def test_unify_occurs_check():
    assert unify(V("X"), S("f", V("X")), {}) is None
    assert mgu(Atom("p", (V("X"),)), Atom("p", (S("f", V("X")),))) is None


def test_mgu_is_idempotent_and_drops_self_bindings():
    a = Atom("p", (V("X"), S("f", V("X"))))
    b = Atom("p", (V("Y"), V("Z")))
    s = mgu(a, b)
    assert s is not None
    assert apply_subst(apply_subst(a, s), s) == apply_subst(a, s)
    assert apply_subst(a, s) == apply_subst(b, s)
    assert all(s[v] != Var(v) for v in s)


def test_mgu_none_on_clash():
    assert mgu(S("f", Int(1)), S("f", Int(2))) is None
    assert mgu(S("f", Int(1)), S("g", Int(1))) is None
    assert mgu(Atom("p", (Int(1),)), Atom("q", (Int(1),))) is None


# ---------------------------------------------------------------------------
# renaming


def test_rename_apart_avoids_collisions_only():
    clause = parse_program("p(X,Y) :- q(X,Z).").clauses[0]
    renamed = rename_apart(clause, {"X"})
    head_vars = term_vars(renamed.head)
    assert "X" not in head_vars
    assert "Y" in head_vars  # untouched: no collision
    # structure is preserved
    assert renamed.head.pred == "p" and renamed.body[0].pred == "q"


def test_rename_all_freshens_everything():
    clause = parse_program("p(X,Y) :- q(X,Z).").clauses[0]
    renamed = rename_apart(clause, {"X", "Y", "Z"})
    assert term_vars(renamed) & {"X", "Y", "Z"} == set()
    old = (clause.head, tuple(clause.body_atoms()))
    new = (renamed.head, tuple(renamed.body_atoms()))
    assert canonical(new) == canonical(old)


def test_msg_keeps_equal_subterms_and_names_each_differing_pair_once():
    a = parse_atom("p(f(X), a, g(a, X), _G1)")
    b = parse_atom("p(f(Y), a, g(b, Y), _G1)")
    # the pair (X, Y) recurs and gets one variable; _G1 is taken
    assert format_atom(msg(a, b)) == "p(f(_G2),a,g(_G3,_G2),_G1)"
    assert msg(a, a) == a
    assert format_atom(msg(parse_atom("p(f(X))"), parse_atom("p(g(X))"))) == "p(_G1)"


def test_canonical_numbers_by_first_occurrence():
    a = Atom("p", (V("Q"), V("R"), V("Q")))
    b = Atom("p", (V("Z"), V("A"), V("Z")))
    assert canonical(a) == canonical(b)
    assert canonical(a) != canonical(Atom("p", (V("Q"), V("R"), V("R"))))


# ---------------------------------------------------------------------------
# nonlinearity warning


def test_warn_if_nonlinear_fires_on_repeat_within_argument():
    with pytest.warns(NonlinearArgumentWarning):
        warn_if_nonlinear(Atom("p", (S("f", V("X"), V("X")),)), "test")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # repeats across arguments are the sharing pattern's job, no warning
        warn_if_nonlinear(Atom("p", (V("X"), V("X"))), "test")


# ---------------------------------------------------------------------------
# the three term maps against recursive references


def reference_apply_subst(x, s):
    """The recursive `apply_subst` the shared map replaced; with an
    idempotent `s` its output is the spec."""
    if not s:
        return x
    if isinstance(x, Var):
        return s.get(x.name, x)
    if isinstance(x, Struct):
        if x.ground:
            return x
        return Struct(x.functor, tuple([reference_apply_subst(a, s) for a in x.args]))
    if isinstance(x, Int):
        return x
    if isinstance(x, Atom):
        return Atom(x.pred, tuple([reference_apply_subst(a, s) for a in x.args]))
    if isinstance(x, ParGroup):
        return ParGroup(reference_apply_subst(x.sides, s))
    if isinstance(x, Clause):
        return Clause(
            reference_apply_subst(x.head, s), tuple(reference_apply_subst(g, s) for g in x.body)
        )
    return tuple(reference_apply_subst(item, s) for item in x)


def reference_canonical(x, names=None):
    """Variables renamed v0, v1, ... in first-occurrence order, recursively."""
    names = {} if names is None else names
    if isinstance(x, Var):
        if x.name not in names:
            names[x.name] = Var(f"v{len(names)}")
        return names[x.name]
    if isinstance(x, Struct):
        return Struct(x.functor, tuple([reference_canonical(a, names) for a in x.args]))
    if isinstance(x, Atom):
        return Atom(x.pred, tuple([reference_canonical(a, names) for a in x.args]))
    if isinstance(x, ParGroup):
        return ParGroup(reference_canonical(x.sides, names))
    if isinstance(x, Clause):
        return Clause(reference_canonical(x.head, names), reference_canonical(x.body, names))
    if isinstance(x, tuple):
        return tuple([reference_canonical(item, names) for item in x])
    return x


def test_the_three_maps_take_a_term_deeper_than_the_recursion_limit():
    # compared as text: equality and hashing of such a term still recurse
    t = V("X")
    for _ in range(5000):
        t = S("f", t)
    assert format_term(apply_subst(t, {"X": S("g", V("Y"))})) == "f(" * 5000 + "g(Y)" + ")" * 5000
    assert format_term(resolve(t, {"X": V("Y"), "Y": Int(1)})) == "f(" * 5000 + "1" + ")" * 5000
    atom = canonical(Atom("p", (t, V("X"), V("Z"))))
    assert format_atom(atom) == "p(" + "f(" * 5000 + "v0" + ")" * 5000 + ",v0,v1)"


# ---------------------------------------------------------------------------
# formatting


def test_format_term_list_and_operator_sugar():
    assert format_term(read_term("[1,2|T]")) == "[1,2|T]"
    assert format_term(read_term("X is Y-1")) == "X is Y-1"
    assert format_term(read_term("f(a,[])")) == "f(a,[])"


def test_format_clause_round_trip():
    text = "p(X,Y) :- q(X,Z), (r(Z) & s(Z)), Y is Z+1."
    clause = parse_program(text).clauses[0]
    assert format_clause(clause) == text
    assert parse_program(format_clause(clause)).clauses[0] == clause


def test_format_conjunction_term_flattens():
    t = S(",", S("a"), S(",", S("b"), S("c")))
    assert format_term(t) == "(a,b,c)"


# ---------------------------------------------------------------------------
# property tests

_functors = st.sampled_from(["f", "g", "h", "mv"])
_varnames = st.sampled_from(["X", "Y", "Z", "U", "V"])

terms = st.recursive(
    st.one_of(
        _varnames.map(Var),
        st.integers(min_value=-9, max_value=9).map(Int),
        st.just(NIL),
    ),
    lambda sub: st.one_of(
        st.tuples(_functors, st.lists(sub, min_size=1, max_size=3)).map(
            lambda fa: Struct(fa[0], tuple(fa[1]))
        ),
        st.tuples(sub, sub).map(lambda p: Struct(".", p)),
    ),
    max_leaves=12,
)


@given(terms, terms)
def test_prop_mgu_unifies(a, b):
    s = mgu(a, b)
    if s is not None:
        ra = apply_subst(a, s)
        assert ra == apply_subst(b, s)
        assert apply_subst(ra, s) == ra


@given(terms, terms)
def test_prop_msg_generalizes_both_and_a_variant_pair_to_a_variant(a, b):
    pa, pb = Atom("p", (a,)), Atom("p", (b,))
    g = msg(pa, pb)
    assert instance_of(pa.to_term(), g.to_term()) and instance_of(pb.to_term(), g.to_term())
    renamed = apply_subst(pa, {v: Var(v + "r") for v in term_vars(pa)})
    assert canonical(msg(pa, renamed)) == canonical(pa)


@given(terms)
def test_prop_format_parse_round_trip(t):
    assert read_term(format_term(t)) == t


# what the reader reads back: lowercase functors (never `is`, an
# operator), lists with and without a tail, ','/2, and every operator of
# the table at arity 2, nested
readable_terms = st.recursive(
    st.one_of(
        _varnames.map(Var),
        st.integers(min_value=-9, max_value=9).map(Int),
        st.sampled_from([NIL, S("a")]),
    ),
    lambda sub: st.one_of(
        st.tuples(_functors, st.lists(sub, min_size=1, max_size=3)).map(
            lambda fa: Struct(fa[0], tuple(fa[1]))
        ),
        st.tuples(st.lists(sub, min_size=1, max_size=3), st.one_of(st.just(NIL), sub)).map(
            lambda it: make_list(*it)
        ),
        st.tuples(st.sampled_from([",", *sorted(_OPERATORS)]), sub, sub).map(
            lambda o: Struct(o[0], o[1:])
        ),
    ),
    max_leaves=12,
)


@given(readable_terms)
@example(S("-", V("Z"), Int(-1)))
@example(S("//", V("A"), S("*", Int(-2), V("B"))))
def test_prop_operator_terms_read_back_and_print_no_glued_symbols(t):
    text = format_term(t)
    assert read_term(text) == t
    # standard Prolog reads a run of symbol characters as one token, so
    # each run must be one operator: `Z--1` would read as `--`
    assert set(re.findall(r"[-+*/\\^<>=~:.?@#&$]+", text)) <= _OPERATORS.keys()


@given(terms)
def test_prop_canonical_stable_under_renaming(t):
    renamed = rename_apart(t, term_vars(t))
    assert canonical(renamed) == canonical(t)


@given(terms, _varnames)
def test_prop_unify_var_binds_or_occurs(t, name):
    out = unify(Var(name), t, {})
    if name in term_vars(t) and t != Var(name):
        assert out is None
    else:
        assert out is not None
        assert resolve(Var(name), out) == resolve(t, out)


_binds = st.dictionaries(_varnames, terms, max_size=3)


atoms = st.tuples(st.sampled_from("pq"), st.lists(terms, max_size=3)).map(
    lambda pa: Atom(pa[0], tuple(pa[1]))
)
groups = st.lists(st.lists(atoms, min_size=1, max_size=2).map(tuple), min_size=2, max_size=3).map(
    lambda sides: ParGroup(tuple(sides))
)
clauses = st.tuples(atoms, st.lists(st.one_of(atoms, groups), max_size=3)).map(
    lambda hb: Clause(hb[0], tuple(hb[1]))
)
#: what the maps take: terms, atoms, groups, clauses and tuples of those
mappable = st.one_of(terms, atoms, groups, clauses, st.lists(atoms, max_size=3).map(tuple))


@st.composite
def idempotent_substs(draw):
    """The mgu of two drawn terms, or a renaming (swaps included)."""
    if draw(st.booleans()):
        s = mgu(draw(terms), draw(terms))
        return {} if s is None else s
    return draw(st.dictionaries(_varnames, _varnames.map(Var), max_size=4))


@given(mappable, idempotent_substs())
# an image that is a non-ground Struct, which `_rebuild` maps in turn
@example(S("g", V("X"), V("X")), {"X": S("f", V("Y"))})
@example(Atom("p", (V("X"), V("Y"))), {"X": V("Y"), "Y": V("X")})
def test_prop_the_maps_match_their_recursive_references(x, s):
    assert apply_subst(x, s) == reference_apply_subst(x, s)
    assert canonical(x) == reference_canonical(x)


def _flattened(binds):
    """Triangular bindings as one idempotent substitution: the bindings
    applied to their own images until nothing changes."""
    flat = dict(binds)
    while True:
        images = {v: reference_apply_subst(t, flat) for v, t in flat.items()}
        if images == flat:
            return flat
        flat = images


@given(st.lists(st.tuples(_varnames, terms), max_size=4), mappable)
def test_prop_resolve_is_apply_subst_of_the_flattened_bindings(pairs, x):
    binds = {}
    for name, t in pairs:
        out = unify(Var(name), t, binds)
        binds = binds if out is None else out
    assert resolve(x, binds) == reference_apply_subst(x, _flattened(binds))


@given(terms)
def test_prop_ground_flag_means_no_variables(t):
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Struct):
            assert s.ground == (not term_vars(s))
            todo.extend(s.args)


# ground compound terms, drawn directly rather than filtered from `terms`
_ground_leaves = st.one_of(st.integers(min_value=-9, max_value=9).map(Int), st.just(NIL))


def _ground_compound(sub):
    return st.one_of(
        st.tuples(_functors, st.lists(sub, min_size=1, max_size=3)).map(
            lambda fa: Struct(fa[0], tuple(fa[1]))
        ),
        st.tuples(sub, sub).map(lambda p: Struct(".", p)),
    )


ground_structs = st.one_of(
    st.just(NIL),
    _ground_compound(st.recursive(_ground_leaves, _ground_compound, max_leaves=11)),
)


@given(ground_structs, _binds)
def test_prop_ground_terms_come_back_unchanged(t, binds):
    assert resolve(t, binds) is t
    assert apply_subst(t, binds) is t
    assert canonical(t) is t


@given(terms)
def test_prop_ground_flag_is_not_part_of_equality(t):
    assume(isinstance(t, Struct))
    twin = Struct(t.functor, t.args)
    object.__setattr__(twin, "ground", not t.ground)
    assert twin == t and hash(twin) == hash(t)


def _hash_model(t):
    """`t` with each compound term as a plain (functor, args) tuple: what
    the dataclass would hash, built without any hash a term keeps."""
    if isinstance(t, Struct):
        return t.functor, tuple(map(_hash_model, t.args))
    return t


def _rebuilt(t):
    """An equal copy of `t` that shares no compound term with it."""
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(map(_rebuilt, t.args)))
    return t


@given(terms, terms)
def test_prop_a_term_hashes_as_its_value_once_and_for_all(a, b):
    atom = Atom("p", (a, b))
    keyed = [x for x in (a, b) if isinstance(x, Struct)] + [atom]
    hashes = [hash(x) for x in keyed]
    assert hashes[:-1] == [hash(_hash_model(x)) for x in keyed[:-1]]
    assert hashes[-1] == hash(("p", (_hash_model(a), _hash_model(b))))
    # equal terms built apart hash alike, and keying a dict moves no hash
    twins = [_rebuilt(x) for x in keyed[:-1]] + [Atom("p", (_rebuilt(a), _rebuilt(b)))]
    table = dict.fromkeys(keyed)
    assert all(x in table for x in twins)
    assert [hash(x) for x in twins] == [hash(x) for x in keyed] == hashes


def _glued(left, op, right):
    """A symbolic operator between its operands, with a space before a
    right operand that starts with a minus sign: `Z--1` would read as
    the one token `--` in standard Prolog."""
    return f"{left}{op} {right}" if right.startswith("-") else f"{left}{op}{right}"


def reference_format_term(t, prec=700):
    """The recursive printer `format_term` replaced; its output is the spec."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Int):
        return str(t.value)
    if t.functor == "." and len(t.args) == 2:
        items = []
        while isinstance(t, Struct) and t.functor == "." and len(t.args) == 2:
            items.append(t.args[0])
            t = t.args[1]
        inner = ",".join(reference_format_term(i) for i in items)
        if t == NIL:
            return f"[{inner}]"
        return f"[{inner}|{reference_format_term(t)}]"
    if t.functor == "," and len(t.args) == 2:
        items = []
        while isinstance(t, Struct) and t.functor == "," and len(t.args) == 2:
            items.append(t.args[0])
            t = t.args[1]
        items.append(t)
        return f"({','.join(reference_format_term(i) for i in items)})"
    if t.functor in {"is", ">", "<", ">=", "=<", "=:=", "="} and len(t.args) == 2:
        s = f"{reference_format_term(t.args[0], 500)} {t.functor} {reference_format_term(t.args[1], 500)}"
        return s if prec >= 700 else f"({s})"
    if t.functor in {"+", "-"} and len(t.args) == 2:
        s = _glued(reference_format_term(t.args[0], 500), t.functor, reference_format_term(t.args[1], 400))
        return s if prec >= 500 else f"({s})"
    if t.functor in {"*", "//"} and len(t.args) == 2:
        s = _glued(reference_format_term(t.args[0], 400), t.functor, reference_format_term(t.args[1], 300))
        return s if prec >= 400 else f"({s})"
    if not t.args:
        return t.functor
    return f"{t.functor}({','.join(reference_format_term(a) for a in t.args)})"


_printed_functors = st.sampled_from(
    ["f", "g", "[]", ".", ",", "is", "=", ">", "=:=", "+", "-", "*", "//"]
)

printed_terms = st.recursive(
    st.one_of(
        _varnames.map(Var),
        st.integers(min_value=-9, max_value=9).map(Int),
        st.sampled_from([NIL, S("a")]),
    ),
    lambda sub: st.tuples(_printed_functors, st.lists(sub, min_size=1, max_size=3)).map(
        lambda fa: Struct(fa[0], tuple(fa[1]))
    ),
    max_leaves=14,
)


@given(printed_terms, st.sampled_from([300, 400, 500, 700]))
def test_prop_format_term_matches_recursive_reference(t, prec):
    assert format_term(t, prec) == reference_format_term(t, prec)
