"""Groundness and sharing patterns: lattice operations and text forms."""
import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from corpus import worst_sharing
from parpeval import (
    Atom,
    ExtendedAtom,
    GroundnessPattern,
    Int,
    SharingPattern,
    Struct,
    Var,
    parse_groundness,
    parse_pattern_file,
    parse_sharing,
)
from parpeval.engine import head_state
from parpeval.patterns import (
    PatternTable,
    SuccessPattern,
    format_groundness,
    format_sharing,
    groundness,
    independent_sharing,
    sharing,
    sharing_from_pairs,
)


def test_groundness_validates_positions():
    g = groundness(3, (1, 3))
    assert 1 in g and 2 not in g and 3 in g
    assert list(g) == [1, 3]
    with pytest.raises(ValueError):
        groundness(2, (3,))
    with pytest.raises(ValueError):
        groundness(2, (0,))


def test_equal_patterns_are_one_object_however_built():
    g = GroundnessPattern(3, frozenset({1, 3}))
    assert groundness(3, (3, 1)) is g
    assert parse_groundness("{3,1}", 3) is g
    s = SharingPattern(3, frozenset({(1, 2)}))
    assert sharing_from_pairs(3, [(2, 1), (3, 3)]) is s
    assert parse_sharing("<{1,2},{1,2},{3}>", 3) is s
    assert sharing(3, [{2, 1}]) is s
    assert copy.deepcopy(g) is g and pickle.loads(pickle.dumps(s)) is s


@pytest.mark.parametrize(
    "build",
    [
        lambda: GroundnessPattern(2, frozenset({3})),
        lambda: groundness(2, (0,)),
        lambda: parse_groundness("{1,3}", 2),
        lambda: SharingPattern(2, frozenset({(1, 3)})),
        lambda: SharingPattern(2, frozenset({(2, 1)})),
        lambda: SharingPattern(2, frozenset({(1, 1)})),
        lambda: sharing_from_pairs(2, [(3, 3)]),
    ],
    ids=["gr", "groundness", "parse_groundness", "sh", "sh-unordered", "sh-diagonal",
         "sharing_from_pairs"],
)
def test_an_invalid_pattern_raises_every_time_it_is_built(build):
    # a pattern is checked before it is interned, so none is kept
    for _ in range(3):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize("arity, ground", [(0, ()), (2, (2,)), (3, (1, 3)), (4, (1, 2, 3, 4))])
def test_a_groundness_pattern_hashes_as_its_value(arity, ground):
    assert hash(groundness(arity, ground)) == hash((arity, frozenset(ground)))


@pytest.mark.parametrize("arity, pairs", [(0, ()), (2, ((1, 2),)), (3, ((1, 2), (2, 3)))])
def test_a_sharing_pattern_hashes_as_its_value(arity, pairs):
    assert hash(sharing_from_pairs(arity, pairs)) == hash((arity, frozenset(pairs)))


def test_sharing_normalizes_but_is_not_transitive():
    # overlapping groups merge per position, not globally
    mu = sharing(3, [{1, 2}, {2, 3}])
    assert mu.groups == (
        frozenset({1, 2}),
        frozenset({1, 2, 3}),
        frozenset({2, 3}),
    )
    # positions 1 and 3 stay unlinked even though both touch 2
    assert (1, 3) not in mu.pairs


def test_sharing_reflexive_and_symmetric():
    mu = sharing(3, [{1, 3}])
    assert mu.groups[0] == frozenset({1, 3})
    assert mu.groups[2] == frozenset({1, 3})
    assert mu.groups[1] == frozenset({2})


def test_independent_and_worst():
    assert independent_sharing(3).groups == (
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    )
    assert worst_sharing(2).groups == (frozenset({1, 2}), frozenset({1, 2}))
    assert independent_sharing(3).pairs == frozenset()
    assert worst_sharing(3).pairs == frozenset({(1, 2), (1, 3), (2, 3)})


def test_pairs_round_trip():
    mu = sharing_from_pairs(4, [(1, 3), (2, 3)])
    assert mu.pairs == frozenset({(1, 3), (2, 3)})
    assert sharing_from_pairs(4, mu.pairs) == mu


def test_head_state_grounds_the_variables_of_ground_positions():
    atom = Atom("p", (Struct("f", (Var("X"), Var("Y"))), Var("Z"), Int(1)))
    free = independent_sharing(3)
    assert head_state(ExtendedAtom(atom, groundness(3, (1,)), free)).ground == {"X", "Y"}
    assert head_state(ExtendedAtom(atom, groundness(3, (1, 2)), free)).ground == {"X", "Y", "Z"}
    assert head_state(ExtendedAtom(atom, groundness(3, (3,)), free)).ground == set()


def test_head_state_links_variables_across_linked_positions():
    atom = Atom("p", (Var("X"), Struct("f", (Var("Y"), Var("X")))))
    linked = head_state(ExtendedAtom(atom, groundness(2), sharing(2, [{1, 2}])))
    assert linked.partners == {"X": {"Y"}, "Y": {"X"}}
    # independent positions contribute nothing, even with a repeated var
    assert head_state(ExtendedAtom(atom, groundness(2), independent_sharing(2))).partners == {}


def test_format_parse_groundness():
    assert format_groundness(groundness(3, (1, 3))) == "{1,3}"
    assert format_groundness(groundness(2)) == "{}"
    assert parse_groundness("{1,3}", 3) == groundness(3, (1, 3))
    assert parse_groundness("{}", 2) == groundness(2)
    with pytest.raises(ValueError):
        parse_groundness("{4}", 3)


def test_format_parse_sharing():
    mu = sharing(3, [{2, 3}])
    assert format_sharing(mu) == "<{1},{2,3},{2,3}>"
    assert parse_sharing("<{1},{2,3},{2,3}>", 3) == mu
    with pytest.raises(ValueError):
        parse_sharing("<{1},{2}>", 3)
    assert parse_sharing("<>", 0) == independent_sharing(0)


@pytest.mark.parametrize(
    "text",
    [
        "<{1},junk{2}>",  # text between groups
        "<{1}{2}>",  # no comma between groups
        "<{2},{1}>",  # group i lacks i
        "<{1},{}>",
        "<{1,2},{2}>",  # 2 in group 1, 1 not in group 2
    ],
)
def test_parse_sharing_refuses_malformed_groups(text):
    with pytest.raises(ValueError):
        parse_sharing(text, 2)


def test_pattern_table_round_trip():
    table = PatternTable()
    key = ("append", 3, groundness(3, (1,)), independent_sharing(3))
    row = SuccessPattern(groundness(3, (1,)), sharing(3, [{1, 3}, {2, 3}]))
    table.put(key, row)
    text = table.format()
    assert "append/3" in text
    parsed, entries = parse_pattern_file(text)
    assert parsed.get(key) == row and entries == []


# ---------------------------------------------------------------------------
# property tests

arity = 4
positions = st.frozensets(st.integers(min_value=1, max_value=arity))
grounds = positions.map(lambda p: groundness(arity, p))
sharings = st.lists(
    st.frozensets(st.integers(min_value=1, max_value=arity), min_size=2, max_size=3),
    max_size=3,
).map(lambda gs: sharing(arity, gs))


@given(grounds)
def test_prop_groundness_text_round_trip(g):
    assert parse_groundness(format_groundness(g), arity) == g


@given(sharings)
def test_prop_sharing_text_round_trip(mu):
    assert parse_sharing(format_sharing(mu), arity) == mu


@given(sharings)
def test_prop_sharing_pairs_round_trip(mu):
    assert sharing_from_pairs(arity, mu.pairs) == mu


def reference_sharing(arity, groups):
    """The group-based builder the pair form replaced: per position, the
    positions it may share with, itself included."""
    sets = [set() for _ in range(arity)]
    for g in groups:
        g = set(g)
        for i in g:
            sets[i - 1] |= g
    for i in range(arity):
        sets[i].add(i + 1)
    return tuple(frozenset(s) for s in sets)


def reference_text(groups):
    return "<" + ",".join("{" + ",".join(map(str, sorted(g))) + "}" for g in groups) + ">"


def _group_lists(n):
    return st.lists(st.frozensets(st.integers(min_value=1, max_value=n), max_size=n), max_size=4)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n), _group_lists(n), _group_lists(n))
))
def test_prop_pair_form_matches_the_group_reference(case):
    n, groups, others = case
    mu, ref = sharing(n, groups), reference_sharing(n, groups)
    assert format_sharing(mu) == reference_text(ref)
    positions = range(1, n + 1)
    assert [[mu.shares(i, j) for j in positions] for i in positions] == [
        [j in ref[i - 1] for j in positions] for i in positions
    ]
    # equal exactly when the reference is; equal patterns hash alike,
    # also when built from the position pairs the reference's groups hold
    nu = sharing(n, others)
    assert (mu == nu) == (ref == reference_sharing(n, others))
    same = sharing(n, [{i, j} for i in positions for j in ref[i - 1]])
    for other in [nu] * (mu == nu) + [same]:
        assert other == mu and hash(other) == hash(mu)
