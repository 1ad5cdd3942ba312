"""Groundness and sharing descriptions of predicate arguments.

A groundness pattern is the set of argument positions (1-based) known to be
bound to ground terms.  A sharing pattern is the set of position pairs that
may share a variable; it is deliberately not transitive, since "1 shares
with 2" and "2 shares with 3" do not imply a variable common to 1 and 3.

Patterns are interned: building one returns the one instance for its
value, so the memo, the success tables and the residual names, all keyed
by patterns, compare them by identity first.  A pattern is validated
before it is interned, so an invalid one raises every time it is built.
The intern tables start empty and hold every distinct pattern the
process builds, for the life of the process; a program has few of them
(a pattern of arity n is one of at most 2^n groundness values and
2^(n(n-1)/2) sharing values).  Equality and hashing are by value, so
sets and dicts of patterns behave as if they were not interned.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

_GROUNDNESS: dict[tuple[int, frozenset[int]], GroundnessPattern] = {}
_SHARING: dict[tuple[int, frozenset[tuple[int, int]]], SharingPattern] = {}


@dataclass(frozen=True, init=False)
class GroundnessPattern:
    arity: int
    ground: frozenset[int]
    #: the ground positions in increasing order
    positions: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __new__(cls, arity: int, ground: frozenset[int]) -> GroundnessPattern:
        key = (arity, ground)
        self = _GROUNDNESS.get(key)
        if self is None:
            bad = [i for i in ground if not 1 <= i <= arity]
            if bad:
                raise ValueError(f"positions {bad} out of range for arity {arity}")
            self = object.__new__(cls)
            self.__dict__.update(
                arity=arity, ground=ground, positions=tuple(sorted(ground)), _hash=hash(key)
            )
            _GROUNDNESS[key] = self
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return GroundnessPattern, (self.arity, self.ground)

    def __contains__(self, i: int) -> bool:
        return i in self.ground

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions)

    def __repr__(self) -> str:
        return format_groundness(self)


def groundness(arity: int, positions: Iterable[int] = ()) -> GroundnessPattern:
    return GroundnessPattern(arity, frozenset(positions))


@dataclass(frozen=True, init=False)
class SharingPattern:
    arity: int
    #: the unordered position pairs (i<j) the pattern allows to share
    pairs: frozenset[tuple[int, int]]

    def __new__(cls, arity: int, pairs: frozenset[tuple[int, int]]) -> SharingPattern:
        key = (arity, pairs)
        self = _SHARING.get(key)
        if self is None:
            bad = [p for p in pairs if not 1 <= p[0] < p[1] <= arity]
            if bad:
                raise ValueError(f"pairs {bad} are not (i, j) with 1 <= i < j <= {arity}")
            self = object.__new__(cls)
            self.__dict__.update(arity=arity, pairs=pairs, _hash=hash(key))
            _SHARING[key] = self
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return SharingPattern, (self.arity, self.pairs)

    @cached_property
    def groups(self) -> tuple[frozenset[int], ...]:
        """Per position, the positions it may share with, itself included."""
        sets = [{i} for i in range(1, self.arity + 1)]
        for i, j in self.pairs:
            sets[i - 1].add(j)
            sets[j - 1].add(i)
        return tuple(map(frozenset, sets))

    def shares(self, i: int, j: int) -> bool:
        return i == j or (min(i, j), max(i, j)) in self.pairs

    def __repr__(self) -> str:
        return format_sharing(self)


def sharing(arity: int, groups: Iterable[Iterable[int]] = ()) -> SharingPattern:
    """Build a sharing pattern from may-share position groups."""
    return sharing_from_pairs(
        arity, [(i, j) for g in map(set, groups) for i in g for j in g if i <= j]
    )


def independent_sharing(arity: int) -> SharingPattern:
    return sharing(arity)


def sharing_from_pairs(arity: int, pairs: Iterable[tuple[int, int]]) -> SharingPattern:
    """The pattern letting the positions of each pair share; a pair (i, i)
    only checks that i is in range."""
    out = set()
    for i, j in pairs:
        if not (1 <= i <= arity and 1 <= j <= arity):
            bad = [k for k in {i, j} if not 1 <= k <= arity]
            raise ValueError(f"positions {bad} out of range for arity {arity}")
        if i != j:
            out.add((i, j) if i < j else (j, i))
    return SharingPattern(arity, frozenset(out))


# ---------------------------------------------------------------------------
# textual form
#
#   gr {1,3}        groundness positions
#   sh <{1},{2,3},{2,3}>   per-position share groups

_SET = r"\{[\d,\s]*\}"
_SET_RE = re.compile(_SET)
_SHARING_RE = re.compile(rf"<\s*(?:{_SET}\s*(?:,\s*{_SET}\s*)*)?>")


def format_groundness(p: GroundnessPattern) -> str:
    return "{" + ",".join(map(str, p.positions)) + "}"


def format_sharing(s: SharingPattern) -> str:
    inner = ",".join(
        "{" + ",".join(str(j) for j in sorted(g)) + "}" for g in s.groups
    )
    return f"<{inner}>"


def _parse_set(text: str) -> frozenset[int]:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"expected a {{..}} set, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    return frozenset(int(p) for p in inner.split(","))


def parse_groundness(text: str, arity: int) -> GroundnessPattern:
    return GroundnessPattern(arity, _parse_set(text))


def parse_sharing(text: str, arity: int) -> SharingPattern:
    """Read per-position may-share groups `<{..},..>`: group i must hold
    i, and j in group i must go with i in group j."""
    text = text.strip()
    if not _SHARING_RE.fullmatch(text):
        raise ValueError(f"expected a <{{..}},..> sharing pattern, got {text!r}")
    sets = [_parse_set(m.group(0)) for m in _SET_RE.finditer(text)]
    if len(sets) != arity:
        raise ValueError(f"expected {arity} share groups, got {len(sets)}")
    out = sharing_from_pairs(arity, [(i, j) for i, g in enumerate(sets, start=1) for j in g])
    if out.groups != tuple(sets):  # the groups of a pattern hold both
        raise ValueError(
            f"share groups of {text!r} must hold their own positions and mirror each other"
        )
    return out


# ---------------------------------------------------------------------------
# pattern tables

PatternKey = tuple[str, int, GroundnessPattern, SharingPattern]


@dataclass(frozen=True)
class SuccessPattern:
    ground: GroundnessPattern
    share: SharingPattern


class PatternTable:
    """Success patterns per (pred, arity, call groundness, call sharing)."""

    def __init__(self) -> None:
        self.rows: dict[PatternKey, SuccessPattern] = {}

    def put(self, key: PatternKey, success: SuccessPattern) -> None:
        self.rows[key] = success

    def get(self, key: PatternKey) -> SuccessPattern | None:
        return self.rows.get(key)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[PatternKey, SuccessPattern]]:
        return iter(sorted(self.rows.items(), key=lambda kv: _row_sort_key(kv[0])))

    def format(self) -> str:
        lines = []
        for key, success in self:
            pred, arity, gr, sh = key
            lines.append(
                f"{pred}/{arity} : gr {format_groundness(gr)} -> "
                f"{format_groundness(success.ground)} ; sh {format_sharing(sh)} -> "
                f"{format_sharing(success.share)}"
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _row_sort_key(key: PatternKey):
    pred, arity, gr, sh = key
    return (pred, arity, gr.positions, sorted(sorted(g) for g in sh.groups))


_ROW_RE = re.compile(
    r"^\s*(?P<pred>[a-z]\w*)\s*/\s*(?P<arity>\d+)\s*:\s*"
    r"gr\s*(?P<gr1>\{[^}]*\})\s*->\s*(?P<gr2>\{[^}]*\})\s*;\s*"
    r"sh\s*(?P<sh1><[^>]*>)\s*->\s*(?P<sh2><[^>]*>)\s*$"
)


def parse_pattern_row(line: str) -> tuple[PatternKey, SuccessPattern]:
    """The key and success pattern of one table row."""
    m = _ROW_RE.match(line)
    if m is None:
        raise ValueError(f"bad pattern table row {line!r}")
    arity = int(m.group("arity"))
    key = (
        m.group("pred"),
        arity,
        parse_groundness(m.group("gr1"), arity),
        parse_sharing(m.group("sh1"), arity),
    )
    return key, SuccessPattern(
        parse_groundness(m.group("gr2"), arity), parse_sharing(m.group("sh2"), arity)
    )
