"""Call-pattern analysis: success patterns per predicate and call pattern.

For every (predicate, call groundness, call sharing) reached from the
entry points, the analyzer computes which argument positions are ground
on success and which may share.  `Analyzer.success` is the one lookup:
the specializer asks it for each body atom, and so does the fixpoint
for each atom of the clause bodies it walks.  All rows live in one
success table, `Analyzer.rows`: the rows of a pattern file come first
and are never recomputed, and the fixpoint adds the rest.  Builtins
answer from one module table of success models.  Computed rows start
from the most optimistic assumption (everything ground, nothing shared)
and iterate downward, each new row joined with the one before, until
stable; the result is a fixpoint of the joined transfer, which is sound
because every actual answer is reached by a finite derivation whose
sub-answers the previous iterate already bounds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .engine import ExtendedAtom, _refresh, head_state, propagate_success
from .patterns import (
    GroundnessPattern,
    PatternKey,
    PatternTable,
    SharingPattern,
    SuccessPattern,
    independent_sharing,
    parse_groundness,
    parse_pattern_row,
    parse_sharing,
    sharing_from_pairs,
)
from .terms import COMPARISON_PREDS, Program


class AnalysisError(Exception):
    pass


# ---------------------------------------------------------------------------
# builtin success model

def _is_success(gr: GroundnessPattern, sh: SharingPattern) -> SuccessPattern:
    # evaluating a ground expression grounds the left side; the left
    # side never stays aliased to anything after binding to an integer
    ground = frozenset(gr.ground | {1}) if 2 in gr else gr.ground
    pairs = {(i, j) for (i, j) in sh.pairs if 1 not in (i, j)}
    return SuccessPattern(
        GroundnessPattern(2, ground), sharing_from_pairs(2, pairs)
    )


def _unify_success(gr: GroundnessPattern, sh: SharingPattern) -> SuccessPattern:
    if 1 in gr or 2 in gr:
        return SuccessPattern(
            GroundnessPattern(2, frozenset({1, 2})), independent_sharing(2)
        )
    return SuccessPattern(gr, sharing_from_pairs(2, sh.pairs | {(1, 2)}))


_BUILTINS: dict[
    tuple[str, int], Callable[[GroundnessPattern, SharingPattern], SuccessPattern]
] = {("is", 2): _is_success, ("=", 2): _unify_success}
# a comparison succeeds at its call pattern: it binds nothing
_BUILTINS.update(((pred, 2), SuccessPattern) for pred in COMPARISON_PREDS)


# ---------------------------------------------------------------------------
# entry points


@dataclass(frozen=True)
class EntryPoint:
    pred: str
    arity: int
    gr: GroundnessPattern
    sh: SharingPattern

    @property
    def key(self) -> PatternKey:
        return (self.pred, self.arity, self.gr, self.sh)


# ---------------------------------------------------------------------------
# the analyzer


class Analyzer:
    """Success-pattern oracle backed by a demand-driven fixpoint.

    `success` is the one lookup, for the specializer and for the
    fixpoint's own clause walks alike.  It reads `rows`, the one success
    table, then the builtin model, then gives a predicate without
    clauses the identity row: it can only fail, and a pattern must
    cover every answer, of which there are none.  `rows` starts as the
    override rows, so they win over the builtin model and are never
    recomputed.  A defined key that no row answers seeds a fixpoint run
    when none is active; inside a run it is a callee of the key being
    walked, which waits on it and gets its current assumption.  The run
    stores its rows at the end, and only a lookup from outside a run
    stores an undefined predicate's identity row.
    """

    def __init__(
        self,
        program: Program,
        overrides: Iterable[tuple[PatternKey, SuccessPattern]] = (),
    ) -> None:
        self.program = program
        self.rows = PatternTable()
        for key, row in overrides:
            self.rows.put(key, row)
        # the state of the fixpoint run in progress; `_walking` is None
        # between runs
        self._assumed: dict[PatternKey, SuccessPattern] = {}
        self._waiters: dict[PatternKey, set[PatternKey]] = {}
        self._work: list[PatternKey] = []
        self._walking: Optional[PatternKey] = None

    def success(
        self, pred: str, arity: int, gr: GroundnessPattern, sh: SharingPattern
    ) -> SuccessPattern:
        key: PatternKey = (pred, arity, gr, sh)
        row = self.rows.get(key)
        if row is not None:
            return row
        model = _BUILTINS.get((pred, arity))
        if model is not None:
            return model(gr, sh)
        if not self.program.defines(pred, arity):
            row = SuccessPattern(gr, sh)
            if self._walking is None:
                self.rows.put(key, row)
            return row
        if self._walking is None:
            self._solve(key)
            return self.rows.get(key)
        self._waiters.setdefault(key, set()).add(self._walking)
        return self._assumption(key)

    def table(self) -> PatternTable:
        """A copy of `rows`, which later lookups leave as it is."""
        copy = PatternTable()
        copy.rows.update(self.rows.rows)
        return copy

    # -- fixpoint machinery

    def _assumption(self, key: PatternKey) -> SuccessPattern:
        """The run's current row for `key`, first the most optimistic one."""
        row = self._assumed.get(key)
        if row is None:
            _, arity, _, _ = key
            row = self._assumed[key] = SuccessPattern(
                GroundnessPattern(arity, frozenset(range(1, arity + 1))),
                independent_sharing(arity),
            )
            self._work.append(key)
        return row

    def _solve(self, seed: PatternKey) -> None:
        try:
            self._assumption(seed)
            guard = 0
            while self._work:
                guard += 1
                if guard > 100_000:
                    raise AnalysisError("success-pattern fixpoint failed to converge")
                self._walking = key = self._work.pop()
                new = self._transfer(key)
                if new != self._assumed[key]:
                    self._assumed[key] = new
                    for waiter in self._waiters.get(key, ()):
                        if waiter not in self._work:
                            self._work.append(waiter)
            for key, row in self._assumed.items():
                self.rows.put(key, row)
        finally:
            self._assumed, self._waiters, self._work = {}, {}, []
            self._walking = None

    def _transfer(self, key: PatternKey) -> SuccessPattern:
        pred, arity, gr, sh = key
        # met over the clauses; `_solve` runs only on defined keys, so there is one
        exit_ground = frozenset(range(1, arity + 1))
        exit_pairs: set[tuple[int, int]] = set()
        for clause in self.program.clauses_for(pred, arity):
            state = head_state(ExtendedAtom(clause.head, gr, sh))
            _, end = propagate_success(clause.body_atoms(), self, state)
            exit = _refresh(clause.head, end)
            exit_ground &= exit.gr.ground
            exit_pairs |= exit.sh.pairs
        # joined with the current assumption, so that it only ever weakens
        # and the iteration ends: the transfer is not monotone, since a
        # less instantiated call may succeed more ground
        old = self._assumed[key]
        return SuccessPattern(
            GroundnessPattern(arity, (gr.ground | exit_ground) & old.ground.ground),
            sharing_from_pairs(arity, exit_pairs | old.share.pairs),
        )


# ---------------------------------------------------------------------------
# pattern files: success rows plus entry declarations

_ENTRY_RE = re.compile(
    r"^entry\s+([a-z][A-Za-z0-9_]*)\s*/\s*(\d+)\s+gr\s*(\{[^}]*\})(?:\s+sh\s*(<.*>))?\s*$"
)


def _entry_from_match(m: "re.Match[str]") -> EntryPoint:
    pred, arity = m.group(1), int(m.group(2))
    gr = parse_groundness(m.group(3), arity)
    sh = parse_sharing(m.group(4), arity) if m.group(4) else independent_sharing(arity)
    return EntryPoint(pred, arity, gr, sh)


def parse_entry_spec(text: str) -> EntryPoint:
    """Parse an entry flag value like `qs/2 gr {1} sh <{1},{2}>`."""
    spec = text.strip()
    if not spec.startswith("entry"):
        spec = "entry " + spec
    m = _ENTRY_RE.match(spec)
    if not m:
        raise AnalysisError(f"bad entry spec {text!r}")
    try:
        return _entry_from_match(m)
    except ValueError as exc:
        raise AnalysisError(f"bad entry spec {text!r}: {exc}") from None


def parse_pattern_file(text: str) -> tuple[PatternTable, list[EntryPoint]]:
    """Parse a pattern file: success rows and `entry` lines, in any order.

    Success rows look like
        qs/2 : gr {1} -> {1,2} ; sh <{1},{2}> -> <{1},{2}>
    and entry lines like
        entry qs/2 gr {1} sh <{1},{2}>
    with the sharing part optional (all positions independent).
    """
    table = PatternTable()
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        m = _ENTRY_RE.match(line)
        try:
            if m:
                entries.append(_entry_from_match(m))
            else:
                table.put(*parse_pattern_row(line))
        except ValueError as exc:
            raise AnalysisError(f"line {lineno}: {exc}") from None
    return table, entries

