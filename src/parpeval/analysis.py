"""Call-pattern analysis: success patterns per predicate and call pattern.

For every (predicate, call groundness, call sharing) reached from the
entry points, the analyzer computes which argument positions are ground
on success and which may share.  All rows live in one success table,
`Analyzer.rows`: the rows of a pattern file come first and are never
recomputed, and the fixpoint adds the rest.  Builtins answer from one
module table of success models.  Computed rows start from the most
optimistic assumption (everything ground, nothing shared) and iterate
downward, each new row joined with the one before, until stable; the
result is a fixpoint of the joined transfer, which is sound because
every actual answer is reached by a finite derivation whose sub-answers
the previous iterate already bounds.
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


def _comparison_success(gr: GroundnessPattern, sh: SharingPattern) -> SuccessPattern:
    return SuccessPattern(gr, sh)


def _unify_success(gr: GroundnessPattern, sh: SharingPattern) -> SuccessPattern:
    if 1 in gr or 2 in gr:
        return SuccessPattern(
            GroundnessPattern(2, frozenset({1, 2})), independent_sharing(2)
        )
    return SuccessPattern(gr, sharing_from_pairs(2, sh.pairs | {(1, 2)}))


_BUILTINS: dict[
    tuple[str, int], Callable[[GroundnessPattern, SharingPattern], SuccessPattern]
] = {("is", 2): _is_success, ("=", 2): _unify_success}
_BUILTINS.update(((pred, 2), _comparison_success) for pred in COMPARISON_PREDS)


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

    `rows` is the one success table.  It starts as the override rows,
    so they win over the builtin model and are never recomputed: a
    fixpoint run only adds rows for keys that no lookup answers.  A
    lookup reads `rows`, then the builtin model, and then runs a
    fixpoint seeded at the requested key.  Predicates without clauses get the
    identity success pattern: they can only fail, and a pattern must
    cover every answer, of which there are none.
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

    def success(
        self, pred: str, arity: int, gr: GroundnessPattern, sh: SharingPattern
    ) -> SuccessPattern:
        key: PatternKey = (pred, arity, gr, sh)
        row = self._known(key, keep_undefined=True)
        if row is None:
            self._solve(key)
            row = self.rows.get(key)
        return row

    def _known(self, key: PatternKey, keep_undefined: bool) -> Optional[SuccessPattern]:
        """The lookup chain short of a fixpoint run; None when one is needed.

        `keep_undefined` stores an undefined predicate's identity row in
        `rows`, as a top-level request does and a callee lookup inside a
        fixpoint does not.
        """
        row = self.rows.get(key)
        if row is not None:
            return row
        pred, arity, gr, sh = key
        model = _BUILTINS.get((pred, arity))
        if model is not None:
            return model(gr, sh)
        if not self.program.defines(pred, arity):
            row = SuccessPattern(gr, sh)
            if keep_undefined:
                self.rows.put(key, row)
            return row
        return None

    def table(self) -> PatternTable:
        """A copy of `rows`, which later lookups leave as it is."""
        copy = PatternTable()
        copy.rows.update(self.rows.rows)
        return copy

    # -- fixpoint machinery

    def _solve(self, seed: PatternKey) -> None:
        assume: dict[PatternKey, SuccessPattern] = {}
        deps: dict[PatternKey, set[PatternKey]] = {}
        work: list[PatternKey] = []

        def ensure(key: PatternKey) -> SuccessPattern:
            if key not in assume:
                _, arity, _, _ = key
                assume[key] = SuccessPattern(
                    GroundnessPattern(arity, frozenset(range(1, arity + 1))),
                    independent_sharing(arity),
                )
                work.append(key)
            return assume[key]

        ensure(seed)
        guard = 0
        while work:
            guard += 1
            if guard > 100_000:
                raise AnalysisError("success-pattern fixpoint failed to converge")
            key = work.pop()
            new = self._transfer(key, assume, deps, ensure)
            if new != assume[key]:
                assume[key] = new
                for waiter in deps.get(key, ()):
                    if waiter not in work:
                        work.append(waiter)
        for key, row in assume.items():
            self.rows.put(key, row)

    def _transfer(
        self,
        key: PatternKey,
        assume: dict[PatternKey, SuccessPattern],
        deps: dict[PatternKey, set[PatternKey]],
        ensure: Callable[[PatternKey], SuccessPattern],
    ) -> SuccessPattern:
        pred, arity, gr, sh = key
        oracle = _FixpointOracle(self, key, deps, ensure)
        # met over the clauses; `_solve` runs only on defined keys, so there is one
        exit_ground = frozenset(range(1, arity + 1))
        exit_pairs: set[tuple[int, int]] = set()
        for clause in self.program.clauses_for(pred, arity):
            state = head_state(ExtendedAtom(clause.head, gr, sh))
            _, end = propagate_success(clause.body_atoms(), oracle, state)
            exit = _refresh(clause.head, end)
            exit_ground &= exit.gr.ground
            exit_pairs |= exit.sh.pairs
        # joined with the current assumption, so that it only ever weakens
        # and the iteration ends: the transfer is not monotone, since a
        # less instantiated call may succeed more ground
        old = assume[key]
        return SuccessPattern(
            GroundnessPattern(arity, (gr.ground | exit_ground) & old.ground.ground),
            sharing_from_pairs(arity, exit_pairs | old.share.pairs),
        )


class _FixpointOracle:
    """Success lookups for the clause bodies of `key` inside a fixpoint
    run: a callee without a final row gets its current assumption, and
    `key` is recorded as waiting on it."""

    def __init__(
        self,
        analyzer: Analyzer,
        key: PatternKey,
        deps: dict[PatternKey, set[PatternKey]],
        ensure: Callable[[PatternKey], SuccessPattern],
    ) -> None:
        self.analyzer = analyzer
        self.key = key
        self.deps = deps
        self.ensure = ensure

    def success(
        self, pred: str, arity: int, gr: GroundnessPattern, sh: SharingPattern
    ) -> SuccessPattern:
        inner: PatternKey = (pred, arity, gr, sh)
        row = self.analyzer._known(inner, keep_undefined=False)
        if row is not None:
            return row
        self.deps.setdefault(inner, set()).add(self.key)
        return self.ensure(inner)


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

