"""Sequential resolution engine used to validate residual programs.

Goals are solved depth-first, left to right, trying clauses in textual
order with the occurs check on.  Each solver compiles every clause once
into head and body templates over numbered variable slots.  A clause
head is matched against the call rather than renamed: a head variable's
first occurrence takes the caller's term, so it is never bound or
occurs checked.  A clause whose first head argument has another
principal functor than the call's is passed over without a match, still
at the cost of its step.  The body of a clause that matches is built
from its templates.  Ground resolutions the hooks ask for are
remembered until backtracking undoes a binding they read.  Parallel
groups run as plain conjunctions — the annotations claim independence,
they do not change sequential meaning — but entering one fires a hook
so callers can inspect the instantiation of both sides at fork time.
A second hook reports every (call, answer) pair of user predicates,
which is what the safeness check consumes.  `verify` runs the
equivalence, independence and safeness checks together, in one pass
over the queries.
"""

from __future__ import annotations

import operator
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Optional, Sequence, Union

from .patterns import (
    GroundnessPattern,
    PatternKey,
    PatternTable,
    SharingPattern,
    SuccessPattern,
    format_groundness,
    format_sharing,
)
from .terms import (
    BUILTIN_KEYS,
    Atom,
    Clause,
    Int,
    ParGroup,
    Program,
    Struct,
    Subst,
    Term,
    Var,
    canonical,
    format_atom,
    format_term,
    fresh_names,
    repeated_variables,
    term_vars,
    unify_in_place,
    walk,
)

if TYPE_CHECKING:
    from .codegen import ResidualProgram

DEFAULT_STEP_LIMIT = 1_000_000


class SolverError(Exception):
    pass


class InstantiationError(SolverError):
    """Arithmetic over an unbound variable."""


class StepLimitExceeded(SolverError):
    """The step budget ran out; distinct from finite failure."""


Site = Optional[tuple[int, int]]
OnAnswer = Callable[[Atom, Atom], None]
OnPar = Callable[[Site, tuple[Atom, ...], tuple[Atom, ...]], None]

_COMPARE = {
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    "=<": lambda a, b: a <= b,
    "=:=": lambda a, b: a == b,
}


class _Choice:
    """Clauses still to try for one call, and what to restore first."""

    __slots__ = ("atom", "call_shot", "alternatives", "next", "rest", "mark")

    def __init__(self, atom: Atom, call_shot: Optional[Atom],
                 alternatives: list["_ClauseEntry"], rest: "Goals", mark: int) -> None:
        self.atom = atom
        self.call_shot = call_shot
        self.alternatives = alternatives
        self.next = 0
        self.rest = rest
        self.mark = mark


class _Exit:
    """Marks the end of a clause body: the call's answer hook fires here."""

    __slots__ = ("call", "atom")

    def __init__(self, call: Atom, atom: Atom) -> None:
        self.call = call
        self.atom = atom


class _ClauseEntry:
    """A clause compiled once per solver into slot-numbered templates.

    The clause's variables are numbered in order of first occurrence,
    head first.  In a template a variable is its slot `int`, a non-ground
    Struct is a `(functor, *args)` tuple and a ground subterm is itself;
    a body atom is a `(pred, *args)` tuple.  `head` and `body` keep the
    clause as written.
    """

    __slots__ = ("number", "head", "body", "key", "size", "fresh",
                 "head_t", "body_t", "slots_in")

    def __init__(self, number: int, clause: Clause) -> None:
        self.number = number
        self.head = clause.head.args
        self.body = clause.body
        #: the principal functor of the first head argument, None if a
        #: variable (or no argument) lets any call through
        self.key = _principal(self.head[0]) if self.head else None
        slots: dict[str, int] = {}
        self.head_t = _template(clause.head.pred, self.head, slots)[1:]
        n_head = len(slots)
        self.body_t = tuple(
            ParGroup(tuple([_template(a.pred, a.args, slots) for a in g.left]),
                     tuple([_template(a.pred, a.args, slots) for a in g.right]))
            if g.__class__ is ParGroup else _template(g.pred, g.args, slots)
            for g in self.body
        )
        self.size = len(slots)
        names = list(slots)
        #: the body-only slots in name order, the order a try draws their
        #: fresh names in
        self.fresh = sorted(range(n_head, self.size), key=names.__getitem__)
        #: id of each tuple in the head template -> its slots in name order
        self.slots_in: dict[int, list[int]] = {}
        for t in self.head_t:
            if t.__class__ is tuple:
                _collect_slots(t, names, self.slots_in)


def _principal(t: Term) -> Union[tuple[str, int], int, None]:
    """What a first argument is indexed by: `(functor, arity)`, an
    integer's value, or None for a variable."""
    if isinstance(t, Struct):
        return (t.functor, len(t.args))
    if isinstance(t, Int):
        return t.value
    return None


def _template(name: str, args: tuple[Term, ...], slots: dict[str, int]) -> tuple:
    """`(name, *args)`, each variable replaced by its slot and each
    non-ground Struct by its own template; a new variable gets the next
    slot."""
    out: list = [name]
    for a in args:
        if a.__class__ is Var:
            slot = slots.get(a.name)
            if slot is None:
                slot = slots[a.name] = len(slots)
            a = slot
        elif a.__class__ is Struct and not a.ground:
            a = _template(a.functor, a.args, slots)
        out.append(a)
    return tuple(out)


def _collect_slots(t: tuple, names: list[str], out: dict[int, list[int]]) -> set[int]:
    """The slots in template `t`, recording them in name order for `t`
    and each tuple in it."""
    found: set[int] = set()
    for a in t[1:]:
        if a.__class__ is int:
            found.add(a)
        elif a.__class__ is tuple:
            found |= _collect_slots(a, names, out)
    out[id(t)] = sorted(found, key=names.__getitem__)
    return found


def _build(t: tuple, env: list) -> tuple:
    """The arguments of template `t`, each slot's value taken from `env`."""
    out = []
    for a in t[1:]:
        cls = a.__class__
        if cls is int:
            a = env[a]
        elif cls is tuple:
            a = Struct(a[0], _build(a, env))
        out.append(a)
    return tuple(out)


# the continuation: a linked list of (goal, site, rest) ending in (); a
# goal that fails leaves None in its place
Goals = Optional[tuple]


class Solver:
    """Depth-first, left-to-right SLD resolution with the occurs check.

    A solve keeps one binding store and a trail of the variables bound
    in it; backtracking pops the trail back to the mark saved in a
    choicepoint.  Goals wait in a linked continuation and open
    alternatives on an explicit choicepoint stack, so derivation length
    is not bounded by Python's recursion limit.  Clause variables never
    enter the store, so a solve names the ones it instantiates from one
    `fresh_names` generator over the query's variables.
    """

    def __init__(
        self,
        program: Program,
        max_steps: int = DEFAULT_STEP_LIMIT,
        on_answer: Optional[OnAnswer] = None,
        on_par: Optional[OnPar] = None,
    ) -> None:
        self.max_steps = max_steps
        self.on_answer = on_answer
        self.on_par = on_par
        self._index: dict[tuple[str, int], list[_ClauseEntry]] = {}
        for ci, clause in enumerate(program.clauses):
            self._index.setdefault(clause.head.key, []).append(_ClauseEntry(ci, clause))
        self._steps = 0
        self._binds: Subst = {}
        self._trail: list[str] = []
        self._choices: list[_Choice] = []
        self._fresh: Iterator[str] = fresh_names(())
        # id of a non-ground Struct -> (it, its ground resolution, the
        # trail length the resolution was made at), in insertion order;
        # holding the Struct keeps its id from being reused
        self._memo: dict[int, tuple[Struct, Struct, int]] = {}

    def solve(self, query: Sequence[Atom]) -> list[Subst]:
        """All answers, restricted to the query's variables, fully resolved."""
        qvars = sorted(term_vars(tuple(query)))
        self._steps = 0
        self._binds = {}
        self._trail = []
        self._choices = []
        self._fresh = fresh_names(set(qvars))
        self._memo = {}
        answers: list[Subst] = []
        goals: Goals = ()
        for atom in reversed(query):
            goals = (atom, None, goals)
        while True:
            while goals:
                goals = self._step(goals)
            if goals is not None:
                answers.append({v: self._resolve(Var(v)) for v in qvars})
            if not self._choices:
                return answers
            goals = self._retry()

    # -- resolution

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise StepLimitExceeded(f"exceeded {self.max_steps} resolution steps")

    def _undo(self, mark: int) -> None:
        trail, binds = self._trail, self._binds
        while len(trail) > mark:
            del binds[trail.pop()]
        # stamps never decrease in insertion order, so the entries made
        # after the mark are the newest ones
        memo = self._memo
        while memo:
            key = next(reversed(memo))
            if memo[key][2] <= mark:
                break
            del memo[key]

    def _resolve(self, t: Term) -> Term:
        """`resolve(t, binds)`, remembering the ground resolutions made.

        Adding bindings cannot change a ground resolution; only an undo
        can, and `_undo` drops the entries stamped after its mark.
        """
        binds = self._binds
        if isinstance(t, Var):
            t = walk(t, binds)
        if not isinstance(t, Struct) or t.ground:
            return t
        memo = self._memo
        hit = memo.get(id(t))
        if hit is not None:
            return hit[1]
        stamp = len(self._trail)
        frames: list[tuple[Struct, list[Term]]] = [(t, [])]
        while True:
            s, done = frames[-1]
            if len(done) < len(s.args):
                a = s.args[len(done)]
                if isinstance(a, Var):
                    a = walk(a, binds)
                if isinstance(a, Struct) and not a.ground:
                    hit = memo.get(id(a))
                    if hit is None:
                        frames.append((a, []))
                        continue
                    a = hit[1]
                done.append(a)
                continue
            frames.pop()
            out = Struct(s.functor, tuple(done))
            if out.ground:
                memo[id(s)] = (s, out, stamp)
            if not frames:
                return out
            frames[-1][1].append(out)

    def _resolve_atom(self, atom: Atom) -> Atom:
        return Atom(atom.pred, tuple([self._resolve(a) for a in atom.args]))

    def _step(self, goals: tuple) -> Goals:
        """Run the first goal: the continuation after it, or None if it fails."""
        goal, site, rest = goals
        if isinstance(goal, _Exit):
            self.on_answer(goal.call, self._resolve_atom(goal.atom))
            return rest
        if isinstance(goal, ParGroup):
            if self.on_par is not None:
                self.on_par(
                    site,
                    tuple(self._resolve_atom(a) for a in goal.left),
                    tuple(self._resolve_atom(a) for a in goal.right),
                )
            for a in reversed(goal.left + goal.right):
                rest = (a, site, rest)
            return rest
        key = goal.key
        if key in BUILTIN_KEYS:
            self._tick()
            return rest if self._builtin(goal) else None
        alternatives = self._index.get(key)
        if not alternatives:
            return None
        call_shot = self._resolve_atom(goal) if self.on_answer is not None else None
        return self._try(_Choice(goal, call_shot, alternatives, rest, len(self._trail)))

    def _retry(self) -> Goals:
        """Resume the newest choicepoint at its next clause."""
        choice = self._choices.pop()
        self._undo(choice.mark)
        return self._try(choice)

    def _try(self, choice: _Choice) -> Goals:
        """Try the choice's clauses in order from `choice.next`.

        Each try is one step.  A clause whose first head argument has
        another principal functor than the call's is passed over there
        and then: its match would fail on that argument before binding
        anything or drawing a fresh name.  Any other head is matched
        against the call without being renamed (`_match`), and only a
        head that matches has its body built from the templates, its
        body-only variables under fresh names.  If clauses remain after
        the one that matched, the choicepoint goes back on the stack.
        """
        atom, alternatives = choice.atom, choice.alternatives
        args = atom.args
        key = None
        if args:
            first = args[0]
            if isinstance(first, Var):
                first = walk(first, self._binds)
            key = _principal(first)
        n = len(alternatives)
        while choice.next < n:
            entry = alternatives[choice.next]
            choice.next += 1
            self._tick()
            if key is not None and entry.key is not None and entry.key != key:
                continue  # the first argument cannot match: nothing to undo
            env: list = [None] * entry.size
            if not self._match(entry, args, env):
                self._undo(choice.mark)
                continue
            if choice.next < n:
                self._choices.append(choice)
            for i in entry.fresh:
                env[i] = Var(next(self._fresh))
            goals = choice.rest
            if self.on_answer is not None:
                goals = (_Exit(choice.call_shot, atom), None, goals)
            ci, body = entry.number, entry.body_t
            for pos in range(len(body) - 1, -1, -1):
                g = body[pos]
                if g.__class__ is ParGroup:
                    g = ParGroup(tuple([Atom(a[0], _build(a, env)) for a in g.left]),
                                 tuple([Atom(a[0], _build(a, env)) for a in g.right]))
                else:
                    g = Atom(g[0], _build(g, env))
                goals = (g, (ci, pos), goals)
            return goals
        return None

    def _match(self, entry: _ClauseEntry, args: tuple[Term, ...], env: list) -> bool:
        """Unify the call's `args` with the head template, filling `env`.

        `env` holds the value of each clause variable's slot, None until
        met.  A variable's first occurrence takes the call's term as it
        is: a clause variable is new, so nothing is bound, trailed or
        occurs checked.  A later occurrence unifies with its value.  A
        non-ground head subterm against an unbound variable is built
        from `env`, its unseen variables under fresh names, and bound;
        the occurs check is skipped only when every variable in it is
        unseen.
        """
        binds, trail = self._binds, self._trail
        todo = list(zip(reversed(entry.head_t), reversed(args)))
        while todo:
            h, c = todo.pop()
            if c.__class__ is Var:
                c = walk(c, binds)
            cls = h.__class__
            if cls is int:
                value = env[h]
                if value is None:
                    env[h] = c
                elif not unify_in_place(value, c, binds, trail):
                    return False
            elif cls is tuple:
                ccls = c.__class__
                if ccls is Struct:
                    if c.functor != h[0] or len(c.args) != len(h) - 1:
                        return False
                    todo.extend(zip(reversed(h[1:]), reversed(c.args)))
                elif ccls is Var:
                    unseen = True
                    for v in entry.slots_in[id(h)]:
                        if env[v] is None:
                            env[v] = Var(next(self._fresh))
                        else:
                            unseen = False
                    value = Struct(h[0], _build(h, env))
                    if unseen:
                        binds[c.name] = value
                        trail.append(c.name)
                    elif not unify_in_place(c, value, binds, trail):
                        return False
                else:
                    return False
            elif not unify_in_place(h, c, binds, trail):
                return False
        return True

    # -- builtins

    def _builtin(self, atom: Atom) -> bool:
        pred = atom.pred
        if pred == "is":
            value = self._eval(atom.args[1])
            if value is None:
                return False
            return unify_in_place(atom.args[0], Int(value), self._binds, self._trail)
        if pred == "=":
            return unify_in_place(atom.args[0], atom.args[1], self._binds, self._trail)
        lhs = self._eval(atom.args[0])
        rhs = self._eval(atom.args[1])
        if lhs is None or rhs is None:
            return False
        return _COMPARE[pred](lhs, rhs)

    def _eval(self, t: Term) -> Optional[int]:
        """Value of an arithmetic term, None if it is not arithmetic.

        Operands evaluate left to right and in full, so an unbound
        variable anywhere raises even beside a non-arithmetic operand.
        """
        todo: list[Union[Term, str]] = [t]  # subterms, and operators to apply
        values: list[Optional[int]] = []
        while todo:
            t = todo.pop()
            if isinstance(t, str):
                b = values.pop()
                a = values.pop()
                values.append(None if a is None or b is None else _ARITH[t](a, b))
                continue
            t = walk(t, self._binds)
            if isinstance(t, Int):
                values.append(t.value)
            elif isinstance(t, Var):
                raise InstantiationError(f"arithmetic over unbound variable {t.name}")
            elif isinstance(t, Struct) and len(t.args) == 2 and t.functor in _ARITH:
                todo += [t.functor, t.args[1], t.args[0]]
            else:
                values.append(None)  # not arithmetic: the goal just fails
        return values[0]


def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise SolverError("integer division by zero")
    return a // b if (a < 0) == (b < 0) else -(-a // b)  # ISO: truncates toward zero


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "//": _int_div}


# ---------------------------------------------------------------------------
# answer comparison


def answer_key(qvars: Sequence[str], answer: Subst) -> str:
    shape = canonical(tuple(answer[v] for v in qvars))
    return ",".join(format_term(t) for t in shape)


def answer_multiset(
    program: Program, query: Sequence[Atom], max_steps: int = DEFAULT_STEP_LIMIT
) -> Counter:
    return _answer_counts(Solver(program, max_steps), query)


def _answer_counts(solver: Solver, query: Sequence[Atom]) -> Counter:
    qvars = sorted(term_vars(tuple(query)))
    return Counter(answer_key(qvars, a) for a in solver.solve(query))


# ---------------------------------------------------------------------------
# query validation


def _unlicensed_sharing(
    vs: Sequence[set[str]], sh: SharingPattern
) -> Optional[tuple[int, int, set[str]]]:
    """The lowest position pair (i, j) whose variable sets `vs` have
    variables in common that `sh` does not let share, and those
    variables; None if none."""
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            common = vs[i] & vs[j]
            if common and not sh.shares(i + 1, j + 1):
                return i + 1, j + 1, common
    return None


def _position_vars(atom: Atom) -> list[set[str]]:
    return [term_vars(t) for t in atom.args]


def conformance_issue(
    atom: Atom, gr: GroundnessPattern, sh: SharingPattern
) -> Optional[str]:
    """Why `atom` is not a legitimate instance of the call patterns.

    Claimed positions must be ground, unclaimed ones must not be (the
    pattern says exactly what is known at call time), no argument may
    repeat a variable (no pattern describes aliasing within one
    argument), and any variable shared between two positions must be
    licensed by the sharing pattern.  Returns None when the query
    conforms.
    """
    if (gr.arity, sh.arity) != (atom.arity, atom.arity):
        return "arity mismatch"
    vs = _position_vars(atom)
    for i in range(1, atom.arity + 1):
        ground = not vs[i - 1]
        if i in gr and not ground:
            return f"position {i} must be ground"
        if i not in gr and ground:
            return f"position {i} must be non-ground"
    repeats = repeated_variables(atom)
    if repeats:
        i = min(repeats)
        return f"position {i} repeats {repeats[i]}"
    shared = _unlicensed_sharing(vs, sh)
    if shared is not None:
        i, j, common = shared
        return f"positions {i} and {j} share {sorted(common)[0]}"
    return None


# ---------------------------------------------------------------------------
# equivalence


@dataclass
class QueryOutcome:
    query: Atom
    ok: bool
    detail: str


@dataclass
class EquivalenceReport:
    outcomes: list[QueryOutcome] = field(default_factory=list)
    rejected: list[tuple[Atom, str]] = field(default_factory=list)
    accepted: int = 0  # queries that conform to the entry patterns

    @property
    def ok(self) -> bool:
        return self.accepted > 0 and all(o.ok for o in self.outcomes)

    def lines(self) -> list[str]:
        out = [
            "query %s %s%s"
            % (format_atom(o.query), "ok" if o.ok else "DIFFER", o.detail)
            for o in self.outcomes
        ]
        out += ["rejected %s (%s)" % (format_atom(a), why) for a, why in self.rejected]
        return out

    def compare(self, query: Atom, want: Counter, got: Counter) -> None:
        """Record the outcome of one query from both answer multisets."""
        if want == got:
            detail = " (%d answers)" % sum(want.values())
            self.outcomes.append(QueryOutcome(query, True, detail))
        else:
            missing = list((want - got).keys())[:3]
            extra = list((got - want).keys())[:3]
            self.outcomes.append(
                QueryOutcome(query, False, f" missing={missing} extra={extra}")
            )


@dataclass
class CheckStats:
    """What one check saw at one fork site or one table row."""

    checked: int = 0
    violations: int = 0
    examples: list[str] = field(default_factory=list)

    def lines(self, where: str) -> list[str]:
        """The count line for `where`, then each kept example, indented."""
        head = "%s checked %d violations %d" % (where, self.checked, self.violations)
        return [head, *("  " + x for x in self.examples)]


# ---------------------------------------------------------------------------
# independence


@dataclass
class IndependenceReport:
    sites: dict[tuple[int, int], CheckStats] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(s.violations == 0 for s in self.sites.values())

    def lines(self) -> list[str]:
        return [
            line
            for (ci, gi), s in sorted(self.sites.items())
            for line in s.lines("site <%d,%d>" % (ci, gi))
        ]

    def on_par(self, site: Site, left: tuple[Atom, ...], right: tuple[Atom, ...]) -> None:
        """Solver hook: test strict independence at a fork being entered.

        The two sides must not share a single free variable: any aliasing
        or shared unbound position shows up as a common variable once both
        sides are resolved against current bindings.
        """
        stats = self.sites.setdefault(site if site else (-1, -1), CheckStats())
        stats.checked += 1
        shared = term_vars(left) & term_vars(right)
        if shared:
            stats.violations += 1
            if len(stats.examples) < 3:
                stats.examples.append(
                    "%s & %s share %s"
                    % (
                        ",".join(map(format_atom, left)),
                        ",".join(map(format_atom, right)),
                        sorted(shared)[0],
                    )
                )


# ---------------------------------------------------------------------------
# safeness


@dataclass
class SafenessReport:
    rows: dict[tuple, CheckStats] = field(default_factory=dict)
    table: PatternTable = field(default_factory=PatternTable, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the table's rows grouped by predicate, for the answer hook
        self._rows_for: dict[tuple[str, int], list[tuple[PatternKey, SuccessPattern]]] = {}
        for key, success in self.table:
            self.rows.setdefault(key, CheckStats())
            self._rows_for.setdefault(key[:2], []).append((key, success))

    @property
    def ok(self) -> bool:
        return all(s.violations == 0 for s in self.rows.values())

    def lines(self) -> list[str]:
        out = []
        # in the table's order, which `__post_init__` filled `rows` in
        for (pred, arity, gr, sh), stats in self.rows.items():
            row = "row %s/%d %s %s" % (pred, arity, format_groundness(gr), format_sharing(sh))
            out += stats.lines(row)
        return out

    def on_answer(self, call: Atom, answer: Atom) -> None:
        """Solver hook: every row whose call patterns the call honours
        must have its success patterns honoured by the answer.

        Each side's variables are collected once per position: the
        call's for every hook call, the answer's only if a row applies.
        """
        rows = self._rows_for.get(call.key)
        if not rows:
            return
        call_vars = _position_vars(call)
        answer_vars = None
        for key, success in rows:
            _, _, gr, sh = key
            if _pattern_violation(call_vars, gr, sh) is not None:
                continue
            stats = self.rows[key]
            stats.checked += 1
            if answer_vars is None:
                answer_vars = _position_vars(answer)
            issue = _pattern_violation(answer_vars, success.ground, success.share)
            if issue is not None:
                stats.violations += 1
                if len(stats.examples) < 3:
                    stats.examples.append(f"answer {issue} in {format_atom(answer)}")


def _pattern_violation(
    vs: Sequence[set[str]], gr: GroundnessPattern, sh: SharingPattern
) -> Optional[str]:
    """The first claim of the patterns that an atom with the per-position
    variable sets `vs` breaks, if any.

    Extra instantiation is fine: a pattern over-approximates, so a table
    row applies to every call that honours its claims.
    """
    for i in gr:
        if vs[i - 1]:
            return f"position {i} not ground"
    shared = _unlicensed_sharing(vs, sh)
    if shared is not None:
        return "positions %d,%d share" % shared[:2]
    return None


# ---------------------------------------------------------------------------
# the verification pass

CHECKS = ("eq", "indep", "safe")

Report = Union[EquivalenceReport, IndependenceReport, SafenessReport]


def verify(
    source: Program,
    residual: "ResidualProgram",
    table: PatternTable,
    gr: GroundnessPattern,
    sh: SharingPattern,
    queries: Sequence[Atom],
    checks: Collection[str],
    max_steps: int = DEFAULT_STEP_LIMIT,
) -> dict[str, Report]:
    """Run the requested checks of `CHECKS` in one pass over the queries.

    - `eq`: source and residual give the same answer multiset.
    - `indep`: at every fork entered, the two sides share no variable.
    - `safe`: every (call, answer) pair of the source honours `table`.

    Queries must instantiate the entry patterns; ill-patterned ones are
    rejected and run by no check, since nothing is claimed about them.
    A conforming query runs the source at most once, its `on_answer`
    hook feeding the safeness rows, and the residual at most once, its
    `on_par` hook feeding the fork sites.  Returns the reports keyed by
    check name, in `CHECKS` order.  The `eq` report is always there: it
    lists the rejected queries, fails when no query conforms, and
    compares answers only when `eq` is requested.  A guarded residual
    raises `SolverError` when the residual would run (`eq` or `indep`):
    its forks are `concurrent_k/3` calls, which no hook sees.
    """
    run_eq = "eq" in checks
    eq = EquivalenceReport()
    indep = None
    if "indep" in checks:
        indep = IndependenceReport({s: CheckStats() for s in residual.par_sites()})
    safe = SafenessReport(table=table) if "safe" in checks else None
    if (run_eq or indep is not None) and residual.guarded:
        raise SolverError("guarded output is not interpretable here; verify the plain form")
    # one solver per program, reused for every query
    source_solver = residual_solver = None
    if run_eq or safe is not None:
        on_answer = safe.on_answer if safe is not None else None
        source_solver = Solver(source, max_steps, on_answer=on_answer)
    if run_eq or indep is not None:
        on_par = indep.on_par if indep is not None else None
        residual_solver = Solver(residual.program(), max_steps, on_par=on_par)
    for query in queries:
        issue = conformance_issue(query, gr, sh)
        if issue is not None:
            eq.rejected.append((query, issue))
            continue
        eq.accepted += 1
        if source_solver is not None:
            want = _answer_counts(source_solver, [query])
        if residual_solver is not None:
            got = _answer_counts(residual_solver, [residual.rename_query(query, gr, sh)])
        if run_eq:
            eq.compare(query, want, got)
    reports = {"eq": eq, "indep": indep, "safe": safe}
    return {name: report for name, report in reports.items() if report is not None}


def check_equivalence(
    source: Program,
    residual: "ResidualProgram",
    gr: GroundnessPattern,
    sh: SharingPattern,
    queries: Sequence[Atom],
    max_steps: int = DEFAULT_STEP_LIMIT,
) -> EquivalenceReport:
    """Compare answer multisets of source vs. residual on each query."""
    return verify(source, residual, PatternTable(), gr, sh, queries, ("eq",), max_steps)["eq"]


def check_independence(
    residual: "ResidualProgram",
    gr: GroundnessPattern,
    sh: SharingPattern,
    queries: Sequence[Atom],
    max_steps: int = DEFAULT_STEP_LIMIT,
) -> IndependenceReport:
    """Run the residual on each query and test every fork entered."""
    return verify(
        residual.source, residual, PatternTable(), gr, sh, queries, ("indep",), max_steps
    )["indep"]


def check_safeness(
    table: PatternTable,
    program: Program,
    queries: Sequence[Atom],
    max_steps: int = DEFAULT_STEP_LIMIT,
) -> SafenessReport:
    """Check that every observed (call, answer) pair honours the table.

    There is no entry pattern here to reject queries by, so every query
    runs.
    """
    report = SafenessReport(table=table)
    solver = Solver(program, max_steps=max_steps, on_answer=report.on_answer)
    for query in queries:
        solver.solve([query])
    return report


def parse_step_limit_env() -> int:
    raw = os.environ.get("PARPEVAL_DEPTH_CAP")
    if raw is None:
        return DEFAULT_STEP_LIMIT
    try:
        value = int(raw)
        if value <= 0:
            raise ValueError
    except ValueError:
        raise SolverError(f"PARPEVAL_DEPTH_CAP must be a positive integer, got {raw!r}")
    return value
