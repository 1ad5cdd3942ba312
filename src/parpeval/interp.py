"""Sequential resolution engine used to validate residual programs.

Goals are solved depth-first, left to right, trying clauses in textual
order with the occurs check on.  A clause head is matched against the
call rather than renamed: a head variable's first occurrence takes the
caller's term, so it is never bound or occurs checked.  Ground
resolutions the hooks ask for are remembered until backtracking undoes
a binding they read.  Parallel groups run as plain
conjunctions — the annotations claim independence, they do not change
sequential meaning — but entering one fires a hook so callers can
inspect the instantiation of both sides at fork time.  A second hook
reports every (call, answer) pair of user predicates, which is what the
safeness check consumes.  `verify` runs the equivalence, independence
and safeness checks together, in one pass over the queries.
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
    apply_subst,
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
    """A clause's head, body and variable data, worked out once per solver."""

    __slots__ = ("number", "head", "body", "body_only", "vars_in")

    def __init__(self, number: int, clause: Clause) -> None:
        self.number = number
        self.head = clause.head.args
        self.body = clause.body
        #: the variables a head match leaves unseen, in name order
        self.body_only = tuple(sorted(term_vars(clause.body) - term_vars(clause.head)))
        #: id of each non-ground Struct in the head -> its variables, in
        #: name order
        self.vars_in: dict[int, tuple[str, ...]] = {}
        todo = [t for t in self.head if isinstance(t, Struct) and not t.ground]
        while todo:
            t = todo.pop()
            self.vars_in[id(t)] = tuple(sorted(term_vars(t)))
            todo += [a for a in t.args if isinstance(a, Struct) and not a.ground]


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
        return Atom(atom.pred, tuple(self._resolve(a) for a in atom.args))

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
        if goal.key in BUILTIN_KEYS:
            self._tick()
            return rest if self._builtin(goal) else None
        alternatives = self._index.get(goal.key)
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

        Each try is one step.  The head is matched against the call
        without being renamed (`_match`), and only a head that matches
        has its body instantiated, its body-only variables under fresh
        names.  If clauses remain after the one that matched, the
        choicepoint goes back on the stack.
        """
        atom, alternatives = choice.atom, choice.alternatives
        while choice.next < len(alternatives):
            entry = alternatives[choice.next]
            choice.next += 1
            self._tick()
            env: Subst = {}
            if not self._match(entry, atom.args, env):
                self._undo(choice.mark)
                continue
            if choice.next < len(alternatives):
                self._choices.append(choice)
            for v in entry.body_only:
                env[v] = Var(next(self._fresh))
            goals = choice.rest
            if self.on_answer is not None:
                goals = (_Exit(choice.call_shot, atom), None, goals)
            ci, body = entry.number, entry.body
            for pos in range(len(body) - 1, -1, -1):
                goals = (apply_subst(body[pos], env), (ci, pos), goals)
            return goals
        return None

    def _match(self, entry: _ClauseEntry, args: tuple[Term, ...], env: Subst) -> bool:
        """Unify the call's `args` with the clause head, filling `env`.

        `env` maps each clause variable met so far to its value.  A
        variable's first occurrence takes the call's term as it is: a
        clause variable is new, so nothing is bound, trailed or occurs
        checked.  A later occurrence unifies with its value.  A
        non-ground head subterm against an unbound variable is
        instantiated from `env`, its unseen variables under fresh names,
        and bound; the occurs check is skipped only when every
        variable in it is unseen.
        """
        binds, trail = self._binds, self._trail
        todo = list(zip(reversed(entry.head), reversed(args)))
        while todo:
            h, c = todo.pop()
            if isinstance(c, Var):
                c = walk(c, binds)
            if isinstance(h, Var):
                value = env.get(h.name)
                if value is None:
                    env[h.name] = c
                elif not unify_in_place(value, c, binds, trail):
                    return False
            elif isinstance(h, Struct) and not h.ground:
                if isinstance(c, Struct):
                    if c.functor != h.functor or len(c.args) != len(h.args):
                        return False
                    todo.extend(zip(reversed(h.args), reversed(c.args)))
                elif isinstance(c, Var):
                    unseen = True
                    for v in entry.vars_in[id(h)]:
                        if v in env:
                            unseen = False
                        else:
                            env[v] = Var(next(self._fresh))
                    value = apply_subst(h, env)
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
    atom: Atom, sh: SharingPattern
) -> Optional[tuple[int, int, set[str]]]:
    """The lowest position pair (i, j) of `atom` with variables in common
    that `sh` does not let share, and those variables; None if none."""
    vs = [term_vars(t) for t in atom.args]
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            common = vs[i] & vs[j]
            if common and not sh.shares(i + 1, j + 1):
                return i + 1, j + 1, common
    return None


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
    for i in range(1, atom.arity + 1):
        ground = not term_vars(atom.args[i - 1])
        if i in gr and not ground:
            return f"position {i} must be ground"
        if i not in gr and ground:
            return f"position {i} must be non-ground"
    repeats = repeated_variables(atom)
    if repeats:
        i = min(repeats)
        return f"position {i} repeats {repeats[i]}"
    shared = _unlicensed_sharing(atom, sh)
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
        for (pred, arity, gr, sh), stats in sorted(
            self.rows.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2]))
        ):
            row = "row %s/%d %s %s" % (pred, arity, format_groundness(gr), format_sharing(sh))
            out += stats.lines(row)
        return out

    def on_answer(self, call: Atom, answer: Atom) -> None:
        """Solver hook: every row whose call patterns the call honours
        must have its success patterns honoured by the answer."""
        for key, success in self._rows_for.get(call.key, ()):
            _, _, gr, sh = key
            if _pattern_violation(call, gr, sh) is not None:
                continue
            stats = self.rows[key]
            stats.checked += 1
            issue = _pattern_violation(answer, success.ground, success.share)
            if issue is not None:
                stats.violations += 1
                if len(stats.examples) < 3:
                    stats.examples.append(f"answer {issue} in {format_atom(answer)}")


def _pattern_violation(atom: Atom, gr: GroundnessPattern, sh: SharingPattern) -> Optional[str]:
    """The first claim of the patterns that `atom` breaks, if any.

    Extra instantiation is fine: a pattern over-approximates, so a table
    row applies to every call that honours its claims.
    """
    for i in gr:
        if term_vars(atom.args[i - 1]):
            return f"position {i} not ground"
    shared = _unlicensed_sharing(atom, sh)
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
    compares answers only when `eq` is requested.
    """
    run_eq = "eq" in checks
    eq = EquivalenceReport()
    indep = None
    if "indep" in checks:
        indep = IndependenceReport({s: CheckStats() for s in residual.par_sites()})
    safe = SafenessReport(table=table) if "safe" in checks else None
    if run_eq and residual.guarded:
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
