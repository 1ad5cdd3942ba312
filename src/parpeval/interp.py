"""Sequential resolution engine used to validate residual programs.

Goals are solved depth-first, left to right, trying clauses in textual
order with the occurs check on.  Each solver compiles every clause once
into head and body templates over numbered variable slots, and every
predicate once into a record, which a goal template names by number:
whether it is a builtin, its clauses, and a switch table giving, for
each principal functor of a first argument, the clauses that can match
and how many are passed over before and after each.  A clause passed
over still costs its step, when it would have been tried, so step counts
are those of trying every clause.  A clause head is matched against the
call rather than renamed: a head variable's first occurrence takes the
caller's term, so it is never bound or occurs checked.  Every goal waits
as a template over slot values: a body goal's are its try's, a query
goal's are its arguments.  A user call's arguments are built only when
the call is selected and some clause defines it, its atom only for the
`on_call` hook.  A builtin runs from its slots, so arithmetic builds no
term, and only the target of `is/2` and the sides of `=/2` are built.
Arithmetic keeps its own stack, so a deep term bound to a slot at run
time needs no recursion.  A parallel group is a fork marker followed by
its sides' goals: it runs as a plain conjunction — the annotations claim
independence, they do not change sequential meaning.

The verification hooks read the bound term graph in place and are
given variable sets, not copies of terms.  At each user call the
`on_call` hook gets the call's per-position variable sets and may ask
for the call's exits, which then get the answer's sets; at each fork
the `on_par` hook gets the variables of each side.  The sets come from
one memo per solve, kept until a binding or an undo makes an entry
stale, so a term that holds one subterm many times costs its number of
distinct subterms.  Each hook also gets a callable that resolves its
atoms, for a violation's example text; the only other resolution is of
the final answers.  `verify` runs the equivalence, independence and
safeness checks together, in one pass over the queries.
"""

from __future__ import annotations

import operator
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import (TYPE_CHECKING, Callable, Collection, Iterator, NamedTuple, Optional,
                    Sequence, Union)

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
    BodyGoal,
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
    resolve,
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


VarSets = list[frozenset[str]]  # the free variables of each argument
Sides = tuple[tuple[Atom, ...], ...]
OnExit = Callable[[VarSets, Callable[[], Atom]], None]
OnCall = Callable[[tuple[str, int], VarSets, Callable[[], Atom]], Optional[OnExit]]
OnPar = Callable[[tuple[int, int], VarSets, Callable[[], Sides]], None]

_GROUND: frozenset[str] = frozenset()

_COMPARE = {">": operator.gt, "<": operator.lt, ">=": operator.ge, "=<": operator.le,
            "=:=": operator.eq}


class _Exit(NamedTuple):
    """Ends each body of a call whose exits a hook asked for."""

    hook: OnExit
    atom: Atom
    call_vars: VarSets


class _Fork(NamedTuple):
    """A `&` group in a compiled body, where the templates of its sides
    follow it in order.  It takes no step; it holds what the fork hook
    needs."""

    site: tuple[int, int]  # (clause number, body position)
    sides: tuple[tuple, ...]  # each side's templates
    slots: tuple[tuple[int, ...], ...]  # the slots each side holds


class _ClauseEntry:
    """A clause compiled once per solver into slot-numbered templates.

    The clause's variables are numbered in order of first occurrence,
    head first.  In a template a variable is its slot `int`, a non-ground
    Struct is a `(functor, *args)` tuple and a ground subterm is itself;
    a body goal is a `(predicate number, *args)` tuple, the number
    indexing the solver's `_Pred` records.  `head` and `body` keep the
    clause as written.
    """

    __slots__ = ("number", "head", "body", "key", "size", "fresh",
                 "head_t", "body_t", "slots_in")

    def __init__(self, number: int, clause: Clause, pred: Callable[[str, int], int]) -> None:
        self.number = number
        self.head = clause.head.args
        self.body = clause.body
        #: the principal functor of the first head argument, None if a
        #: variable (or no argument) lets any call through
        self.key = _principal(self.head[0]) if self.head else None
        slots: dict[str, int] = {}
        self.head_t = _template(clause.head.pred, self.head, slots)[1:]
        n_head = len(slots)
        self.body_t = compile_body(number, self.body, slots, pred)
        self.size = len(slots)
        names = list(slots)
        #: the body-only slots in name order, the order a try draws their
        #: fresh names in
        self.fresh = sorted(range(n_head, self.size), key=names.__getitem__)
        #: id of each tuple in the head template -> its slots in name order
        self.slots_in: dict[int, list[int]] = {}
        todo = [t for t in self.head_t if t.__class__ is tuple]
        while todo:
            t = todo.pop()
            self.slots_in[id(t)] = sorted(_slots_of((t,)), key=names.__getitem__)
            todo += [a for a in t[1:] if a.__class__ is tuple]


# the candidate clauses for one first argument, the number of clauses
# passed over before each, and the number passed over after the last
_Plan = tuple[tuple[_ClauseEntry, ...], tuple[int, ...], int]


def _plan(entries: Sequence[_ClauseEntry], key: Union[tuple[str, int], int, None]) -> _Plan:
    """The plan for a first argument of principal functor `key`, None
    standing for a functor that no first head argument has."""
    candidates, skips, passed = [], [], 0
    for entry in entries:
        if entry.key is None or entry.key == key:
            candidates.append(entry)
            skips.append(passed)
            passed = 0
        else:
            passed += 1
    return tuple(candidates), tuple(skips), passed


class _Pred:
    """A predicate as one solver calls it.  `switch` maps each principal
    functor of a first head argument to its plan; `other` serves any
    other functor and `every` an unbound first argument (or none)."""

    __slots__ = ("name", "key", "builtin", "entries", "switch", "other", "every")

    def __init__(self, name: str, arity: int) -> None:
        self.name = name
        self.key = (name, arity)
        self.builtin = self.key in BUILTIN_KEYS
        self.entries: list[_ClauseEntry] = []
        self.switch: dict[Union[tuple[str, int], int], _Plan] = {}
        self.other: _Plan = ((), (), 0)
        self.every: _Plan = ((), (), 0)

    def index(self) -> None:
        """Build the plans, once every clause is in `entries`."""
        entries = self.entries
        self.every = (tuple(entries), (0,) * len(entries), 0)
        self.other = _plan(entries, None)
        for entry in entries:
            if entry.key is not None and entry.key not in self.switch:
                self.switch[entry.key] = _plan(entries, entry.key)


def _principal(t: Term) -> Union[tuple[str, int], int, None]:
    """What a first argument is indexed by: `(functor, arity)`, an
    integer's value, or None for a variable."""
    if isinstance(t, Struct):
        return (t.functor, len(t.args))
    if isinstance(t, Int):
        return t.value
    return None


def _template(name: object, args: tuple[Term, ...], slots: dict[str, int]) -> tuple:
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


def compile_body(number: int, body: Sequence[BodyGoal], slots: dict[str, int],
                 pred: Callable[[str, int], int]) -> tuple:
    """The goal templates of body `body` of clause `number`, in running
    order: a `&` group is a `_Fork` followed by its sides' templates.  A
    goal template starts with the number `pred` gives its predicate.  A
    new variable gets the next slot."""
    out: list = []
    for pos, g in enumerate(body):
        if g.__class__ is ParGroup:
            sides = tuple([tuple([_template(pred(a.pred, len(a.args)), a.args, slots)
                                  for a in side]) for side in g.sides])
            out += (_Fork((number, pos), sides, tuple(map(_slots_of, sides))), *sum(sides, ()))
        else:
            out.append(_template(pred(g.pred, len(g.args)), g.args, slots))
    return tuple(out)


def _slots_of(templates: tuple) -> tuple[int, ...]:
    """The slots in `templates`, each once."""
    found: set[int] = set()
    todo = list(templates)
    while todo:
        for a in todo.pop()[1:]:
            if a.__class__ is int:
                found.add(a)
            elif a.__class__ is tuple:
                todo.append(a)
    return tuple(sorted(found))


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


def _operand_term(a: object, env: Sequence[Term]) -> Term:
    """Builtin operand `a` as a term: a slot's value, a template built
    from `env`, or `a` itself."""
    cls = a.__class__
    if cls is int:
        return env[a]
    if cls is tuple:
        return Struct(a[0], _build(a, env))
    return a


def _atoms(templates: tuple, env: Sequence[Term], preds: Sequence["_Pred"]) -> tuple[Atom, ...]:
    """The atoms of goal templates, built from `env`."""
    return tuple([Atom(preds[t[0]].name, _build(t, env)) for t in templates])


# the continuation: a linked list of (goal, env, rest) ending in (); a
# goal is a template over the slot values `env`, a _Fork over them or an
# _Exit (with no env), and a goal that fails leaves None in its place
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
        on_call: Optional[OnCall] = None,
        on_par: Optional[OnPar] = None,
    ) -> None:
        self.max_steps = max_steps
        self.on_call = on_call
        self.on_par = on_par
        # templates hold record numbers, not records: no reference cycles
        self._preds: list[_Pred] = []
        self._numbers: dict[tuple[str, int], int] = {}
        for ci, clause in enumerate(program.clauses):
            pred = self._preds[self._number(*clause.head.key)]
            pred.entries.append(_ClauseEntry(ci, clause, self._number))
        for pred in self._preds:
            pred.index()
        self._steps = 0
        self._binds: Subst = {}
        self._trail: list[str] = []
        # a choicepoint: `_try`'s arguments at a call's next candidate, or
        # the count of clauses after its last candidate
        self._choices: list[Union[tuple, int]] = []
        self._fresh: Iterator[str] = fresh_names(())
        # id of a non-ground Struct -> (it, its free variables, the trail
        # length they were collected at), in insertion order; holding the
        # Struct keeps its id from being reused
        self._memo: dict[int, tuple[Struct, frozenset[str], int]] = {}

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
        # each query argument is a slot of its own: a query term is not
        # compiled, so its depth costs no recursion
        env = [a for atom in query for a in atom.args]
        goals: Goals = ()
        end = len(env)
        for atom in reversed(query):
            goals = ((self._number(atom.pred, len(atom.args)), *range(end - len(atom.args), end)),
                     env, goals)
            end -= len(atom.args)
        while True:
            while goals:
                goals = self._step(goals)
            if goals is not None:
                answers.append({v: resolve(Var(v), self._binds) for v in qvars})
            if not self._choices:
                return answers
            goals = self._retry()

    # -- resolution

    def _number(self, name: str, arity: int) -> int:
        """The number of predicate `name/arity`'s record, made on first use."""
        number = self._numbers.get((name, arity))
        if number is None:
            number = self._numbers[(name, arity)] = len(self._preds)
            self._preds.append(_Pred(name, arity))
        return number

    def _charge(self, steps: int) -> None:
        """Take `steps` steps, one at a time as far as the budget goes."""
        self._steps += steps
        if self._steps > self.max_steps:
            self._steps = self.max_steps + 1
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

    def _vars(self, t: Term) -> frozenset[str]:
        """The free variables of `t` under the bindings; empty if ground.

        A Struct's remembered set is reused while none of its variables
        has been bound since; `_undo` drops the sets made after its mark.
        Each Struct is walked once per call, so a term that holds one
        subterm many times costs its distinct subterms.
        """
        binds = self._binds
        while t.__class__ is Var:
            bound = binds.get(t.name)
            if bound is None:
                return frozenset((t.name,))
            t = bound
        if t.__class__ is not Struct or t.ground:
            return _GROUND
        memo, stamp = self._memo, len(self._trail)
        todo = [t]
        while todo:
            s = todo[-1]
            hit = memo.get(id(s))
            if hit is not None and (hit[2] == stamp or binds.keys().isdisjoint(hit[1])):
                todo.pop()
                continue
            found, waiting = _GROUND, False
            for a in s.args:
                while a.__class__ is Var:
                    bound = binds.get(a.name)
                    if bound is None:
                        break
                    a = bound
                if a.__class__ is Var:
                    part = frozenset((a.name,))
                elif a.__class__ is Struct and not a.ground:
                    hit = memo.get(id(a))
                    if hit is None or (hit[2] != stamp and not binds.keys().isdisjoint(hit[1])):
                        todo.append(a)
                        waiting = True
                        continue
                    part = hit[1]
                else:
                    continue
                if part and part is not found:
                    found = found | part if found else part
            if waiting:
                continue  # its arguments first
            todo.pop()
            memo.pop(id(s), None)  # re-inserted, so that stamps stay in insertion order
            memo[id(s)] = (s, found, stamp)
        return memo[id(t)][1]

    def _step(self, goals: tuple) -> Goals:
        """Run the first goal: the continuation after it, or None if it fails."""
        goal, env, rest = goals
        if goal.__class__ is _Exit:
            atom = goal.atom
            # a position ground at the call is ground now
            vs = [s and self._vars(a) for s, a in zip(goal.call_vars, atom.args)]
            goal.hook(vs, lambda: resolve(atom, self._binds))
            return rest
        if goal.__class__ is _Fork:  # its sides' goals follow it
            if self.on_par is not None:
                self.on_par(goal.site,
                            [_GROUND.union(*[self._vars(env[i]) for i in s]) for s in goal.slots],
                            lambda: resolve(tuple([_atoms(side, env, self._preds)
                                                   for side in goal.sides]), self._binds))
            return rest
        pred = self._preds[goal[0]]
        if pred.builtin:
            self._charge(1)
            return rest if self._builtin(pred.name, goal[1], goal[2], env) else None
        if not pred.entries:
            return None
        args = _build(goal, env)
        exit_ = None
        if self.on_call is not None:
            atom = Atom(pred.name, args)
            vs = [self._vars(a) for a in args]
            hook = self.on_call(pred.key, vs, lambda: resolve(atom, self._binds))
            if hook is not None:
                exit_ = _Exit(hook, atom, vs)
        return self._try(args, exit_, self._switch(pred, args), rest, len(self._trail), 0)

    def _switch(self, pred: _Pred, args: tuple[Term, ...]) -> _Plan:
        """The plan of `pred` for a call with `args`, by the principal
        functor of the first argument as it is bound now."""
        key = _principal(walk(args[0], self._binds)) if args else None
        return pred.every if key is None else pred.switch.get(key, pred.other)

    def _retry(self) -> Goals:
        """Resume the newest choicepoint at its next candidate."""
        choice = self._choices.pop()
        if choice.__class__ is int:  # only passed-over clauses were left
            self._charge(choice)
            return None
        self._undo(choice[4])
        return self._try(*choice)

    def _try(self, args: tuple[Term, ...], exit_: Optional[_Exit], plan: _Plan, rest: Goals,
             mark: int, i: int) -> Goals:
        """Try the plan's candidate clauses for a call from the `i`th on.

        Each clause is one step: those passed over before a candidate are
        charged with it, and those after the last when it fails, or when
        its choicepoint is resumed, which then only charges them.  A
        candidate's head is matched against the call without being
        renamed (`_match`), and a head that matches gives its body-only
        slots fresh names and pushes its body's templates with the slots
        it filled.
        """
        candidates, skips, passed = plan
        n = len(candidates)
        while i < n:
            self._charge(skips[i] + 1)
            entry = candidates[i]
            i += 1
            env: list = [None] * entry.size
            if not self._match(entry, args, env):
                self._undo(mark)
                continue
            if i < n:
                self._choices.append((args, exit_, plan, rest, mark, i))
            elif passed:
                self._choices.append(passed)
            for j in entry.fresh:
                env[j] = Var(next(self._fresh))
            goals = rest
            if exit_ is not None:
                goals = (exit_, None, goals)
            for g in reversed(entry.body_t):
                goals = (g, env, goals)
            return goals
        if passed:
            self._charge(passed)
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
        unseen.  An unbound variable is bound to a ground head subterm
        with no occurs check.  Pairs are taken left to right, depth first,
        as in `unify_in_place`.
        """
        binds, trail = self._binds, self._trail
        todo = list(zip(reversed(entry.head_t), reversed(args)))
        while todo:
            h, c = todo.pop()
            if c.__class__ is Var:
                c = walk(c, binds)
            cls = h.__class__
            ccls = c.__class__
            if cls is int:
                value = env[h]
                if value is None:
                    env[h] = c
                elif not unify_in_place(value, c, binds, trail):
                    return False
            elif cls is tuple:
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
            elif ccls is Var:  # a ground head term from here on
                binds[c.name] = h
                trail.append(c.name)
            elif ccls is not cls:
                return False
            elif cls is Int:
                if c.value != h.value:
                    return False
            elif c.functor != h.functor or len(c.args) != len(h.args):
                return False
            else:
                todo.extend(zip(reversed(h.args), reversed(c.args)))
        return True

    # -- builtins

    def _builtin(self, pred: str, a: object, b: object, env: Sequence[Term]) -> bool:
        """Run the builtin `pred(a, b)`.

        An operand is a slot of `env`, a template over those slots, or a
        ground term.  Only the `is` target and the sides of `=` are
        built.
        """
        if pred == "is":
            value = self._eval(b, env)
            if value is None:
                return False
            target = _operand_term(a, env)
            if target.__class__ is Var:
                target = walk(target, self._binds)
                if target.__class__ is Var:  # the usual target: nothing to compare
                    self._binds[target.name] = Int(value)
                    self._trail.append(target.name)
                    return True
            return unify_in_place(target, Int(value), self._binds, self._trail)
        if pred == "=":
            return unify_in_place(_operand_term(a, env), _operand_term(b, env),
                                  self._binds, self._trail)
        lhs = self._eval(a, env)
        rhs = self._eval(b, env)
        if lhs is None or rhs is None:
            return False
        return _COMPARE[pred](lhs, rhs)

    def _eval(self, t: object, env: Sequence[Term]) -> Optional[int]:
        """Value of operand `t` of `_builtin`, None if it is not arithmetic.

        A template `(op, x, y)` is evaluated as the term `x op y` would
        be.  Operands evaluate left to right and in full, so an unbound
        variable anywhere raises even beside a non-arithmetic operand,
        whose own subterms are not evaluated.  The descent keeps its own
        stack, so a deep term built at run time is not bounded by
        Python's recursion limit.
        """
        binds = self._binds
        if t.__class__ is int:
            t = env[t]
        if t.__class__ is Var:
            t = walk(t, binds)
        if t.__class__ is Int:  # the usual operand needs no stack
            return t.value
        todo: list = [t]  # operands, and operators to apply
        values: list[Optional[int]] = []
        while todo:
            t = todo.pop()
            cls = t.__class__
            if cls is str:
                b = values.pop()
                a = values.pop()
                values.append(None if a is None or b is None else _ARITH[t](a, b))
                continue
            if cls is tuple:
                if len(t) == 3 and t[0] in _ARITH:
                    todo += [t[0], t[2], t[1]]
                else:
                    values.append(None)
                continue
            if cls is int:
                t = env[t]
                cls = t.__class__
            if cls is Var:
                t = walk(t, binds)
                cls = t.__class__
            if cls is Int:
                values.append(t.value)
            elif cls is Var:
                raise InstantiationError(f"arithmetic over unbound variable {t.name}")
            elif len(t.args) == 2 and t.functor in _ARITH:
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
        if vs[i]:
            for j in range(i + 1, len(vs)):
                if not vs[i].isdisjoint(vs[j]) and not sh.shares(i + 1, j + 1):
                    return i + 1, j + 1, vs[i] & vs[j]
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
    vs = [term_vars(t) for t in atom.args]
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

    def on_par(self, site: tuple[int, int], side_vars: VarSets,
               sides: Callable[[], Sides]) -> None:
        """Solver hook: test strict independence at a fork being entered.

        No two sides may share a single free variable: any aliasing or
        shared unbound position shows up as a variable of both sides
        under the current bindings.  A fork is one violation however many
        pairs share.  `sides` resolves them for the text of an example.
        """
        stats = self.sites.setdefault(site, CheckStats())
        stats.checked += 1
        shared = next((vi & vj for i, vi in enumerate(side_vars)
                       for vj in side_vars[i + 1:] if not vi.isdisjoint(vj)), None)
        if shared:
            stats.violations += 1
            if len(stats.examples) < 3:
                text = " & ".join(",".join(map(format_atom, side)) for side in sides())
                stats.examples.append("%s share %s" % (text, sorted(shared)[0]))


# ---------------------------------------------------------------------------
# safeness


@dataclass
class SafenessReport:
    rows: dict[tuple, CheckStats] = field(default_factory=dict)
    table: PatternTable = field(default_factory=PatternTable, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the table's rows grouped by predicate, for the call hook
        self._rows_for: dict[tuple[str, int], list[tuple[CheckStats, PatternKey, SuccessPattern]]] = {}
        for key, success in self.table:
            stats = self.rows.setdefault(key, CheckStats())
            self._rows_for.setdefault(key[:2], []).append((stats, key, success))

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

    def on_call(self, key: tuple[str, int], call_vars: VarSets,
                call: Callable[[], Atom]) -> Optional[OnExit]:
        """Solver hook: the hook checking each exit of the call against
        the success patterns of the rows whose call patterns the call
        honours; None when no row applies."""
        rows = self._rows_for.get(key)
        if not rows:
            return None
        applying = [
            (stats, success)
            for stats, (_, _, gr, sh), success in rows
            if _pattern_violation(call_vars, gr, sh) is None
        ]
        return partial(self._on_exit, applying) if applying else None

    @staticmethod
    def _on_exit(applying: list[tuple[CheckStats, SuccessPattern]], answer_vars: VarSets,
                 answer: Callable[[], Atom]) -> None:
        ground = not any(answer_vars)  # honours every success pattern
        for stats, success in applying:
            stats.checked += 1
            if ground:
                continue
            issue = _pattern_violation(answer_vars, success.ground, success.share)
            if issue is not None:
                stats.violations += 1
                if len(stats.examples) < 3:
                    stats.examples.append(f"answer {issue} in {format_atom(answer())}")


def _pattern_violation(
    vs: Sequence[set[str]], gr: GroundnessPattern, sh: SharingPattern
) -> Optional[str]:
    """The first claim of the patterns that an atom with the per-position
    variable sets `vs` breaks, if any.

    Extra instantiation is fine: a pattern over-approximates, so a table
    row applies to every call that honours its claims.
    """
    for i in gr.positions:
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
    - `indep`: at every fork entered, no two sides share a variable.
    - `safe`: every (call, answer) pair of the source honours `table`.

    Queries must instantiate the entry patterns; ill-patterned ones are
    rejected and run by no check, since nothing is claimed about them.
    A conforming query runs the source at most once, its `on_call`
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
    # one solver per program, reused for every query
    source_solver = residual_solver = None
    if run_eq or safe is not None:
        on_call = safe.on_call if safe is not None else None
        source_solver = Solver(source, max_steps, on_call=on_call)
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
    solver = Solver(program, max_steps=max_steps, on_call=report.on_call)
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
