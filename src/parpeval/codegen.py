"""Residual program extraction and renaming.

Every unfolded extended atom becomes a fresh residual predicate whose
name encodes the call patterns.  Resultants come from the unfold and
split transitions of a trace.  A body atom calls the entity the driver
recorded as its occurrence's `callee`: the last transition that closed
it names it after its own extended atom (a variant hit or an
unfolding) or after the generalization its embedding roots; a builtin
or a failing atom keeps its name.  An entity's resultants come from the
first trace that unfolds it.  So a residual calls specialized
predicates, builtins and, by its source name, each atom closed by
failure (`p(X,f(X))` in `p__1_2(X,0) :- p__12_12(X,X), p(X,f(X)).`),
for which it defines no clause.

There is one residual program, and two ways to print it.
`format_residual` prints its clauses, `&` groups and all.
`format_guarded` prints it for a Prolog with threads: each `&` group
becomes a `concurrent_k/3` call that forks while a thread bound allows
and otherwise runs the source program, which the text carries in full.
Guarded output is text only; the interpreter and `verify` run the
plain residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .engine import ExtendedAtom, Occurrence, Trace
from .patterns import GroundnessPattern, SharingPattern
from .terms import (
    Atom,
    BodyGoal,
    Clause,
    ParGroup,
    Program,
    Term,
    format_clause,
    make_conjunction,
)


class CodegenError(Exception):
    pass


EntityKey = tuple  # ExtendedAtom.memo_key: (printed canonical atom, groundness, sharing)


def _mangle(pred: str, gr: GroundnessPattern, sh: SharingPattern) -> str:
    gr_part = "_".join(map(str, gr.positions))
    sh_part = "_".join("".join(str(j) for j in sorted(g)) for g in sh.groups)
    return f"{pred}_{gr_part}_{sh_part}"


class RenamingScheme:
    """Injective map from specialized atoms to residual predicate names.

    Keys are whole entities (atom shape plus both patterns), so two
    specializations that happen to mangle alike still get distinct
    names via a numeric suffix.  Only unfolded entities are named; a
    builtin call keeps its name.
    """

    def __init__(self, program: Optional[Program] = None) -> None:
        self._names: dict[EntityKey, str] = {}
        self._originals: dict[str, tuple[str, int]] = {}
        self._used: set[str] = set()
        if program is not None:
            self._used |= {pred for pred, _ in program.predicates()}

    def name(self, ea: ExtendedAtom) -> str:
        key = ea.memo_key
        if key not in self._names:
            name = self._names[key] = self._claim(_mangle(ea.atom.pred, ea.gr, ea.sh))
            self._originals[name] = ea.key
        return self._names[key]

    def _claim(self, base: str) -> str:
        name = base
        n = 1
        while name in self._used:
            n += 1
            name = f"{base}_{n}"
        self._used.add(name)
        return name

    def original_of(self, name: str) -> Optional[tuple[str, int]]:
        return self._originals.get(name)


@dataclass
class ResidualProgram:
    residual_clauses: tuple[Clause, ...]
    source: Program
    scheme: RenamingScheme
    entries: dict[tuple[str, int, GroundnessPattern, SharingPattern], str]

    def program(self) -> Program:
        return Program(self.residual_clauses)

    def rename_query(self, atom: Atom, gr: GroundnessPattern, sh: SharingPattern) -> Atom:
        name = self.entries.get((atom.pred, atom.arity, gr, sh))
        if name is None:
            raise CodegenError(
                f"no residual entry for {atom.pred}/{atom.arity} at the given patterns"
            )
        return Atom(name, atom.args)

    def par_sites(self) -> list[tuple[int, int]]:
        """(clause index, body position) of every parallel group."""
        return [
            (ci, gi)
            for ci, clause in enumerate(self.residual_clauses)
            for gi, goal in enumerate(clause.body)
            if isinstance(goal, ParGroup)
        ]


# ---------------------------------------------------------------------------
# extraction


def extract_residual(
    traces: Sequence[Trace], scheme: Optional[RenamingScheme] = None
) -> ResidualProgram:
    if not traces:
        raise CodegenError("nothing to extract")
    program = traces[0].program
    scheme = scheme or RenamingScheme(program)

    # an entity's resultants come from the first trace that unfolds it
    owner: dict[EntityKey, Trace] = {}
    clauses: list[Clause] = []
    # the entity each renamed call names, and the clause it is in
    calls: list[tuple[ExtendedAtom, int]] = []

    def rename(o: Occurrence) -> Atom:
        if o.callee is None:
            return o.ea.atom
        calls.append((o.callee, len(clauses)))
        return Atom(scheme.name(o.callee), o.ea.atom.args)

    for trace in traces:
        if trace.program is not program:
            raise CodegenError("traces come from different programs")
        for t in trace.transitions():
            if t.label not in "up" or owner.setdefault(t.subject.ea.memo_key, trace) is not trace:
                continue
            head = Atom(scheme.name(t.subject.ea), t.head_instance.args)
            body: list[BodyGoal] = [rename(o) for o in t.body]
            cuts = t.cuts
            if cuts:  # one group, a side between each two consecutive cuts
                sides = tuple(tuple(body[a:b]) for a, b in zip(cuts, cuts[1:]))
                body[cuts[0] : cuts[-1]] = [ParGroup(sides)]
            clauses.append(Clause(head, tuple(body)))

    # closedness: every call keeps its name (a builtin or an atom that
    # failed during unfolding) or names an entity some trace unfolded
    for ea, ci in calls:
        if ea.memo_key not in owner:
            raise CodegenError(
                f"dangling call {scheme.name(ea)}/{ea.atom.arity} in residual clause "
                f"{format_clause(clauses[ci])}"
            )

    # each predicate's clauses together, in the order of its first clause
    rank = {pred: i for i, pred in enumerate(dict.fromkeys(c.head.pred for c in clauses))}
    clauses.sort(key=lambda c: rank[c.head.pred])

    entries = {
        (t.init.atom.pred, t.init.atom.arity, t.init.gr, t.init.sh): scheme.name(t.init)
        for t in traces
        if t.init.memo_key in owner
    }

    return ResidualProgram(
        residual_clauses=tuple(clauses), source=program, scheme=scheme, entries=entries
    )


# ---------------------------------------------------------------------------
# output: plain, or with thread guards

_GUARD_TEXT = """\
:- dynamic current_threads/1.

current_threads(0).
max_threads({K}).

concurrent_k(A,B,C) :-
  current_threads(N), max_threads(K),!,
  (N < K -> M is N+1,
            retractall(current_threads(_)),assert(current_threads(M)),
            concurrent(2,[B,C],[]),
            current_threads(T), S is T-1,
            retractall(current_threads(_)),assert(current_threads(S))
         ;  call(A) ).
"""

#: the predicates `_GUARD_TEXT` defines, which a source program must not
_GUARD_PREDICATES = (("concurrent_k", 3), ("max_threads", 1), ("current_threads", 1))


def format_residual(rp: ResidualProgram) -> str:
    return "\n".join(format_clause(c) for c in rp.residual_clauses) + "\n"


def format_guarded(rp: ResidualProgram, max_threads: int) -> str:
    """Render the residual with each `&` group as a guarded concurrent_k/3 call.

    Every residual predicate from which the residual call graph reaches
    a fork gets a `_par` variant of its source name.  A `_par` clause
    calls the `_par` variant of an atom wherever one exists, and the
    source predicate otherwise; the sequential fallback of each group
    calls the source program, which follows in full, then the guard's
    own predicates.  A residual with no `&` group is its plain text.
    """
    if max_threads < 1:
        raise ValueError("max_threads must be at least 1")
    par_keys = {rp.residual_clauses[ci].head.key for ci, _ in rp.par_sites()}
    if not par_keys:
        return format_residual(rp)
    for pred, arity in _GUARD_PREDICATES:
        if rp.source.defines(pred, arity):
            raise CodegenError(
                f"guarded output reserves {pred}/{arity}, which the program defines"
            )
    callers: dict[tuple[str, int], set[tuple[str, int]]] = {}
    for c in rp.residual_clauses:
        for atom in c.body_atoms():
            callers.setdefault(atom.key, set()).add(c.head.key)
    todo = list(par_keys)
    while todo:
        for caller in callers.get(todo.pop(), ()):
            if caller not in par_keys:
                par_keys.add(caller)
                todo.append(caller)

    # guarded output holds the source program and the _par variants, so
    # names need only avoid the source's
    names = RenamingScheme(rp.source)
    par_names = {
        key: names._claim(rp.scheme.original_of(key[0])[0] + "_par") for key in sorted(par_keys)
    }

    def sequential_atom(atom: Atom) -> Atom:
        orig = rp.scheme.original_of(atom.pred)
        return atom if orig is None else Atom(orig[0], atom.args)

    def parallel_atom(atom: Atom) -> Atom:
        name = par_names.get(atom.key)
        return sequential_atom(atom) if name is None else Atom(name, atom.args)

    def conjunction(atoms: Sequence[Atom], rename: Callable[[Atom], Atom]) -> Term:
        return make_conjunction([rename(a).to_term() for a in atoms])

    par_clauses: list[str] = []
    for clause in rp.residual_clauses:
        if clause.head.key not in par_keys:
            continue
        body: list[Atom] = []
        for goal in clause.body:
            if isinstance(goal, ParGroup):
                # a residual group has the two sides the split search
                # makes, which `_GUARD_TEXT`'s concurrent_k/3 takes
                seq = conjunction(sum(goal.sides, ()), sequential_atom)
                sides = [conjunction(side, parallel_atom) for side in goal.sides]
                body.append(Atom("concurrent_k", (seq, *sides)))
            else:
                body.append(parallel_atom(goal))
        par_clauses.append(format_clause(Clause(parallel_atom(clause.head), tuple(body))))
    source = "\n".join(format_clause(c) for c in rp.source.clauses)
    return "\n".join(par_clauses) + "\n\n" + source + "\n\n" + _GUARD_TEXT.format(K=max_threads)
