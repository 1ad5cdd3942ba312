"""Residual program extraction and renaming.

Every unfolded extended atom becomes a fresh residual predicate whose
name encodes the call patterns.  Resultants come from the unfold and
split transitions of a trace.  The last transition that closed a body
atom names it: a variant hit or an unfolding after its own extended
atom, an embedding after the generalization its trace specializes; a
builtin or a failing atom keeps its name.  An entity's resultants come
from the first trace that unfolds it.  So a plain residual calls only
specialized predicates; the source program is only the sequential
fallback of guarded output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .engine import ExtendedAtom, Occurrence, Trace
from .patterns import GroundnessPattern, SharingPattern
from .terms import (
    BUILTIN_KEYS,
    Atom,
    BodyGoal,
    Clause,
    ParGroup,
    Program,
    format_clause,
    make_conjunction,
)


class CodegenError(Exception):
    pass


EntityKey = tuple  # ExtendedAtom.memo_key: (canonical atom, groundness, sharing)


def _mangle(pred: str, gr: GroundnessPattern, sh: SharingPattern) -> str:
    gr_part = "_".join(str(i) for i in gr)
    sh_part = "_".join("".join(str(j) for j in sorted(g)) for g in sh.groups)
    return f"{pred}_{gr_part}_{sh_part}"


class RenamingScheme:
    """Injective map from specialized atoms to residual predicate names.

    Keys are whole entities (atom shape plus both patterns), so two
    specializations that happen to mangle alike still get distinct
    names via a numeric suffix.  Builtins keep their names.
    """

    def __init__(self, program: Optional[Program] = None) -> None:
        self._names: dict[EntityKey, str] = {}
        self._originals: dict[str, tuple[str, int]] = {}
        self._used: set[str] = set()
        if program is not None:
            self._used |= {pred for pred, _ in program.predicates()}

    def name(self, ea: ExtendedAtom) -> str:
        if ea.key in BUILTIN_KEYS:
            return ea.atom.pred
        key = ea.memo_key
        hit = self._names.get(key)
        if hit is not None:
            return hit
        base = _mangle(ea.atom.pred, ea.gr, ea.sh)
        name = self._claim(base)
        self._names[key] = name
        self._originals[name] = ea.key
        return name

    def named(self, ea: ExtendedAtom) -> Optional[str]:
        """The name `name` gave `ea`'s entity, without minting one."""
        return self._names.get(ea.memo_key)

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
    failing: frozenset[tuple[str, int]]
    #: the sequential fallback of guarded output; a plain residual has none
    original_clauses: tuple[Clause, ...] = ()
    support_text: str = ""
    guarded: bool = False

    def program(self) -> Program:
        return Program(self.residual_clauses + self.original_clauses)

    def rename_query(self, atom: Atom, gr: GroundnessPattern, sh: SharingPattern) -> Atom:
        name = self.entries.get((atom.pred, atom.arity, gr, sh))
        if name is None:
            raise CodegenError(
                f"no residual entry for {atom.pred}/{atom.arity} at the given patterns"
            )
        return Atom(name, atom.args)

    def par_sites(self) -> list[tuple[int, int]]:
        """(clause index, body position) of every parallel group."""
        sites = []
        for ci, clause in enumerate(self.residual_clauses):
            for gi, goal in enumerate(clause.body):
                if isinstance(goal, ParGroup):
                    sites.append((ci, gi))
        return sites


# ---------------------------------------------------------------------------
# extraction


def extract_residual(
    traces: Union[Trace, Sequence[Trace]], scheme: Optional[RenamingScheme] = None
) -> ResidualProgram:
    if isinstance(traces, Trace):
        traces = [traces]
    if not traces:
        raise CodegenError("nothing to extract")
    program = traces[0].program
    scheme = scheme or RenamingScheme(program)

    # the entity an occurrence calls, by the last transition to close it
    callee: dict[Occurrence, Optional[ExtendedAtom]] = {}
    # an entity's resultants come from the first trace that unfolds it
    owner: dict[EntityKey, Trace] = {}
    failing: set[tuple[str, int]] = set()

    for trace in traces:
        if trace.program is not program:
            raise CodegenError("traces come from different programs")
        for t in trace.transitions():
            ea = t.subject.ea
            callee[t.subject] = ea if t.label in "vup" else t.general
            if t.label in "up":
                owner.setdefault(ea.memo_key, trace)
            elif t.label == "f":
                failing.add(ea.key)

    def rename(o: Occurrence) -> Atom:
        return Atom(scheme.name(callee[o]), o.ea.atom.args) if callee[o] else o.ea.atom

    clauses: list[Clause] = []
    for trace in traces:
        for t in trace.transitions():
            if t.label not in ("u", "p") or owner[t.subject.ea.memo_key] is not trace:
                continue
            head = Atom(scheme.name(t.subject.ea), t.head_instance.args)
            prefix, left, right, tail = t.quad
            body: list[BodyGoal] = [rename(o) for o in prefix]
            if left:
                body.append(
                    ParGroup(tuple(rename(o) for o in left), tuple(rename(o) for o in right))
                )
            body.extend(rename(o) for o in tail)
            clauses.append(Clause(head, tuple(body)))

    entries: dict[tuple[str, int, GroundnessPattern, SharingPattern], str] = {}
    for trace in traces:
        init = trace.init
        name = scheme.named(init)
        if name is not None:
            entries[(init.atom.pred, init.atom.arity, init.gr, init.sh)] = name

    residual = ResidualProgram(
        residual_clauses=tuple(clauses),
        source=program,
        scheme=scheme,
        entries=entries,
        failing=frozenset(failing),
    )
    _check_closedness(residual)
    return residual


def _check_closedness(rp: ResidualProgram) -> None:
    defined = {c.head.key for c in rp.residual_clauses}
    for clause in rp.residual_clauses:
        for atom in clause.body_atoms():
            key = atom.key
            if key in BUILTIN_KEYS or key in defined or key in rp.failing:
                continue
            raise CodegenError(
                f"dangling call {key[0]}/{key[1]} in residual clause {format_clause(clause)}"
            )


# ---------------------------------------------------------------------------
# output with thread guards

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


def add_thread_guards(rp: ResidualProgram, max_threads: int = 4) -> ResidualProgram:
    """Replace parallel groups by guarded concurrent_k/3 calls.

    Predicates whose residual definition forks get a `_par` variant of
    their original name; every other residual definition is dropped and
    its calls fall back to the untouched original program, which is
    included in full.  Programs with no parallel group pass through
    unchanged.
    """
    if max_threads < 1:
        raise ValueError("max_threads must be at least 1")
    par_keys = {
        c.head.key
        for c in rp.residual_clauses
        if any(isinstance(g, ParGroup) for g in c.body)
    }
    if not par_keys:
        return rp

    # guarded output keeps only the original program plus the _par
    # variants, so names need only avoid those (and the guard's own)
    names = RenamingScheme(rp.source)
    names._used.update(("concurrent_k", "max_threads", "current_threads"))
    par_names: dict[tuple[str, int], str] = {}
    for key in sorted(par_keys):
        orig = rp.scheme.original_of(key[0])
        if orig is None:
            raise CodegenError(f"no original predicate behind {key[0]}/{key[1]}")
        par_names[key] = names._claim(orig[0] + "_par")

    def sequential_atom(atom: Atom) -> Atom:
        orig = rp.scheme.original_of(atom.pred)
        if orig is None:
            return atom
        return Atom(orig[0], atom.args)

    def parallel_atom(atom: Atom) -> Atom:
        key = atom.key
        if key in par_names:
            return Atom(par_names[key], atom.args)
        return sequential_atom(atom)

    guarded: list[Clause] = []
    for clause in rp.residual_clauses:
        if clause.head.key not in par_keys:
            continue
        head = Atom(par_names[clause.head.key], clause.head.args)
        body: list[BodyGoal] = []
        for goal in clause.body:
            if isinstance(goal, ParGroup):
                seq = make_conjunction(
                    [sequential_atom(a).to_term() for a in goal.left + goal.right]
                )
                left = make_conjunction([parallel_atom(a).to_term() for a in goal.left])
                right = make_conjunction([parallel_atom(a).to_term() for a in goal.right])
                body.append(Atom("concurrent_k", (seq, left, right)))
            else:
                body.append(sequential_atom(goal))
        guarded.append(Clause(head, tuple(body)))

    entries = {}
    for ekey, name in rp.entries.items():
        pred, arity = ekey[0], ekey[1]
        entries[ekey] = par_names.get((name, arity), pred)

    return ResidualProgram(
        residual_clauses=tuple(guarded),
        original_clauses=rp.source.clauses,
        source=rp.source,
        scheme=rp.scheme,
        entries=entries,
        failing=rp.failing,
        support_text=_GUARD_TEXT.format(K=max_threads),
        guarded=True,
    )


def format_residual(rp: ResidualProgram) -> str:
    parts = []
    if rp.residual_clauses:
        parts.append("\n".join(format_clause(c) for c in rp.residual_clauses))
    if rp.original_clauses:
        parts.append("\n".join(format_clause(c) for c in rp.original_clauses))
    if rp.support_text:
        parts.append(rp.support_text.rstrip("\n"))
    return "\n\n".join(parts) + "\n"
