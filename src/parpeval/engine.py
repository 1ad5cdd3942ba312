"""Pattern-extended unfolding engine.

The unit of work is an atom annotated with a groundness pattern and a
sharing pattern describing the instantiation state of its arguments at
call time.  Queries are sequences of such extended atoms.  The driver
builds a tree of derivations: each step either closes the selected atom
(variant of a memoised atom, embedding whistle, builtin, no matching
clause) or resolves it against every unifying clause, producing one
branch per clause.  A resolution step walks the instantiated body once,
left to right from the head's patterns: the walk gives each atom its
call patterns by propagation alone, and a split into two independent
segments, which a residual clause may run in parallel, is cut positions
in it.  Body atoms enter the walk as plain atoms: an atom's call
patterns are a function of the atom and the state reached at it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Protocol, Sequence

from .patterns import (
    GroundnessPattern,
    SharingPattern,
    SuccessPattern,
    format_groundness,
    format_sharing,
)
from .terms import (
    BUILTIN_KEYS,
    COMPARISON_PREDS,
    Atom,
    Clause,
    Int,
    Program,
    Struct,
    Subst,
    Var,
    apply_subst,
    canonical,
    format_term,
    mgu,
    msg,
    rename_apart,
    term_vars,
    warn_if_nonlinear,
)


class PELimitExceeded(Exception):
    """The driver gave up before closing the tree: its transition budget
    ran out, or a term grew too deep to handle."""


@dataclass(frozen=True)
class ExtendedAtom:
    atom: Atom
    gr: GroundnessPattern
    sh: SharingPattern

    def __post_init__(self) -> None:
        if self.gr.arity != self.atom.arity or self.sh.arity != self.atom.arity:
            raise ValueError("pattern arity does not match atom arity")

    @property
    def key(self) -> tuple[str, int]:
        return self.atom.key

    @cached_property
    def memo_key(self) -> tuple:
        """Equal exactly for variants under equal patterns; computed once
        per object, since `partially_evaluate` selects one object many
        times."""
        return canonical(self.atom), self.gr, self.sh


ExtendedQuery = tuple[ExtendedAtom, ...]


class SuccessOracle(Protocol):
    def success(
        self, pred: str, arity: int, gr: GroundnessPattern, sh: SharingPattern
    ) -> SuccessPattern: ...


# ---------------------------------------------------------------------------
# variable-level instantiation state


class PropState:
    """Ground variables and may-alias partners accumulated along a walk.

    It is all a body atom's call patterns are read from.  `partners` is
    a symmetric may-alias map: y is in `partners[x]` exactly when x is
    in `partners[y]`, for distinct x and y.  A variable in `ground` can
    never alias anything, but partners mentioning it are kept, since
    every reading subtracts `ground` first.
    """

    __slots__ = ("ground", "partners")

    def __init__(self) -> None:
        self.ground: set[str] = set()
        self.partners: dict[str, set[str]] = {}


def head_state(head: ExtendedAtom) -> PropState:
    """The state a selected atom's call patterns justify: its own
    patterns absorbed into the empty state, as an answer's would be."""
    state = PropState()
    _absorb(head.atom, SuccessPattern(head.gr, head.sh), state)
    return state


def _may_share(v1: set[str], v2: set[str], partners: dict[str, set[str]]) -> bool:
    """Whether free variable sets `v1` and `v2` may share: a variable in
    common, or two variables `partners` links."""
    if not v1.isdisjoint(v2):
        return True
    if partners:
        for x in v1:
            ys = partners.get(x)
            if ys is not None and not ys.isdisjoint(v2):
                return True
    return False


# ---------------------------------------------------------------------------
# resolution


def unfold_step(
    ea: ExtendedAtom, clause: Clause
) -> Optional[tuple[Subst, Clause, tuple[Atom, ...]]]:
    """Resolve `ea` against `clause`: (mgu, renamed clause, body).

    The body is the renamed body under the mgu, as plain atoms;
    a walk from the head state gives them their patterns.
    """
    rclause = rename_apart(clause, term_vars(ea.atom))
    sigma = mgu(ea.atom, rclause.head)
    if sigma is None:
        return None
    return sigma, rclause, tuple(apply_subst(b, sigma) for b in rclause.body_atoms())


# ---------------------------------------------------------------------------
# success propagation


def _refresh(atom: Atom, state: PropState) -> ExtendedAtom:
    """`atom` under the call patterns `state` justifies: a position is
    ground when all its variables are, and two positions may share when
    their free variables meet or `state` may alias them."""
    n = atom.arity
    free = [term_vars(t) - state.ground for t in atom.args]
    positions = frozenset(j for j in range(1, n + 1) if not free[j - 1])
    live = [(i, v) for i, v in enumerate(free, start=1) if v]
    pairs = frozenset(
        (i, j)
        for k, (i, vi) in enumerate(live)
        for j, vj in live[k + 1 :]
        if _may_share(vi, vj, state.partners)
    )
    return ExtendedAtom(atom, GroundnessPattern(n, positions), SharingPattern(n, pairs))


def _absorb(atom: Atom, success: SuccessPattern, state: PropState) -> None:
    """Fold an answer of `atom` matching `success` into the state, in
    place: the variables of its ground positions become ground, and each
    free variable of a position links every free variable of each
    position it may share with."""
    ground, partners = state.ground, state.partners
    for i in success.ground.ground:
        ground |= term_vars(atom.args[i - 1])
    for i, j in success.share.pairs:
        vj = term_vars(atom.args[j - 1]) - ground
        if not vj:
            continue
        for x in term_vars(atom.args[i - 1]) - ground:
            for y in vj:
                if x != y:
                    partners.setdefault(x, set()).add(y)
                    partners.setdefault(y, set()).add(x)


def _advance(atom: Atom, state: PropState, oracle: SuccessOracle) -> ExtendedAtom:
    """Refresh `atom` against `state`, look up its success pattern under
    the refreshed call pattern and absorb the answer into `state`, in
    place; the refreshed atom."""
    refreshed = _refresh(atom, state)
    _absorb(atom, oracle.success(atom.pred, atom.arity, refreshed.gr, refreshed.sh), state)
    return refreshed


def propagate_success(
    atoms: Sequence[Atom], oracle: SuccessOracle, state: PropState
) -> tuple[ExtendedQuery, PropState]:
    """Walk `atoms` left to right from `state`, in place: each is
    refreshed against the accumulated state, its success pattern is
    looked up under the refreshed call pattern, and the answer is
    absorbed before moving right.  The refreshed atoms and `state`."""
    return tuple(_advance(a, state, oracle) for a in atoms), state


# ---------------------------------------------------------------------------
# independent partitioning


Quad = tuple[ExtendedQuery, ExtendedQuery, ExtendedQuery, ExtendedQuery]


def _parallel_role(atom: Atom, ground: set[str]) -> int:
    """1 for a user-defined atom, 0 for a builtin a parallel segment may
    carry, -1 for one it may not, with the variables in `ground` ground."""
    # A parallel segment must do real work: at least one user-defined
    # atom.  Comparisons never go inside (they are cheap guards and
    # their failure must be observed before forking); is/2 only rides
    # along once its expression side is known ground; =/2 is free.
    key = atom.key
    if key not in BUILTIN_KEYS:
        return 1
    if key[0] in COMPARISON_PREDS or (key[0] == "is" and not term_vars(atom.args[1]) <= ground):
        return -1
    return 0


def _first_cut(rest: Sequence[Atom], fork: PropState) -> Optional[tuple[int, int]]:
    """Bounds (n2, mid) of the first pair of segments rest[:n2] and
    rest[n2:mid] that may run in parallel from `fork`: shortest tail
    first, then leftmost boundary.

    Each segment needs a user-defined atom and no atom of role -1.  The
    segments are independent when no atom of the first may share with
    an atom of the second at the fork (`_may_share` over the fork's
    partners); the head's own sharing is among those partners, as every
    state grows from `head_state`.  So one number per atom decides every
    candidate: `first[b]`, the leftmost atom before `b` that may share
    with it, or `b` itself.  rest[:n2] and rest[n2:mid] are independent
    exactly when `min(first[n2:mid]) >= n2`.
    """
    bad, user = [0], [0]  # prefix counts of role -1 and role 1 atoms
    for atom in rest:
        role = _parallel_role(atom, fork.ground)
        bad.append(bad[-1] + (role < 0))
        user.append(user[-1] + (role > 0))

    def admissible(a: int, b: int) -> bool:
        return bad[a] == bad[b] and user[a] < user[b]

    avars = [term_vars(atom) - fork.ground for atom in rest]
    first = [
        next((a for a in range(b) if _may_share(avars[a], vb, fork.partners)), b)
        for b, vb in enumerate(avars)
    ]
    for mid in range(len(rest), 1, -1):
        low, cut = mid, None  # low is min(first[n2:mid]) as n2 goes down
        for n2 in range(mid - 1, 0, -1):
            low = min(low, first[n2])
            if low >= n2 and admissible(0, n2) and admissible(n2, mid):
                cut = n2
        if cut is not None:
            return cut, mid
    return None


def _walk_body(
    head: ExtendedAtom, atoms: Sequence[Atom], oracle: SuccessOracle
) -> tuple[ExtendedQuery, tuple[int, ...]]:
    """One walk of the body `atoms` from the head state, and the cuts
    (n1, n2, mid) when atoms[n1:n2] and atoms[n2:mid] may run in
    parallel, or () when there is no split.

    Candidates are tried with the shortest prefix first, then the
    shortest tail (widening the parallel window), then the leftmost
    boundary between the segments; the first admissible split wins.
    The segments are chosen by the rest of the body read against the
    fork state.  The walk is extended up to each prefix tried, and goes
    on to the end of the body once a cut is found or none is; so each
    atom is refreshed, looked up and absorbed once, in body order.

    No state is copied or joined, and none need be.  At the fork no free
    variable occurs in both segments and no partner link joins them;
    `_absorb` grounds only an atom's own variables and links them only
    to each other, and `_refresh` reads only an atom's own variables and
    their partners.  So the left segment changes nothing the right one
    reads: each right atom gets the patterns a walk from the fork alone
    gives it, and the state after both is the join of the two.
    """
    state = head_state(head)
    walk: list[ExtendedAtom] = []
    cuts: tuple[int, ...] = ()
    # each parallel segment needs a user-defined atom
    if sum(a.key not in BUILTIN_KEYS for a in atoms) >= 2:
        for n1 in range(len(atoms) - 1):
            key = atoms[n1].key
            if key[0] in COMPARISON_PREDS and key in BUILTIN_KEYS:
                continue  # the first segment would start with a comparison
            walk.extend(_advance(a, state, oracle) for a in atoms[len(walk) : n1])
            cut = _first_cut(atoms[n1:], state)  # the prefix decides the rest
            if cut is not None:
                cuts = (n1, n1 + cut[0], n1 + cut[1])
                break
    walk.extend(_advance(a, state, oracle) for a in atoms[len(walk) :])
    return tuple(walk), cuts


def split_independent(
    head: ExtendedAtom, atoms: Sequence[Atom], oracle: SuccessOracle
) -> Optional[Quad]:
    """The split `_walk_body` finds, as (prefix, left, right, tail), or None."""
    walk, cuts = _walk_body(head, atoms, oracle)
    bounds = (0, *cuts, len(walk))
    return tuple(walk[a:b] for a, b in zip(bounds, bounds[1:])) if cuts else None


# ---------------------------------------------------------------------------
# variant and embedding checks


def _term_embeds(big, small, sub) -> bool:
    """Whether `small` embeds homeomorphically in `big`; `sub` decides a
    pair of their subterms."""
    if isinstance(small, Var) and isinstance(big, Var):
        return True
    if isinstance(big, Struct):
        # diving: the small term hides inside an argument
        if any(map(sub, big.args, [small] * len(big.args))):
            return True
    if isinstance(small, Int) and isinstance(big, Int):
        # integers act as one mutually embeddable constant family
        return True
    if (
        isinstance(small, Struct)
        and isinstance(big, Struct)
        and small.functor == big.functor
        and len(small.args) == len(big.args)
    ):
        return all(map(sub, big.args, small.args))
    return False


def embeds(big: ExtendedAtom, small: ExtendedAtom) -> bool:
    if big.gr != small.gr or big.sh != small.sh or big.key != small.key:
        return False
    # diving and coupling reach one pair of subterms along many paths, so
    # each pair is decided once, keyed by the ids of its two terms
    seen: dict[tuple[int, int], bool] = {}

    def sub(b, s) -> bool:
        out = seen.get((id(b), id(s)))
        if out is None:
            out = seen[id(b), id(s)] = _term_embeds(b, s, sub)
        return out

    return all(map(sub, big.atom.args, small.atom.args))


# ---------------------------------------------------------------------------
# the driver


@dataclass(eq=False, slots=True)
class Occurrence:
    """One queue slot; its identity ties resultant bodies to the
    transitions that close it, the last of which sets `callee`: the
    entity its residual call names, or None if it keeps its name."""

    ea: ExtendedAtom
    callee: Optional[ExtendedAtom] = None


class Memo:
    """The atoms `partially_evaluate` has unfolded, in insertion order.

    Variants are found by memo key.  `embeds` holds only between atoms
    of one predicate under equal patterns, so the whistle scans the
    bucket of (predicate, gr, sh) alone; a bucket keeps insertion order,
    so its first embedding entry is the first one in the whole memo.
    """

    def __init__(self) -> None:
        self.entries: list[ExtendedAtom] = []
        self._variants: dict[tuple, ExtendedAtom] = {}
        self._buckets: dict[tuple, list[ExtendedAtom]] = {}

    def variant(self, ea: ExtendedAtom) -> Optional[ExtendedAtom]:
        return self._variants.get(ea.memo_key)

    def embedding(self, ea: ExtendedAtom) -> Optional[ExtendedAtom]:
        """The oldest entry `ea` embeds, if any."""
        for m in self._buckets.get((ea.key, ea.gr, ea.sh), ()):
            if embeds(ea, m):
                return m
        return None

    def add(self, ea: ExtendedAtom) -> ExtendedAtom:
        self.entries.append(ea)
        self._variants[ea.memo_key] = ea
        self._buckets.setdefault((ea.key, ea.gr, ea.sh), []).append(ea)
        return ea


@dataclass(eq=False, slots=True)
class Transition:
    label: str  # u unfold | p parallel split | v variant | e embedding | n builtin | f no clause
    subject: Occurrence
    #: the transition before this one in its derivation; None at the root
    parent: Optional["Transition"]
    sigma: Optional[Subst] = None
    clause_index: Optional[int] = None
    head_instance: Optional[Atom] = None
    body: tuple[Occurrence, ...] = ()  # u and p: the resolvent's body, in order
    # p: the cuts of the walk, (n1, n2, mid); body[n1:n2] & body[n2:mid]
    cuts: tuple[int, ...] = ()
    general: Optional[ExtendedAtom] = None  # e: msg of the subject and its memo entry


@dataclass
class Trace:
    """The unfolding tree of `init`: derivations share every transition
    up to a branch point, and each is the path from the root to a leaf."""

    program: Program
    init: ExtendedAtom
    visited: list[Transition]  # each transition once, in first-visit order
    leaves: list[Transition]  # the last transition of each derivation
    memo: list[ExtendedAtom]

    def transitions(self) -> list[Transition]:
        return self.visited

    @property
    def derivations(self) -> list[list[Transition]]:
        out = []
        for t in self.leaves:
            path = []
            while t is not None:
                path.append(t)
                t = t.parent
            out.append(path[::-1])
        return out


def partially_evaluate(
    program: Program,
    init: ExtendedAtom,
    oracle: SuccessOracle,
    max_transitions: int = 1_000_000,
) -> Trace:
    """Explore the unfolding tree of `init` and record every step.

    Branch points push one continuation per unifying clause, visited in
    textual clause order.  New body atoms go to the front of the queue,
    so selection is leftmost, mirroring plain resolution.  The memo of
    already-unfolded atoms is global across branches.  A transition is
    visited when it is made, a branch when its continuation is popped.  A
    visit sets the `callee` of the occurrence it closes: the atom itself
    for `u`, `p` and `v`, the msg for `e`, and None for `n` and `f`.

    An atom that embeds a memo entry is closed by the whistle (`e`); the
    msg of the two becomes a new root, skipped if the memo has a variant
    of it by then, and unfolded without the whistle, which it may trip.
    Termination: atoms unfolded under the whistle form a bad sequence,
    finite by Kruskal's theorem; each root generalizes one of them, and
    an atom has finitely many generalizations up to variance.
    """
    memo = Memo()
    stack: list[tuple[tuple[Occurrence, ...], Optional[Transition]]] = [
        ((Occurrence(init),), None)
    ]
    visited: list[Transition] = []
    leaves: list[Transition] = []
    count = 0

    while stack:
        queue, last = stack.pop()
        if last is not None:
            visited.append(last)
            last.subject.callee = last.subject.ea
        elif memo.variant(queue[0].ea) is not None:
            continue  # a generalization whose variant is specialized already
        while queue:
            subject, rest = queue[0], queue[1:]
            ea = subject.ea
            count += 1
            if count > max_transitions:
                raise PELimitExceeded(
                    f"gave up after {max_transitions} transitions; "
                    f"selected atom was {ea.atom.pred}/{ea.atom.arity}"
                )
            label, entry = "v", memo.variant(ea)
            if entry is None and last is not None:  # a root skips the whistle
                label, entry = "e", memo.embedding(ea)
            if entry is None:
                label = "n" if ea.key in BUILTIN_KEYS else "f"
            if label == "f":  # a user atom: unfold it, or close it by failure
                warn_if_nonlinear(ea.atom, "selected atom")
                branches = list(_unfold(program, subject, last, oracle))
                if branches:
                    memo.add(ea)
                    stack.extend((b.body + rest, b) for b in reversed(branches))
                    break
            # the selected atom is closed: move on to the next one
            if label == "e":  # the generalization becomes a root, below every branch
                entry = ExtendedAtom(msg(ea.atom, entry.atom), ea.gr, ea.sh)
                stack.insert(0, ((Occurrence(entry),), None))
            subject.callee = entry if label == "e" else ea if label == "v" else None
            last = Transition(label, subject, last, general=entry if label == "e" else None)
            visited.append(last)
            queue = rest
        else:  # the queue ran out: `last` ends a derivation
            leaves.append(last)

    return Trace(program, init, visited, leaves, memo.entries)


def _unfold(
    program: Program,
    subject: Occurrence,
    parent: Optional[Transition],
    oracle: SuccessOracle,
) -> Iterator[Transition]:
    """One u or p transition per clause that resolves `subject`, in order."""
    ea = subject.ea
    for idx, clause in program.numbered_clauses_for(*ea.key):
        res = unfold_step(ea, clause)
        if res is None:
            continue
        sigma, _, body = res
        head_inst = apply_subst(ea.atom, sigma)
        head_ea = ExtendedAtom(head_inst, ea.gr, ea.sh)
        walk, cuts = _walk_body(head_ea, body, oracle)
        yield Transition(
            "p" if cuts else "u",
            subject,
            parent,
            sigma=sigma,
            clause_index=idx,
            head_instance=head_inst,
            body=tuple(map(Occurrence, walk)),
            cuts=cuts,
        )


# ---------------------------------------------------------------------------
# trace rendering


def format_subst(sigma: Subst) -> str:
    inner = ",".join(f"{v}->{format_term(t)}" for v, t in sorted(sigma.items()))
    return "{%s}" % inner


def format_transition(t: Transition) -> str:
    ea = t.subject.ea
    line = "%s %s/%d %s %s" % (
        t.label,
        ea.atom.pred,
        ea.atom.arity,
        format_groundness(ea.gr),
        format_sharing(ea.sh),
    )
    if t.label in ("u", "p") and t.sigma is not None:
        line += " " + format_subst(t.sigma)
    return line


def format_trace(trace: Trace) -> str:
    blocks = []
    for d in trace.derivations:
        blocks.append("\n".join(format_transition(t) for t in d))
    return "\n\n".join(blocks) + "\n"
