"""Terms, atoms, clauses and substitutions for definite logic programs.

Terms are variables, integers and compound terms; lists are sugar for the
'.'/2 constructor and the '[]' constant.  Substitutions are plain dicts from
variable names to terms; the exported `mgu` returns an idempotent one.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union


class NonlinearArgumentWarning(UserWarning):
    """A repeated variable inside a single argument term.

    Sharing patterns cannot describe aliasing created within one argument,
    so such atoms are flagged and then processed as if linear.
    """


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Int:
    value: int

    def __repr__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Struct:
    functor: str
    args: tuple[Term, ...] = ()

    def __repr__(self) -> str:
        return format_term(self)


Term = Union[Var, Int, Struct]

# predicates with fixed meaning; they never head a clause
COMPARISON_PREDS = frozenset({">", "<", ">=", "=<", "=:="})
BUILTIN_KEYS = frozenset(
    {("is", 2), ("=", 2)} | {(p, 2) for p in COMPARISON_PREDS}
)

NIL = Struct("[]")


def cons(head: Term, tail: Term) -> Struct:
    return Struct(".", (head, tail))


def make_list(items: Iterable[Term], tail: Term = NIL) -> Term:
    out = tail
    for item in reversed(list(items)):
        out = cons(item, out)
    return out


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def key(self) -> tuple[str, int]:
        return (self.pred, len(self.args))

    def to_term(self) -> "Struct":
        return Struct(self.pred, self.args)

    def __repr__(self) -> str:
        return format_atom(self)


@dataclass(frozen=True)
class SeqAtom:
    atom: Atom


@dataclass(frozen=True)
class ParGroup:
    left: tuple[Atom, ...]
    right: tuple[Atom, ...]


BodyGoal = Union[SeqAtom, ParGroup]


@dataclass(frozen=True)
class Clause:
    head: Atom
    body: tuple[BodyGoal, ...] = ()

    def body_atoms(self) -> tuple[Atom, ...]:
        out: list[Atom] = []
        for goal in self.body:
            if isinstance(goal, SeqAtom):
                out.append(goal.atom)
            else:
                out.extend(goal.left)
                out.extend(goal.right)
        return tuple(out)

    def __repr__(self) -> str:
        return format_clause(self)


@dataclass(frozen=True)
class Program:
    clauses: tuple[Clause, ...]

    def predicates(self) -> set[tuple[str, int]]:
        return {c.head.key for c in self.clauses}

    def clauses_for(self, pred: str, arity: int) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.head.key == (pred, arity))

    def defines(self, pred: str, arity: int) -> bool:
        return any(c.head.key == (pred, arity) for c in self.clauses)

    def __repr__(self) -> str:
        return format_program(self)


Subst = dict[str, Term]


# ---------------------------------------------------------------------------
# variables


def term_vars(x: object) -> set[str]:
    """Free variable names of a term, atom, clause or iterable of those."""
    out: set[str] = set()
    _collect_vars(x, out)
    return out


def _collect_vars(x: object, out: set[str]) -> None:
    if isinstance(x, Var):
        out.add(x.name)
    elif isinstance(x, Int):
        pass
    elif isinstance(x, Struct):
        for a in x.args:
            _collect_vars(a, out)
    elif isinstance(x, Atom):
        for a in x.args:
            _collect_vars(a, out)
    elif isinstance(x, SeqAtom):
        _collect_vars(x.atom, out)
    elif isinstance(x, ParGroup):
        for a in x.left + x.right:
            _collect_vars(a, out)
    elif isinstance(x, Clause):
        _collect_vars(x.head, out)
        for g in x.body:
            _collect_vars(g, out)
    elif isinstance(x, (list, tuple)):
        for item in x:
            _collect_vars(item, out)
    else:
        raise TypeError(f"cannot collect variables from {type(x).__name__}")


class _FreshNames:
    """Global source of fresh variable names in the `_G<n>` namespace.

    The counter only moves forward, so generated names never repeat within a
    process; the parser pushes it past any `_G<n>` read from source so fresh
    names cannot collide with parsed ones either.
    """

    def __init__(self) -> None:
        self.n = 0

    def next(self, avoid: Iterable[str] = ()) -> str:
        avoid = set(avoid)
        while True:
            self.n += 1
            name = f"_G{self.n}"
            if name not in avoid:
                return name

    def reserve_past(self, k: int) -> None:
        if k > self.n:
            self.n = k


_fresh = _FreshNames()

_G_NAME = re.compile(r"_G(\d+)$")


def fresh_var_name(avoid: Iterable[str] = ()) -> str:
    return _fresh.next(avoid)


def note_parsed_var(name: str) -> None:
    m = _G_NAME.match(name)
    if m:
        _fresh.reserve_past(int(m.group(1)))


# ---------------------------------------------------------------------------
# substitution application


def apply_subst(x, s: Subst):
    """Apply a substitution simultaneously; idempotent input gives the usual
    instance, arbitrary input is replaced one level only."""
    if not s:
        return x
    if isinstance(x, Var):
        return s.get(x.name, x)
    if isinstance(x, Int):
        return x
    if isinstance(x, Struct):
        return Struct(x.functor, tuple(apply_subst(a, s) for a in x.args))
    if isinstance(x, Atom):
        return Atom(x.pred, tuple(apply_subst(a, s) for a in x.args))
    if isinstance(x, SeqAtom):
        return SeqAtom(apply_subst(x.atom, s))
    if isinstance(x, ParGroup):
        return ParGroup(
            tuple(apply_subst(a, s) for a in x.left),
            tuple(apply_subst(a, s) for a in x.right),
        )
    if isinstance(x, Clause):
        return Clause(apply_subst(x.head, s), tuple(apply_subst(g, s) for g in x.body))
    if isinstance(x, tuple):
        return tuple(apply_subst(item, s) for item in x)
    raise TypeError(f"cannot substitute into {type(x).__name__}")


# ---------------------------------------------------------------------------
# unification

# Triangular bindings: a variable maps to a term that may itself contain
# bound variables; `walk`/`resolve` chase them.  `mgu` flattens the result
# into an idempotent substitution.


def walk(t: Term, binds: Subst) -> Term:
    while isinstance(t, Var):
        nxt = binds.get(t.name)
        if nxt is None:
            return t
        t = nxt
    return t


def resolve(x, binds: Subst):
    """Fully dereference a term/atom under triangular bindings."""
    if isinstance(x, (Var, Int, Struct)):
        t = walk(x, binds)
        if isinstance(t, Struct):
            return Struct(t.functor, tuple(resolve(a, binds) for a in t.args))
        return t
    if isinstance(x, Atom):
        return Atom(x.pred, tuple(resolve(a, binds) for a in x.args))
    if isinstance(x, (list, tuple)):
        return type(x)(resolve(item, binds) for item in x)
    raise TypeError(f"cannot resolve {type(x).__name__}")


def _occurs(name: str, t: Term, binds: Subst) -> bool:
    t = walk(t, binds)
    if isinstance(t, Var):
        return t.name == name
    if isinstance(t, Struct):
        return any(_occurs(name, a, binds) for a in t.args)
    return False


def unify(a, b, binds: Optional[Subst]) -> Optional[Subst]:
    """Unify two terms or atoms under triangular bindings, occurs-check on.

    Returns an extended copy of `binds`, or None on failure.
    """
    if binds is None:
        return None
    if isinstance(a, Atom) and isinstance(b, Atom):
        if a.key != b.key:
            return None
        out = dict(binds)
        for x, y in zip(a.args, b.args):
            nxt = _unify_terms(x, y, out)
            if nxt is None:
                return None
            out = nxt
        return out
    out = dict(binds)
    return _unify_terms(a, b, out)


def _unify_terms(a: Term, b: Term, binds: Subst) -> Optional[Subst]:
    a = walk(a, binds)
    b = walk(b, binds)
    if isinstance(a, Var):
        if isinstance(b, Var) and b.name == a.name:
            return binds
        if _occurs(a.name, b, binds):
            return None
        binds[a.name] = b
        return binds
    if isinstance(b, Var):
        if _occurs(b.name, a, binds):
            return None
        binds[b.name] = a
        return binds
    if isinstance(a, Int) and isinstance(b, Int):
        return binds if a.value == b.value else None
    if isinstance(a, Struct) and isinstance(b, Struct):
        if a.functor != b.functor or len(a.args) != len(b.args):
            return None
        for x, y in zip(a.args, b.args):
            if _unify_terms(x, y, binds) is None:
                return None
        return binds
    return None


def mgu(a, b) -> Optional[Subst]:
    """Most general unifier as an idempotent substitution, or None."""
    binds = unify(a, b, {})
    if binds is None:
        return None
    out: Subst = {}
    for v in binds:
        t = resolve(Var(v), binds)
        if not (isinstance(t, Var) and t.name == v):
            out[v] = t
    return out


# ---------------------------------------------------------------------------
# renaming


def rename_apart(clause: Clause, avoid: Iterable[str]) -> Clause:
    """A variant of `clause` whose variables avoid the given names.

    Variables that do not collide are kept, which keeps output readable;
    colliding ones get globally fresh names.
    """
    avoid = set(avoid)
    own = term_vars(clause)
    mapping: Subst = {}
    taken = avoid | own
    for v in sorted(own & avoid):
        name = fresh_var_name(taken)
        taken.add(name)
        mapping[v] = Var(name)
    return apply_subst(clause, mapping) if mapping else clause


def rename_all(x, avoid: Iterable[str]):
    """Rename every variable of x to a globally fresh name."""
    taken = set(avoid) | term_vars(x)
    mapping: Subst = {}
    for v in sorted(term_vars(x)):
        name = fresh_var_name(taken)
        taken.add(name)
        mapping[v] = Var(name)
    return apply_subst(x, mapping)


# ---------------------------------------------------------------------------
# canonical forms (variants, memo keys, answer comparison)


def canonical(x):
    """Rename variables to v0,v1,... in first-occurrence order.

    Two atoms are variants exactly when their canonical forms are equal.
    """
    mapping: dict[str, Var] = {}

    def go(t):
        if isinstance(t, Var):
            if t.name not in mapping:
                mapping[t.name] = Var(f"v{len(mapping)}")
            return mapping[t.name]
        if isinstance(t, Int):
            return t
        if isinstance(t, Struct):
            return Struct(t.functor, tuple(go(a) for a in t.args))
        if isinstance(t, Atom):
            return Atom(t.pred, tuple(go(a) for a in t.args))
        if isinstance(t, tuple):
            return tuple(go(item) for item in t)
        raise TypeError(f"cannot canonicalise {type(t).__name__}")

    return go(x)


def nonlinear_argument_positions(atom: Atom) -> list[int]:
    """1-based argument positions whose term repeats a variable internally."""
    out = []
    for i, arg in enumerate(atom.args, start=1):
        seen: set[str] = set()
        dup = False

        def scan(t: Term) -> None:
            nonlocal dup
            if isinstance(t, Var):
                if t.name in seen:
                    dup = True
                seen.add(t.name)
            elif isinstance(t, Struct):
                for a in t.args:
                    scan(a)

        scan(arg)
        if dup:
            out.append(i)
    return out


def warn_if_nonlinear(atom: Atom, where: str) -> None:
    positions = nonlinear_argument_positions(atom)
    if positions:
        warnings.warn(
            f"repeated variable inside argument(s) {positions} of "
            f"{atom.pred}/{atom.arity} ({where}); sharing analysis treats "
            f"arguments as linear",
            NonlinearArgumentWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# printing

_BUILTIN_INFIX = {"is", ">", "<", ">=", "=<", "=:=", "="}
_ADDITIVE = {"+", "-"}
_MULTIPLICATIVE = {"*", "//"}


def _list_parts(t: Struct) -> tuple[list[Term], Optional[Term]]:
    items: list[Term] = []
    while isinstance(t, Struct) and t.functor == "." and len(t.args) == 2:
        items.append(t.args[0])
        t = t.args[1]
    if isinstance(t, Struct) and t.functor == "[]" and not t.args:
        return items, None
    return items, t


def format_term(t: Term, prec: int = 700) -> str:
    """Render a term; `prec` is the highest operator level printable bare."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Int):
        return str(t.value)
    if isinstance(t, Struct):
        if t.functor == "." and len(t.args) == 2:
            items, tail = _list_parts(t)
            inner = ",".join(format_term(i) for i in items)
            return f"[{inner}]" if tail is None else f"[{inner}|{format_term(tail)}]"
        if t.functor == "," and len(t.args) == 2:
            items = []
            node: Term = t
            while isinstance(node, Struct) and node.functor == "," and len(node.args) == 2:
                items.append(node.args[0])
                node = node.args[1]
            items.append(node)
            return f"({','.join(format_term(i) for i in items)})"
        if t.functor in _BUILTIN_INFIX and len(t.args) == 2:
            s = (
                f"{format_term(t.args[0], 500)} {t.functor} "
                f"{format_term(t.args[1], 500)}"
            )
            return s if prec >= 700 else f"({s})"
        if t.functor in _ADDITIVE and len(t.args) == 2:
            s = f"{format_term(t.args[0], 500)}{t.functor}{format_term(t.args[1], 400)}"
            return s if prec >= 500 else f"({s})"
        if t.functor in _MULTIPLICATIVE and len(t.args) == 2:
            s = f"{format_term(t.args[0], 400)}{t.functor}{format_term(t.args[1], 300)}"
            return s if prec >= 400 else f"({s})"
        if not t.args:
            return t.functor
        return f"{t.functor}({','.join(format_term(a) for a in t.args)})"
    raise TypeError(f"cannot format {type(t).__name__}")


def format_atom(a: Atom) -> str:
    if a.pred in _BUILTIN_INFIX and a.arity == 2:
        return f"{format_term(a.args[0], 500)} {a.pred} {format_term(a.args[1], 500)}"
    if not a.args:
        return a.pred
    return f"{a.pred}({','.join(format_term(t) for t in a.args)})"


def format_goal(g: BodyGoal) -> str:
    if isinstance(g, SeqAtom):
        return format_atom(g.atom)
    left = ", ".join(format_atom(a) for a in g.left)
    right = ", ".join(format_atom(a) for a in g.right)
    return f"({left} & {right})"


def format_clause(c: Clause) -> str:
    head = format_atom(c.head)
    if not c.body:
        return f"{head}."
    return f"{head} :- {', '.join(format_goal(g) for g in c.body)}."


def format_program(p: Program) -> str:
    return "\n".join(format_clause(c) for c in p.clauses) + ("\n" if p.clauses else "")
