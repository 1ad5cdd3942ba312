"""Terms, atoms, clauses and substitutions for definite logic programs.

Terms are variables, integers and compound terms; lists are sugar for the
'.'/2 constructor and the '[]' constant.  Substitutions are plain dicts from
variable names to terms; `apply_subst` takes idempotent ones only, such
as `mgu` returns and `rename_apart` builds.
"""

from __future__ import annotations

import itertools
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence, Union


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


@dataclass(frozen=True, init=False)
class Struct:
    """A compound term, or a constant when `args` is empty.

    `ground` is worked out when the term is built, `size` on first use
    and kept on the instance.
    """

    functor: str
    args: tuple[Term, ...] = ()
    #: no variable occurs in the term; lets the traversals below skip it
    ground: bool = field(init=False, compare=False, repr=False)

    def __init__(self, functor: str, args: tuple[Term, ...] = ()) -> None:
        # the hottest constructor: fill the frozen instance's dict directly
        d = self.__dict__
        d["functor"] = functor
        d["args"] = args
        d["ground"] = True
        for a in args:
            if isinstance(a, Var) or (isinstance(a, Struct) and not a.ground):
                d["ground"] = False
                break

    @property
    def size(self) -> int:
        """1 plus the sizes of the arguments, where a variable or an
        integer counts 1; worked out bottom-up on a stack of its own."""
        size = self.__dict__.get("_size")
        if size is not None:
            return size
        todo = [self]
        while todo:
            t = todo[-1]
            pending = [a for a in t.args if isinstance(a, Struct) and "_size" not in a.__dict__]
            if pending:
                todo += pending
                continue
            todo.pop()
            t.__dict__["_size"] = 1 + sum(a.__dict__["_size"] if isinstance(a, Struct) else 1 for a in t.args)
        return self.__dict__["_size"]

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


def make_conjunction(items: Sequence[Term]) -> Term:
    """The ','/2 pairing of one or more terms, nested to the right."""
    out = items[-1]
    for item in reversed(items[:-1]):
        out = Struct(",", (item, out))
    return out


@dataclass(frozen=True)
class Atom:
    """A predicate applied to argument terms."""

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
class ParGroup:
    """A `&` group: two or more sides, each a conjunction of atoms."""

    sides: tuple[tuple[Atom, ...], ...]


BodyGoal = Union[Atom, ParGroup]


@dataclass(frozen=True)
class Clause:
    head: Atom
    body: tuple[BodyGoal, ...] = ()

    def body_atoms(self) -> tuple[Atom, ...]:
        out: list[Atom] = []
        for goal in self.body:
            out += (goal,) if isinstance(goal, Atom) else sum(goal.sides, ())
        return tuple(out)

    def __repr__(self) -> str:
        return format_clause(self)


@dataclass(frozen=True)
class Program:
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        # (index, clause) pairs per predicate, in textual order; not a
        # field, so equality and hashing see the clauses alone
        by_key: dict[tuple[str, int], list[tuple[int, Clause]]] = {}
        for i, c in enumerate(self.clauses):
            by_key.setdefault(c.head.key, []).append((i, c))
        self.__dict__["_by_key"] = {k: tuple(v) for k, v in by_key.items()}

    def predicates(self) -> set[tuple[str, int]]:
        return set(self._by_key)

    def numbered_clauses_for(self, pred: str, arity: int) -> tuple[tuple[int, Clause], ...]:
        """(index in `clauses`, clause) of each clause defining pred/arity."""
        return self._by_key.get((pred, arity), ())

    def clauses_for(self, pred: str, arity: int) -> tuple[Clause, ...]:
        return tuple(c for _, c in self.numbered_clauses_for(pred, arity))

    def defines(self, pred: str, arity: int) -> bool:
        return (pred, arity) in self._by_key

    def __repr__(self) -> str:
        return format_program(self)


Subst = dict[str, Term]


# ---------------------------------------------------------------------------
# variables


def term_vars(x: object) -> set[str]:
    """Free variable names of a term, atom, clause or iterable of those."""
    if isinstance(x, Var):
        return {x.name}
    out: set[str] = set()
    _collect_vars(x, out)
    return out


def _collect_vars(x: object, out: set[str]) -> None:
    todo = [x]
    while todo:
        x = todo.pop()
        if isinstance(x, Var):
            out.add(x.name)
        elif isinstance(x, Struct):
            if not x.ground:
                todo.extend(x.args)
        elif isinstance(x, Atom):
            todo.extend(x.args)
        elif isinstance(x, Int):
            pass
        elif isinstance(x, ParGroup):
            todo.extend(x.sides)
        elif isinstance(x, Clause):
            todo.append(x.head)
            todo.extend(x.body)
        elif isinstance(x, (list, tuple)):
            todo.extend(x)
        else:
            raise TypeError(f"cannot collect variables from {type(x).__name__}")


def fresh_names(avoid: Collection[str]) -> Iterator[str]:
    """`_G1`, `_G2`, ... in order, skipping the names in `avoid`.

    A fresh name only has to differ from the names of the terms it is
    drawn for, so each caller starts a generator over those names.
    """
    for n in itertools.count(1):
        name = f"_G{n}"
        if name not in avoid:
            yield name


# ---------------------------------------------------------------------------
# term maps: substitution, dereference and canonical renaming


def _map(x, leaf: Callable[[Var], Term]):
    """`x`, a term, atom, `ParGroup`, clause or tuple of those, with each
    variable `v` in it replaced by `leaf(v)`.  Only the shape of `x` is
    walked here; `_rebuild` walks each atom's and `Struct`'s arguments."""
    if isinstance(x, Var):
        x = leaf(x)
    if isinstance(x, Struct):
        return x if x.ground else Struct(x.functor, _rebuild(x.args, leaf))
    if isinstance(x, (Var, Int)):
        return x
    if isinstance(x, Atom):
        return Atom(x.pred, _rebuild(x.args, leaf))
    if isinstance(x, ParGroup):
        return ParGroup(_map(x.sides, leaf))
    if isinstance(x, Clause):
        return Clause(_map(x.head, leaf), _map(x.body, leaf))
    if isinstance(x, tuple):
        return tuple([_map(item, leaf) for item in x])
    raise TypeError(f"cannot map over {type(x).__name__}")


def _rebuild(args: tuple[Term, ...], leaf: Callable[[Var], Term]) -> tuple[Term, ...]:
    """`args` with each variable `v` in them replaced by `leaf(v)`, and each
    non-ground Struct among them or the images rebuilt in turn.  Terms are
    visited left to right, depth first, on a stack of its own, so term
    depth is not bounded by Python's recursion limit."""
    # the enclosing Structs: functor, iterator over args, images so far
    stack: list[tuple[str, Iterator[Term], list[Term]]] = []
    functor, todo, done = "", iter(args), []
    while True:
        for a in todo:
            if isinstance(a, Var):
                a = leaf(a)
            if isinstance(a, Struct) and not a.ground:
                stack.append((functor, todo, done))
                functor, todo, done = a.functor, iter(a.args), []
                break
            done.append(a)
        else:
            if not stack:
                return tuple(done)
            out = Struct(functor, tuple(done))
            functor, todo, done = stack.pop()
            done.append(out)


def apply_subst(x, s: Subst):
    """Apply an idempotent substitution to a term, atom, group, clause or
    tuple: no variable `s` binds may occur in a compound image, since
    `_rebuild` maps inside it as for `resolve`.  A variable image is not
    mapped again, so a renaming may also swap names."""
    return _map(x, lambda v: s.get(v.name, v)) if s else x


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
    """Fully dereference `x`, any shape `_map` takes, under triangular bindings."""
    return _map(x, lambda t: walk(t, binds))


def _occurs(name: str, t: Term, binds: Subst) -> bool:
    t = walk(t, binds)
    if not isinstance(t, Struct):
        return isinstance(t, Var) and t.name == name
    todo = [] if t.ground else [t]
    seen: set[int] = set()  # the Structs pushed: one held twice is walked once
    while todo:
        for a in todo.pop().args:
            if isinstance(a, Var):
                a = walk(a, binds)
            if isinstance(a, Var):
                if a.name == name:
                    return True
            elif isinstance(a, Struct) and not a.ground and id(a) not in seen:
                seen.add(id(a))
                todo.append(a)
    return False


def unify(a, b, binds: Optional[Subst]) -> Optional[Subst]:
    """Unify two terms or atoms under triangular bindings, occurs-check on.

    Returns an extended copy of `binds`, or None on failure.
    """
    if binds is None:
        return None
    out = dict(binds)
    return out if unify_in_place(a, b, out, []) else None


def unify_in_place(a, b, binds: Subst, trail: list[str]) -> bool:
    """Unify two terms or atoms by extending `binds` itself.

    Each variable bound is appended to `trail`, so the caller can undo
    the bindings, also those a failed unification leaves behind.
    Argument pairs are unified left to right, depth first.
    """
    if isinstance(a, Atom) and isinstance(b, Atom):
        if a.key != b.key:
            return False
        todo = list(zip(reversed(a.args), reversed(b.args)))
    else:
        todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if isinstance(a, Var):
            a = walk(a, binds)
        if isinstance(b, Var):
            b = walk(b, binds)
        if isinstance(a, Var):
            if isinstance(b, Var) and b.name == a.name:
                continue
            if _occurs(a.name, b, binds):
                return False
            binds[a.name] = b
            trail.append(a.name)
        elif isinstance(b, Var):
            if _occurs(b.name, a, binds):
                return False
            binds[b.name] = a
            trail.append(b.name)
        elif isinstance(a, Int) and isinstance(b, Int):
            if a.value != b.value:
                return False
        elif isinstance(a, Struct) and isinstance(b, Struct):
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            todo.extend(zip(reversed(a.args), reversed(b.args)))
        else:
            return False
    return True


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
    colliding ones, in name order, get the first `fresh_names` that are
    in neither the clause nor `avoid`, so the renaming is idempotent, as
    `apply_subst` needs.
    """
    avoid = set(avoid)
    own = term_vars(clause)
    clash = sorted(own & avoid)
    if not clash:
        return clause
    return apply_subst(clause, {v: Var(name) for v, name in zip(clash, fresh_names(avoid | own))})


def msg(a: Atom, b: Atom) -> Atom:
    """Most specific generalization of two atoms of one predicate: equal
    subterms stay, each pair of differing ones becomes one fresh variable."""
    names = fresh_names(term_vars((a, b)))
    pairs: dict[tuple[Term, Term], Var] = defaultdict(lambda: Var(next(names)))

    def go(s: Term, t: Term) -> Term:
        if s == t:
            return s
        if type(s) is type(t) is Struct and (s.functor, len(s.args)) == (t.functor, len(t.args)):
            return Struct(s.functor, tuple(map(go, s.args, t.args)))
        return pairs[s, t]

    return Atom(a.pred, tuple(map(go, a.args, b.args)))


# ---------------------------------------------------------------------------
# canonical forms (variants, memo keys, answer comparison)


def canonical(x):
    """Rename variables to V0,V1,... in first-occurrence order.

    Two atoms are variants exactly when their canonical forms are equal,
    and so when those print alike: no constant is spelled `V0`.
    """
    mapping: dict[str, Var] = {}

    def number(v: Var) -> Var:
        out = mapping.get(v.name)
        if out is None:
            out = mapping[v.name] = Var(f"V{len(mapping)}")
        return out

    return _map(x, number)


def repeated_variables(atom: Atom) -> dict[int, str]:
    """Each 1-based argument position whose term repeats a variable
    internally, with the first variable met twice, left to right."""
    out = {}
    for i, arg in enumerate(atom.args, start=1):
        seen: set[str] = set()
        todo = [arg]
        while todo:
            t = todo.pop()
            if isinstance(t, Var):
                if t.name in seen:
                    out[i] = t.name
                    break
                seen.add(t.name)
            elif isinstance(t, Struct) and not t.ground:
                todo.extend(reversed(t.args))
    return out


def warn_if_nonlinear(atom: Atom, where: str) -> None:
    positions = list(repeated_variables(atom))
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

_BUILTIN_INFIX = {pred for pred, _ in BUILTIN_KEYS}
# operator -> (lowest context level it prints bare at, the left operand's
# level, the right operand's level); the parser reads operators by it too
_OPERATORS = {
    **{op: (700, 500, 500) for op in _BUILTIN_INFIX},
    "+": (500, 500, 400),
    "-": (500, 500, 400),
    "*": (400, 400, 300),
    "//": (400, 400, 300),
}


def _list_parts(t: Struct) -> tuple[list[Term], Optional[Term]]:
    items: list[Term] = []
    while isinstance(t, Struct) and t.functor == "." and len(t.args) == 2:
        items.append(t.args[0])
        t = t.args[1]
    if isinstance(t, Struct) and t.functor == "[]" and not t.args:
        return items, None
    return items, t


def format_term(t: Term, prec: int = 700) -> str:
    """Render a term; `prec` is the highest operator level printable bare.

    The rendering keeps its own stack of pieces still to print, so term
    depth is not bounded by Python's recursion limit.
    """
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Int):
        return str(t.value)
    out: list[str] = []
    todo: list[Union[str, tuple[Term, int]]] = [(t, prec)]
    while todo:
        piece = todo.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            todo += reversed(_format_pieces(*piece))
    return "".join(out)


def _format_pieces(t: Term, prec: int) -> list[Union[str, tuple[Term, int]]]:
    """One level of `format_term`: literal text and (subterm, prec) pairs."""
    if isinstance(t, Var):
        return [t.name]
    if isinstance(t, Int):
        return [str(t.value)]
    if not isinstance(t, Struct):
        raise TypeError(f"cannot format {type(t).__name__}")
    if t.functor == "." and len(t.args) == 2:
        items, tail = _list_parts(t)
        inner = _joined(items)
        return ["[", *inner, "]"] if tail is None else ["[", *inner, "|", (tail, 700), "]"]
    if t.functor == "," and len(t.args) == 2:
        items = []
        node: Term = t
        while isinstance(node, Struct) and node.functor == "," and len(node.args) == 2:
            items.append(node.args[0])
            node = node.args[1]
        items.append(node)
        return ["(", *_joined(items), ")"]
    if len(t.args) == 2 and t.functor in _OPERATORS:
        bare, left, right = _OPERATORS[t.functor]
        if t.functor in _BUILTIN_INFIX:
            sep = f" {t.functor} "
        elif _starts_with_minus(t.args[1], right):
            sep = t.functor + " "  # `Z- -1`: a symbol run reads as one token
        else:
            sep = t.functor
        s = [(t.args[0], left), sep, (t.args[1], right)]
        return s if prec >= bare else ["(", *s, ")"]
    if not t.args:
        return [t.functor]
    return [t.functor, "(", *_joined(t.args), ")"]


def _starts_with_minus(t: Term, prec: int) -> bool:
    """Whether `format_term(t, prec)` starts with a minus sign."""
    while isinstance(t, Struct) and len(t.args) == 2 and t.functor in _OPERATORS:
        bare, left, _ = _OPERATORS[t.functor]
        if bare > prec:
            return False  # parenthesised
        t, prec = t.args[0], left
    if isinstance(t, Int):
        return t.value < 0
    return isinstance(t, Struct) and t.functor.startswith("-")


def _joined(items) -> list[Union[str, tuple[Term, int]]]:
    """`items` at level 700 with commas between them; a variable or an
    integer is rendered at once."""
    out: list[Union[str, tuple[Term, int]]] = []
    for item in items:
        out.append(",")
        if isinstance(item, Var):
            out.append(item.name)
        elif isinstance(item, Int):
            out.append(str(item.value))
        else:
            out.append((item, 700))
    return out[1:]


def format_atom(a: Atom) -> str:
    if a.pred in _BUILTIN_INFIX and a.arity == 2:
        return f"{format_term(a.args[0], 500)} {a.pred} {format_term(a.args[1], 500)}"
    if not a.args:
        return a.pred
    return f"{a.pred}({','.join(format_term(t) for t in a.args)})"


def format_goal(g: BodyGoal) -> str:
    if isinstance(g, Atom):
        return format_atom(g)
    return "(%s)" % " & ".join(", ".join(map(format_atom, side)) for side in g.sides)


def format_clause(c: Clause) -> str:
    head = format_atom(c.head)
    if not c.body:
        return f"{head}."
    return f"{head} :- {', '.join(format_goal(g) for g in c.body)}."


def format_program(p: Program) -> str:
    return "\n".join(format_clause(c) for c in p.clauses) + ("\n" if p.clauses else "")
