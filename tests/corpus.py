"""Benchmark programs and small helpers shared by the test suite.

Each entry names a program under tests/corpus/, its entry point, and a
seeded query generator.  Generators only produce queries that conform to
the entry pattern: ground terms exactly in the declared positions, fresh
pairwise-distinct variables elsewhere.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

from parpeval import (
    Analyzer,
    Atom,
    EntryPoint,
    Int,
    Program,
    ResidualProgram,
    Struct,
    Var,
    extract_residual,
    format_guarded,
    parse_program,
    partially_evaluate,
)
from parpeval.engine import ExtendedAtom, Trace
from parpeval.patterns import SharingPattern, sharing
from parpeval.terms import Term, make_list

CORPUS_DIR = Path(__file__).parent / "corpus"


def int_list(values: list[int]) -> Term:
    return make_list([Int(v) for v in values])


def matrix(rows: list[list[int]]) -> Term:
    return make_list([int_list(row) for row in rows])


def worst_sharing(arity: int) -> SharingPattern:
    """Every pair of positions may share."""
    return sharing(arity, [range(1, arity + 1)])


def label_sequences(trace: Trace) -> list[list[str]]:
    """The labels along each derivation of `trace`."""
    return [[t.label for t in d] for d in trace.derivations]


def load(name: str) -> Program:
    return parse_program((CORPUS_DIR / f"{name}.pl").read_text())


@dataclass(frozen=True)
class Bench:
    name: str
    entry: EntryPoint
    queries: Callable[[random.Random], list[Atom]]
    #: number of parallel splits the residual is expected to contain
    par_sites: int


def _entry(pred: str, arity: int, ground: tuple[int, ...]) -> EntryPoint:
    from parpeval.patterns import groundness, independent_sharing

    return EntryPoint(pred, arity, groundness(arity, ground), independent_sharing(arity))


def fib_queries(rng: random.Random) -> list[Atom]:
    ks = list(range(15))
    rng.shuffle(ks)
    return [Atom("fibonacci", (Int(k), Var("N"))) for k in ks + [0, 1, 7, 9, 11]]


def qsort_queries(rng: random.Random) -> list[Atom]:
    out = []
    for n in list(range(12)) + [4, 5, 6, 7, 8, 9, 10, 11]:
        items = [rng.randrange(100) for _ in range(n)]
        out.append(Atom("quicksort", (int_list(items), Var("S"))))
    return out


def amatrix_queries(rng: random.Random) -> list[Atom]:
    out = []
    shapes = [(r, c) for r in range(5) for c in range(1, 5)]
    rng.shuffle(shapes)
    for rows, cols in shapes:
        a = [[rng.randrange(50) for _ in range(cols)] for _ in range(rows)]
        b = [[rng.randrange(50) for _ in range(cols)] for _ in range(rows)]
        out.append(Atom("amatrix", (matrix(a), matrix(b), Var("Sum"))))
    return out


def hanoi_queries(rng: random.Random) -> list[Atom]:
    pegs = ["left", "centre", "right", "spare"]
    out = []
    for n in list(range(8)) * 3:
        a, b, c = rng.sample(pegs, 3)
        out.append(
            Atom(
                "hanoi",
                (Int(n), Struct(a, ()), Struct(b, ()), Struct(c, ()), Var("Moves")),
            )
        )
    return out[:22]


def tak_queries(rng: random.Random) -> list[Atom]:
    triples = {(3, 2, 1), (4, 2, 0), (5, 4, 3), (0, 0, 0), (2, 4, 1)}
    while len(triples) < 20:
        triples.add((rng.randrange(6), rng.randrange(6), rng.randrange(5)))
    return [
        Atom("tak", (Int(x), Int(y), Int(z), Var("A")))
        for x, y, z in sorted(triples)
    ]


def mmatrix_queries(rng: random.Random) -> list[Atom]:
    out = []
    for _ in range(20):
        n, m, d = rng.randrange(4), rng.randrange(1, 4), rng.randrange(1, 4)
        a = [[rng.randrange(10) for _ in range(d)] for _ in range(n)]
        b = [[rng.randrange(10) for _ in range(d)] for _ in range(m)]
        out.append(Atom("mmultiply", (matrix(a), matrix(b), Var("Prod"))))
    return out


def msort_queries(rng: random.Random) -> list[Atom]:
    out = []
    for n in list(range(13)) + [5, 6, 7, 8, 9, 10, 12]:
        items = [rng.randrange(100) for _ in range(n)]
        out.append(Atom("msort", (int_list(items), Var("S"))))
    return out


def palin_queries(rng: random.Random) -> list[Atom]:
    out = []
    for i in range(20):
        n = rng.randrange(10)
        if i % 2 == 0:
            half = [rng.randrange(10) for _ in range(n // 2)]
            mid = [rng.randrange(10)] if n % 2 else []
            items = half + mid + half[::-1]
        else:
            items = [rng.randrange(10) for _ in range(n)]
        out.append(Atom("palindrome", (int_list(items),)))
    return out


def _nested(rng: random.Random, depth: int) -> Term:
    if depth == 0 or rng.random() < 0.4:
        return Int(rng.randrange(10))
    return make_list([_nested(rng, depth - 1) for _ in range(rng.randrange(4))])


def flatten_queries(rng: random.Random) -> list[Atom]:
    out = []
    for _ in range(20):
        shape = make_list([_nested(rng, 2) for _ in range(rng.randrange(5))])
        out.append(Atom("flatten", (shape, Var("Flat"))))
    return out


BENCHES: dict[str, Bench] = {
    bench.name: bench
    for bench in [
        Bench("fib", _entry("fibonacci", 2, (1,)), fib_queries, 1),
        Bench("qsort", _entry("quicksort", 2, (1,)), qsort_queries, 1),
        Bench("amatrix", _entry("amatrix", 3, (1, 2)), amatrix_queries, 1),
        Bench("hanoi", _entry("hanoi", 5, (1, 2, 3, 4)), hanoi_queries, 1),
        Bench("tak", _entry("tak", 4, (1, 2, 3)), tak_queries, 1),
        Bench("mmatrix", _entry("mmultiply", 3, (1, 2)), mmatrix_queries, 2),
        Bench("msort", _entry("msort", 2, (1,)), msort_queries, 1),
        Bench("palin", _entry("palindrome", 1, (1,)), palin_queries, 0),
        Bench("flatten", _entry("flatten", 2, (1,)), flatten_queries, 1),
    ]
}


def bench_queries(name: str, seed: int = 0) -> list[Atom]:
    return BENCHES[name].queries(random.Random(seed))


def entry_atom(entry: EntryPoint) -> ExtendedAtom:
    names = [chr(ord("A") + i) if i < 26 else f"V{i - 25}" for i in range(entry.arity)]
    return ExtendedAtom(
        Atom(entry.pred, tuple(Var(n) for n in names)), entry.gr, entry.sh
    )


@lru_cache(maxsize=None)
def compiled(name: str) -> tuple[Program, Analyzer, Trace, ResidualProgram]:
    """Run the whole pipeline once per benchmark; tests share the result."""
    bench = BENCHES[name]
    program = load(name)
    analyzer = Analyzer(program)
    trace = partially_evaluate(program, entry_atom(bench.entry), analyzer)
    return program, analyzer, trace, extract_residual([trace])


def guarded_sections(
    residual: ResidualProgram, max_threads: int = 4
) -> tuple[Program, Program, str]:
    """Guarded output read back: its `_par` clauses, the source and the guard text."""
    par, source, support = format_guarded(residual, max_threads).split("\n\n", 2)
    return parse_program(par), parse_program(source), support
