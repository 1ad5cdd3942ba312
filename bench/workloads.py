"""Seeded workload generation and plain-Python reference answers.

Every workload is a list of jobs.  A job is one program with one entry
pattern and a list of queries; each query carries the answer key that
`answer_multiset` must produce for it, computed here without the
package under test.  Nothing in this module imports `parpeval`, so
generation can be timed as part of set-up on its own.

Sizes are fixed per workload and mode; the seed picks values (list
items, matrix entries, peg names, thresholds, variable names) and
orders, so the amount of work stays the same from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional

WORKLOADS = ("corpus", "deep_lists", "spec_long_bodies", "spec_many_preds")
SIZES = ("full", "tiny")

CHECKS = "eq,indep,safe"

#: length of the known-defect probe lists in `deep_lists`; the seed's
#: solver dies with a RecursionError on them
PROBE_ITEMS = 1000


@dataclass
class Job:
    name: str
    source: str
    entry: str
    #: (query text without the final '.', expected answer key or None
    #: for a query with no answers)
    queries: list[tuple[str, Optional[str]]] = field(default_factory=list)
    #: known-defect probe: run on its own, kept out of every timing
    probe: bool = False


# ---------------------------------------------------------------------------
# Prolog text of plain values


def fmt(v) -> str:
    """Prolog text of an int, an atom name, a list or a ('f', args...) tuple.

    This is also the form `answer_multiset` keys ground answers by.
    """
    if isinstance(v, bool):
        raise TypeError("booleans have no Prolog form here")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, list):
        return "[" + ",".join(fmt(x) for x in v) + "]"
    if isinstance(v, tuple):
        return "%s(%s)" % (v[0], ",".join(fmt(x) for x in v[1:]))
    raise TypeError(f"no Prolog form for {type(v).__name__}")


def answer(*values) -> str:
    """Expected answer key: the query variables' values in name order."""
    return ",".join(fmt(v) for v in values)


# ---------------------------------------------------------------------------
# reference semantics of the corpus programs


def ref_fib(k: int) -> int:
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def ref_hanoi(n: int, a: str, b: str, c: str) -> list:
    if n == 0:
        return []
    return ref_hanoi(n - 1, a, c, b) + [("mv", a, b)] + ref_hanoi(n - 1, c, b, a)


@lru_cache(maxsize=None)
def ref_tak(x: int, y: int, z: int) -> int:
    if x <= y:
        return z
    return ref_tak(
        ref_tak(x - 1, y, z), ref_tak(y - 1, z, x), ref_tak(z - 1, x, y)
    )


def ref_flatten(x) -> list:
    if isinstance(x, int):
        return [x]
    out = []
    for item in x:
        out += ref_flatten(item)
    return out


def ref_mmultiply(a: list, b: list) -> list:
    # each result row pairs a row of `a` with every row of `b`
    return [[sum(p * q for p, q in zip(row, col)) for col in b] for row in a]


# ---------------------------------------------------------------------------
# corpus: the nine programs of tests/corpus at their test entry patterns


def _corpus_file(root: Path, name: str) -> str:
    return (root / "tests" / "corpus" / f"{name}.pl").read_text(encoding="utf-8")


def _ints(rng: random.Random, n: int, hi: int) -> list[int]:
    return [rng.randrange(hi) for _ in range(n)]


def _ranked(rng: random.Random, n: int, pattern: int) -> list[int]:
    """n distinct seeded values laid out in a rank order fixed by `pattern`.

    Every comparison a sort makes on the list comes out the same for
    every seed, so the seed changes the values but not the work.
    """
    values = sorted(rng.sample(range(1000), n))
    order = list(range(n))
    random.Random(pattern).shuffle(order)
    return [values[r] for r in order]


def _palindrome_case(rng: random.Random, n: int, want: bool) -> list[int]:
    half = _ints(rng, n // 2, 10)
    mid = _ints(rng, n % 2, 10)
    items = half + mid + half[::-1]
    if not want and n >= 2:
        # break the mirror at one end so the answer is a definite no
        items[-1] = (items[0] + 1) % 10
    return items


def _nested(rng: random.Random, leaves: int) -> list:
    """A list nested up to three deep holding exactly `leaves` integers."""
    out: list = []
    while leaves:
        take = min(leaves, rng.randrange(1, 4))
        leaves -= take
        items = [rng.randrange(10) for _ in range(take)]
        roll = rng.random()
        if take == 1 and roll < 0.5:
            out.append(items[0])
        elif roll < 0.8:
            out.append(items)
        else:
            out.append([items[:1], items[1:]])
    return out


def corpus_jobs(root: Path, rng: random.Random, tiny: bool) -> list[Job]:
    jobs = []

    def job(name: str, entry: str, queries: list[tuple[str, Optional[str]]]) -> None:
        jobs.append(Job(name, _corpus_file(root, name), entry, queries))

    ks = [3, 5] if tiny else [4, 6, 8, 9, 10, 11]
    rng.shuffle(ks)
    job("fib", "fibonacci/2 gr {1}",
        [(f"fibonacci({k},N)", answer(ref_fib(k))) for k in ks])

    qs = []
    for n in [3, 6] if tiny else [0, 4, 8, 12, 12]:
        items = _ints(rng, n, 100)
        qs.append((f"quicksort({fmt(items)},S)", answer(sorted(items))))
    job("qsort", "quicksort/2 gr {1}", qs)

    qs = []
    for rows, cols in [(2, 2)] if tiny else [(1, 3), (2, 4), (3, 3), (4, 4)]:
        a = [_ints(rng, cols, 50) for _ in range(rows)]
        b = [_ints(rng, cols, 50) for _ in range(rows)]
        s = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        qs.append((f"amatrix({fmt(a)},{fmt(b)},Sum)", answer(s)))
    job("amatrix", "amatrix/3 gr {1,2}", qs)

    qs = []
    pegs = ["left", "centre", "right", "spare"]
    for n in [2, 3] if tiny else [1, 3, 4, 5, 6]:
        a, b, c = rng.sample(pegs, 3)
        qs.append((f"hanoi({n},{a},{b},{c},Moves)", answer(ref_hanoi(n, a, b, c))))
    rng.shuffle(qs)
    job("hanoi", "hanoi/5 gr {1,2,3,4}", qs)

    triples = [(3, 2, 1)] if tiny else [(3, 2, 1), (4, 2, 0), (5, 4, 3), (2, 4, 1), (4, 3, 2), (5, 2, 1)]
    rng.shuffle(triples)
    job("tak", "tak/4 gr {1,2,3}",
        [(f"tak({x},{y},{z},A)", answer(ref_tak(x, y, z))) for x, y, z in triples])

    qs = []
    for n, m, d in [(2, 2, 2)] if tiny else [(1, 2, 3), (2, 3, 2), (3, 3, 3), (3, 2, 3)]:
        a = [_ints(rng, d, 10) for _ in range(n)]
        b = [_ints(rng, d, 10) for _ in range(m)]
        qs.append((f"mmultiply({fmt(a)},{fmt(b)},Prod)", answer(ref_mmultiply(a, b))))
    job("mmatrix", "mmultiply/3 gr {1,2}", qs)

    qs = []
    for n in [3, 5] if tiny else [0, 1, 5, 9, 12, 12]:
        items = _ints(rng, n, 100)
        qs.append((f"msort({fmt(items)},S)", answer(sorted(items))))
    job("msort", "msort/2 gr {1}", qs)

    qs = []
    for i, n in enumerate([3, 4] if tiny else [0, 3, 6, 7, 10, 11]):
        want = i % 2 == 0
        items = _palindrome_case(rng, n, want)
        qs.append((f"palindrome({fmt(items)})", answer() if items == items[::-1] else None))
    job("palin", "palindrome/1 gr {1}", qs)

    qs = []
    for leaves in [3, 4] if tiny else [4, 6, 8, 10, 12, 12]:
        shape = _nested(rng, leaves)
        qs.append((f"flatten({fmt(shape)},Flat)", answer(ref_flatten(shape))))
    job("flatten", "flatten/2 gr {1}", qs)
    return jobs


# ---------------------------------------------------------------------------
# deep_lists: long linear derivations over big terms

LEN_SOURCE = """\
% Length of a list, counted on the way back up.

len([], 0).
len([_|T], N) :-
    len(T, M),
    N is M + 1.
"""


def deep_list_jobs(root: Path, rng: random.Random, tiny: bool) -> list[Job]:
    sort_n = [10] if tiny else [30, 30, 30]
    palin_n = [8] if tiny else [24, 25]
    len_n = [30] if tiny else [150, 250]

    jobs = []
    qs = []
    for pattern, n in enumerate(sort_n):
        items = _ranked(rng, n, pattern)
        qs.append((f"quicksort({fmt(items)},S)", answer(sorted(items))))
    jobs.append(Job("qsort", _corpus_file(root, "qsort"), "quicksort/2 gr {1}", qs))
    qs = []
    for pattern, n in enumerate(sort_n):
        items = _ranked(rng, n, pattern)
        qs.append((f"msort({fmt(items)},S)", answer(sorted(items))))
    jobs.append(Job("msort", _corpus_file(root, "msort"), "msort/2 gr {1}", qs))
    qs = []
    for n in palin_n:
        items = _palindrome_case(rng, n, True)
        qs.append((f"palindrome({fmt(items)})", answer()))
    jobs.append(Job("palin", _corpus_file(root, "palin"), "palindrome/1 gr {1}", qs))
    qs = []
    for n in len_n:
        qs.append((f"len({fmt(_ints(rng, n, 10))},N)", answer(n)))
    jobs.append(Job("len", LEN_SOURCE, "len/2 gr {1}", qs))
    for i in range(2):
        q = (f"len({fmt(_ints(rng, PROBE_ITEMS, 10))},N)", answer(PROBE_ITEMS))
        jobs.append(Job(f"len_probe{i + 1}", LEN_SOURCE, "len/2 gr {1}", [q], probe=True))
    return jobs


# ---------------------------------------------------------------------------
# spec_long_bodies: one long clause body per program

STEP_SOURCE = "q(X, Y) :-\n    Y is X + 1.\n"


def _var_prefixes(rng: random.Random) -> tuple[str, str]:
    first, second = rng.sample("KLMSTUVWXY", 2)
    return first, second


def chain_source(n: int, v: str = "X") -> str:
    """r(X0,Xn) :- q(X0,X1), ..., q(Xn-1,Xn): every split boundary shares."""
    body = ",\n    ".join(f"q({v}{i},{v}{i + 1})" for i in range(n))
    return f"{STEP_SOURCE}\nr({v}0,{v}{n}) :-\n    {body}.\n"


def two_chain_source(n: int, v: str = "X", w: str = "Y") -> str:
    """Two independent chains of n goals each, one after the other."""
    left = [f"q({v}{i},{v}{i + 1})" for i in range(n)]
    right = [f"q({w}{i},{w}{i + 1})" for i in range(n)]
    body = ",\n    ".join(left + right)
    return f"{STEP_SOURCE}\nr({v}0,{w}0,{v}{n},{w}{n}) :-\n    {body}.\n"


def long_body_jobs(root: Path, rng: random.Random, tiny: bool) -> list[Job]:
    chains = [6, 8] if tiny else [8, 12, 16, 20]
    pairs = [3] if tiny else [6, 10, 14]
    jobs = []
    for n in chains:
        v, _ = _var_prefixes(rng)
        starts = _ints(rng, 2, 1000)
        qs = [(f"r({x},A)", answer(x + n)) for x in starts]
        jobs.append(Job(f"chain{n}", chain_source(n, v), "r/2 gr {1}", qs))
    for n in pairs:
        v, w = _var_prefixes(rng)
        qs = []
        for _ in range(2):
            x, y = _ints(rng, 2, 1000)
            qs.append((f"r({x},{y},A,B)", answer(x + n, y + n)))
        jobs.append(Job(f"twochain{n}", two_chain_source(n, v, w), "r/4 gr {1,2}", qs))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# spec_many_preds: hundreds of short-bodied predicates


def many_preds_source(n_preds: int, threshold: int) -> str:
    """pI calls pI+1 and pI+2; a guard on the first argument stops it.

    The last two predicates are plain bases, so the call graph is a DAG
    of `n_preds` + 2 predicates with two clauses each above the bases.
    """
    lines = [STEP_SOURCE]
    for i in range(n_preds):
        lines.append(f"p{i}(X,Y,Z) :- X >= {threshold}, Y is X, Z is X.")
        lines.append(
            f"p{i}(X,Y,Z) :- X < {threshold}, q(X,A), p{i + 1}(A,B,C), "
            f"p{i + 2}(X,Y,D), q(B,Z)."
        )
    for i in (n_preds, n_preds + 1):
        lines.append(f"p{i}(X,Y,Z) :- Y is X, Z is X.")
    return "\n".join(lines) + "\n"


def ref_many_preds(n_preds: int, threshold: int, x: int) -> tuple[int, int]:
    """(Y, Z) of the single answer to p0(x, Y, Z)."""

    @lru_cache(maxsize=None)
    def p(i: int, x: int) -> tuple[int, int]:
        if i >= n_preds or x >= threshold:
            return x, x
        b, _ = p(i + 1, x + 1)
        y, _ = p(i + 2, x)
        return y, b + 1

    return p(0, x)


def many_preds_jobs(root: Path, rng: random.Random, tiny: bool) -> list[Job]:
    jobs = []
    for n in [12, 20] if tiny else [60, 100]:
        # three digits, so the residual's size does not depend on the seed
        threshold = rng.randrange(100, 1000)
        # x = threshold - 1 walks the p0, p2, p4, ... spine once; lower
        # starts make the SLD tree grow quadratically in n_preds
        starts = [threshold - 1, threshold + rng.randrange(100)]
        qs = []
        for x in starts:
            y, z = ref_many_preds(n, threshold, x)
            qs.append((f"p0({x},Y,Z)", answer(y, z)))
        jobs.append(Job(f"preds{n}", many_preds_source(n, threshold), "p0/3 gr {1}", qs))
    return jobs


GENERATORS: dict[str, Callable[[Path, random.Random, bool], list[Job]]] = {
    "corpus": corpus_jobs,
    "deep_lists": deep_list_jobs,
    "spec_long_bodies": long_body_jobs,
    "spec_many_preds": many_preds_jobs,
}


def make_jobs(workload: str, root: Path, seed: int, size: str = "full") -> list[Job]:
    return GENERATORS[workload](root, random.Random(seed), size == "tiny")


def write_jobs(jobs: list[Job], where: Path) -> None:
    """One program file and one query file per job."""
    for job in jobs:
        (where / f"{job.name}.pl").write_text(job.source, encoding="utf-8")
        (where / f"{job.name}.q").write_text(
            "".join(f"{q}.\n" for q, _ in job.queries), encoding="utf-8"
        )


# ---------------------------------------------------------------------------
# terms for the micro timings and the scaling series

#: items per list in the `terms.*` micro timings: small structures for
#: the corpus and the specializer workloads, long lists for deep_lists
TERM_ITEMS = {
    "corpus": 8,
    "deep_lists": 300,
    "spec_long_bodies": 3,
    "spec_many_preds": 3,
}

SCALE_LEN = (100, 200, 400, 800)
SCALE_CHAIN = (8, 16, 24, 32)
SCALE_PREDS = (100, 200, 400, 800)
