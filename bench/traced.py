"""The traced run: per-layer spans and counts, term micro timings, scaling series.

The traced pass replays the stage order of `parpeval.cli._run` by calling
each module's public functions from here, with a span around every call.
Nothing inside the package is instrumented; the only hook is a wrapper
around `Solver.solve` that reads the step counter after each solve.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import workloads as wl

#: spans on the CLI's own path; `cli.overhead_s` is measured against these
CLI_STAGES = (
    "parser.parse",
    "analysis.success",
    "engine.pe",
    "codegen.extract",
    "codegen.format",
    "interp.eq",
    "interp.indep",
    "interp.safe",
)

LABELS = ("u", "p", "v", "e", "n", "f")


class Tracer:
    """Spans kept in memory: name, start, end, parent span, program id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, program: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "program": program,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time of its children."""
        children: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - children[s["id"]]
        return dict(out)


@contextmanager
def counting_solves(interp, counts: Counter) -> Iterator[None]:
    """Add each solve's step counter and answer count to `counts`."""
    original = interp.Solver.solve

    def solve(self, query):
        answers = original(self, query)
        counts["steps"] += getattr(self, "_steps", 0)
        counts["answers"] += len(answers)
        return answers

    interp.Solver.solve = solve
    try:
        yield
    finally:
        interp.Solver.solve = original


def generic_atom(pkg, entry):
    return pkg.Atom(entry.pred, tuple(pkg.Var(f"A{i}") for i in range(entry.arity)))


def unfolded_body(ea, clause):
    """(head instance, body query) that `split_independent` gets when the
    engine unfolds `ea` with `clause`."""
    from parpeval import engine, terms

    sigma, _, equery = engine.unfold_step(ea, clause)
    return engine.ExtendedAtom(terms.apply_subst(ea.atom, sigma), ea.gr, ea.sh), equery


def traced_pass(pkg, jobs: list[wl.Job], where: Path, tracer: Tracer) -> tuple[dict, int, int]:
    """One traced pass over the non-probe jobs.

    Returns the counts, the checks attempted and the checks failed.  A
    check is one verification report or the replay of the split search
    on one unfolded clause body agreeing with the trace's label.
    """
    from parpeval import engine, interp

    counts: Counter = Counter()
    attempted = failed = 0
    max_steps = interp.parse_step_limit_env()
    for job in jobs:
        if job.probe:
            continue
        with counting_solves(interp, counts), tracer.span("cli.program", job.name):
            with tracer.span("parser.parse", job.name):
                program = pkg.parse_program((where / f"{job.name}.pl").read_text(encoding="utf-8"))
                entry = pkg.parse_entry_spec(job.entry)
                text = (where / f"{job.name}.q").read_text(encoding="utf-8")
                queries = [q[0] for q in pkg.parse_query_file(text)]
            with tracer.span("analysis.success", job.name):
                analyzer = pkg.Analyzer(program)
                analyzer.success(entry.pred, entry.arity, entry.gr, entry.sh)
            with tracer.span("engine.pe", job.name):
                init = engine.ExtendedAtom(generic_atom(pkg, entry), entry.gr, entry.sh)
                trace = pkg.partially_evaluate(program, init, analyzer)
            with tracer.span("codegen.extract", job.name):
                residual = pkg.extract_residual([trace], pkg.RenamingScheme(program))
            with tracer.span("codegen.format", job.name):
                table = analyzer.table()
                table.format()
                pkg.format_residual(residual)
            with tracer.span("interp.eq", job.name):
                eq = pkg.check_equivalence(program, residual, entry.gr, entry.sh, queries, max_steps)
            with tracer.span("interp.indep", job.name):
                indep = pkg.check_independence(residual, entry.gr, entry.sh, queries, max_steps)
            with tracer.span("interp.safe", job.name):
                safe = pkg.check_safeness(table, program, queries, max_steps)
        attempted += 3
        failed += sum(not r.ok for r in (eq, indep, safe))

        bodies = []
        for t in {id(t): t for t in trace.transitions()}.values():
            counts["transitions"] += 1
            counts["transitions." + t.label] += 1
            if t.label in ("u", "p"):
                head, equery = unfolded_body(t.subject.ea, program.clauses[t.clause_index])
                bodies.append((t.label, head, equery))
        with tracer.span("engine.split", job.name):
            found = [
                pkg.split_independent(head, equery, analyzer) is not None
                for _, head, equery in bodies
            ]
        for (label, _, _), hit in zip(bodies, found):
            attempted += 1
            failed += hit != (label == "p")
        counts["split_searched"] += len(bodies)
        counts["split_found"] += sum(found)
        counts["memo_size"] += len(trace.memo)
        counts["parse_clauses"] += len(program.clauses)
        counts["table_rows"] += len(table)
        counts["residual_clauses"] += len(residual.residual_clauses)
        counts["par_sites"] += len(residual.par_sites())
        counts["forks_checked"] += sum(s.checked for s in indep.sites.values())
        counts["rows_checked"] += sum(s.checked for s in safe.rows.values())
    return counts, attempted, failed


# ---------------------------------------------------------------------------
# term micro timings


def _per_call_us(fn: Callable[[], object], batches: int = 7, batch_s: float = 0.01) -> float:
    """Median microseconds per call over `batches` batches of ~`batch_s` each."""
    k = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        if time.perf_counter() - t0 >= batch_s / 4:
            break
        k *= 2
    k = max(1, round(k * batch_s / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(k):
            fn()
        samples.append((time.perf_counter() - t0) / k)
    return statistics.median(samples) * 1e6


def term_micro(pkg, items: int) -> dict[str, float]:
    """`terms.*_us` on lists of `items` elements.

    The binding store passed to `unify` holds `items` unrelated entries,
    as the solver's store does after as many steps, so a store copy
    shows in the figure.
    """
    from parpeval import terms

    ints = terms.make_list([pkg.Int(i % 10) for i in range(items)])
    fresh = terms.make_list([pkg.Var(f"E{i}") for i in range(items)])
    mixed = terms.make_list(
        [pkg.Var(f"E{i}") if i % 2 else pkg.Int(i) for i in range(items)]
    )
    store = {f"F{i}": pkg.Int(i) for i in range(items)}
    chain = {
        f"L{i}": terms.cons(pkg.Int(i % 10), pkg.Var(f"L{i + 1}")) for i in range(items)
    }
    chain[f"L{items}"] = terms.NIL
    left = pkg.Atom("p", (fresh, pkg.Var("R")))
    right = pkg.Atom("p", (ints, pkg.Int(items)))
    atom = pkg.Atom("p", (mixed, pkg.Var("R")))
    return {
        "terms.unify_us": _per_call_us(lambda: terms.unify(left, right, store)),
        "terms.resolve_us": _per_call_us(lambda: terms.resolve(pkg.Var("L0"), chain)),
        "terms.term_vars_us": _per_call_us(lambda: terms.term_vars(atom)),
        "terms.canonical_us": _per_call_us(lambda: terms.canonical(atom)),
    }


# ---------------------------------------------------------------------------
# scaling series


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) over log(size)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def _timed(fn: Callable[[], object]) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def scaling_series(pkg) -> tuple[dict[str, list[tuple[int, float]]], int, int]:
    """Seconds per point of the three series, plus checks attempted and failed.

    interp_len: `answer_multiset` of len/2 on n-item lists, below the
    length at which the solver fails.  engine_chain: one
    `split_independent` call on a dependent chain body of n goals, where
    no split exists.  analysis_preds: `Analyzer.success` at the entry of
    a spec_many_preds program with P predicates.
    """
    from parpeval import engine, terms

    series: dict[str, list[tuple[int, float]]] = {}
    attempted = failed = 0

    program = pkg.parse_program(wl.LEN_SOURCE)
    points = []
    for n in wl.SCALE_LEN:
        query = pkg.Atom("len", (terms.make_list([pkg.Int(i % 10) for i in range(n)]), pkg.Var("N")))
        dt, got = _timed(lambda: pkg.answer_multiset(program, [query]))
        points.append((n, dt))
        attempted += 1
        failed += got != Counter({str(n): 1})
    series["interp_len"] = points

    entry = pkg.parse_entry_spec("r/2 gr {1}")
    points = []
    for n in wl.SCALE_CHAIN:
        program = pkg.parse_program(wl.chain_source(n))
        analyzer = pkg.Analyzer(program)
        ea = engine.ExtendedAtom(generic_atom(pkg, entry), entry.gr, entry.sh)
        head, equery = unfolded_body(ea, program.clauses_for("r", 2)[0])
        dt, got = _timed(lambda: pkg.split_independent(head, equery, analyzer))
        points.append((n, dt))
        attempted += 1
        failed += got is not None
    series["engine_chain"] = points

    entry = pkg.parse_entry_spec("p0/3 gr {1}")
    points = []
    for n in wl.SCALE_PREDS:
        program = pkg.parse_program(wl.many_preds_source(n, 50))
        analyzer = pkg.Analyzer(program)
        dt, _ = _timed(lambda: analyzer.success(entry.pred, entry.arity, entry.gr, entry.sh))
        points.append((n, dt))
    series["analysis_preds"] = points
    return series, attempted, failed
