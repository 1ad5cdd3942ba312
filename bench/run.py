#!/usr/bin/env python3
"""Pipeline benchmark: the parpeval CLI over seeded workloads.

    python3 bench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

Run from anywhere in a checkout; the package is imported from its src/.
With --trace 0 the run calls `parpeval.cli.main(argv)` in-process, once
per program without --verify and once with --verify eq,indep,safe, in
passes until --seconds have gone by, and reports the end-to-end metrics.
With --trace 1 it makes one such pass for reference, then one traced
pass through the modules' public functions, the term micro timings and
the scaling series, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full record (every
pass, the output digests, the spans) goes to bench/out/.  See
bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import traced
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"

SETUP_REPEATS = 9
MIN_PASSES = 3
SPEC_TARGET_S = 0.5
MAX_SPEC_ROUNDS = 20
#: median seconds of one calibration sample on the machine the baseline
#: was measured on; the end-to-end times are reported at that speed
CALIBRATION_REF_S = 0.0085
CALIBRATION_SAMPLES = 25

END_TO_END = (
    ("setup_s", "s"),
    ("specialize_s", "s"),
    ("verify_run_s", "s"),
    ("par_groups", "count"),
    ("residual_bytes", "bytes"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    [
        ("fail_ratio", "ratio"),
        ("parser.parse_s", "s"),
        ("parser.clauses", "count"),
        ("analysis.success_s", "s"),
        ("analysis.table_rows", "count"),
        ("engine.pe_s", "s"),
        ("engine.transitions", "count"),
    ]
    + [(f"engine.transitions.{label}", "count") for label in traced.LABELS]
    + [
        ("engine.memo_size", "count"),
        ("engine.split_s", "s"),
        ("engine.split_hit_ratio", "ratio"),
        ("codegen.extract_s", "s"),
        ("codegen.format_s", "s"),
        ("codegen.residual_clauses", "count"),
        ("codegen.par_sites", "count"),
        ("interp.eq_s", "s"),
        ("interp.indep_s", "s"),
        ("interp.safe_s", "s"),
        ("interp.answers", "count"),
        ("interp.forks_checked", "count"),
        ("interp.rows_checked", "count"),
        ("interp.steps", "count"),
        ("interp.steps_per_s", "1/s"),
        ("terms.unify_us", "us"),
        ("terms.resolve_us", "us"),
        ("terms.term_vars_us", "us"),
        ("terms.canonical_us", "us"),
        ("cli.overhead_s", "s"),
        ("bench.calibration_ms", "ms"),
    ]
    + [
        (f"scale.{series}.n{n}_s", "s")
        for series, sizes in (
            ("interp_len", wl.SCALE_LEN),
            ("engine_chain", wl.SCALE_CHAIN),
            ("analysis_preds", wl.SCALE_PREDS),
        )
        for n in sizes
    ]
    + [
        (f"scale.{series}.exponent", "1")
        for series in ("interp_len", "engine_chain", "analysis_preds")
    ]
)


class SetupError(Exception):
    """The checkout lacks what the benchmark runs on."""


# ---------------------------------------------------------------------------
# operation accounting


@dataclass
class Ops:
    """Operations attempted and how they failed.

    `failed` counts failures the benchmark does not expect.  `known`
    counts failures of the known-defect probes, which fail on the
    current solver by design and still count in `fail_ratio`.
    """

    attempted: int = 0
    failed: int = 0
    known: int = 0
    examples: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str, known: bool = False) -> None:
        self.attempted += 1
        if ok:
            return
        if known:
            self.known += 1
        else:
            self.failed += 1
        if len(self.examples) < 10:
            self.examples.append(("known-defect " if known else "failure ") + what)

    @property
    def fail_ratio(self) -> float:
        return (self.failed + self.known) / self.attempted


# ---------------------------------------------------------------------------
# machine speed


def _walk(t: tuple) -> int:
    return 1 + sum(_walk(a) for a in t[1:] if isinstance(a, tuple))


def calibration_sample() -> float:
    """Seconds of a fixed piece of interpreter work in the solver's style:
    term tuples, recursive walks, binding-dict copies and set building.

    The speed of a shared machine drifts by tens of percent over minutes.
    This work never changes with the package under test, so the median
    of its samples over a run measures how fast the machine ran then.
    """
    t0 = time.perf_counter()
    binds: dict = {}
    for i in range(400):
        term = ("f", ("g", i, ("h", i + 1, ("k", i))), ("v", i % 17))
        binds = dict(binds)
        binds["V%d" % (i % 80)] = term
        _walk(term)
        {k for k in binds if k[-1] == str(i % 7)}
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# set-up


def import_package():
    """Import parpeval and its CLI afresh from the checkout's src/."""
    if not (SRC / "parpeval" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'parpeval'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "parpeval" or m.startswith("parpeval.")]:
        del sys.modules[name]
    pkg = importlib.import_module("parpeval")
    importlib.import_module("parpeval.cli")
    return pkg


def set_up(args: argparse.Namespace, work: Path, repeats: int):
    """Import, generate and write the inputs `repeats` times; keep the last.

    Returns the package, the jobs, their directory, the set-up times and
    one calibration sample per repeat.
    """
    if not (ROOT / "tests" / "corpus").is_dir():
        raise SetupError(f"no corpus at {ROOT / 'tests' / 'corpus'}")
    times, calibration = [], []
    for i in range(repeats):
        calibration.append(calibration_sample())
        t0 = time.perf_counter()
        pkg = import_package()
        jobs = wl.make_jobs(args.workload, ROOT, args.seed, args.size)
        where = work / f"setup{i}"
        where.mkdir()
        wl.write_jobs(jobs, where)
        times.append(time.perf_counter() - t0)
    return pkg, jobs, where, times, calibration


# ---------------------------------------------------------------------------
# one CLI invocation and its checks


def call_cli(pkg, argv: list[str]) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = pkg.cli.main(argv)
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


def verdict_problem(rc: int, out: str, err: str, n_queries: int) -> str | None:
    """Why a --verify run failed, or None when every check passed."""
    if rc != 0:
        return f"exit {rc}: {err.strip()[:200]}"
    ok_queries = 0
    for line in out.splitlines():
        if line.startswith("query "):
            if " ok (" not in line:
                return line[:200]
            ok_queries += 1
        elif line.startswith(("rejected ", "verify ")):
            return line[:200]
        elif line.startswith(("site ", "row ")) and not line.endswith(" violations 0"):
            return line[:200]
    if ok_queries != n_queries:
        return f"{ok_queries} of {n_queries} queries reported ok"
    return None


def output_digest(out: str, residual: str) -> str:
    """SHA-256 of the analysis table rows plus the residual text."""
    table = "".join(line + "\n" for line in out.splitlines() if " : gr " in line)
    return hashlib.sha256((table + residual).encode("utf-8")).hexdigest()


def check_answers(pkg, job: wl.Job, residual_path: Path, ops: Ops) -> None:
    """One operation per query: its answers over the emitted residual
    against the workload's plain-Python answer."""
    try:
        program = pkg.parse_program(residual_path.read_text(encoding="utf-8"))
    except (OSError, pkg.ParseError) as exc:
        for qtext, _ in job.queries:
            ops.record(False, f"reference {job.name} {qtext[:40]}: {exc!r}", known=job.probe)
        return
    entry = pkg.parse_entry_spec(job.entry)
    init = pkg.ExtendedAtom(traced.generic_atom(pkg, entry), entry.gr, entry.sh)
    # the name the CLI gives its single entry
    name = pkg.RenamingScheme(pkg.parse_program(job.source)).name(init)
    for qtext, key in job.queries:
        want = Counter({key: 1}) if key is not None else Counter()
        what = f"reference {job.name} {qtext[:40]}"
        try:
            atom = pkg.parse_atom(qtext)
            got = pkg.answer_multiset(program, [pkg.Atom(name, atom.args)])
        except RecursionError as exc:
            ops.record(False, f"{what}: {exc!r}", known=job.probe)
            continue
        except Exception as exc:  # a crash is this operation's failure
            ops.record(False, f"{what}: {exc!r}")
            continue
        ops.record(got == want, f"{what}: got {dict(got)} want {dict(want)}")


# ---------------------------------------------------------------------------
# one untraced pass


@dataclass
class Pass:
    #: seconds of each program's CLI runs without --verify, one per round
    specialize_s: dict[str, list[float]] = field(default_factory=dict)
    #: seconds of each program's CLI run with --verify
    verify_run_s: dict[str, float] = field(default_factory=dict)
    residual_bytes: int = 0
    par_groups: int = 0
    #: one calibration sample before each round and each --verify run
    calibration_s: list[float] = field(default_factory=list)


def run_pass(pkg, jobs: list[wl.Job], where: Path, ops: Ops,
             digests: dict[str, list[str]], first: bool, spec_rounds: int = 1) -> Pass:
    """Every program `spec_rounds` times without and once with --verify.

    Only these CLI calls of the non-probe jobs are timed.  The first pass
    also checks the reference answers and runs the probes, after the
    timed calls.  Each CLI call of the first pass is one operation; the
    calls of later passes are more timing samples of those operations
    and count only when they fail, so the operations of a run are the
    same whatever the number of passes and rounds.
    """
    result = Pass()
    main_jobs = [j for j in jobs if not j.probe]
    for round_ in range(spec_rounds):
        result.calibration_s.append(calibration_sample())
        for job in main_jobs:
            res = where / f"{job.name}.spec.res"
            argv = [str(where / f"{job.name}.pl"), "--entry", job.entry, "--out", str(res)]
            rc, dt, out, err = call_cli(pkg, argv)
            result.specialize_s.setdefault(job.name, []).append(dt)
            if (first and round_ == 0) or rc != 0:
                ops.record(rc == 0, f"specialize {job.name}: exit {rc} {err.strip()[:200]}")
            text = res.read_text(encoding="utf-8") if rc == 0 else ""
            digests[job.name].append(output_digest(out, text))
            if round_ == 0:
                result.residual_bytes += len(text.encode("utf-8"))
                result.par_groups += text.count("&")
    for job in main_jobs:
        res = where / f"{job.name}.verify.res"
        result.calibration_s.append(calibration_sample())
        rc, dt, out, err = verify_cli(pkg, job, where, res)
        result.verify_run_s[job.name] = dt
        problem = verdict_problem(rc, out, err, len(job.queries))
        if first or problem is not None:
            ops.record(problem is None, f"verify {job.name}: {problem}")
        digests[job.name].append(output_digest(out, res.read_text(encoding="utf-8") if rc == 0 else ""))
    if not first:
        return result
    for job in main_jobs:
        check_answers(pkg, job, where / f"{job.name}.verify.res", ops)
    for job in jobs:
        if job.probe:
            res = where / f"{job.name}.verify.res"
            rc, _, out, err = verify_cli(pkg, job, where, res)
            if rc != 0:
                ops.record(False, f"probe {job.name}: exit {rc} {err.strip()[:200]}", known=True)
            else:
                problem = verdict_problem(rc, out, err, len(job.queries))
                ops.record(problem is None, f"probe {job.name}: {problem}")
            check_answers(pkg, job, res, ops)
    return result


def verify_cli(pkg, job: wl.Job, where: Path, res: Path):
    return call_cli(pkg, [
        str(where / f"{job.name}.pl"), "--entry", job.entry,
        "--verify", wl.CHECKS, "--queries", str(where / f"{job.name}.q"),
        "--out", str(res),
    ])


# ---------------------------------------------------------------------------
# the two kinds of run


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end_run(args, pkg, jobs, where, setup_times, setup_calibration, ops, digests, record) -> dict:
    passes: list[Pass] = []
    rounds = 1
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        passes.append(run_pass(pkg, jobs, where, ops, digests, not passes, rounds))
        if len(passes) == 1:
            # repeat cheap specializations so each later pass times at
            # least SPEC_TARGET_S of them
            first = sum(sum(ts) for ts in passes[0].specialize_s.values())
            rounds = max(1, min(MAX_SPEC_ROUNDS, math.ceil(SPEC_TARGET_S / first)))
    record["passes"] = [vars(p) for p in passes]
    spec: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for name, ts in p.specialize_s.items():
            spec[name] += ts
    wall = {
        "setup_s": statistics.median(setup_times),
        # per program, the median over its runs; summed over programs
        "specialize_s": sum(statistics.median(ts) for ts in spec.values()),
        "verify_run_s": sum(
            statistics.median(p.verify_run_s[name] for p in passes)
            for name in passes[0].verify_run_s
        ),
    }
    calibration = statistics.median(setup_calibration + [c for p in passes for c in p.calibration_s])
    record["wall"] = wall
    record["calibration_s"] = calibration
    return {
        **{name: seconds * CALIBRATION_REF_S / calibration for name, seconds in wall.items()},
        # counts come from the first pass: later passes draw fresh
        # variable names from a counter the earlier ones moved
        "par_groups": passes[0].par_groups,
        "residual_bytes": passes[0].residual_bytes,
        "ok_ratio": 1.0 - ops.fail_ratio,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_run(args, pkg, jobs, where, ops, digests, record) -> dict:
    untraced = run_pass(pkg, jobs, where, ops, digests, first=True)
    tracer = traced.Tracer()
    counts, attempted, failed = traced.traced_pass(pkg, jobs, where, tracer)
    micro = traced.term_micro(pkg, wl.TERM_ITEMS[args.workload])
    series, s_attempted, s_failed = traced.scaling_series(pkg)
    fail_ratio = ops.fail_ratio
    ops.attempted += attempted + s_attempted
    ops.failed += failed + s_failed

    self_s = tracer.self_times()
    interp_s = sum(self_s.get(f"interp.{c}", 0.0) for c in ("eq", "indep", "safe"))
    metrics = {
        "fail_ratio": fail_ratio,
        "parser.parse_s": self_s.get("parser.parse", 0.0),
        "parser.clauses": counts["parse_clauses"],
        "analysis.success_s": self_s.get("analysis.success", 0.0),
        "analysis.table_rows": counts["table_rows"],
        "engine.pe_s": self_s.get("engine.pe", 0.0),
        "engine.transitions": counts["transitions"],
        **{f"engine.transitions.{l}": counts["transitions." + l] for l in traced.LABELS},
        "engine.memo_size": counts["memo_size"],
        "engine.split_s": self_s.get("engine.split", 0.0),
        "engine.split_hit_ratio": counts["split_found"] / max(counts["split_searched"], 1),
        "codegen.extract_s": self_s.get("codegen.extract", 0.0),
        "codegen.format_s": self_s.get("codegen.format", 0.0),
        "codegen.residual_clauses": counts["residual_clauses"],
        "codegen.par_sites": counts["par_sites"],
        "interp.eq_s": self_s.get("interp.eq", 0.0),
        "interp.indep_s": self_s.get("interp.indep", 0.0),
        "interp.safe_s": self_s.get("interp.safe", 0.0),
        "interp.answers": counts["answers"],
        "interp.forks_checked": counts["forks_checked"],
        "interp.rows_checked": counts["rows_checked"],
        "interp.steps": counts["steps"],
        "interp.steps_per_s": counts["steps"] / interp_s if interp_s > 0 else 0.0,
        **micro,
        # untraced CLI time less the traced stages: argument handling,
        # printing, and what the tracing itself added
        "cli.overhead_s": sum(untraced.verify_run_s.values())
        - sum(self_s.get(name, 0.0) for name in traced.CLI_STAGES),
        # the machine's speed during this run; the times above are wall
        # seconds, not scaled by it
        "bench.calibration_ms": statistics.median(
            calibration_sample() for _ in range(CALIBRATION_SAMPLES)
        ) * 1e3,
    }
    for name, points in series.items():
        for n, seconds in points:
            metrics[f"scale.{name}.n{n}_s"] = seconds
        metrics[f"scale.{name}.exponent"] = traced.loglog_slope(points)
    record["untraced_pass"] = vars(untraced)
    record["spans"] = tracer.spans
    record["series"] = series
    return metrics


# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the end-to-end run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=wl.SIZES, default="full", help="tiny is for the self-check")
    p.add_argument(
        "--wrong-reference",
        action="store_true",
        help="corrupt one expected answer; the run must report it as failed",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        try:
            pkg, jobs, where, setup_times, setup_calibration = set_up(
                args, work, 2 if args.size == "tiny" else SETUP_REPEATS
            )
        except (SetupError, ImportError) as exc:
            print(f"bench: cannot set up: {exc}", file=sys.stderr)
            return 2
        if args.wrong_reference:
            job = next(j for j in jobs if not j.probe)
            job.queries[0] = (job.queries[0][0], "not-the-answer")

        ops, digests = Ops(), defaultdict(list)
        record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                        "size": args.size, "setup_s": setup_times}
        if args.trace:
            values = per_layer_run(args, pkg, jobs, where, ops, digests, record)
            units = PER_LAYER
        else:
            values = end_to_end_run(
                args, pkg, jobs, where, setup_times, setup_calibration, ops, digests, record
            )
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["digests"] = {
        name: {"first": ds[0], "runs": len(ds), "distinct": len(set(ds)), "agree": len(set(ds)) == 1}
        for name, ds in digests.items()
    }
    record["failures"] = ops.examples
    record["known_failures"] = ops.known
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    if "wall" in record:
        print("wall " + " ".join(f"{k}={v:.6g}" for k, v in record["wall"].items())
              + f" calibration_s={record['calibration_s']:.6g}")
    for name, d in record["digests"].items():
        print(f"digest {args.workload}/{name} {d['first'][:16]} runs={d['runs']} "
              f"distinct={d['distinct']} agree={'yes' if d['agree'] else 'no'}")
    for line in ops.examples:
        print(line)
    print(f"record {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
