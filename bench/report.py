#!/usr/bin/env python3
"""Print every benchmark metric by name and unit, one row per workload.

    python3 bench/report.py [--seed 1] [--seconds 15]
    python3 bench/report.py --self-check

Each workload runs in its own process twice: once with --trace 0 for the
end-to-end metrics and once with --trace 1 for the per-layer metrics.
The metric names and units come from BENCHMARK.json.

--self-check runs every workload at tiny size and checks that each run
is correct and reports exactly the metrics BENCHMARK.json names, with
their units.  It then corrupts one expected answer and checks that the
run counts it as a failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, seed: int, seconds: float, trace: int, *extra: str) -> dict:
    argv = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(title: str, metrics: list[dict], rows: dict[str, dict]) -> str:
    header = ["workload"] + [f"{m['name']} [{m['unit']}]" for m in metrics]
    lines = [header]
    for workload, result in rows.items():
        values = result["metrics"]
        lines.append([workload] + [f"{values[m['name']]['value']:.6g}" for m in metrics])
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    out = [title]
    for line in lines:
        out.append("  ".join(cell.rjust(w) if i else cell.ljust(w)
                             for i, (cell, w) in enumerate(zip(line, widths))))
    return "\n".join(out)


def report(spec: dict, seed: int, seconds: float) -> None:
    names = [w["name"] for w in spec["workloads"]]
    e2e = {w: run(w, seed, seconds, 0) for w in names}
    layers = {w: run(w, seed, seconds, 1) for w in names}
    print(table("end to end (--trace 0)", spec["end_to_end"], e2e))
    print()
    print(table("per layer (--trace 1)", spec["per_layer"], layers))
    for title, rows in (("trace 0", e2e), ("trace 1", layers)):
        for w, r in rows.items():
            print(f"{title} {w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")


def self_check(spec: dict) -> None:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, 1, 1, trace, "--size", "tiny")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics differ from {key}: "
                                f"missing {sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}, units "
                                f"{sorted(n for n in want if n in got and got[n] != want[n])}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: not correct: {result}")
            print(f"{workload} trace {trace}: {len(got)} metrics, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
    result = run("corpus", 1, 1, 0, "--size", "tiny", "--wrong-reference")
    caught = not result["correct"] and result["failed"] >= 1
    caught = caught and result["metrics"]["ok_ratio"]["value"] < 1
    print(f"wrong reference answer: failed {result['failed']} of {result['attempted']}")
    if not caught:
        problems.append(f"a wrong reference answer went uncounted: {result}")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    if problems:
        raise SystemExit(1)
    print("self-check passed")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.self_check:
        self_check(spec)
    else:
        report(spec, args.seed, spec["run_seconds"] if args.seconds is None else args.seconds)


if __name__ == "__main__":
    main()
