"""Command-line front end: parse, analyze, specialize, emit, verify.

Exit codes: 0 success, 2 usage, 3 parse error, 4 analysis or
specialization error, 5 verification failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Optional, Sequence

from .analysis import AnalysisError, Analyzer, parse_entry_spec, parse_pattern_file
from .codegen import CodegenError, extract_residual, format_guarded, format_residual
from .engine import ExtendedAtom, PELimitExceeded, format_trace, partially_evaluate
from .interp import CHECKS, SolverError, parse_step_limit_env, verify
from .parser import ParseError, parse_program, parse_query_lines
from .patterns import PatternTable
from .terms import Atom, NonlinearArgumentWarning, Var, format_atom

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_ANALYSIS = 4
EXIT_VERIFY = 5


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="parpeval",
        description="Parallelizing partial evaluator for definite logic programs.",
    )
    p.add_argument("program", help="input logic program")
    p.add_argument(
        "--entry",
        action="append",
        default=[],
        metavar="SPEC",
        help='entry call pattern, e.g. "fibonacci/2 gr {1} sh <{1},{2}>"'
        " (sharing defaults to all-independent); repeatable",
    )
    p.add_argument(
        "--patterns",
        metavar="FILE",
        help="success-pattern overrides and extra entry lines",
    )
    p.add_argument("--emit", choices=("plain", "guarded"), default="plain")
    p.add_argument(
        "--max-threads",
        type=int,
        default=4,
        metavar="N",
        help="thread bound baked into guarded output (default 4)",
    )
    p.add_argument(
        "--verify",
        metavar="CHECKS",
        help="comma-separated subset of eq,indep,safe; needs --queries",
    )
    p.add_argument("--queries", metavar="FILE", help="query file, one goal per line")
    p.add_argument("--out", metavar="FILE", help="residual program output (default stdout)")
    p.add_argument("--trace", metavar="FILE", help="write the transition trace here")
    return p


def _generic_vars(arity: int) -> tuple[Var, ...]:
    names = [chr(ord("A") + i) if i < 26 else f"V{i - 25}" for i in range(arity)]
    return tuple(Var(n) for n in names)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _usage_error(message: str) -> int:
    print(f"parpeval: {message}", file=sys.stderr)
    return EXIT_USAGE


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    # a run reports its own warnings, each once and without the location
    # that raised it, whatever ran before it in the process
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NonlinearArgumentWarning)
        try:
            return _run(args)
        except ParseError as exc:
            code, error = EXIT_PARSE, f"parse error: {exc}"
        except (AnalysisError, PELimitExceeded, CodegenError) as exc:
            code, error = EXIT_ANALYSIS, str(exc)
        except OSError as exc:
            code, error = EXIT_USAGE, str(exc)
        except Exception as exc:  # pragma: no cover - last resort
            code, error = EXIT_INTERNAL, f"internal error: {exc!r}"
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"parpeval: warning: {message}", file=sys.stderr)
    print(f"parpeval: {error}", file=sys.stderr)
    return code


def _run(args: argparse.Namespace) -> int:
    program = parse_program(_read(args.program))

    overrides, entries = PatternTable(), []
    if args.patterns:
        overrides, entries = parse_pattern_file(_read(args.patterns))
    for spec in args.entry:
        entries.append(parse_entry_spec(spec))
    if not entries:
        return _usage_error("no entry point given (use --entry or an entry line in --patterns)")
    if args.emit == "guarded" and args.max_threads < 1:
        return _usage_error("--max-threads must be at least 1")

    checks: list[str] = []
    if args.verify:
        for name in args.verify.split(","):
            name = name.strip()
            if name not in CHECKS:
                return _usage_error(f"unknown check {name!r} (choose from {','.join(CHECKS)})")
            checks.append(name)
        if not args.queries:
            return _usage_error("--verify needs --queries")
        try:
            max_steps = parse_step_limit_env()
        except SolverError as exc:
            return _usage_error(str(exc))

    queries = []
    if args.queries:
        entry_keys = {(e.pred, e.arity) for e in entries}
        for line, q in parse_query_lines(_read(args.queries)):
            if len(q) != 1:
                return _usage_error("query files must hold one atom per line")
            # a query that no entry runs would pass unchecked
            if checks and q[0].key not in entry_keys:
                return _usage_error(f"query {format_atom(q[0])} on line {line} matches no entry")
            queries.append(q[0])

    for e in entries:
        if not program.defines(e.pred, e.arity):
            raise AnalysisError(f"entry {e.pred}/{e.arity} is not defined by the program")

    analyzer = Analyzer(program, overrides=overrides)
    for e in entries:
        analyzer.success(e.pred, e.arity, e.gr, e.sh)

    traces = []
    try:
        for e in entries:
            init = ExtendedAtom(Atom(e.pred, _generic_vars(e.arity)), e.gr, e.sh)
            traces.append(partially_evaluate(program, init, analyzer))
        residual = extract_residual(traces)
    except RecursionError:
        # terms grow with each unfolding; the parser reports a source term alike
        raise PELimitExceeded("specialization gave up: a term is nested too deeply") from None
    if args.emit == "guarded":
        text = format_guarded(residual, args.max_threads)
    else:
        text = format_residual(residual)

    table = analyzer.table()
    print("% analysis table")
    print(table.format(), end="")

    if args.out:
        _write(args.out, text)
    else:
        print("% residual program")
        print(text, end="")

    if args.trace:
        _write(args.trace, "\n".join(format_trace(t) for t in traces))

    if not checks:
        return EXIT_OK

    all_ok = True
    for e in entries:
        mine = [q for q in queries if q.key == (e.pred, e.arity)]
        if not mine:
            print(f"verify {e.pred}/{e.arity}: no queries for this entry")
            all_ok = False
            continue
        try:
            reports = verify(program, residual, table, e.gr, e.sh, mine, checks, max_steps)
        except SolverError as exc:
            print(f"verify {e.pred}/{e.arity}: {exc}")
            all_ok = False
            continue
        for report in reports.values():
            for line in report.lines():
                print(line)
            all_ok &= report.ok
    return EXIT_OK if all_ok else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
