"""Command-line behaviour: outputs, exit codes, determinism."""
import os
import pathlib
import re
import subprocess
import sys

import pytest

import corpus
import parpeval
from parpeval import interp
from parpeval import parse_program, parse_query
from parpeval.cli import main
from parpeval.patterns import format_groundness

CORPUS = pathlib.Path(__file__).parent / "corpus"
GOLDEN = pathlib.Path(__file__).parent / "golden"

FIB_ENTRY = "fibonacci/2 gr {1}"


def fib_args(*extra):
    return [str(CORPUS / "fib.pl"), "--entry", FIB_ENTRY, *extra]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_plain_run_prints_table_and_residual(capsys):
    assert main(fib_args()) == 0
    out = capsys.readouterr().out
    assert "% analysis table" in out
    assert "fibonacci/2 : gr {1} -> {1,2}" in out
    assert "% residual program" in out
    assert "fibonacci_1_1_2(0,1)." in out
    assert "&" in out


def test_out_writes_residual_to_file(tmp_path, capsys):
    out_file = tmp_path / "residual.pl"
    assert main(fib_args("--out", str(out_file))) == 0
    stdout = capsys.readouterr().out
    assert "% analysis table" in stdout
    assert "% residual program" not in stdout
    text = out_file.read_text(encoding="utf-8")
    assert "fibonacci_1_1_2(0,1)." in text
    assert text.endswith(".\n")


def test_trace_matches_golden_transcript(tmp_path, capsys):
    trace_file = tmp_path / "fib.trace"
    assert main(fib_args("--trace", str(trace_file))) == 0
    capsys.readouterr()
    got = trace_file.read_text(encoding="utf-8")
    want = (GOLDEN / "fib.trace").read_text(encoding="utf-8")
    assert got == want


def test_guarded_emission(capsys):
    assert main(fib_args("--emit", "guarded")) == 0
    out = capsys.readouterr().out
    assert "fibonacci_par(0,1)." in out
    assert "concurrent_k(" in out
    assert "max_threads(4)." in out
    assert "&" not in out


def test_guarded_thread_bound_is_adjustable(capsys):
    assert main(fib_args("--emit", "guarded", "--max-threads", "2")) == 0
    assert "max_threads(2)." in capsys.readouterr().out


def test_verify_all_checks_pass(tmp_path, capsys):
    queries = write(
        tmp_path / "q.pl",
        "fibonacci(0, N).\nfibonacci(5, N).\nfibonacci(9, N).\n",
    )
    assert main(fib_args("--verify", "eq,indep,safe", "--queries", queries)) == 0
    out = capsys.readouterr().out
    assert "query fibonacci(0,N) ok" in out
    assert "query fibonacci(5,N) ok (1 answers)" in out
    assert "site <2,1> checked" in out and "violations 0" in out
    assert "row fibonacci/2 {1}" in out


def test_verify_checks_a_fork_at_every_internal_node_of_the_walked_tree(tmp_path, capsys):
    # the whistle closes both recursive calls; they call the specialized
    # walk, which forks again, so each of the 4 + 3 internal nodes forks
    queries = write(
        tmp_path / "q.pl",
        "walk(node(node(leaf,leaf),node(leaf,node(leaf,leaf))), 0, N).\n"
        "walk(node(leaf,node(node(leaf,leaf),leaf)), z, M).\n",
    )
    argv = [str(GOLDEN / "walk.pl"), "--entry", "walk/3 gr {1,2}"]
    assert main([*argv, "--verify", "eq,indep,safe", "--queries", queries]) == 0
    out = capsys.readouterr().out
    assert "query walk(node(node(leaf,leaf),node(leaf,node(leaf,leaf))),0,N) ok (1 answers)" in out
    assert "site <1,0> checked 7 violations 0" in out


def test_verify_reports_nonconforming_queries(tmp_path, capsys):
    def run(checks, *goals):
        queries = write(tmp_path / "q.pl", "".join(g + ".\n" for g in goals))
        code = main(fib_args("--verify", checks, "--queries", queries))
        return code, capsys.readouterr().out

    for checks in ("eq", "eq,indep,safe"):
        code, out = run(checks, "fibonacci(3, N)", "fibonacci(M, N)")
        assert code == 0
        assert "rejected fibonacci(M,N) (position 1 must be ground)" in out

    # no check runs a rejected query: fibonacci(N, 8) would do arithmetic
    # over N, and fibonacci(3, 2) would add its forks and rows
    def counts(checks, *goals):
        code, out = run(checks, *goals)
        return code, [l for l in out.splitlines() if l.startswith(("site ", "row "))]

    for checks in ("eq,indep,safe", "indep", "safe"):
        alone = counts(checks, "fibonacci(3, N)")
        assert alone[0] == 0
        assert counts(checks, "fibonacci(3, N)", "fibonacci(N, 8)", "fibonacci(3, 2)") == alone


def test_verify_solves_each_query_once_per_program(tmp_path, capsys, monkeypatch):
    calls = []
    solve = interp.Solver.solve

    def counting(self, query):
        calls.append(self)
        return solve(self, query)

    monkeypatch.setattr(interp.Solver, "solve", counting)
    queries = write(
        tmp_path / "q.pl", "fibonacci(2, N).\nfibonacci(4, N).\nfibonacci(6, N).\n"
    )
    assert main(fib_args("--verify", "eq,indep,safe", "--queries", queries)) == 0
    capsys.readouterr()
    assert len(calls) == 6  # one source and one residual run per query
    assert len(set(map(id, calls))) == 2  # by one solver per program


def test_verify_without_matching_queries_fails(tmp_path, capsys):
    # a query of another predicate is a usage error: see below
    queries = write(tmp_path / "q.pl", "% no query for the entry\n")
    assert main(fib_args("--verify", "eq", "--queries", queries)) == 5
    assert "no queries for this entry" in capsys.readouterr().out


def test_verify_of_a_1000_item_list_runs_to_completion(tmp_path, capsys):
    program = write(tmp_path / "len.pl", "len([], 0).\nlen([_|T], N) :- len(T, M), N is M+1.\n")
    items = ",".join(str(i % 10) for i in range(1000))
    queries = write(tmp_path / "q.pl", f"len([{items}], N).\n")
    args = [program, "--entry", "len/2 gr {1}", "--verify", "eq,indep,safe", "--queries", queries]
    assert main(args) == 0
    assert "N) ok (1 answers)" in capsys.readouterr().out


def test_verify_of_a_deeply_nested_answer_gives_a_verdict(tmp_path, capsys):
    program = write(
        tmp_path / "nest.pl",
        "nest(0, z).\nnest(N, f(X)) :- N > 0, M is N-1, nest(M, X).\n",
    )
    queries = write(tmp_path / "q.pl", "nest(3000, T).\n")
    args = [program, "--entry", "nest/2 gr {1}", "--verify", "eq,indep,safe", "--queries", queries]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "query nest(3000,T) ok (1 answers)" in captured.out
    assert "internal error" not in captured.out + captured.err


# each resultant of an entity is emitted once: two identical resultants
# both stay, and an entity two entries reach is unfolded by the first
@pytest.mark.parametrize(
    "source, entries, queries, verdicts",
    [
        (
            "p(X, X). p(X, X).",
            ["p/2 gr {}"],
            ["p(A, B)"],
            ["query p(A,B) ok (2 answers)"],
        ),
        (
            "q1(A, Z) :- p(f(A), Z). q2(C, W) :- p(f(C), W). p(X, Y) :- r(X, Y). r(f(1), a).",
            ["q1/2 gr {1}", "q2/2 gr {1}"],
            ["q1(1, Y)", "q2(1, Y)"],
            ["query q1(1,Y) ok (1 answers)", "query q2(1,Y) ok (1 answers)"],
        ),
    ],
)
def test_verify_counts_each_resultant_once(tmp_path, capsys, source, entries, queries, verdicts):
    program = write(tmp_path / "p.pl", source)
    qfile = write(tmp_path / "q.pl", "".join(q + ".\n" for q in queries))
    argv = [program, *(a for e in entries for a in ("--entry", e))]
    assert main([*argv, "--verify", "eq", "--queries", qfile]) == 0
    out = capsys.readouterr().out
    for verdict in verdicts:
        assert verdict in out


# -- exit codes


def test_missing_program_file_is_a_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope.pl"), "--entry", FIB_ENTRY]) == 2
    assert "parpeval:" in capsys.readouterr().err


def test_no_entry_is_a_usage_error(capsys):
    assert main([str(CORPUS / "fib.pl")]) == 2
    assert "no entry point" in capsys.readouterr().err


def test_unknown_check_is_a_usage_error(tmp_path, capsys):
    queries = write(tmp_path / "q.pl", "fibonacci(3, N).\n")
    assert main(fib_args("--verify", "eq,typo", "--queries", queries)) == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_without_queries_is_a_usage_error(capsys):
    assert main(fib_args("--verify", "eq")) == 2
    assert "--queries" in capsys.readouterr().err


def test_multi_atom_query_line_is_a_usage_error(tmp_path, capsys):
    queries = write(tmp_path / "q.pl", "fibonacci(3, N), fibonacci(4, N).\n")
    assert main(fib_args("--verify", "eq", "--queries", queries)) == 2
    assert "one atom per line" in capsys.readouterr().err


def test_query_that_matches_no_entry_is_a_usage_error_before_any_output(tmp_path, capsys):
    # fibonacci/3 and foo/1 are not the entry: no check would run them
    text = "fibonacci(3, N).\n% a comment\nfoo(1).\nfibonacci(3, N, M).\n"
    queries = write(tmp_path / "q.pl", text)
    out = tmp_path / "res.pl"
    assert main(fib_args("--verify", "eq", "--queries", queries, "--out", str(out))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parpeval: query foo(1) on line 3 matches no entry\n"
    assert not out.exists()
    # without --verify the queries are not run, so nothing is wrong
    assert main(fib_args("--queries", queries)) == 0


def test_bad_thread_bound_is_a_usage_error(capsys):
    assert main(fib_args("--emit", "guarded", "--max-threads", "0")) == 2
    assert "--max-threads" in capsys.readouterr().err


# guarded output defines these itself: a second definition in the source
# would shadow the thread bound or take over every fork
@pytest.mark.parametrize(
    "clause, key",
    [
        ("max_threads(99).", "max_threads/1"),
        ("concurrent_k(A, B, C).", "concurrent_k/3"),
        ("current_threads(0).", "current_threads/1"),
    ],
)
def test_guarded_output_refuses_a_source_that_defines_a_guard_predicate(
    tmp_path, capsys, clause, key
):
    fib = (CORPUS / "fib.pl").read_text(encoding="utf-8")
    program = write(tmp_path / "p.pl", fib + clause + "\n")
    assert main([program, "--entry", FIB_ENTRY, "--emit", "guarded"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parpeval: guarded output reserves {key}, which the program defines\n"
    # the plain residual never calls them, and neither does guarded
    # output of a residual with no fork, which prints no guard
    assert main([program, "--entry", FIB_ENTRY]) == 0
    palin = (CORPUS / "palin.pl").read_text(encoding="utf-8")
    program = write(tmp_path / "q.pl", palin + clause + "\n")
    entry = "palindrome/1 gr {1}"
    assert main([program, "--entry", entry, "--emit", "guarded"]) == 0


@pytest.mark.parametrize("cap", ["0", "abc"])
def test_bad_step_cap_is_a_usage_error_before_any_output(tmp_path, capsys, monkeypatch, cap):
    monkeypatch.setenv("PARPEVAL_DEPTH_CAP", cap)
    queries = write(tmp_path / "q.pl", "fibonacci(3, N).\n")
    out = tmp_path / "res.pl"
    assert main(fib_args("--verify", "eq", "--queries", queries, "--out", str(out))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parpeval: PARPEVAL_DEPTH_CAP must be a positive integer, got {cap!r}\n"
    assert not out.exists()
    # the cap is read only when verifying
    assert main(fib_args()) == 0


def test_parse_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path / "bad.pl", "p(X :- q(X).\n")
    assert main([bad, "--entry", "p/1 gr {1}"]) == 3
    assert "parse error" in capsys.readouterr().err


def test_digit_that_is_not_decimal_is_a_parse_error(tmp_path, capsys):
    # '²' is a digit (str.isdigit) but no integer literal: int() rejects it
    bad = write(tmp_path / "bad.pl", "p(X) :- X is ²+1.\n")
    assert main([bad, "--entry", "p/1 gr {}"]) == 3
    err = capsys.readouterr().err
    assert "unexpected character '²' at line 1, column 14" in err
    assert "internal error" not in err


def test_query_file_parse_error_names_the_line_and_column_of_the_file(tmp_path, capsys):
    queries = write(tmp_path / "q.pl", "fibonacci(3,N).\n% a comment\n\n   fibonacci(4 N).\n")
    assert main(fib_args("--verify", "eq", "--queries", queries)) == 3
    assert "expected ')', found 'N' at line 4, column 16" in capsys.readouterr().err


def test_residual_spaces_a_negative_right_operand_from_its_operator(tmp_path, capsys):
    # standard Prolog reads `Z--1` and `A//-2` with `--` and `//-` as one token
    program = write(tmp_path / "neg.pl", "p(X,Y) :- q(Y,Z), X is Z - -1.\nq(A,B) :- B is A // -2.\n")
    assert main([program, "--entry", "p/2 gr {2}"]) == 0
    out = capsys.readouterr().out
    assert "X is Z- -1." in out
    assert "B is A// -2." in out


def nested(depth):
    return "f(" * depth + "a" + ")" * depth


def nesting_depth(t):
    depth = 0
    while t.args:
        (t,) = t.args
        depth += 1
    return depth


def specialize_and_verify(tmp_path, capsys, program, entry, query):
    """Exit code, stdout lines and stderr of specializing `program` at
    `entry` and running every check on the one query `query`."""
    args = [write(tmp_path / "p.pl", program), "--entry", entry,
            "--verify", "eq,indep,safe", "--queries", write(tmp_path / "q.pl", query + ".\n")]
    rc = main(args)
    out, err = capsys.readouterr()
    return rc, out.splitlines(), err


def test_deeply_nested_term_is_read_and_a_deep_head_specializes(tmp_path, capsys):
    # the reader keeps its own stack, so depth is not bounded by recursion
    (clause,) = parse_program(f"p({nested(5000)}).").clauses
    assert nesting_depth(clause.head.args[0]) == 5000
    (atom,) = parse_query(f"p({nested(5000)})")
    assert nesting_depth(atom.args[0]) == 5000

    head = write(tmp_path / "head.pl", f"p({nested(600)}).\n")
    assert main([head, "--entry", "p/1 gr {}"]) == 0
    assert "internal error" not in capsys.readouterr().err
    # clause compilation keeps its own stack, so a head deeper than the
    # recursion limit is checked too
    head = "f(" * 1200 + "X" + ")" * 1200
    rc, out, err = specialize_and_verify(tmp_path, capsys, f"p({head}).\n", "p/1 gr {}", "p(A)")
    assert (rc, err) == (0, "")
    assert f"p__1({head})." in out
    assert "query p(A) ok (1 answers)" in out
    # memo keys are text, so the specializer takes a deep body term too
    body = f"p(X) :- q({nested(600)}).\nq(_).\n"
    rc, out, err = specialize_and_verify(tmp_path, capsys, body, "p/1 gr {}", "p(X)")
    assert (rc, err) == (0, "")
    assert f"p__1(X) :- q_1_1({nested(600)})." in out
    assert "query p(X) ok (1 answers)" in out


def test_specialization_that_builds_a_deep_term_passes_every_check(tmp_path, capsys):
    # each unfolding wraps the argument in one more f/1
    depth = 500
    chain = "".join(f"p{i}(X) :- p{i + 1}(f(X)).\n" for i in range(depth))
    program = chain + f"p{depth}(_).\n"
    rc, out, err = specialize_and_verify(tmp_path, capsys, program, "p0/1 gr {}", "p0(X)")
    assert (rc, err) == (0, "")
    last = "f(" * depth + "X" + ")" * depth
    assert f"p{depth}__1({last})." in out
    assert "query p0(X) ok (1 answers)" in out


def test_a_static_list_too_deep_for_the_whistle_is_an_analysis_error(tmp_path, capsys):
    # msg and the embedding check still recurse over term depth: the
    # embedding test of q(L,f(X)) against q(L,X) walks the 600-item list
    items = ",".join(["1"] * 600)
    prog = write(tmp_path / "deep.pl", f"q(L,X) :- q(L,f(X)).\nq(_,g).\nt(X) :- q([{items}],X).\n")
    assert main([prog, "--entry", "t/1 gr {}"]) == 4
    err = capsys.readouterr().err
    assert "a term is nested too deeply" in err
    assert "internal error" not in err


# mm/4 links X to P and Z to Q; v/2 then binds P to Q, so X and Z may
# share from there on: binding makes sharing transitive
ALIASED_THROUGH_A_BINDING = "q(X,Z) :- mm(X,Z,P,Q), v(P,Q){}.\nmm(A,B,f(A),f(B)).\nv(P,P).\n{}"


@pytest.mark.parametrize(
    "goals, facts, expected",
    [
        # a(X) and b(Z) may not run in parallel
        (", a(X), b(Z)", "a(1).\nb(1).\n", "q__1_2(X,Z) :- mm__1_2_3_4(X,Z,P,Q), v__1_2(P,Q), a__1(X), b__1(Z)."),
        # the answer's positions may share
        ("", "", "q/2 : gr {} -> {} ; sh <{1},{2}> -> <{1,2},{1,2}>"),
    ],
    ids=["no_fork", "answer_shares"],
)
def test_sharing_made_transitive_by_a_binding_passes_every_check(tmp_path, capsys, goals, facts, expected):
    program = write(tmp_path / "p.pl", ALIASED_THROUGH_A_BINDING.format(goals, facts))
    queries = write(tmp_path / "q.pl", "q(X,Z).\n")
    args = [program, "--entry", "q/2 gr {}", "--verify", "eq,indep,safe", "--queries", queries]
    assert main(args) == 0
    assert expected in capsys.readouterr().out.splitlines()


def test_undefined_entry_is_an_analysis_error(capsys):
    # a builtin has a success model but no clauses to specialize
    for spec in ("nosuch/1 gr {1}", "is/2 gr {2}"):
        assert main([str(CORPUS / "fib.pl"), "--entry", spec]) == 4
        assert "not defined" in capsys.readouterr().err


def test_bad_entry_spec_is_an_analysis_error(capsys):
    assert main([str(CORPUS / "fib.pl"), "--entry", "fibonacci/two"]) == 4


def test_malformed_sharing_groups_are_an_analysis_error(tmp_path, capsys):
    # text between groups, and a group 2 that does not mirror group 1
    assert main([str(CORPUS / "fib.pl"), "--entry", "fibonacci/2 gr {1} sh <{1},junk{2}>"]) == 4
    assert "bad entry spec" in capsys.readouterr().err
    row = "fibonacci/2 : gr {1} -> {1,2} ; sh <{1,2},{2}> -> <{1},{2}>\n"
    patterns = write(tmp_path / "pat", "entry fibonacci/2 gr {1}\n" + row)
    assert main([str(CORPUS / "fib.pl"), "--patterns", patterns]) == 4
    assert "line 2: share groups" in capsys.readouterr().err


def test_safeness_rows_follow_the_table_order(tmp_path, capsys):
    queries = write(tmp_path / "q.pl", "palindrome([1,2,1]).\npalindrome([1,2]).\n")
    args = [str(CORPUS / "palin.pl"), "--entry", "palindrome/1 gr {1}"]
    assert main(args + ["--verify", "safe", "--queries", queries]) == 0
    out = capsys.readouterr().out.splitlines()
    table = out[1 : out.index("% residual program")]
    want = [
        "row %s %s %s" % m.groups()
        for m in (re.match(r"(\S+) : gr (\S+) -> \S+ ; sh (\S+) -> \S+$", t) for t in table)
    ]
    assert [line.split(" checked")[0] for line in out if line.startswith("row ")] == want
    assert want[:2] == [
        "row append/3 {1,2} <{1},{2},{3}>",
        "row append/3 {1,2,3} <{1},{2},{3}>",
    ]


def test_a_ground_variable_links_no_positions_so_the_callee_forks(tmp_path, capsys):
    # X is ground at the call, so f(X,Y) and g(X,Z) share no variable:
    # q is specialized with no sharing and r(B), s(C) run in parallel
    prog = write(
        tmp_path / "p.pl",
        "p(X, Y, Z) :- q(f(X, Y), g(X, Z)).\n"
        "q(f(A, B), g(A, C)) :- r(B), s(C).\nr(1). r(2). s(3).\n",
    )
    queries = write(tmp_path / "q.pl", "p(1,Y,Z).\np(7,Y,Z).\n")
    args = [prog, "--entry", "p/3 gr {1}", "--verify", "eq,indep,safe", "--queries", queries]
    assert main(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert "q/2 : gr {} -> {} ; sh <{1},{2}> -> <{1,2},{1,2}>" in out
    assert "q__1_2(f(A,B),g(A,C)) :- (r__1(B) & s__1(C))." in out
    assert "site <1,0> checked 2 violations 0" in out


def test_a_source_group_of_three_sides_verifies(tmp_path, capsys):
    # the source runs its three-sided group; the residual forks the
    # specialized body in two
    prog = write(
        tmp_path / "p.pl",
        "p(X,Y,Z) :- (a(X) & b(X,Y) & c(Z)).\na(1). a(2).\nb(1,3). b(2,4).\nc(5).\n",
    )
    queries = write(tmp_path / "q.pl", "p(X,Y,Z).\n")
    args = [prog, "--entry", "p/3 gr {}", "--verify", "eq,indep,safe", "--queries", queries]
    assert main(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert "p__1_2_3(X,Y,Z) :- (a__1(X), b_1_1_2(X,Y) & c__1(Z))." in out
    assert "query p(X,Y,Z) ok (2 answers)" in out
    assert "site <0,0> checked 1 violations 0" in out


def test_a_call_after_a_fork_is_specialized_under_the_join(tmp_path, capsys):
    # a and b ground Y and Z in parallel; c(f(Y),g(Y)) then shares nothing
    prog = write(
        tmp_path / "p.pl",
        "a(X,Y) :- Y is X+1.\nb(X,Z) :- Z is X*2.\nc(A,B).\n"
        "p(X) :- a(X,Y), b(X,Z), c(f(Y),g(Y)).\n",
    )
    queries = write(tmp_path / "q.pl", "p(1).\n")
    args = [prog, "--entry", "p/1 gr {1}", "--verify", "eq,indep,safe", "--queries", queries]
    assert main(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert "p_1_1(X) :- (a_1_1_2(X,Y) & b_1_1_2(X,Z)), c_1_2_1_2(f(Y),g(Y))." in out
    assert "c_1_2_1_2(f(Y),g(Y))." in out
    assert [line for line in out if line.startswith("c/2 ")] == [
        "c/2 : gr {1,2} -> {1,2} ; sh <{1},{2}> -> <{1},{2}>"
    ]


ALIAS = "p(X,Y) :- q(X,Y), r(X), s(Y).\nq(A,B).\nr(1).\ns(2).\n"


# small programs run end to end: the exit code, the lines that show what
# each case is about, and how many lines of output fork
@pytest.mark.parametrize(
    "source, entry, patterns, checks, queries, cap, code, lines, forks",
    [
        pytest.param(
            # a call term that grows by a cell per step reaches its budget
            "p(1, X) :- p(Y, f(X)).\n", "p/2 gr {}", None, "eq,indep,safe",
            "p(A1, f(B1)).\n", "3000", 5,
            ["verify p/2: exceeded 3000 resolution steps"], 0,
            id="growing_call_reaches_the_step_cap",
        ),
        pytest.param(
            # arithmetic over a variable the clause never binds
            "p(X,Y) :- Y is X+Z.\n", "p/2 gr {1}", None, "eq", "p(1,Y).\n", None, 5,
            ["verify p/2: arithmetic over unbound variable _G1"], 0,
            id="arithmetic_over_an_unbound_variable",
        ),
        pytest.param(
            "p(X) :- (X + 1) > 0.\n", "p/1 gr {1}", None, "eq", "p(3).\n", None, 0,
            ["p_1_1(X) :- X+1 > 0.", "query p(3) ok (1 answers)"], 0,
            id="goal_with_a_bracketed_left_operand",
        ),
        pytest.param(
            # the split search walks the prefix and forks one chain
            # against the other
            "q(X,Y) :- Y is X+1.\n"
            "r(X0,Y0,X3,Y3) :- q(X0,X1), q(X1,X2), q(X2,X3), q(Y0,Y1), q(Y1,Y2), q(Y2,Y3).\n",
            "r/4 gr {1,2}", None, "eq,indep,safe", "r(1,5,A,B).\n", None, 0,
            [
                "r_1_2_1_2_3_4(X0,Y0,X3,Y3) :- (q_1_1_2(X0,X1), q_1_1_2(X1,X2), q_1_1_2(X2,X3)"
                " & q_1_1_2(Y0,Y1), q_1_1_2(Y1,Y2), q_1_1_2(Y2,Y3)).",
                "site <0,0> checked 1 violations 0",
            ],
            1,
            id="long_body_of_two_chains_forks",
        ),
        pytest.param(
            # a row saying q links its arguments keeps r and s apart
            ALIAS, "p/2 gr {}", "q/2 : gr {} -> {} ; sh <{1},{2}> -> <{1,2},{1,2}>\n",
            "eq,indep,safe", "p(X,Y).\n", None, 0,
            ["p__1_2(X,Y) :- q__1_2(X,Y), r__1(X), s__1(Y)."], 0,
            id="linking_row_keeps_the_calls_apart",
        ),
        pytest.param(
            # without that row, r(X) and s(Y) fork
            ALIAS, "p/2 gr {}", None, None, None, None, 0,
            ["p__1_2(X,Y) :- q__1_2(X,Y), (r__1(X) & s__1(Y))."], 1,
            id="without_a_linking_row_the_calls_fork",
        ),
        pytest.param(
            # each side of the fork starts with is/2, which binds the
            # call after it
            "p(X,Y,Z) :- A is X+1, q(A,Y), B is X*2, r(B,Z).\n"
            "q(A,Y) :- Y is A+10.\nr(B,Z) :- Z is B-1.\n",
            "p/3 gr {1}", None, "eq,indep,safe", "p(1,Y,Z).\np(5,Y,Z).\n", None, 0,
            [
                "p_1_1_2_3(X,Y,Z) :- (_G1 is X+1, q_1_1_2(_G1,Y) & _G2 is X*2, r_1_1_2(_G2,Z)).",
                "site <0,0> checked 2 violations 0",
            ],
            1,
            id="sides_that_start_with_is_fork",
        ),
    ],
)
def test_small_programs_end_to_end(
    tmp_path, capsys, monkeypatch, source, entry, patterns, checks, queries, cap, code, lines, forks
):
    argv = [write(tmp_path / "p.pl", source), "--entry", entry]
    if patterns is not None:
        argv += ["--patterns", write(tmp_path / "pat", patterns)]
    if checks is not None:
        argv += ["--verify", checks, "--queries", write(tmp_path / "q.pl", queries)]
    if cap is None:
        monkeypatch.delenv("PARPEVAL_DEPTH_CAP", raising=False)
    else:
        monkeypatch.setenv("PARPEVAL_DEPTH_CAP", cap)
    assert main(argv) == code
    out = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line not in out] == []
    assert sum("&" in line for line in out) == forks


def test_verification_failure_exit_code(tmp_path, capsys):
    # claim p/1 grounds its argument; it provably does not
    prog = write(tmp_path / "p.pl", "p(X) :- r(X, _).\nr(f(Z), Z).\n")
    patterns = write(
        tmp_path / "pat",
        "entry p/1 gr {}\np/1 : gr {} -> {1} ; sh <{1}> -> <{1}>\n",
    )
    queries = write(tmp_path / "q.pl", "p(A).\n")
    code = main(
        [prog, "--patterns", patterns, "--verify", "safe", "--queries", queries]
    )
    assert code == 5
    out = capsys.readouterr().out
    # the wrong row is charged with the violation; honest rows stay clean
    assert "row p/1 {} <{1}> checked 1 violations 1" in out


def test_entry_can_come_from_the_pattern_file(tmp_path, capsys):
    patterns = write(tmp_path / "pat", "entry fibonacci/2 gr {1}\n")
    assert main([str(CORPUS / "fib.pl"), "--patterns", patterns]) == 0
    assert "fibonacci_1_1_2" in capsys.readouterr().out


def test_pattern_file_errors_name_the_line_of_the_file(tmp_path, capsys):
    # comments, blank lines and entry lines count: the bad row is line 5
    head = "% overrides\n\nentry fibonacci/2 gr {1}\n"
    good = "fibonacci/2 : gr {1} -> {1,2} ; sh <{1},{2}> -> <{1},{2}>\n"
    for bad, want in [
        ("fibonacci/2 : gr {1} -> oops", "line 5: bad pattern table row"),
        ("fibonacci/2 : gr {3} -> {1,2} ; sh <{1},{2}> -> <{1},{2}>", "line 5: positions"),
    ]:
        patterns = write(tmp_path / "pat", head + good + bad + "\n")
        assert main([str(CORPUS / "fib.pl"), "--patterns", patterns]) == 4
        assert want in capsys.readouterr().err


def test_verify_rejects_a_query_argument_that_repeats_a_variable(tmp_path, capsys):
    # no sharing pattern describes [A|A]; run, it would alias both sides
    # of the fork through X and Y
    prog = write(tmp_path / "p.pl", "p([X|Y],X) :- p(X,X), p(Y,Y).\n")
    queries = write(tmp_path / "q.pl", "p([A|A],B).\np([A|C],B).\n")
    code = main([prog, "--entry", "p/2 gr {}", "--verify", "eq,indep", "--queries", queries])
    out = capsys.readouterr().out
    assert "rejected p([A|A],B) (position 1 repeats A)" in out
    assert "site <0,0> checked 1 violations 0" in out
    assert code == 0


def test_verify_reports_rejected_queries_whatever_checks_run(tmp_path, capsys):
    queries = write(tmp_path / "q.pl", "fibonacci(X, N).\nfibonacci(3, 3).\n")
    rejected = [
        "rejected fibonacci(X,N) (position 1 must be ground)",
        "rejected fibonacci(3,3) (position 2 must be non-ground)",
    ]
    for checks in ("eq", "indep,safe", "indep", "safe", "eq,indep,safe"):
        # every query is rejected, so nothing was verified
        assert main(fib_args("--verify", checks, "--queries", queries)) == 5, checks
        out = capsys.readouterr().out.splitlines()
        verdicts = out[out.index("% residual program") + 1 :]
        verdicts = [l for l in verdicts if l.startswith(("query ", "rejected ", "site ", "row "))]
        # after the query lines, before the site and row lines
        assert verdicts[: len(rejected)] == rejected, checks


def test_verify_shows_the_examples_of_a_violated_row(tmp_path, capsys):
    prog = write(tmp_path / "app.pl", "app([], L, L).\napp([H|T], L, [H|R]) :- app(T, L, R).\n")
    # the row claims position 3 ground on success; app([1,2], X, Y) leaves it open
    patterns = write(
        tmp_path / "pat", "app/3 : gr {1} -> {1,3} ; sh <{1},{2},{3}> -> <{1},{2},{3}>\n"
    )
    queries = write(tmp_path / "q.pl", "app([1,2], X, Y).\n")
    argv = [prog, "--entry", "app/3 gr {1}", "--patterns", patterns, "--queries", queries]
    assert main([*argv, "--verify", "safe"]) == 5
    out = capsys.readouterr().out.splitlines()
    at = out.index("row app/3 {1} <{1},{2},{3}> checked 3 violations 3")
    assert out[at + 1 :] == [
        "  answer position 3 not ground in app([],_G2,_G2)",
        "  answer position 3 not ground in app([2],_G2,[2|_G2])",
        "  answer position 3 not ground in app([1,2],_G2,[1,2|_G2])",
    ]


# -- the emitted text is identical across runs


def run_cli(args, cwd):
    code = (
        "import sys\n"
        "from parpeval.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    # the child runs elsewhere, so a relative PYTHONPATH would not find
    # the package; put the root it was imported from first
    root = str(pathlib.Path(parpeval.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, inherited])))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        check=True,
    )


def test_output_is_deterministic_in_one_process(tmp_path, capsys):
    queries = write(tmp_path / "q.pl", "quicksort([3,1,2], S).\nquicksort([2,2,0,5], S).\n")
    texts = []
    for i in (1, 2):
        trace = tmp_path / f"t{i}.trace"
        argv = [str(CORPUS / "qsort.pl"), "--entry", "quicksort/2 gr {1}", "--trace", str(trace)]
        assert main([*argv, "--verify", "eq,indep,safe", "--queries", queries]) == 0
        texts.append((capsys.readouterr().out, trace.read_bytes()))
    assert texts[0] == texts[1]


def test_solver_error_names_the_same_variable_on_every_run(tmp_path, capsys):
    program = write(tmp_path / "p.pl", "p(X) :- q(Y), X is Y + 1. q(_).")
    queries = write(tmp_path / "q.pl", "p(Z).\n")
    for _ in (1, 2):
        assert main([program, "--entry", "p/1 gr {}", "--verify", "eq", "--queries", queries]) == 5
        assert "verify p/1: arithmetic over unbound variable _G1" in capsys.readouterr().out


def test_each_run_reports_its_own_warnings_once(tmp_path, capsys):
    # both heads raise one message and the selected p(f(Y,Y)) another;
    # the warnings module alone would print each on the first run only,
    # with the location of the code that raised it
    program = write(tmp_path / "nl.pl", "p(f(X,X)). p(g(X,X)). q(Y) :- p(f(Y,Y)).")
    want = "".join(
        f"parpeval: warning: repeated variable inside argument(s) [1] of p/1 ({where});"
        " sharing analysis treats arguments as linear\n"
        for where in ("clause head", "selected atom")
    )
    for _ in (1, 2):
        assert main([program, "--entry", "q/1 gr {}"]) == 0
        assert capsys.readouterr().err == want
    proc = run_cli([program, "--entry", "q/1 gr {}"], cwd=tmp_path)
    assert proc.stderr == want
    assert ".py:" not in proc.stderr


def test_output_is_deterministic_across_processes(tmp_path):
    texts = []
    for i in (1, 2):
        out = tmp_path / f"res{i}.pl"
        trace = tmp_path / f"t{i}.trace"
        proc = run_cli(
            [
                str(CORPUS / "qsort.pl"),
                "--entry",
                "quicksort/2 gr {1}",
                "--out",
                str(out),
                "--trace",
                str(trace),
            ],
            cwd=tmp_path,
        )
        texts.append((proc.stdout, out.read_bytes(), trace.read_bytes()))
    assert texts[0] == texts[1]


# the specializer's output, pinned byte for byte: a program in the shape
# of the benchmark's many-predicates workload, one clause body of two
# independent chains of six goals, one body atom that a branch closes
# by failure and a later branch by embedding (its last closing decides
# the name: its generalization's `q_1_1`), a tree walk whose recursive
# calls the whistle closes and which forks at every level, the nine
# corpus programs at their test entries, and two entries that reach one
# entity under different variable names (the first trace that unfolds
# it gives its resultants); each fresh `_G` name is drawn from the
# terms at hand, so the goldens hold in any process; each program's
# `--emit guarded` output is pinned beside it
@pytest.mark.parametrize(
    "name, entries",
    [
        ("preds12", "p0/3 gr {1}"),
        ("twochain6", "r/4 gr {1,2}"),
        ("fail_then_embed", "p/1 gr {}"),
        ("walk", "walk/3 gr {1,2}"),
        *[
            (name, f"{b.entry.pred}/{b.entry.arity} gr {format_groundness(b.entry.gr)}")
            for name, b in corpus.BENCHES.items()
        ],
        pytest.param(
            "two_entries", ("p/1 gr {1}", "q/1 gr {1}"), id="two_entries-p/1 gr {1}-q/1 gr {1}"
        ),
    ],
)
def test_specializer_output_matches_golden(tmp_path, name, entries):
    program = CORPUS / f"{name}.pl" if name in corpus.BENCHES else GOLDEN / f"{name}.pl"
    if isinstance(entries, str):
        entries = (entries,)
    trace = tmp_path / f"{name}.trace"
    proc = run_cli(
        [str(program), *[a for e in entries for a in ("--entry", e)], "--trace", str(trace)],
        cwd=tmp_path,
    )
    assert proc.stdout == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert proc.stderr == ""
    assert trace.read_bytes() == (GOLDEN / f"{name}.trace").read_bytes()
    guarded = run_cli(
        [str(program), *[a for e in entries for a in ("--entry", e)], "--emit", "guarded"],
        cwd=tmp_path,
    )
    assert guarded.stdout == (GOLDEN / f"{name}.guarded").read_text(encoding="utf-8")
    assert guarded.stderr == ""
