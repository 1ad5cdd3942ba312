"""Call/success pattern inference over whole programs."""
import pytest

from corpus import worst_sharing
from parpeval import (
    AnalysisError,
    Analyzer,
    parse_entry_spec,
    parse_groundness,
    parse_pattern_file,
    parse_program,
    parse_sharing,
)
from parpeval.cli import main
from parpeval.patterns import (
    PatternTable,
    SuccessPattern,
    groundness,
    independent_sharing,
)


APPEND = """
append([], Ys, Ys).
append([H|T], Ys, [H|R]) :- append(T, Ys, R).
"""


def gr(text, arity):
    return parse_groundness(text, arity)


def sh(text, arity):
    return parse_sharing(text, arity)


def test_append_groundness_rows():
    prog = parse_program(APPEND)
    an = Analyzer(prog)
    s1 = an.success("append", 3, gr("{1}", 3), worst_sharing(3))
    assert s1.ground == gr("{1}", 3)
    s2 = an.success("append", 3, gr("{1,2}", 3), worst_sharing(3))
    assert s2.ground == gr("{1,2,3}", 3)


def test_append_sharing_rows():
    prog = parse_program(APPEND)
    an = Analyzer(prog)
    s1 = an.success("append", 3, gr("{}", 3), independent_sharing(3))
    assert s1.share == sh("<{1,3},{2,3},{1,2,3}>", 3)
    s2 = an.success("append", 3, gr("{}", 3), sh("<{1,2},{1,2},{3}>", 3))
    assert s2.share == sh("<{1,2,3},{1,2,3},{1,2,3}>", 3)


def test_groundness_prunes_sharing():
    prog = parse_program(APPEND)
    an = Analyzer(prog)
    s = an.success("append", 3, gr("{1,2}", 3), worst_sharing(3))
    # everything ground on success, so nothing may share
    assert s.share == independent_sharing(3)


def test_fibonacci_row():
    prog = parse_program(
        """
        fibonacci(0, 1).
        fibonacci(1, 1).
        fibonacci(M, N) :- M > 1, M1 is M-1, fibonacci(M1, N1),
                           M2 is M-2, fibonacci(M2, N2), N is N1+N2.
        """
    )
    s = Analyzer(prog).success("fibonacci", 2, gr("{1}", 2), independent_sharing(2))
    assert s.ground == gr("{1,2}", 2)
    assert s.share == independent_sharing(2)


def test_partition_and_reverse_rows():
    prog = parse_program(
        """
        partition([], _, [], []).
        partition([Y|Ys], X, [Y|S], B) :- Y =< X, partition(Ys, X, S, B).
        partition([Y|Ys], X, S, [Y|B]) :- Y > X, partition(Ys, X, S, B).
        reverse([], []).
        reverse([X|Xs], Ys) :- reverse(Xs, Zs), append(Zs, [X], Ys).
        """ + APPEND
    )
    an = Analyzer(prog)
    p = an.success("partition", 4, gr("{1,2}", 4), independent_sharing(4))
    assert p.ground == gr("{1,2,3,4}", 4)
    r = an.success("reverse", 2, gr("{1}", 2), independent_sharing(2))
    assert r.ground == gr("{1,2}", 2)


def test_undefined_predicate_gets_identity_success():
    prog = parse_program("p(X) :- mystery(X).")
    an = Analyzer(prog)
    s = an.success("mystery", 1, groundness(1), independent_sharing(1))
    assert s.ground == groundness(1)
    assert s.share == independent_sharing(1)


def test_only_a_lookup_from_outside_a_fixpoint_run_stores_an_undefined_row():
    an = Analyzer(parse_program("p(X) :- mystery(X)."))
    an.success("p", 1, groundness(1), independent_sharing(1))
    # the run asked for mystery/1 while walking p's clause
    assert [key[:2] for key in an.table().rows] == [("p", 1)]
    key = ("mystery", 1, groundness(1), independent_sharing(1))
    row = an.success(*key)
    assert an.table().get(key) == row == SuccessPattern(groundness(1), independent_sharing(1))


def test_a_fixpoint_run_that_raises_leaves_no_run_behind(monkeypatch):
    prog = parse_program(APPEND)
    transfer = Analyzer._transfer
    raised = []

    def raise_once(self, key):
        if not raised:
            raised.append(key)
            raise AnalysisError("transfer failed")
        return transfer(self, key)

    monkeypatch.setattr(Analyzer, "_transfer", raise_once)
    an = Analyzer(prog)
    with pytest.raises(AnalysisError, match="transfer failed"):
        an.success("append", 3, gr("{1}", 3), independent_sharing(3))
    assert len(an.table()) == 0
    # another key runs its own fixpoint, not read as a callee of the
    # failed run, which would give the optimistic all-ground row
    key = ("append", 3, gr("{}", 3), independent_sharing(3))
    row = an.success(*key)
    assert row == SuccessPattern(gr("{}", 3), sh("<{1,3},{2,3},{1,2,3}>", 3))
    assert an.table().get(key) == row
    monkeypatch.undo()
    assert Analyzer(prog).success(*key) == row


def test_fixpoint_ends_when_a_row_would_flip():
    # p at gr {2} calls p at {2} first; the row assumed for that call
    # puts the second call at {1} or at {}, and the optimistic row for {}
    # is more ground than the row for {1}, so without joining each new
    # row with the one before, the row for {2} flips for ever
    prog = parse_program("p(W, Z) :- p([Y|0], 1), p(f(Y), W).")
    row = Analyzer(prog).success("p", 2, groundness(2, (2,)), independent_sharing(2))
    assert row == SuccessPattern(groundness(2, (2,)), independent_sharing(2))


def test_builtin_model_rows():
    an = Analyzer(parse_program(APPEND))
    is_row = an.success("is", 2, gr("{2}", 2), independent_sharing(2))
    assert is_row.ground == gr("{1,2}", 2)
    cmp_row = an.success(">", 2, gr("{1,2}", 2), independent_sharing(2))
    assert cmp_row.ground == gr("{1,2}", 2)
    # =/2 with one ground side grounds both; with none, they may alias
    eq_ground = an.success("=", 2, gr("{1}", 2), independent_sharing(2))
    assert eq_ground.ground == gr("{1,2}", 2)
    eq_free = an.success("=", 2, gr("{}", 2), independent_sharing(2))
    assert eq_free.share == sh("<{1,2},{1,2}>", 2)
    # builtin answers are not table rows
    assert len(an.table()) == 0


def test_overrides_win_over_computed_rows():
    prog = parse_program(APPEND)
    key = ("append", 3, gr("{1}", 3), worst_sharing(3))
    forced = SuccessPattern(gr("{1,2,3}", 3), independent_sharing(3))
    overrides = PatternTable()
    overrides.put(key, forced)
    an = Analyzer(prog, overrides=overrides)
    assert an.success(*key) == forced
    assert an.table().get(key) == forced


def test_override_of_a_builtin_wins_over_its_model():
    prog = parse_program("p(X, Y) :- X is Y.")
    key = ("is", 2, gr("{2}", 2), independent_sharing(2))
    forced = SuccessPattern(gr("{2}", 2), independent_sharing(2))
    an = Analyzer(prog, overrides=[(key, forced)])
    assert an.success(*key) == forced
    # the callers' fixpoint reads the override too: p leaves X unground
    row = an.success("p", 2, gr("{2}", 2), independent_sharing(2))
    assert row.ground == gr("{2}", 2)
    # without the override the model grounds X
    plain = Analyzer(prog).success("p", 2, gr("{2}", 2), independent_sharing(2))
    assert plain.ground == gr("{1,2}", 2)


def test_table_is_a_copy_that_later_lookups_leave_alone():
    an = Analyzer(parse_program(APPEND))
    an.success("append", 3, gr("{1,2}", 3), independent_sharing(3))
    before = an.table()
    text = before.format()
    an.success("append", 3, gr("{1}", 3), independent_sharing(3))
    an.success("mystery", 1, groundness(1), independent_sharing(1))
    assert before.format() == text
    assert len(an.table()) == len(before) + 2


def test_infer_patterns_rejects_builtin_entries(tmp_path, capsys):
    # a builtin has a success model but no clauses, so it is no entry point;
    # the entry check refuses it before any table row is computed
    path = tmp_path / "append.pl"
    path.write_text(APPEND)
    assert main([str(path), "--entry", "is/2 gr {2}"]) == 4
    out, err = capsys.readouterr()
    assert "entry is/2 is not defined" in err
    assert out == ""


def test_entry_spec_parsing():
    e = parse_entry_spec("fibonacci/2 gr {1} sh <{1},{2}>")
    assert (e.pred, e.arity) == ("fibonacci", 2)
    assert e.gr == gr("{1}", 2)
    assert e.sh == sh("<{1},{2}>", 2)
    # sharing defaults to fully independent
    e2 = parse_entry_spec("quicksort/2 gr {1}")
    assert e2.sh == independent_sharing(2)
    # leading keyword form used in pattern files
    e3 = parse_entry_spec("entry tak/4 gr {1,2,3}")
    assert (e3.pred, e3.arity) == ("tak", 4)
    with pytest.raises(AnalysisError):
        parse_entry_spec("no pattern here")
    with pytest.raises(AnalysisError):
        parse_entry_spec("p/2 gr {3}")


def test_pattern_file_round_trip():
    prog = parse_program(APPEND)
    an = Analyzer(prog)
    an.success("append", 3, gr("{1,2}", 3), independent_sharing(3))
    table = an.table()
    text = "entry append/3 gr {1,2} sh <{1},{2},{3}>\n" + table.format()
    parsed_table, parsed_entries = parse_pattern_file(text)
    assert len(parsed_entries) == 1
    assert parsed_entries[0].pred == "append"
    assert len(parsed_table) == len(table)


def test_analysis_is_deterministic():
    prog = parse_program(APPEND)
    e = [
        parse_entry_spec("append/3 gr {1}"),
        parse_entry_spec("append/3 gr {3} sh <{1,3},{2},{1,3}>"),
    ]
    tables = []
    for _ in range(2):
        an = Analyzer(prog)
        for entry in e:
            an.success(*entry.key)
        tables.append(an.table().format())
    assert tables[0] == tables[1]
