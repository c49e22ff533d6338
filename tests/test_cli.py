import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import options_payload
from hypothesis import given
from hypothesis import strategies as st
from jsonschema import validate
from test_cli_golden import CASES, DATA

from hookgames import BoardParams, MhrgPosition, YoungDiagram, all_diagrams, isomorphisms, mhrg
from hookgames.cli import ALL_VERIFY_IDS, _moves, _options_json, build_parser, main
from hookgames.errors import EngineInvariantError
from hookgames.isomorphisms import Report
from hookgames.mhrg import ENGINES

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src/hookgames/schemas/report.schema.json").read_text()
)
GOLDEN = Path(__file__).parent / "data" / "table1.csv"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_grundy_start_positions(capsys):
    code, out, _ = run(capsys, "grundy", "-m", "3", "-n", "5")
    assert code == 0
    assert "= 0" in out and "positions explored" in out

    code, out, _ = run(capsys, "grundy", "-m", "2", "-n", "2")
    assert code == 0 and "= 3" in out

    code, out, _ = run(capsys, "grundy", "-m", "1", "-n", "1")
    assert code == 0 and "= 1" in out


def test_grundy_custom_diagram_and_json(capsys):
    code, out, err = run(
        capsys, "grundy", "-m", "3", "-n", "5", "--diagram", "5,4,3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["diagram"] == "5,4,3"
    assert payload["reachable"] is True
    assert isinstance(payload["grundy"], int)


def test_grundy_warns_on_unreachable(capsys):
    code, out, err = run(capsys, "grundy", "-m", "1", "-n", "4", "--diagram", "2")
    assert code == 0
    assert "not reachable" in err

    for engine in ENGINES:
        code, out, err = run(
            capsys, "grundy", "-m", "1", "-n", "4", "--diagram", "2",
            "--format", "json", "--engine", engine,
        )
        assert code == 0 and "not reachable" in err
        assert json.loads(out)["reachable"] is False

    code, out, err = run(
        capsys, "grundy", "-m", "3", "-n", "5", "--diagram", "5,4,3",
        "--engine", "cross-check",
    )
    assert code == 0 and err == ""


def test_grundy_cross_check_catches_a_wrong_reachable_flag(capsys, monkeypatch):
    monkeypatch.setattr("hookgames.cli.mhrg.in_game", lambda board, diagram: False)
    code, out, _ = run(capsys, "grundy", "-m", "2", "-n", "2", "--format", "json")
    assert code == 0 and json.loads(out)["reachable"] is False
    with pytest.raises(EngineInvariantError, match="move closure says True"):
        main(["grundy", "-m", "2", "-n", "2", "--engine", "cross-check"])
    capsys.readouterr()


def test_consecutive_calls_share_no_state(capsys):
    argv = ("options", "-m", "3", "-n", "5", "--diagram", "5,4,3")
    code, as_json, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and len(json.loads(as_json)["moves"]) == 9
    code, pretty, _ = run(capsys, *argv)
    assert code == 0 and pretty.endswith("# 9 moves\n")

    argv = ("grundy", "-m", "3", "-n", "5", "--diagram", "5,4,3", "--format", "json")
    _, checked, _ = run(capsys, *argv, "--engine", "cross-check")
    _, default, _ = run(capsys, *argv)
    assert json.loads(checked)["engine"] == "cross-check"
    assert json.loads(default)["engine"] == "diagonal"
    assert json.loads(checked)["grundy"] == json.loads(default)["grundy"]


def test_grundy_empty_diagram_literal(capsys):
    for literal in ("", "-"):
        code, out, _ = run(capsys, "grundy", "-m", "2", "-n", "2", "--diagram", literal)
        assert code == 0
        assert out.startswith("G(- in 2x2) = 0"), literal


def test_grundy_transposes_wide_input(capsys):
    code, out, err = run(capsys, "grundy", "-m", "5", "-n", "3")
    assert code == 0
    assert "transposed" in err
    assert "3x5" in out and "= 0" in out


def test_fit_errors_name_the_diagram_and_board_as_given(capsys):
    # Input with more rows than columns is transposed, but a diagram that
    # does not fit is reported in the orientation the user typed.
    cases = (
        (("grundy", "-m", "5", "-n", "3", "--diagram", "4"), "4", "5x3"),
        (("options", "-m", "5", "-n", "3", "--diagram", "3,3,3,3,3,1"), "3,3,3,3,3,1", "5x3"),
        (("grundy", "-m", "3", "-n", "5", "--diagram", "1,1,1,1"), "1,1,1,1", "3x5"),
    )
    for argv, literal, board in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: diagram {literal} does not fit a {board} board\n"
    code, out, err = run(capsys, "grundy", "-m", "5", "-n", "3", "--diagram", "3,3,2,1,1")
    assert code == 0 and out.startswith("G(5,3,2 in 3x5) = ")
    assert err == "note: transposed input to the 3x5 board\n"


def test_side_errors_name_the_board_as_given(capsys):
    for argv in (("grundy", "-m", "3", "-n", "0"), ("play", "-m", "3", "-n", "0")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: board sides must be at least 1, got (3, 0)\n"
    code, out, err = run(capsys, "reachable", "-m", "-1", "-n", "5")
    assert (code, out) == (2, "")
    assert err == "error: board sides must be at least 1, got (-1, 5)\n"


def test_grundy_usage_errors(capsys):
    code, _, err = run(capsys, "grundy", "-m", "3", "-n", "5", "--diagram", "1,2,x")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "grundy", "-m", "3", "-n", "5", "--diagram", "6,1")
    assert code == 2
    code, _, err = run(capsys, "grundy", "-m", "17", "-n", "17")
    assert code == 2 and "needs more than 65536 positions" in err


def test_table_pretty_and_small_grid(capsys):
    code, out, _ = run(capsys, "table", "--max-m", "2", "--max-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].split()[1:] == ["1", "1", "3"]
    assert lines[2].split()[1:] == ["1", "3", "3"]


def test_table_csv_golden(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, _, _ = run(
        capsys, "table", "--format", "csv", "--out", str(out_file)
    )
    assert code == 0
    assert out_file.read_bytes() == GOLDEN.read_bytes()


def test_table_limit(capsys):
    code, _, err = run(capsys, "table", "--max-m", "13", "--max-n", "13")
    assert code == 2
    assert err == "error: table regeneration up to 13x13 needs more than 65536 positions\n"


def test_reachable_listing(capsys):
    code, out, _ = run(capsys, "reachable", "-m", "2", "-n", "2")
    assert code == 0
    assert "# 4 positions" in out
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert set(body) == {"2,2", "2,1", "1", "-"}


@pytest.mark.parametrize(
    "argv",
    [("table", "--max-m", "3", "--max-n", "4"), ("reachable", "-m", "3", "-n", "5")],
    ids=["table", "reachable"],
)
@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_every_engine_prints_the_same_bytes(capsys, argv, fmt):
    printed = {
        engine: run(capsys, *argv, "--format", fmt, "--engine", engine)
        for engine in ENGINES
    }
    assert printed["diagonal"][0] == 0 and printed["diagonal"][2] == ""
    assert printed["cross-check"] == printed["diagonal"]


def test_options_listing_shows_forced_removal(capsys):
    code, out, _ = run(capsys, "options", "-m", "2", "-n", "2")
    assert code == 0
    assert "# 3 moves" in out
    assert "then forced" in out

    code, out, _ = run(
        capsys, "options", "-m", "2", "-n", "2", "--format", "json",
        "--engine", "cross-check",
    )
    payload = json.loads(out)
    results = {m["result"] for m in payload["moves"]}
    assert results == {"2,1", "1", "-"}


def test_empty_move_list_is_one_count_line(capsys):
    code, out, err = run(capsys, "options", "-m", "2", "-n", "2", "--diagram", "-")
    assert (code, out, err) == (0, "# 0 moves\n", "")


def _writer_matches_json_dumps(pos: MhrgPosition, engine: str = "diagonal"):
    # The writer takes the listed moves; json.dumps takes the rule book's
    # records.
    moves = _moves(pos.board, pos.diagram, engine)
    records = mhrg.moves_semantic(pos)
    expected = json.dumps(options_payload(pos, records), indent=2, sort_keys=True) + "\n"
    assert _options_json(pos.board, pos.diagram, moves) == expected, (str(pos), engine)
    return moves


def test_options_writer_matches_json_dumps_on_every_golden_position():
    positions = 0
    for argv in CASES.values():
        if argv[0] == "options":
            args = build_parser().parse_args(argv)
            diagram = YoungDiagram.parse(args.diagram or ",".join([str(args.n)] * args.m))
            _writer_matches_json_dumps(MhrgPosition(BoardParams(args.m, args.n), diagram), args.engine)
            positions += 1
    assert positions == 22


# Drawn from these boards: one row, the benchmark's 2x40, and 2x520, whose
# labels run to 261, past the small ints Python interns.
WRITER_BOARDS = ((1, 1), (1, 9), (2, 2), (2, 40), (3, 5), (4, 6), (2, 520))


@given(st.data())
def test_options_writer_matches_json_dumps_on_drawn_positions(data):
    m, n = data.draw(st.sampled_from(WRITER_BOARDS))
    rows = data.draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    board = BoardParams(m, n)
    _writer_matches_json_dumps(MhrgPosition(board, YoungDiagram(tuple(sorted(rows, reverse=True)))))


def test_options_writer_covers_every_shape_of_listing():
    # The empty board (no moves), the 2x2 start (a forced move and a
    # forced: null one), a full row (one-label hooks) and long labels.
    listings = [
        _writer_matches_json_dumps(MhrgPosition(BoardParams(m, n), YoungDiagram(rows)))
        for m, n, rows in ((2, 2, ()), (2, 2, (2, 2)), (1, 9, (9,)), (2, 520, (520, 300)))
    ]
    empty, start, row, long = listings
    assert empty == []
    assert {second is None for _, second, _ in start} == {True, False}
    assert any(len(first.labels) == 1 for first, _, _ in row)
    assert max(label for first, _, _ in long for label in first.labels) == 261


def _listing_positions() -> list[MhrgPosition]:
    """Every diagram of the boards up to 4x6, reachable or not, and ten
    seeded diagrams each of four boards past 81 cells."""
    positions = [
        MhrgPosition(BoardParams(m, n), diagram)
        for m in range(1, 5)
        for n in range(m, 7)
        for diagram in all_diagrams(BoardParams(m, n))
    ]
    rng = random.Random(26)
    for m, n in ((9, 10), (7, 13), (5, 20), (3, 30)):
        for _ in range(10):
            rows = sorted((rng.randint(0, n) for _ in range(m)), reverse=True)
            positions.append(MhrgPosition(BoardParams(m, n), YoungDiagram(tuple(rows))))
    return positions


def test_options_listing_matches_the_rule_book_records(capsys):
    # The diagonal engine writes its listing straight from the bead-word
    # decoder; the rule book's records, encoded by json.dumps, give the
    # bytes it must print.
    positions = _listing_positions()
    for pos in positions:
        m, n = pos.board.m, pos.board.n
        argv = ("options", "-m", str(m), "-n", str(n), "--diagram", str(pos), "--format", "json")
        payload = options_payload(pos, mhrg.moves_semantic(pos))
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert run(capsys, *argv) == (0, expected, ""), argv
    assert len(positions) == 748


@pytest.mark.parametrize(
    ("position", "interval", "forge"),
    [
        # On 2x3 at 2 the hook at (1,2) forces the one on interval 0..0 and
        # reaches the empty board, as (1,1) does alone: not a kept move.
        (("-m", "2", "-n", "3", "--diagram", "2"), (0, 0), lambda labels: (1,)),
        # On the 2x2 start the hook at (1,2) forces the one on -1..0: kept.
        (("-m", "2", "-n", "2"), (-1, 0), lambda labels: labels + (2,)),
    ],
    ids=["not-kept", "kept"],
)
@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_options_listing_checks_the_labels_of_every_forced_move(
    capsys, monkeypatch, position, interval, forge, fmt
):
    real = mhrg.interval_labels

    def forged(board, lo, hi):
        labels = real(board, lo, hi)
        return forge(labels) if (lo, hi) == interval else labels

    monkeypatch.setattr(mhrg, "interval_labels", forged)
    with pytest.raises(EngineInvariantError, match="mirror hook labels diverge"):
        main(["options", *position, "--format", fmt])
    assert capsys.readouterr().out == ""


def test_options_listing_validates_every_result(capsys, monkeypatch):
    # Each result word is read by diagram_of_word into a YoungDiagram, which
    # checks its rows, and then fitted to the board.  Rows read upside down,
    # or one column too wide, stop the listing with a usage error.
    argv = ("options", "-m", "3", "-n", "5", "--diagram", "5,4,3", "--format", "json")
    with monkeypatch.context() as patch:
        patch.setattr(mhrg, "YoungDiagram", lambda rows: YoungDiagram(rows[::-1]))
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "row lengths must be weakly decreasing" in err
    real = mhrg.diagram_of_word
    monkeypatch.setattr(mhrg, "diagram_of_word", lambda word: YoungDiagram((6,) + real(word).rows))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: diagram 6,")
    assert err.endswith(" does not fit a 3x5 board\n")


def test_options_cross_check_compares_the_printed_records(capsys, monkeypatch):
    # The rule book's records are forged so that one corner differs while
    # every result still agrees: the listing must abort, not print.
    real = mhrg.moves_semantic

    def one_corner_off(pos):
        record, *rest = real(pos)
        i, j = record.first.corner
        return (replace(record, first=replace(record.first, corner=(i, j + 1))), *rest)

    monkeypatch.setattr(mhrg, "moves_semantic", one_corner_off)
    argv = ["options", "-m", "3", "-n", "4", "--diagram", "4,2,1", "--engine", "cross-check"]
    with pytest.raises(EngineInvariantError, match=r"move records diverge at 4,2,1 on 3x4"):
        main(argv)
    assert capsys.readouterr().out == ""


def test_rule_book_options_are_bounded(capsys):
    # The rule book examines cells**2 hook pairs: 272**2 is past the budget.
    code, out, err = run(capsys, "options", "-m", "17", "-n", "16", "--engine", "cross-check")
    assert code == 2 and out == ""
    assert err == "error: move listing on 17x16 needs more than 65536 positions\n"
    code, out, _ = run(capsys, "options", "-m", "10", "-n", "9", "--engine", "cross-check")
    assert code == 0 and out.endswith("# 45 moves\n")


SMALL_RANGES = {
    "table1": ("--max-m", "2", "--max-n", "2"),
    "row1": ("--max-n", "6"),
    "row2": ("--max-n", "6"),
    "start2": ("--max-n", "8"),
    "square": ("--max-n", "3"),
    "nim": ("--n", "4"),
    "symmetry": ("--max-n", "3"),
    "widen": ("--max-side", "4"),
    "shifted": ("--n", "4"),
}


def test_verify_pass_and_json_schema(capsys):
    assert set(SMALL_RANGES) == set(ALL_VERIFY_IDS)
    for theorem, flags in SMALL_RANGES.items():
        code, out, _ = run(capsys, "verify", theorem, *flags)
        assert code == 0 and out.startswith("PASS"), out

        code, out, _ = run(capsys, "verify", theorem, *flags, "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert reports
        for report in reports:
            validate(report, SCHEMA)
            assert report["checked"] > 0


def test_verify_nim_on_the_empty_staircase(capsys):
    # The size-0 staircase holds one diagram, the empty one, of value 0.
    code, out, err = run(capsys, "verify", "nim", "--n", "0")
    assert (code, out, err) == (0, "PASS shifted-nim {'n': 0}: 1 checks, 0 mismatches\n", "")


def test_verify_fail_reports_match_the_schema(capsys, monkeypatch):
    # A forged closed form gives mismatches; options dropped on odd-size
    # words give widening and halving violations.
    monkeypatch.setattr("hookgames.closedforms.predict_start_2n", lambda n: 0)
    original = isomorphisms.word_options

    def corrupted(word, size):
        options = original(word, size)
        return set(sorted(options)[:-1]) if size % 2 else options

    monkeypatch.setattr(isomorphisms, "word_options", corrupted)
    for argv, key in (
        (("start2", "--max-n", "4"), "mismatches"),
        (("widen", "--max-side", "2"), "violations"),
        (("shifted", "--n", "3"), "violations"),
    ):
        code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        assert code == 1
        reports = json.loads(out)
        assert any(report[key] for report in reports)
        for report in reports:
            validate(report, SCHEMA)

    code, out, _ = run(capsys, "verify", "start2", "--max-n", "4")
    assert (code, out) == (
        1, "FAIL two-row-start {'max_n': 4}: 3 checks, 3 mismatches\n"
    )


def test_verify_fail_exit_code(capsys, monkeypatch):
    def fake_verify(theorem, **params):
        return Report(
            {"theorem": theorem, "params": params}, theorem, "checks", "mismatches",
            1, [{"position": "start 1x1", "predicted": "1", "computed": "0"}],
        )

    monkeypatch.setattr("hookgames.cli.closedforms.verify", fake_verify)
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 1 and out.startswith("FAIL")


def test_verify_range_refusal(capsys):
    code, _, err = run(capsys, "verify", "row2", "--max-n", "62")
    assert code == 2
    assert err == "error: row2 with max_n=62 needs more than 65536 positions\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("widen", "--max-side", "0"),
        ("shifted", "--n", "0"),
        ("row1", "--max-n", "0"),
        ("square", "--max-n", "0"),
    ],
)
def test_verify_empty_range_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("row1", "--max-side", "3"), "max_side"),
        (("widen", "--n", "2"), "'n'"),
        (("widen", "--max-side", "2", "--max-n", "4"), "max_n"),
        (("shifted", "--max-side", "2"), "max_side"),
        (("nim", "--max-n", "3"), "max_n"),
    ],
)
def test_verify_flag_the_theorem_does_not_take_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "does not take" in err and flag in err


def test_table_lower_bound_names_the_range(capsys):
    code, out, err = run(capsys, "table", "--max-m", "0")
    assert code == 2 and out == ""
    assert err == "error: table regeneration up to 0x9 checks nothing\n"


def test_verify_unknown_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("grundy", "-m", "2", "-n", "2"),
        ("table", "--max-m", "2", "--max-n", "2"),
        ("reachable", "-m", "2", "-n", "2"),
        ("options", "-m", "2", "-n", "2"),
    ],
    ids=["grundy", "table", "reachable", "options"],
)
def test_the_rule_book_alone_is_no_engine(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--engine", "semantic"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "invalid choice: 'semantic' (choose from 'diagonal', 'cross-check')" in err


@pytest.mark.parametrize(
    "argv",
    [("grundy", "-m", "2", "-n", "2"), ("verify", "nim", "--n", "3")],
    ids=["grundy", "verify"],
)
def test_an_out_that_cannot_be_written_is_a_usage_error(capsys, tmp_path, argv):
    for target, reason in ((tmp_path, "Is a directory"),
                           (tmp_path / "missing" / "t.txt", "No such file or directory")):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out, err) == (2, "", f"error: cannot write {target}: {reason}\n")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv",
    [("reachable", "-m", "8", "-n", "8"), ("grundy", "-m", "2", "-n", "2"),
     ("play", "-m", "2", "-n", "2")],
    ids=["reachable", "grundy", "play"],
)
def test_a_stdout_that_cannot_be_written_is_a_usage_error(argv):
    # Run as a process: the write fails at the file descriptor, which no
    # captured stream reproduces, and a traceback would exit 1, the code of
    # a verification FAIL.  Stdout stays buffered, as by default, so bytes
    # left in its buffer must not fail the flush at exit (exit 120).  play
    # fails at its first line, before it reads the "q" on its stdin.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "hookgames.cli", *argv],
            input="q\n", stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            check=False,
        )
    assert (done.returncode, done.stderr) == (2, "error: cannot write stdout: No space left on device\n")


def test_play_forced_removal_and_win(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n"))
    code = main(["play", "-m", "2", "-n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "forced second removal" in out
    assert "you win" in out


def test_play_rejects_illegal_box(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("9 9\nq\n"))
    code = main(["play", "-m", "2", "-n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "illegal move" in out
    assert "bye" in out


def test_play_asks_for_two_integers(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\nq\n"))
    code = main(["play", "-m", "2", "-n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "your move> illegal move (enter two integers: row column); try again\n" in out


def test_play_engine_without_a_winning_reply_takes_the_first_move(capsys, monkeypatch):
    # (1,3) is a winning move on 2x4: it leaves 3,2, of value 0, so no
    # option of the engine has value 0 and it takes the first in order.
    monkeypatch.setattr("sys.stdin", io.StringIO("1 3\nq\n"))
    code = main(["play", "-m", "2", "-n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "position now 3,2\nengine removes the hook at (1, 1) -> 1\n" in out


def test_play_transposes_with_a_note(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("q\n"))
    code = main(["play", "-m", "3", "-n", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == "note: transposed input to the 2x3 board\n"
    assert captured.out == (
        "Hook removal on the 2x3 board. You move first.\n"
        "Enter a box as 'i j' (row column), or 'q' to quit.\n"
        "  2 2 1\n"
        "  1 2 2\n"
        "your move> bye\n"
    )


@pytest.mark.parametrize("mover", ["player", "engine"])
def test_play_validates_every_result(capsys, monkeypatch, mover):
    # As in the options listing, each result word is read into a diagram
    # and fitted to the board.  One column too wide on the player's result,
    # 5,4,3, or on every other one, the engine's reply included, stops the
    # game with a usage error.
    real = mhrg.diagram_of_word

    def too_wide(word):
        diagram = real(word)
        if (diagram.rows == (5, 4, 3)) != (mover == "player"):
            return diagram
        return YoungDiagram((6,) + diagram.rows)

    monkeypatch.setattr(mhrg, "diagram_of_word", too_wide)
    monkeypatch.setattr("sys.stdin", io.StringIO("2 4\n"))
    code, out, err = run(capsys, "play", "-m", "3", "-n", "5")
    assert code == 2 and err.startswith("error: diagram 6,")
    assert err.endswith(" does not fit a 3x5 board\n")
    assert ("position now 5,4,3\n" in out) == (mover == "engine")
    assert "engine removes" not in out


def test_play_refuses_boards_past_the_solve_bound(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n"))
    code = main(["play", "-m", "17", "-n", "17"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "needs more than 65536 positions" in captured.err


def test_play_full_game_against_engine(capsys, monkeypatch):
    # On the 3x5 board the human opens at (2,4) reaching (5,4,3), as in the
    # opening of the worked game; afterwards always pick the top-left box
    # until someone empties the board.  The whole session, boards, hooks and
    # the engine's replies, matches its recording byte for byte; the CI runs
    # the same session as a process:
    #   { echo '2 4'; yes '1 1' | head -30; } | hookgames play -m 3 -n 5
    monkeypatch.setattr("sys.stdin", io.StringIO("2 4\n" + "1 1\n" * 30))
    code = main(["play", "-m", "3", "-n", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (DATA / "play-3x5.out").read_bytes()
