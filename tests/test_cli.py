import io
import json
from pathlib import Path

import pytest
from jsonschema import validate

from hookgames.cli import main

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


def test_grundy_transposes_wide_input(capsys):
    code, out, err = run(capsys, "grundy", "-m", "5", "-n", "3")
    assert code == 0
    assert "transposed" in err
    assert "3x5" in out and "= 0" in out


def test_grundy_usage_errors(capsys):
    code, _, err = run(capsys, "grundy", "-m", "3", "-n", "5", "--diagram", "1,2,x")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "grundy", "-m", "3", "-n", "5", "--diagram", "6,1")
    assert code == 2
    code, _, err = run(capsys, "grundy", "-m", "10", "-n", "10")
    assert code == 2 and "81" in err


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
    code, _, err = run(capsys, "table", "--max-m", "10")
    assert code == 2 and "9x9" in err


def test_reachable_listing(capsys):
    code, out, _ = run(capsys, "reachable", "-m", "2", "-n", "2")
    assert code == 0
    assert "# 4 positions" in out
    body = [line for line in out.splitlines() if not line.startswith("#")]
    assert set(body) == {"2,2", "2,1", "1", "-"}


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


def test_verify_pass_and_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "row1", "--max-n", "6")
    assert code == 0 and out.startswith("PASS")

    code, out, _ = run(
        capsys, "verify", "table1", "--max-m", "2", "--max-n", "2", "--format", "json"
    )
    assert code == 0
    for report in json.loads(out):
        validate(report, SCHEMA)

    code, out, _ = run(
        capsys, "verify", "widen", "--max-side", "4", "--format", "json"
    )
    assert code == 0
    for report in json.loads(out):
        validate(report, SCHEMA)

    code, out, _ = run(capsys, "verify", "shifted", "--n", "4")
    assert code == 0 and "PASS" in out

    code, out, _ = run(capsys, "verify", "nim", "--n", "5")
    assert code == 0 and "PASS" in out


def test_verify_fail_exit_code(capsys, monkeypatch):
    from hookgames.closedforms import Mismatch, PredictionReport

    def fake_verify(theorem, **params):
        return PredictionReport(
            theorem, params, 1, [Mismatch("start 1x1", "1", "0")]
        )

    monkeypatch.setattr("hookgames.cli.closedforms.verify", fake_verify)
    code, out, _ = run(capsys, "verify", "table1")
    assert code == 1 and out.startswith("FAIL")


def test_verify_range_refusal(capsys):
    code, _, err = run(capsys, "verify", "row2", "--max-n", "30")
    assert code == 2 and "24" in err


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


def test_table_lower_bound_names_the_range(capsys):
    code, out, err = run(capsys, "table", "--max-m", "0")
    assert code == 2 and out == ""
    assert "1..9" in err


def test_verify_unknown_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "everything"])
    assert exc.value.code == 2
    capsys.readouterr()


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


def test_play_refuses_boards_past_the_solve_bound(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n"))
    code = main(["play", "-m", "10", "-n", "10"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "81" in captured.err


def test_play_full_game_against_engine(capsys, monkeypatch):
    # On the 3x5 board the human opens at (2,4) reaching (5,4,3), as in the
    # opening of the worked game; afterwards always pick the top-left box
    # until someone empties the board.
    monkeypatch.setattr("sys.stdin", io.StringIO("2 4\n" + "1 1\n" * 30))
    code = main(["play", "-m", "3", "-n", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "position now 5,4,3" in out
    assert "{2,3,4}" in out
    assert "wins" in out or "you win" in out
