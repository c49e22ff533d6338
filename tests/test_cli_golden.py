"""Replay recorded ``hookgames`` runs and compare their output byte for byte.

Each case's stdout is stored in ``data/cli/<name>.out``; a non-empty stderr
in ``data/cli/<name>.err``.  Every case exits 0.  To record the files again
from the current code (only after checking that a change of output is
intended), run ``PYTHONPATH=src python tests/test_cli_golden.py`` from the
repository root.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from hookgames.cli import main

DATA = Path(__file__).parent / "data" / "cli"

ENGINES = ("diagonal", "semantic", "cross-check")
# (name, board and diagram); 2x2 full has a forced follow-up removal.
OPTION_POSITIONS = (
    ("2x2", ("-m", "2", "-n", "2")),
    ("3x4-421", ("-m", "3", "-n", "4", "--diagram", "4,2,1")),
    ("4x5-5421", ("-m", "4", "-n", "5", "--diagram", "5,4,2,1")),
)
# Move lists on the boards of the interactive benchmark, bead-word engine only:
# mid-game positions of 9x9 and 2x40 and the full 6x13 rectangle.
BENCHMARK_OPTION_POSITIONS = (
    ("9x9-88843333", ("-m", "9", "-n", "9", "--diagram", "8,8,8,4,3,3,3,3")),
    ("2x40-27-14", ("-m", "2", "-n", "40", "--diagram", "27,14")),
    ("6x13", ("-m", "6", "-n", "13")),
)

CASES: dict[str, list[str]] = {}
for engine in ENGINES:
    CASES[f"grundy-3x5-{engine}"] = [
        "grundy", "-m", "3", "-n", "5", "--format", "json", "--engine", engine,
    ]
    CASES[f"grundy-4x5-531-{engine}"] = [
        "grundy", "-m", "4", "-n", "5", "--diagram", "5,3,1",
        "--format", "json", "--engine", engine,
    ]
    for name, position in OPTION_POSITIONS:
        for fmt in ("json", "pretty"):
            CASES[f"options-{name}-{fmt}-{engine}"] = [
                "options", *position, "--format", fmt, "--engine", engine,
            ]
for name, position in BENCHMARK_OPTION_POSITIONS:
    for fmt in ("json", "pretty"):
        CASES[f"options-{name}-{fmt}-diagonal"] = [
            "options", *position, "--format", fmt, "--engine", "diagonal",
        ]
CASES["reachable-3x5"] = ["reachable", "-m", "3", "-n", "5", "--format", "json"]
CASES["reachable-4x6"] = ["reachable", "-m", "4", "-n", "6"]
CASES["table-csv"] = ["table", "--format", "csv"]
CASES["table-json"] = ["table", "--format", "json"]
CASES["verify-widen"] = ["verify", "widen", "--max-side", "4", "--format", "json"]
CASES["verify-shifted"] = ["verify", "shifted", "--n", "4", "--format", "json"]
CASES["verify-row2"] = ["verify", "row2", "--max-n", "8", "--format", "json"]
# The verifiers' default ranges, whose engines run on bead words.
CASES["verify-shifted-7"] = ["verify", "shifted", "--n", "7", "--format", "json"]
CASES["verify-widen-8"] = ["verify", "widen", "--max-side", "8", "--format", "json"]
CASES["verify-nim-7"] = ["verify", "nim", "--n", "7", "--format", "json"]


def transcript(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recording(name):
    code, out, err = transcript(CASES[name])
    assert code == 0
    assert out == (DATA / f"{name}.out").read_bytes()
    err_file = DATA / f"{name}.err"
    assert err == (err_file.read_bytes() if err_file.exists() else b"")


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out, err = transcript(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (DATA / f"{name}.out").write_bytes(out)
        if err:
            (DATA / f"{name}.err").write_bytes(err)
