"""Acceptance suite: one test per criterion, exact tolerances, with a
printed PASS line and its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from pathlib import Path

from conftest import position_from_profile

from hookgames import (
    BoardParams,
    Periodicity,
    all_diagrams,
    all_shifted,
    detect_periodicity,
    diagram_of,
    diagonal_of,
    from_shifted,
    moves_semantic,
    options_diagonal,
    options_semantic,
    predict_start_square,
    table1_golden,
    to_shifted,
    verify,
    verify_staircase_iso,
    verify_widening,
)
from hookgames.closedforms import grundy_table, table_csv
from hookgames.mhrg import reachable_profiles
from hookgames.shifted import shifted_diagonal_of, shifted_diagram_of

GOLDEN = Path(__file__).parent / "data" / "table1.csv"


def report(number: int, elapsed: float, budget: float, detail: str) -> None:
    print(f"ACCEPTANCE {number}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) - {detail}")


def test_acceptance_1_table_regeneration():
    t0 = time.time()
    grid = grundy_table(9, 9)
    assert tuple(tuple(row) for row in grid) == table1_golden()
    assert grid[2][4] == 0 and grid[4][6] == 14 and grid[8][8] == 1
    assert table_csv(grid) == GOLDEN.read_text(encoding="utf-8")
    elapsed = time.time() - t0
    assert elapsed < 60
    report(1, elapsed, 60, "all 81 starting values match the golden grid exactly")


def test_acceptance_2_widening_isomorphism():
    t0 = time.time()
    pairs = 0
    for m in range(1, 9):
        for n in range(m, 9):
            if (m + n) % 2 == 0:
                rep = verify_widening(m, n)
                assert rep.passed, rep.summary()
                pairs += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    report(2, elapsed, 120, f"widening verified on {pairs} board pairs "
           "(bijection, options, value transport)")


def test_acceptance_3_one_row_closed_form():
    t0 = time.time()
    rep = verify("row1", max_n=20)
    assert rep.passed, rep.summary()
    elapsed = time.time() - t0
    assert elapsed < 1
    report(3, elapsed, 1, f"one-row boards to n=20: {rep.checked} positions "
           "match reachability and value closed forms")


def test_acceptance_4_two_row_suite():
    t0 = time.time()
    rep = verify("row2", max_n=24)
    assert rep.passed, rep.summary()
    checked = rep.checked
    rep = verify("start2", max_n=40)
    assert rep.passed, rep.summary()
    elapsed = time.time() - t0
    assert elapsed < 10
    report(4, elapsed, 10, f"two-row suite: {checked} positions classified both "
           f"directions, starting values to n=40")


def test_acceptance_5_staircase_suite():
    t0 = time.time()
    for n in range(1, 8):
        rep = verify_staircase_iso(n)
        assert rep.passed, rep.summary()
        # the two maps are mutually inverse
        board = BoardParams(n, n + 1)
        for s in all_shifted(n):
            assert to_shifted(from_shifted(s, n)) == s
        for profile in reachable_profiles(board):
            pos = position_from_profile(board, profile)
            assert from_shifted(to_shifted(pos), n) == pos
    rep = verify("square", max_n=7)
    assert rep.passed, rep.summary()
    assert predict_start_square(3) == 0
    rep = verify("symmetry", max_n=6)
    assert rep.passed, rep.summary()
    rep = verify("nim", n=7)
    assert rep.passed and rep.checked == 128
    elapsed = time.time() - t0
    assert elapsed < 60
    report(5, elapsed, 60, "staircase isomorphism to n=7, square starts, "
           "symmetry law to n=6, nim-sum formula on 128 diagrams")


def test_acceptance_6_engine_equivalence():
    t0 = time.time()
    positions = 0
    for m in range(1, 7):
        for n in range(m, 7):
            board = BoardParams(m, n)
            for profile in sorted(reachable_profiles(board)):
                pos = position_from_profile(board, profile)
                assert options_semantic(pos) == options_diagonal(pos)
                for rec in moves_semantic(pos):
                    removed = 1 if rec.second is None else 2
                    assert removed in (1, 2)
                    if rec.second is not None:
                        assert rec.second.labels == rec.first.labels
                        assert (rec.second.lo, rec.second.hi) == (
                            n - m - rec.first.hi,
                            n - m - rec.first.lo,
                        )
                positions += 1
    elapsed = time.time() - t0
    assert elapsed < 30
    report(6, elapsed, 30, f"both engines agree on {positions} reachable "
           "positions; every move removes one hook or its mirrored pair")


def test_acceptance_7_round_trips():
    t0 = time.time()
    board = BoardParams(6, 6)
    diagrams = 0
    for diagram in all_diagrams(board):
        assert diagram_of(diagonal_of(board, diagram)) == diagram
        diagrams += 1
    assert diagrams == 924
    shifted = 0
    for s in all_shifted(8):
        assert shifted_diagram_of(shifted_diagonal_of(s, 8)) == s
        shifted += 1
    assert shifted == 256
    elapsed = time.time() - t0
    assert elapsed < 1
    report(7, elapsed, 1, "924 boxed and 256 shifted diagrams round-trip "
           "through their profiles")


def test_acceptance_8_periodicity_smoke():
    t0 = time.time()
    row1 = table1_golden()[0]
    assert detect_periodicity(row1, max_period=4, max_saltus=4) == Periodicity(0, 2, 2)
    elapsed = time.time() - t0
    report(8, elapsed, 1, "first golden row detected as period 2, saltus 2, "
           "preperiod 0")
