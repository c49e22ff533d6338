from pathlib import Path

import pytest

from hookgames import (
    BoardParams,
    DomainError,
    MhrgPosition,
    Periodicity,
    RangeTooLargeError,
    TwoRowClass,
    YoungDiagram,
    detect_periodicity,
    grundy_table,
    nim_sum,
    predict_1n,
    predict_2n_class,
    predict_shifted,
    predict_start_2n,
    predict_start_square,
    solve,
    table1_golden,
    verify,
)
from hookgames import cli, closedforms, isomorphisms
from hookgames.closedforms import table_csv

GOLDEN = Path(__file__).parent / "data" / "table1.csv"


def test_predict_1n_examples():
    assert predict_1n(4, 2) == (False, None)
    assert predict_1n(4, 4) == (True, 3)
    assert predict_1n(5, 5) == (True, 5)
    assert predict_1n(5, 0) == (True, 0)
    assert predict_1n(6, 2) == (True, 2)
    with pytest.raises(DomainError):
        predict_1n(4, 5)


def test_predict_2n_class_examples():
    # anti-diagonal positions never occur in play
    assert predict_2n_class(2, 2, 2) is TwoRowClass.UNREACHABLE
    assert predict_2n_class(2, 4, 0) is TwoRowClass.UNREACHABLE
    # below: (3,2) not listed is impossible, it is above for half=2: 3+2>4
    assert predict_2n_class(2, 3, 2) is TwoRowClass.G0
    # below families
    assert predict_2n_class(3, 2, 2) is TwoRowClass.G0
    assert predict_2n_class(3, 1, 0) is TwoRowClass.G1
    assert predict_2n_class(3, 2, 0) is TwoRowClass.G2
    assert predict_2n_class(3, 3, 0) is TwoRowClass.OTHER
    # above, small board: (2,1) on the 2x2 board has value 2
    assert predict_2n_class(1, 2, 1) is TwoRowClass.G2
    assert predict_2n_class(1, 2, 2) is TwoRowClass.OTHER
    with pytest.raises(DomainError):
        predict_2n_class(2, 5, 0)
    with pytest.raises(DomainError):
        predict_2n_class(2, 1, 2)


def test_predict_2n_class_matches_brute_force_spot():
    board = BoardParams(2, 4)
    _, memo = solve(board)
    key = MhrgPosition(board, YoungDiagram((3, 2))).encode()
    assert memo.get(key) == 0
    key = MhrgPosition(board, YoungDiagram((2,))).encode()
    assert memo.get(key) == 2  # matches the G2 family (2+4i, 4i) at i=0


def test_predict_start_2n_examples():
    assert predict_start_2n(2) == 3
    assert predict_start_2n(3) == 3
    assert predict_start_2n(6) == 1
    assert predict_start_2n(10) == 2
    assert predict_start_2n(11) == 2
    assert predict_start_2n(12) == 1
    with pytest.raises(DomainError):
        predict_start_2n(1)


def test_predict_start_square_and_shifted():
    assert predict_start_square(3) == 0
    assert predict_start_square(4) == 4
    assert predict_start_square(1) == 1
    assert predict_shifted((7, 6, 4, 3, 2)) == 4
    assert predict_shifted(()) == 0
    assert nim_sum([5, 3]) == 6


def test_table1_golden_entries():
    grid = table1_golden()
    assert grid[2][4] == 0  # 3x5
    assert grid[4][6] == 14  # 5x7
    assert grid[8][8] == 1  # 9x9
    assert grid[0][0] == 1
    assert grid[1][1] == 3


def test_table1_golden_symmetry_and_column_pairing():
    grid = table1_golden()
    for m in range(9):
        for n in range(9):
            assert grid[m][n] == grid[n][m]
    for m in range(1, 10):
        for n in range(m, 9):
            if (m + n) % 2 == 0:
                assert grid[m - 1][n - 1] == grid[m - 1][n]


def test_grundy_table_small():
    grid = grundy_table(2, 3)
    assert grid == [[1, 1, 3], [1, 3, 3]]
    with pytest.raises(RangeTooLargeError, match="9x9"):
        grundy_table(10, 9)


def test_table_csv_is_lf_and_matches_golden():
    grid = [list(row) for row in table1_golden()]
    text = table_csv(grid)
    assert "\r" not in text
    assert text == GOLDEN.read_text(encoding="utf-8")


def test_verify_ids_and_errors():
    with pytest.raises(DomainError, match="unknown verification"):
        verify("fermat")
    with pytest.raises(DomainError, match="parameter"):
        verify("nim", max_m=3)
    with pytest.raises(RangeTooLargeError, match="n <= 40"):
        verify("row1", max_n=50)
    with pytest.raises(RangeTooLargeError, match=r"^row2 is bounded at max_n <= 24, got 26$"):
        verify("row2", max_n=26)
    with pytest.raises(RangeTooLargeError, match="n <= 8"):
        verify("nim", n=9)


@pytest.mark.parametrize(
    "theorem, key, bound",
    [
        ("table1", "max_m", 9),
        ("row1", "max_n", 40),
        ("row2", "max_n", 24),
        ("start2", "max_n", 40),
        ("square", "max_n", 8),
        ("nim", "n", 8),
        ("symmetry", "max_n", 6),
        ("widen", "max_side", 8),
        ("shifted", "n", 7),
    ],
)
def test_bound_plus_one_is_refused_before_any_check(monkeypatch, theorem, key, bound):
    calls = []

    def counted(check):
        def wrapped(*args, **kwargs):
            calls.append(check.__name__)
            return check(*args, **kwargs)

        return wrapped

    for vid, (name, check, spec) in closedforms._VERIFIERS.items():
        monkeypatch.setitem(closedforms._VERIFIERS, vid, (name, counted(check), spec))
    for attr in ("verify_widening", "verify_staircase_iso"):
        monkeypatch.setattr(isomorphisms, attr, counted(getattr(isomorphisms, attr)))

    with pytest.raises(RangeTooLargeError, match=rf"<= {bound}\b"):
        if theorem in cli.ISO_VERIFIERS:
            cli.ISO_VERIFIERS[theorem][0](bound + 1)
        else:
            verify(theorem, **{key: bound + 1})
    assert calls == []


def test_verify_small_ranges_pass():
    for vid, params in [
        ("table1", {"max_m": 3, "max_n": 3}),
        ("row1", {"max_n": 8}),
        ("row2", {"max_n": 8}),
        ("start2", {"max_n": 12}),
        ("square", {"max_n": 4}),
        ("nim", {"n": 5}),
        ("symmetry", {"max_n": 4}),
    ]:
        report = verify(vid, **params)
        assert report.passed, report.summary()
        assert report.checked > 0
        payload = report.to_json()
        assert payload["mismatches"] == []


def test_detect_periodicity_examples():
    assert detect_periodicity([1, 1, 3, 3, 5, 5, 7, 7, 9], 4, 4) == Periodicity(0, 2, 2)
    assert detect_periodicity([1, 1, 1, 1], 3, 3) == Periodicity(0, 1, 0)
    assert detect_periodicity([0, 1, 0, 2, 0, 3], 2, 9) is None


def test_detect_periodicity_window_and_bounds():
    # needs two full confirming periods beyond the preperiod
    assert detect_periodicity([1, 2], 2, 2) is None
    assert detect_periodicity([1, 2, 3], 2, 2) == Periodicity(0, 1, 1)
    assert detect_periodicity([5, 7, 5, 7, 5, 7], 3, 3) == Periodicity(0, 2, 0)
    assert detect_periodicity([5, 7, 5, 7, 5], 3, 3) is None
    # saltus cap filters the arithmetic progression
    assert detect_periodicity([0, 3, 6, 9, 12], 4, 2) is None
    assert detect_periodicity([0, 3, 6, 9, 12], 4, 3) == Periodicity(0, 1, 3)
    # preperiod skips an irregular head
    assert detect_periodicity([9, 5, 5, 5, 5, 5, 5], 3, 3) == Periodicity(1, 1, 0)
