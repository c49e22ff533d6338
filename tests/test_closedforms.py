from pathlib import Path

import pytest

from hookgames import (
    BoardParams,
    DomainError,
    MhrgPosition,
    RangeTooLargeError,
    TwoRowClass,
    YoungDiagram,
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
from hookgames.grundy import SEARCH_BUDGET

GOLDEN = Path(__file__).parent / "data" / "table1.csv"


def test_predict_1n_examples():
    assert predict_1n(4, 2) == (False, None)
    assert predict_1n(4, 4) == (True, 3)
    assert predict_1n(5, 5) == (True, 5)
    assert predict_1n(5, 0) == (True, 0)
    assert predict_1n(6, 2) == (True, 2)
    with pytest.raises(DomainError):
        predict_1n(4, 5)
    with pytest.raises(DomainError, match=r"^one-row prediction needs n >= 1, got 0$"):
        predict_1n(0, 0)


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
    with pytest.raises(RangeTooLargeError, match="^table regeneration up to 13x13 needs"):
        grundy_table(13, 13)


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
    with pytest.raises(RangeTooLargeError, match="^row1 with max_n=256 needs more than"):
        verify("row1", max_n=256)
    with pytest.raises(
        RangeTooLargeError, match=r"^row2 with max_n=62 needs more than 65536 positions$"
    ):
        verify("row2", max_n=62)
    with pytest.raises(RangeTooLargeError, match="^nim with n=17 needs more than"):
        verify("nim", n=17)
    # The golden grid, not the budget, bounds table1.
    with pytest.raises(DomainError, match=r"^table1 compares with the 9x9 golden grid, got 10x9$"):
        verify("table1", max_m=10)


class _Admitted(Exception):
    """Raised in place of a check that its range's refusals let through."""


# Each id and the largest range its own hand-set bound admitted before the
# search budget replaced those bounds (table1's is still the golden grid).
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
    # Ranges from ``bound`` on are admitted until the budget (for table1,
    # the golden grid) refuses one, and that one is refused before its
    # check is called.
    def admitted(*args, **kwargs):
        raise _Admitted

    for vid, (name, _, defaults, costs) in closedforms._VERIFIERS.items():
        monkeypatch.setitem(closedforms._VERIFIERS, vid, (name, admitted, defaults, costs))
    for attr in ("verify_widening", "verify_staircase_iso"):
        monkeypatch.setattr(isomorphisms, attr, admitted)

    def run(value):
        if theorem in cli.ISO_VERIFIERS:
            cli.ISO_VERIFIERS[theorem][0](value)
        else:
            verify(theorem, **{key: value})

    def admits(value):
        try:
            run(value)
        except _Admitted:
            return True
        except DomainError:
            return False
        pytest.fail(f"{theorem} with {key}={value} ran no check")

    past = next(value for value in range(bound, bound + 1000) if not admits(value))
    assert past > bound
    if theorem == "table1":
        refusal = DomainError, rf"^table1 compares with the 9x9 golden grid, got {past}x9$"
    else:
        refusal = RangeTooLargeError, rf"\b{past} needs more than {SEARCH_BUDGET} positions$"
    with pytest.raises(refusal[0], match=refusal[1]):
        run(past)


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


def test_row1_reports_reachability_and_value_mismatches(monkeypatch):
    # On 1x2, length 1 is unreachable and length 2 has value 1.
    forged = {(2, 1): (True, 0), (2, 2): (True, 5)}
    real = closedforms.predict_1n
    monkeypatch.setattr(
        closedforms, "predict_1n", lambda n, length: forged.get((n, length)) or real(n, length)
    )
    report = verify("row1", max_n=2)
    assert report.checked == 5
    assert report.findings == [
        {"position": "1x2 (1)", "predicted": "reachable=True", "computed": "reachable=False"},
        {"position": "1x2 (2)", "predicted": "5", "computed": "1"},
    ]


def test_nim_reports_a_forged_value(monkeypatch):
    # 3,1 has value 3 ^ 1 = 2; every other diagram of the size-3 staircase
    # keeps its nim-sum.
    real = closedforms.predict_shifted
    monkeypatch.setattr(
        closedforms, "predict_shifted", lambda parts: 5 if tuple(parts) == (3, 1) else real(parts)
    )
    report = verify("nim", n=3)
    assert report.summary() == "FAIL shifted-nim {'n': 3}: 8 checks, 1 mismatches"
    assert report.findings == [{"position": "3,1", "predicted": "5", "computed": "2"}]


def test_row2_reports_a_reachability_mismatch(monkeypatch):
    real = closedforms.predict_2n_class

    def start_unreachable(half, lam1, lam2):
        if (half, lam1, lam2) == (1, 2, 2):
            return TwoRowClass.UNREACHABLE
        return real(half, lam1, lam2)

    monkeypatch.setattr(closedforms, "predict_2n_class", start_unreachable)
    report = verify("row2", max_n=2)
    assert report.findings == [
        {"position": "2x2 2,2", "predicted": "reachable=False", "computed": "reachable=True"},
    ]


def test_row2_needs_a_value_for_every_reachable_position(monkeypatch):
    # 4,2 on 2x4 is reachable and classed OTHER; a solve that leaves it
    # unvalued must fail the check, not pass as "value not in {0,1,2}",
    # also under ``python -O``.
    board = BoardParams(2, 4)
    dropped = closedforms.word_of_diagram(board, YoungDiagram((4, 2)))
    real = closedforms.solve

    def forged(b):
        value, memo = real(b)
        if b == board:
            del memo[dropped]
        return value, memo

    monkeypatch.setattr(closedforms, "solve", forged)
    with pytest.raises(KeyError):
        verify("row2", max_n=4)
