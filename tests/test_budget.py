"""The search budget: every entry point that takes sizes from a caller adds
up the positions its searches may explore (for starting values, the class
tables of ``mhrg.start_values``) and refuses, before any search starts,
work past ``SEARCH_BUDGET`` or work that checks nothing, in one format."""

import itertools
import json
import time
from math import comb

import pytest

from hookgames import (
    BoardParams,
    DomainError,
    RangeTooLargeError,
    YoungDiagram,
    closedforms,
    grundy_table,
    isomorphisms,
    mhrg,
    predict_1n,
    predict_start_square,
    verify,
    verify_staircase_iso,
    verify_widening,
)
from hookgames.cli import main
from hookgames.grundy import SEARCH_BUDGET, capped_comb, capped_pow2, check_budget
from hookgames.isomorphisms import (
    _halving_cost,
    _widening_boards,
    _widening_cost,
    verify_staircase_range,
    verify_widening_range,
)
from hookgames.mhrg import class_costs, search_cost

PAST = f"needs more than {SEARCH_BUDGET} positions"


def test_capped_counts_are_exact_up_to_the_budget():
    for n in range(200):
        for k in range(n + 1):
            assert capped_comb(n, k) == min(comb(n, k), SEARCH_BUDGET + 1), (n, k)
    for e in range(40):
        assert min(capped_pow2(e), SEARCH_BUDGET + 1) == min(2**e, SEARCH_BUDGET + 1)
    assert capped_comb(2 * 10**9, 10**9) == SEARCH_BUDGET + 1


def test_check_budget_reads_costs_only_until_the_budget_is_passed():
    with pytest.raises(RangeTooLargeError, match=rf"^work {PAST}$"):
        check_budget("work", itertools.repeat(1000))
    with pytest.raises(DomainError, match=r"^work checks nothing$") as refused:
        check_budget("work", [])
    assert not isinstance(refused.value, RangeTooLargeError)
    check_budget("work", [SEARCH_BUDGET])


def test_search_cost_counts_the_words_a_search_can_reach():
    # From the start: the mirror-free words, which the closure equals.
    for m, n in [(1, 1), (2, 5), (3, 3), (4, 7)]:
        board = BoardParams(m, n)
        assert search_cost(board) == len(mhrg.reachable_words(board))
    # From an unreachable diagram: every word with m beads.
    board = BoardParams(9, 9)
    assert search_cost(board, YoungDiagram((5,))) == comb(18, 9) == 48_620
    assert search_cost(board, YoungDiagram((9,) * 9)) == 512
    assert search_cost(BoardParams(16, 16)) == search_cost(BoardParams(16, 17)) == SEARCH_BUDGET
    assert search_cost(BoardParams(17, 17)) > SEARCH_BUDGET


@pytest.fixture
def searches(monkeypatch):
    """Every search and check an entry point may start, counted."""
    calls = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for module, names in (
        (mhrg, ("solve", "reachable_words", "_decode_moves", "_move_of_box", "moves_semantic",
                "options_cross_check")),
        (closedforms, ("solve", "start_values", "reachable_words", "solve_hrg")),
        (isomorphisms, ("reachable_words", "verify_isomorphism", "verify_widening",
                        "verify_staircase_iso")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for vid, (name, check, defaults, costs) in closedforms._VERIFIERS.items():
        monkeypatch.setitem(
            closedforms._VERIFIERS, vid, (name, counted(vid, check), defaults, costs)
        )
    return calls


# (command line past the budget, its message, cost of the largest input
# admitted beside it)
CLI_PAST = [
    (("grundy", "-m", "17", "-n", "17"), "exhaustive solving on 17x17",
     search_cost(BoardParams(16, 17))),
    (("grundy", "-m", "9", "-n", "10", "--diagram", "5"), "exhaustive solving on 9x10",
     search_cost(BoardParams(9, 9), YoungDiagram((5,)))),
    (("grundy", "-m", "18", "-n", "17"), "exhaustive solving on 18x17",
     search_cost(BoardParams(16, 17))),
    (("reachable", "-m", "17", "-n", "17"), "reachable-set enumeration on 17x17",
     search_cost(BoardParams(16, 17))),
    (("play", "-m", "17", "-n", "17"), "playing against the engine on 17x17",
     search_cost(BoardParams(16, 17))),
    (("options", "-m", "1", "-n", str(SEARCH_BUDGET + 1)),
     f"move listing on 1x{SEARCH_BUDGET + 1}", SEARCH_BUDGET),
    (("options", "-m", "16", "-n", "17", "--engine", "cross-check"),
     "move listing on 16x17", (16 * 16) ** 2),
    (("options", "-m", "17", "-n", "16", "--engine", "cross-check"),
     "move listing on 17x16", (16 * 16) ** 2),
    (("table", "--max-m", "13", "--max-n", "13"), "table regeneration up to 13x13",
     sum(class_costs(closedforms._table_boards(12, 12)))),
]

# verify id: (its flag, the smallest value past the budget, a value that
# checks nothing)
VERIFY_RANGES = {
    "row1": ("max_n", 256, 0),
    "row2": ("max_n", 62, 1),
    "start2": ("max_n", 90, 1),
    "square": ("max_n", 16, 0),
    "nim": ("n", 17, -1),
    "symmetry": ("max_n", 9, 0),
}


@pytest.mark.parametrize("argv, what, admitted", CLI_PAST)
def test_cli_refuses_work_past_the_budget_before_any_search(
    capsys, searches, argv, what, admitted
):
    assert admitted <= SEARCH_BUDGET
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {what} {PAST}\n")
    assert searches == []


@pytest.mark.parametrize("theorem", sorted(VERIFY_RANGES))
def test_verify_ranges_past_the_budget_or_empty_are_refused_unchecked(searches, theorem):
    key, past, empty = VERIFY_RANGES[theorem]
    costs = closedforms._VERIFIERS[theorem][3]
    assert sum(costs(**{key: past - 1})) <= SEARCH_BUDGET
    with pytest.raises(RangeTooLargeError, match=rf"^{theorem} with {key}={past} {PAST}$"):
        verify(theorem, **{key: past})
    with pytest.raises(DomainError, match=rf"^{theorem} with {key}={empty} checks nothing$"):
        verify(theorem, **{key: empty})
    assert searches == []


def test_tables_past_the_budget_or_empty_are_refused_unsearched(searches):
    # 12x12 fits the budget (57,114 class entries), so the golden grid
    # refuses it; 13x13 (137,896) is past the budget.
    assert sum(class_costs(closedforms._table_boards(12, 12))) == 57_114
    assert sum(class_costs(closedforms._table_boards(13, 13))) == 137_896
    with pytest.raises(RangeTooLargeError, match=rf"^table1 with max_m=13, max_n=13 {PAST}$"):
        verify("table1", max_m=13, max_n=13)
    with pytest.raises(DomainError, match=r"^table1 compares with the 9x9 golden grid, got 12x12$"):
        verify("table1", max_m=12, max_n=12)
    with pytest.raises(DomainError, match=r"^table1 with max_m=0, max_n=9 checks nothing$"):
        verify("table1", max_m=0)
    with pytest.raises(RangeTooLargeError, match=rf"^table regeneration up to 13x13 {PAST}$"):
        grundy_table(13, 13)
    for max_m, max_n in [(0, 9), (9, 0), (-1, -1)]:
        with pytest.raises(DomainError, match=rf"up to {max_m}x{max_n} checks nothing$"):
            grundy_table(max_m, max_n)
    assert searches == []


def test_isomorphism_checks_past_the_budget_or_empty_are_refused_unchecked(capsys, searches):
    assert sum(_widening_cost(m, n) for m, n in _widening_boards(11)) <= SEARCH_BUDGET
    assert sum(map(_halving_cost, range(1, 15))) <= SEARCH_BUDGET
    assert _widening_cost(15, 15) <= SEARCH_BUDGET and _halving_cost(15) <= SEARCH_BUDGET
    refusals = [
        (lambda: verify_widening_range(12), RangeTooLargeError,
         f"widening verification for sides in 1..12 {PAST}"),
        (lambda: verify_widening_range(0), DomainError,
         "widening verification for sides in 1..0 checks nothing"),
        (lambda: verify_widening(16, 16), RangeTooLargeError,
         f"widening verification of 16x16 {PAST}"),
        (lambda: verify_staircase_range(15), RangeTooLargeError,
         f"staircase isomorphism verification for n in 1..15 {PAST}"),
        (lambda: verify_staircase_range(0), DomainError,
         "staircase isomorphism verification for n in 1..0 checks nothing"),
        (lambda: verify_staircase_iso(16), RangeTooLargeError,
         f"staircase isomorphism verification of 16x17 {PAST}"),
        (lambda: verify_staircase_iso(0), DomainError,
         "staircase isomorphism verification needs n >= 1, got 0"),
    ]
    for call, error, message in refusals:
        with pytest.raises(error, match=f"^{message}$"):
            call()
    for argv, message in [
        (("widen", "--max-side", "12"), f"widening verification for sides in 1..12 {PAST}"),
        (("shifted", "--n", "0"),
         "staircase isomorphism verification for n in 1..0 checks nothing"),
    ]:
        assert main(["verify", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert searches == []


BILLION = "1000000000"


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (("grundy", "-m", BILLION, "-n", BILLION),
         f"exhaustive solving on {BILLION}x{BILLION} {PAST}"),
        (("grundy", "-m", BILLION, "-n", "2", "--diagram", "2,1"),
         f"exhaustive solving on {BILLION}x2 {PAST}"),
        (("options", "-m", BILLION, "-n", BILLION), f"move listing on {BILLION}x{BILLION} {PAST}"),
        (("verify", "row1", "--max-n", BILLION), f"row1 with max_n={BILLION} {PAST}"),
        (("verify", "widen", "--max-side", BILLION),
         f"widening verification for sides in 1..{BILLION} {PAST}"),
        (("table", "--max-m", BILLION), f"table regeneration up to {BILLION}x9 {PAST}"),
        (("table", "--max-m", BILLION, "--max-n", "0"),
         f"table regeneration up to {BILLION}x0 checks nothing"),
    ],
)
def test_huge_sizes_typed_by_a_user_are_refused_at_once(capsys, argv, refusal):
    # Refused from the first few boards: no 2**(10**9) integer is built,
    # and no loop runs to 10**9.
    start = time.perf_counter()
    assert main(list(argv)) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: {refusal}\n")


def test_boards_past_the_old_caps_are_solved(capsys):
    # 10x10 explores 1,024 positions; the old 81-cell cap refused it.
    assert main(["grundy", "-m", "10", "-n", "10", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["grundy"], payload["explored"]) == (predict_start_square(10), 1024)
    # 1x70 has a side past the old cap of 64 and explores 70 positions.
    assert main(["grundy", "-m", "1", "-n", "70"]) == 0
    value = predict_1n(70, 70)[1]
    assert capsys.readouterr().out == f"G(70 in 1x70) = {value}  [70 positions explored]\n"
