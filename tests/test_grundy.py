import random

import pytest

from hookgames import (
    BoardParams,
    EngineInvariantError,
    ShiftedDiagram,
    YoungDiagram,
    grundy,
    mex,
    solve,
    solve_hrg,
    start_position,
)
from hookgames.mhrg import reachable_words, word_options


def start_word(board):
    return start_position(board).encode()


def test_mex_examples():
    assert mex([]) == 0
    assert mex({0, 1, 3}) == 2
    assert mex({1, 2}) == 0
    assert mex([0, 0, 1, 1]) == 2
    assert mex(range(10)) == 10


def test_grundy_terminal_and_table_spots():
    memo = {}
    assert grundy(0, lambda p: [], memo) == 0

    value, _ = solve(BoardParams(3, 5))
    assert value == 0
    value, _ = solve_hrg(7, ShiftedDiagram((7, 6, 4, 3, 2)))
    assert value == 4


def test_grundy_bounded_by_option_count():
    board = BoardParams(3, 4)
    options = lambda w: word_options(w, 7)
    memo = {}
    for word in reachable_words(board):
        value = grundy(word, options, memo)
        assert value <= len(options(word))


def test_memo_determinism_under_exploration_order():
    board = BoardParams(3, 4)
    reference = None
    for seed in (0, 1, 2024):
        rng = random.Random(seed)

        def shuffled(w):
            opts = sorted(word_options(w, 7))
            rng.shuffle(opts)
            return opts

        table = {}
        grundy(start_word(board), shuffled, table)
        if reference is None:
            reference = table
        else:
            assert table == reference


def test_cycle_guard():
    # An option not valued yet must be smaller than its position: that
    # refuses a cycle.
    graph = {0: [1], 1: [0]}
    with pytest.raises(EngineInvariantError, match="option 1 of 0 is not valued before it"):
        grundy(0, graph.__getitem__, {})


def test_in_order_refuses_an_option_that_comes_later():
    # A move up is refused even when it closes no cycle.
    graph = {0: [1], 1: []}
    with pytest.raises(EngineInvariantError, match="option 1 of 0 is not valued before it"):
        grundy(0, graph.__getitem__, {})


def test_deep_game_does_not_recurse():
    # a 4000-deep chain would blow the interpreter stack under recursion
    memo = {}
    assert grundy(4000, lambda p: [p - 1] if p else [], memo) == 0
    assert memo.get(0) == 0 and memo.get(1) == 1 and memo.get(3999) == 1
    assert len(memo) == 4001


def test_grundy_passes_on_a_key_error_from_the_options():
    # Only an option out of order is an engine invariant; a failing options
    # function keeps its own error.
    with pytest.raises(KeyError, match="boom"):
        grundy(0, lambda p: {}["boom"], {})


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve(BoardParams(3, 5)),
        lambda: solve(BoardParams(3, 5), YoungDiagram((5, 4, 3))),
        lambda: solve_hrg(4),
    ],
    ids=["sweep", "search", "staircase"],
)
def test_each_solve_returns_a_fresh_memo(call):
    first_value, first = call()
    second_value, second = call()
    assert first is not second and type(second) is dict
    expected = dict(second)
    first.clear()
    assert second == expected and first_value == second_value
    assert call() == (second_value, expected)
