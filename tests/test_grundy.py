import random

import pytest

from hookgames import (
    BoardParams,
    EngineInvariantError,
    GrundyMemo,
    ShiftedDiagram,
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
    memo = GrundyMemo("toy")
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


def test_memo_write_once():
    memo = GrundyMemo("toy")
    memo.record(b"k", 3)
    memo.record(b"k", 3)
    with pytest.raises(EngineInvariantError):
        memo.record(b"k", 4)
    assert len(memo) == 1 and b"k" in memo


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
    graph = {0: [1], 1: [0]}
    with pytest.raises(EngineInvariantError, match="cycle"):
        grundy(0, lambda p: graph[p], GrundyMemo("loop"))


def test_deep_game_does_not_recurse():
    # a 4000-deep chain would blow the interpreter stack under recursion
    memo = GrundyMemo("chain")
    assert grundy(4000, lambda p: [p - 1] if p else [], memo) == 0
    assert memo.get(0) == 0 and memo.get(1) == 1 and memo.get(3999) == 1
    assert len(memo) == 4001

