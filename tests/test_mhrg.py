import io
import json
import random
import re
import tracemalloc
from dataclasses import replace
from functools import cache
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from conftest import (
    brute_grundy_map,
    diagonal_of,
    moves_reference,
    rule_book_move_reference,
    rule_book_moves_reference,
    seeded_subgames,
    triples,
)

from hookgames import (
    BoardParams,
    DomainError,
    EngineInvariantError,
    MhrgPosition,
    YoungDiagram,
    all_diagrams,
    hook_at,
    is_symmetric,
    move_for_box,
    moves_semantic,
    options_cross_check,
    options_diagonal,
    options_semantic,
    reachable,
    solve,
    start_position,
)
from hookgames import closedforms
from hookgames.cli import main
from hookgames.grundy import grundy
from hookgames.isomorphisms import widen_word
from hookgames.mhrg import (
    ENGINES,
    _DENSE,
    _class_chain,
    _count_inside,
    _decode_moves,
    _move_of_box,
    _reversed,
    _value_in_order,
    _words_inside,
    diagram_of_word,
    in_game,
    mirror_free,
    reachable_words,
    search_cost,
    start_values,
    word_of_diagram,
    word_options,
)


def rows_of(positions) -> set[tuple[int, ...]]:
    return {p.diagram.rows for p in positions}


def test_position_validation():
    board = BoardParams(2, 3)
    MhrgPosition(board, YoungDiagram((3, 1)))
    with pytest.raises(DomainError):
        MhrgPosition(board, YoungDiagram((4,)))
    with pytest.raises(DomainError):
        MhrgPosition(board, YoungDiagram((2, 2, 1)))


def test_options_full_square_2x2():
    pos = start_position(BoardParams(2, 2))
    expected = {(2, 1), (1,), ()}
    assert rows_of(options_semantic(pos)) == expected
    assert rows_of(options_diagonal(pos)) == expected
    assert rows_of(options_cross_check(pos)) == expected


def test_single_removal_full_3x5():
    pos = start_position(BoardParams(3, 5))
    record = move_for_box(pos, 2, 4)
    assert record.second is None
    assert record.result.diagram.rows == (5, 4, 3)
    assert record.first.label_list() == (2, 3, 4)


def test_forced_double_removal_chain():
    # From (5,4,3): removing the hook at (2,1) leaves (5,2), where the hook
    # at (1,2) carries the same labels and must go too, ending at (1,1).
    board = BoardParams(3, 5)
    pos = MhrgPosition(board, YoungDiagram((5, 4, 3)))
    record = move_for_box(pos, 2, 1)
    assert record.first.label_list() == (1, 2, 3, 3, 4)
    assert record.second is not None
    assert record.second.corner == (1, 2)
    assert record.second.label_list() == record.first.label_list()
    assert record.result.diagram.rows == (1, 1)

    # The bead-word engine reaches (1,1) by two first hooks, (2,1) via
    # interval [-2,2] and (1,3) via [0,4]; the move kept has the smaller
    # corner.  Either order pairs an interval with its mirror.
    to_1_1 = word_of_diagram(board, YoungDiagram((1, 1)))
    [(first, second)] = [(f, s) for f, s, w in _decode_moves(board, pos.encode()) if w == to_1_1]
    assert first.corner == (1, 3)
    assert (first.lo, first.hi) == (0, 4)
    assert second is not None
    assert (second.lo, second.hi) == (-2, 2)

    via_other_box = move_for_box(pos, 2, 1)
    assert via_other_box.result.diagram.rows == (1, 1)
    assert (via_other_box.first.lo, via_other_box.first.hi) == (-2, 2)


def test_profile_engine_mirror_cases_2x2():
    board = BoardParams(2, 2)
    pos = start_position(board)
    by_interval = {(f.lo, f.hi): (s, w) for f, s, w in _decode_moves(board, pos.encode())}
    # [-1, 1] is self-mirrored: single removal to (1).
    second, result = by_interval[(-1, 1)]
    assert second is None and diagram_of_word(result).rows == (1,)
    # [0, 1] mirrors to [-1, 0], which is accepted: forced to empty.
    second, result = by_interval[(0, 1)]
    assert second is not None
    assert (second.lo, second.hi) == (-1, 0)
    assert diagram_of_word(result).rows == ()


def test_empty_position_has_no_options():
    pos = MhrgPosition(BoardParams(3, 5), YoungDiagram(()))
    assert options_semantic(pos) == set()
    assert options_diagonal(pos) == set()
    assert _decode_moves(pos.board, pos.encode()) == []


def test_reachable_examples():
    assert rows_of(reachable(BoardParams(2, 2))) == {(2, 2), (2, 1), (1,), ()}
    assert rows_of(reachable(BoardParams(1, 4))) == {(4,), (3,), (1,), ()}
    assert rows_of(reachable(BoardParams(1, 3))) == {(3,), (2,), (1,), ()}


def test_reachable_contains_start_and_empty():
    for m, n in [(1, 1), (2, 3), (3, 4)]:
        board = BoardParams(m, n)
        reached = rows_of(reachable(board))
        assert (n,) * m in reached
        assert () in reached


def test_reachable_engines_agree():
    for m, n in [(1, 4), (2, 3), (2, 4), (3, 3)]:
        board = BoardParams(m, n)
        assert reachable_words(board, "cross-check") == reachable_words(board, "diagonal")


def test_engine_equivalence_small_boards():
    # both engines must agree move for move: corners, intervals, labels,
    # forced follow-ups and results
    for m in range(1, 5):
        for n in range(m, 5):
            board = BoardParams(m, n)
            for word in sorted(reachable_words(board)):
                pos = MhrgPosition(board, diagram_of_word(word))
                assert triples(moves_semantic(pos)) == _decode_moves(board, word)


def test_moves_shrink_and_mirror():
    board = BoardParams(3, 4)
    for word in sorted(reachable_words(board)):
        pos = MhrgPosition(board, diagram_of_word(word))
        for rec in moves_semantic(pos):
            assert rec.result.diagram.n_boxes < pos.diagram.n_boxes
            if rec.second is not None:
                assert rec.second.labels == rec.first.labels
                assert (rec.second.lo, rec.second.hi) == (
                    board.n - board.m - rec.first.hi,
                    board.n - board.m - rec.first.lo,
                )


def test_reachable_positions_symmetric_on_near_square_boards():
    for n in range(1, 5):
        for board in (BoardParams(n, n), BoardParams(n, n + 1)):
            for pos in reachable(board):
                assert is_symmetric(pos.encode(), board.m, board.n)


def test_move_records_deduplicate_by_result():
    board = BoardParams(3, 5)
    pos = MhrgPosition(board, YoungDiagram((5, 4, 3)))
    moves = _decode_moves(board, pos.encode())
    results = [w for _, _, w in moves]
    assert len(results) == len(set(results))
    assert set(results) == {p.encode() for p in options_diagonal(pos)}
    # canonical order by the results' diagonal profiles
    profiles = [diagonal_of(board, diagram_of_word(w)).encode() for w in results]
    assert profiles == sorted(profiles)
    semantic = moves_semantic(pos)
    assert [r.result.encode() for r in semantic] == results
    assert [r.first.corner for r in semantic] == [first.corner for first, _, _ in moves]


def test_mirror_label_check_runs_on_moves_that_are_not_kept(monkeypatch):
    # On 2x3 at (2,): the hook at (1,2) fires the follow-up on interval 0..0
    # and reaches the empty board, as the hook at (1,1) does alone; only the
    # (1,1) record is kept, so no kept record touches interval 0..0.
    board = BoardParams(2, 3)
    pos = MhrgPosition(board, YoungDiagram((2,)))
    loser = move_for_box(pos, 1, 2)
    assert (loser.second.lo, loser.second.hi) == (0, 0)
    assert [(f.corner, s) for f, s, _ in _decode_moves(board, pos.encode())] == [((1, 1), None)]
    import hookgames.mhrg as mh

    original = mh.interval_labels

    def corrupt(board, lo, hi):
        labels = original(board, lo, hi)
        return (1,) if (lo, hi) == (0, 0) else labels

    monkeypatch.setattr(mh, "interval_labels", corrupt)
    with pytest.raises(EngineInvariantError, match="mirror hook labels diverge"):
        _decode_moves(board, pos.encode())
    # The player's box (1,2) is that forced move.
    with pytest.raises(EngineInvariantError, match="mirror hook labels diverge"):
        _move_of_box(board, pos.diagram, 1, 2)


def test_mirror_label_check_runs_on_kept_forced_records(capsys, monkeypatch):
    # On the 2x2 start the hook at (1,2), diagonals 0..1, forces the one at
    # (1,1), diagonals -1..0, and that move is kept.
    pos = start_position(BoardParams(2, 2))
    [(first, second)] = [(f, s) for f, s, _ in _decode_moves(pos.board, pos.encode()) if s]
    assert (first.corner, second.corner) == ((1, 2), (1, 1))
    assert (second.lo, second.hi) == (-1, 0)
    import hookgames.mhrg as mh

    original = mh.interval_labels

    def corrupt(board, lo, hi):
        labels = original(board, lo, hi)
        return labels + (2,) if (lo, hi) == (-1, 0) else labels

    monkeypatch.setattr(mh, "interval_labels", corrupt)
    with pytest.raises(EngineInvariantError, match="mirror hook labels diverge at 2,2"):
        _decode_moves(pos.board, pos.encode())
    # A player who takes the box (1,2) in play makes that forced move.
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n"))
    with pytest.raises(EngineInvariantError, match="mirror hook labels diverge at 2,2"):
        main(["play", "-m", "2", "-n", "2"])
    assert "you removed" not in capsys.readouterr().out


def test_rule_book_moves_match_the_unfiltered_scan_on_every_diagram():
    # move_for_box compares labels only with hooks as long as the first one;
    # the reference compares with every hook, reachable diagram or not.  The
    # option set, deduplicated without the sort, is the set of move results.
    # The bead word's move of each box and the decoder's moves match them.
    moves = diagrams = 0
    for m in range(1, 5):
        for n in range(m, 7):
            board = BoardParams(m, n)
            for diagram in all_diagrams(board):
                pos = MhrgPosition(board, diagram)
                for i, j in diagram.boxes():
                    expected = rule_book_move_reference(pos, i, j)
                    assert move_for_box(pos, i, j) == expected, (m, n, diagram, (i, j))
                    assert [_move_of_box(board, diagram, i, j)] == triples([expected])
                    moves += 1
                records = moves_semantic(pos)
                assert records == rule_book_moves_reference(pos), (m, n, diagram)
                assert triples(records) == _decode_moves(board, pos.encode()), (m, n, diagram)
                assert options_semantic(pos) == {r.result for r in records}
                diagrams += 1
    assert (moves, diagrams) == (6247, 708)


def test_move_of_a_box_matches_the_rule_book_on_every_diagram_up_to_30_cells():
    # play reads the player's box off the bead word; the rule book applies
    # it to the diagram.  Every box of every diagram, reachable or not.
    boxes = 0
    for m in range(1, 6):
        for n in range(m, 30 // m + 1):
            board = BoardParams(m, n)
            for diagram in all_diagrams(board):
                pos = MhrgPosition(board, diagram)
                for i, j in diagram.boxes():
                    expected = triples([move_for_box(pos, i, j)])
                    assert [_move_of_box(board, diagram, i, j)] == expected, (m, n, diagram, i, j)
                    boxes += 1
    assert boxes == 45153


@pytest.mark.parametrize("m, n", [(9, 12), (20, 25), (6, 60)])
def test_move_of_a_box_matches_the_rule_book_past_81_cells(m, n):
    # Every box of six seeded in-game diagrams, one coin on each of m
    # distinct mirror pairs, each on a random side.
    board, size = BoardParams(m, n), m + n
    rng = random.Random(f"{m}x{n}")
    kinds = set()
    for _ in range(6):
        pairs = rng.sample(range(size // 2), m)
        diagram = diagram_of_word(sum(1 << rng.choice((p, size - 1 - p)) for p in pairs))
        pos = MhrgPosition(board, diagram)
        for i, j in diagram.boxes():
            [expected] = triples([move_for_box(pos, i, j)])
            assert _move_of_box(board, diagram, i, j) == expected, (diagram, i, j)
            kinds.add(expected[1] is None)
    assert kinds == {True, False}


def test_move_of_a_box_refuses_a_box_outside_the_diagram():
    board, diagram = BoardParams(3, 5), YoungDiagram((5, 4, 3))
    for box in [(3, 4), (4, 1), (0, 1), (1, 0), (-1, 2)]:
        with pytest.raises(DomainError) as refused:
            _move_of_box(board, diagram, *box)
        with pytest.raises(DomainError) as by_hook_at:
            hook_at(board, diagram, *box)
        assert str(refused.value) == str(by_hook_at.value) == f"box {box} not in diagram 5,4,3"


def test_move_records_match_the_all_pairs_reference_on_every_word():
    # _decode_moves decodes one move per result of word_options; the
    # reference tries every bead-hole pair and reads hooks off the diagrams.
    # Every m-bead word, mirror-free or not, of the boards with m + n <= 12.
    words = 0
    for m in range(1, 7):
        for n in range(m, 13 - m):
            board, size = BoardParams(m, n), m + n
            for beads in combinations(range(size), m):
                word = sum(1 << b for b in beads)
                pos = MhrgPosition(board, diagram_of_word(word))
                assert _decode_moves(board, word) == triples(moves_reference(pos)), (m, n, str(pos))
                words += 1
    assert words == 4720


def test_rule_book_guards_fire_on_forged_labels(monkeypatch):
    # Every hook that the scans read as long as the chosen first one reports
    # its labels, so they find more equal-label hooks than the rule allows.
    import hookgames.mhrg as mh

    real = mh._box_hook
    cases = [
        # After the hook at (3,3), the boxes (2,3) and (3,2) both have
        # one-box hooks, and removing them leaves different diagrams.
        (BoardParams(3, 3), (3, 3, 3), (3, 3), "disagree on the result"),
        # After the hook at (1,3), only (1,2) has a one-box hook; removing
        # it leaves (1,), whose box (1,1) has a one-box hook again.
        (BoardParams(1, 3), (3,), (1, 3), r"third equal-label hook at \(1, 1\)"),
    ]
    for board, rows, box, message in cases:
        pos = MhrgPosition(board, YoungDiagram(rows))
        first = hook_at(board, pos.diagram, *box)

        def forged(grid, rows, cols, i, j, first=first):
            hook = real(grid, rows, cols, i, j)
            return replace(hook, labels=first.labels) if hook.size == first.size else hook

        monkeypatch.setattr(mh, "_box_hook", forged)
        with pytest.raises(EngineInvariantError, match=message):
            move_for_box(pos, *box)


def test_rule_book_calls_no_bead_word_code(monkeypatch):
    # The oracle reads diagrams only: with the bead-word rule, the hooks
    # decoded from words and the interval labels all forged to raise, its
    # answers stay the same on every diagram of the boards up to 3x5.
    import hookgames.diagrams as dg
    import hookgames.mhrg as mh

    positions = [
        MhrgPosition(BoardParams(m, n), diagram)
        for m in range(1, 4)
        for n in range(m, 6)
        for diagram in all_diagrams(BoardParams(m, n))
    ]

    def answers():
        return [
            (
                [move_for_box(pos, i, j) for i, j in pos.diagram.boxes()],
                options_semantic(pos),
                moves_semantic(pos),
            )
            for pos in positions
        ]

    expected = answers()

    def forged(*args, **kwargs):
        raise AssertionError("the rule book called bead-word code")

    for module, name in [
        (mh, "word_options"),
        (mh, "_hook"),
        (mh, "_forced_move"),
        (mh, "interval_labels"),
        (dg, "interval_labels"),
    ]:
        monkeypatch.setattr(module, name, forged)
    with pytest.raises(AssertionError, match="bead-word code"):
        _decode_moves(positions[-1].board, positions[-1].encode())
    assert answers() == expected
    assert len(positions) == 183


def test_in_game_matches_the_move_closure_on_every_diagram():
    for m in range(1, 6):
        for n in range(m, 7):
            board = BoardParams(m, n)
            closure = reachable_words(board)
            for diagram in all_diagrams(board):
                expected = word_of_diagram(board, diagram) in closure
                assert in_game(board, diagram) == expected, (m, n, diagram.rows)


def solvable_boards():
    """Every board with sides up to 64 and at most 81 cells."""
    return [
        BoardParams(m, n) for m in range(1, 10) for n in range(m, 65) if m * n <= 81
    ]


def test_value_is_the_xor_of_the_positive_coins_exactly_when_m_is_k():
    # mhrg's docstring: on n x n and n x (n + 1) every pair holds a coin and
    # the game is Turning Turtles, so a position's value is the XOR of its
    # positive coins.  On every other board of at most 72 cells some
    # position breaks that formula.  The coin on the high bit b of a pair
    # is +(b - (size - 1 - k)).
    boards = [BoardParams(m, n) for m in range(1, 9) for n in range(m, 72 // m + 1)]
    positions = 0
    for board in boards:
        size = board.m + board.n
        k = size // 2
        _, memo = solve(board)
        positions += len(memo)

        def heads(word):
            xor = 0
            for b in range(size - k, size):
                if word >> b & 1:
                    xor ^= b - (size - 1 - k)
            return xor

        exact = all(value == heads(word) for word, value in memo.items())
        assert exact == (board.m == k), (board.m, board.n)
    assert (len(boards), positions) == (167, 73420)


@cache
def dfs_values(board) -> dict[int, int]:
    # Cached so that tier-1 walks each board's game graph once: the closure
    # test and the sweep test below both read this memo.  Callers only read it.
    size = board.m + board.n
    table = {}
    grundy(start_position(board).encode(), lambda w: word_options(w, size), table)
    return table


def with_pairs(words, size):
    """Kernel input for ``words``: each with both bits of its pairs and its
    signs, bit ``j`` set when the ``j``-th coin from the middle is positive."""
    listed = []
    for w in words:
        pairs = w | _reversed(w, size)
        highs = [b for b in range(size - size // 2, size) if pairs >> b & 1]
        listed.append((w, pairs, sum(1 << j for j, b in enumerate(highs) if w >> b & 1)))
    return listed


def test_reachable_set_is_mirror_free_on_every_solvable_board():
    # The depth-first search from the start values its whole move closure.
    # That closure lies inside the mirror-free words and has as many
    # positions as there are of them (choose m of the floor((m + n) / 2)
    # mirror pairs, then a side in each), so the two sets are equal, as
    # in_game's docstring proves.  _words_inside the start, which
    # whole-board solves value in order, lists exactly that set, increasing,
    # with the pair mask of each word.  On boards of at most 48 cells,
    # reachable_words gives the same closure.
    boards = solvable_boards()
    for board in boards:
        m, n = board.m, board.n
        start = start_position(board).encode()
        closure = dfs_values(board).keys()
        assert len(closure) == comb((m + n) // 2, m) * 2**m == _count_inside(start, m + n), (m, n)
        assert all(mirror_free(word, m + n) for word in closure), (m, n)
        assert _words_inside(start, m + n) == with_pairs(sorted(closure), m + n), (m, n)
        if m * n <= 48:
            assert reachable_words(board) == closure, (m, n)
    assert len(boards) == 174


@pytest.mark.parametrize(
    "m, n", [(1, 300), (2, 80), (2, 81), (3, 40), (4, 24), (4, 25), (5, 16)]
)
def test_line_sweep_matches_the_search_past_81_cells(m, n):
    # On thin boards a coin's line carries almost all of its options; the
    # boards with m + n odd have a middle bit that no line may use.
    board = BoardParams(m, n)
    assert solve(board)[1] == dfs_values(board)


def test_whole_board_sweep_matches_the_search_on_every_solvable_board():
    # The sweep's memo equals a depth-first search's and holds as many
    # positions as search_cost counts.  On boards of at most 48 cells, a
    # subgame solve (the middle option of the start) values a part of it.
    for board in solvable_boards():
        expected = dfs_values(board)
        value, memo = solve(board)
        assert memo == expected and value == expected[start_position(board).encode()]
        assert len(memo) == search_cost(board), (board.m, board.n)
        if board.m * board.n > 48:
            continue
        size = board.m + board.n
        children = sorted(word_options(start_position(board).encode(), size))
        sub = diagram_of_word(children[len(children) // 2])
        _, sub_memo = solve(board, sub)
        assert sub_memo.items() <= memo.items(), (board.m, board.n)


def forge_both_rules(monkeypatch, extra):
    """Give each word of each board, by both rules, the options ``extra(m +
    n, word)`` besides its own, so that cross-check's two sides agree."""
    import hookgames.mhrg as mh

    words, rule_book = mh.word_options, mh.options_semantic

    def forged_rule_book(pos):
        added = extra(pos.board.m + pos.board.n, pos.encode())
        return rule_book(pos) | {MhrgPosition(pos.board, diagram_of_word(w)) for w in added}

    monkeypatch.setattr(mh, "word_options", lambda word, size: words(word, size) | extra(size, word))
    monkeypatch.setattr(mh, "options_semantic", forged_rule_book)


def test_sweep_refuses_an_option_outside_its_order(monkeypatch):
    # An engine that emits a larger word breaks the increasing order: here
    # every position, the first and smallest (3) included, gets the start
    # (24), which is valued last.  The diagonal engine values by lines and
    # reads no option sets, so the forged engine is cross-check's, both
    # rules alike.
    forge_both_rules(monkeypatch, lambda size, word: {24})
    with pytest.raises(EngineInvariantError, match="option 24 of 3 is not valued before it"):
        solve(BoardParams(2, 3), engine="cross-check")


@pytest.mark.parametrize(
    "forge, message",
    [
        (lambda words: words[::-1], "option 134 of 224 is not valued before it"),
        (lambda words: words[:4] + words[3:4] + words[5:], "word 14 is listed after 14"),
        (lambda words: words[:3] + [words[4], words[3]] + words[5:], "word 14 is listed after 19"),
        (lambda words: words[:5] + words[6:], "31 words listed for the 32 mirror-free 8-bit"),
        (lambda words: words[:-1], "31 words listed for the 32 mirror-free 8-bit"),
    ],
    ids=["reversed", "repeated", "swapped", "missing", "missing-last"],
)
def test_line_sweep_refuses_a_word_list_out_of_order_or_incomplete(forge, message):
    # The line sweep trusts the list to hold every mirror-free word once,
    # increasing: a word valued early misses its lines' lower words, and a
    # missing word's value is missing from its lines.  3x5 has 32 words,
    # all inside its start, 224.
    words = _words_inside(224, 8)
    assert _value_in_order(words, 224, 8, {}) is None
    with pytest.raises(EngineInvariantError, match=message):
        _value_in_order(forge(words), 224, 8, {})


def test_line_sweep_refuses_a_line_left_open():
    # 2x3's words are 3, 9, 18 and 24.  18 closes the line of the coin -1
    # (bit 1), whose words are 3 and 18.  10, which holds both bits of the
    # pair (1, 3), in 18's place leaves that line open.
    with pytest.raises(EngineInvariantError, match="1 lines still open"):
        _value_in_order(with_pairs([3, 9, 10, 24], 5), 24, 5, {})


def sweep_5x8(memo):
    """``memo`` after a line sweep of 5x8's 192 words (its start is 31 << 8)."""
    start = 31 << 8
    _value_in_order(_words_inside(start, 13), start, 13, memo)
    return memo


def test_line_sweep_keeps_pre_valued_words_and_still_fills_their_lines():
    # The class chain hands the sweep its inert-coin words already valued,
    # on both engines; cross-check checks only the words the sweep values.
    # A word the memo holds keeps its value but still adds it to its lines,
    # so the words valued after it read the same masks as in a fresh sweep.
    # Here a seeded half of the words is valued beforehand.
    fresh = sweep_5x8({})
    assert len(fresh) == 192
    half = random.Random(27).sample(sorted(fresh), 96)
    assert sweep_5x8({w: fresh[w] for w in half}) == fresh


class _NoReads(dict):
    """A memo that refuses every read by key (``dict.get`` bypasses it)."""

    def __getitem__(self, key):
        raise AssertionError(f"read of {key}")


def sweep_5x8_counting_double_flips(monkeypatch, memo):
    """:func:`sweep_5x8` of ``memo`` and the double flips it read, counted
    as the rank deltas drawn from its coin tables."""
    import hookgames.mhrg as mh

    drawn = []

    class Counted(tuple):
        def __iter__(self):
            for delta in tuple.__iter__(self):
                drawn.append(delta)
                yield delta

    table = mh._coin_table

    def counted(pairs, size, deltas):
        return [(hb, lb, last, Counted(flips)) for hb, lb, last, flips in table(pairs, size, deltas)]

    monkeypatch.setattr(mh, "_coin_table", counted)
    return sweep_5x8(memo), len(drawn)


def test_line_sweep_reads_no_double_flip_of_a_pre_valued_word(monkeypatch):
    # A word the memo holds already takes no option values: its double
    # flips are not read, and its lines' masks are all it adds.  The j-th
    # coin from the middle, when positive, flips with each of the j coins
    # inside it, so a word reads as many double flips as the sum of the
    # places of its positive coins: 960 over 5x8's 192 words.  With a
    # seeded half of them valued beforehand, only the other half reads;
    # with all of them, none does, and no memo value is read by key.
    fresh = sweep_5x8({})
    start = 31 << 8
    flips = {
        w: sum(j for j in range(5) if signs >> j & 1) for w, _, signs in _words_inside(start, 13)
    }
    assert sum(flips.values()) == 960
    half = random.Random(27).sample(sorted(fresh), 96)
    for valued in ([], half, sorted(fresh)):
        unvalued = sum(flips[w] for w in fresh if w not in valued)
        swept, drawn = sweep_5x8_counting_double_flips(monkeypatch, {w: fresh[w] for w in valued})
        assert swept == fresh and drawn == unvalued
    assert sweep_5x8(_NoReads(fresh)) == fresh


@pytest.mark.parametrize(
    "forge, message",
    [
        (lambda words: words[:3] + words[4:], "12 words listed for the 13 mirror-free 8-bit"),
        (lambda words: words[:8] + with_pairs([49], 8) + words[8:], "14 words listed for the 13"),
    ],
    ids=["missing", "outside"],
)
def test_subgame_sweep_refuses_a_list_missing_a_word_or_past_its_diagram(forge, message):
    # The subgame of 4,2,2 on 3x5 (word 76) holds 13 words.  3,3 (word 49)
    # lies below 76 but not inside 4,2,2; the count of the words inside
    # refuses it, and refuses a list that lacks 14, a word of the subgame.
    # The complete list is valued with lines on its edge left open.
    words = _words_inside(76, 8)
    assert [w for w, _, _ in words] == [7, 11, 13, 14, 19, 21, 22, 35, 41, 42, 69, 73, 76]
    memo = {}
    _value_in_order(words, 76, 8, memo)
    assert memo.items() <= solve(BoardParams(3, 5))[1].items() and len(memo) == 13
    with pytest.raises(EngineInvariantError, match=message):
        _value_in_order(forge(words), 76, 8, {})


def test_cross_check_catches_a_line_value_that_differs(monkeypatch):
    # cross-check checks every word a sweep values against the mex of its
    # options, on a whole-board solve, on a subgame (3,1 on 2x3, whose last
    # word is 3,1 itself) and on each class of a chain.
    import hookgames.mhrg as mh

    original = mh._value_in_order
    forged_at = [-1]

    def forged(words, bound, size, memo):
        original(words, bound, size, memo)
        memo[words[forged_at[0]][0]] += 1

    monkeypatch.setattr(mh, "_value_in_order", forged)
    with pytest.raises(EngineInvariantError, match="at 3,3 on 2x3: 4 by lines, 3 by options"):
        solve(BoardParams(2, 3), engine="cross-check")
    with pytest.raises(EngineInvariantError, match="at 3,1 on 2x3: 3 by lines, 2 by options"):
        solve(BoardParams(2, 3), YoungDiagram((3, 1)), engine="cross-check")
    with pytest.raises(EngineInvariantError, match="at 1 on 1x1: 2 by lines, 1 by options"):
        start_values([BoardParams(2, 3)], engine="cross-check")
    assert solve(BoardParams(2, 3))[0] == 4  # the forged value, unchecked
    # The first word, the empty diagram, is forged from 0 to 1.  The words
    # above it that move to it read the forged value, and their mex then
    # differs from their line values too; the report names the empty one.
    forged_at[0] = 0
    for diagram in (None, YoungDiagram((3, 1))):
        with pytest.raises(EngineInvariantError, match="at - on 2x3: 1 by lines, 0 by options"):
            solve(BoardParams(2, 3), diagram, engine="cross-check")


def subgame_closures(board) -> dict[int, set[int]]:
    """Each in-game word of ``board`` with the words its moves reach."""
    size = board.m + board.n
    closures: dict[int, set[int]] = {}
    for w in sorted(dfs_values(board)):  # options come first
        closures[w] = {w}.union(*(closures[o] for o in word_options(w, size)))
    return closures


def test_subgame_sweep_matches_the_closure_on_every_board_up_to_36_cells():
    # From an in-game position the moves reach exactly the in-game words
    # inside it, as mhrg's docstring proves: the count of those words, the
    # subgame solve's memo and the depth-first closure agree everywhere.
    checked = 0
    for board in solvable_boards():
        if board.m * board.n > 36:
            continue
        size = board.m + board.n
        values = dfs_values(board)
        for w, closure in subgame_closures(board).items():
            assert _count_inside(w, size) == len(closure), (board.m, board.n, w)
            value, memo = solve(board, diagram_of_word(w))
            assert memo == {u: values[u] for u in closure} and value == values[w]
            checked += 1
    assert checked == 3936


def test_subgame_count_matches_the_benchmark_subgame_sizes():
    # perfbench/golden.json records the size of every position's subgame on
    # the four boards of the interactive benchmark, ordered by box count,
    # then rows: 9,032 positions.
    golden = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())
    checked = 0
    for name, sizes in golden["subgame_sizes"].items():
        m, n = map(int, name.split("x"))
        start = start_position(BoardParams(m, n)).encode()
        words = sorted(
            (w for w, _, _ in _words_inside(start, m + n)),
            key=lambda w: (diagram_of_word(w).n_boxes, diagram_of_word(w).rows),
        )
        assert [_count_inside(w, m + n) for w in words] == sizes, name
        checked += len(sizes)
    assert checked == 9032


@pytest.mark.parametrize("m, n", [(9, 12), (6, 15), (5, 20), (3, 30)])
def test_subgame_sweep_matches_the_search_past_81_cells(m, n):
    # Seeded in-game positions, kept to subgames of at most 4,000 words so
    # that the depth-first search stays quick.
    board, size = BoardParams(m, n), m + n
    rng = random.Random(f"{m}x{n}")
    checked = 0
    while checked < 4:
        pairs = rng.sample(range(size // 2), m)
        w = sum(1 << (size - 1 - p if rng.random() < 0.5 else p) for p in pairs)
        if _count_inside(w, size) > 4000:
            continue
        expected = {}
        grundy(w, lambda word: word_options(word, size), expected)
        assert len(expected) == _count_inside(w, size)
        assert solve(board, diagram_of_word(w)) == (expected[w], expected)
        checked += 1


@pytest.mark.parametrize("m, n", [(9, 12), (12, 20), (20, 25), (6, 60), (3, 200), (40, 41)])
def test_checked_subgame_sweep_matches_the_rule_book_past_81_cells(m, n):
    # Past the boards whose whole game the rule book values, three seeded
    # subgames of 20-200 words each: cross-check checks every word's
    # options against the rule book and its line value against their mex.
    # 40x41 has m = k, a coin on every pair.
    board = BoardParams(m, n)
    for w in seeded_subgames(board, 3):
        diagram = diagram_of_word(w)
        assert solve(board, diagram, engine="cross-check") == solve(board, diagram), diagram


def test_in_game_sweeps_never_search(monkeypatch):
    # An in-game solve, whole board or subgame, and each class of a chain
    # are valued by one line sweep, on both engines, with no depth-first
    # search; only a diagram outside the game (5,3,1 on 4x5) reaches it.
    import hookgames.mhrg as mh

    cases = [
        (lambda engine: solve(BoardParams(3, 5), engine=engine), 1),
        (lambda engine: solve(BoardParams(5, 7), YoungDiagram((7, 6, 4, 2, 1)), engine=engine), 1),
        (lambda engine: start_values([BoardParams(3, 4)], engine=engine), 3),
        (lambda engine: closedforms.grundy_table(3, 4, engine=engine), 5),
    ]
    expected = [case("diagonal") for case, _ in cases]
    original = mh._value_in_order
    sweeps = []

    def counted(words, bound, size, memo):
        sweeps.append(bound)
        original(words, bound, size, memo)

    def searched(pos, options, memo):
        raise AssertionError(f"searched from {pos}")

    monkeypatch.setattr(mh, "_value_in_order", counted)
    monkeypatch.setattr(mh, "grundy", searched)
    for engine in ENGINES:
        for (case, count), answer in zip(cases, expected):
            sweeps.clear()
            assert case(engine) == answer and len(sweeps) == count, engine
        sweeps.clear()
        with pytest.raises(AssertionError, match="searched from 293"):
            solve(BoardParams(4, 5), YoungDiagram((5, 3, 1)), engine=engine)
        assert sweeps == []


@pytest.mark.parametrize(
    "rows, dense", [((8, 8, 8, 8, 8), True), ((2, 1), False)], ids=["start", "2,1"]
)
def test_subgame_sweep_ranks_into_a_list_or_a_dict(rows, dense):
    # A word's rank is its pair mask's index times 2**m plus its signs.  On
    # 5x8 (m = 5) the whole board fills all its 192 ranks and takes a list;
    # 2,1 fills 3 of 64 and takes a dict.  Either way the sweep's memo is
    # the depth-first search's.
    board, size = BoardParams(5, 8), 13
    w = word_of_diagram(board, YoungDiagram(rows))
    words = _words_inside(w, size)
    span = len({pairs for _, pairs, _ in words}) << 5
    assert (span <= _DENSE * len(words)) == dense
    expected = {}
    grundy(w, lambda word: word_options(word, size), expected)
    assert solve(board, YoungDiagram(rows)) == (expected[w], expected)


def test_a_small_subgame_of_a_large_board_allocates_no_slot_per_rank():
    # 2,1 on 120x120 has 3 positions, all with a coin on every one of the
    # 120 pairs: one pair mask, so a rank space of 2**120.  Its sweep keeps
    # them in a dict, and its coin tables share one delta tuple per coin.
    tracemalloc.start()
    try:
        value, memo = solve(BoardParams(120, 120), YoungDiagram((2, 1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (value, len(memo)) == (2, 3)
    assert peak < 1 << 20, peak


def test_class_tables_match_the_per_board_solve_on_every_position():
    # Each class (m, d) values m x (m + 2d), reading its inert-coin words
    # from the class below; its table equals the whole-board solve of
    # m x (m + 2d) and, through widen_word, of m x (m + 2d + 1).
    checked = 0
    for d in range(5):
        for m, table in enumerate(_class_chain(d, min(8, 10 - 2 * d)), start=1):
            n = m + 2 * d
            assert table == solve(BoardParams(m, n))[1], (m, n)
            checked += len(table)
            if n + 1 <= 10:
                widened = {widen_word(w, m, n): value for w, value in table.items()}
                assert widened == solve(BoardParams(m, n + 1))[1], (m, n + 1)
                checked += len(table)
    assert checked == 11_800


@pytest.mark.parametrize(
    "vid, boards_of",
    [("start2", closedforms._start2_boards), ("square", closedforms._square_boards)],
    ids=["start2", "square"],
)
def test_start_values_match_the_per_board_solve_on_the_default_ranges(vid, boards_of):
    boards = list(boards_of(closedforms._VERIFIERS[vid][2]["max_n"]))
    assert start_values(boards) == {board: solve(board)[0] for board in boards}


def test_class_chain_refuses_an_option_outside_its_order(monkeypatch):
    # An engine that gives 2x2's word 10 (coins +1, -2) the option 12, the
    # start, breaks the increasing order in the chain's second class.
    forge_both_rules(monkeypatch, lambda size, word: {12} if size == 4 else set())
    with pytest.raises(EngineInvariantError, match="option 12 of 10 is not valued before it"):
        start_values([BoardParams(2, 3)], engine="cross-check")


def test_sweeps_refuse_a_smaller_option_outside_the_game(monkeypatch):
    # An engine that gives 2x2's start (12) the option 6, the diagram 1,1,
    # whose beads share the pair (1, 2), leaves the mirror-free words: the
    # sweep never values 6, so the check of the start refuses it, on a
    # whole-board solve and on the chain's class 2x2 alike.
    assert word_of_diagram(BoardParams(2, 2), YoungDiagram((1, 1))) == 6
    forge_both_rules(monkeypatch, lambda size, word: {6} if (size, word) == (4, 12) else set())
    message = "option 6 of 12 is not valued before it"
    with pytest.raises(EngineInvariantError, match=message):
        solve(BoardParams(2, 2), engine="cross-check")
    with pytest.raises(EngineInvariantError, match=message):
        start_values([BoardParams(2, 3)], engine="cross-check")


def test_solver_matches_independent_brute_force():
    for m, n in [(1, 4), (2, 3), (2, 4), (3, 3), (3, 4)]:
        board = BoardParams(m, n)
        expected = brute_grundy_map(board)
        _, memo = solve(board)
        for rows, value in expected.items():
            key = MhrgPosition(board, YoungDiagram(rows)).encode()
            assert memo.get(key) == value, (m, n, rows)


def test_cross_check_divergence_is_loud():
    # Feed the cross-check a position where the engines are known to agree;
    # divergence can only come from an engine bug, so simulate one.
    board = BoardParams(2, 2)
    pos = start_position(board)
    import hookgames.mhrg as mh

    original = mh.word_options
    try:
        mh.word_options = lambda word, size: set(sorted(original(word, size))[:1])
        with pytest.raises(EngineInvariantError):
            mh.options_cross_check(pos)
    finally:
        mh.word_options = original


def test_unknown_engine_rejected():
    with pytest.raises(DomainError):
        solve(BoardParams(2, 2), engine="quantum")
    # The rule book answers only as cross-check's oracle.
    message = "unknown engine 'semantic'; choose from ('diagonal', 'cross-check')"
    board = BoardParams(2, 2)
    for call in (
        lambda: solve(board, engine="semantic"),
        lambda: reachable_words(board, engine="semantic"),
        lambda: start_values([board], engine="semantic"),
        lambda: closedforms.grundy_table(2, 2, engine="semantic"),
    ):
        with pytest.raises(DomainError, match=re.escape(message)):
            call()
