from dataclasses import replace
from math import comb

import pytest
from conftest import (
    brute_grundy_map,
    position_from_profile,
    rule_book_move_reference,
    rule_book_moves_reference,
)

from hookgames import (
    BoardParams,
    DomainError,
    EngineInvariantError,
    MhrgPosition,
    YoungDiagram,
    all_diagrams,
    diagonal_of,
    is_symmetric,
    move_for_box,
    moves_diagonal,
    moves_semantic,
    options_cross_check,
    options_diagonal,
    options_semantic,
    reachable,
    solve,
    solve_hrg,
    start_position,
)
from hookgames.cli import MAX_SOLVE_CELLS
from hookgames.diagrams import MAX_SIDE
from hookgames.mhrg import (
    ENGINES,
    in_game,
    mirror_free,
    reachable_profiles,
    word_of_profile,
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
    # interval [-2,2] and (1,3) via [0,4]; the record keeps the smaller
    # corner.  Either order pairs an interval with its mirror.
    matching = [r for r in moves_diagonal(pos) if r.result.diagram.rows == (1, 1)]
    assert len(matching) == 1
    rec = matching[0]
    assert rec.first.corner == (1, 3)
    assert (rec.first.lo, rec.first.hi) == (0, 4)
    assert rec.second is not None
    assert (rec.second.lo, rec.second.hi) == (-2, 2)

    via_other_box = move_for_box(pos, 2, 1)
    assert via_other_box.result.diagram.rows == (1, 1)
    assert (via_other_box.first.lo, via_other_box.first.hi) == (-2, 2)


def test_profile_engine_mirror_cases_2x2():
    board = BoardParams(2, 2)
    pos = start_position(board)
    by_interval = {(r.first.lo, r.first.hi): r for r in moves_diagonal(pos)}
    # [-1, 1] is self-mirrored: single removal to (1).
    rec = by_interval[(-1, 1)]
    assert rec.second is None and rec.result.diagram.rows == (1,)
    # [0, 1] mirrors to [-1, 0], which is accepted: forced to empty.
    rec = by_interval[(0, 1)]
    assert rec.second is not None
    assert (rec.second.lo, rec.second.hi) == (-1, 0)
    assert rec.result.diagram.rows == ()


def test_empty_position_has_no_options():
    pos = MhrgPosition(BoardParams(3, 5), YoungDiagram(()))
    assert options_semantic(pos) == set()
    assert options_diagonal(pos) == set()
    assert moves_diagonal(pos) == ()


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
        assert reachable_profiles(board, "diagonal") == reachable_profiles(
            board, "semantic"
        )
        reachable_profiles(board, "cross-check")


def test_engine_equivalence_small_boards():
    # both engines must agree move for move: corners, intervals, labels,
    # forced follow-ups and results
    for m in range(1, 5):
        for n in range(m, 5):
            board = BoardParams(m, n)
            for profile in sorted(reachable_profiles(board)):
                pos = position_from_profile(board, profile)
                assert moves_semantic(pos) == moves_diagonal(pos)


def test_moves_shrink_and_mirror():
    board = BoardParams(3, 4)
    for profile in sorted(reachable_profiles(board)):
        pos = position_from_profile(board, profile)
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
                assert is_symmetric(pos.profile())


def test_move_records_deduplicate_by_result():
    board = BoardParams(3, 5)
    pos = MhrgPosition(board, YoungDiagram((5, 4, 3)))
    records = moves_diagonal(pos)
    results = [r.result.encode() for r in records]
    assert len(results) == len(set(results))
    assert {r.result for r in records} == options_diagonal(pos)
    # canonical order by result encoding
    assert results == sorted(results)
    semantic = moves_semantic(pos)
    assert [r.result for r in semantic] == [r.result for r in records]
    assert [r.first.corner for r in semantic] == [r.first.corner for r in records]


def test_mirror_label_check_runs_on_moves_that_are_not_kept(monkeypatch):
    # On 2x3 at (2,): the hook at (1,2) fires the follow-up on interval 0..0
    # and reaches the empty board, as the hook at (1,1) does alone; only the
    # (1,1) record is kept, so no kept record touches interval 0..0.
    board = BoardParams(2, 3)
    pos = MhrgPosition(board, YoungDiagram((2,)))
    loser = move_for_box(pos, 1, 2)
    assert (loser.second.lo, loser.second.hi) == (0, 0)
    assert [(r.first.corner, r.second) for r in moves_diagonal(pos)] == [((1, 1), None)]
    import hookgames.mhrg as mh

    original = mh.interval_label_counts

    def corrupt(board, lo, hi):
        counts = original(board, lo, hi)
        return counts[::-1] + (0,) if (lo, hi) == (0, 0) else counts

    monkeypatch.setattr(mh, "interval_label_counts", corrupt)
    with pytest.raises(EngineInvariantError, match="mirror hook labels diverge"):
        moves_diagonal(pos)


def test_rule_book_moves_match_the_unfiltered_scan_on_every_diagram():
    # move_for_box compares labels only with hooks as long as the first one;
    # the reference compares with every hook, reachable diagram or not.
    moves = 0
    for m in range(1, 5):
        for n in range(m, 7):
            board = BoardParams(m, n)
            for diagram in all_diagrams(board):
                pos = MhrgPosition(board, diagram)
                for i, j in diagram.boxes():
                    expected = rule_book_move_reference(pos, i, j)
                    assert move_for_box(pos, i, j) == expected, (m, n, diagram, (i, j))
                    moves += 1
                assert moves_semantic(pos) == rule_book_moves_reference(pos), (m, n, diagram)
    assert moves == 6247


def test_rule_book_guards_fire_on_forged_labels(monkeypatch):
    # Every hook as long as the chosen first one reports its labels, so the
    # scans find more equal-label hooks than the rule allows.
    import hookgames.mhrg as mh

    real = mh.hook_at
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
        first = real(board, pos.diagram, *box)

        def forged(board, diagram, i, j, first=first):
            hook = real(board, diagram, i, j)
            return replace(hook, labels=first.labels) if hook.size == first.size else hook

        monkeypatch.setattr(mh, "hook_at", forged)
        with pytest.raises(EngineInvariantError, match=message):
            move_for_box(pos, *box)


def test_in_game_matches_the_move_closure_on_every_diagram():
    for m in range(1, 6):
        for n in range(m, 7):
            board = BoardParams(m, n)
            closure = reachable_profiles(board)
            for diagram in all_diagrams(board):
                expected = diagonal_of(board, diagram).encode() in closure
                assert in_game(board, diagram) == expected, (m, n, diagram.rows)


def test_reachable_set_is_mirror_free_on_every_solvable_board():
    # Every board the CLI solves: the move closure lies inside the
    # mirror-free words and has as many positions as there are of them
    # (choose m of the floor((m + n) / 2) mirror pairs, then a side in
    # each), so the two sets are equal and in_game is exact there.
    boards = 0
    for m in range(1, MAX_SIDE + 1):
        for n in range(m, MAX_SIDE + 1):
            if m * n > MAX_SOLVE_CELLS:
                break
            profiles = reachable_profiles(BoardParams(m, n))
            assert len(profiles) == comb((m + n) // 2, m) * 2**m, (m, n)
            assert all(mirror_free(word_of_profile(p, m), m + n) for p in profiles), (m, n)
            boards += 1
    assert boards == 174


def test_solver_matches_independent_brute_force():
    for m, n in [(1, 4), (2, 3), (2, 4), (3, 3), (3, 4)]:
        board = BoardParams(m, n)
        expected = brute_grundy_map(board)
        _, memo = solve(board)
        for rows, value in expected.items():
            key = diagonal_of(board, YoungDiagram(rows)).encode()
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


def test_memo_of_another_game_is_refused():
    # 3x5 and 4x4 profiles are both nine bytes and share keys with
    # different values, so a shared memo would give 6 for the 4x4 start, not 4.
    _, memo = solve(BoardParams(3, 5))
    for engine in ENGINES:
        with pytest.raises(DomainError, match="mhrg 3x5"):
            solve(BoardParams(4, 4), engine=engine, memo=memo)
    with pytest.raises(DomainError, match="mhrg 3x5"):
        solve_hrg(4, memo=memo)
    assert solve(BoardParams(4, 4))[0] == 4


def test_solve_extends_a_memo_of_its_own_board():
    board = BoardParams(3, 5)
    _, memo = solve(board, YoungDiagram((5, 4, 3)))
    partial = dict(memo)
    assert solve(board, memo=memo) == (0, memo)
    full = dict(solve(board)[1])
    assert dict(memo) == full
    assert partial.items() <= full.items() and len(partial) < len(full)


def test_unknown_engine_rejected():
    with pytest.raises(DomainError):
        solve(BoardParams(2, 2), engine="quantum")
