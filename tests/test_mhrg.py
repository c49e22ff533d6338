import pytest
from conftest import brute_grundy_map

from hookgames import (
    BoardParams,
    DomainError,
    EngineInvariantError,
    MhrgPosition,
    YoungDiagram,
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
from hookgames.mhrg import ENGINES, position_from_profile, profile_options, reachable_profiles


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

    # The profile engine reaches (1,1) by two first hooks, (2,1) via
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


def test_solver_matches_independent_brute_force():
    for m, n in [(1, 4), (2, 3), (2, 4), (3, 3), (3, 4)]:
        board = BoardParams(m, n)
        expected = brute_grundy_map(board)
        _, memo = solve(board)
        for rows, value in expected.items():
            key = diagonal_of(board, YoungDiagram(rows)).encode()
            assert memo.get(key) == value, (m, n, rows)


def test_profile_options_match_option_sets():
    board = BoardParams(3, 4)
    pos = MhrgPosition(board, YoungDiagram((4, 2, 1)))
    raw = {bytes(p) for p in profile_options(pos.encode(), 3, 4)}
    assert raw == {p.encode() for p in options_diagonal(pos)}


def test_cross_check_divergence_is_loud():
    # Feed the cross-check a position where the engines are known to agree;
    # divergence can only come from an engine bug, so simulate one.
    board = BoardParams(2, 2)
    pos = start_position(board)
    import hookgames.mhrg as mh

    original = mh.profile_options
    try:
        mh.profile_options = lambda vals, m, n: original(vals, m, n)[:1]
        with pytest.raises(EngineInvariantError):
            mh.options_cross_check(pos)
    finally:
        mh.profile_options = original


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
    partial = memo.as_dict()
    assert solve(board, memo=memo) == (0, memo)
    full = solve(board)[1].as_dict()
    assert memo.as_dict() == full
    assert partial.items() <= full.items() and len(partial) < len(full)


def test_unknown_engine_rejected():
    with pytest.raises(DomainError):
        solve(BoardParams(2, 2), engine="quantum")
