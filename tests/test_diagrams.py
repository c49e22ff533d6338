import math

import pytest
from conftest import enumerate_profiles, remove_hook_reference

from hookgames import (
    BoardParams,
    BulgeKind,
    DiagonalSeq,
    DomainError,
    Rejection,
    RejectReason,
    YoungDiagram,
    all_diagrams,
    bulge_kind,
    decrement_interval,
    diagonal_label,
    diagonal_of,
    diagram_of,
    hook_at,
    label_multiset,
    max_label,
    remove_hook,
    transpose_position,
    unimodal_number,
)
from hookgames.diagrams import interval_label_counts, label_counts


def test_board_validation():
    BoardParams(1, 1)
    BoardParams(9, 9)
    with pytest.raises(DomainError):
        BoardParams(5, 3)
    with pytest.raises(DomainError):
        BoardParams(0, 4)
    with pytest.raises(DomainError):
        BoardParams(1, 65)


def test_young_diagram_canonical_form():
    assert YoungDiagram((3, 2, 0, 0)).rows == (3, 2)
    assert YoungDiagram(()).rows == ()
    assert YoungDiagram((3, 2, 0)) == YoungDiagram((3, 2))
    with pytest.raises(DomainError):
        YoungDiagram((2, 3))
    with pytest.raises(DomainError):
        YoungDiagram((2, -1))


def test_young_diagram_parse_and_literal():
    assert YoungDiagram.parse("5,4,3").rows == (5, 4, 3)
    assert YoungDiagram.parse("-").rows == ()
    assert YoungDiagram((5, 4, 3)).literal() == "5,4,3"
    assert YoungDiagram(()).literal() == "-"
    with pytest.raises(DomainError):
        YoungDiagram.parse("5,x")


def test_unimodal_number_examples():
    assert unimodal_number(BoardParams(3, 5), 1, 5) == 1
    assert unimodal_number(BoardParams(3, 5), 2, 3) == 4
    assert unimodal_number(BoardParams(2, 2), 1, 1) == 2
    with pytest.raises(DomainError):
        unimodal_number(BoardParams(3, 5), 0, 1)
    with pytest.raises(DomainError):
        unimodal_number(BoardParams(3, 5), 1, 6)


def test_unimodal_grid_3x5():
    board = BoardParams(3, 5)
    grid = [[unimodal_number(board, i, j) for j in range(1, 6)] for i in range(1, 4)]
    assert grid == [[3, 4, 3, 2, 1], [2, 3, 4, 3, 2], [1, 2, 3, 4, 3]]


def test_diagonal_label_examples():
    assert diagonal_label(BoardParams(3, 5), 0) == 3
    assert diagonal_label(BoardParams(3, 5), 2) == 3
    assert diagonal_label(BoardParams(2, 4), -1) == 1
    with pytest.raises(DomainError):
        diagonal_label(BoardParams(3, 5), 5)


def test_diagonal_label_matches_box_labels():
    for m, n in [(1, 1), (2, 3), (3, 5), (4, 4)]:
        board = BoardParams(m, n)
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                assert unimodal_number(board, i, j) == diagonal_label(board, j - i)


def test_diagonal_constancy():
    board = BoardParams(4, 7)
    for i in range(1, 4):
        for j in range(1, 7):
            assert unimodal_number(board, i, j) == unimodal_number(board, i + 1, j + 1)


def test_max_label_examples():
    assert max_label(BoardParams(3, 5)) == 4
    assert max_label(BoardParams(4, 7)) == 5
    assert max_label(BoardParams(1, 1)) == 1


def test_hook_at_examples():
    board = BoardParams(3, 5)
    h = hook_at(board, YoungDiagram((5, 4, 3)), 1, 4)
    assert (h.lo, h.hi) == (2, 4)
    assert h.label_list() == (1, 2, 3)

    h = hook_at(board, YoungDiagram((5, 5, 5)), 2, 4)
    assert h.label_list() == (2, 3, 4)

    h = hook_at(BoardParams(2, 2), YoungDiagram((2, 2)), 2, 2)
    assert (h.lo, h.hi) == (0, 0)
    assert h.label_list() == (2,)

    with pytest.raises(DomainError):
        hook_at(board, YoungDiagram((5, 4, 3)), 3, 4)


def test_hook_labels_match_diagonal_interval():
    board = BoardParams(4, 5)
    for diagram in all_diagrams(board):
        for i, j in diagram.boxes():
            h = hook_at(board, diagram, i, j)
            assert h.labels == interval_label_counts(board, h.lo, h.hi)
            assert sum(h.labels) == h.size


def test_remove_hook_examples():
    assert remove_hook(
        BoardParams(5, 6), YoungDiagram((6, 6, 5, 3, 3)), 2, 2
    ).rows == (6, 4, 2, 2, 1)
    assert remove_hook(BoardParams(3, 5), YoungDiagram((5, 4, 3)), 1, 4).rows == (3, 3, 3)
    assert remove_hook(BoardParams(1, 1), YoungDiagram((1,)), 1, 1).rows == ()
    with pytest.raises(DomainError):
        remove_hook(BoardParams(3, 5), YoungDiagram((5, 4, 3)), 1, 6)


def test_remove_hook_matches_the_box_by_box_reference():
    removals = 0
    for m in range(1, 6):
        for n in range(m, 8):
            board = BoardParams(m, n)
            for diagram in all_diagrams(board):
                for i, j in diagram.boxes():
                    expected = remove_hook_reference(diagram, i, j)
                    assert remove_hook(board, diagram, i, j) == expected, (diagram, i, j)
                    removals += 1
    assert removals == 36_347


def test_interval_label_counts_match_diagonal_labels():
    for m in range(1, 7):
        for n in range(m, 9):
            board = BoardParams(m, n)
            for lo in range(1 - m, n):
                for hi in range(lo - 1, n):
                    labels = [diagonal_label(board, k) for k in range(lo, hi + 1)]
                    assert interval_label_counts(board, lo, hi) == label_counts(board, labels)
    board = BoardParams(3, 5)
    for lo, hi, bad in ((-3, 0, -3), (1, 5, 5), (5, 6, 5), (-4, 7, -4)):
        with pytest.raises(DomainError, match=rf"^diagonal {bad} outside \(-3, 5\)$"):
            interval_label_counts(board, lo, hi)


def test_hook_size_matches_interval():
    board = BoardParams(4, 5)
    for diagram in all_diagrams(board):
        for i, j in diagram.boxes():
            h = hook_at(board, diagram, i, j)
            removed = diagram.n_boxes - remove_hook(board, diagram, i, j).n_boxes
            assert removed == h.size == sum(h.labels)


def test_diagonal_of_examples():
    assert diagonal_of(BoardParams(3, 5), YoungDiagram((5, 4, 3))).values == (
        0, 1, 2, 3, 2, 2, 1, 1, 0,
    )
    assert diagonal_of(BoardParams(2, 4), YoungDiagram(())).values == (0,) * 7
    assert diagonal_of(BoardParams(2, 2), YoungDiagram((2, 2))).values == (0, 1, 2, 1, 0)


def test_diagram_of_examples():
    seq = DiagonalSeq(BoardParams(2, 4), (0, 1, 2, 1, 1, 1, 0))
    assert diagram_of(seq).rows == (4, 2)
    assert diagram_of(DiagonalSeq(BoardParams(2, 4), (0,) * 7)).rows == ()
    seq = DiagonalSeq(BoardParams(3, 5), (0, 1, 2, 3, 2, 2, 1, 1, 0))
    assert diagram_of(seq).rows == (5, 4, 3)


def test_diagonal_seq_validation_names_first_failing_index():
    with pytest.raises(DomainError, match="index 0"):
        DiagonalSeq(BoardParams(2, 4), (0, 0, 2, 2, 1, 1, 0))
    with pytest.raises(DomainError, match="index -2"):
        DiagonalSeq(BoardParams(2, 4), (2, 1, 1, 1, 1, 1, 0))
    with pytest.raises(DomainError, match="index 3"):
        DiagonalSeq(BoardParams(2, 4), (0, 1, 1, 1, 0, 1, 0))
    with pytest.raises(DomainError):
        DiagonalSeq(BoardParams(2, 4), (0, 1, 1, 0))  # wrong length


def test_diagonal_seq_format():
    seq = DiagonalSeq(BoardParams(3, 5), (0, 1, 2, 3, 2, 2, 1, 1, 0))
    assert seq.format() == "(0,1,2, 0:3, 2,2,1,1,0)"
    assert seq[0] == 3 and seq[-3] == 0 and seq[5] == 0
    assert seq.encode() == bytes((0, 1, 2, 3, 2, 2, 1, 1, 0))


def test_round_trip_diagram_profile():
    for m in range(1, 7):
        for n in range(m, 7):
            board = BoardParams(m, n)
            count = 0
            for diagram in all_diagrams(board):
                assert diagram_of(diagonal_of(board, diagram)) == diagram
                count += 1
            assert count == math.comb(m + n, m)


def test_round_trip_profile_diagram_independent_enumeration():
    for m in range(1, 7):
        for n in range(m, 7):
            board = BoardParams(m, n)
            profiles = enumerate_profiles(m, n)
            assert len(profiles) == math.comb(m + n, m)
            for values in profiles:
                seq = DiagonalSeq(board, values)
                assert diagonal_of(board, diagram_of(seq)).values == values


def test_decrement_interval_worked_examples():
    seq = DiagonalSeq(BoardParams(3, 5), (0, 1, 2, 3, 2, 2, 1, 1, 0))
    out = decrement_interval(seq, 2, 4)
    assert isinstance(out, DiagonalSeq)
    assert out.values == (0, 1, 2, 3, 2, 1, 0, 0, 0)

    # Five entries at diagonals 0..4 drop by one; the output is the profile
    # of the diagram (3,2,2) and the interval is accepted.
    out = decrement_interval(seq, 0, 4)
    assert isinstance(out, DiagonalSeq)
    assert out.values == (0, 1, 2, 2, 1, 1, 0, 0, 0)
    assert diagram_of(out).rows == (3, 2, 2)

    # There is no interval reaching diagonal 5: the right end is fixed at 0.
    with pytest.raises(DomainError):
        decrement_interval(seq, 0, 5)


def test_decrement_interval_rejections_and_errors():
    zero = DiagonalSeq(BoardParams(2, 2), (0, 0, 0, 0, 0))
    for lo, hi in [(-1, 0), (0, 1), (1, 1)]:
        out = decrement_interval(zero, lo, hi)
        assert isinstance(out, Rejection)
        assert out.reason is RejectReason.NEGATIVE_ENTRY

    plateau = DiagonalSeq(BoardParams(2, 2), (0, 1, 1, 1, 0))
    # Dropping the middle of a plateau breaks adjacency at the interval start.
    out = decrement_interval(plateau, 0, 0)
    assert out == Rejection(RejectReason.ADJACENCY_AT_LOW, 0)

    seq = DiagonalSeq(BoardParams(2, 2), (0, 1, 2, 1, 0))
    # Dropping only the ascent entry breaks the pair past the interval end.
    out = decrement_interval(seq, -1, -1)
    assert out == Rejection(RejectReason.ADJACENCY_AT_HIGH, 0)
    # Dropping only the peak is fine: (0,1,1,1,0) is a valid plateau.
    out = decrement_interval(seq, 0, 0)
    assert isinstance(out, DiagonalSeq) and out.values == (0, 1, 1, 1, 0)

    with pytest.raises(DomainError):
        decrement_interval(seq, -2, 0)
    with pytest.raises(DomainError):
        decrement_interval(seq, 0, 2)
    with pytest.raises(DomainError):
        decrement_interval(seq, 1, 0)


def test_decrement_matches_hook_removal_everywhere():
    board = BoardParams(4, 5)
    for diagram in all_diagrams(board):
        seq = diagonal_of(board, diagram)
        # every box's hook is an accepted decrement with matching result
        intervals = set()
        for i, j in diagram.boxes():
            h = hook_at(board, diagram, i, j)
            out = decrement_interval(seq, h.lo, h.hi)
            assert isinstance(out, DiagonalSeq)
            assert out == diagonal_of(board, remove_hook(board, diagram, i, j))
            intervals.add((h.lo, h.hi))
        # conversely every accepted decrement comes from exactly one box
        accepted = {
            (lo, hi)
            for lo in range(-board.m + 1, board.n)
            for hi in range(lo, board.n)
            if isinstance(decrement_interval(seq, lo, hi), DiagonalSeq)
        }
        assert accepted == intervals
        assert len(intervals) == diagram.n_boxes


def test_bulge_kind_examples():
    seq = DiagonalSeq(BoardParams(2, 2), (0, 1, 2, 1, 0))
    assert bulge_kind(seq, 0) is BulgeKind.RIGHT
    assert bulge_kind(seq, 1) is BulgeKind.LEFT
    flat = DiagonalSeq(BoardParams(2, 2), (0, 0, 0, 0, 0))
    assert bulge_kind(flat, 0) is BulgeKind.LEFT
    assert bulge_kind(flat, 1) is BulgeKind.RIGHT
    with pytest.raises(DomainError):
        bulge_kind(seq, -2)


def test_bulge_dichotomy_and_flip():
    board = BoardParams(3, 4)
    for values in enumerate_profiles(3, 4):
        seq = DiagonalSeq(board, values)
        kinds = {k: bulge_kind(seq, k) for k in range(-board.m + 1, board.n + 1)}
        for lo in range(-board.m + 1, board.n):
            for hi in range(lo, board.n):
                out = decrement_interval(seq, lo, hi)
                if not isinstance(out, DiagonalSeq):
                    continue
                # boundary bulges flip, all others persist
                assert kinds[lo] is BulgeKind.RIGHT
                assert kinds[hi + 1] is BulgeKind.LEFT
                assert bulge_kind(out, lo) is BulgeKind.LEFT
                assert bulge_kind(out, hi + 1) is BulgeKind.RIGHT
                for k in range(-board.m + 1, board.n + 1):
                    if k not in (lo, hi + 1):
                        assert bulge_kind(out, k) is kinds[k]


def test_label_multiset_examples():
    board = BoardParams(2, 2)
    assert label_multiset(board, YoungDiagram((2, 2))) == (2, 2)
    assert label_multiset(board, YoungDiagram(())) == (0, 0)
    board = BoardParams(3, 5)
    counts = label_multiset(board, YoungDiagram((5, 4, 3)))
    assert counts[3 - 1] == 5  # diagonal counts 3 + 2 at the two label-3 diagonals


def test_label_multiset_counting_identity():
    board = BoardParams(4, 5)
    for diagram in all_diagrams(board):
        seq = diagonal_of(board, diagram)
        counts = label_multiset(board, diagram)
        for label in range(1, max_label(board) + 1):
            left, right = -board.m + label, board.n - label
            expected = seq[left] if left == right else seq[left] + seq[right]
            assert counts[label - 1] == expected


def test_transpose_position():
    m, n, rows = transpose_position(5, 3, (3, 3, 2, 1, 1))
    assert (m, n) == (3, 5)
    assert rows == (5, 3, 2)
    board = BoardParams(m, n)
    assert YoungDiagram(rows).fits(board)
