import math
import random

import pytest
from conftest import (
    DiagonalSeq,
    decrement_interval,
    diagonal_label,
    diagonal_of,
    diagram_of,
    enumerate_profiles,
    hook_at_reference,
    label_multiset,
    remove_hook_reference,
)

from hookgames import (
    BoardParams,
    DomainError,
    YoungDiagram,
    all_diagrams,
    hook_at,
    max_label,
    remove_hook,
    unimodal_number,
)
from hookgames.diagrams import _label_grid, interval_labels


def test_board_validation():
    BoardParams(1, 1)
    BoardParams(9, 9)
    with pytest.raises(DomainError):
        BoardParams(5, 3)
    with pytest.raises(DomainError, match=r"^board sides must be at least 1, got \(0, 4\)$"):
        BoardParams(0, 4)
    with pytest.raises(DomainError, match=r"got \(-3, -1\)$"):
        BoardParams(-3, -1)
    # Sides have no upper bound.
    assert BoardParams(100, 200).cells == 20_000


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


def test_hook_at_matches_the_box_by_box_reference():
    # Every box of every diagram of the boards up to 5x7, then every box of
    # seeded diagrams on two boards past them: corner, interval and labels.
    hooks = 0
    for m in range(1, 6):
        for n in range(m, 8):
            board = BoardParams(m, n)
            for diagram in all_diagrams(board):
                for i, j in diagram.boxes():
                    expected = hook_at_reference(board, diagram, i, j)
                    assert hook_at(board, diagram, i, j) == expected, (diagram, i, j)
                    hooks += 1
    assert hooks == 36_347
    rng = random.Random(23)
    for board in (BoardParams(6, 15), BoardParams(3, 40)):
        for _ in range(25):
            rows = sorted((rng.randint(0, board.n) for _ in range(board.m)), reverse=True)
            diagram = YoungDiagram(tuple(rows))
            for i, j in diagram.boxes():
                assert hook_at(board, diagram, i, j) == hook_at_reference(board, diagram, i, j)


def test_hook_at_costs_its_hook_not_its_board():
    # Sides have no upper bound, so hook_at labels the hook's boxes alone
    # and builds no board-sized label grid.
    board = BoardParams(1, 10**6)
    before = _label_grid.cache_info()
    for rows, box, labels in (((1,), (1, 1), (1,)), ((3,), (1, 1), (1, 2, 3))):
        diagram = YoungDiagram(rows)
        assert hook_at(board, diagram, *box) == hook_at_reference(board, diagram, *box)
        assert hook_at(board, diagram, *box).labels == labels
    assert _label_grid.cache_info() == before


def test_hook_at_refuses_a_diagram_off_its_board():
    # The box is checked against the diagram first, then the diagram
    # against the board, with the wording of MhrgPosition's refusal.
    board = BoardParams(3, 3)
    for rows, box in (((4,), (1, 4)), ((4,), (1, 1)), ((1, 1, 1, 1), (4, 1))):
        literal = YoungDiagram(rows).literal()
        with pytest.raises(DomainError, match=rf"^diagram {literal} does not fit a 3x3 board$"):
            hook_at(board, YoungDiagram(rows), *box)
    with pytest.raises(DomainError, match=r"^box \(1, 5\) not in diagram 4$"):
        hook_at(board, YoungDiagram((4,)), 1, 5)


def test_hook_labels_match_diagonal_interval():
    board = BoardParams(4, 5)
    for diagram in all_diagrams(board):
        for i, j in diagram.boxes():
            h = hook_at(board, diagram, i, j)
            assert h.labels == interval_labels(board, h.lo, h.hi)
            assert h.labels == tuple(sorted(diagonal_label(board, k) for k in range(h.lo, h.hi + 1)))
            assert len(h.labels) == h.size


def test_remove_hook_examples():
    assert remove_hook(
        BoardParams(5, 6), YoungDiagram((6, 6, 5, 3, 3)), 2, 2
    ).rows == (6, 4, 2, 2, 1)
    assert remove_hook(BoardParams(3, 5), YoungDiagram((5, 4, 3)), 1, 4).rows == (3, 3, 3)
    assert remove_hook(BoardParams(1, 1), YoungDiagram((1,)), 1, 1).rows == ()
    with pytest.raises(DomainError):
        remove_hook(BoardParams(3, 5), YoungDiagram((5, 4, 3)), 1, 6)
    with pytest.raises(DomainError, match="diagram 5,4,3 does not fit a 1x1 board"):
        remove_hook(BoardParams(1, 1), YoungDiagram((5, 4, 3)), 1, 1)


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


def test_interval_labels_match_diagonal_labels():
    for m in range(1, 7):
        for n in range(m, 9):
            board = BoardParams(m, n)
            for lo in range(1 - m, n):
                for hi in range(lo - 1, n):
                    labels = sorted(diagonal_label(board, k) for k in range(lo, hi + 1))
                    assert interval_labels(board, lo, hi) == tuple(labels)
    board = BoardParams(3, 5)
    for lo, hi, bad in ((-3, 0, -3), (1, 5, 5), (5, 6, 5), (-4, 7, -4)):
        with pytest.raises(DomainError, match=rf"^diagonal {bad} outside \(-3, 5\)$"):
            interval_labels(board, lo, hi)


def test_labels_past_256_are_shared_between_hooks():
    # Python interns only small ints; each hook slices its labels from one
    # tuple per board, so a long listing holds each label value once.
    board = BoardParams(2, 600)
    for lo, hi in ((-1, 599), (0, 598), (250, 350)):
        labels = interval_labels(board, lo, hi)
        assert labels == tuple(sorted(diagonal_label(board, k) for k in range(lo, hi + 1)))
    a, b = interval_labels(board, -1, 599), interval_labels(board, 250, 350)
    assert a[-1] == b[-1] == 301
    assert a[-1] is b[-1]


def test_hook_size_matches_interval():
    board = BoardParams(4, 5)
    for diagram in all_diagrams(board):
        for i, j in diagram.boxes():
            h = hook_at(board, diagram, i, j)
            removed = diagram.n_boxes - remove_hook(board, diagram, i, j).n_boxes
            assert removed == h.size == len(h.labels)


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
        assert decrement_interval(zero, lo, hi) is None  # a negative entry

    plateau = DiagonalSeq(BoardParams(2, 2), (0, 1, 1, 1, 0))
    # Dropping the middle of a plateau breaks adjacency at the interval start.
    assert decrement_interval(plateau, 0, 0) is None

    seq = DiagonalSeq(BoardParams(2, 2), (0, 1, 2, 1, 0))
    # Dropping only the ascent entry breaks the pair past the interval end.
    assert decrement_interval(seq, -1, -1) is None
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
    # A position with more rows than columns is played on the transposed
    # board, with the conjugate diagram.
    rows = YoungDiagram((3, 3, 2, 1, 1)).conjugate().rows
    assert rows == (5, 3, 2)
    assert YoungDiagram(rows).fits(BoardParams(3, 5))
