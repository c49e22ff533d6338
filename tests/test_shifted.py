import pytest
from conftest import (
    ShiftedDiagonalSeq,
    hrg_options,
    in_shifted,
    shifted_boxes,
    shifted_diagonal_of,
    shifted_diagram_of,
    shifted_hook,
    shifted_remove_hook,
)

from hookgames import (
    DomainError,
    ShiftedDiagram,
    all_shifted,
    predict_shifted,
    solve_hrg,
    staircase,
)
from hookgames.shifted import hrg_word_options


def test_shifted_diagram_validation():
    ShiftedDiagram((7, 6, 4, 3, 2))
    ShiftedDiagram(())
    with pytest.raises(DomainError):
        ShiftedDiagram((3, 3))
    with pytest.raises(DomainError):
        ShiftedDiagram((2, 0))


def test_shifted_literal_and_boxes():
    s = ShiftedDiagram((3, 1))
    assert s.literal() == "3,1"
    assert ShiftedDiagram(()).literal() == "-"
    assert set(shifted_boxes(s)) == {(1, 1), (1, 2), (1, 3), (2, 2)}
    assert in_shifted(s, (2, 2)) and not in_shifted(s, (2, 3))


def test_staircase():
    assert staircase(4).parts == (4, 3, 2, 1)
    assert staircase(0).parts == ()
    with pytest.raises(DomainError, match="at least 0, got -1"):
        staircase(-1)


def test_all_shifted_counts():
    assert sum(1 for _ in all_shifted(7)) == 128
    assert sum(1 for _ in all_shifted(8)) == 256
    parts = {s.parts for s in all_shifted(3)}
    assert parts == {(), (1,), (2,), (3,), (2, 1), (3, 1), (3, 2), (3, 2, 1)}


def test_shifted_hook_shapes():
    s = ShiftedDiagram((7, 6, 4, 3, 2))
    # corner + arm + leg + the whole of row j+1 as tail
    assert shifted_hook(s, 2, 3) == frozenset(
        {(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (4, 4), (4, 5), (4, 6)}
    )
    assert shifted_hook(s, 2, 5) == frozenset(
        {(2, 5), (2, 6), (2, 7), (3, 5), (4, 5), (5, 5)}
    )
    assert shifted_hook(s, 2, 6) == frozenset(
        {(2, 6), (2, 7), (3, 6), (4, 6), (5, 6)}
    )
    assert shifted_hook(ShiftedDiagram((1,)), 1, 1) == frozenset({(1, 1)})
    with pytest.raises(DomainError):
        shifted_hook(s, 3, 2)


def test_shifted_remove_hook_examples():
    s = ShiftedDiagram((7, 6, 4, 3, 2))
    assert shifted_remove_hook(s, 2, 3).parts == (7, 4, 2)
    assert shifted_remove_hook(s, 2, 6).parts == (7, 4, 3, 2, 1)
    assert shifted_remove_hook(ShiftedDiagram((1,)), 1, 1).parts == ()


def test_hrg_options_examples():
    assert {o.parts for o in hrg_options(ShiftedDiagram((2, 1)), 2)} == {
        (2,),
        (1,),
        (),
    }
    assert hrg_options(ShiftedDiagram(()), 3) == set()
    # brute enumeration over the six boxes of the size-3 staircase
    opts = {o.parts for o in hrg_options(staircase(3), 3)}
    expected = {
        shifted_remove_hook(staircase(3), i, j).parts for i, j in shifted_boxes(staircase(3))
    }
    assert opts == expected
    assert len(opts) >= 3


def test_profile_round_trip_examples():
    s = ShiftedDiagram((7, 6, 4, 3, 2))
    seq = shifted_diagonal_of(s, 7)
    assert seq.values == (5, 5, 4, 3, 2, 2, 1, 0)
    assert shifted_diagonal_of(ShiftedDiagram((7, 4, 2)), 7).values == (
        3, 3, 2, 2, 1, 1, 1, 0,
    )
    assert shifted_diagonal_of(ShiftedDiagram(()), 4).values == (0, 0, 0, 0, 0)
    assert shifted_diagram_of(seq) == s


def test_profile_round_trip_full_staircase_family():
    for n in (7, 8):
        for s in all_shifted(n):
            seq = shifted_diagonal_of(s, n)
            assert shifted_diagram_of(seq) == s
            # the bead mask is the profile's step bits
            steps = [r for r in range(n) if seq[r] == seq[r + 1] + 1]
            assert s.mask() == sum(1 << r for r in steps)
            assert ShiftedDiagram.from_mask(s.mask()) == s


def test_profile_validation():
    ShiftedDiagonalSeq(3, (2, 1, 1, 0))
    with pytest.raises(DomainError, match="index 0"):
        ShiftedDiagonalSeq(3, (2, 0, 1, 0))
    with pytest.raises(DomainError, match="index 3"):
        ShiftedDiagonalSeq(3, (3, 2, 1, 1))
    with pytest.raises(DomainError):
        ShiftedDiagonalSeq(3, (1, 1, 0))


def test_transitions_worked_examples():
    s = ShiftedDiagram((7, 6, 4, 3, 2))
    mask = s.mask()
    assert mask == 0b1101110
    options = hrg_word_options(mask, 7)
    assert len(options) == 22
    # hook (2, 6): the bead of part 6 moves to the hole of part 1
    moved = mask ^ (1 << 5) ^ (1 << 0)
    assert ShiftedDiagram.from_mask(moved) == shifted_remove_hook(s, 2, 6)
    assert shifted_diagonal_of(ShiftedDiagram.from_mask(moved), 7).values == (5, 4, 3, 2, 1, 1, 1, 0)
    # hook (2, 3): the beads of parts 6 and 3 leave together
    paired = mask ^ (1 << 5) ^ (1 << 2)
    assert ShiftedDiagram.from_mask(paired) == shifted_remove_hook(s, 2, 3)
    assert shifted_diagonal_of(ShiftedDiagram.from_mask(paired), 7).values == (3, 3, 2, 2, 1, 1, 1, 0)
    # the bead of part 7 alone
    assert {moved, paired, mask ^ (1 << 6)} <= options
    assert hrg_word_options(0, 3) == set()


def test_transition_hook_duality_exhaustive():
    # the bead rule is the hook rule, with one option per box; every option
    # is a smaller mask, as grundy requires
    for n in range(9):
        for s in all_shifted(n):
            options = hrg_word_options(s.mask(), n)
            assert options == {o.mask() for o in hrg_options(s, n)}
            assert len(options) == s.n_boxes
            assert all(child < s.mask() for child in options)


def test_nim_sum_formula_exhaustive():
    n = 7
    for s in all_shifted(n):
        value, _ = solve_hrg(n, s)
        assert value == predict_shifted(s.parts), s.parts


def test_solve_hrg_start():
    value, memo = solve_hrg(7)
    assert value == predict_shifted(range(1, 8)) == 0
    # keyed by the 7-bit masks of all 128 diagrams
    assert sorted(memo) == list(range(128))
    with pytest.raises(DomainError, match="size-3 staircase"):
        solve_hrg(3, ShiftedDiagram((4, 1)))


def test_solve_hrg_refuses_a_negative_staircase():
    for call in (lambda: solve_hrg(-1, ShiftedDiagram(())), lambda: solve_hrg(-1)):
        with pytest.raises(DomainError, match=r"^staircase size must be at least 0, got -1$"):
            call()
    with pytest.raises(DomainError, match=r"^staircase size must be at least 0, got -1$"):
        list(all_shifted(-1))
    # The size-0 staircase is empty, given or by default.
    assert solve_hrg(0, ShiftedDiagram(())) == solve_hrg(0) == (0, {0: 0})
