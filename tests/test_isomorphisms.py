import pytest
from conftest import word_of_profile

from hookgames import (
    BoardParams,
    DiagonalSeq,
    DomainError,
    GameMap,
    MhrgPosition,
    ShiftedDiagram,
    YoungDiagram,
    all_shifted,
    diagonal_of,
    from_shifted,
    is_symmetric,
    reachable,
    start_position,
    to_shifted,
    verify_isomorphism,
    verify_staircase_iso,
    verify_widening,
    widen_diagonal,
    widen_position,
)
from hookgames import isomorphisms
from hookgames.isomorphisms import (
    halve_word,
    verify_staircase_range,
    verify_widening_range,
    widen_word,
)
from hookgames.mhrg import reachable_words, word_options


def test_widen_diagonal_examples():
    seq = diagonal_of(BoardParams(1, 3), YoungDiagram((3,)))
    out = widen_diagonal(seq)
    assert out.board == BoardParams(1, 4)
    assert out.values == (0, 1, 1, 1, 1, 0)
    assert out == diagonal_of(BoardParams(1, 4), YoungDiagram((4,)))

    seq = DiagonalSeq(BoardParams(3, 5), (0, 1, 2, 3, 2, 2, 1, 1, 0))
    assert widen_diagonal(seq).values == (0, 1, 2, 3, 2, 2, 2, 1, 1, 0)

    zero = DiagonalSeq(BoardParams(2, 2), (0,) * 5)
    assert widen_diagonal(zero).values == (0,) * 6

    with pytest.raises(DomainError):
        widen_diagonal(diagonal_of(BoardParams(2, 3), YoungDiagram((3, 1))))


def test_widen_position_carries_start_to_start():
    for m, n in [(1, 1), (2, 2), (2, 4), (3, 5)]:
        wide = widen_position(start_position(BoardParams(m, n)))
        assert wide == start_position(BoardParams(m, n + 1))


def test_is_symmetric_examples():
    assert is_symmetric(diagonal_of(BoardParams(3, 3), YoungDiagram((3, 3, 3))))
    assert not is_symmetric(DiagonalSeq(BoardParams(2, 2), (0, 1, 1, 0, 0)))
    # (5,4,3) on the 3x5 board: the pair at diagonals (-1, 3) is (2, 1),
    # so the profile fails the a_i == a_{n-m-i} test.
    assert not is_symmetric(DiagonalSeq(BoardParams(3, 5), (0, 1, 2, 3, 2, 2, 1, 1, 0)))


def test_to_shifted_examples():
    assert to_shifted(start_position(BoardParams(3, 4))).parts == (3, 2, 1)
    empty = MhrgPosition(BoardParams(3, 4), YoungDiagram(()))
    assert to_shifted(empty).parts == ()
    with pytest.raises(DomainError):
        to_shifted(start_position(BoardParams(3, 5)))
    with pytest.raises(DomainError):
        # asymmetric profile on the right board shape
        to_shifted(MhrgPosition(BoardParams(3, 4), YoungDiagram((4,))))


def test_from_shifted_examples():
    assert from_shifted(ShiftedDiagram((3, 2, 1)), 3) == start_position(BoardParams(3, 4))
    assert from_shifted(ShiftedDiagram(()), 3).diagram.rows == ()


def test_round_trip_between_rectangle_and_staircase():
    for n in range(1, 6):
        board = BoardParams(n, n + 1)
        for s in all_shifted(n):
            assert to_shifted(from_shifted(s, n)) == s
        for pos in reachable(board):
            assert from_shifted(to_shifted(pos), n) == pos


def test_widening_image_is_the_reachable_set():
    # the widened reachable set IS the reachable set of the wider board
    for m, n in [(1, 3), (2, 2), (2, 4), (3, 3), (3, 5)]:
        board = BoardParams(m, n)
        image = {widen_position(pos) for pos in reachable(board)}
        assert image == reachable(BoardParams(m, n + 1))


def test_word_maps_match_profile_and_position_maps():
    # every reachable position of every board `verify widen` and
    # `verify shifted` cover at their default ranges
    for m in range(1, 9):
        for n in range(m, 9):
            if (m + n) % 2:
                continue
            for pos in reachable(BoardParams(m, n)):
                wide = widen_diagonal(pos.profile())
                word = word_of_profile(pos.profile().encode(), m)
                assert widen_word(word, m, n) == word_of_profile(wide.encode(), m)
                assert widen_word(pos.encode(), m, n) == widen_position(pos).encode()
    for n in range(1, 8):
        for pos in reachable(BoardParams(n, n + 1)):
            mask = halve_word(pos.encode(), n)
            assert ShiftedDiagram.from_mask(mask) == to_shifted(pos)


def test_centre_equality_on_widened_boards():
    for m, n in [(1, 3), (2, 4), (3, 3), (4, 6)]:
        centre = (n - m) // 2
        for pos in reachable(BoardParams(m, n + 1)):
            seq = pos.profile()
            assert seq[centre] == seq[centre + 1]


def test_verify_widening_reports_pass():
    report = verify_widening(2, 4)
    assert report.passed
    assert report.checked == len(reachable_words(BoardParams(2, 4)))
    payload = report.to_json()
    assert payload["violations"] == []
    assert payload["map"].startswith("widen")

    assert all(r.passed for r in verify_widening_range(6))


def test_verify_staircase_reports_pass():
    report = verify_staircase_iso(4)
    assert report.passed and report.checked == 16
    assert all(r.passed for r in verify_staircase_range(5))


def test_verify_isomorphism_catches_corruption():
    src = sorted(reachable_words(BoardParams(2, 2)))
    tgt = sorted(reachable_words(BoardParams(2, 3)))

    def corrupted(word, a=src[0], b=src[1]):
        if word == a:
            word = b
        elif word == b:
            word = a
        return widen_word(word, 2, 2)

    gmap = GameMap("corrupted", "mhrg 2x2", "mhrg 2x3", corrupted)
    report = verify_isomorphism(
        gmap,
        src,
        tgt,
        lambda w: word_options(w, 4),
        lambda w: word_options(w, 5),
        render_source=bin,
        render_target=bin,
    )
    assert not report.passed
    kinds = {v.kind for v in report.violations}
    assert "options-mismatch" in kinds
    witness = [v for v in report.violations if v.kind == "options-mismatch"][0]
    assert "source" in witness.witness


def test_verify_isomorphism_catches_non_injective_and_uncovered():
    gmap = GameMap("collapse", "chain-2", "chain-1", lambda p: min(p, 1))
    report = verify_isomorphism(
        gmap,
        [0, 1, 2],
        [0, 1],
        lambda p: [p - 1] if p else [],
        lambda p: [p - 1] if p else [],
    )
    kinds = {v.kind for v in report.violations}
    assert "not-injective" in kinds
    assert "target-not-covered" not in kinds  # both targets are hit


def test_grundy_transport_along_working_maps():
    report = verify_widening(3, 5)
    assert report.passed  # includes per-position value transport
    report = verify_staircase_iso(5)
    assert report.passed


def test_verifiers_fail_with_literal_witnesses(monkeypatch):
    # Drop the largest option on odd-size words: the 2x3 target of widening
    # and the 3x4 source of halving.  Witnesses render source and target
    # positions each through their own side's renderer.
    original = word_options

    def corrupted(word, size):
        options = original(word, size)
        return set(sorted(options)[:-1]) if size % 2 else options

    monkeypatch.setattr(isomorphisms, "word_options", corrupted)
    widen = verify_widening(2, 2)
    assert not widen.passed
    # (2,1) on 2x2 widens to (3,1) on 2x3
    assert {"kind": "image-outside-target", "source": "2,1", "image": "3,1"} in [
        v.to_json() for v in widen.violations
    ]
    halve = verify_staircase_iso(3)
    assert not halve.passed
    witnesses = [v.to_json() for v in halve.violations]
    assert {"kind": "target-not-covered", "target": "3,2"} in witnesses
    assert {
        "kind": "options-mismatch", "source": "4,4,4", "missing": [], "extra": ["3,2"]
    } in witnesses
