import pytest
from conftest import (
    DiagonalSeq,
    ShiftedDiagonalSeq,
    diagonal_of,
    diagram_of,
    profile_is_symmetric,
    shifted_diagonal_of,
    shifted_diagram_of,
    widen_diagonal,
    word_of_profile,
)

from hookgames import (
    BoardParams,
    DomainError,
    MhrgPosition,
    ShiftedDiagram,
    YoungDiagram,
    all_diagrams,
    all_shifted,
    from_shifted,
    is_symmetric,
    reachable,
    start_position,
    to_shifted,
    verify_isomorphism,
    verify_staircase_iso,
    verify_widening,
)
from hookgames import isomorphisms, mhrg
from hookgames.isomorphisms import (
    halve_word,
    verify_staircase_range,
    verify_widening_range,
    widen_word,
)
from hookgames.mhrg import reachable_words, word_of_diagram, word_options


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
        wide = widen_word(start_position(BoardParams(m, n)).encode(), m, n)
        assert wide == start_position(BoardParams(m, n + 1)).encode()


def test_is_symmetric_examples():
    # The full 3x3 square and the empty 3x5 board: the word and its
    # reversal differ on bits 0..m-1 and n..m+n-1 only.
    assert is_symmetric(0b111000, 3, 3)
    assert is_symmetric(0b00000111, 3, 5)
    # (1,1) on 2x2 has the profile (0,1,1,0,0).
    assert not is_symmetric(0b0110, 2, 2)
    assert word_of_diagram(BoardParams(2, 2), YoungDiagram((1, 1))) == 0b0110
    # (5,4,3) on the 3x5 board: the pair at diagonals (-1, 3) is (2, 1),
    # so the profile fails the a_i == a_{n-m-i} test.
    word = word_of_diagram(BoardParams(3, 5), YoungDiagram((5, 4, 3)))
    assert not is_symmetric(word, 3, 5)
    assert not profile_is_symmetric(DiagonalSeq(BoardParams(3, 5), (0, 1, 2, 3, 2, 2, 1, 1, 0)))


def test_is_symmetric_matches_the_profile_test_on_every_diagram():
    diagrams = symmetric = 0
    for m in range(1, 7):
        for n in range(m, 9):
            board = BoardParams(m, n)
            for diagram in all_diagrams(board):
                expected = profile_is_symmetric(diagonal_of(board, diagram))
                assert is_symmetric(word_of_diagram(board, diagram), m, n) == expected
                diagrams += 1
                symmetric += expected
    assert diagrams == 10_352
    assert 0 < symmetric < diagrams


def test_to_shifted_examples():
    assert to_shifted(start_position(BoardParams(3, 4))).parts == (3, 2, 1)
    empty = MhrgPosition(BoardParams(3, 4), YoungDiagram(()))
    assert to_shifted(empty).parts == ()
    with pytest.raises(DomainError):
        to_shifted(start_position(BoardParams(3, 5)))
    with pytest.raises(DomainError, match=r"^position 4 on 3x4 is not symmetric$"):
        # asymmetric diagram on the right board shape
        to_shifted(MhrgPosition(BoardParams(3, 4), YoungDiagram((4,))))


def test_from_shifted_examples():
    assert from_shifted(ShiftedDiagram((3, 2, 1)), 3) == start_position(BoardParams(3, 4))
    assert from_shifted(ShiftedDiagram(()), 3).diagram.rows == ()
    with pytest.raises(DomainError, match="^4,1 does not fit the size-3 staircase$"):
        from_shifted(ShiftedDiagram((4, 1)), 3)


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
        image = {widen_word(word, m, n) for word in reachable_words(board)}
        assert image == reachable_words(BoardParams(m, n + 1))


def test_word_maps_match_profile_and_position_maps():
    # every reachable position of every board `verify widen` and
    # `verify shifted` cover at their default ranges
    for m in range(1, 9):
        for n in range(m, 9):
            if (m + n) % 2:
                continue
            for pos in reachable(BoardParams(m, n)):
                seq = diagonal_of(pos.board, pos.diagram)
                wide = widen_diagonal(seq)
                assert word_of_profile(seq.encode(), m) == pos.encode()
                assert widen_word(pos.encode(), m, n) == word_of_profile(wide.encode(), m)
                wide_pos = MhrgPosition(wide.board, diagram_of(wide))
                assert widen_word(pos.encode(), m, n) == wide_pos.encode()
    # halving reads the right half of a symmetric profile as a shifted one
    for n in range(1, 8):
        for pos in reachable(BoardParams(n, n + 1)):
            seq = diagonal_of(pos.board, pos.diagram)
            half = ShiftedDiagonalSeq(n, tuple(seq[k] for k in range(1, n + 2)))
            assert to_shifted(pos) == shifted_diagram_of(half)
            assert ShiftedDiagram.from_mask(halve_word(pos.encode(), n)) == to_shifted(pos)


def test_from_shifted_matches_the_mirrored_profile():
    # every shifted diagram of every staircase of size 1..8
    diagrams = 0
    for n in range(1, 9):
        board = BoardParams(n, n + 1)
        for s in all_shifted(n):
            half = shifted_diagonal_of(s, n).values
            mirrored = DiagonalSeq(board, tuple(reversed(half)) + half)
            assert profile_is_symmetric(mirrored)
            assert from_shifted(s, n) == MhrgPosition(board, diagram_of(mirrored))
            diagrams += 1
    assert diagrams == 510


def test_centre_equality_on_widened_boards():
    for m, n in [(1, 3), (2, 4), (3, 3), (4, 6)]:
        centre = (n - m) // 2
        for pos in reachable(BoardParams(m, n + 1)):
            seq = diagonal_of(pos.board, pos.diagram)
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


def test_verifiers_make_each_option_set_once(monkeypatch):
    # The comparison's option sets also value the positions: 2x4 and 2x5
    # have 12 words each, the 3x4 board and the size-3 staircase 8 each.
    calls = {"word": 0, "mask": 0}

    def counted(options, key):
        def wrapper(*args):
            calls[key] += 1
            return options(*args)

        return wrapper

    monkeypatch.setattr(isomorphisms, "word_options", counted(word_options, "word"))
    monkeypatch.setattr(
        isomorphisms, "hrg_word_options", counted(isomorphisms.hrg_word_options, "mask")
    )
    assert verify_widening(2, 4).passed
    assert calls == {"word": 24, "mask": 0}
    assert verify_staircase_iso(3).passed
    assert calls == {"word": 32, "mask": 8}


def test_verify_isomorphism_catches_corruption():
    src = sorted(reachable_words(BoardParams(2, 2)))
    tgt = sorted(reachable_words(BoardParams(2, 3)))

    def corrupted(word, a=src[0], b=src[1]):
        if word == a:
            word = b
        elif word == b:
            word = a
        return widen_word(word, 2, 2)

    report = verify_isomorphism(
        "corrupted",
        "mhrg 2x2",
        "mhrg 2x3",
        corrupted,
        src,
        tgt,
        lambda w: word_options(w, 4),
        lambda w: word_options(w, 5),
        render_source=bin,
        render_target=bin,
    )
    assert not report.passed
    kinds = {v["kind"] for v in report.findings}
    assert "options-mismatch" in kinds
    witness = [v for v in report.findings if v["kind"] == "options-mismatch"][0]
    assert "source" in witness


def test_verify_isomorphism_catches_non_injective_and_uncovered():
    report = verify_isomorphism(
        "collapse",
        "chain-2",
        "chain-1",
        lambda p: min(p, 1),
        [0, 1, 2],
        [0, 1],
        lambda p: [p - 1] if p else [],
        lambda p: [p - 1] if p else [],
    )
    kinds = {v["kind"] for v in report.findings}
    assert "not-injective" in kinds
    assert "target-not-covered" not in kinds  # both targets are hit


def test_verify_isomorphism_catches_a_value_mismatch():
    # The target chain drops the middle position's option: the middle
    # position's options then differ, and the top's agree but its value
    # does not (0 in the source, 1 in the target).
    report = verify_isomorphism(
        "identity",
        "chain-3",
        "chain-3 less 1 -> 0",
        lambda p: p,
        [0, 1, 2],
        [0, 1, 2],
        lambda p: [p - 1] if p else [],
        lambda p: [p - 1] if p == 2 else [],
    )
    assert report.findings == [
        {"kind": "options-mismatch", "source": "1", "missing": ["0"], "extra": []},
        {"kind": "value-mismatch", "source": "2", "source_value": 0, "target_value": 1},
    ]


def test_grundy_transport_along_working_maps():
    report = verify_widening(3, 5)
    assert report.passed  # includes per-position value transport
    report = verify_staircase_iso(5)
    assert report.passed


def test_verifiers_fail_with_literal_witnesses(monkeypatch):
    # Drop the largest option on odd-size words, in the move closures and
    # in the options the maps are checked against: the 2x3 target of
    # widening and the 3x4 source of halving.  Witnesses render source and
    # target positions each through their own side's renderer.
    original = word_options

    def corrupted(word, size):
        options = original(word, size)
        return set(sorted(options)[:-1]) if size % 2 else options

    monkeypatch.setattr(isomorphisms, "word_options", corrupted)
    monkeypatch.setattr(mhrg, "word_options", corrupted)
    widen = verify_widening(2, 2)
    assert not widen.passed
    # (2,1) on 2x2 widens to (3,1) on 2x3
    assert {"kind": "image-outside-target", "source": "2,1", "image": "3,1"} in (
        widen.to_json()["violations"]
    )
    halve = verify_staircase_iso(3)
    assert not halve.passed
    witnesses = halve.to_json()["violations"]
    assert {"kind": "target-not-covered", "target": "3,2"} in witnesses
    assert {
        "kind": "options-mismatch", "source": "4,4,4", "missing": [], "extra": ["3,2"]
    } in witnesses


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: verify_widening(4, 2), r"^board needs m <= n, got \(4, 2\); transpose first$"),
        (lambda: verify_widening(0, 2), r"^board sides must be at least 1, got \(0, 2\)$"),
        (lambda: verify_widening(-1, 3), r"^board sides must be at least 1, got \(-1, 3\)$"),
        (lambda: verify_widening(3, 4), r"^widening needs m \+ n even, got \(3, 4\)$"),
        (lambda: verify_staircase_iso(0),
         r"^staircase isomorphism verification needs n >= 1, got 0$"),
        (lambda: verify_staircase_iso(-2),
         r"^staircase isomorphism verification needs n >= 1, got -2$"),
    ],
)
def test_isomorphism_checks_refuse_boards_the_theorems_do_not_cover(check, message):
    # Widening is stated for m <= n and halving for n >= 1; outside them a
    # check would report on boards that do not exist.
    with pytest.raises(DomainError, match=message):
        check()
