"""Differential tests of the bead-word core against the profile rule and the
rule-book engine, on boards past the exhaustive 6x6 checks."""

from math import comb

from conftest import enumerate_profiles
from hypothesis import given
from hypothesis import strategies as st

from hookgames import (
    BoardParams,
    DiagonalSeq,
    GrundyMemo,
    decrement_interval,
    grundy,
    moves_semantic,
    options_semantic,
    solve,
    start_position,
)
from hookgames.mhrg import (
    mirror_free,
    position_from_profile,
    profile_of_word,
    word_of_profile,
    word_options,
)

MAX_M, MAX_N = 12, 30


@st.composite
def boards(draw) -> tuple[int, int]:
    """Boards with a side past 6, up to 12x30."""
    m = draw(st.integers(1, MAX_M))
    return m, draw(st.integers(max(m, 7), MAX_N))


@st.composite
def board_words(draw) -> tuple[int, int, int]:
    m, n = draw(boards())
    beads = draw(st.sets(st.integers(0, m + n - 1), min_size=m, max_size=m))
    return m, n, sum(1 << b for b in beads)


@st.composite
def mirror_free_words(draw) -> tuple[int, int, int]:
    """Words with one bead in each of m mirror pairs (i, m + n - 1 - i)."""
    m, n = draw(boards())
    top = m + n - 1
    pairs = draw(st.sets(st.integers(0, (m + n) // 2 - 1), min_size=m, max_size=m))
    return m, n, sum(1 << (top - i if draw(st.booleans()) else i) for i in pairs)


# The rule-book engine's cost per position grows steeply with the box
# count, so it is consulted once a walk has come down to this many boxes.
SEMANTIC_MAX_BOXES = 40


@st.composite
def walks(draw) -> tuple[int, int, list[int]]:
    """Words visited by a random walk of bead moves from the full rectangle
    (so every one lies in the game's position set).  The walk goes on at
    least until the position has at most ``SEMANTIC_MAX_BOXES`` boxes."""
    m, n = draw(boards())
    word = word_of_profile(start_position(BoardParams(m, n)).encode(), m)
    visited = [word]
    extra = draw(st.integers(0, 3))
    while extra:
        opts = sorted(word_options(word, m + n))
        if not opts:
            break
        word = opts[draw(st.integers(0, len(opts) - 1))]
        visited.append(word)
        if boxes(word, m, n) <= SEMANTIC_MAX_BOXES:
            extra -= 1
    return m, n, visited


def boxes(word: int, m: int, n: int) -> int:
    return sum(profile_of_word(word, m, n))


def reference_options(vals: bytes, m: int, n: int) -> set[bytes]:
    """Options by the profile rule, sharing no code with the bead words:
    every accepted interval decrement of the profile, followed by the
    decrement of its mirror interval ``(n - m - hi, n - m - lo)`` when that
    is accepted and is not the same interval."""
    seq = DiagonalSeq(BoardParams(m, n), tuple(vals))
    out = set()
    for lo in range(1 - m, n):
        for hi in range(lo, n):
            first = decrement_interval(seq, lo, hi)
            if not isinstance(first, DiagonalSeq):
                continue
            mlo, mhi = n - m - hi, n - m - lo
            second = decrement_interval(first, mlo, mhi) if mlo != lo else None
            out.add((second if isinstance(second, DiagonalSeq) else first).encode())
    return out


def test_word_round_trip_exhaustive_small_boards():
    for m in range(1, 7):
        for n in range(m, 7):
            words = {word_of_profile(bytes(p), m) for p in enumerate_profiles(m, n)}
            assert len(words) == comb(m + n, m)
            for word in words:
                assert bin(word).count("1") == m
                assert word_of_profile(profile_of_word(word, m, n), m) == word


@given(board_words())
def test_word_round_trip(case):
    m, n, word = case
    vals = profile_of_word(word, m, n)
    DiagonalSeq(BoardParams(m, n), tuple(vals))  # validates the profile
    assert word_of_profile(vals, m) == word


@given(walks())
def test_word_options_match_both_engines(case):
    m, n, visited = case
    board = BoardParams(m, n)
    for word in visited:
        vals = profile_of_word(word, m, n)
        children = word_options(word, m + n)
        assert all(child < word for child in children)
        via_words = {profile_of_word(child, m, n) for child in children}
        assert via_words == reference_options(vals, m, n)
        if boxes(word, m, n) <= SEMANTIC_MAX_BOXES:
            pos = position_from_profile(board, vals)
            assert via_words == {p.encode() for p in options_semantic(pos)}


@given(walks())
def test_forced_follow_up_is_the_mirrored_bead_move(case):
    m, n, visited = case
    top = m + n - 1
    for word in visited:
        if boxes(word, m, n) > SEMANTIC_MAX_BOXES:
            continue
        pos = position_from_profile(BoardParams(m, n), profile_of_word(word, m, n))
        for record in moves_semantic(pos):
            # Interval lo..hi in diagonals is the bead move (lo + m - 1, hi + m).
            a, b = record.first.lo + m - 1, record.first.hi + m
            assert not word >> a & 1 and word >> b & 1
            expected = word ^ (1 << a) ^ (1 << b)
            if record.second is not None:
                mirror = (record.second.lo + m - 1, record.second.hi + m)
                assert mirror == (top - b, top - a) != (a, b)
                expected ^= (1 << mirror[0]) ^ (1 << mirror[1])
            assert word_of_profile(record.result.encode(), m) == expected


def test_solve_memo_matches_generic_grundy_up_to_7x8():
    for m in range(1, 8):
        for n in range(m, 9):
            board = BoardParams(m, n)
            _, memo = solve(board)
            generic = GrundyMemo(f"mhrg {m}x{n}")
            grundy(
                start_position(board).encode(),
                lambda vals: reference_options(vals, m, n),
                generic,
            )
            assert dict(memo) == dict(generic), (m, n)


@given(st.one_of(board_words(), mirror_free_words()))
def test_mirror_free_checks_every_pair(case):
    m, n, word = case
    top = m + n - 1
    clash = any(word >> i & 1 and word >> (top - i) & 1 for i in range(m + n))
    assert mirror_free(word, m + n) == (not clash)


@given(mirror_free_words())
def test_moves_keep_words_mirror_free(case):
    m, n, word = case
    assert mirror_free(word, m + n)
    children = word_options(word, m + n)
    assert all(mirror_free(child, m + n) for child in children)
