"""Move generation for the multiple-hook-removal game on a boxed board.

A move removes the hook of a chosen box; if the remaining diagram contains
a hook with the identical label multiset, that hook must be removed too
(this happens at most once).

The rule runs on bead words.  A valid diagonal profile is fixed by its
``m + n`` unit steps, and one bit per step gives an ``(m + n)``-bit integer
with exactly ``m`` set bits, the classical Maya (bead) word of a partition
in a box.  A hook removal moves one bead down to a hole, and the forced
follow-up is the mirrored bead move under ``i -> m + n - 1 - i``.
:func:`word_options` is that rule; option sets, move records, solves and
reachable sets all come from it.  Positions, move records, reachable sets
and memo keys stay bytes profiles.

The semantic engine applies the rule book literally on diagrams, scanning
for an equal-label hook after each removal.  It is the oracle:
``engine="semantic"`` solves with it, and ``engine="cross-check"`` compares
it with the bead-word rule at every position.

:func:`in_game` answers reachability from the word alone: a position is in
the game exactly when no mirror pair of bits holds two beads (its docstring
proves that moves keep this invariant).  :func:`reachable_profiles` stays
the move closure, so the verifiers and the ``reachable`` listing check the
game itself rather than the predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Hashable, Iterable

from .diagrams import (
    MAX_SIDE,
    BoardParams,
    DiagonalSeq,
    HookRecord,
    YoungDiagram,
    diagonal_of,
    diagram_of,
    hook_at,
    interval_label_counts,
    remove_hook,
)
from .errors import DomainError, EngineInvariantError
from .grundy import GrundyMemo, grundy, memo_for

ENGINES = ("diagonal", "semantic", "cross-check")


@dataclass(frozen=True)
class MhrgPosition:
    """A game position: a diagram inside its board."""

    board: BoardParams
    diagram: YoungDiagram

    def __post_init__(self) -> None:
        if not self.diagram.fits(self.board):
            raise DomainError(
                f"diagram {self.diagram.literal()} does not fit a "
                f"{self.board.m}x{self.board.n} board"
            )

    def profile(self) -> DiagonalSeq:
        return diagonal_of(self.board, self.diagram)

    def encode(self) -> bytes:
        """Fixed-width byte string; the canonical memo key for this board."""
        return self.profile().encode()

    def __str__(self) -> str:
        return self.diagram.literal()


def start_position(board: BoardParams) -> MhrgPosition:
    """The full rectangle."""
    return MhrgPosition(board, YoungDiagram((board.n,) * board.m))


def position_from_profile(board: BoardParams, profile: bytes) -> MhrgPosition:
    seq = DiagonalSeq(board, tuple(profile))
    return MhrgPosition(board, diagram_of(seq))


@dataclass(frozen=True)
class MoveRecord:
    """One legal move: the chosen hook, the forced follow-up if any, and
    the resulting position.

    When ``second`` is present its label counts equal ``first``'s and its
    interval is the mirror ``(n - m - hi, n - m - lo)`` of ``first``'s; a
    third removal never exists.
    """

    first: HookRecord
    second: HookRecord | None
    result: MhrgPosition


# ---------------------------------------------------------------------------
# Bead-word core.  Step s of a profile (storage slots s-1 -> s) sets bit s-1
# of the word when it is 0 on the ascending side (s <= m) or 1 on the
# descending side.  An accepted interval decrement of slots a+1..b is then
# the bead move from set bit b to clear bit a < b, and the forced follow-up
# is the bead move (m+n-1-b, m+n-1-a), applied when it is legal after the
# first one.  A self-mirrored move never fires twice: its mirror needs the
# bead at b, which the first move just took away.  Every option is a
# smaller word, so the game graph is acyclic by construction.

_BIT = tuple(1 << i for i in range(2 * MAX_SIDE))  # a word has m + n bits


def word_of_profile(vals: bytes, m: int) -> int:
    """Bead word of a valid profile in storage order on an ``m``-row board."""
    word = 0
    for s in range(1, len(vals)):
        step = vals[s] - vals[s - 1]
        if (step == 0) if s <= m else step:
            word |= _BIT[s - 1]
    return word


def profile_of_word(word: int, m: int, n: int) -> bytes:
    """Inverse of :func:`word_of_profile` on the ``m x n`` board."""
    vals = bytearray(m + n + 1)
    v = 0
    for s in range(1, m + n + 1):
        bit = word >> (s - 1) & 1
        v += -bit if s > m else 1 - bit
        vals[s] = v
    return bytes(vals)


def word_options(word: int, size: int) -> set[int]:
    """Words reachable in one move from ``word`` (``size = m + n`` bits)."""
    top = size - 1
    bit = _BIT
    holes = [a for a in range(size) if not word & bit[a]]
    out: set[int] = set()
    add = out.add
    for b in range(size):
        if not word & bit[b]:
            continue
        without_b = word ^ bit[b]
        mirror_hole = bit[top - b]
        for a in holes:
            if a > b:
                break
            first = without_b ^ bit[a]
            mirror_bead = bit[top - a]
            if first & (mirror_hole | mirror_bead) == mirror_bead:
                first ^= mirror_hole | mirror_bead
            add(first)
    return out


def in_game(board: BoardParams, diagram: YoungDiagram) -> bool:
    """Whether ``diagram`` is reachable from the full rectangle of ``board``.

    True exactly when no mirror pair of bits ``(i, m + n - 1 - i)`` of the
    position's bead word holds two beads; with ``m + n`` odd the middle bit
    is its own mirror and must be a hole.  O(m + n), with no enumeration.

    Reachable words are mirror-free, by induction over moves:

    * at the start the beads fill bits ``n .. m + n - 1``, whose mirrors are
      bits ``0 .. m - 1``, disjoint from them because ``m <= n``;
    * take a move ``b -> a`` from a mirror-free word (``top = m + n - 1``).
      The mirror ``top - b`` of the bead ``b`` is a hole.  If ``top - a``
      holds a bead after the first removal (it is then not ``b``; it is
      ``a`` itself when ``a`` is the middle bit), the forced follow-up
      ``top - a -> top - b`` is legal and fires: each of the two pairs ends
      with one bead, or, when ``a`` is the middle bit, the middle ends
      empty and ``b``'s pair holds one bead.  Otherwise ``a``'s pair ends
      with one bead and ``b``'s pair with none.  No other bit changes.

    Conversely, every mirror-free word is reachable: that is checked, not
    proved.  On every board with at most 81 cells the move closure is
    mirror-free and has ``C(floor((m + n) / 2), m) * 2**m`` positions, the
    number of mirror-free words with ``m`` beads (``tests/test_mhrg.py``).
    """
    word = word_of_profile(diagonal_of(board, diagram).encode(), board.m)
    return mirror_free(word, board.m + board.n)


def mirror_free(word: int, size: int) -> bool:
    """No two beads of the ``size``-bit ``word`` sit on a pair of bits
    ``(i, size - 1 - i)``; the middle bit of an odd ``size`` holds none."""
    return not word & int(format(word, f"0{size}b")[::-1], 2)


def _corner_of_interval(vals: bytes, m: int, lo: int, hi: int) -> tuple[int, int]:
    """Corner box of the hook whose removal decrements storage ``lo..hi``."""
    klo, khi = lo - m, hi - m
    i = vals[hi] if khi >= 0 else vals[hi] - khi
    j = vals[lo] + klo if klo >= 0 else vals[lo]
    return i, j


def _hook(board: BoardParams, vals: bytes, lo: int, hi: int) -> HookRecord:
    """Record of the hook whose removal decrements storage ``lo..hi``."""
    m = board.m
    return HookRecord(
        _corner_of_interval(vals, m, lo, hi),
        lo - m,
        hi - m,
        interval_label_counts(board, lo - m, hi - m),
    )


def moves_diagonal(pos: MhrgPosition) -> tuple[MoveRecord, ...]:
    """Moves via the bead word, one record per distinct result.

    The bead move ``b -> a`` removes the hook of storage slots
    ``a + 1 .. b``; its follow-up is the mirrored bead move, as in
    :func:`word_options`, which decrements the mirror slots
    ``m + n - b .. m + n - 1 - a``.  When several first hooks reach the same
    result, the record with the lexicographically smallest corner is kept;
    records are ordered by the canonical encoding of their results.  Records
    are built for the kept moves only, but every forced follow-up is checked
    to carry its first hook's labels.
    """
    board = pos.board
    m, n = board.m, board.n
    last = m + n
    bit = _BIT
    vals = pos.encode()
    word = word_of_profile(vals, m)
    holes = [a for a in range(last) if not word & bit[a]]
    # result word -> (corner, lo, hi, word after the first removal, forced?)
    best: dict[int, tuple[tuple[int, int], int, int, int, bool]] = {}
    for b in range(last):
        if not word & bit[b]:
            continue
        for a in holes:
            if a > b:
                break
            lo, hi = a + 1, b
            mlo, mhi = last - hi, last - lo
            first = final = word ^ bit[a] ^ bit[b]
            mirror = bit[mlo - 1] | bit[mhi]
            forced = first & mirror == bit[mhi]
            if forced:
                labels = interval_label_counts(board, lo - m, hi - m)
                if labels != interval_label_counts(board, mlo - m, mhi - m):
                    first_hook = _hook(board, vals, lo, hi)
                    second = _hook(board, profile_of_word(first, m, n), mlo, mhi)
                    raise EngineInvariantError(
                        f"mirror hook labels diverge at {pos}: {first_hook} vs {second}"
                    )
                final = first ^ mirror
            corner = _corner_of_interval(vals, m, lo, hi)
            kept = best.get(final)
            if kept is None or corner < kept[0]:
                best[final] = (corner, lo, hi, first, forced)
    records = []
    for result, final in sorted((profile_of_word(w, m, n), w) for w in best):
        _, lo, hi, first, forced = best[final]
        second = (
            _hook(board, profile_of_word(first, m, n), last - hi, last - lo)
            if forced
            else None
        )
        records.append(
            MoveRecord(_hook(board, vals, lo, hi), second, position_from_profile(board, result))
        )
    return tuple(records)


def options_diagonal(pos: MhrgPosition) -> set[MhrgPosition]:
    """Option set via the bead word."""
    board = pos.board
    m, n = board.m, board.n
    return {
        position_from_profile(board, profile_of_word(word, m, n))
        for word in word_options(word_of_profile(pos.encode(), m), m + n)
    }


# ---------------------------------------------------------------------------
# Semantic engine: the oracle.


def _boxes_of_hook_length(diagram: YoungDiagram, length: int) -> list[tuple[int, int]]:
    """Boxes of ``diagram`` whose hook has ``length`` boxes, row-major.

    The hook at ``(i, j)`` has ``arm + leg + 1`` boxes, read off the row
    lengths and the conjugate's column lengths."""
    cols = diagram.conjugate().rows
    return [
        (i, j)
        for i, row in enumerate(diagram.rows, start=1)
        for j in range(1, row + 1)
        if row - j + cols[j - 1] - i + 1 == length
    ]


def move_for_box(pos: MhrgPosition, i: int, j: int) -> MoveRecord:
    """The move that removes the hook at ``(i, j)``, rule book applied
    literally: remove the hook, then scan for a hook with the identical
    label multiset and remove it too if one exists.

    Equal label multisets have equal sizes, so both scans compare labels
    only with hooks as long as the first one."""
    board, diagram = pos.board, pos.diagram
    first = hook_at(board, diagram, i, j)
    after_first = remove_hook(board, diagram, i, j)
    matches = [
        box
        for box in _boxes_of_hook_length(after_first, first.size)
        if hook_at(board, after_first, *box).labels == first.labels
    ]
    if not matches:
        return MoveRecord(first, None, MhrgPosition(board, after_first))
    results = {remove_hook(board, after_first, a, b) for a, b in matches}
    if len(results) != 1:
        raise EngineInvariantError(
            f"equal-label hooks at {matches} in {after_first.literal()} "
            f"disagree on the result"
        )
    final = results.pop()
    for box in _boxes_of_hook_length(final, first.size):
        if hook_at(board, final, *box).labels == first.labels:
            raise EngineInvariantError(
                f"third equal-label hook at {box} in {final.literal()}"
            )
    second = hook_at(board, after_first, *matches[0])
    return MoveRecord(first, second, MhrgPosition(board, final))


def moves_semantic(pos: MhrgPosition) -> tuple[MoveRecord, ...]:
    """Moves via the semantic engine, one record per distinct result: the
    one with the smallest corner, which row-major order meets first."""
    best: dict[YoungDiagram, MoveRecord] = {}
    for i, j in pos.diagram.boxes():
        record = move_for_box(pos, i, j)
        best.setdefault(record.result.diagram, record)
    return tuple(sorted(best.values(), key=lambda record: record.result.encode()))


def options_semantic(pos: MhrgPosition) -> set[MhrgPosition]:
    """Option set via the semantic engine."""
    return {record.result for record in moves_semantic(pos)}


def options_cross_check(pos: MhrgPosition) -> set[MhrgPosition]:
    """Run both engines and fail loudly on any divergence."""
    via_diagonal = options_diagonal(pos)
    via_semantic = options_semantic(pos)
    if via_diagonal != via_semantic:
        only_d = sorted(str(p) for p in via_diagonal - via_semantic)
        only_s = sorted(str(p) for p in via_semantic - via_diagonal)
        raise EngineInvariantError(
            f"engines diverge at {pos} on {pos.board.m}x{pos.board.n}: "
            f"diagonal-only {only_d}, semantic-only {only_s}"
        )
    return via_diagonal


def _word_options_fn(board: BoardParams, engine: str) -> Callable[[int], set[int]]:
    """Word options function of ``engine`` on ``board``: the bead-word rule,
    the rule book read through words, or both compared."""
    m, n = board.m, board.n
    size = m + n

    def diagonal(word: int) -> set[int]:
        return word_options(word, size)

    def semantic(word: int) -> set[int]:
        pos = position_from_profile(board, profile_of_word(word, m, n))
        return {word_of_profile(p.encode(), m) for p in options_semantic(pos)}

    def cross_check(word: int) -> set[int]:
        fast = word_options(word, size)
        if fast != semantic(word):
            options_cross_check(position_from_profile(board, profile_of_word(word, m, n)))
            raise EngineInvariantError("cross-check divergence")  # pragma: no cover
        return fast

    engines = {"diagonal": diagonal, "semantic": semantic, "cross-check": cross_check}
    if engine not in engines:
        raise DomainError(f"unknown engine {engine!r}; choose from {ENGINES}")
    return engines[engine]


def _closure(start: Hashable, options: Callable[[Hashable], Iterable[Hashable]]) -> set:
    seen = {start}
    stack = [start]
    while stack:
        for child in options(stack.pop()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def reachable_profiles(board: BoardParams, engine: str = "diagonal") -> set[bytes]:
    """Profiles of every position reachable from the full rectangle."""
    m, n = board.m, board.n
    start = word_of_profile(start_position(board).encode(), m)
    words = _closure(start, _word_options_fn(board, engine))
    return {profile_of_word(word, m, n) for word in words}


def reachable(board: BoardParams, engine: str = "diagonal") -> set[MhrgPosition]:
    """Positions reachable from the full rectangle (the game's position set)."""
    return {
        position_from_profile(board, vals)
        for vals in reachable_profiles(board, engine)
    }


def solve(
    board: BoardParams,
    diagram: YoungDiagram | None = None,
    engine: str = "diagonal",
    memo: GrundyMemo | None = None,
) -> tuple[int, GrundyMemo]:
    """Game value of ``diagram`` (default: the full rectangle) on ``board``.

    Returns the value together with the memo, whose size is the number of
    positions explored.  The memo is keyed by bytes profiles and must belong
    to this board (label ``mhrg {m}x{n}``); entries already in it are reused.
    The search itself runs on bead words.
    """
    memo = memo_for(f"mhrg {board.m}x{board.n}", memo)
    options = _word_options_fn(board, engine)
    pos = start_position(board) if diagram is None else MhrgPosition(board, diagram)
    m, n = board.m, board.n
    # A plain dict: lookups in a dict subclass cost more on the hot path.
    table = {word_of_profile(key, m): value for key, value in memo.items()}
    known = len(table)
    value = grundy(word_of_profile(pos.encode(), m), options, table)
    # Insertion order puts the newly explored positions after the known ones.
    for word, word_value in islice(table.items(), known, None):
        memo.record(profile_of_word(word, m, n), word_value)
    return value, memo
