"""Move generation for the multiple-hook-removal game on a boxed board.

A move removes the hook of a chosen box; if the remaining diagram contains
a hook with the identical label multiset, that hook must be removed too
(this happens at most once).  Two engines implement the rule:

* the semantic engine applies the rule book literally on diagrams,
  scanning for an equal-label hook after each removal;
* the profile engine works on diagonal profiles, where a removal is an
  accepted interval decrement and the forced follow-up is exactly the
  mirror interval ``(n - m - hi, n - m - lo)``.

The profile engine is the production path; the semantic engine is the
oracle it is cross-checked against.  Both are pure functions over
immutable positions.

With the profile engine, :func:`solve` and :func:`reachable_profiles` run on
bead words: a valid profile is fixed by its ``m + n`` unit steps, and one
bit per step gives an ``(m + n)``-bit integer with exactly ``m`` set bits,
the classical Maya (bead) word of a partition in a box.  There a hook
removal moves one bead down to a hole and the forced follow-up is the
mirrored bead move under ``i -> m + n - 1 - i``.  Words never leave those
two functions: positions, move records, reachable sets and memo keys stay
bytes profiles.
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
# Profile engine.  Profiles are bytes of length m + n + 1 in storage order
# (slot k + m holds diagonal k).  An interval decrement [lo, hi] is accepted
# exactly when slot lo steps up from its left neighbour (towards the peak)
# and slot hi steps down to its right neighbour, which makes acceptance an
# O(1) test per boundary.


def _accepts(vals: bytes | bytearray, m: int, lo: int, hi: int) -> bool:
    v = vals[lo]
    if lo <= m:
        if v != vals[lo - 1] + 1:
            return False
    elif v != vals[lo - 1]:
        return False
    w = vals[hi]
    if hi < m:
        return w == vals[hi + 1]
    return w == vals[hi + 1] + 1


# Byte map v -> v - 1; entries of an accepted interval are positive, so it
# never wraps.
_DEC = bytes((v - 1) % 256 for v in range(256))


def _dec(vals: bytes, lo: int, hi: int) -> bytes:
    return vals[:lo] + vals[lo : hi + 1].translate(_DEC) + vals[hi + 1 :]


def _interval_ends(vals: bytes, m: int) -> tuple[list[int], list[int]]:
    """Storage slots usable as interval starts / ends."""
    last = len(vals) - 1
    lows, highs = [], []
    for s in range(1, last):
        v = vals[s]
        if (v == vals[s - 1] + 1) if s <= m else (v == vals[s - 1]):
            lows.append(s)
        if (v == vals[s + 1]) if s < m else (v == vals[s + 1] + 1):
            highs.append(s)
    return lows, highs


def profile_options(vals: bytes, m: int, n: int) -> list[bytes]:
    """Profiles reachable in one move, duplicates included."""
    last = m + n
    lows, highs = _interval_ends(vals, m)
    out = []
    for lo in lows:
        for hi in highs:
            if hi < lo:
                continue
            first = _dec(vals, lo, hi)
            # Mirror interval in storage slots; self-mirrored hooks never
            # fire the follow-up removal.
            mlo, mhi = last - hi, last - lo
            if mlo != lo and _accepts(first, m, mlo, mhi):
                out.append(_dec(first, mlo, mhi))
            else:
                out.append(first)
    return out


def _corner_of_interval(vals: bytes, m: int, lo: int, hi: int) -> tuple[int, int]:
    """Corner box of the hook whose removal decrements storage ``lo..hi``."""
    klo, khi = lo - m, hi - m
    i = vals[hi] if khi >= 0 else vals[hi] - khi
    j = vals[lo] + klo if klo >= 0 else vals[lo]
    return i, j


def moves_diagonal(pos: MhrgPosition) -> tuple[MoveRecord, ...]:
    """Moves via the profile engine, one record per distinct result.

    When several first hooks reach the same result, the record with the
    lexicographically smallest corner is kept; records are ordered by the
    canonical encoding of their results.
    """
    board = pos.board
    m, n = board.m, board.n
    last = m + n
    vals = pos.encode()
    lows, highs = _interval_ends(vals, m)
    best: dict[bytes, MoveRecord] = {}
    for lo in lows:
        for hi in highs:
            if hi < lo:
                continue
            first_profile = _dec(vals, lo, hi)
            first = HookRecord(
                _corner_of_interval(vals, m, lo, hi),
                lo - m,
                hi - m,
                interval_label_counts(board, lo - m, hi - m),
            )
            mlo, mhi = last - hi, last - lo
            second = None
            final = first_profile
            if mlo != lo and _accepts(first_profile, m, mlo, mhi):
                second = HookRecord(
                    _corner_of_interval(first_profile, m, mlo, mhi),
                    mlo - m,
                    mhi - m,
                    interval_label_counts(board, mlo - m, mhi - m),
                )
                if second.labels != first.labels:
                    raise EngineInvariantError(
                        f"mirror hook labels diverge at {pos}: {first} vs {second}"
                    )
                final = _dec(first_profile, mlo, mhi)
            record = MoveRecord(first, second, position_from_profile(board, final))
            kept = best.get(final)
            if kept is None or record.first.corner < kept.first.corner:
                best[final] = record
    return tuple(best[key] for key in sorted(best))


def options_diagonal(pos: MhrgPosition) -> set[MhrgPosition]:
    """Option set via the profile engine."""
    board = pos.board
    return {
        position_from_profile(board, p)
        for p in profile_options(pos.encode(), board.m, board.n)
    }


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


def _fill_words(root: int, size: int, table: dict[int, int]) -> None:
    """Add the value of ``root`` and of every position below it that
    ``table`` lacks.  Iterative depth-first search: options are smaller
    words, so no position can repeat on the active path."""
    if root in table:
        return
    opts = word_options(root, size)
    stack = [(root, opts, iter(opts))]
    while stack:
        word, opts, pending = stack[-1]
        for child in pending:
            if child not in table:
                grand = word_options(child, size)
                stack.append((child, grand, iter(grand)))
                break
        else:
            stack.pop()
            seen = {table[child] for child in opts}
            value = 0
            while value in seen:
                value += 1
            table[word] = value


# ---------------------------------------------------------------------------
# Semantic engine: the oracle.


def move_for_box(pos: MhrgPosition, i: int, j: int) -> MoveRecord:
    """The move that removes the hook at ``(i, j)``, rule book applied
    literally: remove the hook, then scan for a hook with the identical
    label multiset and remove it too if one exists."""
    board, diagram = pos.board, pos.diagram
    first = hook_at(board, diagram, i, j)
    after_first = remove_hook(board, diagram, i, j)
    matches = sorted(
        box
        for box in after_first.boxes()
        if hook_at(board, after_first, *box).labels == first.labels
    )
    if not matches:
        return MoveRecord(first, None, MhrgPosition(board, after_first))
    results = {remove_hook(board, after_first, a, b) for a, b in matches}
    if len(results) != 1:
        raise EngineInvariantError(
            f"equal-label hooks at {sorted(matches)} in {after_first.literal()} "
            f"disagree on the result"
        )
    final = results.pop()
    for box in final.boxes():
        if hook_at(board, final, *box).labels == first.labels:
            raise EngineInvariantError(
                f"third equal-label hook at {box} in {final.literal()}"
            )
    second = hook_at(board, after_first, *matches[0])
    return MoveRecord(first, second, MhrgPosition(board, final))


def moves_semantic(pos: MhrgPosition) -> tuple[MoveRecord, ...]:
    """Moves via the semantic engine, one record per distinct result."""
    best: dict[bytes, MoveRecord] = {}
    for i, j in pos.diagram.boxes():
        record = move_for_box(pos, i, j)
        key = record.result.encode()
        kept = best.get(key)
        if kept is None or record.first.corner < kept.first.corner:
            best[key] = record
    return tuple(best[key] for key in sorted(best))


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
            f"profile-only {only_d}, semantic-only {only_s}"
        )
    return via_diagonal


def _profile_options_fn(board: BoardParams, engine: str):
    """Bytes options function of the ``semantic`` or ``cross-check`` engine;
    the ``diagonal`` engine runs on bead words instead."""
    m, n = board.m, board.n

    def semantic(vals: bytes) -> list[bytes]:
        pos = position_from_profile(board, vals)
        return [p.encode() for p in options_semantic(pos)]

    def cross_check(vals: bytes) -> list[bytes]:
        fast = profile_options(vals, m, n)
        if set(fast) != set(semantic(vals)):
            options_cross_check(position_from_profile(board, vals))
            raise EngineInvariantError("cross-check divergence")  # pragma: no cover
        return fast

    if engine == "semantic":
        return semantic
    if engine == "cross-check":
        return cross_check
    raise DomainError(f"unknown engine {engine!r}; choose from {ENGINES}")


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
    start = start_position(board).encode()
    if engine != "diagonal":
        return _closure(start, _profile_options_fn(board, engine))
    words = _closure(word_of_profile(start, m), lambda word: word_options(word, m + n))
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
    """
    memo = memo_for(f"mhrg {board.m}x{board.n}", memo)
    pos = start_position(board) if diagram is None else MhrgPosition(board, diagram)
    if engine != "diagonal":
        return grundy(pos.encode(), _profile_options_fn(board, engine), memo), memo
    m, n = board.m, board.n
    table = {word_of_profile(key, m): value for key, value in memo.items()}
    known = len(table)
    root = word_of_profile(pos.encode(), m)
    _fill_words(root, m + n, table)
    # Insertion order puts the newly explored positions after the known ones.
    for word, value in islice(table.items(), known, None):
        memo.record(profile_of_word(word, m, n), value)
    return table[root], memo
