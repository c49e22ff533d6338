"""Shared test oracles, deliberately independent of the library internals.

The enumerator walks the adjacency condition directly instead of going
through diagrams, and the brute-force solver is plain recursion with mex
computed inline over the rule-book engine, so the production bead-word
engine and the iterative solver are both checked against code that shares
nothing with them.

Diagonal profiles live here only.  A diagram's profile counts its boxes on
each diagonal ``j - i = k``, ``k = -m .. n``; removing a hook subtracts one
from an interval of it.  The paper states its theorems on profiles, so
they are the reference that the library's bead words are tested against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from hypothesis import settings

from hookgames import (
    BoardParams,
    DomainError,
    EngineInvariantError,
    HookRecord,
    MhrgPosition,
    ShiftedDiagram,
    YoungDiagram,
    options_semantic,
    start_position,
    unimodal_number,
)
from hookgames.diagrams import max_label, remove_hook
from hookgames.mhrg import MoveRecord, _count_inside, diagram_of_word, word_of_diagram

# Property tests draw the same examples on every run, so the suite stays
# deterministic and its running time bounded.
settings.register_profile("tier1", derandomize=True, max_examples=40, deadline=None, database=None)
settings.load_profile("tier1")


def enumerate_profiles(m: int, n: int) -> list[tuple[int, ...]]:
    """All valid diagonal profiles for an ``m x n`` board: ascend by 0/1
    from the zero at the left end to diagonal 0, then descend by 0/1 per
    step in a way that can still reach the zero at the right end."""
    out: list[tuple[int, ...]] = []

    def ascend(prefix: list[int]) -> None:
        if len(prefix) == m + 1:
            descend(prefix)
            return
        for step in (0, 1):
            ascend(prefix + [prefix[-1] + step])

    def descend(prefix: list[int]) -> None:
        if len(prefix) == m + n + 1:
            if prefix[-1] == 0:
                out.append(tuple(prefix))
            return
        remaining = m + n - len(prefix)
        for step in (0, 1):
            value = prefix[-1] - step
            if 0 <= value <= remaining:
                descend(prefix + [value])

    ascend([0])
    return out


def _pair_ok(left: int, right: int, index: int) -> bool:
    """Adjacency condition for the pair ending at logical ``index``: counts
    step by 0 or 1 up to diagonal 0 and by 0 or 1 down after it."""
    diff = right - left if index <= 0 else left - right
    return 0 <= diff <= 1


@dataclass(frozen=True)
class DiagonalSeq:
    """Diagonal profile of a diagram in the box, validated.

    ``values`` is stored with offset ``m`` (slot ``k + m`` holds the count
    of diagonal ``k``); ``seq[k]`` reads logical indices.  Valid profiles
    have zero ends and obey the adjacency condition."""

    board: BoardParams
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        m, n = self.board.m, self.board.n
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != m + n + 1:
            raise DomainError(f"profile needs {m + n + 1} entries, got {len(values)}")
        if values[0] != 0:
            raise DomainError(f"entry at index {-m} must be 0, got {values[0]}")
        if values[-1] != 0:
            raise DomainError(f"entry at index {n} must be 0, got {values[-1]}")
        for s in range(1, len(values)):
            if not _pair_ok(values[s - 1], values[s], s - m):
                raise DomainError(f"adjacency violated at index {s - m}")

    def __getitem__(self, k: int) -> int:
        if not (-self.board.m <= k <= self.board.n):
            raise DomainError(f"diagonal index {k} out of range")
        return self.values[k + self.board.m]

    def encode(self) -> bytes:
        return bytes(self.values)


def diagonal_of(board: BoardParams, diagram: YoungDiagram) -> DiagonalSeq:
    """Diagonal profile of ``diagram``: slot ``k`` counts boxes with ``j - i = k``."""
    if not diagram.fits(board):
        raise DomainError(
            f"diagram {diagram.literal()} does not fit a {board.m}x{board.n} board"
        )
    counts = [0] * (board.m + board.n + 1)
    for i, j in diagram.boxes():
        counts[j - i + board.m] += 1
    return DiagonalSeq(board, tuple(counts))


def diagram_of(seq: DiagonalSeq) -> YoungDiagram:
    """Inverse of :func:`diagonal_of`: box ``(i, j)`` is present iff
    ``min(i, j) <= seq[j - i]``."""
    m, n = seq.board.m, seq.board.n
    rows = []
    for i in range(1, m + 1):
        length = 0
        for j in range(1, n + 1):
            if min(i, j) <= seq[j - i]:
                length = j
            else:
                break
        rows.append(length)
    return YoungDiagram(tuple(rows))


def decrement_interval(seq: DiagonalSeq, lo: int, hi: int) -> DiagonalSeq | None:
    """Subtract 1 from diagonals ``lo..hi``; ``None`` when the result is
    not a valid profile.  Only the pairs at the interval's ends can break.
    An interval outside ``(-m, n)`` is a domain error."""
    m, n = seq.board.m, seq.board.n
    if not (-m < lo <= hi < n):
        raise DomainError(f"interval [{lo}, {hi}] outside (-{m}, {n})")
    # The profile is unimodal, so the minimum over the interval sits at an end.
    if min(seq[lo], seq[hi]) == 0:
        return None
    if not _pair_ok(seq[lo - 1], seq[lo] - 1, lo) or not _pair_ok(seq[hi] - 1, seq[hi + 1], hi + 1):
        return None
    values = list(seq.values)
    for s in range(lo + m, hi + m + 1):
        values[s] -= 1
    return DiagonalSeq(seq.board, tuple(values))


def profile_is_symmetric(seq: DiagonalSeq) -> bool:
    """True when ``seq[i] == seq[n - m - i]`` for every diagonal ``i``."""
    m, n = seq.board.m, seq.board.n
    return all(seq[i] == seq[n - m - i] for i in range(-m, n + 1))


def widen_diagonal(seq: DiagonalSeq) -> DiagonalSeq:
    """Duplicate the centre entry ``(n - m) / 2``: a profile on the ``m x n``
    board becomes one on ``m x (n+1)``.  Requires ``m + n`` even."""
    m, n = seq.board.m, seq.board.n
    if (m + n) % 2:
        raise DomainError(f"widening needs m + n even, got ({m}, {n})")
    slot = (n - m) // 2 + m
    values = seq.values[: slot + 1] + seq.values[slot:]
    return DiagonalSeq(BoardParams(m, n + 1), values)


def diagonal_label(board: BoardParams, k: int) -> int:
    """Label shared by every box on diagonal ``j - i = k``: ``min(k + m, n - k)``."""
    if not (-board.m < k < board.n):
        raise DomainError(f"diagonal {k} outside (-{board.m}, {board.n})")
    return min(k + board.m, board.n - k)


def label_counts(board: BoardParams, labels: list[int]) -> tuple[int, ...]:
    """Count vector over labels ``1 .. max_label(board)``."""
    counts = [0] * max_label(board)
    for label in labels:
        counts[label - 1] += 1
    return tuple(counts)


def label_multiset(board: BoardParams, diagram: YoungDiagram) -> tuple[int, ...]:
    """Count vector of unimodal labels over all boxes of ``diagram``."""
    return label_counts(board, [unimodal_number(board, i, j) for i, j in diagram.boxes()])


@dataclass(frozen=True)
class ShiftedDiagonalSeq:
    """Diagonal profile ``[b_0 .. b_n]`` of a shifted diagram: weakly
    decreasing with steps of 0 or 1 and ``b_n = 0``."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.n + 1:
            raise DomainError(f"profile needs {self.n + 1} entries, got {len(values)}")
        if values[-1] != 0:
            raise DomainError(f"entry at index {self.n} must be 0, got {values[-1]}")
        for k in range(self.n):
            if not 0 <= values[k] - values[k + 1] <= 1:
                raise DomainError(f"adjacency violated at index {k}")

    def __getitem__(self, k: int) -> int:
        return self.values[k]


def shifted_diagonal_of(diagram: ShiftedDiagram, n: int) -> ShiftedDiagonalSeq:
    """Profile of ``diagram`` in the size-``n`` staircase: slot ``k`` counts
    boxes with ``j - i = k``."""
    return ShiftedDiagonalSeq(
        n, tuple(sum(1 for p in diagram.parts if p > k) for k in range(n + 1))
    )


def shifted_diagram_of(seq: ShiftedDiagonalSeq) -> ShiftedDiagram:
    """Inverse of :func:`shifted_diagonal_of` (conjugate counting)."""
    height = seq.values[0]
    return ShiftedDiagram(
        tuple(sum(1 for v in seq.values if v >= i) for i in range(1, height + 1))
    )


def word_of_profile(vals: bytes, m: int) -> int:
    """Bead word of a valid profile in storage order on an ``m``-row board:
    step ``s`` sets bit ``s - 1`` when it stays level on the ascending side
    (``s <= m``) or steps down on the descending side."""
    word = 0
    for s in range(1, len(vals)):
        step = vals[s] - vals[s - 1]
        if (step == 0) if s <= m else step:
            word |= 1 << (s - 1)
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


def position_from_profile(board: BoardParams, profile: bytes) -> MhrgPosition:
    """The position whose diagonal profile is ``profile``, through the
    validated :class:`DiagonalSeq` and :func:`diagram_of`."""
    return MhrgPosition(board, diagram_of(DiagonalSeq(board, tuple(profile))))


def hook_at_reference(board: BoardParams, diagram: YoungDiagram, i: int, j: int) -> HookRecord:
    """Hook at ``(i, j)`` box by box: the arm's boxes and the leg's, each
    labelled by :func:`unimodal_number`, which refuses a box off the board.
    The interval runs from ``j - i'`` (``i'`` the bottom box of column
    ``j``) up to ``j' - i`` (``j'`` the rightmost box of row ``i``)."""
    rows = diagram.rows
    arm = [(i, b) for b in range(j, rows[i - 1] + 1)]
    leg = [(a, j) for a in range(i + 1, len(rows) + 1) if rows[a - 1] >= j]
    labels = sorted(unimodal_number(board, a, b) for a, b in arm + leg)
    return HookRecord((i, j), j - i - len(leg), rows[i - 1] - i, tuple(labels))


def remove_hook_reference(diagram: YoungDiagram, i: int, j: int) -> YoungDiagram:
    """Remove the hook at ``(i, j)`` box by box: drop the arm and the leg,
    move every box south-east of the corner one step up-left, and read the
    rows back, failing on a row with a gap."""
    rows = diagram.rows
    hook = {(i, b) for b in range(j, rows[i - 1] + 1)}
    hook |= {(a, j) for a in range(i + 1, len(rows) + 1) if rows[a - 1] >= j}
    remaining: dict[int, set[int]] = {}
    for a, b in diagram.boxes():
        if (a, b) in hook:
            continue
        if a > i and b > j:
            a, b = a - 1, b - 1
        remaining.setdefault(a, set()).add(b)
    out = [0] * len(rows)
    for a, cols in remaining.items():
        if cols != set(range(1, len(cols) + 1)):
            raise EngineInvariantError(f"hook removal left a ragged row {a}")
        out[a - 1] = len(cols)
    return YoungDiagram(tuple(out))


def diagram_of_word_reference(word: int, size: int) -> YoungDiagram:
    """Diagram of the ``size``-bit bead word ``word`` bit by bit, from the
    highest: each bead is a row as long as the holes below it."""
    bits = format(word, f"0{size}b")
    holes = bits.count("0")
    rows = []
    for bit in bits:
        if bit == "1":
            rows.append(holes)
        else:
            holes -= 1
    return YoungDiagram(tuple(rows))


def word_options_reference(word: int, size: int) -> set[int]:
    """Options of the ``size``-bit bead word ``word`` by every bead-hole
    pair: each bead ``b`` moves to each hole ``a < b``, and the mirrored
    move ``top - a -> top - b`` follows when it is legal after the first
    (``top = size - 1``).  A flip of two beads is found from both."""
    top = size - 1
    out = set()
    for b in range(size):
        if not word >> b & 1:
            continue
        for a in range(b):
            if word >> a & 1:
                continue
            first = word ^ 1 << a ^ 1 << b
            mirror = 1 << (top - b) | 1 << (top - a)
            if first & mirror == 1 << (top - a):
                first ^= mirror
            out.add(first)
    return out


def moves_reference(pos: MhrgPosition) -> tuple[MoveRecord, ...]:
    """Move records by every bead-hole pair.  Bead ``b`` moves to each hole
    ``a < b``, removing the hook whose corner is the row of ``b`` (the beads
    at or above it) and the column of ``a`` (the holes at or below it).  The
    mirrored move ``top - a -> top - b`` follows when it is legal after the
    first (``top = m + n - 1``), and every such follow-up, kept or not, must
    remove a hook with the first one's labels.  Hooks are read off the
    diagrams box by box (:func:`hook_at_reference`).  Per result the smallest corner is
    kept, and records are ordered by the result's diagonal profile."""
    board = pos.board
    m, n = board.m, board.n
    top = m + n - 1
    word = word_of_diagram(board, pos.diagram)

    def corner(w: int, a: int, b: int) -> tuple[int, int]:
        return (w >> b).bit_count(), a + 1 - (w & ((1 << a) - 1)).bit_count()

    def hook(w: int, a: int, b: int):
        diagram = pos.diagram if w == word else diagram_of_word(w)
        return hook_at_reference(board, diagram, *corner(w, a, b))

    # result word -> (corner, a, b, word after the first move, forced?)
    best: dict[int, tuple[tuple[int, int], int, int, int, bool]] = {}
    for b in range(m + n):
        if not word >> b & 1:
            continue
        for a in range(b):
            if word >> a & 1:
                continue
            first = final = word ^ 1 << a ^ 1 << b
            mirror = 1 << (top - b) | 1 << (top - a)
            forced = first & mirror == 1 << (top - a)
            if forced:
                first_hook, second_hook = hook(word, a, b), hook(first, top - b, top - a)
                if first_hook.labels != second_hook.labels:
                    raise EngineInvariantError(
                        f"mirror hook labels diverge at {pos}: {first_hook} vs {second_hook}"
                    )
                final = first ^ mirror
            kept = best.get(final)
            if kept is None or corner(word, a, b) < kept[0]:
                best[final] = (corner(word, a, b), a, b, first, forced)
    records = []
    for final in sorted(best, key=lambda w: profile_of_word(w, m, n)):
        _, a, b, first, forced = best[final]
        second = hook(first, top - b, top - a) if forced else None
        result = MhrgPosition(board, diagram_of_word(final))
        records.append(MoveRecord(hook(word, a, b), second, result))
    return tuple(records)


def triples(records: tuple[MoveRecord, ...]) -> list[tuple[HookRecord, HookRecord | None, int]]:
    """Move records as ``mhrg._decode_moves`` gives moves: the first hook,
    the forced hook or ``None``, and the result's bead word."""
    return [(r.first, r.second, r.result.encode()) for r in records]


def seeded_subgames(board: BoardParams, count: int) -> list[int]:
    """``count`` in-game words of ``board``, drawn from a seed named after
    the board, whose subgames hold 20 to 200 words (``mhrg._count_inside``):
    one coin on each of ``m`` distinct mirror pairs, each negative (on its
    pair's low bit) with probability 0.85.  Coins drawn on either side alike
    give large boards subgames far past that size, and the draw stalls."""
    size = board.m + board.n
    rng = random.Random(f"{board.m}x{board.n}")
    words: list[int] = []
    while len(words) < count:
        pairs = rng.sample(range(size // 2), board.m)
        w = sum(1 << (p if rng.random() < 0.85 else size - 1 - p) for p in pairs)
        if 20 <= _count_inside(w, size) <= 200:
            words.append(w)
    return words


def brute_grundy_map(board: BoardParams) -> dict[tuple[int, ...], int]:
    """Game value of every position reachable from the full rectangle,
    computed by plain recursion over the rule-book engine."""

    @lru_cache(maxsize=None)
    def value(rows: tuple[int, ...]) -> int:
        pos = MhrgPosition(board, YoungDiagram(rows))
        seen = {value(child.diagram.rows) for child in options_semantic(pos)}
        v = 0
        while v in seen:
            v += 1
        return v

    result: dict[tuple[int, ...], int] = {}
    frontier = [start_position(board).diagram.rows]
    discovered = {frontier[0]}
    while frontier:
        rows = frontier.pop()
        result[rows] = value(rows)
        for child in options_semantic(MhrgPosition(board, YoungDiagram(rows))):
            if child.diagram.rows not in discovered:
                discovered.add(child.diagram.rows)
                frontier.append(child.diagram.rows)
    return result


def rule_book_move_reference(pos: MhrgPosition, i: int, j: int) -> MoveRecord:
    """The rule-book move at ``(i, j)`` with unfiltered scans: every box's
    hook in the diagram left by the first removal is compared with the
    first hook's labels, and so is every box's hook in the final diagram."""
    board, diagram = pos.board, pos.diagram
    first = hook_at_reference(board, diagram, i, j)
    after_first = remove_hook(board, diagram, i, j)
    matches = sorted(
        box
        for box in after_first.boxes()
        if hook_at_reference(board, after_first, *box).labels == first.labels
    )
    if not matches:
        return MoveRecord(first, None, MhrgPosition(board, after_first))
    results = {remove_hook(board, after_first, a, b) for a, b in matches}
    if len(results) != 1:
        raise EngineInvariantError(f"equal-label hooks at {matches} disagree on the result")
    final = results.pop()
    for box in final.boxes():
        if hook_at_reference(board, final, *box).labels == first.labels:
            raise EngineInvariantError(f"third equal-label hook at {box}")
    second = hook_at_reference(board, after_first, *matches[0])
    return MoveRecord(first, second, MhrgPosition(board, final))


def rule_book_moves_reference(pos: MhrgPosition) -> tuple[MoveRecord, ...]:
    """One reference move per distinct result, the smallest corner kept,
    ordered by the result's diagonal profile."""
    best: dict[bytes, MoveRecord] = {}
    for i, j in pos.diagram.boxes():
        record = rule_book_move_reference(pos, i, j)
        key = diagonal_of(pos.board, record.result.diagram).encode()
        kept = best.get(key)
        if kept is None or record.first.corner < kept.first.corner:
            best[key] = record
    return tuple(best[key] for key in sorted(best))


def options_payload(pos: MhrgPosition, records: tuple[MoveRecord, ...]) -> dict:
    """The ``options --format json`` payload as a dict, the reference that
    ``json.dumps(..., indent=2, sort_keys=True)`` encodes for the CLI's
    writer to match."""
    return {
        "board": [pos.board.m, pos.board.n],
        "diagram": pos.diagram.literal(),
        "moves": [
            {
                "corner": list(r.first.corner),
                "interval": [r.first.lo, r.first.hi],
                "labels": list(r.first.labels),
                "forced": (
                    None
                    if r.second is None
                    else {"corner": list(r.second.corner), "interval": [r.second.lo, r.second.hi]}
                ),
                "result": r.result.diagram.literal(),
            }
            for r in records
        ],
    }


def shifted_boxes(diagram: ShiftedDiagram) -> Iterator[tuple[int, int]]:
    """Boxes ``(i, j)`` of a shifted diagram in row-major order: row ``i``
    spans columns ``i .. i + parts[i - 1] - 1``."""
    for i, length in enumerate(diagram.parts, start=1):
        for j in range(i, i + length):
            yield (i, j)


def in_shifted(diagram: ShiftedDiagram, box: tuple[int, int]) -> bool:
    """Whether ``box`` is a box of the shifted diagram."""
    i, j = box
    return 1 <= i <= len(diagram.parts) and i <= j < i + diagram.parts[i - 1]


def shifted_hook(diagram: ShiftedDiagram, i: int, j: int) -> frozenset[tuple[int, int]]:
    """Hook at ``(i, j)``: the box, its arm, its leg, and the tail row
    ``j + 1``."""
    if not in_shifted(diagram, (i, j)):
        raise DomainError(f"box ({i}, {j}) not in shifted diagram {diagram.literal()}")
    boxes = {(i, j)}
    boxes.update((i, jj) for jj in range(j + 1, i + diagram.parts[i - 1]))
    boxes.update(b for b in shifted_boxes(diagram) if b[1] == j and b[0] > i)
    boxes.update(b for b in shifted_boxes(diagram) if b[0] == j + 1 and b[1] > j)
    return frozenset(boxes)


def shifted_remove_hook(diagram: ShiftedDiagram, i: int, j: int) -> ShiftedDiagram:
    """Remove the hook at ``(i, j)`` and close the gap: rows strictly
    between ``i`` and ``j + 1`` shift up-left one step, rows below
    ``j + 1`` shift two."""
    hook = shifted_hook(diagram, i, j)
    remaining: dict[int, set[int]] = {}
    for a, b in shifted_boxes(diagram):
        if (a, b) in hook:
            continue
        if a > j + 1:
            a, b = a - 2, b - 2
        elif i < a < j + 1 and b > j:
            a, b = a - 1, b - 1
        remaining.setdefault(a, set()).add(b)
    parts = [0] * len(diagram.parts)
    for a, cols in remaining.items():
        if cols != set(range(a, a + len(cols))):
            raise EngineInvariantError(
                f"shifted removal left a ragged row {a} in {diagram.literal()}"
            )
        parts[a - 1] = len(cols)
    return ShiftedDiagram(tuple(p for p in parts if p))


def hrg_options(diagram: ShiftedDiagram, n: int) -> set[ShiftedDiagram]:
    """Positions reachable in one move of the hook-removal game inside the
    size-``n`` staircase, by the hook rule on diagrams: the reference that
    ``hrg_word_options`` is tested against."""
    if not diagram.fits(n):
        raise DomainError(
            f"{diagram.literal()} does not fit the size-{n} staircase"
        )
    return {shifted_remove_hook(diagram, i, j) for i, j in shifted_boxes(diagram)}
