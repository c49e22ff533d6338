"""Shared test oracles, deliberately independent of the library internals.

The enumerator walks the adjacency condition directly instead of going
through diagrams, and the brute-force solver is plain recursion with mex
computed inline over the rule-book engine, so the production profile
engine and the iterative solver are both checked against code that shares
nothing with them.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import settings

from hookgames import (
    BoardParams,
    DiagonalSeq,
    EngineInvariantError,
    MhrgPosition,
    YoungDiagram,
    diagram_of,
    options_semantic,
    start_position,
)
from hookgames.diagrams import hook_at, remove_hook
from hookgames.mhrg import MoveRecord

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


def position_from_profile(board: BoardParams, profile: bytes) -> MhrgPosition:
    """The position whose diagonal profile is ``profile``, through the
    validated :class:`DiagonalSeq` and :func:`diagram_of`."""
    return MhrgPosition(board, diagram_of(DiagonalSeq(board, tuple(profile))))


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
        raise EngineInvariantError(f"equal-label hooks at {matches} disagree on the result")
    final = results.pop()
    for box in final.boxes():
        if hook_at(board, final, *box).labels == first.labels:
            raise EngineInvariantError(f"third equal-label hook at {box}")
    second = hook_at(board, after_first, *matches[0])
    return MoveRecord(first, second, MhrgPosition(board, final))


def rule_book_moves_reference(pos: MhrgPosition) -> tuple[MoveRecord, ...]:
    """One reference move per distinct result, the smallest corner kept,
    ordered by the result's memo key."""
    best: dict[bytes, MoveRecord] = {}
    for i, j in pos.diagram.boxes():
        record = rule_book_move_reference(pos, i, j)
        key = record.result.encode()
        kept = best.get(key)
        if kept is None or record.first.corner < kept.first.corner:
            best[key] = record
    return tuple(best[key] for key in sorted(best))
