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

from hookgames import BoardParams, MhrgPosition, YoungDiagram, options_semantic, start_position

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
