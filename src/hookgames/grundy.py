"""Generic solver for finite impartial games: mex, memoised game values,
outcome classes.

The solver is agnostic about the position type; callers supply an options
function and (optionally) an encoder that turns positions into hashable
memo keys.  Values are deterministic functions of the position, so the
memo behaves as an insert-or-get table: concurrent or re-entrant fills are
benign, and re-insertion with a different value is an engine bug.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Hashable, Iterable, TypeVar

from .errors import DomainError, EngineInvariantError

P = TypeVar("P")


class Outcome(Enum):
    NEXT_WINS = "N"
    PREVIOUS_WINS = "P"


def mex(values: Iterable[int]) -> int:
    """Least non-negative integer missing from ``values``."""
    vals = list(values)
    # mex never exceeds the number of values, so a scratch array suffices.
    seen = [False] * (len(vals) + 1)
    for v in vals:
        if 0 <= v < len(seen):
            seen[v] = True
    for i, hit in enumerate(seen):
        if not hit:
            return i
    raise EngineInvariantError("mex scratch array exhausted")


class GrundyMemo:
    """Write-once table from canonical position encodings to game values.

    A memo is scoped to a single game instance (one board or staircase);
    encodings from different games must never share a table.
    """

    def __init__(self, game: str):
        self.game = game
        self._table: dict[Hashable, int] = {}

    def get(self, key: Hashable) -> int | None:
        return self._table.get(key)

    def record(self, key: Hashable, value: int) -> None:
        old = self._table.get(key)
        if old is not None and old != value:
            raise EngineInvariantError(
                f"memo for {self.game} re-inserted {key!r} with {value}, had {old}"
            )
        self._table[key] = value

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._table

    def items(self):
        return self._table.items()

    def as_dict(self) -> dict[Hashable, int]:
        return dict(self._table)


def memo_for(game: str, memo: GrundyMemo | None) -> GrundyMemo:
    """``memo``, or a fresh memo when it is ``None``, for ``game``.

    Encodings of different games can collide (a 3x5 and a 4x4 profile are
    both nine bytes), so a memo labelled with another game is refused.
    """
    if memo is None:
        return GrundyMemo(game)
    if memo.game != game:
        raise DomainError(f"memo belongs to {memo.game!r}, not to {game!r}")
    return memo


def grundy(
    pos: P,
    options: Callable[[P], Iterable[P]],
    memo: GrundyMemo,
    encode: Callable[[P], Hashable] | None = None,
) -> int:
    """Game value of ``pos``: mex over the values of its options.

    Iterative post-order traversal with an explicit stack, so deeply
    nested games cannot hit the interpreter recursion limit.  The game
    graph must be acyclic; a repeated position on the active path raises
    :class:`EngineInvariantError`.
    """
    enc = encode if encode is not None else lambda p: p
    root_key = enc(pos)
    cached = memo.get(root_key)
    if cached is not None:
        return cached

    path: set[Hashable] = {root_key}
    # Frame: [position, key, options list, next child index, child values]
    stack: list[list] = [[pos, root_key, None, 0, None]]
    while stack:
        frame = stack[-1]
        if frame[2] is None:
            frame[2] = [(enc(child), child) for child in options(frame[0])]
            frame[4] = []
        opts, vals = frame[2], frame[4]
        descended = False
        while frame[3] < len(opts):
            child_key, child = opts[frame[3]]
            value = memo.get(child_key)
            if value is None:
                if child_key in path:
                    raise EngineInvariantError(
                        f"cycle through {child_key!r}; game positions must not repeat"
                    )
                path.add(child_key)
                stack.append([child, child_key, None, 0, None])
                descended = True
                break
            vals.append(value)
            frame[3] += 1
        if descended:
            continue
        memo.record(frame[1], mex(vals))
        path.discard(frame[1])
        stack.pop()
    value = memo.get(root_key)
    assert value is not None
    return value


def outcome(
    pos: P,
    options: Callable[[P], Iterable[P]],
    memo: GrundyMemo,
    encode: Callable[[P], Hashable] | None = None,
) -> Outcome:
    """P-position (previous player wins) exactly when the game value is 0."""
    value = grundy(pos, options, memo, encode)
    return Outcome.PREVIOUS_WINS if value == 0 else Outcome.NEXT_WINS
