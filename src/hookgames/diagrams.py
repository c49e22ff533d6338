"""Young diagrams in a rectangular box: unimodal numbering and hooks.

A game position is a Young diagram that fits inside an ``m x n`` box with
``m <= n``.  Every box ``(i, j)`` carries the unimodal label
``min(j - i + m, i - j + n)``, which is constant along diagonals
``j - i = k`` and rises to a single peak.  A hook covers one box on each
diagonal of an interval ``lo .. hi``, so its labels depend on that
interval alone (:func:`interval_labels`): the diagonals up to the peak
carry one run of consecutive labels and those past it another.  The move
engines work on bead words (``mhrg``), which also key memos; diagrams are
what the rule book and the command line speak.

On diagrams, one builder makes every hook from its arm's labels and its
leg's (:func:`_hook_record`).  :func:`hook_at` labels the hook's boxes
alone, in time linear in the hook on a board of any size.  The rule book's
scans in ``mhrg`` and the board that ``play`` prints read every box, so
they slice one grid of a board's labels (:func:`_label_grid`,
:func:`_box_hook`).

Everything here is immutable after construction and every operation is a
pure function, so values can be shared freely between workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, EngineInvariantError

Box = tuple[int, int]
Rows = tuple[int, ...]


def check_sides(m: int, n: int) -> None:
    """Refuse board sides below 1, named in the order given.  Sides have no
    upper bound; callers that search a board size the work first."""
    if m < 1 or n < 1:
        raise DomainError(f"board sides must be at least 1, got ({m}, {n})")


@dataclass(frozen=True)
class BoardParams:
    """Dimensions ``(m, n)`` of the bounding box, with ``1 <= m <= n``.

    Boards with more rows than columns are not representable; transpose
    such input first (conjugate the diagram), as the two games are
    isomorphic.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        check_sides(self.m, self.n)
        if self.m > self.n:
            raise DomainError(
                f"board needs m <= n, got ({self.m}, {self.n}); transpose first"
            )

    @property
    def cells(self) -> int:
        return self.m * self.n


def max_label(board: BoardParams) -> int:
    """Largest unimodal label on the board: ``floor((m + n) / 2)``."""
    return (board.m + board.n) // 2


def unimodal_number(board: BoardParams, i: int, j: int) -> int:
    """Unimodal label of box ``(i, j)``: ``min(j - i + m, i - j + n)``."""
    if not (1 <= i <= board.m and 1 <= j <= board.n):
        raise DomainError(f"box ({i}, {j}) outside {board.m}x{board.n} board")
    return _label(board, i, j)


def _label(board: BoardParams, i: int, j: int) -> int:
    """:func:`unimodal_number` for a box known to lie on the board."""
    return min(j - i + board.m, i - j + board.n)


@dataclass(frozen=True)
class YoungDiagram:
    """Weakly decreasing row lengths; canonical form strips trailing zeros.

    The empty diagram is ``YoungDiagram(())``, written ``-`` as a literal.
    """

    rows: Rows

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        for a, b in zip(rows, rows[1:]):
            if a < b:
                raise DomainError(f"row lengths must be weakly decreasing: {rows}")
        if rows and rows[-1] < 0:
            raise DomainError(f"row lengths must be non-negative: {rows}")
        while rows and rows[-1] == 0:
            rows = rows[:-1]
        object.__setattr__(self, "rows", rows)

    @classmethod
    def parse(cls, text: str) -> "YoungDiagram":
        """Parse a comma-separated literal such as ``"5,4,3"``; ``"-"`` is empty."""
        text = text.strip()
        if text in ("-", ""):
            return cls(())
        try:
            rows = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise DomainError(f"bad diagram literal {text!r}") from exc
        return cls(rows)

    def literal(self) -> str:
        return ",".join(map(str, self.rows)) if self.rows else "-"

    def __str__(self) -> str:
        return self.literal()

    @property
    def n_boxes(self) -> int:
        return sum(self.rows)

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return self.rows[0] if self.rows else 0

    def boxes(self) -> Iterator[Box]:
        """Boxes ``(i, j)`` in row-major order, 1-based."""
        for i, length in enumerate(self.rows, start=1):
            for j in range(1, length + 1):
                yield (i, j)

    def __contains__(self, box: Box) -> bool:
        i, j = box
        return 1 <= i <= len(self.rows) and 1 <= j <= self.rows[i - 1]

    def fits(self, board: BoardParams) -> bool:
        return self.height <= board.m and self.width <= board.n

    def conjugate(self) -> "YoungDiagram":
        cols = [0] * self.width
        for length in self.rows:
            for j in range(length):
                cols[j] += 1
        return YoungDiagram(tuple(cols))


@dataclass(frozen=True)
class HookRecord:
    """A hook: its corner box, its diagonal interval and its labels.

    ``labels`` is the label multiset as a sorted tuple, so multiset
    equality is plain tuple equality.  A hook covers one box per diagonal
    in ``lo..hi``, hence ``len(labels) == hi - lo + 1``.
    """

    corner: Box
    lo: int
    hi: int
    labels: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def label_list(self) -> tuple[int, ...]:
        """Labels with multiplicity, sorted ascending: ``labels`` itself."""
        return self.labels


@functools.lru_cache(maxsize=8)
def _label_values(top: int) -> tuple[int, ...]:
    """``(0, 1, .., top)``.  Hooks slice their labels from it, so labels past
    256, which Python does not intern, are shared between the hooks of a
    board rather than allocated per hook."""
    return tuple(range(top + 1))


def interval_labels(board: BoardParams, lo: int, hi: int) -> tuple[int, ...]:
    """Sorted labels of any hook with diagonal interval ``lo..hi``: diagonal
    ``k`` contributes one label ``min(k + m, n - k)``.

    Diagonals up to ``turn = (n - m) // 2`` carry the ascending run
    ``k + m``, the later ones the run ``n - k``, ascending as ``k`` falls.
    Sorting their concatenation merges two runs, in time linear in the
    hook's length."""
    m, n = board.m, board.n
    if lo > hi:
        return ()
    if not (-m < lo and hi < n):
        bad = lo if not -m < lo < n else n
        raise DomainError(f"diagonal {bad} outside (-{m}, {n})")
    values = _label_values(max_label(board))
    turn = (n - m) // 2
    up = values[lo + m : min(hi, turn) + m + 1]
    down = values[n - hi : n - max(lo, turn + 1) + 1]
    return tuple(sorted(up + down))


def _require_box(board: BoardParams, diagram: YoungDiagram, i: int, j: int) -> None:
    if (i, j) not in diagram:
        raise DomainError(f"box ({i}, {j}) not in diagram {diagram.literal()}")
    _require_fit(board, diagram)


def _require_fit(board: BoardParams, diagram: YoungDiagram) -> YoungDiagram:
    if not diagram.fits(board):
        raise DomainError(
            f"diagram {diagram.literal()} does not fit a {board.m}x{board.n} board"
        )
    return diagram


# A board's labels, as its rows and as its columns.
_Grid = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


@functools.lru_cache(maxsize=8)
def _label_grid(board: BoardParams) -> _Grid:
    """The board's labels (:func:`_label`), as its rows and as its columns,
    each 0-based: ``m * n`` labels, built for the rule book's scans and
    ``play``'s board, which read every box."""
    rows = tuple(
        tuple(_label(board, i, j) for j in range(1, board.n + 1)) for i in range(1, board.m + 1)
    )
    return rows, tuple(zip(*rows))


def _hook_record(i: int, j: int, row: int, col: int, arm: Rows, leg: Rows) -> HookRecord:
    """Hook at box ``(i, j)`` from its arm's labels and its leg's, its row
    ending at column ``row`` and its column at row ``col``: it covers the
    diagonals ``j - col .. row - i``, from its leg's bottom box to its arm's
    rightmost one."""
    return HookRecord((i, j), j - col, row - i, tuple(sorted(arm + leg)))


def _box_hook(grid: _Grid, rows: Rows, cols: Rows, i: int, j: int) -> HookRecord:
    """Hook at box ``(i, j)`` of the diagram with row lengths ``rows`` and
    column lengths ``cols``, its labels sliced from ``grid``."""
    by_row, by_col = grid
    row, col = rows[i - 1], cols[j - 1]
    return _hook_record(i, j, row, col, by_row[i - 1][j - 1 : row], by_col[j - 1][i:col])


def hook_at(board: BoardParams, diagram: YoungDiagram, i: int, j: int) -> HookRecord:
    """Hook record at box ``(i, j)`` of a diagram that fits the board, its
    arm and leg labelled box by box: time linear in the hook, whatever the
    board's size."""
    _require_box(board, diagram, i, j)
    rows, bottom = diagram.rows, i
    while bottom < len(rows) and rows[bottom] >= j:
        bottom += 1
    arm = tuple(_label(board, i, b) for b in range(j, rows[i - 1] + 1))
    leg = tuple(_label(board, a, j) for a in range(i + 1, bottom + 1))
    return _hook_record(i, j, rows[i - 1], bottom, arm, leg)


def remove_hook(board: BoardParams, diagram: YoungDiagram, i: int, j: int) -> YoungDiagram:
    """Remove the hook at ``(i, j)`` of a diagram that fits the board:
    delete its boxes, then shift the detached south-east block one step
    up-left.

    With ``bottom`` the last row reaching column ``j``, each row from ``i``
    to ``bottom - 1`` takes the next row's length less one, row ``bottom``
    keeps its first ``j - 1`` boxes, and every other row is unchanged."""
    _require_box(board, diagram, i, j)
    rows = list(diagram.rows)
    bottom = i
    while bottom < len(rows) and rows[bottom] >= j:
        bottom += 1
    size = rows[i - 1] - j + bottom - i + 1
    before = sum(rows[i - 1 : bottom])
    rows[i - 1 : bottom] = [length - 1 for length in rows[i:bottom]] + [j - 1]
    removed = before - sum(rows[i - 1 : bottom])
    if removed != size:
        raise EngineInvariantError(
            f"hook removal at ({i}, {j}) took {removed} boxes from "
            f"{diagram.literal()}, not the hook's {size}"
        )
    return YoungDiagram(tuple(rows))


def all_diagrams(board: BoardParams) -> Iterator[YoungDiagram]:
    """Every diagram inside the box, by descending first-row length."""

    def rec(prefix: list[int], limit: int, depth: int) -> Iterator[Rows]:
        if depth == board.m:
            yield tuple(prefix)
            return
        for length in range(limit, -1, -1):
            prefix.append(length)
            yield from rec(prefix, length, depth + 1)
            prefix.pop()

    for rows in rec([], board.n, 0):
        yield YoungDiagram(rows)
