"""Young diagrams in a rectangular box: unimodal numbering, hooks, and
diagonal profiles.

A game position is a Young diagram that fits inside an ``m x n`` box with
``m <= n``.  Every box ``(i, j)`` carries the unimodal label
``min(j - i + m, i - j + n)``, which is constant along diagonals
``j - i = k`` and rises to a single peak.  A diagram is equivalently
described by its diagonal profile: the number of boxes on each diagonal,
indexed ``k = -m .. n``.  Removing a hook subtracts one from a contiguous
interval of the profile.  The move engines work on bead words instead
(``mhrg``); profiles remain the byte encoding of memo keys and the
reference the bead-word rule is tested against.

Everything here is immutable after construction and every operation is a
pure function, so values can be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import DomainError, EngineInvariantError

Box = tuple[int, int]
Rows = tuple[int, ...]

# Row lengths and diagonal counts must fit in one byte so positions encode
# to fixed-width byte strings usable as memo keys.
MAX_SIDE = 64


@dataclass(frozen=True)
class BoardParams:
    """Dimensions ``(m, n)`` of the bounding box, with ``1 <= m <= n``.

    Boards with more rows than columns are not representable; use
    :func:`transpose_position` to flip such input first (the two games are
    isomorphic).
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if not (1 <= self.m <= MAX_SIDE and 1 <= self.n <= MAX_SIDE):
            raise DomainError(
                f"board sides must lie in 1..{MAX_SIDE}, got ({self.m}, {self.n})"
            )
        if self.m > self.n:
            raise DomainError(
                f"board needs m <= n, got ({self.m}, {self.n}); transpose first"
            )

    @property
    def cells(self) -> int:
        return self.m * self.n

    def diag_range(self) -> range:
        """Logical diagonal indices ``-m .. n`` (inclusive)."""
        return range(-self.m, self.n + 1)


def max_label(board: BoardParams) -> int:
    """Largest unimodal label on the board: ``floor((m + n) / 2)``."""
    return (board.m + board.n) // 2


def unimodal_number(board: BoardParams, i: int, j: int) -> int:
    """Unimodal label of box ``(i, j)``: ``min(j - i + m, i - j + n)``."""
    if not (1 <= i <= board.m and 1 <= j <= board.n):
        raise DomainError(f"box ({i}, {j}) outside {board.m}x{board.n} board")
    return min(j - i + board.m, i - j + board.n)


def diagonal_label(board: BoardParams, k: int) -> int:
    """Label shared by every box on diagonal ``j - i = k``: ``min(k + m, n - k)``."""
    if not (-board.m < k < board.n):
        raise DomainError(f"diagonal {k} outside (-{board.m}, {board.n})")
    return min(k + board.m, board.n - k)


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
        return ",".join(str(r) for r in self.rows) if self.rows else "-"

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


def transpose_position(m: int, n: int, rows: Rows) -> tuple[int, int, Rows]:
    """Flip an ``(m, n, rows)`` triple to ``(n, m, conjugate rows)``.

    Lets callers with more rows than columns canonicalise before building
    a :class:`BoardParams`; the two orientations play the same game.
    """
    return n, m, YoungDiagram(rows).conjugate().rows


class BulgeKind(Enum):
    LEFT = "left"
    RIGHT = "right"


class RejectReason(Enum):
    NEGATIVE_ENTRY = "negative entry"
    ADJACENCY_AT_LOW = "adjacency broken at interval start"
    ADJACENCY_AT_HIGH = "adjacency broken past interval end"


@dataclass(frozen=True)
class Rejection:
    """Why an interval decrement leaves the set of valid profiles.

    ``index`` is the logical diagonal index where the failure occurs.
    """

    reason: RejectReason
    index: int


def _pair_ok(left: int, right: int, index: int) -> bool:
    """Adjacency condition for the pair ending at logical ``index``.

    Ascending side (``index <= 0``): ``0 <= right - left <= 1``.
    Descending side (``index > 0``): ``0 <= left - right <= 1``.
    """
    diff = right - left if index <= 0 else left - right
    return 0 <= diff <= 1


@dataclass(frozen=True)
class DiagonalSeq:
    """Diagonal profile of a diagram in the box: counts per diagonal.

    ``values`` is stored 0-based with offset ``m`` (slot ``k + m`` holds the
    count of diagonal ``k``); all public access speaks logical indices via
    ``seq[k]``.  Valid profiles have zero ends and obey the adjacency
    condition: counts step by 0 or 1 towards the peak on either side of
    diagonal 0.
    """

    board: BoardParams
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        m, n = self.board.m, self.board.n
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if len(values) != m + n + 1:
            raise DomainError(
                f"profile needs {m + n + 1} entries for a {m}x{n} board, "
                f"got {len(values)}"
            )
        if values[0] != 0:
            raise DomainError(f"entry at index {-m} must be 0, got {values[0]}")
        if values[-1] != 0:
            raise DomainError(f"entry at index {n} must be 0, got {values[-1]}")
        for s in range(1, len(values)):
            if not _pair_ok(values[s - 1], values[s], s - m):
                raise DomainError(f"adjacency violated at index {s - m}")
        if min(values) < 0:
            raise DomainError("profile entries must be non-negative")

    def __getitem__(self, k: int) -> int:
        if not (-self.board.m <= k <= self.board.n):
            raise DomainError(f"diagonal index {k} out of range")
        return self.values[k + self.board.m]

    def encode(self) -> bytes:
        return bytes(self.values)

    def format(self) -> str:
        """Render with the diagonal-0 entry marked, e.g. ``(0,1,2, 0:3, 2,2,1,1,0)``."""
        m = self.board.m
        head = ",".join(str(v) for v in self.values[:m])
        tail = ",".join(str(v) for v in self.values[m + 1 :])
        return f"({head}, 0:{self.values[m]}, {tail})"

    def __str__(self) -> str:
        return self.format()


def diagonal_of(board: BoardParams, diagram: YoungDiagram) -> DiagonalSeq:
    """Diagonal profile of ``diagram``: slot ``k`` counts boxes with ``j - i = k``."""
    if not diagram.fits(board):
        raise DomainError(
            f"diagram {diagram.literal()} does not fit a {board.m}x{board.n} board"
        )
    counts = [0] * (board.m + board.n + 1)
    for i, length in enumerate(diagram.rows, start=1):
        for j in range(1, length + 1):
            counts[j - i + board.m] += 1
    return DiagonalSeq(board, tuple(counts))


def diagram_of(seq: DiagonalSeq) -> YoungDiagram:
    """Inverse of :func:`diagonal_of`: box ``(i, j)`` present iff ``min(i, j) <= seq[j - i]``."""
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


def decrement_interval(seq: DiagonalSeq, lo: int, hi: int) -> DiagonalSeq | Rejection:
    """Subtract 1 from slots ``lo..hi``; reject when the result is invalid.

    Only the pairs at the interval boundaries can break, so a rejection is
    classified as a negative entry or as adjacency failure at ``lo`` or at
    ``hi + 1``.  Out-of-range intervals are a domain error, distinct from
    rejection.
    """
    m, n = seq.board.m, seq.board.n
    if not (-m < lo <= hi < n):
        raise DomainError(f"interval [{lo}, {hi}] outside (-{m}, {n})")
    # The profile is unimodal, so the minimum over the interval sits at an end.
    if min(seq[lo], seq[hi]) == 0:
        for k in range(lo, hi + 1):
            if seq[k] == 0:
                return Rejection(RejectReason.NEGATIVE_ENTRY, k)
    if not _pair_ok(seq[lo - 1], seq[lo] - 1, lo):
        return Rejection(RejectReason.ADJACENCY_AT_LOW, lo)
    if not _pair_ok(seq[hi] - 1, seq[hi + 1], hi + 1):
        return Rejection(RejectReason.ADJACENCY_AT_HIGH, hi + 1)
    values = list(seq.values)
    for s in range(lo + m, hi + m + 1):
        values[s] -= 1
    return DiagonalSeq(seq.board, tuple(values))


def bulge_kind(seq: DiagonalSeq, k: int) -> BulgeKind:
    """Which neighbour of the pair ``(seq[k-1], seq[k])`` can absorb a decrement.

    Exactly one of the two holds for any pair satisfying the adjacency
    condition: LEFT when ``(seq[k-1] - 1, seq[k])`` stays adjacent, RIGHT
    when ``(seq[k-1], seq[k] - 1)`` does.
    """
    m, n = seq.board.m, seq.board.n
    if not (-m < k <= n):
        raise DomainError(f"pair index {k} outside (-{m}, {n}]")
    left_val, right_val = seq[k - 1], seq[k]
    if not _pair_ok(left_val, right_val, k):
        raise DomainError(f"pair at index {k} does not satisfy adjacency")
    is_left = _pair_ok(left_val - 1, right_val, k)
    is_right = _pair_ok(left_val, right_val - 1, k)
    if is_left == is_right:
        raise EngineInvariantError(f"bulge dichotomy failed at index {k}")
    return BulgeKind.LEFT if is_left else BulgeKind.RIGHT


@dataclass(frozen=True)
class HookRecord:
    """A hook: its corner box, its diagonal interval and its label counts.

    ``labels`` is a count vector indexed by label ``1 .. max_label(board)``,
    so multiset equality is plain tuple equality.  A hook covers one box per
    diagonal in ``lo..hi``, hence ``sum(labels) == hi - lo + 1``.
    """

    corner: Box
    lo: int
    hi: int
    labels: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def label_list(self) -> tuple[int, ...]:
        """Labels with multiplicity, sorted ascending."""
        out: list[int] = []
        for label, count in enumerate(self.labels, start=1):
            out.extend([label] * count)
        return tuple(out)


def label_counts(board: BoardParams, labels: Iterable[int]) -> tuple[int, ...]:
    """Count vector over labels ``1 .. max_label(board)``."""
    counts = [0] * max_label(board)
    for label in labels:
        counts[label - 1] += 1
    return tuple(counts)


def interval_label_counts(board: BoardParams, lo: int, hi: int) -> tuple[int, ...]:
    """Label counts of any hook with diagonal interval ``lo..hi``: diagonal
    ``k`` contributes one label ``min(k + m, n - k)``."""
    m, n = board.m, board.n
    if lo <= hi and not (-m < lo and hi < n):
        bad = lo if not -m < lo < n else n
        raise DomainError(f"diagonal {bad} outside (-{m}, {n})")
    counts = [0] * max_label(board)
    for k in range(lo, hi + 1):
        counts[min(k + m, n - k) - 1] += 1
    return tuple(counts)


def _require_box(diagram: YoungDiagram, i: int, j: int) -> None:
    if (i, j) not in diagram:
        raise DomainError(f"box ({i}, {j}) not in diagram {diagram.literal()}")


def _hook_boxes(diagram: YoungDiagram, i: int, j: int) -> list[Box]:
    arm = [(i, jj) for jj in range(j, diagram.rows[i - 1] + 1)]
    leg = [(ii, j) for ii in range(i + 1, diagram.height + 1) if diagram.rows[ii - 1] >= j]
    return arm + leg


def hook_at(board: BoardParams, diagram: YoungDiagram, i: int, j: int) -> HookRecord:
    """Hook record at box ``(i, j)``: corner, diagonal interval and labels.

    The interval runs from ``j - i'`` (``i'`` the bottom box of column ``j``)
    up to ``j' - i`` (``j'`` the rightmost box of row ``i``).
    """
    _require_box(diagram, i, j)
    rows = diagram.rows
    bottom = i
    while bottom < len(rows) and rows[bottom] >= j:
        bottom += 1
    rightmost = rows[i - 1]
    lo, hi = j - bottom, rightmost - i
    labels = label_counts(
        board, [unimodal_number(board, a, b) for a, b in _hook_boxes(diagram, i, j)]
    )
    return HookRecord((i, j), lo, hi, labels)


def remove_hook(board: BoardParams, diagram: YoungDiagram, i: int, j: int) -> YoungDiagram:
    """Remove the hook at ``(i, j)``: delete its boxes, then shift the
    detached south-east block one step up-left.

    With ``bottom`` the last row reaching column ``j``, each row from ``i``
    to ``bottom - 1`` takes the next row's length less one, row ``bottom``
    keeps its first ``j - 1`` boxes, and every other row is unchanged."""
    _require_box(diagram, i, j)
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


def label_multiset(board: BoardParams, diagram: YoungDiagram) -> tuple[int, ...]:
    """Count vector of unimodal labels over all boxes of ``diagram``."""
    if not diagram.fits(board):
        raise DomainError(
            f"diagram {diagram.literal()} does not fit a {board.m}x{board.n} board"
        )
    return label_counts(
        board, [unimodal_number(board, i, j) for i, j in diagram.boxes()]
    )


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
