"""Shifted Young diagrams in a staircase and the plain hook-removal game
on them.

A shifted diagram is a strictly decreasing partition drawn with row ``i``
starting at column ``i``; inside the staircase of size ``n`` the first
part is at most ``n``.  Its hook at ``(i, j)`` is the box plus its arm
(right), leg (below) and tail (all of row ``j + 1``).  On the diagonal
profile ``[b_0 .. b_n]`` a hook removal is either a single interval
decrement or the pair of prefix decrements ``0..r`` and ``0..r'`` with
``r' < r``; the game value of any position is the nim-sum of its parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import DomainError, EngineInvariantError
from .grundy import GrundyMemo, grundy, memo_for

Box = tuple[int, int]
Parts = tuple[int, ...]

# Positions of the size-n staircase form a 2^n family; desk scale only.
MAX_STAIRCASE = 32


@dataclass(frozen=True)
class ShiftedDiagram:
    """Strictly decreasing positive parts; row ``i`` spans columns
    ``i .. i + parts[i-1] - 1``."""

    parts: Parts

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        for a, b in zip(parts, parts[1:]):
            if a <= b:
                raise DomainError(f"parts must strictly decrease: {parts}")
        if parts and parts[-1] <= 0:
            raise DomainError(f"parts must be positive: {parts}")

    @classmethod
    def parse(cls, text: str) -> "ShiftedDiagram":
        text = text.strip()
        if text in ("-", ""):
            return cls(())
        try:
            parts = tuple(int(p) for p in text.split(","))
        except ValueError as exc:
            raise DomainError(f"bad shifted literal {text!r}") from exc
        return cls(parts)

    def literal(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    def __str__(self) -> str:
        return self.literal()

    @property
    def height(self) -> int:
        return len(self.parts)

    @property
    def n_boxes(self) -> int:
        return sum(self.parts)

    def boxes(self) -> Iterator[Box]:
        for i, length in enumerate(self.parts, start=1):
            for j in range(i, i + length):
                yield (i, j)

    def __contains__(self, box: Box) -> bool:
        i, j = box
        return 1 <= i <= len(self.parts) and i <= j < i + self.parts[i - 1]

    def fits(self, n: int) -> bool:
        return not self.parts or self.parts[0] <= n

    def encode(self) -> bytes:
        return bytes(self.parts)


def staircase(n: int) -> ShiftedDiagram:
    """The staircase ``(n, n-1, ..., 1)``."""
    if not (1 <= n <= MAX_STAIRCASE):
        raise DomainError(f"staircase size must lie in 1..{MAX_STAIRCASE}, got {n}")
    return ShiftedDiagram(tuple(range(n, 0, -1)))


def all_shifted(n: int) -> Iterator[ShiftedDiagram]:
    """Every shifted diagram inside the size-``n`` staircase (one per
    subset of ``{1..n}``)."""
    if not (0 <= n <= MAX_STAIRCASE):
        raise DomainError(f"staircase size must lie in 0..{MAX_STAIRCASE}, got {n}")
    for mask in range(1 << n):
        parts = tuple(v for v in range(n, 0, -1) if mask >> (v - 1) & 1)
        yield ShiftedDiagram(parts)


def shifted_hook(diagram: ShiftedDiagram, i: int, j: int) -> frozenset[Box]:
    """Hook at ``(i, j)``: the box, its arm, its leg, and the tail row
    ``j + 1``."""
    if (i, j) not in diagram:
        raise DomainError(f"box ({i}, {j}) not in shifted diagram {diagram.literal()}")
    boxes = {(i, j)}
    boxes.update((i, jj) for jj in range(j + 1, i + diagram.parts[i - 1]))
    boxes.update(b for b in diagram.boxes() if b[1] == j and b[0] > i)
    boxes.update(b for b in diagram.boxes() if b[0] == j + 1 and b[1] > j)
    return frozenset(boxes)


def shifted_remove_hook(diagram: ShiftedDiagram, i: int, j: int) -> ShiftedDiagram:
    """Remove the hook at ``(i, j)`` and close the gap: rows strictly
    between ``i`` and ``j + 1`` shift up-left one step, rows below
    ``j + 1`` shift two."""
    hook = shifted_hook(diagram, i, j)
    remaining: dict[int, set[int]] = {}
    for a, b in diagram.boxes():
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
    size-``n`` staircase."""
    if not diagram.fits(n):
        raise DomainError(
            f"{diagram.literal()} does not fit the size-{n} staircase"
        )
    return {shifted_remove_hook(diagram, i, j) for i, j in diagram.boxes()}


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
            raise DomainError(
                f"profile needs {self.n + 1} entries for staircase {self.n}, "
                f"got {len(values)}"
            )
        if values[-1] != 0:
            raise DomainError(f"entry at index {self.n} must be 0, got {values[-1]}")
        for k in range(self.n):
            if not 0 <= values[k] - values[k + 1] <= 1:
                raise DomainError(f"adjacency violated at index {k}")

    def __getitem__(self, k: int) -> int:
        if not (0 <= k <= self.n):
            raise DomainError(f"index {k} out of range 0..{self.n}")
        return self.values[k]

    def encode(self) -> bytes:
        return bytes(self.values)

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self.values) + "]"


def shifted_diagonal_of(diagram: ShiftedDiagram, n: int) -> ShiftedDiagonalSeq:
    """Profile of ``diagram``: slot ``k`` counts boxes with ``j - i = k``."""
    if not diagram.fits(n):
        raise DomainError(
            f"{diagram.literal()} does not fit the size-{n} staircase"
        )
    counts = [0] * (n + 1)
    for k in range(n + 1):
        counts[k] = sum(1 for p in diagram.parts if p > k)
    return ShiftedDiagonalSeq(n, tuple(counts))


def shifted_diagram_of(seq: ShiftedDiagonalSeq) -> ShiftedDiagram:
    """Inverse of :func:`shifted_diagonal_of` (conjugate counting)."""
    height = seq.values[0]
    parts = tuple(
        sum(1 for v in seq.values if v >= i) for i in range(1, height + 1)
    )
    return ShiftedDiagram(parts)


class TransitionKind(Enum):
    SINGLE = "single"
    DOUBLE = "double"


@dataclass(frozen=True)
class ShiftedTransition:
    """A profile transition: a single decrement of ``indices = (lo, hi)``,
    or the double prefix decrement ``0..hi`` then ``0..lo`` with
    ``indices = (hi, lo)``, ``lo < hi`` (the two orders are the same move)."""

    kind: TransitionKind
    indices: tuple[int, int]
    result: ShiftedDiagonalSeq


def _shifted_profile_options(vals: bytes) -> list[bytes]:
    n = len(vals) - 1
    steps = [r for r in range(n) if vals[r] == vals[r + 1] + 1]
    out = []
    for idx, hi in enumerate(steps):
        for lo in range(hi + 1):
            if lo == 0 or vals[lo - 1] == vals[lo]:
                body = bytearray(vals)
                for s in range(lo, hi + 1):
                    body[s] -= 1
                out.append(bytes(body))
        for lo in steps[:idx]:
            body = bytearray(vals)
            for s in range(hi + 1):
                body[s] -= 1
            for s in range(lo + 1):
                body[s] -= 1
            out.append(bytes(body))
    return out


def shifted_transitions(seq: ShiftedDiagonalSeq) -> set[ShiftedTransition]:
    """All profile transitions out of ``seq`` whose results stay valid.

    These are exactly the profiles of the hook-removal options of the
    corresponding diagram.
    """
    n = seq.n
    vals = seq.values
    steps = [r for r in range(n) if vals[r] == vals[r + 1] + 1]
    out: set[ShiftedTransition] = set()
    for idx, hi in enumerate(steps):
        for lo in range(hi + 1):
            if lo == 0 or vals[lo - 1] == vals[lo]:
                body = list(vals)
                for s in range(lo, hi + 1):
                    body[s] -= 1
                out.add(
                    ShiftedTransition(
                        TransitionKind.SINGLE,
                        (lo, hi),
                        ShiftedDiagonalSeq(n, tuple(body)),
                    )
                )
        for lo in steps[:idx]:
            body = list(vals)
            for s in range(hi + 1):
                body[s] -= 1
            for s in range(lo + 1):
                body[s] -= 1
            out.add(
                ShiftedTransition(
                    TransitionKind.DOUBLE,
                    (hi, lo),
                    ShiftedDiagonalSeq(n, tuple(body)),
                )
            )
    return out


def solve_hrg(
    n: int,
    diagram: ShiftedDiagram | None = None,
    memo: GrundyMemo | None = None,
) -> tuple[int, GrundyMemo]:
    """Game value of ``diagram`` (default: the full staircase) in the
    hook-removal game on the size-``n`` staircase.  The memo must belong to
    this staircase (label ``hrg staircase-{n}``)."""
    memo = memo_for(f"hrg staircase-{n}", memo)
    if diagram is None:
        diagram = staircase(n)
    start = shifted_diagonal_of(diagram, n)
    value = grundy(start.encode(), _shifted_profile_options, memo)
    return value, memo
