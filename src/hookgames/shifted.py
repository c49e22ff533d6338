"""Shifted Young diagrams in a staircase and the plain hook-removal game
on them.

A shifted diagram is a strictly decreasing partition drawn with row ``i``
starting at column ``i``; inside the staircase of size ``n`` the first
part is at most ``n``.  Its hook at ``(i, j)`` is the box plus its arm
(right), leg (below) and tail (all of row ``j + 1``).

The game runs on ``n``-bit bead masks, bit ``p - 1`` set when ``p`` is a
part (:meth:`ShiftedDiagram.mask`).  Removing a hook removes a bead, moves
it to a lower hole (the move of Welter's game), or removes it together
with a lower bead; :func:`hrg_word_options` is that rule and
:func:`solve_hrg` searches over masks.  The game value of any position is
the nim-sum of its parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError
from .grundy import grundy

Parts = tuple[int, ...]


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

    def literal(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "-"

    def __str__(self) -> str:
        return self.literal()

    @property
    def n_boxes(self) -> int:
        return sum(self.parts)

    def fits(self, n: int) -> bool:
        return not self.parts or self.parts[0] <= n

    def mask(self) -> int:
        """Bead mask: bit ``p - 1`` is set when ``p`` is a part."""
        return sum(1 << (p - 1) for p in self.parts)

    @classmethod
    def from_mask(cls, mask: int) -> "ShiftedDiagram":
        """Inverse of :meth:`mask`."""
        parts = range(mask.bit_length(), 0, -1)
        return cls(tuple(p for p in parts if mask >> (p - 1) & 1))


def staircase(n: int) -> ShiftedDiagram:
    """The staircase ``(n, n-1, ..., 1)``; size 0 is the empty diagram."""
    if n < 0:
        raise DomainError(f"staircase size must be at least 0, got {n}")
    return ShiftedDiagram(tuple(range(n, 0, -1)))


def all_shifted(n: int) -> Iterator[ShiftedDiagram]:
    """Every shifted diagram inside the size-``n`` staircase (one per
    subset of ``{1..n}``, ``2**n`` in all)."""
    if n < 0:
        raise DomainError(f"staircase size must be at least 0, got {n}")
    for mask in range(1 << n):
        yield ShiftedDiagram.from_mask(mask)


def hrg_word_options(mask: int, n: int) -> set[int]:
    """Masks reachable in one move from ``mask`` in the size-``n`` staircase,
    one per box.

    The bead of part ``p`` (bit ``p - 1``) gives ``p`` options: remove it,
    or also flip one of the ``p - 1`` bits below it, which moves the bead to
    a lower hole or removes it together with a lower bead.
    """
    out: set[int] = set()
    for b in range(n):
        if mask >> b & 1:
            without = mask ^ (1 << b)
            out.add(without)
            out.update(without ^ (1 << a) for a in range(b))
    return out


def solve_hrg(n: int, diagram: ShiftedDiagram | None = None) -> tuple[int, dict[int, int]]:
    """Game value of ``diagram`` (default: the full staircase) in the
    hook-removal game on the size-``n`` staircase, with a fresh memo of
    every position explored, keyed by ``n``-bit masks."""
    if n < 0:
        raise DomainError(f"staircase size must be at least 0, got {n}")
    if diagram is None:
        diagram = staircase(n)
    if not diagram.fits(n):
        raise DomainError(
            f"{diagram.literal()} does not fit the size-{n} staircase"
        )
    memo: dict[int, int] = {}
    return grundy(diagram.mask(), lambda mask: hrg_word_options(mask, n), memo), memo
