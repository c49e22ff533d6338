"""Structure-preserving maps between the games, and a generic verifier.

Three maps matter:

* widening: inserting a hole into a position's bead word at bit
  ``(n - m) / 2 + m`` (duplicating the centre entry of its diagonal
  profile) carries the game on an ``m x n`` board (``m + n`` even) to the
  game on ``m x (n+1)``;
* halving: on an ``n x (n+1)`` board every reachable position has a
  symmetric profile, and the top ``n`` bits of its bead word are the bead
  mask of a shifted diagram in the size-``n`` staircase;
* mirroring a shifted profile back to a symmetric one, the inverse of
  halving.

``verify_isomorphism`` is data-driven (two position sets, two options
functions, one forward map) so a single verifier machine-checks all of
them: bijectivity, option preservation, and game-value transport.  The
widening and halving checks run on bead words and masks;
:func:`widen_diagonal` and :func:`to_shifted` state the same maps on
profiles and positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Hashable, TypeVar

from .diagrams import BoardParams, DiagonalSeq, diagram_of
from .errors import DomainError, RangeTooLargeError
from .grundy import grundy
from .mhrg import MhrgPosition, _closure, diagram_of_word, word_options
from .shifted import (
    ShiftedDiagonalSeq,
    ShiftedDiagram,
    hrg_word_options,
    shifted_diagonal_of,
    shifted_diagram_of,
)

S = TypeVar("S")
T = TypeVar("T")

WIDEN_MAX_SIDE = 8       # exhaustive widening checks stay at desk scale
STAIRCASE_ISO_MAX_N = 7  # staircase isomorphism checks likewise


def is_symmetric(seq: DiagonalSeq) -> bool:
    """True when ``seq[i] == seq[n - m - i]`` for every diagonal ``i``."""
    m, n = seq.board.m, seq.board.n
    return all(seq[i] == seq[n - m - i] for i in range(-m, n + 1))


def widen_diagonal(seq: DiagonalSeq) -> DiagonalSeq:
    """Duplicate the centre entry ``c = (n - m) / 2``: a profile on the
    ``m x n`` board becomes one on ``m x (n+1)``.  Requires ``m + n`` even."""
    m, n = seq.board.m, seq.board.n
    if (m + n) % 2:
        raise DomainError(f"widening needs m + n even, got ({m}, {n})")
    slot = (n - m) // 2 + m
    values = seq.values[: slot + 1] + (seq.values[slot],) + seq.values[slot + 1 :]
    return DiagonalSeq(BoardParams(m, n + 1), values)


def widen_position(pos: MhrgPosition) -> MhrgPosition:
    """Position-level widening map."""
    seq = widen_diagonal(pos.profile())
    return MhrgPosition(seq.board, diagram_of(seq))


def to_shifted(pos: MhrgPosition) -> ShiftedDiagram:
    """Read the right half of a symmetric profile on an ``n x (n+1)`` board
    as a shifted diagram in the size-``n`` staircase."""
    board = pos.board
    if board.n != board.m + 1:
        raise DomainError(
            f"map needs an n x (n+1) board, got {board.m}x{board.n}"
        )
    seq = pos.profile()
    if not is_symmetric(seq):
        raise DomainError(f"profile of {pos} is not symmetric")
    n = board.m
    half = tuple(seq[k] for k in range(1, n + 2))
    return shifted_diagram_of(ShiftedDiagonalSeq(n, half))


def from_shifted(diagram: ShiftedDiagram, n: int) -> MhrgPosition:
    """Mirror a shifted profile into the symmetric profile of a position on
    the ``n x (n+1)`` board; inverse of :func:`to_shifted`."""
    half = shifted_diagonal_of(diagram, n).values
    values = tuple(reversed(half)) + half
    seq = DiagonalSeq(BoardParams(n, n + 1), values)
    return MhrgPosition(seq.board, diagram_of(seq))


@dataclass(frozen=True)
class GameMap:
    """A named forward map between two games' position sets."""

    name: str
    source: str
    target: str
    forward: Callable


@dataclass
class Violation:
    kind: str
    witness: dict[str, object]

    def to_json(self) -> dict[str, object]:
        out: dict[str, object] = {"kind": self.kind}
        out.update(self.witness)
        return out


@dataclass
class IsomorphismReport:
    """Machine-checked evidence that a map is a game isomorphism.

    Violations are report content, not errors; an empty list means PASS.
    """

    map_name: str
    source: str
    target: str
    checked: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict[str, object]:
        return {
            "map": self.map_name,
            "source": self.source,
            "target": self.target,
            "checked": self.checked,
            "violations": [v.to_json() for v in self.violations],
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.map_name}: {self.source} -> {self.target}, "
            f"{self.checked} positions, {len(self.violations)} violations"
        )


def verify_isomorphism(
    gmap: GameMap,
    source_positions: Collection[S],
    target_positions: Collection[T],
    source_options: Callable[[S], Collection[S]],
    target_options: Callable[[T], Collection[T]],
    render_source: Callable[[S], str] = str,
    render_target: Callable[[T], str] = str,
) -> IsomorphismReport:
    """Check that ``gmap.forward`` is a game isomorphism on the given sets.

    Establishes, with a witness for every failure: (i) the map is a
    bijection between the position sets, (ii) it commutes with option
    taking, and (iii) game values transport along it.  Witnesses show
    source positions through ``render_source`` and target positions through
    ``render_target``.
    """
    report = IsomorphismReport(
        gmap.name, gmap.source, gmap.target, len(source_positions)
    )

    images: dict[Hashable, S] = {}
    targets = set(target_positions)
    for pos in source_positions:
        image = gmap.forward(pos)
        if image in images:
            report.violations.append(
                Violation(
                    "not-injective",
                    {
                        "first": render_source(images[image]),
                        "second": render_source(pos),
                        "image": render_target(image),
                    },
                )
            )
            continue
        images[image] = pos
        if image not in targets:
            report.violations.append(
                Violation(
                    "image-outside-target",
                    {"source": render_source(pos), "image": render_target(image)},
                )
            )
    for target in target_positions:
        if target not in images:
            report.violations.append(
                Violation("target-not-covered", {"target": render_target(target)})
            )

    memo_s: dict[S, int] = {}
    memo_t: dict[T, int] = {}
    for pos in source_positions:
        image = gmap.forward(pos)
        expected = {gmap.forward(child) for child in source_options(pos)}
        actual = set(target_options(image))
        if expected != actual:
            report.violations.append(
                Violation(
                    "options-mismatch",
                    {
                        "source": render_source(pos),
                        "missing": sorted(
                            render_target(k) for k in expected - actual if k in targets
                        ),
                        "extra": sorted(render_target(k) for k in actual - expected),
                    },
                )
            )
            continue
        value_s = grundy(pos, source_options, memo_s)
        value_t = grundy(image, target_options, memo_t)
        if value_s != value_t:
            report.violations.append(
                Violation(
                    "value-mismatch",
                    {
                        "source": render_source(pos),
                        "source_value": value_s,
                        "target_value": value_t,
                    },
                )
            )
    return report


def widen_word(word: int, m: int, n: int) -> int:
    """Widening on bead words: insert a hole at bit ``(n - m) / 2 + m`` of a
    word on the ``m x n`` board, giving a word on ``m x (n+1)``.  Equals
    :func:`widen_diagonal` on profiles."""
    slot = (n - m) // 2 + m
    return (word & ((1 << slot) - 1)) | ((word >> slot) << (slot + 1))


def halve_word(word: int, n: int) -> int:
    """Halving on bead words: the top ``n`` bits of a word on the
    ``n x (n+1)`` board, read as a staircase bead mask.  Equals
    :func:`to_shifted` on reachable positions."""
    return word >> (n + 1)


def _word_game(m: int, n: int) -> tuple[list[int], Callable[[int], set[int]]]:
    """Sorted reachable bead words of the ``m x n`` game, and its options."""
    size = m + n

    def options(word: int) -> set[int]:
        return word_options(word, size)

    # The full rectangle has its m beads on bits n .. m + n - 1.
    return sorted(_closure(((1 << m) - 1) << n, options)), options


def _diagram_literal(m: int, n: int) -> Callable[[int], str]:
    """Renderer of bead words on the ``m x n`` board as diagram literals."""
    size = m + n

    def render(word: int) -> str:
        return diagram_of_word(word, size).literal()

    return render


def verify_widening(m: int, n: int) -> IsomorphismReport:
    """Machine-check that widening is an isomorphism from the game on the
    ``m x n`` board to the game on ``m x (n+1)``.  Needs ``m + n`` even."""
    if max(m, n) > WIDEN_MAX_SIDE:
        raise RangeTooLargeError(
            f"widening verification is bounded at sides <= {WIDEN_MAX_SIDE}"
        )
    if (m + n) % 2:
        raise DomainError(f"widening needs m + n even, got ({m}, {n})")
    gmap = GameMap(
        f"widen {m}x{n}->{m}x{n + 1}",
        f"mhrg {m}x{n}",
        f"mhrg {m}x{n + 1}",
        lambda word: widen_word(word, m, n),
    )
    sources, source_options = _word_game(m, n)
    targets, target_options = _word_game(m, n + 1)
    return verify_isomorphism(
        gmap,
        sources,
        targets,
        source_options,
        target_options,
        _diagram_literal(m, n),
        _diagram_literal(m, n + 1),
    )


def verify_widening_range(max_side: int = WIDEN_MAX_SIDE) -> list[IsomorphismReport]:
    """Widening reports for every ``m <= n <= max_side`` with ``m + n`` even."""
    if max_side < 1:
        raise DomainError(f"widening verification needs max_side >= 1, got {max_side}")
    return [
        verify_widening(m, n)
        for m in range(1, max_side + 1)
        for n in range(m, max_side + 1)
        if (m + n) % 2 == 0
    ]


def verify_staircase_iso(n: int) -> IsomorphismReport:
    """Machine-check that halving is an isomorphism from the game on the
    ``n x (n+1)`` board to hook removal on the size-``n`` staircase."""
    if n > STAIRCASE_ISO_MAX_N:
        raise RangeTooLargeError(
            f"staircase isomorphism verification is bounded at n <= {STAIRCASE_ISO_MAX_N}"
        )
    gmap = GameMap(
        f"halve {n}x{n + 1}->staircase-{n}",
        f"mhrg {n}x{n + 1}",
        f"hrg staircase-{n}",
        lambda word: halve_word(word, n),
    )
    sources, source_options = _word_game(n, n + 1)
    return verify_isomorphism(
        gmap,
        sources,
        range(1 << n),
        source_options,
        lambda mask: hrg_word_options(mask, n),
        _diagram_literal(n, n + 1),
        lambda mask: ShiftedDiagram.from_mask(mask).literal(),
    )


def verify_staircase_range(max_n: int = STAIRCASE_ISO_MAX_N) -> list[IsomorphismReport]:
    """Staircase reports for every ``1 <= n <= max_n``."""
    if max_n < 1:
        raise DomainError(f"staircase isomorphism verification needs n >= 1, got {max_n}")
    return [verify_staircase_iso(n) for n in range(1, max_n + 1)]
