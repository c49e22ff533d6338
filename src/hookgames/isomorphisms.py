"""Structure-preserving maps between the games, and a generic verifier.

Three maps matter:

* widening: duplicating the centre entry of a diagonal profile carries the
  game on an ``m x n`` board (``m + n`` even) to the game on ``m x (n+1)``;
* the rectangle-to-staircase map: on an ``n x (n+1)`` board every reachable
  profile is symmetric, and its right half is the profile of a shifted
  diagram in the size-``n`` staircase;
* its inverse, mirroring a shifted profile back to a symmetric one.

``verify_isomorphism`` is data-driven (two position sets, two options
functions, one forward map) so a single verifier machine-checks all of
them: bijectivity, option preservation, and game-value transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Hashable, Iterable, TypeVar

from .diagrams import BoardParams, DiagonalSeq, diagram_of
from .errors import DomainError, RangeTooLargeError
from .grundy import GrundyMemo, grundy
from .mhrg import MhrgPosition, position_from_profile, profile_options, reachable_profiles
from .shifted import (
    ShiftedDiagonalSeq,
    ShiftedDiagram,
    _shifted_profile_options,
    all_shifted,
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
    source_options: Callable[[S], Iterable[S]],
    target_options: Callable[[T], Iterable[T]],
    source_encode: Callable[[S], Hashable] | None = None,
    target_encode: Callable[[T], Hashable] | None = None,
    render: Callable[[object], str] = str,
) -> IsomorphismReport:
    """Check that ``gmap.forward`` is a game isomorphism on the given sets.

    Establishes, with a witness for every failure: (i) the map is a
    bijection between the position sets, (ii) it commutes with option
    taking, and (iii) game values transport along it.
    """
    enc_s = source_encode if source_encode is not None else lambda p: p
    enc_t = target_encode if target_encode is not None else lambda p: p
    report = IsomorphismReport(
        gmap.name, gmap.source, gmap.target, len(source_positions)
    )

    images: dict[Hashable, tuple[S, T]] = {}
    target_keys = {enc_t(t): t for t in target_positions}
    for pos in source_positions:
        image = gmap.forward(pos)
        key = enc_t(image)
        if key in images:
            report.violations.append(
                Violation(
                    "not-injective",
                    {
                        "first": render(images[key][0]),
                        "second": render(pos),
                        "image": render(image),
                    },
                )
            )
            continue
        images[key] = (pos, image)
        if key not in target_keys:
            report.violations.append(
                Violation(
                    "image-outside-target",
                    {"source": render(pos), "image": render(image)},
                )
            )
    for key, target in target_keys.items():
        if key not in images:
            report.violations.append(
                Violation("target-not-covered", {"target": render(target)})
            )

    memo_s = GrundyMemo(f"{gmap.name} source")
    memo_t = GrundyMemo(f"{gmap.name} target")
    for pos in source_positions:
        image = gmap.forward(pos)
        expected = {enc_t(gmap.forward(child)) for child in source_options(pos)}
        actual = {enc_t(child) for child in target_options(image)}
        if expected != actual:
            report.violations.append(
                Violation(
                    "options-mismatch",
                    {
                        "source": render(pos),
                        "missing": sorted(
                            render(target_keys[k]) for k in expected - actual
                            if k in target_keys
                        ),
                        "extra": sorted(
                            render(target_keys.get(k, k)) for k in actual - expected
                        ),
                    },
                )
            )
            continue
        value_s = grundy(pos, source_options, memo_s, enc_s)
        value_t = grundy(image, target_options, memo_t, enc_t)
        if value_s != value_t:
            report.violations.append(
                Violation(
                    "value-mismatch",
                    {
                        "source": render(pos),
                        "source_value": value_s,
                        "target_value": value_t,
                    },
                )
            )
    return report


def verify_widening(m: int, n: int) -> IsomorphismReport:
    """Machine-check that widening is an isomorphism from the game on the
    ``m x n`` board to the game on ``m x (n+1)``.  Needs ``m + n`` even."""
    if max(m, n) > WIDEN_MAX_SIDE:
        raise RangeTooLargeError(
            f"widening verification is bounded at sides <= {WIDEN_MAX_SIDE}"
        )
    source_board = BoardParams(m, n)
    target_board = BoardParams(m, n + 1)
    if (m + n) % 2:
        raise DomainError(f"widening needs m + n even, got ({m}, {n})")
    slot = (n - m) // 2 + m

    def forward(vals: bytes) -> bytes:
        return vals[: slot + 1] + vals[slot : slot + 1] + vals[slot + 1 :]

    def render(vals: object) -> str:
        assert isinstance(vals, bytes)
        board = source_board if len(vals) == m + n + 1 else target_board
        return position_from_profile(board, vals).diagram.literal()

    gmap = GameMap(
        f"widen {m}x{n}->{m}x{n + 1}",
        f"mhrg {m}x{n}",
        f"mhrg {m}x{n + 1}",
        forward,
    )
    return verify_isomorphism(
        gmap,
        sorted(reachable_profiles(source_board)),
        sorted(reachable_profiles(target_board)),
        lambda vals: profile_options(vals, m, n),
        lambda vals: profile_options(vals, m, n + 1),
        render=render,
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
    """Machine-check that halving symmetric profiles is an isomorphism from
    the game on the ``n x (n+1)`` board to hook removal on the size-``n``
    staircase."""
    if n > STAIRCASE_ISO_MAX_N:
        raise RangeTooLargeError(
            f"staircase isomorphism verification is bounded at n <= {STAIRCASE_ISO_MAX_N}"
        )
    board = BoardParams(n, n + 1)

    def forward(vals: bytes) -> bytes:
        return vals[n + 1 :]

    def render(vals: object) -> str:
        assert isinstance(vals, bytes)
        if len(vals) == 2 * n + 2:
            return position_from_profile(board, vals).diagram.literal()
        seq = ShiftedDiagonalSeq(n, tuple(vals))
        return shifted_diagram_of(seq).literal()

    gmap = GameMap(
        f"halve {n}x{n + 1}->staircase-{n}",
        f"mhrg {n}x{n + 1}",
        f"hrg staircase-{n}",
        forward,
    )
    targets = sorted(shifted_diagonal_of(s, n).encode() for s in all_shifted(n))
    return verify_isomorphism(
        gmap,
        sorted(reachable_profiles(board)),
        targets,
        lambda vals: profile_options(vals, n, n + 1),
        _shifted_profile_options,
        render=render,
    )


def verify_staircase_range(max_n: int = STAIRCASE_ISO_MAX_N) -> list[IsomorphismReport]:
    """Staircase reports for every ``1 <= n <= max_n``."""
    if max_n < 1:
        raise DomainError(f"staircase isomorphism verification needs n >= 1, got {max_n}")
    return [verify_staircase_iso(n) for n in range(1, max_n + 1)]
