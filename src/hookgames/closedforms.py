"""Closed-form predictors for game values and reachable sets, the 9x9
golden grid of starting values, and harnesses that check every predictor
against the brute-force engine.

Scope of the two-row tables: they classify exactly the positions whose
value is 0, 1 or 2; everything else is reported as OTHER and checked in
both directions (listed implies that value; value in {0,1,2} implies
listed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from typing import Iterable, Sequence

from .diagrams import BoardParams, YoungDiagram, all_diagrams
from .errors import DomainError, RangeTooLargeError
from .isomorphisms import is_symmetric
from .mhrg import reachable_words, solve, word_of_diagram
from .shifted import all_shifted, solve_hrg

TABLE_MAX_SIDE = 9       # golden grid scope; 9x9 explores 512 positions, 7x9 the most (1,024)
ROW1_MAX_N = 40          # one-row boards
ROW2_MAX_N = 24          # two-row full reachable-set suite
START2_MAX_N = 40        # two-row starting values only (80 cells)
SQUARE_MAX_N = 8         # square / near-square starting values
NIM_MAX_N = 8            # staircase size for the nim-sum formula
SYMMETRY_MAX_N = 6       # exhaustive symmetry characterisation


def nim_sum(values: Iterable[int]) -> int:
    return reduce(lambda a, b: a ^ b, values, 0)


def predict_1n(n: int, length: int) -> tuple[bool, int | None]:
    """Reachability and value of the one-row position ``(length)`` on a
    ``1 x n`` board.

    Odd ``n``: everything is reachable and the value is the length.  Even
    ``n``: the half-full row is unreachable, values below it are the
    length, above it the length less one.
    """
    if not 0 <= length <= n:
        raise DomainError(f"length {length} outside 0..{n}")
    if n % 2 == 1:
        return True, length
    if 2 * length == n:
        return False, None
    return True, length if length < n // 2 else length - 1


class TwoRowClass(Enum):
    G0 = 0
    G1 = 1
    G2 = 2
    OTHER = "other"
    UNREACHABLE = "unreachable"


# Families (offset1, offset2, step) of positions (a + step*i, b + step*i),
# i >= 0.  Below the anti-diagonal the offsets are absolute; above it they
# are relative to the half-width.  A step of None marks a singleton.
_BELOW_FAMILIES: dict[TwoRowClass, tuple[tuple[int, int, int | None], ...]] = {
    TwoRowClass.G0: ((0, 0, 2),),
    TwoRowClass.G1: ((1, 0, 4), (2, 1, 4)),
    TwoRowClass.G2: ((2, 0, 4), (1, 1, 4)),
}

_ABOVE_FAMILIES: dict[int, dict[TwoRowClass, tuple[tuple[int, int, int | None], ...]]] = {
    0: {
        TwoRowClass.G0: ((1, 0, 4), (2, 1, 4)),
        TwoRowClass.G1: ((2, 0, None), (1, 1, None), (4, 4, 2)),
        TwoRowClass.G2: ((2, 2, None), (3, 0, None), (4, 1, None), (7, 6, 4), (8, 7, 4)),
    },
    1: {
        TwoRowClass.G0: ((2, 1, 4), (3, 2, 4)),
        TwoRowClass.G1: ((2, 0, 2),),
        TwoRowClass.G2: ((1, 0, None), (2, -1, None), (3, 1, None), (5, 5, 2)),
    },
    2: {
        TwoRowClass.G0: ((1, 0, 4), (2, 1, 4)),
        TwoRowClass.G1: ((2, 2, 2),),
        TwoRowClass.G2: ((3, 2, 4), (4, 3, 4)),
    },
    3: {
        TwoRowClass.G0: ((2, 1, 4), (3, 2, 4)),
        TwoRowClass.G1: ((1, 1, 2),),
        TwoRowClass.G2: ((4, 1, 8), (5, 2, 8), (6, 3, 8), (7, 4, 8)),
    },
}


def _in_family(lam1: int, lam2: int, a: int, b: int, step: int | None) -> bool:
    if step is None:
        return lam1 == a and lam2 == b
    if lam1 - a != lam2 - b:
        return False
    excess = lam1 - a
    return excess >= 0 and excess % step == 0


def predict_2n_class(half: int, lam1: int, lam2: int) -> TwoRowClass:
    """Classify ``(lam1, lam2)`` on the ``2 x 2*half`` board.

    Positions on the anti-diagonal (``lam1 + lam2 == 2*half``) are
    unreachable.  Below it the value-0/1/2 families are absolute; above it
    they depend on ``half mod 4`` with offsets relative to ``half``.
    """
    if half < 1:
        raise DomainError(f"half-width must be positive, got {half}")
    width = 2 * half
    if not (0 <= lam2 <= lam1 <= width):
        raise DomainError(f"({lam1}, {lam2}) not a diagram in the 2x{width} box")
    total = lam1 + lam2
    if total == width:
        return TwoRowClass.UNREACHABLE
    if total < width:
        families = _BELOW_FAMILIES
        rel1, rel2 = lam1, lam2
    else:
        families = _ABOVE_FAMILIES[half % 4]
        rel1, rel2 = lam1 - half, lam2 - half
    for klass, shapes in families.items():
        for a, b, step in shapes:
            if _in_family(rel1, rel2, a, b, step):
                return klass
    return TwoRowClass.OTHER


def predict_start_2n(n: int) -> int:
    """Starting value of the ``2 x n`` board for ``n >= 2``."""
    if n < 2:
        raise DomainError(f"two-row prediction needs n >= 2, got {n}")
    if n in (2, 3):
        return 3
    if n % 8 in (2, 3):
        return 2
    return 1


def predict_start_square(n: int) -> int:
    """Starting value of the ``n x n`` and ``n x (n+1)`` boards:
    the nim-sum of ``1 .. n``."""
    if n < 1:
        raise DomainError(f"square prediction needs n >= 1, got {n}")
    return nim_sum(range(1, n + 1))


def predict_shifted(parts: Sequence[int]) -> int:
    """Value of a shifted diagram in the hook-removal game: the nim-sum of
    its parts."""
    return nim_sum(parts)


_TABLE1 = (
    (1, 1, 3, 3, 5, 5, 7, 7, 9),
    (1, 3, 3, 1, 1, 1, 1, 1, 1),
    (3, 3, 0, 0, 0, 0, 3, 3, 10),
    (3, 1, 0, 4, 4, 2, 2, 5, 5),
    (5, 1, 0, 4, 1, 1, 14, 14, 18),
    (5, 1, 0, 2, 1, 7, 7, 0, 0),
    (7, 1, 3, 2, 14, 7, 0, 0, 10),
    (7, 1, 3, 5, 14, 0, 0, 8, 8),
    (9, 1, 10, 5, 18, 0, 10, 8, 1),
)


def table1_golden() -> tuple[tuple[int, ...], ...]:
    """The 9x9 grid of starting values, row ``m``, column ``n``.

    The grid is symmetric, and columns pair up: the value at ``(m, n)``
    equals the value at ``(m, n+1)`` whenever ``m <= n`` and ``m + n`` is
    even.
    """
    return _TABLE1


def grundy_table(max_m: int, max_n: int, engine: str = "diagonal") -> list[list[int]]:
    """Starting values for every board up to ``max_m x max_n``, computed
    by exhaustive search (transposed boards share a value)."""
    if not (1 <= max_m <= TABLE_MAX_SIDE and 1 <= max_n <= TABLE_MAX_SIDE):
        error = RangeTooLargeError if max(max_m, max_n) > TABLE_MAX_SIDE else DomainError
        raise error(
            f"table regeneration needs sides in 1..{TABLE_MAX_SIDE} "
            f"(at most {TABLE_MAX_SIDE}x{TABLE_MAX_SIDE}), got {max_m}x{max_n}"
        )
    values: dict[tuple[int, int], int] = {}
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            lo, hi = min(m, n), max(m, n)
            if (lo, hi) not in values:
                values[(lo, hi)], _ = solve(BoardParams(lo, hi), engine=engine)
    return [
        [values[(min(m, n), max(m, n))] for n in range(1, max_n + 1)]
        for m in range(1, max_m + 1)
    ]


def table_csv(grid: list[list[int]]) -> str:
    """Grid as headerless CSV, LF line endings."""
    return "".join(",".join(str(v) for v in row) + "\n" for row in grid)


@dataclass
class Mismatch:
    position: str
    predicted: str
    computed: str

    def to_json(self) -> dict[str, str]:
        return {
            "position": self.position,
            "predicted": self.predicted,
            "computed": self.computed,
        }


@dataclass
class PredictionReport:
    theorem: str
    params: dict[str, int]
    checked: int
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict[str, object]:
        return {
            "theorem": self.theorem,
            "params": dict(self.params),
            "checked": self.checked,
            "mismatches": [m.to_json() for m in self.mismatches],
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.theorem} {self.params}: {self.checked} checks, "
            f"{len(self.mismatches)} mismatches"
        )


def _verify_table1(max_m: int, max_n: int) -> PredictionReport:
    if max(max_m, max_n) > TABLE_MAX_SIDE:
        raise RangeTooLargeError(
            f"table verification is bounded at {TABLE_MAX_SIDE}x{TABLE_MAX_SIDE}"
        )
    report = PredictionReport("golden-table", {"max_m": max_m, "max_n": max_n}, 0)
    grid = grundy_table(max_m, max_n)
    golden = table1_golden()
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            report.checked += 1
            expected = golden[m - 1][n - 1]
            got = grid[m - 1][n - 1]
            if got != expected:
                report.mismatches.append(
                    Mismatch(f"start {m}x{n}", str(expected), str(got))
                )
    return report


def _verify_row1(max_n: int) -> PredictionReport:
    if max_n > ROW1_MAX_N:
        raise RangeTooLargeError(f"one-row boards are bounded at n <= {ROW1_MAX_N}")
    report = PredictionReport("one-row", {"max_n": max_n}, 0)
    for n in range(1, max_n + 1):
        board = BoardParams(1, n)
        _, memo = solve(board)
        reached = reachable_words(board)
        for length in range(n + 1):
            report.checked += 1
            expect_reach, expect_value = predict_1n(n, length)
            key = word_of_diagram(board, YoungDiagram((length,)))
            actually_reached = key in reached
            if actually_reached != expect_reach:
                report.mismatches.append(
                    Mismatch(
                        f"1x{n} ({length})",
                        f"reachable={expect_reach}",
                        f"reachable={actually_reached}",
                    )
                )
                continue
            if expect_reach and memo.get(key) != expect_value:
                report.mismatches.append(
                    Mismatch(f"1x{n} ({length})", str(expect_value), str(memo.get(key)))
                )
    return report


def _verify_row2(max_n: int) -> PredictionReport:
    if max_n > ROW2_MAX_N:
        raise RangeTooLargeError(f"the two-row suite is bounded at n <= {ROW2_MAX_N}")
    report = PredictionReport("two-row", {"max_n": max_n}, 0)
    listed = {
        TwoRowClass.G0: 0,
        TwoRowClass.G1: 1,
        TwoRowClass.G2: 2,
    }
    for n in range(2, max_n + 1, 2):
        half = n // 2
        board = BoardParams(2, n)
        _, memo = solve(board)
        reached = reachable_words(board)
        for diagram in all_diagrams(board):
            report.checked += 1
            rows = diagram.rows + (0, 0)
            lam1, lam2 = rows[0], rows[1]
            key = word_of_diagram(board, diagram)
            in_game = key in reached
            klass = predict_2n_class(half, lam1, lam2)
            expect_reach = klass is not TwoRowClass.UNREACHABLE
            if in_game != expect_reach:
                report.mismatches.append(
                    Mismatch(
                        f"2x{n} {diagram.literal()}",
                        f"reachable={expect_reach}",
                        f"reachable={in_game}",
                    )
                )
                continue
            if not in_game:
                continue
            value = memo.get(key)
            assert value is not None
            if klass in listed:
                if value != listed[klass]:
                    report.mismatches.append(
                        Mismatch(f"2x{n} {diagram.literal()}", str(listed[klass]), str(value))
                    )
            elif value in (0, 1, 2):
                report.mismatches.append(
                    Mismatch(
                        f"2x{n} {diagram.literal()}",
                        "value not in {0,1,2}",
                        str(value),
                    )
                )
    return report


def _verify_start2(max_n: int) -> PredictionReport:
    if max_n > START2_MAX_N:
        raise RangeTooLargeError(
            f"two-row starting values are bounded at n <= {START2_MAX_N}"
        )
    report = PredictionReport("two-row-start", {"max_n": max_n}, 0)
    for n in range(2, max_n + 1):
        report.checked += 1
        value, _ = solve(BoardParams(2, n))
        expected = predict_start_2n(n)
        if value != expected:
            report.mismatches.append(Mismatch(f"start 2x{n}", str(expected), str(value)))
    return report


def _verify_square(max_n: int) -> PredictionReport:
    if max_n > SQUARE_MAX_N:
        raise RangeTooLargeError(
            f"square starting values are bounded at n <= {SQUARE_MAX_N}"
        )
    report = PredictionReport("square-start", {"max_n": max_n}, 0)
    for n in range(1, max_n + 1):
        expected = predict_start_square(n)
        for board in (BoardParams(n, n), BoardParams(n, n + 1)):
            report.checked += 1
            value, _ = solve(board)
            if value != expected:
                report.mismatches.append(
                    Mismatch(
                        f"start {board.m}x{board.n}", str(expected), str(value)
                    )
                )
    return report


def _verify_nim(n: int) -> PredictionReport:
    if n > NIM_MAX_N:
        raise RangeTooLargeError(f"staircases are bounded at n <= {NIM_MAX_N}")
    report = PredictionReport("shifted-nim", {"n": n}, 0)
    memo = None
    for diagram in all_shifted(n):
        report.checked += 1
        value, memo = solve_hrg(n, diagram, memo)
        expected = predict_shifted(diagram.parts)
        if value != expected:
            report.mismatches.append(
                Mismatch(diagram.literal(), str(expected), str(value))
            )
    return report


def _verify_symmetry(max_n: int) -> PredictionReport:
    if max_n > SYMMETRY_MAX_N:
        raise RangeTooLargeError(
            f"the symmetry characterisation is bounded at n <= {SYMMETRY_MAX_N}"
        )
    report = PredictionReport("symmetric-reachable", {"max_n": max_n}, 0)
    for n in range(1, max_n + 1):
        for board in (BoardParams(n, n), BoardParams(n, n + 1)):
            reached = reachable_words(board)
            for diagram in all_diagrams(board):
                report.checked += 1
                word = word_of_diagram(board, diagram)
                symmetric = is_symmetric(word, board.m, board.n)
                in_game = word in reached
                if symmetric != in_game:
                    report.mismatches.append(
                        Mismatch(
                            f"{board.m}x{board.n} {diagram.literal()}",
                            f"symmetric={symmetric}",
                            f"reachable={in_game}",
                        )
                    )
    return report


_VERIFIERS = {
    "table1": (_verify_table1, {"max_m": 9, "max_n": 9}),
    "row1": (_verify_row1, {"max_n": 20}),
    "row2": (_verify_row2, {"max_n": 24}),
    "start2": (_verify_start2, {"max_n": 40}),
    "square": (_verify_square, {"max_n": 7}),
    "nim": (_verify_nim, {"n": 7}),
    "symmetry": (_verify_symmetry, {"max_n": 6}),
}

VERIFY_IDS = tuple(sorted(_VERIFIERS))


def verify(theorem: str, **params: int) -> PredictionReport:
    """Run one named verification at the given (or default) range.

    Ranges beyond the configured desk-scale bounds are refused with the
    bound named, and so are ranges that would check nothing.
    """
    try:
        fn, defaults = _VERIFIERS[theorem]
    except KeyError:
        raise DomainError(
            f"unknown verification {theorem!r}; choose from {VERIFY_IDS}"
        ) from None
    merged = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise DomainError(f"{theorem} does not take parameter {key!r}")
        merged[key] = value
    report = fn(**merged)
    if report.checked == 0:
        given = ", ".join(f"{key}={value}" for key, value in merged.items())
        raise DomainError(f"{theorem} with {given} checks nothing; widen the range")
    return report


@dataclass(frozen=True)
class Periodicity:
    preperiod: int
    period: int
    saltus: int


def detect_periodicity(
    values: Sequence[int], max_period: int, max_saltus: int
) -> Periodicity | None:
    """Smallest ``(preperiod, period, saltus)`` with
    ``values[i + period] == values[i] + saltus`` for all ``i >= preperiod``,
    requiring at least two full confirming periods beyond the preperiod.

    Returns ``None`` when no such triple fits inside the observed window.
    """
    size = len(values)
    for preperiod in range(size):
        for period in range(1, max_period + 1):
            if size < preperiod + 3 * period:
                break
            saltus = values[preperiod + period] - values[preperiod]
            if abs(saltus) > max_saltus:
                continue
            if all(
                values[i + period] == values[i] + saltus
                for i in range(preperiod, size - period)
            ):
                return Periodicity(preperiod, period, saltus)
    return None
