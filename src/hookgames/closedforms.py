"""Closed-form predictors for game values and reachable sets, the 9x9
golden grid of starting values, and harnesses that check every predictor
against the brute-force engine.

Starting values (:func:`grundy_table` and the ``table1``, ``start2`` and
``square`` checks) come from ``mhrg.start_values``, which values each game
class ``(m, floor((m + n) / 2))`` once: ``m x n`` and ``m x (n + 1)`` with
``m + n`` even share one, and each class reads its inert-coin words from
the class below it on its chain.  The budget charges those class tables
(``mhrg.class_costs``), not each board's whole-board solve.

Scope of the two-row tables: they classify exactly the positions whose
value is 0, 1 or 2; everything else is reported as OTHER and checked in
both directions (listed implies that value; value in {0,1,2} implies
listed).
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from typing import Callable, Iterable, Iterator, Sequence

from .diagrams import BoardParams, YoungDiagram, all_diagrams
from .errors import DomainError
from .grundy import capped_comb, capped_pow2, check_budget
from .isomorphisms import Report, is_symmetric
from .mhrg import (
    class_costs,
    reachable_words,
    search_cost,
    solve,
    start_values,
    word_of_diagram,
)
from .shifted import all_shifted, solve_hrg


def nim_sum(values: Iterable[int]) -> int:
    return reduce(lambda a, b: a ^ b, values, 0)


def predict_1n(n: int, length: int) -> tuple[bool, int | None]:
    """Reachability and value of the one-row position ``(length)`` on a
    ``1 x n`` board.

    Odd ``n``: everything is reachable and the value is the length.  Even
    ``n``: the half-full row is unreachable, values below it are the
    length, above it the length less one.
    """
    if n < 1:
        raise DomainError(f"one-row prediction needs n >= 1, got {n}")
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


def _table_boards(max_m: int, max_n: int) -> Iterator[BoardParams]:
    """Each board of the grid up to ``max_m x max_n`` once (transposed
    boards are one), row by row and lazily."""
    if max_n < 1:
        return  # rather than walk max_m empty rows
    seen = set()
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            board = BoardParams(min(m, n), max(m, n))
            if board not in seen:
                seen.add(board)
                yield board


def grundy_table(max_m: int, max_n: int, engine: str = "diagonal") -> list[list[int]]:
    """Starting values for every board up to ``max_m x max_n``, computed
    exhaustively, each game class once (transposed boards share a value)."""
    check_budget(
        f"table regeneration up to {max_m}x{max_n}",
        class_costs(_table_boards(max_m, max_n)),
    )
    values = start_values(_table_boards(max_m, max_n), engine)
    return [
        [values[BoardParams(min(m, n), max(m, n))] for n in range(1, max_n + 1)]
        for m in range(1, max_m + 1)
    ]


def table_csv(grid: list[list[int]]) -> str:
    """Grid as headerless CSV, LF line endings."""
    return "".join(",".join(str(v) for v in row) + "\n" for row in grid)


# A closed-form check is a generator over its range: it yields ``None``
# for each check that holds and ``(position, predicted, computed)`` for
# each that fails.  ``verify`` sizes the range before the check starts.
_Finding = tuple[str, object, object] | None


def _verify_table1(max_m: int, max_n: int) -> Iterator[_Finding]:
    golden = table1_golden()
    grid = grundy_table(max_m, max_n)
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            expected = golden[m - 1][n - 1]
            got = grid[m - 1][n - 1]
            yield None if got == expected else (f"start {m}x{n}", expected, got)


def _verify_row1(max_n: int) -> Iterator[_Finding]:
    for n in range(1, max_n + 1):
        board = BoardParams(1, n)
        _, memo = solve(board)
        reached = reachable_words(board)
        for length in range(n + 1):
            expect_reach, expect_value = predict_1n(n, length)
            key = word_of_diagram(board, YoungDiagram((length,)))
            actually_reached = key in reached
            if actually_reached != expect_reach:
                yield (
                    f"1x{n} ({length})",
                    f"reachable={expect_reach}",
                    f"reachable={actually_reached}",
                )
            elif expect_reach and memo.get(key) != expect_value:
                yield f"1x{n} ({length})", expect_value, memo.get(key)
            else:
                yield None


def _verify_row2(max_n: int) -> Iterator[_Finding]:
    for n in range(2, max_n + 1, 2):
        board = BoardParams(2, n)
        _, memo = solve(board)
        reached = reachable_words(board)
        for diagram in all_diagrams(board):
            rows = diagram.rows + (0, 0)
            key = word_of_diagram(board, diagram)
            in_game = key in reached
            klass = predict_2n_class(n // 2, rows[0], rows[1])
            expect_reach = klass is not TwoRowClass.UNREACHABLE
            position = f"2x{n} {diagram.literal()}"
            if in_game != expect_reach:
                yield position, f"reachable={expect_reach}", f"reachable={in_game}"
                continue
            if not in_game:
                yield None
                continue
            value = memo[key]
            if klass is TwoRowClass.OTHER:
                holds, predicted = value not in (0, 1, 2), "value not in {0,1,2}"
            else:
                holds, predicted = value == klass.value, klass.value
            yield None if holds else (position, predicted, value)


def _start2_boards(max_n: int) -> Iterator[BoardParams]:
    return (BoardParams(2, n) for n in range(2, max_n + 1))


def _square_boards(max_n: int) -> Iterator[BoardParams]:
    return (BoardParams(n, n + w) for n in range(1, max_n + 1) for w in (0, 1))


def _verify_start(
    boards: Iterable[BoardParams], predict: Callable[[BoardParams], int]
) -> Iterator[_Finding]:
    for board, value in start_values(boards).items():
        expected = predict(board)
        yield None if value == expected else (f"start {board.m}x{board.n}", expected, value)


def _verify_nim(n: int) -> Iterator[_Finding]:
    # Every mask lies below the full one, so one solve values them all.
    _, memo = solve_hrg(n)
    for diagram in all_shifted(n):
        value = memo[diagram.mask()]
        expected = predict_shifted(diagram.parts)
        yield None if value == expected else (diagram.literal(), expected, value)


def _verify_symmetry(max_n: int) -> Iterator[_Finding]:
    for board in _square_boards(max_n):
        reached = reachable_words(board)
        for diagram in all_diagrams(board):
            word = word_of_diagram(board, diagram)
            symmetric = is_symmetric(word, board.m, board.n)
            in_game = word in reached
            yield None if symmetric == in_game else (
                f"{board.m}x{board.n} {diagram.literal()}",
                f"symmetric={symmetric}",
                f"reachable={in_game}",
            )


def _table1_costs(max_m: int, max_n: int) -> Iterator[int]:
    """The grid's costs, then a refusal past the 9x9 golden grid."""
    yield from class_costs(_table_boards(max_m, max_n))
    if min(max_m, max_n) >= 1 and max(max_m, max_n) > 9:
        raise DomainError(f"table1 compares with the 9x9 golden grid, got {max_m}x{max_n}")


# Each verification id: its report name, its check, each parameter's
# default, and the costs of the searches its check runs (``check_budget``):
# a whole-board solve or move closure costs the board's mirror-free words, a
# scan of every diagram ``C(m + n, m)``, the size-``n`` staircase ``2**n``,
# and starting values the class tables of their chains (``class_costs``).
_VERIFIERS = {
    "table1": ("golden-table", _verify_table1, {"max_m": 9, "max_n": 9}, _table1_costs),
    "row1": ("one-row", _verify_row1, {"max_n": 20},
             lambda max_n: (2 * search_cost(BoardParams(1, n)) for n in range(1, max_n + 1))),
    "row2": ("two-row", _verify_row2, {"max_n": 24},
             lambda max_n: (2 * search_cost(BoardParams(2, n)) + capped_comb(n + 2, 2)
                            for n in range(2, max_n + 1, 2))),
    "start2": ("two-row-start",
               lambda max_n: _verify_start(_start2_boards(max_n), lambda b: predict_start_2n(b.n)),
               {"max_n": 40}, lambda max_n: class_costs(_start2_boards(max_n))),
    "square": ("square-start",
               lambda max_n: _verify_start(_square_boards(max_n),
                                           lambda b: predict_start_square(b.m)),
               {"max_n": 7}, lambda max_n: class_costs(_square_boards(max_n))),
    "nim": ("shifted-nim", _verify_nim, {"n": 7},
            lambda n: [capped_pow2(n)] if n >= 0 else []),
    "symmetry": ("symmetric-reachable", _verify_symmetry, {"max_n": 6},
                 lambda max_n: (search_cost(board) + capped_comb(board.m + board.n, board.m)
                                for board in _square_boards(max_n))),
}

VERIFY_IDS = tuple(sorted(_VERIFIERS))


def verify(theorem: str, **params: int) -> Report:
    """Run one named verification at the given (or default) range.

    Before anything runs, parameters the id does not take are refused, and
    so is a range that needs more than the search budget or checks nothing
    (:func:`~hookgames.grundy.check_budget`).
    """
    try:
        name, check, defaults, costs = _VERIFIERS[theorem]
    except KeyError:
        raise DomainError(
            f"unknown verification {theorem!r}; choose from {VERIFY_IDS}"
        ) from None
    for key in params:
        if key not in defaults:
            raise DomainError(f"{theorem} does not take parameter {key!r}")
    merged = {key: params.get(key, default) for key, default in defaults.items()}
    given = ", ".join(f"{key}={value}" for key, value in merged.items())
    check_budget(f"{theorem} with {given}", costs(**merged))
    report = Report(
        {"theorem": name, "params": merged}, f"{name} {merged}:", "checks", "mismatches"
    )
    for finding in check(**merged):
        report.checked += 1
        if finding is not None:
            position, predicted, computed = finding
            report.findings.append(
                {"position": position, "predicted": str(predicted), "computed": str(computed)}
            )
    return report

