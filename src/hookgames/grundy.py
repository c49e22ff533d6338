"""Generic solver for finite impartial games: mex and memoised game
values.

The solver is agnostic about the position type: positions are their own
hashable memo keys, and callers supply an options function.  Every option
must be smaller than its position (``child < node``), as in every game the
package plays: a move removes boxes, which lowers the bead word (``mhrg``)
or the staircase mask (``shifted``).  That order rules out cycles, and
:func:`grundy` refuses an option that breaks it.  The boxed game values
an in-game position's subgame, and each class of ``mhrg.start_values``,
by lines on every engine (``mhrg._value_in_order``), so ``mhrg.solve``
calls :func:`grundy` only from a diagram outside the game; ``cross-check``
then checks each line value against the rule book's options and their
:func:`mex`.

Searches are unbounded, and so are the library's solves and closures
(``solve``, ``solve_hrg``, ``reachable_words``, ``all_shifted``).  The
budget is checked up front (:func:`check_budget`) by the CLI commands,
``grundy_table``, ``closedforms.verify`` and the isomorphism verifiers,
which refuse work past :data:`SEARCH_BUDGET` before any search starts.
"""

from __future__ import annotations

from typing import Callable, Collection, Hashable, Iterable

from .errors import DomainError, EngineInvariantError, RangeTooLargeError

SEARCH_BUDGET = 1 << 16  # positions one entry point may explore, in total


def check_budget(what: str, costs: Iterable[int]) -> None:
    """Refuse ``what`` when its ``costs`` (positions per search, or hooks a
    move listing examines) add up to more than :data:`SEARCH_BUDGET`, or to
    nothing.  Costs are read only until the sum passes the budget, so a
    range of a billion boards is refused after its first few."""
    total = 0
    for cost in costs:
        total += cost
        if total > SEARCH_BUDGET:
            raise RangeTooLargeError(f"{what} needs more than {SEARCH_BUDGET} positions")
    if not total:
        raise DomainError(f"{what} checks nothing")


def capped_comb(n: int, k: int) -> int:
    """``C(n, k)`` for ``0 <= k <= n``, or ``SEARCH_BUDGET + 1`` if larger:
    ``C(n, i) >= 2**i`` never falls for ``i <= min(k, n - k)``, so this
    stops within 17 steps however large ``n`` is."""
    value = 1
    for i in range(min(k, n - k)):
        value = value * (n - i) // (i + 1)
        if value > SEARCH_BUDGET:
            return SEARCH_BUDGET + 1
    return value


def capped_pow2(e: int) -> int:
    """``2**e`` for ``e >= 0``, or a number past ``SEARCH_BUDGET`` if larger."""
    return 1 << min(e, SEARCH_BUDGET.bit_length())


def mex(values: Iterable[int]) -> int:
    """Least non-negative integer missing from ``values``."""
    seen = set(values)
    value = 0
    while value in seen:
        value += 1
    return value


def grundy(
    pos: Hashable,
    options: Callable[[Hashable], Collection[Hashable]],
    memo: dict,
) -> int:
    """Game value of ``pos``: mex over the values of its options.

    Iterative depth-first search with an explicit stack, so deeply nested
    games cannot hit the interpreter recursion limit; ``options`` must
    return a collection, which is iterated twice.  Every position below
    ``pos`` that ``memo`` lacks is added to it, each exactly once.  Every
    option that ``memo`` lacks must be smaller than its position, so the
    positions on the stack fall and none repeats; one that is not raises
    :class:`EngineInvariantError`.
    """
    if pos in memo:
        return memo[pos]
    opts = options(pos)
    stack = [(pos, opts, iter(opts))]
    while stack:
        node, opts, pending = stack[-1]
        for child in pending:
            if child not in memo:
                if not child < node:
                    raise EngineInvariantError(
                        f"option {child!r} of {node!r} is not valued before it"
                    )
                grand = options(child)
                stack.append((child, grand, iter(grand)))
                break
        else:
            stack.pop()
            memo[node] = mex(map(memo.__getitem__, opts))
    return memo[pos]
