"""Generic solver for finite impartial games: mex and memoised game
values.

The solver is agnostic about the position type: positions are their own
hashable memo keys, and callers supply an options function.

There are two entry points.  :func:`grundy` values one position by a
depth-first search below it, for any game.  :func:`grundy_in_order` values
a whole known position set listed so that every option comes before its
position, with no search at all.  The boxed game's whole-board sweeps
(``mhrg.solve`` and ``mhrg.start_values``) use it on the ``semantic`` and
``cross-check`` engines; the default ``diagonal`` engine values the same
list by lines, with no option sets (``mhrg._value_in_order``).

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
    ``pos`` that ``memo`` lacks is added to it, each exactly once.  The
    game graph must be acyclic; a repeated position on the active path
    raises :class:`EngineInvariantError`.
    """
    if pos in memo:
        return memo[pos]
    path = {pos}
    opts = options(pos)
    stack = [(pos, opts, iter(opts))]
    while stack:
        node, opts, pending = stack[-1]
        for child in pending:
            if child not in memo:
                if child in path:
                    raise EngineInvariantError(
                        f"cycle through {child!r}; game positions must not repeat"
                    )
                path.add(child)
                grand = options(child)
                stack.append((child, grand, iter(grand)))
                break
        else:
            stack.pop()
            path.discard(node)
            memo[node] = mex(map(memo.__getitem__, opts))
    return memo[pos]


def grundy_in_order(
    order: Iterable[Hashable],
    options: Callable[[Hashable], Collection[Hashable]],
    memo: dict,
) -> None:
    """Value every position of ``order`` into ``memo``, in that order.

    Each value is the mex over the values of the position's options, read
    from ``memo``, so ``order`` must list every option before its position;
    ``options`` must return a collection, so that only those reads can
    raise :class:`KeyError`.  An option that is not valued yet, because it
    lies outside ``order`` or comes after its position, raises
    :class:`EngineInvariantError`.
    """
    value_of = memo.__getitem__
    for pos in order:
        opts = options(pos)
        try:
            memo[pos] = mex(map(value_of, opts))
        except KeyError as missing:
            raise EngineInvariantError(
                f"option {missing.args[0]!r} of {pos!r} is not valued before it"
            ) from None
