"""Move generation for the multiple-hook-removal game on a boxed board.

A move removes the hook of a chosen box; if the remaining diagram contains
a hook with the identical label multiset, that hook must be removed too
(this happens at most once).

The rule runs on bead words.  A diagram in the box is fixed by the
``m + n`` unit steps of its boundary from the bottom-left corner to the
top-right one, and one bit per step, set for a step up, gives an
``(m + n)``-bit integer with exactly ``m`` set bits, the classical Maya
(bead) word of a partition in a box.  A hook removal moves one bead down
to a hole, and the forced follow-up is the mirrored bead move under
``i -> m + n - 1 - i``.  :func:`word_options` is that rule; option sets,
move lists, solves and reachable sets all come from it.  One decoder
turns an option word into a move, its forced follow-up's labels checked
(:func:`_decode_moves`), and the move of a named box is read off the word
the same way (:func:`_move_of_box`).  A word maps straight to a diagram
(:func:`diagram_of_word`: each bead's row is as long as the holes below
it) and back (:func:`word_of_diagram`).  Memo keys are bead words too
(:meth:`MhrgPosition.encode`); move records keep the order of their
results' diagonal profiles (:func:`profile_order`).

On a reachable word the rule is a game of signed coins.  Number the
mirror pairs of bits ``(p, m + n - 1 - p)``, ``p < k = (m + n) // 2``,
and give pair ``p`` the absolute value ``k - p``; the middle bit of an
odd ``m + n`` stays empty.  A bead on the high bit of a pair is the coin
``+(k - p)``, one on the low bit the coin ``-(k - p)``, and the ``m``
coins sit on distinct pairs.  A move is a *slide*, one coin ``x`` to a
value ``y < x`` on a free pair, or a *flip*, two coins ``x`` and ``z``
with ``x + z > 0`` (``z = x`` is one coin) both changing sign.  The sum
of the coins falls at every move, and a position is only its coins, so
``m x n`` and ``m x (n + 1)`` with ``m + n`` even are the same game: the
class ``(m, k)``, whose words are those of ``m x (2k - m)``.

Classes are linked by an inert coin.  On ``m x (2k - m)`` a bead on bit 0
is the coin ``-k``, and it never moves: no value lies below ``-k`` to
slide to; every other coin has ``|z| < k``, so a flip with it has the sum
``z - k < 0``, and the single flip ``-2k < 0``; and no other move takes a
coin to pair 0, which is not free.  The other ``m - 1`` coins thus play
alone on pairs ``1 .. k - 1``, of absolute values ``k - 1 .. 1``, and
``w -> w >> 1`` keeps each of them on its side of a pair of the same value
in class ``(m - 1, k - 1)``.  It maps the moves below ``w`` one to one onto
those below ``w >> 1``, so the two words have the same value.
:func:`start_values` values each class once along the chains
``(m - j, k - j)`` and reads its bit-0 words from the class below.

The classes ``(m, m)``, the boards ``n x n`` and ``n x (n + 1)``, are
Turning Turtles (*Winning Ways*, ch. 14).  Every pair holds a coin, so no
slide exists, and a move turns a positive coin ``x`` to ``-x``, alone or
with one coin ``|z| < x`` of either sign.  Put the coin of value ``v`` as
a turtle at place ``v``, heads up when positive: a move turns one head to
tails and at most one turtle left of it either way, whatever the other
turtles show.  So by the coin-turning theorem a position's value is the
nim-sum of its lone heads' values, and a lone head at ``v`` has the empty
row and the lone heads at ``1 .. v - 1`` as options, so its value is
``v``: the value is the XOR of the positive coins.  On ``n x (n + 1)``
those are the parts of the staircase that ``isomorphisms.halve_word``
reads off the top ``n`` bits, which is the paper's relation between that
board and the staircase game.  No other class obeys the formula: every
board of at most 72 cells with ``m < k`` has an in-game position whose
value is not the XOR of its positive coins (``tests/test_mhrg.py``).  No
code path answers by it.

A coin's slides and its single flip lie on one line.  Take a mirror-free
word ``w`` with the coin ``x`` on bit ``b``, and call ``L = w ^ 1 << b``,
the other ``m - 1`` coins, the line of ``x``.  The bits order the coins by
value: the low bits hold the negative coins, the most negative lowest, the
high bits the positive ones, the smallest lowest.  A word ``L | 1 << y``
is mirror-free exactly when ``y`` lies on a pair free in ``L``: a free
pair of ``w``, or ``x``'s own pair.  For ``y < b`` it holds the coin of
bit ``y`` in ``x``'s place, of a value below ``x``: a slide to a free
pair, or, for ``x > 0`` and ``y`` its own low bit, the single flip.  Those
are all the slides and the single flip of ``x``.  So they are exactly the
mirror-free words of ``L`` below ``w``, while its words above ``w`` are
larger.  An increasing sweep that keeps, for each line, the OR of
``1 << value`` over its words valued so far thus reads the values of all
of ``x``'s slides and its single flip at once: ``m`` reads per word,
where those options number ``m (k - m) + m / 2`` on average.  A line's
last word has its coin on the line's highest free bit: a positive coin
with no free pair above it, as a negative coin's own high bit is free.
A coin's two bits and whether its line ends on its high bit depend only
on the word's set of pairs, so the sweep reads them once per set
(:func:`_coin_table`) and takes each coin's side from the word.

The double flips, ``x > 0`` with a coin ``|z| < x``, are read one by one,
by rank.  A word's *signs* set bit ``j`` when its ``j``-th coin from the
middle is positive, and its *rank* is its pair set's index times ``2**m``
plus its signs; a word is its pair set and its signs, so ranks are
distinct.  A double flip changes the sign of the ``j``-th coin ``x`` and
of a coin ``z`` nearer the middle, the ``i``-th with ``i < j``, and moves
no coin off its pair, so the option's rank is the word's with bits ``j``
and ``i`` toggled, ``r ^ (1 << j | 1 << i)``.  Those deltas are the same
for every pair set, so the sweep keeps each word's value at its rank and
reads a double flip's value from there, with no word built and no memo
lookup (:func:`_value_in_order`).

The rule book, applied literally on diagrams, scans for an equal-label
hook after each removal (:func:`options_semantic`, :func:`moves_semantic`,
:func:`move_for_box`).  It is the oracle: ``engine="cross-check"`` compares
it with the bead-word rule at every position, and nothing answers from it
alone.  It reads boxes only, never words or intervals.  Its hooks are
sliced from the label grid of ``diagrams`` (``diagrams._label_grid``,
``diagrams._box_hook``) by the code that makes the hooks of
:func:`~hookgames.diagrams.hook_at`.  A diagram's row and
column lengths are read once per position for all its first hooks, and
once per scan.  A scan compares labels only with hooks of the first one's
length, and each row holds at most one: along a row the arm shrinks by one
and the leg never grows, so hook lengths strictly fall, and the scan leaves
a row at its first hook no longer than the first one.

:func:`in_game` answers reachability from the word alone: a position is in
the game exactly when no mirror pair of bits holds two beads (its docstring
proves both directions).  The count of mirror-free words sizes a search
before it starts (:func:`search_cost`).  :func:`reachable_words` stays the
move closure, so the verifiers, the ``reachable`` listing and the tests
check the game itself rather than the predicate.

The subgame of an in-game diagram ``λ`` is the set of in-game diagrams
``μ ⊆ λ``: the mirror-free words whose beads, sorted, lie one by one at or
below ``λ``'s (row ``i`` ends in the bead on bit ``rows[i] + m - 1 - i``).
It is exactly the set of positions reachable from ``λ``, so :func:`solve`
from an in-game position values that list (:func:`_words_inside`) in
increasing order by lines, with no search; the whole board is the case of
``λ`` the start, where the list is every mirror-free word.

* It is closed under options, so the sweep's values are exact.  A move
  removes boxes and keeps the word mirror-free (:func:`in_game`), so each
  option of a listed word is a smaller listed word, valued before it.  The
  line fact holds inside: the words of a coin's line below ``w`` are
  options of ``w``, so all of them are listed.  The lines' words above the
  list stay unvalued, and the lines on its edge stay open.
* Every ``μ`` of it is reachable from ``λ``, so the sweep values exactly the
  positions a search from ``λ`` explores; for ``λ`` the start this is
  ``in_game``'s converse.  For ``t = 1 .. k`` let ``A(t)`` count a
  position's positive coins of value at least ``t`` and ``B(t)`` its
  negative coins of value at most ``-t``.  Bits order coins by value, so
  ``μ ⊆ λ`` exactly when no value has more coins of ``μ`` than of ``λ`` at
  or above it; at ``t`` and ``-t`` that reads ``D_A(t) >= 0`` and ``D_B(t +
  1) >= 0`` for ``D_A = A_λ - A_μ`` and ``D_B = B_μ - B_λ``, and ``D_A(1) =
  D_B(1)``, as both have ``m`` coins.  A move of ``λ`` keeps ``μ`` inside
  when the ``D`` it lowers is positive there: a slide ``x -> y``, ``0 < y <
  x``, lowers ``D_A`` by one on ``(y, x]``; a slide ``-x -> -y``, ``x <
  y``, ``D_B`` on ``(x, y]``; a slide ``x -> -y``, ``D_A`` on ``[1, x]``
  and ``D_B`` on ``[1, y]``; the flip of ``x > 0`` with ``-r``, ``0 < r <
  x``, both on ``(r, x]``, and the single flip of ``x`` both on ``[1, x]``
  (``r = 0`` below).  Take ``μ != λ`` and ``T`` the largest ``t`` where
  ``D_A`` or ``D_B`` is positive.  Above ``T`` the two agree pair by pair,
  so at pair ``T`` either ``λ`` holds ``+T`` and ``μ`` holds ``-T`` or
  nothing, or ``λ`` holds nothing and ``μ`` holds ``-T``.  Take the
  longest run ``(r, T]`` where a ``D`` stays positive: at ``r > 0``
  ``D_B`` drops to 0 only where ``λ`` holds ``-r``, and ``D_A`` only where
  ``μ`` holds ``+r`` and ``λ`` does not.

  - ``λ`` nothing at ``T``, ``μ`` ``-T``: on the run of ``D_B``, ``λ``
    slides ``-r`` to ``-T``, or, for ``r = 0``, its smallest positive coin
    ``x``: it has one, as ``D_A(1) = D_B(1) > 0``, and none below ``x``,
    so ``D_A >= D_A(1)`` on ``[1, x]``.
  - ``λ`` ``+T``, ``μ`` ``-T``: on the run where both stay positive,
    ``λ`` slides ``T`` to ``r > 0`` if it holds nothing there, and else
    flips ``T`` with ``-r`` (alone for ``r = 0``).
  - ``λ`` ``+T``, ``μ`` nothing: on the run of ``D_A``, ``λ`` slides ``T``
    to ``r > 0`` if it holds nothing there.  Else it holds ``-r``, so
    ``D_B(r + 1) = D_B(r) + 1 > 0``, or ``r = 0`` and ``D_B(1) = D_A(1) >
    0``.  On the run ``(r, q]`` of ``D_B`` from ``r + 1``, ``q < T`` as
    ``D_B(T) = 0``, and ``μ`` holds ``-q``: ``λ`` flips ``q`` with ``-r``
    (alone for ``r = 0``) if it holds ``+q``, and slides ``T`` to ``q`` if
    it holds nothing there.

  Each option is a smaller word that still holds ``μ``, so induction on
  ``λ`` reaches ``μ``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator

from .diagrams import (
    BoardParams,
    HookRecord,
    YoungDiagram,
    _box_hook,
    _label_grid,
    _require_box,
    _require_fit,
    hook_at,
    interval_labels,
    remove_hook,
)
from .errors import DomainError, EngineInvariantError
from .grundy import SEARCH_BUDGET, capped_comb, capped_pow2, grundy, mex

ENGINES = ("diagonal", "cross-check")
_BYTE_REVERSED = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


@dataclass(frozen=True)
class MhrgPosition:
    """A game position: a diagram inside its board."""

    board: BoardParams
    diagram: YoungDiagram

    def __post_init__(self) -> None:
        _require_fit(self.board, self.diagram)

    def encode(self) -> int:
        """Bead word (:func:`word_of_diagram`); the canonical memo key for
        this board."""
        return word_of_diagram(self.board, self.diagram)

    def __str__(self) -> str:
        return self.diagram.literal()


def start_position(board: BoardParams) -> MhrgPosition:
    """The full rectangle."""
    return MhrgPosition(board, YoungDiagram((board.n,) * board.m))


@dataclass(frozen=True)
class MoveRecord:
    """One legal move: the chosen hook, the forced follow-up if any, and
    the resulting position.

    When ``second`` is present its labels equal ``first``'s and its
    interval is the mirror ``(n - m - hi, n - m - lo)`` of ``first``'s; a
    third removal never exists.
    """

    first: HookRecord
    second: HookRecord | None
    result: MhrgPosition


# ---------------------------------------------------------------------------
# Bead-word core.  Bit k of the word is set when step k of the boundary
# goes up, so row i (0-based) ends in the bead on bit rows[i] + m - 1 - i.
# Removing the hook on diagonals a+1-m .. b-m is the bead move from set
# bit b to clear bit a < b, and the forced follow-up is the bead move
# (m+n-1-b, m+n-1-a), applied when it is legal after the first one.  A
# self-mirrored move never fires twice: its mirror needs the bead at b,
# which the first move just took away.  Every option is a smaller word, so
# the game graph is acyclic by construction.

def word_of_diagram(board: BoardParams, diagram: YoungDiagram) -> int:
    """Bead word of ``diagram`` on ``board``: row ``i`` (0-based, padded
    with empty rows to ``m``) puts its bead on bit ``rows[i] + m - 1 - i``."""
    _require_fit(board, diagram)
    m = board.m
    rows = diagram.rows + (0,) * (m - diagram.height)
    return sum(1 << (length + m - 1 - i) for i, length in enumerate(rows))


def diagram_of_word(word: int) -> YoungDiagram:
    """Inverse of :func:`word_of_diagram`: each bead of ``word`` is a row as
    long as the number of holes below it.  The beads are walked from the
    highest, the first row, down: a bead on bit ``b`` with ``below`` beads
    under it has ``b - below`` holes under it, so the cost is O(m), not
    O(m + n); holes above the highest bead add no row."""
    rows = []
    below = word.bit_count()
    while word:
        b = word.bit_length() - 1
        word ^= 1 << b
        below -= 1
        rows.append(b - below)
    return YoungDiagram(tuple(rows))


def word_options(word: int, size: int) -> set[int]:
    """Words reachable in one move from ``word`` (``size = m + n`` bits).

    A hole ``a`` of the word is in ``rev`` (the reversed word) when its
    mirror ``top - a`` holds a bead, ``top = size - 1``.  Each bead ``b``
    (bit ``hb``, mirror bit ``mb``) moves down through two masks of the
    holes below it:

    * *slides*, the holes of ``slide_to = ~word & ~rev & ~mid`` below
      ``hb``: their mirrors are holes, so no follow-up fires.  The middle
      bit ``mid`` of an odd size is left out: it is its own mirror, so a
      move to it fires the follow-up ``mid -> top - b`` and lands on the
      single flip of the next item;
    * *flips*, for a high bead (``mb < hb``): the single flip
      ``b -> top - b``, and each hole ``a`` of ``flip_to = ~word & rev``
      strictly between ``mb`` and ``hb``, whose follow-up moves the bead
      ``top - a`` to ``top - b``.  A hole of ``flip_to`` below ``mb``
      would flip the same two beads as the higher bead ``top - a`` does
      from its own masks, so each flip is emitted once, from its higher
      bead.

    On a mirror-free word every option is thus added once.  Words that are
    not mirror-free (unreachable positions only) take one more branch: a
    bead whose mirror holds a bead moves to every hole below it, as no
    follow-up can fire.  The middle bead is its own mirror (``mb == hb``)
    and keeps only its slides; its moves to holes of ``flip_to`` fire a
    follow-up and equal the single flips of the beads above.
    """
    top = size - 1
    rev = _reversed(word, size)
    mid = (size & 1) << (top >> 1)
    holes = ~word
    slide_to = holes & ~rev & ~mid
    flip_to = holes & rev
    out: set[int] = set()
    add = out.add
    beads = word
    while beads:
        hb = beads & -beads
        beads ^= hb
        base = word ^ hb
        if rev & hb and hb != mid:
            below = holes & (hb - 1)
        else:
            below = slide_to & (hb - 1)
            mb = 1 << (top + 1 - hb.bit_length())
            if mb < hb:
                flipped = base | mb
                add(flipped)
                flips = flip_to & (hb - 1) & -(mb << 1)  # holes above mb
                while flips:
                    ha = flips & -flips
                    flips ^= ha
                    add((flipped | ha) ^ 1 << (top + 1 - ha.bit_length()))
        while below:
            ha = below & -below
            below ^= ha
            add(base | ha)
    return out


def in_game(board: BoardParams, diagram: YoungDiagram) -> bool:
    """Whether ``diagram`` is reachable from the full rectangle of ``board``.

    True exactly when no mirror pair of bits ``(i, m + n - 1 - i)`` of the
    position's bead word holds two beads; with ``m + n`` odd the middle bit
    is its own mirror and must be a hole.  O(m + n), with no enumeration.

    Reachable words are mirror-free, by induction over moves:

    * at the start the beads fill bits ``n .. m + n - 1``, whose mirrors are
      bits ``0 .. m - 1``, disjoint from them because ``m <= n``;
    * take a move ``b -> a`` from a mirror-free word (``top = m + n - 1``).
      The mirror ``top - b`` of the bead ``b`` is a hole.  If ``top - a``
      holds a bead after the first removal (it is then not ``b``; it is
      ``a`` itself when ``a`` is the middle bit), the forced follow-up
      ``top - a -> top - b`` is legal and fires: each of the two pairs ends
      with one bead, or, when ``a`` is the middle bit, the middle ends
      empty and ``b``'s pair holds one bead.  Otherwise ``a``'s pair ends
      with one bead and ``b``'s pair with none.  No other bit changes.

    Conversely, every mirror-free word ``w`` other than the start has a
    mirror-free parent ``p > w`` with a move ``p -> w``.  A chain of
    parents rises, so it is finite and ends at the one word without a
    parent, the start (all beads on the top ``m`` bits):

    * if a bead sits on a low bit ``i < top - i``, its mirror ``top - i``
      is a hole.  Moving the bead up there gives ``p``, still mirror-free,
      and the move ``top - i -> i`` from ``p`` leads back: its follow-up
      would need a bead on ``top - i``, which the move just vacated;
    * otherwise every bead is high (on a bit ``i > top - i``; the middle
      bit is a hole), and as ``w`` is not the start some bead ``b`` has a
      hole ``c > b`` above it.  The low bits ``top - b`` and ``top - c``
      are holes, so moving the bead to ``c`` gives a mirror-free ``p``,
      and the move ``c -> b`` from ``p`` leads back: its follow-up needs a
      bead on ``top - b``, a hole.

    So the reachable words are exactly the mirror-free ones, and there are
    ``C(floor((m + n) / 2), m) * 2**m`` of them: choose the ``m`` mirror
    pairs that hold a bead, then a side in each.  ``tests/test_mhrg.py``
    checks this count against the move closure on every board with at
    most 81 cells.
    """
    return mirror_free(word_of_diagram(board, diagram), board.m + board.n)


def search_cost(board: BoardParams, diagram: YoungDiagram | None = None) -> int:
    """Most positions a search from ``diagram`` (default: the start) on
    ``board`` explores, or a number past ``SEARCH_BUDGET`` if larger: the
    mirror-free words (:func:`in_game`) from a reachable position, else all
    ``C(m + n, m)`` words.  The first count is the smaller, so a board past
    the budget is refused without reading the diagram."""
    m, n = board.m, board.n
    in_game_count = capped_comb((m + n) // 2, m) * capped_pow2(m)
    if diagram is None or in_game_count > SEARCH_BUDGET or in_game(board, diagram):
        return in_game_count
    return capped_comb(m + n, m)


def _words_inside(bound: int, size: int) -> list[tuple[int, int, int]]:
    """Every mirror-free ``size``-bit word inside ``bound`` (module
    docstring: its beads, sorted, at or below those of ``bound``),
    increasing, each with its pair mask, both bits of every pair that holds
    a coin, and its signs, bit ``j`` set when the ``j``-th coin from the
    middle is positive.

    The words grow pair by pair from the outermost, ``p = 0 .. k - 1``
    (``k = size // 2``, ``top = size - 1``), kept by their coins placed so
    far, ``a`` positive and ``c`` negative.  The ``a``-th positive coin
    placed is the word's ``a``-th highest bead and the ``c``-th negative
    one its ``c``-th lowest, so pair ``p`` takes a coin on its high bit when
    ``top - p`` is at most the ``a``-th highest bead of ``bound``, and on
    its low bit when ``p`` is at most the ``c``-th lowest one.  It stays
    empty only while enough pairs remain for the coins still to come.  A
    coin placed after ``a + c`` others is the ``m - 1 - a - c``-th from the
    middle, so its sign bit joins the word's bits in the constant that
    places it.  Each word travels as ``(word << size | pairs) << m |
    signs``, so one sort orders them.
    """
    beads = [b for b in range(size - 1, -1, -1) if bound >> b & 1]
    m, k, top = len(beads), size // 2, size - 1
    shift = size + m
    grown: dict[tuple[int, int], list[int]] = {(0, 0): [0]}
    for p in range(k):
        both = (1 << p | 1 << top - p) << m
        up, down = 1 << top - p << shift | both, 1 << p << shift | both
        placed, grown = grown, {}
        for (a, c), keys in placed.items():
            if m - a - c < k - p:
                grown.setdefault((a, c), []).extend(keys)
            if a + c < m:
                if top - p <= beads[a]:
                    positive = up | 1 << m - 1 - a - c
                    grown.setdefault((a + 1, c), []).extend([key | positive for key in keys])
                if p <= beads[m - 1 - c]:
                    grown.setdefault((a, c + 1), []).extend([key | down for key in keys])
    low, signs = (1 << size) - 1, (1 << m) - 1
    return [
        (key >> shift, key >> m & low, key & signs)
        for key in sorted(chain.from_iterable(grown.values()))
    ]


def _count_inside(bound: int, size: int) -> int:
    """Number of mirror-free ``size``-bit words inside ``bound``, counted
    pair by pair by the rule of :func:`_words_inside` with the state
    (positive coins placed, negative coins placed), in ``O(k m^2)`` steps.
    For the start, ``C(k, m) * 2**m``."""
    beads = [b for b in range(size - 1, -1, -1) if bound >> b & 1]
    m, top = len(beads), size - 1
    ways = [[0] * (m + 1) for _ in range(m + 1)]  # ways[a][c]
    ways[0][0] = 1
    for p in range(size // 2):  # in place, so a and c run down
        for a in range(m, -1, -1):
            for c in range(m - a, -1, -1):
                if a and top - p <= beads[a - 1]:
                    ways[a][c] += ways[a - 1][c]
                if c and p <= beads[m - c]:
                    ways[a][c] += ways[a][c - 1]
    return sum(ways[a][m - a] for a in range(m + 1))


def _coin_table(
    pairs: int, size: int, deltas: list[tuple[int, ...]]
) -> list[tuple[int, int, bool, tuple[int, ...]]]:
    """The coins of the pair mask ``pairs`` from the middle out, as the line
    sweep reads them: each coin's high and low bit, whether its line ends
    on its high bit (every pair outside it holds a coin), and the rank
    deltas of its double flips, ``deltas[j]`` for the ``j``-th coin, one
    per coin nearer the middle in table order, which every pair mask
    shares."""
    table = []
    rest = pairs & -(1 << size - size // 2)  # the high bit of each pair
    while rest:
        hb = rest & -rest
        rest ^= hb
        lb = 1 << size - hb.bit_length()
        table.append((hb, lb, rest == (1 << size) - (hb << 1), deltas[len(table)]))
    return table


_DENSE = 4  # a sweep whose rank space is past this many times its list keeps a dict


def _value_in_order(
    words: list[tuple[int, int, int]], bound: int, size: int, memo: dict[int, int]
) -> None:
    """Value ``words``, the mirror-free ``size``-bit words inside ``bound``
    listed increasing with their pair masks and signs
    (:func:`_words_inside`), into ``memo`` by lines (module docstring).
    Words ``memo`` holds already keep their values but still add them to
    their lines.

    A word's coins come from its pair mask's table (:func:`_coin_table`).
    ``seen`` holds the mask of each open line: a word pops each line ending
    on it and reads each other once, to write it back after the mex.
    ``ranked`` holds the value of each word valued so far at its rank, its
    pair mask's index times ``2**m`` plus its signs: a list when the list
    fills at least ``1 / _DENSE`` of that rank space (a whole board fills
    it exactly), else a dict, so a small subgame of a large board allocates
    no slot per rank.  A positive coin of a word not valued yet reads its
    double flips from it, each as ``powers[ranked[rank ^ delta]]``, so
    the list holds no int of its own.  The shared ``powers`` go up to the
    most options a word can have, ``m (2 (k - m) + 1)`` slides and single
    flips and ``m (m - 1) / 2`` double flips, and no further than the
    list's length; with one coin, whose values run up to its length, no
    double flip exists and none are built.  A list of another
    length than :func:`_count_inside` gives, or out of order, and a double
    flip not yet valued (``None`` in the list, a missing key in the dict)
    raise :class:`EngineInvariantError`; so does a line still open at the
    end of a whole-board sweep, which a complete list leaves none of.  A
    subgame leaves its edge's lines open.
    """
    m, k = bound.bit_count(), size // 2
    count = _count_inside(bound, size)
    if len(words) != count:
        raise EngineInvariantError(
            f"{len(words)} words listed for the {count} mirror-free "
            f"{size}-bit words with {m} beads inside {bound}"
        )
    deltas = [tuple(1 << j | 1 << i for i in range(j)) for j in range(m)]
    tables = {
        pairs: (index << m, _coin_table(pairs, size, deltas))
        for index, pairs in enumerate({pairs for _, pairs, _ in words})
    }
    span = len(tables) << m
    ranked: list[int | None] | dict[int, int] = [None] * span if span <= _DENSE * count else {}
    most = m * (2 * (k - m) + 1) + m * (m - 1) // 2  # options of a word, so its largest value
    powers = tuple(1 << v for v in range(min(count, most + 1))) if m > 1 else ()  # one coin flips alone
    seen: dict[int, int] = {}
    read = seen.get
    prev = -1
    try:
        for w, pairs, signs in words:
            if w <= prev:
                raise EngineInvariantError(f"word {w} is listed after {prev}")
            prev = w
            base, coins = tables[pairs]
            rank = base | signs
            value = memo.get(w)
            mask = 0
            kept = []
            for hb, lb, last, flips in coins:
                if w & hb:  # a positive coin
                    if value is None:
                        for delta in flips:
                            mask |= powers[ranked[rank ^ delta]]
                    if last:
                        mask |= seen.pop(w ^ hb, 0)
                        continue
                    line = w ^ hb
                else:
                    line = w ^ lb
                line_mask = read(line, 0)
                mask |= line_mask
                kept.append((line, line_mask))
            if value is None:
                bit = ~mask & (mask + 1)
                value = memo[w] = bit.bit_length() - 1
            else:
                bit = 1 << value
            ranked[rank] = value
            for line, line_mask in kept:
                seen[line] = line_mask | bit
    except (KeyError, TypeError):  # an empty slot: a missing key, or None as an index
        slot = ranked.get if isinstance(ranked, dict) else ranked.__getitem__
        for hb, lb, _, flips in coins:
            for (inner_hb, inner_lb, _, _), delta in zip(coins, flips):
                if w & hb and slot(rank ^ delta) is None:
                    option = w ^ hb ^ lb ^ inner_hb ^ inner_lb
                    raise EngineInvariantError(
                        f"option {option!r} of {w!r} is not valued before it"
                    ) from None
        raise
    if seen and bound == ((1 << m) - 1) << (size - m):
        raise EngineInvariantError(f"{len(seen)} lines still open, first {next(iter(seen))}")


def _reversed(word: int, size: int) -> int:
    """``word < 2**size`` with bit ``i`` moved to bit ``size - 1 - i``, a byte at a time."""
    flipped = word.to_bytes(size // 8 + 1, "little").translate(_BYTE_REVERSED)
    return int.from_bytes(flipped, "big") >> 8 - size % 8


def mirror_free(word: int, size: int) -> bool:
    """No two beads of the ``size``-bit ``word`` sit on a pair of bits
    ``(i, size - 1 - i)``; the middle bit of an odd ``size`` holds none."""
    return not word & _reversed(word, size)


def profile_order(word: int, size: int) -> int:
    """Sort key ordering ``size``-bit words as their profiles' bytes: at the
    lowest differing bit the word with the hole has the larger profile."""
    return -_reversed(word, size)


def _hook(board: BoardParams, word: int, a: int, b: int) -> HookRecord:
    """Record of the hook that the bead move ``b -> a`` removes from
    ``word``.  Its corner is the row of bead ``b`` (the beads at or above
    it) and the column of hole ``a`` (the holes at or below it); it covers
    diagonals ``a + 1 - m .. b - m``."""
    m = board.m
    lo, hi = a + 1 - m, b - m
    corner = ((word >> b).bit_count(), a + 1 - (word & ((1 << a) - 1)).bit_count())
    return HookRecord(corner, lo, hi, interval_labels(board, lo, hi))


def _forced_move(board: BoardParams, word: int, a: int, b: int) -> tuple[HookRecord, HookRecord]:
    """Hooks of the bead move ``b -> a`` from ``word`` and of its forced
    follow-up, which must carry the same labels."""
    top = board.m + board.n - 1
    first = _hook(board, word, a, b)
    second = _hook(board, word ^ 1 << a ^ 1 << b, top - b, top - a)
    if first.labels != second.labels:
        at = diagram_of_word(word).literal()
        raise EngineInvariantError(f"mirror hook labels diverge at {at}: {first} vs {second}")
    return first, second


# A move: its first hook, its forced hook or ``None``, and its result word.
_WordMove = tuple[HookRecord, HookRecord | None, int]


def _decode_moves(board: BoardParams, word: int) -> list[_WordMove]:
    """Moves of ``word`` on ``board``, one per distinct result, as the first
    hook, the forced hook or ``None``, and the result word, ordered by the
    results' profiles (:func:`profile_order`).

    Each move is decoded from a result ``final`` of :func:`word_options`
    (``top = m + n - 1``), keeping the move with the lexicographically
    smallest corner.  The beads lost, ``word & ~final``, are one or two,
    and the highest, ``b``, is the first move's bead: the higher the bead,
    the smaller the corner row.  A second lost bead ``c`` makes the move a
    flip of two coins, ``b -> top - c`` followed by ``c -> top - b``.
    Otherwise the move is ``b -> a`` to the one hole gained, with no
    follow-up.  A kept forced move must carry equal labels on both hooks.

    Every other forced move that reaches a kept result is checked the same
    way, though it is not returned.  The flip of two coins started from
    ``c`` removes the kept move's two intervals, swapped.  When ``m + n`` is
    odd, the single flip ``b -> top - b`` is also reached through the
    middle bit ``mid``: by ``b -> mid -> top - b`` when ``mid`` is a hole (a
    larger corner column than the kept move's), and by ``mid -> top - b``
    then ``b -> mid`` when it holds a bead (a larger row).  Both routes
    remove diagonals ``mid + 1 - m .. b - m`` and ``n - b .. n - 1 - mid``.
    No other forced move exists, so the checks cover every forced move of
    the position.
    """
    size = board.m + board.n
    top = size - 1
    mid = top >> 1  # the middle bit, when size is odd
    moves = []
    for final in sorted(word_options(word, size), key=lambda w: profile_order(w, size)):
        gone = word & ~final
        b = gone.bit_length() - 1
        c = gone ^ 1 << b
        if c:
            first, second = _forced_move(board, word, top + 1 - c.bit_length(), b)
        else:
            a = (final & ~word).bit_length() - 1
            if size & 1 and a == top - b:
                _forced_move(board, word, *((a, mid) if word >> mid & 1 else (mid, b)))
            first, second = _hook(board, word, a, b), None
        moves.append((first, second, final))
    return moves


def _move_of_box(board: BoardParams, diagram: YoungDiagram, i: int, j: int) -> _WordMove:
    """The move that removes the hook at box ``(i, j)`` of ``diagram``, as
    :func:`_decode_moves` gives moves; a box outside the diagram is refused
    as :func:`~hookgames.diagrams.hook_at` refuses it.  Row ``i``'s bead
    ``b`` moves down by the hook's length to ``a`` (the abacus of a
    partition), and the mirrored move ``top - a -> top - b`` follows when
    it is legal after the first, its labels checked (:func:`_forced_move`)."""
    _require_box(board, diagram, i, j)
    rows, top, word = diagram.rows, board.m + board.n - 1, word_of_diagram(board, diagram)
    b = rows[i - 1] + board.m - i
    a = b - (rows[i - 1] - j + sum(row >= j for row in rows[i:]) + 1)
    after = word ^ 1 << a ^ 1 << b
    if after >> top - a & 1 and not after >> top - b & 1:
        return (*_forced_move(board, word, a, b), after ^ 1 << top - a ^ 1 << top - b)
    return _hook(board, word, a, b), None, after


def _positions(board: BoardParams, words: Iterable[int]) -> set[MhrgPosition]:
    return {MhrgPosition(board, diagram_of_word(word)) for word in words}


def options_diagonal(pos: MhrgPosition) -> set[MhrgPosition]:
    """Option set via the bead word."""
    return _positions(pos.board, word_options(pos.encode(), pos.board.m + pos.board.n))


# ---------------------------------------------------------------------------
# The rule book: cross-check's oracle.


def _equal_label_hooks(board: BoardParams, diagram: YoungDiagram, hook: HookRecord) -> list[HookRecord]:
    """Hooks of ``diagram`` with the labels of ``hook``, row-major.

    Equal label multisets have equal sizes, so labels are compared only
    with hooks as long as ``hook``.  Hook lengths strictly fall along a
    row, as the arm shrinks by one and the leg never grows, so each row
    holds at most one hook of that length: the scan walks a row until its
    hooks are no longer than ``hook``."""
    grid = _label_grid(board)
    rows, cols = diagram.rows, diagram.conjugate().rows
    size = hook.size
    found = []
    for i, row in enumerate(rows, start=1):
        for j in range(1, row + 1):
            length = row - j + cols[j - 1] - i + 1
            if length > size:
                continue
            if length == size:
                record = _box_hook(grid, rows, cols, i, j)
                if record.labels == hook.labels:
                    found.append(record)
            break
    return found


def move_for_box(pos: MhrgPosition, i: int, j: int) -> MoveRecord:
    """The move that removes the hook at ``(i, j)``, rule book applied
    literally: remove the hook, then scan for a hook with the identical
    label multiset and remove it too if one exists (both scans are
    :func:`_equal_label_hooks`)."""
    return _rule_book_move(pos, hook_at(pos.board, pos.diagram, i, j))


def _rule_book_move(pos: MhrgPosition, first: HookRecord) -> MoveRecord:
    """:func:`move_for_box` for the hook ``first`` of ``pos``."""
    board, diagram = pos.board, pos.diagram
    after_first = remove_hook(board, diagram, *first.corner)
    matches = _equal_label_hooks(board, after_first, first)
    if not matches:
        return MoveRecord(first, None, MhrgPosition(board, after_first))
    results = {remove_hook(board, after_first, *hook.corner) for hook in matches}
    if len(results) != 1:
        raise EngineInvariantError(
            f"equal-label hooks at {[hook.corner for hook in matches]} in "
            f"{after_first.literal()} disagree on the result"
        )
    final = results.pop()
    third = _equal_label_hooks(board, final, first)
    if third:
        raise EngineInvariantError(
            f"third equal-label hook at {third[0].corner} in {final.literal()}"
        )
    return MoveRecord(first, matches[0], MhrgPosition(board, final))


def _semantic_records(pos: MhrgPosition) -> dict[YoungDiagram, MoveRecord]:
    """Rule-book moves by result diagram, unsorted: per result the record
    with the smallest corner, which row-major order meets first.  The first
    hooks all come from one read of the rows and the column lengths."""
    grid = _label_grid(pos.board)
    rows, cols = pos.diagram.rows, pos.diagram.conjugate().rows
    best: dict[YoungDiagram, MoveRecord] = {}
    for i, j in pos.diagram.boxes():
        record = _rule_book_move(pos, _box_hook(grid, rows, cols, i, j))
        best.setdefault(record.result.diagram, record)
    return best


def moves_semantic(pos: MhrgPosition) -> tuple[MoveRecord, ...]:
    """Moves by the rule book, one record per distinct result, ordered by
    the results' profiles (:func:`profile_order`) as :func:`_decode_moves`
    orders its moves."""
    board, size = pos.board, pos.board.m + pos.board.n
    best = _semantic_records(pos)
    order = sorted(best, key=lambda d: profile_order(word_of_diagram(board, d), size))
    return tuple(best[diagram] for diagram in order)


def options_semantic(pos: MhrgPosition) -> set[MhrgPosition]:
    """Option set by the rule book."""
    return {record.result for record in _semantic_records(pos).values()}


def options_cross_check(pos: MhrgPosition) -> set[MhrgPosition]:
    """Run both engines and fail loudly on any divergence."""
    return _positions(pos.board, _word_options_fn(pos.board, "cross-check")(pos.encode()))


def _word_options_fn(board: BoardParams, engine: str) -> Callable[[int], set[int]]:
    """Word options function of ``engine`` on ``board``: the bead-word rule,
    or, on ``cross-check``, that rule compared at every word with the rule
    book read through words."""
    if engine not in ENGINES:
        raise DomainError(f"unknown engine {engine!r}; choose from {ENGINES}")
    size = board.m + board.n
    if engine == "diagonal":
        return lambda word: word_options(word, size)

    def cross_check(word: int) -> set[int]:
        fast = word_options(word, size)
        pos = MhrgPosition(board, diagram_of_word(word))
        slow = {word_of_diagram(board, p.diagram) for p in options_semantic(pos)}
        if fast != slow:
            only_d = sorted(diagram_of_word(w).literal() for w in fast - slow)
            only_s = sorted(diagram_of_word(w).literal() for w in slow - fast)
            raise EngineInvariantError(
                f"engines diverge at {diagram_of_word(word).literal()} on "
                f"{board.m}x{board.n}: diagonal-only {only_d}, semantic-only {only_s}"
            )
        return fast

    return cross_check


def _closure(start: Hashable, options: Callable[[Hashable], Iterable[Hashable]]) -> set:
    seen = {start}
    stack = [start]
    while stack:
        for child in options(stack.pop()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def reachable_words(board: BoardParams, engine: str = "diagonal") -> set[int]:
    """Bead words of every position reachable from the full rectangle."""
    return _closure(start_position(board).encode(), _word_options_fn(board, engine))


def reachable(board: BoardParams, engine: str = "diagonal") -> set[MhrgPosition]:
    """Positions reachable from the full rectangle (the game's position set)."""
    return _positions(board, reachable_words(board, engine))


def solve(
    board: BoardParams,
    diagram: YoungDiagram | None = None,
    engine: str = "diagonal",
) -> tuple[int, dict[int, int]]:
    """Game value of ``diagram`` (default: the full rectangle) on ``board``.

    Returns the value together with a fresh memo, keyed by bead words
    (:meth:`MhrgPosition.encode`), that holds every position explored, so
    its size is the number explored.

    An in-game diagram (:func:`in_game`), the full rectangle included, is
    solved by valuing its subgame, the in-game words inside it, in
    increasing order by lines on either engine (:func:`_value_board`).
    That is exact: those words are the positions reachable from it (module
    docstring), and every option is a smaller word, so each is valued
    before the positions that move to it.  On ``cross-check`` an option
    that leaves that set or is not a smaller word raises
    :class:`EngineInvariantError`.  A diagram outside the game is solved by
    the depth-first search below it (:func:`grundy`), which explores only
    the positions it reaches.
    """
    m, n = board.m, board.n
    options = _word_options_fn(board, engine)
    pos = start_position(board) if diagram is None else MhrgPosition(board, diagram)
    word = pos.encode()
    memo: dict[int, int] = {}
    if mirror_free(word, m + n):
        _value_board(board, word, memo, engine)
        return memo[word], memo
    return grundy(word, options, memo), memo


def _value_board(board: BoardParams, bound: int, memo: dict[int, int], engine: str) -> None:
    """Value the subgame of the in-game word ``bound`` on ``board``, its
    words listed increasing (:func:`_words_inside`), into ``memo`` by lines
    (:func:`_value_in_order`), keeping the values it holds; for ``bound``
    the start, the whole board.  On ``cross-check`` each word the sweep
    valued is then checked, increasing, against its checked options: the
    smallest option that is not a smaller valued word, or a line value
    other than the ``mex`` of its options' values, raises
    :class:`EngineInvariantError`.  As every option is checked below its
    word, the line values then equal the values by options, word by word."""
    options = _word_options_fn(board, engine)
    size = board.m + board.n
    words = _words_inside(bound, size)
    swept = [w for w, _, _ in words if w not in memo] if engine == "cross-check" else []
    _value_in_order(words, bound, size, memo)
    for w in swept:
        opts = options(w)
        late = [o for o in opts if not (o < w and o in memo)]
        if late:
            raise EngineInvariantError(f"option {min(late)!r} of {w!r} is not valued before it")
        by_options = mex(map(memo.__getitem__, opts))
        if memo[w] != by_options:
            raise EngineInvariantError(
                f"values diverge at {diagram_of_word(w).literal()} on "
                f"{board.m}x{board.n}: {memo[w]} by lines, {by_options} by options"
            )


def _class_of(board: BoardParams) -> tuple[int, int]:
    """Class of ``board`` as ``(m, d)``: the class ``(m, k)`` of the module
    docstring with ``d = k - m``, whose words are those of ``m x (m + 2d)``."""
    return board.m, (board.n - board.m) // 2


def _class_chain(d: int, top_m: int, engine: str = "diagonal") -> Iterator[dict[int, int]]:
    """Value tables of the classes ``(m, d)`` (:func:`_class_of`) for ``m =
    1 .. top_m``, in turn.  Each values every position of ``m x (m + 2d)``,
    keyed by bead word, and the chain drops it once the next is built.

    A word with bit 0 set holds the inert coin ``-k`` (module docstring),
    so its value is that of ``w >> 1`` in the previous class's table, whose
    words ``w`` give all of them as ``w << 1 | 1``; the class ``(0, d)`` has
    the one empty word, of value 0.  The other words are valued in
    increasing order by lines (:func:`_value_board`); on ``cross-check`` an
    option that is neither an inert-coin word nor a smaller word raises
    :class:`EngineInvariantError`."""
    table = {0: 0}
    for m in range(1, top_m + 1):
        n = m + 2 * d
        table = {w << 1 | 1: value for w, value in table.items()}
        _value_board(BoardParams(m, n), ((1 << m) - 1) << n, table, engine)
        yield table


def class_costs(boards: Iterable[BoardParams]) -> Iterator[int]:
    """Entries of the class tables :func:`start_values` builds for
    ``boards``, board by board, each table capped like :func:`search_cost`:
    the classes of a board's chain that no earlier board's chain holds.
    Lazy, so a range of a billion boards is sized by its first few."""
    swept: dict[int, int] = {}  # diagonal d -> classes 1..swept[d] counted
    for board in boards:
        m, d = _class_of(board)
        for j in range(swept.get(d, 0) + 1, m + 1):
            yield search_cost(BoardParams(j, j + 2 * d))
        swept[d] = max(swept.get(d, 0), m)


def start_values(boards: Iterable[BoardParams], engine: str = "diagonal") -> dict[BoardParams, int]:
    """Starting value of each of ``boards``, valuing each class once.

    The boards' classes ``(m, d)`` (:func:`_class_of`) are valued along
    each diagonal ``d`` by :func:`_class_chain`, up to the largest ``m``
    asked for on it; only the table the next class reads is kept.  A
    class's start word, all ``m`` beads on the top bits of ``m x (m + 2d)``,
    is the start of each board in it.

    For one board a chain values as many words as :func:`solve` does (the
    classes' bit-0-clear words add up to the top class's words, less the
    empty one), and walks the lines of its inert-coin words besides, so
    :func:`solve` keeps its own sweep; the chain saves work when boards
    share classes or chains."""
    boards = list(boards)
    top: dict[int, int] = {}
    for board in boards:
        m, d = _class_of(board)
        top[d] = max(top.get(d, 0), m)
    starts = {}
    for d, top_m in top.items():
        for m, table in enumerate(_class_chain(d, top_m, engine), start=1):
            starts[m, d] = table[((1 << m) - 1) << (m + 2 * d)]
    return {board: starts[_class_of(board)] for board in boards}
