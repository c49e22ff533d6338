"""Structure-preserving maps between the games, and a generic verifier.

Three maps matter, all on bead words (``mhrg``) and staircase bead masks
(``shifted``):

* widening: inserting a hole into a position's bead word at bit
  ``(n - m) / 2 + m`` carries the game on an ``m x n`` board (``m + n``
  even) to the game on ``m x (n+1)`` (:func:`widen_word`);
* halving: on an ``n x (n+1)`` board every reachable position is
  symmetric (:func:`is_symmetric`), and the top ``n`` bits of its bead
  word are the bead mask of a shifted diagram in the size-``n`` staircase
  (:func:`halve_word`, and :func:`to_shifted` on positions);
* mirroring a staircase mask back into a symmetric word, the inverse of
  halving (:func:`from_shifted`).

``verify_isomorphism`` is data-driven (two position sets, two options
functions, one forward map) so a single verifier machine-checks all of
them: bijectivity, option preservation, and game-value transport.  It and
the closed-form checks of ``closedforms`` report through one type,
:class:`Report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Hashable, Iterator, TypeVar

from .diagrams import BoardParams
from .errors import DomainError
from .grundy import capped_pow2, check_budget, grundy
from .mhrg import (
    MhrgPosition, _reversed, diagram_of_word, reachable_words, search_cost, word_options
)
from .shifted import ShiftedDiagram, hrg_word_options

S = TypeVar("S")
T = TypeVar("T")


def is_symmetric(word: int, m: int, n: int) -> bool:
    """Whether the diagram of ``word`` on the ``m x n`` board is symmetric:
    it has as many boxes on diagonal ``i`` as on ``n - m - i``, for every
    ``i``.  In bead words: the word and its reversal differ on exactly the
    bits ``0 .. m - 1`` and ``n .. m + n - 1``."""
    low = (1 << m) - 1
    return word ^ _reversed(word, m + n) == low | low << n


def to_shifted(pos: MhrgPosition) -> ShiftedDiagram:
    """The shifted diagram in the size-``n`` staircase that halving maps a
    symmetric position on an ``n x (n+1)`` board to."""
    board = pos.board
    if board.n != board.m + 1:
        raise DomainError(
            f"map needs an n x (n+1) board, got {board.m}x{board.n}"
        )
    word = pos.encode()
    if not is_symmetric(word, board.m, board.n):
        raise DomainError(
            f"position {pos.diagram.literal()} on {board.m}x{board.n} is not symmetric"
        )
    return ShiftedDiagram.from_mask(halve_word(word, board.m))


def from_shifted(diagram: ShiftedDiagram, n: int) -> MhrgPosition:
    """The symmetric position on the ``n x (n+1)`` board whose word has the
    bead mask of ``diagram`` on its top ``n`` bits, a hole in the middle and
    the mirror image of that mask's holes below; inverse of
    :func:`to_shifted`."""
    if not diagram.fits(n):
        raise DomainError(f"{diagram.literal()} does not fit the size-{n} staircase")
    board = BoardParams(n, n + 1)
    mask = diagram.mask()
    word = (mask << (n + 1)) | (_reversed(mask, n) ^ ((1 << n) - 1))
    return MhrgPosition(board, diagram_of_word(word))


@dataclass
class Report:
    """Machine-checked evidence for one claim: a closed form or a map.

    ``head`` holds the JSON fields that name the claim, ``title`` the
    summary line's text before the count, and ``unit`` what is counted.
    ``findings`` are plain dicts listed under ``key`` in JSON
    (``"mismatches"`` or ``"violations"``); they are report content, not
    errors, and an empty list means PASS.
    """

    head: dict[str, object]
    title: str
    unit: str
    key: str
    checked: int = 0
    findings: list[dict[str, object]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.findings

    def to_json(self) -> dict[str, object]:
        return {
            **self.head,
            "checked": self.checked,
            self.key: [dict(finding) for finding in self.findings],
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.title} {self.checked} {self.unit}, "
            f"{len(self.findings)} {self.key}"
        )


def verify_isomorphism(
    name: str,
    source: str,
    target: str,
    forward: Callable[[S], T],
    source_positions: Collection[S],
    target_positions: Collection[T],
    source_options: Callable[[S], Collection[S]],
    target_options: Callable[[T], Collection[T]],
    render_source: Callable[[S], str] = str,
    render_target: Callable[[T], str] = str,
) -> Report:
    """Check that ``forward``, the map ``name`` from the game ``source`` to
    the game ``target``, is a game isomorphism on the given sets.

    Establishes, with a witness for every failure: (i) the map is a
    bijection between the position sets, (ii) it commutes with option
    taking, and (iii) game values transport along it.  Witnesses show
    source positions through ``render_source`` and target positions through
    ``render_target``.

    Each position's option set is made once and serves both the comparison
    and its value.  When the positions come with every option before its
    position, as the verifiers below list them, the values are read from
    the memos with no further option sets made.
    """
    report = Report(
        {"map": name, "source": source, "target": target},
        f"{name}: {source} -> {target},",
        "positions",
        "violations",
        len(source_positions),
    )
    violations = report.findings

    images: dict[Hashable, S] = {}
    targets = set(target_positions)
    for pos in source_positions:
        image = forward(pos)
        if image in images:
            violations.append(
                {
                    "kind": "not-injective",
                    "first": render_source(images[image]),
                    "second": render_source(pos),
                    "image": render_target(image),
                }
            )
            continue
        images[image] = pos
        if image not in targets:
            violations.append(
                {
                    "kind": "image-outside-target",
                    "source": render_source(pos),
                    "image": render_target(image),
                }
            )
    for target in target_positions:
        if target not in images:
            violations.append({"kind": "target-not-covered", "target": render_target(target)})

    memo_s: dict[S, int] = {}
    memo_t: dict[T, int] = {}
    for pos in source_positions:
        image = forward(pos)
        options_s, options_t = source_options(pos), target_options(image)
        expected = {forward(child) for child in options_s}
        actual = set(options_t)
        if expected != actual:
            violations.append(
                {
                    "kind": "options-mismatch",
                    "source": render_source(pos),
                    "missing": sorted(
                        render_target(k) for k in expected - actual if k in targets
                    ),
                    "extra": sorted(render_target(k) for k in actual - expected),
                }
            )
            continue
        value_s = grundy(pos, _made(pos, options_s, source_options), memo_s)
        value_t = grundy(image, _made(image, options_t, target_options), memo_t)
        if value_s != value_t:
            violations.append(
                {
                    "kind": "value-mismatch",
                    "source": render_source(pos),
                    "source_value": value_s,
                    "target_value": value_t,
                }
            )
    return report


def _made(pos: Hashable, made: Collection, options: Callable) -> Callable:
    """``options``, answering ``pos`` with its set ``made`` already."""
    return lambda p: made if p == pos else options(p)


def widen_word(word: int, m: int, n: int) -> int:
    """Widening on bead words: insert a hole at bit ``(n - m) / 2 + m`` of a
    word on the ``m x n`` board, giving a word on ``m x (n+1)``.  On the
    diagram this repeats the centre diagonal ``(n - m) / 2``."""
    slot = (n - m) // 2 + m
    return (word & ((1 << slot) - 1)) | ((word >> slot) << (slot + 1))


def halve_word(word: int, n: int) -> int:
    """Halving on bead words: the top ``n`` bits of a word on the
    ``n x (n+1)`` board, read as a staircase bead mask."""
    return word >> (n + 1)


# A check costs the positions of both games it closes and solves.
def _widening_cost(m: int, n: int) -> int:
    return search_cost(BoardParams(m, n)) + search_cost(BoardParams(m, n + 1))


def _halving_cost(n: int) -> int:
    return search_cost(BoardParams(n, n + 1)) + capped_pow2(n)  # the staircase's 2**n masks


def verify_widening(m: int, n: int) -> Report:
    """Machine-check that widening is an isomorphism from the game on the
    ``m x n`` board to the game on ``m x (n+1)``.  Needs a board
    (``1 <= m <= n``) with ``m + n`` even."""
    source, target = BoardParams(m, n), BoardParams(m, n + 1)
    if (m + n) % 2:
        raise DomainError(f"widening needs m + n even, got ({m}, {n})")
    check_budget(f"widening verification of {m}x{n}", [_widening_cost(m, n)])
    return verify_isomorphism(
        f"widen {m}x{n}->{m}x{n + 1}",
        f"mhrg {m}x{n}",
        f"mhrg {m}x{n + 1}",
        lambda word: widen_word(word, m, n),
        sorted(reachable_words(source)),
        sorted(reachable_words(target)),
        lambda word: word_options(word, m + n),
        lambda word: word_options(word, m + n + 1),
        lambda word: diagram_of_word(word).literal(),
        lambda word: diagram_of_word(word).literal(),
    )


def _widening_boards(max_side: int) -> Iterator[tuple[int, int]]:
    """Every ``1 <= m <= n <= max_side`` with ``m + n`` even, lazily."""
    return ((m, n) for m in range(1, max_side + 1) for n in range(m, max_side + 1, 2))


def verify_widening_range(max_side: int = 8) -> list[Report]:
    """Widening reports for every ``m <= n <= max_side`` with ``m + n`` even.
    A range past the search budget, or empty, is refused before any board
    is checked."""
    check_budget(
        f"widening verification for sides in 1..{max_side}",
        (_widening_cost(m, n) for m, n in _widening_boards(max_side)),
    )
    return [verify_widening(m, n) for m, n in _widening_boards(max_side)]


def verify_staircase_iso(n: int) -> Report:
    """Machine-check that halving is an isomorphism from the game on the
    ``n x (n+1)`` board (``n >= 1``) to hook removal on the size-``n``
    staircase."""
    if n < 1:
        raise DomainError(f"staircase isomorphism verification needs n >= 1, got {n}")
    board = BoardParams(n, n + 1)
    check_budget(f"staircase isomorphism verification of {n}x{n + 1}", [_halving_cost(n)])
    return verify_isomorphism(
        f"halve {n}x{n + 1}->staircase-{n}",
        f"mhrg {n}x{n + 1}",
        f"hrg staircase-{n}",
        lambda word: halve_word(word, n),
        sorted(reachable_words(board)),
        range(1 << n),
        lambda word: word_options(word, 2 * n + 1),
        lambda mask: hrg_word_options(mask, n),
        lambda word: diagram_of_word(word).literal(),
        lambda mask: ShiftedDiagram.from_mask(mask).literal(),
    )


def verify_staircase_range(max_n: int = 7) -> list[Report]:
    """Staircase reports for every ``1 <= n <= max_n``.  A range past the
    search budget, or empty, is refused before any board is checked."""
    check_budget(
        f"staircase isomorphism verification for n in 1..{max_n}",
        map(_halving_cost, range(1, max_n + 1)),
    )
    return [verify_staircase_iso(n) for n in range(1, max_n + 1)]
