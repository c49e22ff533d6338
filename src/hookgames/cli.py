"""Command-line surface: value queries, table regeneration, reachable-set
dumps, option listing, verification runs, and a terminal play mode.

Exit codes: 0 for success or PASS, 1 for a verification FAIL, 2 for usage
errors (bad flags, unparsable literals, work past the search budget, a
range that checks nothing, or an ``--out`` or a stdout that cannot be
written).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import IO, Callable, Iterable, Iterator, Sequence

from . import closedforms, isomorphisms, mhrg
from .diagrams import BoardParams, HookRecord, YoungDiagram, _label_grid, _require_fit, check_sides
from .errors import DomainError, EngineInvariantError
from .grundy import check_budget

# Isomorphism verifications: the range function and the one flag it takes.
ISO_VERIFIERS = {
    "widen": (isomorphisms.verify_widening_range, "max_side"),
    "shifted": (isomorphisms.verify_staircase_range, "n"),
}
ALL_VERIFY_IDS = closedforms.VERIFY_IDS + tuple(ISO_VERIFIERS)


def _write(output: str, out: str | None = None) -> None:
    """Write ``output`` to the file ``out``, or to stdout.  A file or a
    stdout that cannot be written is a usage error; stdout is flushed here,
    so its failure is caught too.  A failed stdout is then pointed at the
    null device: the flush at exit would retry the bytes its buffer keeps,
    fail again and exit 120."""
    try:
        if out is None:
            sys.stdout.write(output)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.write(output)
    except OSError as exc:
        if out is not None:
            raise DomainError(f"cannot write {out}: {exc.strerror}") from None
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise DomainError(f"cannot write stdout: {exc.strerror}") from None


def _emit(args, json_text: Callable[[], str], text: Callable[[], str]) -> None:
    """Write a command's output to ``--out`` or stdout (:func:`_write`):
    ``json_text()`` under ``--format json``, else ``text()``.  Only the
    printed one is built."""
    _write(json_text() if args.format == "json" else text(), args.out)


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _lines(lines: Iterable[str]) -> str:
    return "".join(line + "\n" for line in lines)


def _board_and_diagram(
    args, what: str, cost: Callable[[BoardParams, YoungDiagram | None], int]
) -> tuple[BoardParams, YoungDiagram]:
    """Build the board, transposing when more rows than columns are given
    (with a note on stderr once the input is accepted), and refuse ``what``
    when ``cost(board, diagram)`` passes the search budget.  The start
    (``diagram=None``) costs least, so it is checked before any diagram is
    transposed or built.  A board or diagram that does not fit is reported
    as given."""
    m, n = args.m, args.n
    literal = getattr(args, "diagram", None)
    diagram = YoungDiagram.parse(literal) if literal is not None else None
    check_sides(m, n)
    board = BoardParams(min(m, n), max(m, n))
    if diagram is not None and (diagram.height > m or diagram.width > n):
        raise DomainError(
            f"diagram {diagram.literal()} does not fit a {m}x{n} board"
        )
    what = f"{what} on {m}x{n}"
    check_budget(what, [cost(board, None)])
    if diagram is None:
        diagram = YoungDiagram((board.n,) * board.m)
    else:
        if m > n:
            diagram = diagram.conjugate()
        check_budget(what, [cost(board, diagram)])
    if m > n:
        print(f"note: transposed input to the {board.m}x{board.n} board", file=sys.stderr)
    return board, diagram


def _in_game(board: BoardParams, diagram: YoungDiagram, engine: str) -> bool:
    """Reachability of ``diagram`` from its bead word; on ``cross-check``
    the rule-book move closure must agree."""
    in_game = mhrg.in_game(board, diagram)
    if engine == "cross-check":
        word = mhrg.word_of_diagram(board, diagram)
        if (word in mhrg.reachable_words(board, engine=engine)) != in_game:
            raise EngineInvariantError(
                f"reachability of {diagram.literal()} on {board.m}x{board.n}: "
                f"move closure says {not in_game}, bead word says {in_game}"
            )
    return in_game


def cmd_grundy(args) -> int:
    board, diagram = _board_and_diagram(args, "exhaustive solving", mhrg.search_cost)
    value, memo = mhrg.solve(board, diagram, engine=args.engine)
    in_game = _in_game(board, diagram, args.engine)
    if not in_game:
        print(
            "warning: position is not reachable from the full rectangle",
            file=sys.stderr,
        )
    _emit(
        args,
        lambda: _json({
            "board": [board.m, board.n],
            "diagram": diagram.literal(),
            "grundy": value,
            "explored": len(memo),
            "reachable": in_game,
            "engine": args.engine,
        }),
        lambda: f"G({diagram.literal()} in {board.m}x{board.n}) = {value}"
        f"  [{len(memo)} positions explored]\n",
    )
    return 0


def cmd_table(args) -> int:
    grid = closedforms.grundy_table(args.max_m, args.max_n, engine=args.engine)

    def text() -> str:
        if args.format == "csv":
            return closedforms.table_csv(grid)
        width = max(len(str(v)) for row in grid for v in row)
        lines = ["m\\n " + " ".join(f"{n:>{width}}" for n in range(1, args.max_n + 1))]
        for m, row in enumerate(grid, start=1):
            lines.append(f"{m:>3} " + " ".join(f"{v:>{width}}" for v in row))
        return _lines(lines)

    _emit(args, lambda: _json({"max_m": args.max_m, "max_n": args.max_n, "values": grid}), text)
    return 0


def cmd_reachable(args) -> int:
    board, _ = _board_and_diagram(args, "reachable-set enumeration", mhrg.search_cost)
    size = board.m + board.n
    words = mhrg.reachable_words(board, engine=args.engine)
    words = sorted(words, key=lambda word: mhrg.profile_order(word, size))
    literals = [mhrg.diagram_of_word(word).literal() for word in words]
    _emit(
        args,
        lambda: _json(
            {"board": [board.m, board.n], "count": len(literals), "positions": literals}
        ),
        lambda: _lines([*literals, f"# {len(literals)} positions"]),
    )
    return 0


_Move = tuple[HookRecord, HookRecord | None, YoungDiagram]


def _moves(board: BoardParams, diagram: YoungDiagram, engine: str) -> list[_Move]:
    """The moves ``options`` lists as (first hook, forced hook or ``None``,
    result), straight from the bead-word decoder, each result checked as
    :class:`mhrg.MhrgPosition` checks it.  On ``cross-check`` the rule
    book's records must equal them."""
    word = mhrg.word_of_diagram(board, diagram)
    moves = [
        (first, second, _require_fit(board, mhrg.diagram_of_word(final)))
        for first, second, final in mhrg._decode_moves(board, word)
    ]
    if engine == "cross-check":
        records = mhrg.moves_semantic(mhrg.MhrgPosition(board, diagram))
        if [(r.first, r.second, r.result.diagram) for r in records] != moves:
            raise EngineInvariantError(
                f"move records diverge at {diagram.literal()} on {board.m}x{board.n}"
            )
    return moves


def _move_lines(moves: Sequence[_Move]) -> Iterator[str]:
    for first, second, result in moves:
        labels = ",".join(map(str, first.labels))
        text = f"box {first.corner} hook [{first.lo},{first.hi}] labels {{{labels}}}"
        if second is not None:
            text += f" then forced box {second.corner} hook [{second.lo},{second.hi}]"
        yield text + f" -> {result.literal()}"


# The ``options`` payload as ``json.dumps(payload, indent=2, sort_keys=True)``
# lays it out: keys sorted, one value per line.
_LISTING = """{
  "board": [
    %d,
    %d
  ],
  "diagram": "%s",
  "moves": %s
}
"""
_PLAIN = """{
      "corner": [
        %d,
        %d
      ],
      "forced": null,
      "interval": [
        %d,
        %d
      ],
      "labels": [
        %s
      ],
      "result": "%s"
    }"""
_FORCED = _PLAIN.replace("null", """{
        "corner": [
          %d,
          %d
        ],
        "interval": [
          %d,
          %d
        ]
      }""")


def _options_json(board: BoardParams, diagram: YoungDiagram, moves: Sequence[_Move]) -> str:
    """The ``options`` payload exactly as ``json.dumps(payload, indent=2,
    sort_keys=True) + "\n"`` writes it, without the pure-Python encoder that
    ``indent`` forces: one template per move shape, plain or forced.
    Diagram literals hold only digits, commas and ``-``, so they need no
    escaping."""
    listing = []
    for first, second, result in moves:
        (i, j), lo, hi = first.corner, first.lo, first.hi
        labels = ",\n        ".join(map(str, first.labels))
        if second is None:
            listing.append(_PLAIN % (i, j, lo, hi, labels, result.literal()))
        else:
            forced = (*second.corner, second.lo, second.hi)
            listing.append(_FORCED % (i, j, *forced, lo, hi, labels, result.literal()))
    text = "[\n    " + ",\n    ".join(listing) + "\n  ]" if listing else "[]"
    return _LISTING % (board.m, board.n, diagram.literal(), text)


def cmd_options(args) -> int:
    # The bead-word rule examines one hook per box; the rule book compares
    # each with the remaining hooks of its length.
    power = 1 if args.engine == "diagonal" else 2
    board, diagram = _board_and_diagram(args, "move listing", lambda board, _: board.cells**power)
    moves = _moves(board, diagram, args.engine)
    _emit(
        args,
        lambda: _options_json(board, diagram, moves),
        lambda: _lines([*_move_lines(moves), f"# {len(moves)} moves"]),
    )
    return 0


def cmd_verify(args) -> int:
    given = {key: getattr(args, key) for key in ("max_m", "max_n", "n", "max_side")}
    params = {key: value for key, value in given.items() if value is not None}
    if args.theorem in ISO_VERIFIERS:
        verify_range, key = ISO_VERIFIERS[args.theorem]
        extra = sorted(params.keys() - {key})
        if extra:
            raise DomainError(f"{args.theorem} does not take parameter {extra[0]!r}")
        reports = verify_range(params[key]) if key in params else verify_range()
    else:
        reports = [closedforms.verify(args.theorem, **params)]
    _emit(
        args,
        lambda: _json([r.to_json() for r in reports]),
        lambda: _lines(r.summary() for r in reports),
    )
    return 0 if all(r.passed for r in reports) else 1


def _render_position(board: BoardParams, diagram: YoungDiagram) -> str:
    """The diagram's boxes, each shown as its label, row by row."""
    by_row, _ = _label_grid(board)
    lines = ["  " + " ".join(map(str, by_row[i][:row])) for i, row in enumerate(diagram.rows)]
    return "\n".join(lines) if lines else "  (empty)"


def cmd_play(args, stdin: IO[str] | None = None) -> int:
    """Alternate the player's box (:func:`mhrg._move_of_box`) with the
    engine's reply: a move to a 0-valued option when one exists, else the
    first move in canonical order.  The memo holds every position reachable
    from the full rectangle, which includes every option met."""
    stream = stdin if stdin is not None else sys.stdin
    board, diagram = _board_and_diagram(args, "playing against the engine", mhrg.search_cost)
    _, memo = mhrg.solve(board)
    _write(_lines([f"Hook removal on the {board.m}x{board.n} board. You move first.",
                   "Enter a box as 'i j' (row column), or 'q' to quit."]))
    while True:
        _write(_render_position(board, diagram) + "\nyour move> ")
        line = stream.readline()
        if not line or line.strip().lower() in ("q", "quit"):
            _write("bye\n")
            return 0
        parts = line.split()
        try:
            if len(parts) != 2:
                raise DomainError("enter two integers: row column")
            first, second, word = mhrg._move_of_box(board, diagram, int(parts[0]), int(parts[1]))
        except (ValueError, DomainError) as exc:
            _write(f"illegal move ({exc}); try again\n")
            continue
        diagram = _require_fit(board, mhrg.diagram_of_word(word))
        labels = ",".join(map(str, first.labels))
        forced = "" if second is None else (
            f"forced second removal at {second.corner}: a hook with "
            "the same labels remained and must be removed too\n"
        )
        _write(f"you removed the hook at {first.corner}, labels {{{labels}}}\n{forced}"
               f"position now {diagram.literal()}\n")
        if diagram.n_boxes == 0:
            _write("you emptied the board: you win\n")
            return 0
        moves = mhrg._decode_moves(board, word)
        first, second, word = next((move for move in moves if memo.get(move[2]) == 0), moves[0])
        diagram = _require_fit(board, mhrg.diagram_of_word(word))
        forced = "" if second is None else f" with forced second removal at {second.corner}"
        _write(f"engine removes the hook at {first.corner}{forced} -> {diagram.literal()}\n")
        if diagram.n_boxes == 0:
            _write("engine emptied the board: engine wins\n")
            return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, each call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="hookgames",
        description="Exact analysis of hook-removal games on boxed Young diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_board(p, diagram=False):
        p.add_argument("-m", type=int, required=True, help="rows of the board")
        p.add_argument("-n", type=int, required=True, help="columns of the board")
        if diagram:
            p.add_argument(
                "--diagram",
                help="comma-separated row lengths, '-' for empty "
                "(default: the full rectangle)",
            )

    def add_common(p, formats=("pretty", "json")):
        p.add_argument("--format", choices=formats, default="pretty")
        p.add_argument("--out", help="write output to this file")
        p.add_argument(
            "--engine",
            choices=mhrg.ENGINES,
            default="diagonal",
            help="move engine: the bead-word rule, or that rule checked by the rule book",
        )

    p = sub.add_parser("grundy", help="game value of a position")
    add_board(p, diagram=True)
    add_common(p)
    p.set_defaults(func=cmd_grundy)

    p = sub.add_parser("table", help="grid of starting values")
    p.add_argument("--max-m", type=int, default=9, dest="max_m")
    p.add_argument("--max-n", type=int, default=9, dest="max_n")
    add_common(p, formats=("pretty", "csv", "json"))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("reachable", help="dump every reachable position")
    add_board(p)
    add_common(p)
    p.set_defaults(func=cmd_reachable)

    p = sub.add_parser("options", help="list the legal moves of a position")
    add_board(p, diagram=True)
    add_common(p)
    p.set_defaults(func=cmd_options)

    p = sub.add_parser("verify", help="machine-check a closed form or map")
    p.add_argument("theorem", choices=ALL_VERIFY_IDS)
    p.add_argument("--max-m", type=int, dest="max_m")
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--n", type=int, dest="n")
    p.add_argument("--max-side", type=int, dest="max_side")
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("play", help="play against the engine in the terminal")
    add_board(p)
    p.set_defaults(func=cmd_play)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
