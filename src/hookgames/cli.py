"""Command-line surface: value queries, table regeneration, reachable-set
dumps, option listing, verification runs, and a terminal play mode.

Exit codes: 0 for success or PASS, 1 for a verification FAIL, 2 for usage
errors (bad flags, unparsable literals, ranges beyond the configured
bounds).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import IO, Sequence

from . import closedforms, isomorphisms, mhrg
from .diagrams import (
    BoardParams,
    YoungDiagram,
    diagonal_of,
    transpose_position,
    unimodal_number,
)
from .errors import DomainError, EngineInvariantError
from .grundy import GrundyMemo

MAX_SOLVE_CELLS = 81  # exhaustive solving is desk scale only

# Isomorphism verifications: the range function, the one parameter it
# takes and that parameter's default.
ISO_VERIFIERS = {
    "widen": (isomorphisms.verify_widening_range, "max_side", isomorphisms.WIDEN_MAX_SIDE),
    "shifted": (isomorphisms.verify_staircase_range, "n", isomorphisms.STAIRCASE_ISO_MAX_N),
}
ALL_VERIFY_IDS = closedforms.VERIFY_IDS + tuple(ISO_VERIFIERS)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _board_and_diagram(args) -> tuple[BoardParams, YoungDiagram, bool]:
    """Build the board, transposing when more rows than columns are given."""
    m, n = args.m, args.n
    literal = getattr(args, "diagram", None)
    rows = YoungDiagram.parse(literal).rows if literal is not None else None
    transposed = m > n
    if transposed:
        if rows is None:
            m, n = n, m
        else:
            m, n, rows = transpose_position(m, n, rows)
    board = BoardParams(m, n)
    diagram = YoungDiagram(rows) if rows is not None else YoungDiagram((n,) * m)
    if not diagram.fits(board):
        raise DomainError(
            f"diagram {diagram.literal()} does not fit a {m}x{n} board"
        )
    return board, diagram, transposed


def _require_solvable(board: BoardParams, what: str) -> None:
    if board.cells > MAX_SOLVE_CELLS:
        raise DomainError(
            f"{what} is bounded at {MAX_SOLVE_CELLS} cells, got {board.cells}"
        )


def _in_game(board: BoardParams, diagram: YoungDiagram, engine: str) -> bool:
    """Reachability of ``diagram``: from its bead word on the ``diagonal``
    engine, from the rule-book move closure on ``semantic``, and from both
    on ``cross-check``, where they must agree."""
    if engine == "diagonal":
        return mhrg.in_game(board, diagram)
    via_closure = diagonal_of(board, diagram).encode() in mhrg.reachable_profiles(
        board, engine=engine
    )
    if engine == "cross-check" and via_closure != mhrg.in_game(board, diagram):
        raise EngineInvariantError(
            f"reachability of {diagram.literal()} on {board.m}x{board.n}: "
            f"move closure says {via_closure}, bead word says {not via_closure}"
        )
    return via_closure


def cmd_grundy(args) -> int:
    board, diagram, transposed = _board_and_diagram(args)
    _require_solvable(board, "exhaustive solving")
    value, memo = mhrg.solve(board, diagram, engine=args.engine)
    in_game = _in_game(board, diagram, args.engine)
    if transposed:
        print(
            f"note: transposed input to the {board.m}x{board.n} board",
            file=sys.stderr,
        )
    if not in_game:
        print(
            "warning: position is not reachable from the full rectangle",
            file=sys.stderr,
        )
    if args.format == "json":
        payload = {
            "board": [board.m, board.n],
            "diagram": diagram.literal(),
            "grundy": value,
            "explored": len(memo),
            "reachable": in_game,
            "engine": args.engine,
        }
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write(
            f"G({diagram.literal()} in {board.m}x{board.n}) = {value}"
            f"  [{len(memo)} positions explored]\n",
            args.out,
        )
    return 0


def cmd_table(args) -> int:
    grid = closedforms.grundy_table(args.max_m, args.max_n, engine=args.engine)
    if args.format == "csv":
        _write(closedforms.table_csv(grid), args.out)
    elif args.format == "json":
        payload = {"max_m": args.max_m, "max_n": args.max_n, "values": grid}
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        width = max(len(str(v)) for row in grid for v in row)
        lines = ["m\\n " + " ".join(f"{n:>{width}}" for n in range(1, args.max_n + 1))]
        for m, row in enumerate(grid, start=1):
            lines.append(f"{m:>3} " + " ".join(f"{v:>{width}}" for v in row))
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_reachable(args) -> int:
    board, _, transposed = _board_and_diagram(args)
    _require_solvable(board, "reachable-set enumeration")
    if transposed:
        print(
            f"note: transposed input to the {board.m}x{board.n} board",
            file=sys.stderr,
        )
    m, size = board.m, board.m + board.n
    literals = [
        mhrg.diagram_of_word(mhrg.word_of_profile(p, m), size).literal()
        for p in sorted(mhrg.reachable_profiles(board, engine=args.engine))
    ]
    if args.format == "json":
        payload = {
            "board": [board.m, board.n],
            "count": len(literals),
            "positions": literals,
        }
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write("\n".join(literals) + f"\n# {len(literals)} positions\n", args.out)
    return 0


def _move_lines(records) -> list[str]:
    lines = []
    for record in records:
        first = record.first
        text = (
            f"box {first.corner} hook [{first.lo},{first.hi}] "
            f"labels {{{','.join(str(x) for x in first.label_list())}}}"
        )
        if record.second is not None:
            text += (
                f" then forced box {record.second.corner} "
                f"hook [{record.second.lo},{record.second.hi}]"
            )
        text += f" -> {record.result.diagram.literal()}"
        lines.append(text)
    return lines


def cmd_options(args) -> int:
    board, diagram, transposed = _board_and_diagram(args)
    if args.engine != "diagonal":
        # For each box, the rule-book engine compares the hook it removes
        # with every remaining hook of the same length.
        _require_solvable(board, "rule-book move listing")
    if transposed:
        print(
            f"note: transposed input to the {board.m}x{board.n} board",
            file=sys.stderr,
        )
    pos = mhrg.MhrgPosition(board, diagram)
    if args.engine == "semantic":
        records = mhrg.moves_semantic(pos)
    elif args.engine == "cross-check":
        mhrg.options_cross_check(pos)
        records = mhrg.moves_diagonal(pos)
    else:
        records = mhrg.moves_diagonal(pos)
    if args.format == "json":
        payload = {
            "board": [board.m, board.n],
            "diagram": diagram.literal(),
            "moves": [
                {
                    "corner": list(r.first.corner),
                    "interval": [r.first.lo, r.first.hi],
                    "labels": list(r.first.label_list()),
                    "forced": (
                        None
                        if r.second is None
                        else {
                            "corner": list(r.second.corner),
                            "interval": [r.second.lo, r.second.hi],
                        }
                    ),
                    "result": r.result.diagram.literal(),
                }
                for r in records
            ],
        }
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write("\n".join(_move_lines(records)) + f"\n# {len(records)} moves\n", args.out)
    return 0


def cmd_verify(args) -> int:
    given = {key: getattr(args, key) for key in ("max_m", "max_n", "n", "max_side")}
    params = {key: value for key, value in given.items() if value is not None}
    if args.theorem in ISO_VERIFIERS:
        verify_range, key, default = ISO_VERIFIERS[args.theorem]
        extra = sorted(params.keys() - {key})
        if extra:
            raise DomainError(f"{args.theorem} does not take parameter {extra[0]!r}")
        reports = verify_range(params.get(key, default))
    else:
        reports = [closedforms.verify(args.theorem, **params)]
    passed = all(r.passed for r in reports)
    if args.format == "json":
        payload = [r.to_json() for r in reports]
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write("".join(r.summary() + "\n" for r in reports), args.out)
    return 0 if passed else 1


def _render_position(board: BoardParams, diagram: YoungDiagram) -> str:
    lines = []
    for i in range(1, diagram.height + 1):
        labels = [
            str(unimodal_number(board, i, j))
            for j in range(1, diagram.rows[i - 1] + 1)
        ]
        lines.append("  " + " ".join(labels))
    return "\n".join(lines) if lines else "  (empty)"


def _engine_move(pos: mhrg.MhrgPosition, memo: GrundyMemo):
    """A value-optimal move: to a 0-valued option when one exists, else the
    first move in canonical order.  ``memo`` holds every position reachable
    from the full rectangle, which includes every option of ``pos``."""
    records = mhrg.moves_diagonal(pos)
    for record in records:
        if memo.get(record.result.encode()) == 0:
            return record
    return records[0]


def cmd_play(args, stdin: IO[str] | None = None) -> int:
    stream = stdin if stdin is not None else sys.stdin
    board = BoardParams(min(args.m, args.n), max(args.m, args.n))
    _require_solvable(board, "playing against the engine")
    pos = mhrg.start_position(board)
    _, memo = mhrg.solve(board)
    print(f"Hook removal on the {board.m}x{board.n} board. You move first.")
    print("Enter a box as 'i j' (row column), or 'q' to quit.")
    while True:
        print(_render_position(board, pos.diagram))
        print("your move> ", end="", flush=True)
        line = stream.readline()
        if not line or line.strip().lower() in ("q", "quit"):
            print("bye")
            return 0
        parts = line.split()
        try:
            if len(parts) != 2:
                raise DomainError("enter two integers: row column")
            i, j = int(parts[0]), int(parts[1])
            record = mhrg.move_for_box(pos, i, j)
        except (ValueError, DomainError) as exc:
            print(f"illegal move ({exc}); try again")
            continue
        first = record.first
        print(
            f"you removed the hook at {first.corner}, labels "
            f"{{{','.join(str(x) for x in first.label_list())}}}"
        )
        if record.second is not None:
            print(
                f"forced second removal at {record.second.corner}: a hook with "
                f"the same labels remained and must be removed too"
            )
        pos = record.result
        print(f"position now {pos.diagram.literal()}")
        if pos.diagram.n_boxes == 0:
            print("you emptied the board: you win")
            return 0
        engine_record = _engine_move(pos, memo)
        second_note = (
            f" with forced second removal at {engine_record.second.corner}"
            if engine_record.second is not None
            else ""
        )
        pos = engine_record.result
        print(
            f"engine removes the hook at {engine_record.first.corner}"
            f"{second_note} -> {pos.diagram.literal()}"
        )
        if pos.diagram.n_boxes == 0:
            print("engine emptied the board: engine wins")
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
            help="move engine: bead-word rule, rule-book engine, or both",
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
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
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
