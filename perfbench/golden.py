"""Regenerate ``golden.json``: start values and explored counts that the
benchmark's correctness oracle compares against.

Run from the repository root:  python3 perfbench/golden.py > perfbench/golden.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import hookgames as hg  # noqa: E402

from workloads import CROSS_CHECK_MAX_SIDE, DEEP_FAMILIES, QUERY_BOARDS, SAMPLE_BOARDS  # noqa: E402


def subgame_sizes(m: int, n: int) -> list[int]:
    """Positions reachable from each reachable position of ``m x n``
    (itself included), ordered by box count then rows, as the inputs are."""
    board = hg.BoardParams(m, n)
    positions = sorted(hg.reachable(board), key=lambda p: (p.diagram.n_boxes, p.diagram.rows))
    index = {p: i for i, p in enumerate(positions)}
    below = []  # bitset of each position's subgame; options have fewer boxes
    for i, pos in enumerate(positions):
        bits = 1 << i
        for child in hg.options_diagonal(pos):
            bits |= below[index[child]]
        below.append(bits)
    return [bin(bits).count("1") for bits in below]


def main() -> None:
    deep = {}
    for pair in DEEP_FAMILIES.values():
        for m, n in pair:
            value, memo = hg.solve(hg.BoardParams(m, n))
            deep[f"{m}x{n}"] = {"value": value, "explored": len(memo)}
    cross = {}
    for m in range(1, CROSS_CHECK_MAX_SIDE + 1):
        for n in range(m, CROSS_CHECK_MAX_SIDE + 1):
            cross[f"{m}x{n}"] = len(hg.solve(hg.BoardParams(m, n))[1])
    reachable = {
        f"{m}x{n}": len(hg.reachable(hg.BoardParams(m, n)))
        for m, n in QUERY_BOARDS + SAMPLE_BOARDS
    }
    start_values = {
        f"{m}x{n}": hg.solve(hg.BoardParams(m, n))[0] for m, n in QUERY_BOARDS
    }
    payload = {
        "deep_solve": deep,
        "cross_check_explored": cross,
        "reachable": reachable,
        "start_values": start_values,
    }
    text = json.dumps(payload, indent=1, sort_keys=True)[: -len("\n}")]
    # One line per board keeps the lists of subgame sizes readable.
    sizes = (f'  "{m}x{n}": {json.dumps(subgame_sizes(m, n))}' for m, n in QUERY_BOARDS)
    sys.stdout.write(text + ',\n "subgame_sizes": {\n' + ",\n".join(sizes) + "\n }\n}\n")


if __name__ == "__main__":
    main()
