"""The three workloads: seeded input generation, one function that runs an
operation, and the correctness oracle for its answers.

An input list is one *pass*.  Every operation is a JSON-able dict, so the
parent process can generate and check while a fresh worker process runs
and times them.  Positions are drawn by stratified sampling (one per equal
slice of the position set ordered by box count, or from narrow bands of
subgame size for value queries), so the cost of a pass depends little on
the seed while the positions themselves vary with it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden.json"

WORKLOADS = ("deep_solve", "interactive_queries", "proof_run")

# deep_solve: each family is a widening pair m x n, m x (n+1) with m + n even,
# i.e. two isomorphic games with equal explored counts and values.  A pass
# solves both boards of every pair, in seeded order: the wider board of a
# pair costs more, so drawing one board per pair would make the work of a
# pass depend on the seed.
DEEP_FAMILIES = {
    "thin": ((6, 12), (6, 13)),
    "near-square": ((9, 11), (9, 12)),
    "square": ((10, 10), (10, 11)),
}

# interactive_queries: boards within the CLI's 81-cell limit.
QUERY_BOARDS = ((9, 9), (8, 10), (6, 13), (2, 40))
MOVE_LISTS_PER_BOARD = 40
# A value query costs a whole-board reachable scan plus a solve of the
# position's subgame, whose size varies a hundredfold between positions of
# one box count.  Value queries are therefore drawn from narrow bands of
# subgame size (golden.json holds the size of every position's subgame):
# one around each of these quantiles, +-SUBGAME_BAND.
VALUE_QUERY_QUANTILES = (0.5, 0.9)
SUBGAME_BAND = 0.025

# proof_run: the seven closed-form verifications, at their defaults.
VERIFY_IDS = ("nim", "row1", "row2", "square", "start2", "symmetry", "table1")
CROSS_CHECK_MAX_SIDE = 6
SAMPLE_BOARDS = ((7, 7), (7, 8), (8, 8), (6, 9), (7, 10), (9, 9), (5, 12), (4, 15), (3, 20))
SAMPLES_PER_BOARD = 4
WIDEN_MAX_SIDE = 8
STAIRCASE_MAX_N = 7


def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _positions_by_size(hg, m: int, n: int) -> list[tuple[int, ...]]:
    """Row tuples of every position reachable on ``m x n``, by box count.

    The count is checked against the golden file, so a broken enumeration
    cannot silently change the inputs."""
    rows = [p.diagram.rows for p in hg.reachable(hg.BoardParams(m, n))]
    expected = golden()["reachable"][f"{m}x{n}"]
    if len(rows) != expected:
        raise RuntimeError(f"{m}x{n} has {len(rows)} reachable positions, golden {expected}")
    return sorted(rows, key=lambda r: (sum(r), r))


def _stratified(rng: random.Random, items: list, k: int) -> list:
    size = len(items)
    return [items[rng.randrange(size * i // k, size * (i + 1) // k)] for i in range(k)]


def generate(hg, workload: str, seed: int) -> list[dict]:
    """The seeded input list (one pass) of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[dict] = []
    if workload == "deep_solve":
        for family, pair in DEEP_FAMILIES.items():
            ops += [{"kind": "solve", "family": family, "board": list(board)} for board in pair]
    elif workload == "interactive_queries":
        for m, n in QUERY_BOARDS:
            positions = _positions_by_size(hg, m, n)
            by_subgame = [rows for _, rows in
                          sorted(zip(golden()["subgame_sizes"][f"{m}x{n}"], positions))]
            size = len(positions)
            picks = [("move_list", "options", rows)
                     for rows in _stratified(rng, positions, MOVE_LISTS_PER_BOARD)]
            for q in VALUE_QUERY_QUANTILES:
                band = range(int((q - SUBGAME_BAND) * size), int((q + SUBGAME_BAND) * size))
                picks.append(("value_query", "grundy", by_subgame[rng.choice(band)]))
            for kind, command, rows in picks:
                argv = [command, "-m", str(m), "-n", str(n),
                        "--diagram", hg.YoungDiagram(rows).literal(), "--format", "json"]
                ops.append({"kind": kind, "board": [m, n], "rows": list(rows), "argv": argv})
    elif workload == "proof_run":
        ops += [{"kind": "verify", "id": vid} for vid in VERIFY_IDS]
        ops.append({"kind": "widen_range", "max_side": WIDEN_MAX_SIDE})
        ops.append({"kind": "staircase_range", "max_n": STAIRCASE_MAX_N})
        for m in range(1, CROSS_CHECK_MAX_SIDE + 1):
            for n in range(m, CROSS_CHECK_MAX_SIDE + 1):
                ops.append({"kind": "cross_check_solve", "board": [m, n]})
        for m, n in SAMPLE_BOARDS:
            for rows in _stratified(rng, _positions_by_size(hg, m, n), SAMPLES_PER_BOARD):
                ops.append({"kind": "cross_check_position", "board": [m, n],
                            "rows": list(rows)})
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(ops)
    return ops


def digest(ops: list[dict]) -> str:
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Running one operation (in the worker).  The return value is the answer to
# be checked; it must be equal on every pass.


def run_op(hg, op: dict) -> dict:
    kind = op["kind"]
    if kind == "solve":
        value, memo = hg.solve(hg.BoardParams(*op["board"]))
        return {"value": value, "explored": len(memo)}
    if kind in ("move_list", "value_query"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hg.cli.main(op["argv"])
        return {"code": code, "out": out.getvalue()}
    if kind == "verify":
        report = hg.closedforms.verify(op["id"])
        return {"passed": report.passed, "checked": report.checked}
    if kind in ("widen_range", "staircase_range"):
        if kind == "widen_range":
            reports = hg.isomorphisms.verify_widening_range(op["max_side"])
        else:
            reports = hg.isomorphisms.verify_staircase_range(op["max_n"])
        return {
            "passed": bool(reports) and all(r.passed for r in reports),
            "checked": sum(r.checked for r in reports),
            "failing": [r.summary() for r in reports if not r.passed],
        }
    if kind == "cross_check_solve":
        value, memo = hg.solve(hg.BoardParams(*op["board"]), engine="cross-check")
        return {"value": value, "explored": len(memo)}
    if kind == "cross_check_position":
        board = hg.BoardParams(*op["board"])
        pos = hg.MhrgPosition(board, hg.YoungDiagram(tuple(op["rows"])))
        return {"options": len(hg.mhrg.options_cross_check(pos))}
    raise ValueError(f"unknown operation kind {kind!r}")


def explored(op: dict, answer: dict) -> int | None:
    """Positions an operation explored (memo size), where it reports one."""
    if op["kind"] in ("solve", "cross_check_solve"):
        return answer["explored"]
    if op["kind"] == "value_query":
        return json.loads(answer["out"])["explored"]
    return None


# ---------------------------------------------------------------------------
# Oracle (in the parent, outside the timed region).


def _moves_payload(hg, board, rows) -> dict:
    """The ``options --format json`` payload, built from the rule-book
    engine's move records."""
    pos = hg.MhrgPosition(board, hg.YoungDiagram(tuple(rows)))
    records = hg.moves_semantic(pos)
    return {
        "board": [board.m, board.n],
        "diagram": pos.diagram.literal(),
        "moves": [
            {
                "corner": list(r.first.corner),
                "interval": [r.first.lo, r.first.hi],
                "labels": list(r.first.label_list()),
                "forced": None if r.second is None else {
                    "corner": list(r.second.corner),
                    "interval": [r.second.lo, r.second.hi],
                },
                "result": r.result.diagram.literal(),
            }
            for r in records
        ],
    }


class Oracle:
    """Expected answers, computed lazily and cached per distinct input."""

    def __init__(self, hg):
        self.hg = hg
        self.golden = golden()
        self._memos: dict = {}

    def _board_memo(self, m: int, n: int):
        """(memo of a whole-board solve, problem) where the problem is set
        when its start value differs from the golden one."""
        if (m, n) not in self._memos:
            value, memo = self.hg.solve(self.hg.BoardParams(m, n))
            golden_value = self.golden["start_values"][f"{m}x{n}"]
            problem = None if value == golden_value else (
                f"whole-board solve of {m}x{n} gives {value}, golden {golden_value}")
            self._memos[(m, n)] = memo, problem
        return self._memos[(m, n)]

    def problems(self, op: dict, answer: dict) -> list[str]:
        """Why ``answer`` is wrong for ``op``; empty when it is right."""
        hg, kind = self.hg, op["kind"]
        if "error" in answer:
            return [answer["error"]]
        if kind == "solve":
            m, n = op["board"]
            golden = self.golden["deep_solve"][f"{m}x{n}"]
            bad = []
            if [answer["value"], answer["explored"]] != [golden["value"], golden["explored"]]:
                bad.append(f"{m}x{n}: got {answer}, golden {golden}")
            partner = f"{m}x{n + 1}" if (m + n) % 2 == 0 else f"{m}x{n - 1}"
            if answer["value"] != self.golden["deep_solve"][partner]["value"]:
                bad.append(f"{m}x{n}: value differs from its widening partner {partner}")
            if n in (m, m + 1) and answer["value"] != hg.predict_start_square(m):
                bad.append(f"{m}x{n}: value differs from predict_start_square({m})")
            return bad
        if kind == "move_list":
            board = hg.BoardParams(*op["board"])
            if answer["code"] != 0:
                return [f"exit code {answer['code']}"]
            if json.loads(answer["out"]) != _moves_payload(hg, board, op["rows"]):
                return [f"move list of {op['argv']} differs from the rule-book engine"]
            return []
        if kind == "value_query":
            m, n = op["board"]
            board = hg.BoardParams(m, n)
            pos = hg.MhrgPosition(board, hg.YoungDiagram(tuple(op["rows"])))
            memo, problem = self._board_memo(m, n)
            if problem:
                return [problem]
            expected = memo.get(pos.encode())
            got = json.loads(answer["out"]) if answer["code"] == 0 else {}
            if (answer["code"], got.get("grundy"), got.get("reachable")) != (0, expected, True):
                return [f"value query {op['argv']}: got {answer['code']} {got}, "
                        f"whole-board solve says {expected}"]
            return []
        if kind in ("verify", "widen_range", "staircase_range"):
            return [] if answer["passed"] else [f"{kind} {op}: FAIL {answer}"]
        if kind == "cross_check_solve":
            m, n = op["board"]
            expected = [hg.table1_golden()[m - 1][n - 1],
                        self.golden["cross_check_explored"][f"{m}x{n}"]]
            got = [answer["value"], answer["explored"]]
            return [] if got == expected else [f"{m}x{n} cross-check: {got} != {expected}"]
        if kind == "cross_check_position":
            board = hg.BoardParams(*op["board"])
            pos = hg.MhrgPosition(board, hg.YoungDiagram(tuple(op["rows"])))
            expected = len(hg.options_semantic(pos))
            if answer["options"] != expected:
                return [f"{op}: {answer['options']} options, rule book gives {expected}"]
            return []
        return [f"unknown operation kind {kind!r}"]
