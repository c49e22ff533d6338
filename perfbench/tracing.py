"""Per-layer tracing for the benchmark, installed from outside the package.

Wrappers are installed at every module attribute through which a caller
looks a function up (a function imported by name is a separate binding in
each importing module).  Three kinds of wrapper keep the overhead in
proportion to how often a boundary is crossed:

* spanned: one span per call, ``(name, start, end, parent, op)``, kept in
  memory and written out at the end;
* timed: a call count and summed duration, charged to the enclosing span as
  child time (``mex``, once per explored position);
* counted: a call count only (memo traffic, about 60 calls per position,
  and the cheap diagram helpers).

A span's self time is its duration minus the time its child spans and
timed calls cover.  The tracer's own bookkeeping after a child returns is
charged to neither side.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

# Span name -> (module, attribute) bindings that callers look up; module ""
# is the package itself, whose re-exports are separate bindings too.
SPANNED = {
    "cli.main": [("cli", "main")],
    "closedforms.verify": [("closedforms", "verify")],
    "isomorphisms.verify_widening": [("isomorphisms", "verify_widening")],
    "isomorphisms.verify_staircase_iso": [("isomorphisms", "verify_staircase_iso")],
    "isomorphisms.verify_isomorphism": [("isomorphisms", "verify_isomorphism")],
    "mhrg.solve": [("mhrg", "solve"), ("closedforms", "solve"), ("", "solve")],
    "mhrg.reachable_profiles": [
        ("mhrg", "reachable_profiles"),
        ("closedforms", "reachable_profiles"),
        ("isomorphisms", "reachable_profiles"),
    ],
    "mhrg.profile_options": [("mhrg", "profile_options"), ("isomorphisms", "profile_options")],
    "mhrg.moves_diagonal": [("mhrg", "moves_diagonal")],
    "mhrg.semantic": [("mhrg", "moves_semantic")],
    "mhrg.options_cross_check": [("mhrg", "options_cross_check")],
    "grundy": [
        ("grundy", "grundy"),
        ("mhrg", "grundy"),
        ("isomorphisms", "grundy"),
        ("cli", "grundy"),
        ("shifted", "grundy"),
    ],
    "shifted.options": [
        ("shifted", "_shifted_profile_options"),
        ("isomorphisms", "_shifted_profile_options"),
    ],
    "shifted.solve_hrg": [("shifted", "solve_hrg"), ("closedforms", "solve_hrg")],
    "diagrams.diagram_of": [
        ("diagrams", "diagram_of"),
        ("mhrg", "diagram_of"),
        ("isomorphisms", "diagram_of"),
    ],
}
TIMED = {"grundy.mex": [("grundy", "mex")]}
COUNTED = {
    "diagrams.diagonal_of": [
        ("diagrams", "diagonal_of"),
        ("mhrg", "diagonal_of"),
        ("cli", "diagonal_of"),
        ("closedforms", "diagonal_of"),
    ],
    "diagrams.hook_at": [("diagrams", "hook_at"), ("mhrg", "hook_at")],
    "diagrams.remove_hook": [("diagrams", "remove_hook"), ("mhrg", "remove_hook")],
}
MODULES = ("cli", "closedforms", "isomorphisms", "mhrg", "grundy", "shifted", "diagrams")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.open: list = []  # (span index, [child seconds]) per open span
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.extra: Counter = Counter()  # counts reported by the wrappers
        self.memo = [0, 0, 0, 0]  # gets, hits, records, key bytes
        self.op = -1
        self.missing: list[str] = []
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name, fn, after=None):
        spans, open_, self_s, calls, clock = (
            self.spans, self.open, self.self_s, self.calls, self.clock,
        )

        def wrapper(*args, **kwargs):
            parent = open_[-1] if open_ else None
            index = len(spans)
            spans.append(None)
            child = [0.0]
            open_.append((index, child))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (name, start, end, parent[0] if parent else -1, self.op)
                self_s[name] += end - start - child[0]
                calls[name] += 1
            if after is not None:
                after(result)
            if parent is not None:
                parent[1][0] += clock() - start
            return result

        return wrapper

    def timed(self, name, fn):
        open_, self_s, calls, clock = self.open, self.self_s, self.calls, self.clock

        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            calls[name] += 1
            self_s[name] += elapsed
            if open_:
                open_[-1][1][0] += elapsed
            return result

        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _install(self, name, bindings, make):
        """Wrap each distinct function bound at ``bindings`` once and put the
        wrapper at every binding.  Bindings absent from this version of the
        package are skipped and listed in ``missing``."""
        wrapped: dict[int, object] = {}
        for mod_name, attr in bindings:
            path = f"hookgames.{mod_name}" if mod_name else "hookgames"
            module = sys.modules.get(path)
            if module is None or not hasattr(module, attr):
                self.missing.append(f"{path}.{attr}")
                continue
            original = getattr(module, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = make(name, original)
            self._undo.append((module, attr, original))
            setattr(module, attr, wrapped[id(original)])

    def install(self) -> None:
        extra = self.extra
        after = {
            "mhrg.profile_options": lambda out: extra.update(
                {"options_raw": len(out), "options_distinct": len(set(out))}
            ),
            "mhrg.reachable_profiles": lambda out: extra.update(
                {"reachable_positions": len(out)}
            ),
            "isomorphisms.verify_isomorphism": lambda report: extra.update(
                {"iso_positions_checked": report.checked}
            ),
            "closedforms.verify": lambda report: extra.update(
                {"closedform_checks": report.checked}
            ),
        }
        for name, bindings in SPANNED.items():
            self._install(name, bindings, lambda n, f: self.spanned(n, f, after.get(n)))
        for name, bindings in TIMED.items():
            self._install(name, bindings, self.timed)
        for name, bindings in COUNTED.items():
            self._install(name, bindings, self.counted)
        self._install_memo()
        self._install_validations()

    def _install_memo(self) -> None:
        module = sys.modules["hookgames.grundy"]
        memo_cls = getattr(module, "GrundyMemo", None)
        if memo_cls is None:
            self.missing.append("hookgames.grundy.GrundyMemo")
            return
        stats = self.memo
        get, record = memo_cls.get, memo_cls.record

        def traced_get(memo, key):
            value = get(memo, key)
            stats[0] += 1
            if value is not None:
                stats[1] += 1
            return value

        def traced_record(memo, key, value):
            stats[2] += 1
            stats[3] += len(key) if isinstance(key, (bytes, str, tuple)) else sys.getsizeof(key)
            return record(memo, key, value)

        self._undo += [(memo_cls, "get", get), (memo_cls, "record", record)]
        memo_cls.get, memo_cls.record = traced_get, traced_record

    def _install_validations(self) -> None:
        seq_cls = getattr(sys.modules["hookgames.diagrams"], "DiagonalSeq", None)
        check = getattr(seq_cls, "__post_init__", None)
        if check is None:
            self.missing.append("hookgames.diagrams.DiagonalSeq.__post_init__")
            return
        self._undo.append((seq_cls, "__post_init__", check))
        seq_cls.__post_init__ = self.counted("diagrams.profile_validations", check)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, by the names the README lists."""
        calls, self_s, extra = self.calls, self.self_s, self.extra
        gets, hits, records, key_bytes = self.memo
        raw, distinct = extra["options_raw"], extra["options_distinct"]
        out = {
            "mhrg.profile_options.calls": calls["mhrg.profile_options"],
            "mhrg.profile_options.self_s": self_s["mhrg.profile_options"],
            "mhrg.options_raw": raw,
            "mhrg.options_distinct": distinct,
            "mhrg.distinct_ratio": distinct / raw if raw else 0.0,
            "mhrg.reachable_profiles.calls": calls["mhrg.reachable_profiles"],
            "mhrg.reachable_profiles.self_s": self_s["mhrg.reachable_profiles"],
            "mhrg.reachable_profiles.positions": extra["reachable_positions"],
            "mhrg.moves_diagonal.calls": calls["mhrg.moves_diagonal"],
            "mhrg.moves_diagonal.self_s": self_s["mhrg.moves_diagonal"],
            "mhrg.semantic.calls": calls["mhrg.semantic"],
            "mhrg.semantic.self_s": self_s["mhrg.semantic"],
            "grundy.calls": calls["grundy"],
            "grundy.self_s": self_s["grundy"],
            "grundy.mex.calls": calls["grundy.mex"],
            "grundy.mex.self_s": self_s["grundy.mex"],
            "grundy.memo.gets": gets,
            "grundy.memo.hits": hits,
            "grundy.memo.hit_ratio": hits / gets if gets else 0.0,
            "grundy.memo.records": records,
            "grundy.memo.key_bytes": key_bytes / records if records else 0.0,
            "diagrams.diagram_of.calls": calls["diagrams.diagram_of"],
            "diagrams.diagram_of.self_s": self_s["diagrams.diagram_of"],
            "diagrams.diagonal_of.calls": calls["diagrams.diagonal_of"],
            "diagrams.profile_validations": calls["diagrams.profile_validations"],
            "diagrams.hook_at.calls": calls["diagrams.hook_at"],
            "diagrams.remove_hook.calls": calls["diagrams.remove_hook"],
            "shifted.options.calls": calls["shifted.options"],
            "shifted.options.self_s": self_s["shifted.options"],
            "isomorphisms.verify.calls": calls["isomorphisms.verify_isomorphism"],
            "isomorphisms.positions_checked": extra["iso_positions_checked"],
            "closedforms.verify.calls": calls["closedforms.verify"],
            "closedforms.checks": extra["closedform_checks"],
            "cli.main.calls": calls["cli.main"],
        }
        # Whole-module self time; for grundy it is grundy.self_s plus
        # grundy.mex.self_s, both listed above.
        for module in MODULES:
            if module != "grundy":
                out[f"{module}.self_s"] = sum(
                    t for name, t in self_s.items() if name.startswith(module + ".")
                )
        return out

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON: a name table and one row per
        span ``[name, start_s, end_s, parent, op]`` relative to the first."""
        names: dict[str, int] = {}
        base = self.spans[0][1] if self.spans else 0.0
        rows = []
        for name, start, end, parent, op in self.spans:
            index = names.setdefault(name, len(names))
            rows.append([index, round(start - base, 7), round(end - base, 7), parent, op])
        payload = {"names": list(names), "fields": ["name", "start_s", "end_s", "parent", "op"],
                   "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
