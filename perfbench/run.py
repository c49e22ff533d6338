"""The hookgames benchmark: one command per workload, run from the
repository root.

    python3 perfbench/run.py --workload deep_solve --seed 1 --seconds 20 --trace 0

It generates the workload's inputs from the seed, measures set-up in fresh
interpreters, runs the operations closed-loop (one client, one process, no
threads) in a fresh worker process, checks every answer outside the timed
region, prints a report, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` one untraced and one
traced pass of the same inputs give the per-layer ones and the tracing
overhead.  Times in the JSON line are normalized to the speed reference
(``reference.py``) probed around them, which cancels the machine's own
drift; the report prints the raw times next to them.  See README.md for
the names, units and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S, probe
from workloads import WORKLOADS, Oracle, digest, explored, generate

HERE = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
SETUP_PROBES = 15
SETUP_PROBE = "import hookgames, hookgames.cli; hookgames.cli.build_parser()"
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "positions_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "mhrg.profile_options.calls": "count",
    "mhrg.profile_options.self_s": "s",
    "mhrg.options_raw": "count",
    "mhrg.options_distinct": "count",
    "mhrg.distinct_ratio": "ratio",
    "mhrg.self_s": "s",
    "mhrg.reachable_profiles.calls": "count",
    "mhrg.reachable_profiles.positions": "count",
    "mhrg.moves_diagonal.calls": "count",
    "mhrg.semantic.calls": "count",
    "grundy.calls": "count",
    "grundy.self_s": "s",
    "grundy.mex.calls": "count",
    "grundy.mex.self_s": "s",
    "grundy.memo.gets": "count",
    "grundy.memo.hits": "count",
    "grundy.memo.hit_ratio": "ratio",
    "grundy.memo.records": "count",
    "grundy.memo.key_bytes": "bytes",
    "diagrams.diagram_of.calls": "count",
    "diagrams.diagonal_of.calls": "count",
    "diagrams.profile_validations": "count",
    "diagrams.hook_at.calls": "count",
    "diagrams.remove_hook.calls": "count",
    "shifted.options.calls": "count",
    "isomorphisms.verify.calls": "count",
    "isomorphisms.positions_checked": "count",
    "closedforms.verify.calls": "count",
    "closedforms.checks": "count",
    "cli.main.calls": "count",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


def _machine(root: Path, traced: bool) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or "unknown"
    source = hashlib.sha256()
    for path in sorted((root / "src" / "hookgames").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(root).as_posix().encode() + b"\0")
            source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "traced": traced,
    }


def measure_setup(src: Path) -> tuple[list[float], list[float]]:
    """(raw, normalized) seconds for a fresh interpreter to import hookgames
    and build the CLI parser, once per probe.  Each probe is normalized by
    the speed-reference probes taken just before and just after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    raw, normalized, before = [], [], probe()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        raw.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        after = probe()
        normalized.append(raw[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    return raw, normalized


def run_pass(src: Path, ops: list[dict], trace_path: Path | None = None) -> dict:
    """One pass in a fresh worker process."""
    job = {"src": str(src), "ops": ops, "trace": trace_path is not None,
           "trace_path": None if trace_path is None else str(trace_path)}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(src: Path, ops: list[dict], seconds: float) -> list[dict]:
    """Whole passes, each in a fresh worker, for ``seconds``: at least one,
    and another only while one more as long as the last still fits."""
    start, passes, last = time.perf_counter(), [], 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        passes.append(run_pass(src, ops))
        last = time.perf_counter() - began
    return passes


def check(oracle: Oracle, ops: list[dict], passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every pass.  An
    answer is checked against the oracle once and must be the same in every
    later pass."""
    first = passes[0]["answers"]
    found = {i: oracle.problems(op, answer) for i, (op, answer) in enumerate(zip(ops, first))}
    wrong = [i for i, problems in found.items() if problems]
    problems = [p for i in wrong for p in found[i]]
    changed = sum(1 for later in passes[1:] for i, answer in enumerate(later["answers"])
                  if answer != first[i])
    if changed:
        problems.append(f"{changed} answers differed from the first pass")
    return len(ops) * len(passes), len(wrong) * len(passes) + changed, problems


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest of p95/p90/p75 with at least ten samples beyond it."""
    for q in (95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


def normalized_latencies(result: dict) -> list[float]:
    """A pass's latencies in reference seconds: each divided by the mean of
    the speed-reference probes just before and just after it, times
    ``REFERENCE_S``."""
    probes = result["probes"]
    out, k = [], 0
    for i, seconds in enumerate(result["latencies"]):
        while probes[k + 1][0] <= i:
            k += 1
        out.append(seconds * 2 * REFERENCE_S / (probes[k][1] + probes[k + 1][1]))
    return out


def end_to_end(ops, passes, setup) -> tuple[dict, list[str]]:
    # Other tenants of the machine slow it down by up to a factor of two, in
    # spells from seconds to minutes long.  Each latency is therefore taken
    # in reference seconds (see reference.py), and each operation at its
    # median over the run's passes.  Raw seconds are printed alongside.
    setup_raw, setup_norm = setup
    normalized = [normalized_latencies(result) for result in passes]
    typical = [statistics.median(p[i] for p in normalized) for i in range(len(ops))]
    raw_typical = [statistics.median(r["latencies"][i] for r in passes) for i in range(len(ops))]
    counts = [explored(op, answer) for op, answer in zip(ops, passes[0]["answers"])]
    explored_total = sum(c for c in counts if c is not None)
    explored_time = sum(s for s, c in zip(typical, counts) if c is not None)
    raw_explored_time = sum(s for s, c in zip(raw_typical, counts) if c is not None)
    pass_times = [result["pass_time"] for result in passes]
    probe_times = [t for result in passes for _, t in result["probes"]]
    metrics = {
        "setup_s": statistics.median(setup_norm),
        "wall_s": sum(typical),
        "ops_per_s": len(ops) / sum(typical),
        "positions_per_s": explored_total / explored_time,
        "peak_rss_mb": max(result["peak_rss_kb"] for result in passes) / 1024,
    }
    lines = [
        f"  speed reference   median probe {statistics.median(probe_times):.4f} s over "
        f"{len(probe_times)} probes (min {min(probe_times):.4f}, max {max(probe_times):.4f}); "
        f"times below are in reference seconds, {REFERENCE_S} s per probe",
        f"  setup_s           {metrics['setup_s']:.4f} s   (median of {len(setup_norm)} fresh "
        "interpreters: start, import hookgames, build the CLI parser; raw median "
        f"{statistics.median(setup_raw):.4f} s)",
        f"  wall_s            {metrics['wall_s']:.4f} s   (one pass of {len(ops)} operations, "
        f"each at its median over {len(passes)} passes; raw {sum(raw_typical):.4f} s, "
        f"median raw pass {statistics.median(pass_times):.4f} s)",
        f"  ops_per_s         {metrics['ops_per_s']:.4f} 1/s (raw over all passes: "
        f"{len(ops) * len(passes) / sum(pass_times):.4f} 1/s)",
        f"  positions_per_s   {metrics['positions_per_s']:.1f} 1/s "
        f"({explored_total} positions in {explored_time:.3f} s of solving; raw "
        f"{explored_total / raw_explored_time:.1f} 1/s)",
    ]
    by_kind: dict[str, list[float]] = {}
    for latencies in normalized:
        for op, seconds in zip(ops, latencies):
            by_kind.setdefault(op["kind"], []).append(seconds)
    for kind in ("move_list", "value_query"):
        samples = [s * 1e3 for s in by_kind.get(kind, [])]
        if not samples:
            lines.append(f"  {kind}_p50_ms  n/a (no {kind} requests in this workload)")
            continue
        lines.append(f"  {kind}_p50_ms  {statistics.median(samples):.3f} ms (n={len(samples)})")
        supported = tail(samples)
        if supported is None:
            lines.append(f"  {kind}_tail     n/a (fewer than 40 samples)")
        else:
            q, value = supported
            lines.append(f"  {kind}_p{q}_ms  {value:.3f} ms (n={len(samples)}, "
                         f"{int(len(samples) * (100 - q) / 100)} beyond)")
    lines.append(f"  peak_rss_mb       {metrics['peak_rss_mb']:.2f} MB")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "hookgames" / "__init__.py").is_file():
        print(f"error: {src / 'hookgames'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import hookgames as hg

    if src not in Path(hg.__file__).resolve().parents:
        print(f"error: hookgames imported from {hg.__file__}, not {src}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    ops = generate(hg, args.workload, args.seed)
    oracle = Oracle(hg)
    machine = _machine(root, traced)
    print(f"workload {args.workload}  seed {args.seed}  {len(ops)} operations per pass  "
          f"inputs sha256 {digest(ops)}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in machine.items()))

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "inputs_sha256": digest(ops),
              "machine": machine, "seconds": args.seconds}
    if not traced:
        setup = measure_setup(src)
        passes = run_passes(src, ops, args.seconds)
        attempted, failed, problems = check(oracle, ops, passes)
        metrics, lines = end_to_end(ops, passes, setup)
        units = END_TO_END
        report["setup_probes_s"], report["setup_probes_normalized_s"] = setup
        report["pass_times_s"] = [result["pass_time"] for result in passes]
        report["latencies_s"] = [result["latencies"] for result in passes]
        report["reference_probes"] = [result["probes"] for result in passes]
    else:
        trace_path = out_dir / f"{stem}-spans.json.gz"
        plain, result = run_pass(src, ops), run_pass(src, ops, trace_path)
        attempted, failed, problems = check(oracle, ops, [plain, result])
        layers = dict(result["layers"])
        layers["cli.bytes_out"] = sum(len(a["out"].encode()) for a in result["answers"] if "out" in a)
        untraced_s, traced_s = plain["pass_time"], result["pass_time"]
        layers["trace.overhead_s"] = traced_s - untraced_s
        metrics = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
        lines = [f"  one pass untraced {untraced_s:.4f} s, traced {traced_s:.4f} s: "
                 f"tracing overhead {traced_s - untraced_s:.4f} s "
                 f"({(traced_s / untraced_s - 1) * 100:.1f}%), {result['spans']} spans in "
                 f"{trace_path.relative_to(root)}"]
        if result["missing"]:
            lines.append("  bindings not found (not traced): " + ", ".join(result["missing"]))
        lines += [f"  {name:38s} {value:.6g}" for name, value in sorted(layers.items())]
        report["layers"] = layers
    report["metrics"] = metrics
    report["attempted"], report["failed"], report["problems"] = attempted, failed, problems
    (out_dir / f"{stem}-report.json").write_text(json.dumps(report, indent=1) + "\n",
                                                 encoding="utf-8")

    print("\n".join(lines))
    print(f"  failed_ratio      {failed}/{attempted}")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
