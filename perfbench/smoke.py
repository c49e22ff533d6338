"""Smoke test of the benchmark itself.  Run from the repository root:

    python3 perfbench/smoke.py

Checks the tracer's self-time arithmetic on a fake clock, the scaling of
latencies by the speed-reference probes around them, that inputs are a
function of the seed, that every workload prints a well-formed result line
in both modes with the metrics BENCHMARK.json names, and that the benchmark
refuses to run where the package is absent.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def tracer_arithmetic() -> None:
    from tracing import Tracer

    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def mex_like():
        now[0] += 0.5

    timed = tracer.timed("t", mex_like)
    inner = tracer.spanned("inner", leaf)

    def outer_body():
        now[0] += 1.0
        inner()
        timed()
        now[0] += 3.0

    tracer.spanned("outer", outer_body)()
    check(tracer.self_s["inner"] == 2.0, "a leaf span's self time is its duration")
    check(tracer.self_s["outer"] == 4.0, "self time excludes child spans and timed calls")
    check(tracer.self_s["t"] == 0.5 and tracer.calls["t"] == 1, "timed calls are summed")
    outer, parent = [s for s in tracer.spans if s[0] == "outer"][0], tracer.spans[1][3]
    check(parent == tracer.spans.index(outer), "a child span records its parent")


def normalization_arithmetic() -> None:
    from reference import REFERENCE_S
    from run import normalized_latencies

    # Probes before operation 0 and before operation 2 and after the last:
    # operations 0 and 1 share the first bracket, operation 2 the second.
    r = REFERENCE_S
    result = {"latencies": [1.0, 2.0, 3.0], "probes": [(0, r), (2, 3 * r), (3, 2 * r)]}
    check(normalized_latencies(result) == [0.5, 1.0, 1.2],
          "a latency is scaled by the mean of the probes around it")


def seeded_inputs() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import hookgames as hg
    from workloads import WORKLOADS, digest, generate

    for workload in WORKLOADS:
        a, b, c = (digest(generate(hg, workload, seed)) for seed in (3, 3, 4))
        check(a == b and a != c, f"{workload}: same seed, same inputs; other seed, other inputs")


def result_line(argv: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py")] + argv, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def workloads_run() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            name = entry["name"]
            code, result = result_line(
                ["--workload", name, "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
                ROOT)
            check(code == 0 and result is not None, f"{name} trace {trace}: exit 0 with a result")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace {trace}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace {trace}: all {result['attempted']} operations correct")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{name} trace {trace}: metric names and units")
            if trace == 0:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{name}: every end-to-end metric is non-zero")


def refuses_without_package() -> None:
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "deep_solve",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/hookgames: non-zero exit and no result")


if __name__ == "__main__":
    tracer_arithmetic()
    normalization_arithmetic()
    seeded_inputs()
    refuses_without_package()
    workloads_run()
    print("smoke test passed")
