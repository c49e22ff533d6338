"""Run one pass of a workload's operations in a fresh process and report
raw timings and answers.

Reads a job as JSON on stdin and writes one JSON object to stdout.  The
process does nothing else, so its peak RSS belongs to the workload alone,
and nothing the package might cache in a process outlives the pass, as for
a user who runs the command again.

Between operations, once at least ``PROBE_EVERY_S`` of operation time has
passed since the last one, and before the first and after the last
operation, it times a probe of the speed reference (``reference.py``), so
every operation lies between two probes.  Probe time is not part of any
operation's latency.

Job keys: ``src`` (directory holding the ``hookgames`` package), ``ops``
(one pass), ``trace`` (install the tracer) and ``trace_path`` (where to
write the spans).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from reference import probe

PROBE_EVERY_S = 0.25


def peak_rss_kb() -> int:
    """Peak resident set of this process since it started.  ``ru_maxrss``
    will not do: Linux carries the parent's resident set at fork into it."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))

    import hookgames as hg
    import hookgames.cli  # noqa: F401  (binds hg.cli)

    if src not in Path(hg.__file__).resolve().parents:
        print(f"hookgames imported from {hg.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import run_op

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    ops = job["ops"]
    clock = time.perf_counter
    answers, latencies = [], []
    # (operations done before the probe, probe seconds)
    probes, since_probe = [], PROBE_EVERY_S
    for index, op in enumerate(ops):
        if since_probe >= PROBE_EVERY_S:
            probes.append((index, probe(clock)))
            since_probe = 0.0
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        try:
            answer = run_op(hg, op)
        except Exception as exc:  # a raised operation is a failed one
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(clock() - t0)
        since_probe += latencies[-1]
        answers.append(answer)
    probes.append((len(ops), probe(clock)))

    result = {
        "pass_time": sum(latencies),
        "latencies": latencies,
        "probes": probes,
        "answers": answers,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
        result["missing"] = tracer.missing
        tracer.dump(job["trace_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
