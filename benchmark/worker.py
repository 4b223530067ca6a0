"""The workload process: one closed-loop client issuing a fixed number of ops.

Started by run.py with the thread pins and PYTHONPATH already in its
environment.  With --probe it stops once the first op could be issued and
prints that moment (CLOCK_MONOTONIC, shared by all processes), which is how
run.py times set-up, and then the median of three speed-kernel times.  Otherwise it reads {"workload", "ops", "count",
"trace"} as JSON on stdin, issues the first `count` ops of the list, and
prints one JSON object with every op's latency and outputs or error, the
spans of a traced run, the peak resident set, and the machine-speed kernel
timings taken between ops (speed.py); each op carries the mean kernel time
around it.

With tracing on, each op runs twice, untraced and traced, alternating which
goes first; its outputs and latency come from the untraced run, and the
traced run gives the spans.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time

from spans import Calls, Tracer, module_of
from speed import SpeedProbe, kernel_seconds

CLI_TIMEOUT_S = 60.0
ERROR_TEXT = 300


def run_in_process(op: dict, calls: Calls, fn) -> dict:
    with calls.op(op["index"]):
        start = time.perf_counter()
        try:
            out = fn(op, calls)
        except Exception as exc:  # every failure is recorded, then the loop goes on
            lat = time.perf_counter() - start
            where = calls.last
            return {"lat": lat, "err": {
                "module": module_of(where) if where is not None else "benchmark",
                "call": getattr(where, "__qualname__", "?"),
                "type": type(exc).__name__, "msg": str(exc)[:ERROR_TEXT]}}
        lat = time.perf_counter() - start
    return {"lat": lat, "out": out}


def run_cli(op: dict, calls: Calls, _fn=None) -> dict:
    with calls.op(op["index"]):
        start = time.perf_counter()
        cmd = [sys.executable, "-m", "flucdet.cli", *op["args"]]
        try:
            with calls.span(f"cli.{op['args'][0]}"):
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=CLI_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return {"lat": time.perf_counter() - start, "err": {
                "module": "cli", "call": op["args"][0], "type": "timeout",
                "msg": f"no exit within {CLI_TIMEOUT_S} s"}}
        lat = time.perf_counter() - start
    if proc.returncode != 0:
        message = (proc.stderr.strip() or proc.stdout.strip())[:ERROR_TEXT]
        return {"lat": lat, "err": {"module": "cli", "call": op["args"][0],
                                    "type": f"exit{proc.returncode}", "msg": message}}
    return {"lat": lat, "out": {"stdout": proc.stdout}}


def main() -> int:
    if sys.argv[1:] == ["--probe"]:
        import ops  # noqa: F401  the same imports as a real workload process
        ready = time.monotonic()
        kernel = sorted(kernel_seconds() for _ in range(3))[1]
        print(repr(ready), repr(kernel), flush=True)
        return 0
    config = json.load(sys.stdin)
    ops_list, trace_on = config["ops"], bool(config["trace"])
    if config["workload"] == "cli-cold":
        runner, fns, usage = run_cli, None, resource.RUSAGE_CHILDREN
    else:
        import ops
        runner, fns, usage = run_in_process, ops.OPS, resource.RUSAGE_SELF
    plain = Calls()
    tracer = Tracer() if trace_on else None
    speed = SpeedProbe()

    results, before = [], []
    for k, op in enumerate(ops_list[:config["count"]]):
        speed.maybe_sample()
        before.append(len(speed.samples) - 1)
        fn = fns[op["kind"]] if fns else None
        if tracer is None:
            rec = runner(op, plain, fn)
        elif k % 2 == 0:
            rec = runner(op, plain, fn)
            rec["lat_traced"] = runner(op, tracer, fn)["lat"]
        else:
            lat_traced = runner(op, tracer, fn)["lat"]
            rec = runner(op, plain, fn)
            rec["lat_traced"] = lat_traced
        rec["i"] = k
        results.append(rec)
    peak_kb = resource.getrusage(usage).ru_maxrss
    speed.sample()
    # The first sample after an op is the next one taken.
    for rec, b in zip(results, before):
        rec["kernel"] = 0.5 * (speed.samples[b] + speed.samples[b + 1])

    report = {"peak_rss_kb": peak_kb, "results": results,
              "speed_samples": speed.samples}
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counters"] = tracer.counters
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
