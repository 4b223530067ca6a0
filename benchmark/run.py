"""flucdet benchmark: one workload, one seed, one JSON result line.

    python3 benchmark/run.py --workload det-sweep --seed 1 --seconds 18 --trace 0

Run from the root of a checkout.  The op list is generated from the seed
(workloads.py); set-up is timed on SETUP_PROBES fresh processes, half of
them before the workload process and half after it.  One workload process
(worker.py) issues a fixed number of ops closed loop, as many as take about
--seconds at the reference speed (workloads.op_count), so that a seed
always attempts and fails the same ops.  Afterwards, outside every timed
region, each executed op is checked against the independent reference
(reference.py, check.py).  With --trace 0 the last line carries the
end-to-end metrics, with --trace 1 the per-layer metrics from a traced run;
op times are scaled to a reference machine speed (speed.py).
Failed ops are listed on `ledger` lines with their inputs, module and error
class.  See README.md for why each workload and metric exists.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS and OpenMP to one thread before numpy loads, here and in every
# child process, which inherits this environment.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_PINS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402
import speed  # noqa: E402
from spans import self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 4
CLI_PROBES = 3
TAIL_BEYOND = 10
WORKER_GRACE_S = 90.0
LAYERS = ("profiles", "odesolve", "ermakov", "determinants", "green", "oracle")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_spawn(args: list, env: dict) -> float:
    """Wall time of one child process, start to exit."""
    start = time.perf_counter()
    subprocess.run(args, env=env, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def measure_setup(env: dict, probes: int) -> list:
    """(seconds from process start until the first op could be issued,
    kernel time in that process just after)."""
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--probe"],
                              env=env, capture_output=True, text=True, check=True,
                              timeout=120)
        ready, kernel = map(float, proc.stdout.split())
        samples.append((ready - start, kernel))
    return samples


def run_worker(workload: str, ops: list, count: int, seconds: int, trace: bool,
               env: dict) -> dict:
    payload = json.dumps({"workload": workload, "ops": ops, "count": count,
                          "trace": trace})
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=payload,
                          env=env, capture_output=True, text=True,
                          timeout=3 * seconds + WORKER_GRACE_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it.  Up to 2 * TAIL_BEYOND + 1 samples no percentile above the
    median qualifies, and the median is reported."""
    n = len(latencies)
    if n <= 2 * TAIL_BEYOND + 1:
        return statistics.median(latencies), 50.0
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def check_results(ops: list, report: dict) -> dict:
    failures, digits, ok, ref_digits = [], [], [], []
    for rec in report["results"]:
        op = ops[rec["i"]]
        want = check.expected(op)
        if "err" in rec:
            failure = dict(rec["err"])
            misses = []
        else:
            outputs = rec["out"]
            if op["kind"].startswith("cli"):
                try:
                    outputs = check.parse_cli(op, outputs["stdout"])
                except (ValueError, KeyError, IndexError) as exc:
                    outputs = {"unparsed.error": f"{type(exc).__name__}: {exc}"}
            misses, op_digits, op_ref_digits = check.compare(op, outputs, want)
            ref_digits.append(op_ref_digits)
            if not misses:
                if op_digits is not None and not check.digits_degraded_by_defect(op):
                    digits.append(op_digits)
                ok.append(rec)
                continue
            failure = {"module": check.output_module(op, misses[0]), "call": misses[0],
                       "type": "OutOfTolerance",
                       "msg": "outside tolerance: " + ", ".join(misses)}
        failure["misses"] = misses
        failure["defect"] = check.classify(op, failure)
        failures.append({"op": rec["i"],
                         "inputs": {k: v for k, v in op.items() if k != "index"},
                         **failure})
    attempted = len(report["results"])
    failed = attempted - len(ok)
    return {"failures": failures, "digits": digits, "ok": ok,
            "attempted": attempted, "failed": failed,
            "ref_digits": min(ref_digits) if ref_digits else check.ref.MAX_DIGITS}


def verdict(checked: dict) -> bool:
    """Correct when every failure is a named known defect of the program and
    every reference verified enough digits to judge its check."""
    return (all(f["defect"] is not None for f in checked["failures"])
            and checked["ref_digits"] >= check.MIN_REF_DIGITS)


def op_times(workload: str, report: dict, checked: dict, scaled: bool) -> tuple:
    """ops_per_s, op_p50_ms and op_tail_ms, and the tail percentile.  Scaled,
    each op's time is taken to the reference speed by the kernel time
    around it.  ops_per_s divides the correct ops by the summed time of all
    ops, failed ones included."""
    sensitivity = speed.SENSITIVITY[workload] if scaled else 0.0

    def seconds(rec):
        return rec["lat"] * speed.factor(rec["kernel"], sensitivity)
    lat = [seconds(rec) for rec in checked["ok"]]
    tail_value, tail_pct = tail(lat) if lat else (0.0, 0.0)
    return {"ops_per_s": len(lat) / sum(seconds(rec) for rec in report["results"]),
            "op_p50_ms": 1e3 * statistics.median(lat) if lat else 0.0,
            "op_tail_ms": 1e3 * tail_value}, tail_pct


def end_to_end(workload: str, report: dict, checked: dict, setup: list) -> tuple:
    """Metrics and the provenance that goes with them, raw times included.
    Every time is scaled to the reference speed (speed.py)."""
    raw, tail_pct = op_times(workload, report, checked, scaled=False)
    times = op_times(workload, report, checked, scaled=True)[0]
    metrics = {
        "setup_s": statistics.median(
            seconds * speed.factor(kernel, speed.SETUP_SENSITIVITY)
            for seconds, kernel in setup),
        **times,
        "correct_frac": len(checked["ok"]) / checked["attempted"],
        "min_digits": min(checked["digits"]) if checked["digits"] else 0.0,
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }
    raw["setup_s"] = statistics.median(seconds for seconds, _ in setup)
    info = {"tail_percentile": tail_pct, "latency_samples": len(checked["ok"]),
            "setup_samples": setup, "raw_times": raw,
            "speed_scale": speed.scale(report["speed_samples"]),
            "sensitivity": speed.SENSITIVITY[workload]}
    return metrics, info


def cli_probes(workload: str, report: dict, env: dict) -> dict:
    """cli.spawn_s, cli.import_s and cli.command_s (medians, seconds)."""
    spawn = [timed_spawn([sys.executable, "-c", "pass"], env) for _ in range(CLI_PROBES)]
    imports = [timed_spawn([sys.executable, "-c", "import flucdet.cli"], env)
               for _ in range(CLI_PROBES)]
    if workload == "cli-cold":
        commands = [r["lat_traced"] for r in report["results"]]
    else:
        commands = [timed_spawn([sys.executable, "-m", "flucdet.cli", "det"], env)
                    for _ in range(CLI_PROBES)]
    import_s = statistics.median(imports)
    return {"cli.spawn_s": statistics.median(spawn), "cli.import_s": import_s,
            "cli.command_s": statistics.median(commands) - import_s}


def per_layer(report: dict, probes: dict) -> dict:
    spans = report["spans"]
    selfs = self_times(spans)
    op_total = sum(s["end"] - s["start"] for s in spans if s["name"] == "op")
    stats = {layer: {"calls": 0, "self_s": 0.0, "evals": 0, "failures": 0}
             for layer in LAYERS}
    table_s = 0.0
    for span, own in zip(spans, selfs):
        layer = span["name"].split(".", 1)[0]
        if layer not in stats:
            continue
        entry = stats[layer]
        entry["calls"] += 1
        entry["self_s"] += own
        entry["evals"] += span["evals"]
        entry["failures"] += "error" in span
        if span["name"] == "green.GreenKernel.table":
            table_s += own
    counters = report["counters"]
    metrics = {}
    for layer in LAYERS:
        entry = stats[layer]
        metrics[f"{layer}.calls"] = entry["calls"]
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.share"] = entry["self_s"] / op_total if op_total else 0.0
    odesolve = stats["odesolve"]
    cells = counters.get("green.cells", 0)
    metrics.update({
        "profiles.failures": stats["profiles"]["failures"],
        "odesolve.omega_sq_evals": odesolve["evals"],
        "odesolve.evals_per_call": (odesolve["evals"] / odesolve["calls"]
                                    if odesolve["calls"] else 0.0),
        "ermakov.newton_iters": counters.get("ermakov.newton_iters", 0),
        "green.cells": cells,
        "green.cells_per_s": cells / table_s if table_s else 0.0,
        "green.omega_sq_evals": stats["green"]["evals"],
        "oracle.lattice_points": counters.get("oracle.lattice_points", 0),
        "oracle.omega_sq_evals": stats["oracle"]["evals"],
    })
    metrics.update(probes)
    plain = sum(r["lat"] for r in report["results"])
    traced = sum(r["lat_traced"] for r in report["results"])
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    return metrics


def load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "thread_pins": {name: os.environ[name] for name in THREAD_PINS}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flucdet" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'flucdet'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    env = child_env()
    prov = provenance(args.workload, args.seed, args.seconds, trace)
    # One core for the whole run, inherited by every child: the set-up
    # probes, the workload process and its CLI children run on the core
    # whose speed the kernel measures (speed.py).
    prov["core"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {prov["core"]})
    count = workloads.op_count(args.workload, args.seconds)
    ops = workloads.generate(args.workload, args.seed, count)
    # Probes before and after the workload process, so that one slow spell
    # of the shared machine moves fewer of them.
    setup = measure_setup(env, SETUP_PROBES // 2)
    report = run_worker(args.workload, ops, count, args.seconds, trace, env)
    setup += measure_setup(env, SETUP_PROBES - SETUP_PROBES // 2)

    checked = check_results(ops, report)
    unknown = [f for f in checked["failures"] if f["defect"] is None]
    correct = verdict(checked)
    e2e, info = end_to_end(args.workload, report, checked, setup)
    prov.update(info)
    prov["reference_digits"] = checked["ref_digits"]
    if trace:
        metrics = per_layer(report, cli_probes(args.workload, report, env))
    else:
        metrics = e2e
    units = load_units()

    print("provenance " + json.dumps(prov))
    for failure in checked["failures"]:
        print("ledger " + json.dumps(failure))
    print(f"fail_frac {checked['failed'] / checked['attempted']!r} "
          f"({checked['failed']} of {checked['attempted']} ops; "
          f"{len(unknown)} unknown failure kinds)")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump.write_text(json.dumps({"provenance": prov, "metrics": metrics,
                                "ledger": checked["failures"],
                                "spans": report.get("spans", [])}))
    result = {"correct": correct, "attempted": checked["attempted"],
              "failed": checked["failed"],
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
