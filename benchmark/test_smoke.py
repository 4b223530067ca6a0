"""Smoke test of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q benchmark/test_smoke.py

Runs every workload at a tiny size, checks that every metric named in
BENCHMARK.json is printed with its unit, shows that the correctness check
fires on a perturbed result, and spot-checks the reference against mpmath.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _units(group: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[group]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_present_with_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "CLI_PROBES", 1)
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_same_seed_same_failures(monkeypatch, capsys):
    """A run issues a fixed number of ops, so one seed attempts and fails the
    same ops however long they take."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    results = []
    for _ in range(2):
        assert run.main(["--workload", "det-stress", "--seed", "11", "--seconds", "8",
                         "--trace", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        ledger = [json.loads(line.split(" ", 1)[1])["op"] for line in lines
                  if line.startswith("ledger ")]
        result = json.loads(lines[-1])
        results.append((result["attempted"], result["failed"], ledger))
    assert results[0] == results[1]
    assert results[0][0] == workloads.op_count("det-stress", 8)


def _fake_report(op_index: int, outputs: dict) -> dict:
    return {"peak_rss_kb": 1024,
            "results": [{"i": op_index, "lat": 0.01, "kernel": 0.006, "out": outputs}]}


def test_perturbed_result_counts_as_failure():
    ops = workloads.generate("det-sweep", 7)
    index = next(i for i, op in enumerate(ops)
                 if op["route"] == "endpoint" and op["profile"]["kind"] == "modulated")
    exact = {name: value for name, (value, _, _) in check.expected(ops[index]).items()}

    passed = run.check_results(ops, _fake_report(index, exact))
    assert passed["failed"] == 0 and not passed["failures"]

    perturbed = dict(exact, value=exact["value"] * (1.0 + 1e-6))
    failed = run.check_results(ops, _fake_report(index, perturbed))
    assert failed["failed"] == 1
    (entry,) = failed["failures"]
    assert entry["type"] == "OutOfTolerance" and entry["misses"] == ["value"]
    assert entry["defect"] is None
    assert not run.verdict(failed)


def test_known_defect_is_named():
    op = {"kind": "det", "route": "endpoint", "bc": "periodic", "omega0": 1.0,
          "profile": {"kind": "hyperbolic", "k": 2.0, "t_a": 0.0, "t_b": 30.0}}
    failure = {"module": "determinants", "type": "OutOfTolerance", "msg": ""}
    assert check.classify(op, failure) == "hyperbolic-wrapped-cancellation"


def test_generation_is_seeded():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
        assert workloads.generate(workload, 3) != workloads.generate(workload, 4)


def _mp_transfer(spec: dict):
    """Transfer matrix by mpmath's Taylor integrator at 25 digits."""
    mpmath.mp.dps = 25
    w2 = mpmath.mpf(spec["omega"]) ** 2
    eps, nu = mpmath.mpf(spec["eps"]), mpmath.mpf(spec["nu"])
    t_a, t_b = mpmath.mpf(spec["t_a"]), mpmath.mpf(spec["t_b"])

    def rhs(t, y):
        return [y[1], -w2 * (1 + eps * mpmath.sin(nu * t)) * y[0]]
    u = mpmath.odefun(rhs, t_a, [mpmath.mpf(1), mpmath.mpf(0)])(t_b)
    v = mpmath.odefun(rhs, t_a, [mpmath.mpf(0), mpmath.mpf(1)])(t_b)
    return u[0], v[0], u[1], v[1]


@pytest.mark.parametrize("spec", [
    dict(kind="modulated", omega=1.3, eps=0.3, nu=2.0, t_a=-1.0, t_b=1.0),
    dict(kind="modulated", omega=4.0, eps=0.2, nu=3.5, t_a=2.5, t_b=4.0),
])
def test_reference_matches_mpmath(spec):
    m = _mp_transfer(spec)
    for bc in ref.BCS:
        exact = float(ref.det_from_matrix(m, bc))
        got = ref.determinant(spec, bc)
        assert abs(got.value - exact) <= 1e-12 * abs(exact)
        assert got.digits >= 12.0


def test_reference_closed_forms_agree():
    """Magnus with eps = 0 against the closed forms, including the complex-step
    trace and the Green table."""
    modulated = dict(kind="modulated", omega=1.7, eps=0.0, nu=1.0, t_a=0.5, t_b=2.0)
    constant = dict(kind="constant", omega=1.7, t_a=0.5, t_b=2.0)
    for bc in ref.BCS:
        for fn in (ref.determinant, ref.trace):
            a, b = fn(modulated, bc).value, fn(constant, bc).value
            assert abs(a - b) <= 1e-11 * abs(b)
        table_m, _ = ref.green_table(modulated, bc, 9)
        table_c, _ = ref.green_table(constant, bc, 9)
        assert abs(table_m - table_c).max() <= 1e-11 * abs(table_c).max()
    w, span = 1.7, 1.5
    tau = span * (2 / 8)
    table, _ = ref.green_table(constant, "dirichlet", 9)
    closed = math.sin(w * tau) * math.sin(w * (span - tau)) / (w * math.sin(w * span))
    assert abs(table[2, 2] - closed) <= 1e-13


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "det-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
