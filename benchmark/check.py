"""Check every op's outputs against the independent reference.

An op passes when it raised nothing and every output is within the
tolerance of its route.  Its correct digits are the fewest among its
outputs, capped at what the reference itself verified.  A failed op goes
into the ledger with its inputs, the module charged, and the error class;
`classify` names the known defect of the program it matches, if any.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference as ref
from workloads import sweep_row_spec, sweep_values

# Acceptance tolerances of the routes (relative).  Tables are compared by
# their largest deviation relative to their largest entry.
TOL = {
    "endpoint": 1e-8,      # endpoint determinants and their ratios
    "table": 1e-8,         # Green tables: endpoint data, like the determinants
    "trace": 1e-6,         # trace_omega_sq: adaptive quadrature at epsabs 1e-9
    "pq": 1e-6,            # amplitude-phase route
    "flow": 1e-5,          # coupling flow, 32 Gauss nodes
    "richardson": 1e-6,    # lattice Richardson step at n = 2000
    "lattice": 2e-4,       # lattice eigen-product at n = 2000
    "zero_mode": 1e-6,     # closed-form regularized determinant
}
# A reference that verified fewer digits than this cannot judge a 1e-8 check.
MIN_REF_DIGITS = 10.0
# Outputs of the main path, whose digits min_digits reports.  The cross-check
# routes (pq, flow, lattice, Richardson) are held to their tolerances only:
# their digits are set by fixed meshes and shooting tolerances, so they would
# pin the minimum and hide digits lost on the main path.
MAIN_PATH = ("endpoint", "table", "trace", "zero_mode")

# Output name -> the module whose call produced it.
OUTPUT_MODULES = {
    "value": "determinants", "ratio": "determinants", "det_regularized": "determinants",
    "table": "green", "trace": "green",
    "flow": "oracle", "lattice": "oracle", "richardson": "oracle", "pseudo_det": "oracle",
}


def _span(spec: dict) -> float:
    return spec["t_b"] - spec["t_a"]


def _ratio_scale(bc: str, spec: dict, omega0: float) -> float:
    """The program's ratios divide by the free operator for Dirichlet and by
    the constant-frequency omega0 operator otherwise."""
    return ref.free_reference(bc, _span(spec), 0.0 if bc == "dirichlet" else omega0)


def expected(op: dict) -> dict:
    """name -> (reference value or array, verified digits, tolerance key)."""
    spec, kind = op["profile"], op["kind"]
    if kind in ("det", "cli-det"):
        det = ref.determinant(spec, op["bc"])
        scale = _ratio_scale(op["bc"], spec, op["omega0"])
        tol = "pq" if op["route"] == "pq" else "endpoint"
        out = {"ratio": (det.value / scale, det.digits, tol)}
        if op["route"] == "endpoint" or kind == "cli-det":
            out["value"] = (det.value, det.digits, tol)
        return out
    if kind in ("green", "cli-green"):
        table, digits = ref.green_table(spec, op["bc"], op["grid"])
        out = {"table": (table, digits, "table")}
        if kind == "green":
            det = ref.determinant(spec, op["bc"])
            ratio = det.value / _ratio_scale(op["bc"], spec, op["omega0"])
            tr = ref.trace(spec, op["bc"])
            out.update(trace=(tr.value, tr.digits, "trace"),
                       flow=(ratio, det.digits, "flow"),
                       lattice=(ratio, det.digits, "lattice"),
                       richardson=(ratio, det.digits, "richardson"))
        return out
    if kind == "zeromode":
        z = ref.zero_mode_regularized(spec)
        # The lattice pseudo-determinant carries the opposite sign convention
        # (a known open question of the program), so only magnitudes compare.
        return {"det_regularized": (z.value, z.digits, "zero_mode"),
                "pseudo_det": (abs(z.value), z.digits, "lattice")}
    if kind == "cli-sweep":
        out = {}
        for row, v in enumerate(sweep_values(op["start"], op["stop"], op["steps"])):
            row_spec = sweep_row_spec(spec, op["param"], v)
            det = ref.determinant(row_spec, op["bc"])
            scale = _ratio_scale(op["bc"], row_spec, op["omega0"])
            out[f"row{row}.value"] = (det.value, det.digits, "endpoint")
            out[f"row{row}.ratio"] = (det.value / scale, det.digits, "endpoint")
        return out
    raise ValueError(f"unknown op kind {kind!r}")


def _float(text: str) -> float:
    return float(text) if text else math.nan


def parse_cli(op: dict, stdout: str) -> dict:
    """The numbers a CLI op printed, under the names `expected` uses."""
    if op["kind"] == "cli-det":
        record = json.loads(stdout)
        return {"value": record["value"], "ratio": record["ratio"]}
    rows = list(csv.reader(io.StringIO(stdout)))
    if op["kind"] == "cli-green":
        return {"table": [_float(x) for row in rows[1:] for x in row[1:]]}
    out = {}
    for row, fields in enumerate(rows[1:]):
        out[f"row{row}.value"] = _float(fields[1])
        out[f"row{row}.ratio"] = _float(fields[2])
        if fields[3]:
            out[f"row{row}.error"] = fields[3]
    return out


def _rel_error(got, want) -> float:
    if isinstance(want, np.ndarray):
        got = np.asarray(got, dtype=float)
        if got.size != want.size:
            return math.inf
        got = got.reshape(want.shape)
        if not np.all(np.isfinite(got)):
            return math.inf
        return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        return math.inf
    return abs(got - want) / abs(want)


def digits_of(rel: float, cap: float) -> float:
    if rel <= 10.0 ** -cap:
        return cap
    return max(0.0, -math.log10(rel))


def compare(op: dict, outputs: dict, refs: dict):
    """(misses, digits, ref_digits): outputs out of tolerance, the fewest
    correct digits among the op's main-path outputs (None without any), and
    the fewest digits its references verified."""
    misses, digits = [], None
    ref_digits = min(d for _, d, _ in refs.values())
    for name, (want, cap, tol_key) in refs.items():
        got = outputs.get(name)
        if name.endswith("pseudo_det") and isinstance(got, float):
            got = abs(got)
        rel = _rel_error(got, want) if got is not None else math.inf
        if not rel <= TOL[tol_key]:
            misses.append(name)
        if tol_key in MAIN_PATH:
            own = digits_of(rel, cap)
            digits = own if digits is None else min(digits, own)
    misses += [k for k in outputs if k.endswith(".error")]
    return misses, digits, ref_digits


def output_module(op: dict, name: str) -> str:
    if op["kind"].startswith("cli"):
        return "cli"
    if op.get("route") == "pq":
        return "ermakov"
    return OUTPUT_MODULES[name.rsplit(".", 1)[-1]]


# ---------------------------------------------------------------------------
# known defects of the program, as the ledger names them


def _smooth(op) -> bool:
    return op["profile"]["kind"] in ("constant", "modulated", "hyperbolic")


def _hyperbolic(op) -> bool:
    return op["profile"]["kind"] == "hyperbolic"


KNOWN_DEFECTS = (
    ("continuity-false-jump",
     "profiles._check_continuity tests each sample-to-sample jump against a "
     "fixed 1e-3, so smooth profiles with eps*nu*T above about 10 are "
     "rejected as discontinuous",
     lambda op, f: _smooth(op) and "jumps by" in f.get("msg", "")),
    ("hyperbolic-wrapped-cancellation",
     "for Omega^2 = -k^2 the periodic and antiperiodic endpoint determinants "
     "cancel products of size e^(2kT): -0.0 or lost digits instead of "
     "2 -+ 2 cosh(kT)",
     lambda op, f: (_hyperbolic(op) and op["bc"] != "dirichlet"
                    and op["kind"] in ("det", "cli-det"))),
    ("green-false-wronskian",
     "GreenKernel rejects the basis Wronskian as numerically zero because its "
     "scale test is relative to endpoint data of size e^(kT)",
     lambda op, f: _hyperbolic(op) and "numerically zero" in f.get("msg", "")),
    ("green-false-degenerate",
     "GreenKernel declares the Dirichlet or wrapped endpoint determinant of a "
     "hyperbolic operator, which never vanishes, zero: the same scale test "
     "relative to endpoint data of size e^(kT)",
     lambda op, f: _hyperbolic(op) and "determinant vanishes" in f.get("msg", "")),
    ("hyperbolic-green-growth",
     "the Green kernel of a hyperbolic profile is a difference of growing "
     "forward solutions, so its values, traces and boundary checks lose "
     "digits as kT grows",
     lambda op, f: (_hyperbolic(op) and op["kind"] == "green"
                    and (f["module"] in ("green", "oracle")
                         and f["type"] in ("OutOfTolerance", "VerificationError")))),
)


def digits_degraded_by_defect(op: dict) -> bool:
    """Ops where a known defect eats digits gradually as kT grows.  They pass
    or fail by how close kT is to where the digits run out, so min_digits
    leaves them out: their digits track the defect, not a change."""
    if not _hyperbolic(op):
        return False
    return op["kind"] == "green" or (op["kind"] in ("det", "cli-det")
                                     and op["bc"] != "dirichlet")


def classify(op: dict, failure: dict):
    for name, _, matches in KNOWN_DEFECTS:
        if matches(op, failure):
            return name
    return None
