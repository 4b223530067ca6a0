"""Seeded, stratified op lists for the four workloads.

Each workload is a list of ops, regenerated identically from the seed and
the op count: LIST_SIZE ops, or one for every op the run issues if that is
more, so no op repeats.  The run issues the first op_count() of them in list
order, closed loop.  Categorical choices (boundary condition, route, profile
kind) follow fixed patterns over the list, so their shares are exact.
Within each category the parameter that sets an op's cost and three more
follow a Halton sequence, so every prefix of the list covers their ranges
evenly and runs of different lengths or seeds see the same mix; the other
continuous parameters are Latin-hypercube stratified.

A draw is skipped and redrawn when it lies within the stated margin of a
zero mode or a degenerate reference (see MARGIN and REF_MARGIN), so that
every exception the program raises on a kept op counts as a failure.

Nothing here imports flucdet: the ops are plain JSON-ready dicts.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

import reference as ref

WORKLOADS = ("det-sweep", "det-stress", "green-crosscheck", "cli-cold")
LIST_SIZE = 256
# Ops a run issues per second of --seconds: each workload's attempted rate at
# the reference speed (speed.py), so a run lasts about --seconds at that
# speed.  The count, not a deadline, ends a run, so a seed always attempts
# the same ops and fails the same ones, however fast the machine is.
OPS_PER_SECOND = {"det-sweep": 40.0, "det-stress": 5.0, "green-crosscheck": 1.0,
                  "cli-cold": 0.8}
BCS = ref.BCS

# |sin| of the Dirichlet phase, or |2 -+ tr M| / (2 + |tr M|), must reach
# MARGIN; |sin| (periodic) or |cos| (antiperiodic) of omega0 T / 2 must reach
# REF_MARGIN; the pq periodic route needs 2 - |tr M| >= PQ_MARGIN, since a
# periodic amplitude exists only for an elliptic monodromy.
MARGIN = 0.05
REF_MARGIN = 0.2
PQ_MARGIN = 0.1
MAX_REDRAWS = 60
STRATUM_TRIES = 20
HALTON_BASES = (2, 3, 5, 7)

LATTICE_N = 2000
GFLOW_NODES = 32
ZERO_MODE_SHAPES = ("sinpi", "sinpi_bump")
# Dirichlet kernels take half of the modulated green-crosscheck ops.  Wrapped
# ops cost about three times as much (dense lattice eigenvalues, a heavier
# flow), and with equal shares the median latency would sit on the boundary
# between the two cost clusters and jump from run to run.
GREEN_BCS = ("dirichlet", "periodic", "dirichlet", "antiperiodic")


def _radical_inverse(index: int, base: int, digits: int) -> int:
    """Stratum of the index-th point of a van der Corput sequence in `base`
    over base**digits strata, rotated by a half so that it starts mid-range
    (base 2: 1/2, 0, 3/4, 1/4, ...)."""
    strata = base ** digits
    reversed_digits = 0
    for _ in range(digits):
        index, d = divmod(index, base)
        reversed_digits = reversed_digits * base + d
    return (reversed_digits + strata // 2) % strata


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _ref_ok(bc: str, span: float, omega0: float) -> bool:
    if bc == "dirichlet":
        return True
    half = 0.5 * omega0 * span
    val = math.sin(half) if bc == "periodic" else math.cos(half)
    return abs(val) >= REF_MARGIN


def _det_ok(spec: dict, bc: str, m=None) -> bool:
    return ref.margin(spec, bc, m) >= MARGIN


def _profile_spec(kind: str, t_a: float, span: float, **params) -> dict:
    return dict(kind=kind, t_a=t_a, t_b=t_a + span, **params)


def _generate(rng, size: int, dims: int, pattern, draw_op) -> list:
    """`size` ops.  pattern(j) fixes op j's categorical choices.  Within
    each category, dimensions 0 (the cost-setting parameter) to 3 of the
    uniforms follow a Halton sequence in bases 2, 3, 5 and 7; the others are
    Latin-hypercube columns over the whole list.  After STRATUM_TRIES
    rejected draws an op falls back to plain uniforms, so a narrow stratum
    cannot stall generation."""
    cats = [pattern(j) for j in range(size)]
    keys = [tuple(sorted(c.items())) for c in cats]
    sizes = Counter(keys)
    seen = Counter()
    columns = [rng.permutation(size) for _ in range(dims - len(HALTON_BASES))]
    ops = []
    for j in range(size):
        halton = []
        for base in HALTON_BASES:
            digits = 1
            while base ** digits < sizes[keys[j]]:
                digits += 1
            halton.append((_radical_inverse(seen[keys[j]], base, digits), base ** digits))
        seen[keys[j]] += 1
        for attempt in range(MAX_REDRAWS):
            if attempt < STRATUM_TRIES:
                u = [(stratum + float(rng.random())) / strata for stratum, strata in halton]
                u += [(int(col[j]) + float(rng.random())) / size for col in columns]
            else:
                u = [float(x) for x in rng.random(dims)]
            op = draw_op(cats[j], u)
            if op is not None:
                break
        else:
            raise RuntimeError(f"no admissible draw for op {j} after {MAX_REDRAWS} tries")
        op["index"] = j
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# det-sweep: many small operators, fixed per-op costs dominate


def _small_profile(u, kind: str, wt_range=(0.2, 6.0), span_range=(0.5, 5.0),
                   ta_range=(-10.0, 10.0), eps_max=0.4):
    wt = _uniform(u[0], *wt_range)
    span = _log_uniform(u[1], *span_range)
    t_a = _uniform(u[4], *ta_range)
    omega = wt / span
    if kind == "constant":
        return _profile_spec("constant", t_a, span, omega=omega)
    return _profile_spec("modulated", t_a, span, omega=omega,
                         eps=_uniform(u[2], 0.0, eps_max),
                         nu=_uniform(u[3], 0.5, 5.0))


def _det_op(spec: dict, bc: str, route: str, omega0: float):
    span = spec["t_b"] - spec["t_a"]
    if not _ref_ok(bc, span, omega0):
        return None
    m = ref.coarse_matrix(spec)
    if not _det_ok(spec, bc, m):
        return None
    if route == "pq" and bc != "dirichlet" and 2.0 - abs(m[0] + m[3]) < PQ_MARGIN:
        return None
    return dict(kind="det", route=route, bc=bc, omega0=omega0, profile=spec)


def det_sweep(seed: int, size: int) -> list:
    rng = np.random.default_rng([seed, 1])

    def pattern(j):
        return {"kind": "constant" if (j + j // 8) % 2 else "modulated",
                "route": "pq" if j % 8 == 5 else "endpoint", "bc": BCS[j % 3]}

    def draw(cat, u):
        spec = _small_profile(u, cat["kind"])
        return _det_op(spec, cat["bc"], cat["route"], spec["omega"])
    return _generate(rng, size, 5, pattern, draw)


# ---------------------------------------------------------------------------
# det-stress: oscillatory and hyperbolic operators, the integrator dominates


def det_stress(seed: int, size: int) -> list:
    rng = np.random.default_rng([seed, 2])

    def pattern(j):
        return {"hyperbolic": j % 8 == 3, "bc": BCS[j % 3]}

    def draw(cat, u):
        bc = cat["bc"]
        span = _log_uniform(u[1], 2.0, 40.0)
        t_a = _uniform(u[4], -50.0, 50.0)
        if cat["hyperbolic"]:
            k = _uniform(u[0], 5.0, 60.0) / span
            spec = _profile_spec("hyperbolic", t_a, span, k=k)
            return _det_op(spec, bc, "endpoint", k)
        omega = _log_uniform(u[0], 20.0, 300.0) / span
        spec = _profile_spec("modulated", t_a, span, omega=omega,
                             eps=_uniform(u[2], 0.0, 0.2),
                             nu=_uniform(u[3], 0.5, 5.0))
        return _det_op(spec, bc, "endpoint", omega)
    return _generate(rng, size, 5, pattern, draw)


# ---------------------------------------------------------------------------
# green-crosscheck: Green tables, traces and the oracles


def _flow_ok(spec: dict, bc: str, omega0: float) -> bool:
    """The coupling flow from the reference operator to the target must keep
    clear of zero modes; checked on nine points of the flow."""
    kind = spec["kind"]
    sign = None
    for s in np.linspace(0.0, 1.0, 9):
        if kind == "modulated" and bc == "dirichlet":
            probe = dict(spec, omega=math.sqrt(s) * spec["omega"])
        elif kind == "modulated":
            probe = dict(spec, eps=s * spec["eps"])
        else:
            # V_s = omega0^2 - s (k^2 + omega0^2): constant, of either sign
            v = omega0 ** 2 if bc != "dirichlet" else 0.0
            v -= s * (spec["k"] ** 2 + v)
            probe = (dict(spec, kind="constant", omega=math.sqrt(v)) if v >= 0.0
                     else dict(spec, kind="hyperbolic", k=math.sqrt(-v)))
        if probe.get("omega", 1.0) == 0.0:
            if bc == "periodic":
                return False
            continue
        m = ref.coarse_matrix(probe)
        if ref.margin(probe, bc, m) < MARGIN:
            return False
        value = ref.det_from_matrix(m, bc)
        if sign is None:
            sign = value > 0.0
        elif (value > 0.0) != sign:
            return False
    return True


def green_crosscheck(seed: int, size: int) -> list:
    rng = np.random.default_rng([seed, 3])

    def pattern(j):
        if j % 5 == 4:
            return {"kind": "zeromode", "xi": ZERO_MODE_SHAPES[(j // 5) % 2]}
        if j % 10 == 1:
            # the periodic flow from omega0^2 > 0 to -k^2 always passes the
            # free periodic zero mode, so hyperbolic draws skip periodic
            return {"kind": "hyperbolic", "bc": ("dirichlet", "antiperiodic")[(j // 10) % 2]}
        return {"kind": "modulated", "bc": GREEN_BCS[j % 4]}

    def draw(cat, u):
        span = _uniform(u[2], 0.5, 3.0)
        t_a = _uniform(u[3], -5.0, 5.0)
        if cat["kind"] == "zeromode":
            spec = _profile_spec("synthetic", t_a, _uniform(u[0], 0.5, 3.0), xi=cat["xi"])
            return dict(kind="zeromode", bc="dirichlet", n=LATTICE_N, profile=spec)
        bc = cat["bc"]
        if cat["kind"] == "hyperbolic":
            grid = 21 + int(u[1] * 21)
            spec = _profile_spec("hyperbolic", t_a, span, k=_uniform(u[0], 5.0, 60.0) / span)
            omega0 = 0.0 if bc == "dirichlet" else _uniform(u[4], 0.2, 0.8) * math.pi / span
        else:
            grid = 21 + int(u[0] * 21)
            spec = _profile_spec("modulated", t_a, span,
                                 omega=_uniform(u[1], 0.5, 2.7) / span,
                                 eps=_uniform(u[4], 0.0, 0.3),
                                 nu=_uniform(u[5], 0.5, 5.0))
            omega0 = 0.0 if bc == "dirichlet" else spec["omega"]
        if not _ref_ok(bc, span, omega0) or not _det_ok(spec, bc):
            return None
        if not _flow_ok(spec, bc, omega0):
            return None
        return dict(kind="green", bc=bc, omega0=omega0, grid=grid, n=LATTICE_N,
                    g_steps=GFLOW_NODES, profile=spec)
    return _generate(rng, size, 6, pattern, draw)


# ---------------------------------------------------------------------------
# cli-cold: sequential cold invocations of the command line


def _config(spec: dict) -> dict:
    keys = ("omega",) if spec["kind"] == "constant" else ("omega", "eps", "nu")
    return dict(kind=spec["kind"], **{k: spec[k] for k in keys})


def sweep_values(start: float, stop: float, steps: int) -> list:
    """The parameter values `flucdet sweep` visits, computed the same way."""
    if steps == 1:
        return [start]
    return sorted(start + (stop - start) * i / (steps - 1) for i in range(steps))


def sweep_row_spec(spec: dict, param: str, v: float) -> dict:
    if param == "T":
        return dict(spec, t_b=spec["t_a"] + v)
    return dict(spec, **{param: v})


def _cli_args(command: str, spec: dict, bc: str, omega0: float) -> list:
    return [command, "--profile", json.dumps(_config(spec)),
            "--t-a", repr(spec["t_a"]), "--t-b", repr(spec["t_b"]),
            "--bc", bc, "--omega0", repr(omega0)]


def cli_cold(seed: int, size: int) -> list:
    rng = np.random.default_rng([seed, 4])

    def pattern(j):
        slot = j % 16
        command = "det" if slot < 12 else "green" if slot < 14 else "sweep"
        cat = {"command": command, "bc": BCS[j % 3],
               "kind": "constant" if j % 2 else "modulated"}
        if command == "det":
            cat["route"] = "pq" if slot >= 9 else "endpoint"
            if cat["route"] == "pq":
                cat["kind"] = "modulated"
        if command == "sweep":
            param = ("omega", "T", "eps", "nu")[(j // 16) % 4]
            if cat["kind"] == "constant" and param in ("eps", "nu"):
                param = "omega"
            cat["param"] = param
        return cat

    def draw(cat, u):
        bc, kind = cat["bc"], cat["kind"]
        spec = _small_profile(u, kind)
        omega0 = spec["omega"]
        if cat["command"] == "det":
            route = cat["route"]
            op = _det_op(spec, bc, route, omega0)
            if op is None:
                return None
            args = _cli_args("det", spec, bc, omega0)
            if route == "pq":
                args += ["--method", "pq"]
            return dict(op, kind="cli-det", args=args)
        if cat["command"] == "green":
            if not _ref_ok(bc, spec["t_b"] - spec["t_a"], omega0) or not _det_ok(spec, bc):
                return None
            return dict(kind="cli-green", bc=bc, omega0=omega0, grid=21, profile=spec,
                        args=_cli_args("green", spec, bc, omega0) + ["--grid-size", "21"])
        span = spec["t_b"] - spec["t_a"]
        param = cat["param"]
        start = span if param == "T" else spec[param]
        stop = start * _uniform(u[5], 1.05, 1.3)
        for v in sweep_values(start, stop, 10):
            row = sweep_row_spec(spec, param, v)
            if not _ref_ok(bc, row["t_b"] - row["t_a"], omega0) or not _det_ok(row, bc):
                return None
        args = _cli_args("sweep", spec, bc, omega0) + [
            "--param", param, "--from", repr(start), "--to", repr(stop), "--steps", "10"]
        return dict(kind="cli-sweep", bc=bc, omega0=omega0, profile=spec, param=param,
                    start=start, stop=stop, steps=10, args=args)
    return _generate(rng, size, 6, pattern, draw)


GENERATORS = {
    "det-sweep": det_sweep,
    "det-stress": det_stress,
    "green-crosscheck": green_crosscheck,
    "cli-cold": cli_cold,
}


def generate(workload: str, seed: int, count: int = LIST_SIZE) -> list:
    """The op list of a run that issues `count` ops."""
    return GENERATORS[workload](seed, max(LIST_SIZE, count))


def op_count(workload: str, seconds: int) -> int:
    """Ops one run issues: the first ones of the list, in order."""
    return max(1, round(seconds * OPS_PER_SECOND[workload]))
