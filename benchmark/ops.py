"""The in-process ops: what each workload asks of the program.

Every call into flucdet goes through `call` (see spans.py), so that spans
and failures are charged to the module whose public function was called.
An op returns its outputs as plain numbers for the checker.
"""

from __future__ import annotations

from flucdet.determinants import (det_antiperiodic, det_dirichlet,
                                  det_dirichlet_regularized, det_periodic)
from flucdet.ermakov import det_ratio_dirichlet_pq, det_ratio_periodic_pq
from flucdet.green import GreenKernel, trace_omega_sq
from flucdet.odesolve import make_basis, solve_ermakov
from flucdet.oracle import (gflow_ratio, lattice_ratio, lattice_ratio_richardson,
                            pseudo_det_ratio)
from flucdet.profiles import (Interval, builtin_zero_mode_spec, make_user_profile,
                              make_zero_mode_profile, profile_from_config)

DET_FNS = {"dirichlet": det_dirichlet, "periodic": det_periodic,
           "antiperiodic": det_antiperiodic}


def build_profile(spec: dict, call):
    interval = call(Interval, spec["t_a"], spec["t_b"])
    kind = spec["kind"]
    if kind == "constant":
        profile = call(profile_from_config, {"kind": kind, "omega": spec["omega"]}, interval)
    elif kind == "modulated":
        config = {"kind": kind, "omega": spec["omega"], "eps": spec["eps"], "nu": spec["nu"]}
        profile = call(profile_from_config, config, interval)
    elif kind == "hyperbolic":
        k2 = spec["k"] ** 2
        profile = call(make_user_profile, lambda t, _k2=k2: -_k2, interval,
                       description=f"hyperbolic k={spec['k']!r}")
    else:
        shape = call(builtin_zero_mode_spec, spec["xi"], interval)
        profile = call(make_zero_mode_profile, shape)
    return call.profile(profile)


def op_det(op: dict, call) -> dict:
    profile = build_profile(op["profile"], call)
    bc, omega0 = op["bc"], op["omega0"]
    if op["route"] == "pq":
        if bc == "dirichlet":
            sol = call(solve_ermakov, profile, omega0, bc="initial")
            ratio = call(det_ratio_dirichlet_pq, sol)
        else:
            sol = call(solve_ermakov, profile, omega0, bc="periodic")
            ratio = call(det_ratio_periodic_pq, sol, anti=(bc == "antiperiodic"))
        call.count("ermakov.newton_iters", sol.newton_iterations)
        return {"ratio": ratio}
    basis = call(make_basis, profile)
    if bc == "dirichlet":
        result = call(det_dirichlet, basis)
    else:
        result = call(DET_FNS[bc], basis, omega0)
    return {"value": result.value, "ratio": result.ratio}


def op_green(op: dict, call) -> dict:
    profile = build_profile(op["profile"], call)
    bc, omega0, n = op["bc"], op["omega0"], op["n"]
    basis = call(make_basis, profile)
    kernel = call(GreenKernel, basis, bc)
    _, table = call(kernel.table, op["grid"])
    call.count("green.cells", op["grid"] ** 2)
    trace = call(trace_omega_sq, kernel)
    flow = call(gflow_ratio, profile, bc, omega0=omega0, g_steps=op["g_steps"])
    lattice = call(lattice_ratio, profile, bc, omega0, n)
    call.count("oracle.lattice_points", n)
    richardson = call(lattice_ratio_richardson, profile, bc, omega0, n)
    call.count("oracle.lattice_points", 3 * n)
    return {"table": [v for row in table for v in row], "trace": trace,
            "flow": flow, "lattice": lattice, "richardson": richardson}


def op_zeromode(op: dict, call) -> dict:
    profile = build_profile(op["profile"], call)
    report = call(det_dirichlet_regularized, profile)
    spectrum = call(pseudo_det_ratio, profile, "dirichlet", op["n"], omega0=0.0)
    call.count("oracle.lattice_points", op["n"])
    return {"det_regularized": report.det_regularized,
            "pseudo_det": spectrum.aligned_pseudo_det}


OPS = {"det": op_det, "green": op_green, "zeromode": op_zeromode}
