"""Acceptance checks: one test per shipping criterion.

Each test prints a single PASS/FAIL line with the worst observed error and
the elapsed compute time, then asserts the stated tolerance and budget.
"""

import math
import time

import numpy as np
import pytest

import flucdet as fd
from flucdet.determinants import (
    _trace_identity_residual,
    det_antiperiodic,
    det_dirichlet,
    det_dirichlet_regularized,
    det_periodic,
    determinant,
    van_vleck_check,
)
from flucdet.ermakov import det_ratio_dirichlet_pq, det_ratio_periodic_pq, solve_ermakov
from flucdet.green import GreenKernel
from flucdet.odesolve import _mix_basis, make_basis
from flucdet.oracle import (
    gflow_ratio,
    lattice_ratio,
    lattice_ratio_richardson,
    pseudo_det_ratio,
)

ALL_BCS = ("dirichlet", "periodic", "antiperiodic")


def report(tag: str, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {tag}: {status} [{detail}] ({elapsed:.3f}s)")


def const(omega, t_a=0.0, t_b=1.0):
    return fd.make_constant_profile(omega, fd.Interval(t_a, t_b))


def test_criterion_01_free_interval_determinants():
    start = time.perf_counter()
    worst = 0.0
    for span in (0.5, 1.0, 3.0):
        value = det_dirichlet(make_basis(const(0.0, 0.0, span))).value
        worst = max(worst, abs(value / span - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 0.1
    report("01 free interval", ok, elapsed, f"worst rel {worst:.2e}")
    assert worst <= 1e-10
    assert elapsed < 0.1


def test_criterion_02_constant_frequency_dirichlet():
    start = time.perf_counter()
    worst = 0.0
    for omega, span in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.5), (2.0, 2.0)):
        value = det_dirichlet(make_basis(const(omega, 0.0, span))).value
        exact = math.sin(omega * span) / omega
        worst = max(worst, abs(value - exact) / abs(exact))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    report("02 constant dirichlet", ok, elapsed, f"worst rel {worst:.2e}")
    assert worst <= 1e-8
    assert elapsed < 1.0


def test_criterion_03_constant_frequency_wrapped():
    start = time.perf_counter()
    worst_value = 0.0
    worst_ratio = 0.0
    for omega, span in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.5)):
        basis = make_basis(const(omega, 0.0, span))
        per = det_periodic(basis, omega0=omega)
        anti = det_antiperiodic(basis, omega0=omega)
        half = 0.5 * omega * span
        exact_per = 4.0 * math.sin(half) ** 2
        exact_anti = 4.0 * math.cos(half) ** 2
        worst_value = max(
            worst_value,
            abs(per.value - exact_per) / abs(exact_per),
            abs(anti.value - exact_anti) / abs(exact_anti))
        worst_ratio = max(worst_ratio, abs(per.ratio - 1.0),
                          abs(anti.ratio - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_value <= 1e-8 and worst_ratio <= 1e-10 and elapsed < 1.0
    report("03 constant wrapped", ok, elapsed,
           f"value rel {worst_value:.2e}, ratio err {worst_ratio:.2e}")
    assert worst_value <= 1e-8
    assert worst_ratio <= 1e-10
    assert elapsed < 1.0


def test_criterion_04_modulated_vs_lattice(modulated_profile):
    start = time.perf_counter()
    worst_lattice = 0.0
    worst_refined = 0.0
    for bc in ALL_BCS:
        omega0 = 0.0 if bc == "dirichlet" else 1.0
        closed = determinant(modulated_profile, bc=bc, omega0=omega0).ratio
        plain = lattice_ratio(modulated_profile, bc, omega0, 2000)
        refined = lattice_ratio_richardson(modulated_profile, bc, omega0, 2000)
        worst_lattice = max(worst_lattice, abs(plain / closed - 1.0))
        worst_refined = max(worst_refined, abs(refined / closed - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_lattice <= 2e-4 and worst_refined <= 1e-6 and elapsed < 30.0
    report("04 modulated vs lattice", ok, elapsed,
           f"plain rel {worst_lattice:.2e}, refined rel {worst_refined:.2e}")
    assert worst_lattice <= 2e-4
    assert worst_refined <= 1e-6
    assert elapsed < 30.0


def test_criterion_05_coupling_flow(modulated_profile):
    start = time.perf_counter()
    closed = det_dirichlet(make_basis(modulated_profile)).ratio
    flowed = gflow_ratio(modulated_profile, "dirichlet", g_steps=32)
    elapsed = time.perf_counter() - start
    rel = abs(flowed / closed - 1.0)
    ok = rel <= 1e-5 and elapsed < 10.0
    report("05 coupling flow", ok, elapsed, f"rel {rel:.2e}")
    assert rel <= 1e-5
    assert elapsed < 10.0


def test_criterion_06_trace_identity(modulated_profile):
    start = time.perf_counter()
    worst = 0.0
    for bc in ALL_BCS:
        for g in (0.2, 0.5, 0.8):
            _, _, rel = _trace_identity_residual(modulated_profile, bc, g)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5
    report("06 trace identity", ok, elapsed, f"worst rel {worst:.2e}")
    assert worst <= 1e-5


def test_criterion_07_action_second_differences(modulated_profile):
    start = time.perf_counter()
    worst = 0.0
    for profile in (const(1.0), modulated_profile):
        expected = det_dirichlet(make_basis(profile)).value
        value = van_vleck_check(profile)
        worst = max(worst, abs(value / expected - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5
    report("07 action check", ok, elapsed, f"worst rel {worst:.2e}")
    assert worst <= 1e-5


def test_criterion_08_zero_mode_regularization(sinpi_profile):
    start = time.perf_counter()
    exact = -1.0 / (2.0 * math.pi ** 2)
    result = det_dirichlet_regularized(sinpi_profile)
    closed_rel = abs(result.det_regularized / exact - 1.0)
    chain_rel = abs(result.quotient_extrapolated / result.det_regularized - 1.0)
    spectrum = pseudo_det_ratio(sinpi_profile, "dirichlet", 2000)
    lattice_rel = abs(-spectrum.aligned_pseudo_det / exact - 1.0)
    elapsed = time.perf_counter() - start
    ok = (closed_rel <= 1e-6 and chain_rel <= 1e-3
          and lattice_rel <= 1e-4 and elapsed < 30.0)
    report("08 zero mode", ok, elapsed,
           f"closed rel {closed_rel:.2e}, chain rel {chain_rel:.2e}, "
           f"lattice rel {lattice_rel:.2e}")
    assert closed_rel <= 1e-6
    assert chain_rel <= 1e-3
    assert lattice_rel <= 1e-4
    assert elapsed < 30.0


def test_criterion_09_basis_independence(modulated_profile, rng):
    start = time.perf_counter()
    basis = make_basis(modulated_profile)
    reference = {
        "dirichlet": det_dirichlet(basis).value,
        "periodic": det_periodic(basis, 1.0).value,
        "antiperiodic": det_antiperiodic(basis, 1.0).value,
    }
    worst = 0.0
    produced = 0
    while produced < 50:
        matrix = rng.uniform(-2.0, 2.0, size=(2, 2))
        if abs(np.linalg.det(matrix)) < 0.1:
            continue
        produced += 1
        mixed = _mix_basis(basis, matrix)
        for bc, expected in reference.items():
            if bc == "dirichlet":
                value = det_dirichlet(mixed).value
            elif bc == "periodic":
                value = det_periodic(mixed, 1.0).value
            else:
                value = det_antiperiodic(mixed, 1.0).value
            worst = max(worst, abs(value / expected - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9
    report("09 basis independence", ok, elapsed, f"worst rel {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_10_kernel_properties(rng):
    start = time.perf_counter()
    profiles = (
        const(0.5, 0.0, 1.5),
        const(1.0),
        const(2.0),
        fd.make_modulated_profile(1.0, 0.2, 3.0, fd.Interval(0.0, 2.0)),
        fd.make_modulated_profile(1.0, 0.3, math.pi, fd.Interval(0.0, 2.0)),
    )
    h = 1e-3
    worst = {"symmetry": 0.0, "continuity": 0.0, "jump": 0.0,
             "annihilation": 0.0, "boundary": 0.0}
    for profile in profiles:
        iv = profile.interval
        basis = make_basis(profile)
        lo, hi = iv.t_a + 2.5 * h, iv.t_b - 2.5 * h
        for bc in ALL_BCS:
            kernel = GreenKernel(basis, bc)
            pairs = rng.uniform(lo, hi, size=(100, 2))
            for t, tp in pairs:
                scale = 1.0 + abs(kernel(t, tp))
                worst["symmetry"] = max(
                    worst["symmetry"],
                    abs(kernel(t, tp) - kernel(tp, t)) / scale)
            for t in rng.uniform(lo, hi, size=8):
                d = 1e-8
                worst["continuity"] = max(
                    worst["continuity"],
                    abs(kernel(t, t + d) - kernel(t, t - d)))
                worst["jump"] = max(worst["jump"],
                                    abs(kernel.slope_jump(t) + 1.0))
            count = 0
            while count < 8:
                t, tp = rng.uniform(lo, hi, size=2)
                if abs(t - tp) < 6.0 * h:
                    continue
                count += 1
                stencil = (-kernel(t + 2 * h, tp) + 16.0 * kernel(t + h, tp)
                           - 30.0 * kernel(t, tp) + 16.0 * kernel(t - h, tp)
                           - kernel(t - 2 * h, tp))
                second = stencil / (12.0 * h * h)
                worst["annihilation"] = max(
                    worst["annihilation"],
                    abs(-second - profile(t) * kernel(t, tp)))
            sign = {"periodic": 1.0, "antiperiodic": -1.0}.get(bc)
            for s in rng.uniform(lo, hi, size=8):
                if bc == "dirichlet":
                    residual = max(abs(kernel(iv.t_a, s)),
                                   abs(kernel(iv.t_b, s)))
                else:
                    residual = max(
                        abs(kernel(iv.t_b, s) - sign * kernel(iv.t_a, s)),
                        abs(kernel.evaluate_dt(iv.t_b, s)
                            - sign * kernel.evaluate_dt(iv.t_a, s)))
                worst["boundary"] = max(worst["boundary"], residual)
    elapsed = time.perf_counter() - start
    ok = (worst["symmetry"] <= 1e-9 and worst["continuity"] <= 1e-6
          and worst["jump"] <= 1e-6 and worst["annihilation"] <= 1e-6
          and worst["boundary"] <= 1e-6)
    report("10 kernel properties", ok, elapsed,
           ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    assert worst["symmetry"] <= 1e-9
    assert worst["continuity"] <= 1e-6
    assert worst["jump"] <= 1e-6
    assert worst["annihilation"] <= 1e-6
    assert worst["boundary"] <= 1e-6


def test_criterion_11_amplitude_phase_route(modulated_profile, seam_profile):
    start = time.perf_counter()
    worst_match = 0.0
    for profile in (const(1.0), modulated_profile):
        endpoint = det_dirichlet(make_basis(profile)).ratio
        pq = det_ratio_dirichlet_pq(solve_ermakov(profile, omega0=1.0))
        worst_match = max(worst_match, abs(pq / endpoint - 1.0))
    seam_basis = make_basis(seam_profile)
    seam_sol = solve_ermakov(seam_profile, omega0=1.0, bc="periodic")
    for anti, closed in ((False, det_periodic(seam_basis, 1.0).ratio),
                         (True, det_antiperiodic(seam_basis, 1.0).ratio)):
        pq = det_ratio_periodic_pq(seam_sol, anti=anti)
        worst_match = max(worst_match, abs(pq / closed - 1.0))

    # omega0 independence: the Dirichlet ratio, the total phase, and the
    # wrapped ratio times its reference must not move
    span = seam_profile.interval.span
    dir_ratios, phases, wrapped_values = [], [], []
    for w0 in (0.7, 1.0, 2.3):
        sol = solve_ermakov(modulated_profile, omega0=w0)
        dir_ratios.append(det_ratio_dirichlet_pq(sol))
        phases.append(w0 * sol.q_b)
        per = solve_ermakov(seam_profile, omega0=w0, bc="periodic")
        wrapped_values.append(det_ratio_periodic_pq(per)
                              * 4.0 * math.sin(0.5 * w0 * span) ** 2)
    worst_invariance = 0.0
    for seq in (dir_ratios, phases, wrapped_values):
        spread = (max(seq) - min(seq)) / abs(seq[0])
        worst_invariance = max(worst_invariance, spread)
    elapsed = time.perf_counter() - start
    ok = worst_match <= 1e-6 and worst_invariance <= 1e-7
    report("11 amplitude-phase route", ok, elapsed,
           f"match rel {worst_match:.2e}, invariance {worst_invariance:.2e}")
    assert worst_match <= 1e-6
    assert worst_invariance <= 1e-7
