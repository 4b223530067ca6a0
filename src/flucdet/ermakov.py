"""The amplitude-phase (p, q) route: its solve and its determinant ratios.

A positive amplitude p solving p'' + Omega^2 p = p^-3 together with the
phase q from omega0*q'*p^2 = 1 parametrizes a solution basis in closed form.
The determinant ratios then reduce to endpoint data of (p, q) alone, giving a
route independent of the endpoint-matrix path; the two must agree.  The
system is solved by the package's own adaptive DOP853 (dop853.py, compiled
on the route's first solve), which steps as scipy's solve_ivp(method="DOP853")
does and builds its dense output only for the steps a time falls into; the
periodic amplitude is superposed from that one solve (solve_ermakov).

The combination omega0*q(t) is invariant under the choice of omega0 (q picks
up a compensating 1/omega0), so all ratios here are omega0 independent up to
integration error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateOperatorError, ShootingError
from .green import reference_determinant
from .odesolve import (MAGNUS_STEPS_PER_RADIAN, HomogeneousBasis, _adjugate, _on_interval,
                       _product)
from .profiles import FrequencyProfile, Interval

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14
# periodic amplitude: how closely p and p' must return to their start
SHOOTING_TOL = 1e-8
PQ_DEGENERACY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ErmakovSolution:
    """Amplitude p(t) and phase q(t) with p'' + Omega^2 p = p^-3, omega0*q'*p^2 = 1.

    state(t) returns (p, p', q) at a time or, as rows, at a 1-D array of
    times.  q is normalized to q(t_a) = 0.  For bc="periodic" the amplitude
    satisfies p(t_b) = p(t_a) and p'(t_b) = p'(t_a) to SHOOTING_TOL, and
    newton_iterations counts the closed-form corrections it took, 0 or 1;
    a corrected amplitude is superposed from the initial solve's states.
    knots are the integrator's step times from t_a to t_b and q_knots the
    phase at them, read from the solver's own step-end states.
    """

    state: Callable[[object], np.ndarray]
    omega0: float
    p_a: float
    p_b: float
    dp_a: float
    dp_b: float
    q_b: float
    profile: FrequencyProfile
    periodic: bool
    knots: np.ndarray
    q_knots: np.ndarray
    newton_iterations: int = 0

    @property
    def interval(self) -> Interval:
        return self.profile.interval


def _pinney_start(p_a, end, omega0):
    """The periodic amplitude's start (p_a, p'_a) from the end state (p_b,
    p'_b, q_b) of one solve from (p_a, 0, 0).  Its basis (p cos theta, p sin theta),
    theta = omega0 q, has Wronskian 1 and gives the monodromy M; the periodic
    amplitude's form [[p^2, p p'], [p p', p'^2 + p^-2]] at t_a is the one M
    leaves invariant (Pinney, Proc. AMS 1, 681, 1950; Lewis and Riesenfeld,
    J. Math. Phys. 10, 1458, 1969), so p_a^2 = 2|M12| / sqrt(4 - tr^2 M)
    and p_a p'_a = -sign(M12) (M11 - M22) / sqrt(4 - tr^2 M); _superposition
    reads that amplitude off the same solve."""
    p_b, dp_b, q_b = end
    s, c = math.sin(omega0 * q_b), math.cos(omega0 * q_b)
    m11, m12, m22 = p_b * c / p_a, p_a * p_b * s, p_a * (dp_b * s + c / p_b)
    trace = m11 + m22
    if not abs(trace) < 2.0:
        raise ShootingError(
            f"no periodic amplitude: |tr M| = {abs(trace):.4g} >= 2, the profile is "
            f"at a parametric resonance")
    root = math.sqrt((2.0 - trace) * (2.0 + trace))
    p = math.sqrt(2.0 * abs(m12) / root)
    return p, -math.copysign(1.0, m12) * (m11 - m22) / (root * p)


def _superposition(p1_a, p_a, dp_a, omega0):
    """States (p, p', q) of the amplitude from (p_a, p'_a, 0), as rows, from
    those (p1, p1', q1) of the solve from (p1_a, 0, 0).  Every amplitude is
    p^2 = w^T G w, det G = 1, over the Wronskian-1 basis w = p1 c, c = (cos,
    sin)(omega0 q1) (Pinney, 1950): p = p1 (c^T G c)^(1/2) and p p' = p1 p1'
    c^T G c + c_perp^T G c, c_perp = (-sin, cos)(omega0 q1).  omega0 q turns
    from omega0 q1 by the angle from c to L c, G = L^T L with L upper
    triangular; L's eigenvalues are positive, so that angle stays in (-pi, pi)."""
    r, g12 = p_a / p1_a, p_a * dp_a  # L = [[r, g12 / r], [0, 1 / r]]
    g11, g22 = r * r, (1.0 + g12 * g12) / (r * r)

    def superposed(y):
        p1, dp1, q1 = y
        c, s = np.cos(omega0 * q1), np.sin(omega0 * q1)
        cc, cs, ss = c * c, c * s, s * s
        form = g11 * cc + 2.0 * g12 * cs + g22 * ss
        p = p1 * np.sqrt(form)
        dp = (p1 * dp1 * form + (g22 - g11) * cs + g12 * (cc - ss)) / p
        turn = np.arctan2(cs * (1.0 / r - r) - g12 / r * ss, r * cc + g12 / r * cs + ss / r)
        return np.array([p, dp, q1 + turn / omega0])

    return superposed


def solve_ermakov(profile: FrequencyProfile, omega0: float,
                  bc: str = "initial") -> ErmakovSolution:
    """Solve the amplitude-phase system for the profile.

    bc="initial" starts from p(t_a) = Omega(t_a)^(-1/2) (or 1 if Omega^2(t_a)
    is not positive) with p'(t_a) = 0, and dop853.solve integrates (p, p', q)
    to DEFAULT_RTOL and DEFAULT_ATOL.  bc="periodic" keeps that solve if
    its endpoint amplitude and slope match the start to SHOOTING_TOL, and
    otherwise corrects it once: Pinney's closed form (_pinney_start), read
    from the solve's own monodromy, gives the periodic start, and the
    periodic amplitude is superposed from the same solve (_superposition),
    so every bc costs one solve; newton_iterations counts the correction, 0
    or 1.  Raises ShootingError at a parametric resonance (|tr M| >= 2,
    where no periodic amplitude exists) or when the corrected amplitude
    misses SHOOTING_TOL.
    """
    if not 0.0 < omega0 < math.inf:
        raise ValueError(f"omega0 must be positive and finite, got {omega0}")
    if bc not in ("initial", "periodic"):
        raise ValueError(f"bc must be 'initial' or 'periodic', got {bc!r}")
    iv = profile.interval
    from .dop853 import solve  # compiled on the route's first solve

    om_a = float(profile.omega_sq(np.array(iv.t_a)))
    p_a = om_a ** (-0.25) if om_a > 0.0 else 1.0
    dp_a = 0.0
    sol = solve(profile.omega_sq, iv, float(omega0), [p_a, dp_a, 0.0], DEFAULT_RTOL,
                DEFAULT_ATOL)
    state, end, q_knots, corrections = sol, sol.ys[-1], sol.ys[:, 2], 0

    def residual():
        return max(abs(end[0] - p_a), abs(end[1] - dp_a))

    if bc == "periodic" and residual() > SHOOTING_TOL * (1.0 + p_a):
        p1_a, (p_a, dp_a) = p_a, _pinney_start(p_a, end, omega0)
        superposed = _superposition(p1_a, p_a, dp_a, omega0)
        end, q_knots, corrections = superposed(end), superposed(sol.ys.T)[2], 1

        def state(t):
            return superposed(sol(t))

        if residual() > SHOOTING_TOL * (1.0 + p_a):
            raise ShootingError(
                f"the periodic amplitude from Pinney's closed form misses SHOOTING_TOL = "
                f"{SHOOTING_TOL} (residual {residual():.3e})")

    return ErmakovSolution(
        state=_on_interval(state, iv), omega0=float(omega0),
        p_a=p_a, p_b=float(end[0]), dp_a=dp_a, dp_b=float(end[1]),
        q_b=float(end[2]), profile=profile, periodic=(bc == "periodic"),
        knots=sol.ts, q_knots=q_knots,
        newton_iterations=corrections)


def _nonzero(sine: float, what: str, bc: str) -> float:
    """The sine a pq reader is built from; within PQ_DEGENERACY_TOL of 0 it is refused."""
    if abs(sine) <= PQ_DEGENERACY_TOL:
        raise DegenerateOperatorError(
            f"amplitude-phase {what} = {sine:.3e} is within PQ_DEGENERACY_TOL = "
            f"{PQ_DEGENERACY_TOL} of zero: the operator has a {bc} zero mode")
    return sine


def basis_from_pq(sol: ErmakovSolution) -> HomogeneousBasis:
    """Closed-form basis (eta, xi) with eta_a = xi_b = 0 and eta_b = xi_a = 1.

    xi(t) = p(t) p_b sin(omega0 (q_b - q(t))) / D and
    eta(t) = p(t) p_a sin(omega0 q(t)) / D with D = p_a p_b sin(omega0 q_b).
    Slopes use the phase constraint omega0 q' = 1/p^2, so no numerical
    differentiation is involved.  The frame is (Y(t) Y_a^{-1}, M adj(Phi(t))),
    whose second half cancels growing solutions; the knots split the solver's
    steps to 1/MAGNUS_STEPS_PER_RADIAN radian of omega0 q or less.
    """
    w0 = sol.omega0
    p_a, p_b = sol.p_a, sol.p_b
    phase = w0 * sol.q_b  # omega0 (q_b - q_a), q_a = 0
    sin_phase = _nonzero(math.sin(phase), "sin(omega0 q_b)", "Dirichlet")
    d = p_a * p_b * sin_phase
    cos_phase = math.cos(phase)
    y_a = np.array([[0.0, 1.0],
                    [1.0 / d, (sol.dp_a * p_b * sin_phase - (p_b / p_a) * cos_phase) / d]])
    y_b = np.array([[1.0, 0.0],
                    [(sol.dp_b * p_a * sin_phase + (p_a / p_b) * cos_phase) / d, -1.0 / d]])
    w, adj_a = -1.0 / d, _adjugate(y_a)  # W = det Y_a
    m = y_b @ adj_a / w

    def frame(t):
        p, dp, q = sol.state(t)
        run, rest = w0 * q, w0 * (sol.q_b - q)
        y = np.array([
            [p * p_a * np.sin(run) / d, p * p_b * np.sin(rest) / d],
            [(dp * p_a * np.sin(run) + (p_a / p) * np.cos(run)) / d,
             (dp * p_b * np.sin(rest) - (p_b / p) * np.cos(rest)) / d]])
        phi = _product(y, adj_a / w)
        return phi, _product(m, _adjugate(phi))

    # each solver step splits into ceil(advance) equal parts, at whole part counts
    advance = MAGNUS_STEPS_PER_RADIAN * w0 * np.diff(sol.q_knots)
    counts = np.concatenate(([0.0], np.cumsum(np.maximum(1.0, np.ceil(advance)))))
    knots = np.interp(np.arange(counts[-1] + 1.0), counts, sol.knots)
    return HomogeneousBasis(frame=frame, y_a=y_a, y_b=y_b, profile=sol.profile, knots=knots)


def det_ratio_dirichlet_pq(sol: ErmakovSolution) -> float:
    """Dirichlet determinant ratio p_a p_b sin(omega0 q_b) / (t_b - t_a)."""
    sine = _nonzero(math.sin(sol.omega0 * sol.q_b), "sin(omega0 q_b)", "Dirichlet")
    return sol.p_a * sol.p_b * sine / sol.interval.span


def det_ratio_periodic_pq(sol: ErmakovSolution, anti: bool = False) -> float:
    """Wrapped-boundary ratio 4sin^2(omega0 q_b/2) over the reference
    determinant 4sin^2(omega0 T/2) (cosines for the antiperiodic case).

    Valid only for an amplitude satisfying the periodic endpoint conditions,
    which the formula's derivation assumes: solve_ermakov(bc="periodic")
    holds it to SHOOTING_TOL and marks the solution periodic, and any other
    solution is rejected.
    """
    if not sol.periodic:
        raise ValueError("amplitude solution does not satisfy periodic endpoint "
                         "conditions; solve with bc='periodic'")
    bc = "antiperiodic" if anti else "periodic"
    _, ref = reference_determinant(bc, sol.interval.span, sol.omega0)
    half = 0.5 * (sol.omega0 * sol.q_b)
    sine = _nonzero(math.cos(half) if anti else math.sin(half),
                    "cos(omega0 q_b / 2)" if anti else "sin(omega0 q_b / 2)", bc)
    return 4.0 * sine ** 2 / ref
