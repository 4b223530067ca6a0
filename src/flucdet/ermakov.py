"""Determinant ratios through the amplitude-phase (p, q) representation.

A positive amplitude p solving p'' + Omega^2 p = p^-3 together with the
phase q from omega0*q'*p^2 = 1 parametrizes a solution basis in closed form.
The determinant ratios then reduce to endpoint data of (p, q) alone, giving a
route independent of the endpoint-matrix path; the two must agree.

The combination omega0*q(t) is invariant under the choice of omega0 (q picks
up a compensating 1/omega0), so all ratios here are omega0 independent up to
integration error.
"""

from __future__ import annotations

import math

import numpy as np

from .determinants import reference_determinant
from .errors import DegenerateOperatorError
from .odesolve import (MAGNUS_STEPS_PER_RADIAN, ErmakovSolution, HomogeneousBasis,
                       _adjugate, _times)

PQ_DEGENERACY_TOL = 1e-10


def _total_phase(sol: ErmakovSolution) -> float:
    """omega0 * (q_b - q_a) with q_a = 0 by normalization."""
    return sol.omega0 * sol.q_b


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
    phase = _total_phase(sol)
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
        phi = _times(y, adj_a / w)
        return phi, np.einsum("ij,jk...->ik...", m, _adjugate(phi))

    # each solver step splits into ceil(advance) equal parts, at whole part counts
    advance = MAGNUS_STEPS_PER_RADIAN * w0 * np.diff(sol.q_knots)
    counts = np.concatenate(([0.0], np.cumsum(np.maximum(1.0, np.ceil(advance)))))
    knots = np.interp(np.arange(counts[-1] + 1.0), counts, sol.knots)
    return HomogeneousBasis(frame=frame, y_a=y_a, y_b=y_b, profile=sol.profile, knots=knots)


def det_ratio_dirichlet_pq(sol: ErmakovSolution) -> float:
    """Dirichlet determinant ratio p_a p_b sin(omega0 q_b) / (t_b - t_a)."""
    sine = _nonzero(math.sin(_total_phase(sol)), "sin(omega0 q_b)", "Dirichlet")
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
    half = 0.5 * _total_phase(sol)
    sine = _nonzero(math.cos(half) if anti else math.sin(half),
                    "cos(omega0 q_b / 2)" if anti else "sin(omega0 q_b / 2)", bc)
    return 4.0 * sine ** 2 / ref
