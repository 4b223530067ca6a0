"""Functional determinants of -d^2/dt^2 - Omega^2(t) from the transfer matrix.

Each determinant is read from the transfer matrix M = Y_b Y_a^{-1} of a
solution basis Y(t) (see odesolve) by green.py's one float read of M: M12
under Dirichlet, 2 - tr M under periodic and 2 + tr M under antiperiodic
conditions.  Values are signed (negative beyond a focal point) and are
reported together with the ratio against green.py's reference operator: the
free operator for Dirichlet, the constant frequency omega0 operator for
periodic and antiperiodic conditions.

Zero modes: with one zero mode, F vanishes and det' K = -dF/dlambda of
K - lambda at 0 (McKane-Tarlie 1995) is read from the exact dM/dlambda, whose
Newton step from F is the one verdict that the mode is there.  The Dirichlet
closed form <xi|xi>/(xi'_a xi'_b) is that slope, +dM12/dlambda = -det' K; a
finite-eps chain (shift the profile by the perturbed eigenvalue, Newton's root
of M12, divide determinant by eigenvalue, extrapolate eps -> 0) must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (DegenerateOperatorError, ProfileError, ShootingError,
                     VerificationError)
from .green import (GreenKernel, _det_slope, _read_transfer, _refuse_degenerate, _sigma,
                    reference_determinant, trace_omega_sq)
from .odesolve import HomogeneousBasis, make_basis
from .profiles import FrequencyProfile, _shifted_profile

ZERO_MODE_PRESENT_TOL = 1e-6
EPS_CHAIN_CHECK_TOL = 1e-3
EIGENVALUE_SHIFT_MAX_ITER = 60


@dataclass(frozen=True)
class DetResult:
    """Signed determinant value plus its normalized ratio and diagnostics."""

    value: float
    ratio: float
    bc: str
    reference: str
    reference_value: float
    omega0: Optional[float]
    diagnostics: dict = field(repr=False)


def _det(basis: HomogeneousBasis, bc: str, omega0: float) -> DetResult:
    """The determinant under bc read from M, its ratio over the reference and
    its diagnostics: the Wronskian, the determinant of the basis endpoint
    matrix (W times the value), the condition estimate of the read, the
    integrator's steps and its error estimate for the entries of M,
    det_m_residual = |det M - 1| over max(1, max|M_ij|)^2, the scale of the
    rounding of det M (unscaled, det M overflows for kT above about 355), and
    for the wrapped conditions whether Omega^2 takes one value at both ends.
    A value zero to its condition (green._refuse_degenerate) is refused."""
    iv, sigma = basis.interval, _sigma(bc)
    value, condition, ((a, b), (c, d)) = _read_transfer(basis.m, bc)
    reference, ref = reference_determinant(bc, iv.span, omega0)
    _refuse_degenerate(condition, f"zero mode detected for bc={bc} (determinant {value!r}, "
                       "{}); use det --regularized")
    scale = max(1.0, abs(a), abs(b), abs(c), abs(d))
    a, b, c, d = a / scale, b / scale, c / scale, d / scale
    w = basis.w
    diagnostics = {"w": w, "endpoint_det": w * value, "condition": condition,
                   "steps": len(basis.knots) - 1,
                   "error_estimate": basis.error_estimate,
                   "det_m_residual": abs(a * d - b * c - 1.0 / scale / scale)}
    if sigma:
        om = basis.profile.omega_sq
        om_a, om_b = om(iv.t_a), om(iv.t_b)
        diagnostics["profile_period_compatible"] = bool(
            abs(om_a - om_b) <= 1e-8 * (1.0 + abs(om_a)))
    return DetResult(value=value, ratio=value / ref, bc=bc, reference=reference,
                     reference_value=ref, diagnostics=diagnostics,
                     omega0=float(omega0) if sigma else None)


def det_dirichlet(basis: HomogeneousBasis) -> DetResult:
    """Determinant under Dirichlet conditions, M12, over the free operator's."""
    return _det(basis, "dirichlet", 0.0)


def det_periodic(basis: HomogeneousBasis, omega0: float) -> DetResult:
    return _det(basis, "periodic", omega0)


def det_antiperiodic(basis: HomogeneousBasis, omega0: float) -> DetResult:
    return _det(basis, "antiperiodic", omega0)


def determinant(profile: FrequencyProfile, bc: str = "dirichlet",
                omega0: float = 1.0) -> DetResult:
    """Build a basis and evaluate the determinant for one bc."""
    return _det(make_basis(profile), bc, omega0)


# ---------------------------------------------------------------------------
# trace identity: Tr Omega^2 G_g = -d/dg log det K_g


def _trace_identity_residual(profile: FrequencyProfile, bc: str, g: float):
    """Both sides of the trace identity at coupling g.

    Returns (trace, -dlogdet/dg, relative residual).  The trace of
    Omega^2 * G_g is computed from the Green kernel; the derivative side is
    the exact dF/dg of the same basis (green._det_slope with weight Omega^2)
    over F = kernel.denom.
    """
    basis = make_basis(profile, g=g)
    kernel = GreenKernel(basis, bc)
    lhs = trace_omega_sq(kernel)
    rhs = -_det_slope(basis, bc, profile.omega_sq) / kernel.denom
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return lhs, rhs, abs(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# Van Vleck cross-check


def van_vleck_check(profile: FrequencyProfile) -> float:
    """Determinant from the mixed derivative of the classical action.

    The action of L = (xdot^2 - Omega^2 x^2) / 2 along the classical path
    between endpoint values (x_a, x_b) is a quadratic form in them, whose
    mixed derivative is integral (x1' x2' - Omega^2 x1 x2) over the unit
    paths x1 = (1 at t_a, 0 at t_b) and x2 = (0, 1); the determinant is -1
    over it.  x2 = v / M12 comes from the prefix products and
    (x1, x1') = (S12, -S11) / M12 from the suffix products S(t) = Phi(t_b, t),
    so neither path is a difference of growing solutions.  The integral is
    taken by the basis's Gauss rule on the integrator's steps
    (HomogeneousBasis.quadrature).  A path through M12 zero to its condition
    (green._refuse_degenerate) is refused.
    """
    basis = make_basis(profile, g=1.0)
    m12, condition, _ = _read_transfer(basis.m, "dirichlet")
    _refuse_degenerate(condition, "classical path is degenerate: a solution "
                       f"vanishes at both endpoints (M12 = {m12:.3e}, {{}})")

    nodes, weights = basis.quadrature
    phi, s = basis.frame(nodes)
    x2, dx2 = phi[:, 1] / m12
    (s11, s12), _ = s / m12
    mixed = float(weights @ (-s11 * dx2 - profile.omega_sq(nodes) * s12 * x2))
    if mixed == 0.0:
        raise DegenerateOperatorError("mixed derivative of the action vanishes")
    return -1.0 / mixed


# ---------------------------------------------------------------------------
# zero-mode regularized determinants


def _zero_mode_slope(basis: HomogeneousBasis, bc: str) -> float:
    """dF/dlambda at lambda = 0 (green._det_slope), F the determinant under bc
    read from M, for a basis with one simple zero mode under bc: the one
    zero-mode verdict.  Newton's step T^2 |F / (dF/dlambda)| to the eigenvalue
    nearest zero must be within ZERO_MODE_PRESENT_TOL, else the profile is
    refused as having no simple zero mode."""
    slope = _det_slope(basis, bc)
    value = _read_transfer(basis.m, bc)[0]
    newton = basis.interval.span ** 2 * abs(value / slope) if slope else math.inf
    if newton > ZERO_MODE_PRESENT_TOL:
        raise ProfileError(
            f"profile has no simple {bc} zero mode: Newton's step T^2 |F / (dF/dlambda)| = "
            f"{newton:.3e} exceeds ZERO_MODE_PRESENT_TOL = {ZERO_MODE_PRESENT_TOL}")
    return slope


@dataclass(frozen=True)
class ZeroModeReport:
    """Regularized Dirichlet determinant and the finite-eps chain data."""

    xi_norm_sq: float
    dxi_a: float
    dxi_b: float
    lambda_eps: float
    eps: float
    det_regularized: float
    det_eps: float
    quotient_eps: float
    quotient_eps_half: float
    quotient_extrapolated: float
    lambda_over_eps: float
    check_residual: float


def _eigenvalue_shift(profile: FrequencyProfile, slope: float, slope_b: float, eps: float):
    """Solve A(lam) = eps by Newton's method, where A(lam) is the value at t_a
    of the solution of the lam-shifted equation with (0, slope_b) at t_b.

    That solution is M^{-1} (0, slope_b) at t_a, so A = -slope_b M12(lam) with
    det M = 1.  The first step is from lam = 0, where M12 = 0 and dM12/dlam =
    slope (the verdict's), the next from _det_slope of the shifted basis: only
    M12 values set the root.  A slope that is zero or not finite, like a miss,
    is refused.  Returns lam and M12(lam), the shifted Dirichlet determinant.
    """
    # The boundary value inherits inaccuracies of the profile representation
    # (its extrapolated endpoint limits and the seam next to them), so the
    # residual target is relative to eps; a 1e-6 relative shift error is far
    # below the 1e-3 budget of the quotient chain this feeds.
    tol = max(1e-14, 1e-6 * abs(eps))
    lam, m12, dm12, residual = 0.0, 0.0, slope, abs(eps)
    for _ in range(EIGENVALUE_SHIFT_MAX_ITER):
        if not (dm12 and math.isfinite(dm12)):
            break
        lam -= (m12 + eps / slope_b) / dm12
        basis = make_basis(_shifted_profile(profile, lam))
        m12 = _read_transfer(basis.m, "dirichlet")[0]
        residual = abs(slope_b * m12 + eps)
        if residual <= tol:
            return lam, m12
        dm12 = _det_slope(basis, "dirichlet")
    raise ShootingError(
        f"perturbed-eigenvalue Newton solve misses within EIGENVALUE_SHIFT_MAX_ITER = "
        f"{EIGENVALUE_SHIFT_MAX_ITER} steps (residual {residual:.3e}, dM12/dlambda {dm12!r})")


def det_dirichlet_regularized(profile: FrequencyProfile,
                              eps: Optional[float] = None) -> ZeroModeReport:
    """Regularized determinant <xi|xi>/(xi'_a xi'_b) for a profile whose
    operator annihilates a Dirichlet zero mode, plus the finite-eps chain.

    The closed form is +dM12/dlambda of K - lambda at lambda = 0, the slope of
    the zero-mode verdict (_zero_mode_slope), minus det' K = -dF/dlambda and
    minus the lattice's aligned_pseudo_det; <xi|xi> is read from it.  The
    chain perturbs the boundary value at t_a to eps (finite, nonzero), solves
    for the perturbed eigenvalue, shifts the profile by it, and divides the
    shifted determinant by the eigenvalue; one Richardson step in eps must
    reproduce the closed form to 1e-3 relative or a verification error is raised.
    """
    if eps is not None and not (math.isfinite(eps) and eps != 0.0):
        raise ValueError(f"eps must be finite and nonzero, got {eps!r}")
    span = profile.interval.span

    basis = make_basis(profile, g=1.0)
    det_reg = _zero_mode_slope(basis, "dirichlet")

    # the zero mode is the column v of Phi (unit slope at t_a) scaled to the slope
    # of the profile's shape at t_a, if any: det_reg and the floor do not depend on it
    zm = profile.zero_mode
    dxi_a = 1.0 if zm is None else float(zm.dxi(profile.interval.t_a))
    dxi_b = dxi_a * float(basis.m[1, 1])
    slope_floor = 1e-8 * max(abs(dxi_a), abs(dxi_b))
    if abs(dxi_a) <= slope_floor or abs(dxi_b) <= slope_floor:
        raise DegenerateOperatorError(
            "zero-mode endpoint slope vanishes; the regularized determinant "
            f"formula is undefined (slopes {dxi_a:.3e}, {dxi_b:.3e})")

    if eps is None:
        eps = 1e-4 * span * max(abs(dxi_a), abs(dxi_b))
    eps = float(eps)

    def quotient(e: float):
        lam, det_shifted = _eigenvalue_shift(profile, det_reg, dxi_b, e)
        return det_shifted / lam, lam

    q_full, lam_full = quotient(eps)
    q_half, _ = quotient(0.5 * eps)
    q_star = 2.0 * q_half - q_full

    residual = abs(q_star / det_reg - 1.0)
    if residual > EPS_CHAIN_CHECK_TOL:
        raise VerificationError(
            "finite-eps chain disagrees with the closed-form regularized "
            f"determinant: extrapolated {q_star!r} vs {det_reg!r} "
            f"(relative residual {residual:.3e} > EPS_CHAIN_CHECK_TOL = {EPS_CHAIN_CHECK_TOL})")

    return ZeroModeReport(
        xi_norm_sq=det_reg * dxi_a * dxi_b, dxi_a=dxi_a, dxi_b=dxi_b,
        lambda_eps=lam_full, eps=eps, det_regularized=det_reg,
        det_eps=q_full * lam_full, quotient_eps=q_full,
        quotient_eps_half=q_half, quotient_extrapolated=q_star,
        lambda_over_eps=lam_full / eps, check_residual=residual)


def det_periodic_regularized(profile: FrequencyProfile, bc: str = "periodic") -> float:
    """det' K = -dF/dlambda at lambda = 0, F = 2 - sigma tr M, for a profile
    with one zero mode under the wrapped bc.  Two zero modes (M = sigma I, a
    double zero with no simple Newton step) are refused before the zero-mode
    verdict (_zero_mode_slope)."""
    sigma = _sigma(bc)
    if not sigma:
        raise ValueError("det_periodic_regularized takes a wrapped boundary condition; "
                         "use det_dirichlet_regularized for 'dirichlet'")
    basis = make_basis(profile, g=1.0)
    if np.max(np.abs(basis.m - sigma * np.eye(2))) <= ZERO_MODE_PRESENT_TOL:
        raise DegenerateOperatorError(f"two {bc} zero modes: M = {'-' if sigma < 0 else '+'}I "
                                      f"to ZERO_MODE_PRESENT_TOL = {ZERO_MODE_PRESENT_TOL}")
    # + 0.0: a slope that rounds to -0.0 is reported as 0.0
    return -_zero_mode_slope(basis, bc) + 0.0
