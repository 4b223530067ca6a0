"""Functional determinants of -d^2/dt^2 - Omega^2(t) from the transfer matrix.

Each determinant is read from the transfer matrix M = Y_b Y_a^{-1} of a
solution basis Y(t) (see odesolve): M12 under Dirichlet, 2 - tr M under
periodic and 2 + tr M under antiperiodic conditions.  Values are signed
(negative beyond a focal point) and are reported together with the ratio
against a reference operator: the free operator for Dirichlet, the constant
frequency omega0 operator for periodic and antiperiodic conditions.

Zero-mode handling: when the operator annihilates a function xi vanishing at
both ends, the raw Dirichlet determinant is zero and the regularized value
<xi|xi>/(xi'_a xi'_b) is computed instead, together with a finite-eps chain
(shift the profile by the perturbed eigenvalue, divide determinant by
eigenvalue, extrapolate eps -> 0) that must agree with the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (DegenerateOperatorError, ProfileError, ShootingError,
                     VerificationError)
from .green import (BC_ANTIPERIODIC, BC_DIRICHLET, BC_PERIODIC, GreenKernel,
                    condition_estimate, det_from_transfer, trace_omega_sq)
from .odesolve import HomogeneousBasis, make_basis
from .profiles import FrequencyProfile, shifted_profile

REFERENCE_FREE = "free"
REFERENCE_CONSTANT = "constant-frequency"

REFERENCE_DEGENERACY_TOL = 1e-9
ZERO_MODE_PRESENT_TOL = 1e-6
EPS_CHAIN_CHECK_TOL = 1e-3
LOG_DET_FD_STEP = 1e-5  # coupling step of the central difference in g
EIGENVALUE_SHIFT_MAX_ITER = 60
WRAPPED_ZERO_MODE_LATTICE_N = 800  # mesh of the lattice next to the wrapped formula


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


def free_reference(bc: str, span: float, omega0: float = 0.0) -> float:
    """Determinant of the reference operator on an interval of length span.

    Dirichlet: the free operator, value span (omega0=0) or sin(w0*span)/w0.
    Periodic: 4*sin^2(w0*span/2); antiperiodic: 4*cos^2(w0*span/2).
    """
    w0 = float(omega0)
    if bc == BC_DIRICHLET:
        if w0 == 0.0:
            return span
        return math.sin(w0 * span) / w0
    if bc == BC_PERIODIC:
        return 4.0 * math.sin(0.5 * w0 * span) ** 2
    if bc == BC_ANTIPERIODIC:
        return 4.0 * math.cos(0.5 * w0 * span) ** 2
    raise ValueError(f"unsupported boundary condition {bc!r}")


def reference_determinant(bc: str, span: float, omega0: float) -> tuple:
    """(name, value) of the reference operator a ratio is taken against: the
    free operator for Dirichlet, constant frequency omega0 otherwise.  The
    only test of a reference for degeneracy: |value| <= REFERENCE_DEGENERACY_TOL
    is refused."""
    if bc == BC_DIRICHLET:
        return REFERENCE_FREE, span
    ref = free_reference(bc, span, omega0)
    if abs(ref) <= REFERENCE_DEGENERACY_TOL:
        raise DegenerateOperatorError(
            f"reference operator for {bc} is degenerate at omega0 = {omega0} "
            f"(reference determinant {ref:.3e}); choose a different omega0")
    return REFERENCE_CONSTANT, ref


def _det(basis: HomogeneousBasis, bc: str, omega0: float) -> DetResult:
    """The determinant under bc read from M, its ratio over the reference and
    its diagnostics: the Wronskian, the determinant of the basis endpoint
    matrix (W times the value), the condition estimate of the read, the
    integrator's steps and its error estimate for the entries of M,
    det_m_residual = |det M - 1| over max(1, max|M_ij|)^2, the scale of the
    rounding of det M (unscaled, det M overflows for kT above about 355), and
    for the wrapped conditions whether Omega^2 takes one value at both ends."""
    m, iv = basis.m, basis.interval
    value = det_from_transfer(m, bc)
    reference, ref = reference_determinant(bc, iv.span, omega0)
    scale = max(1.0, float(np.max(np.abs(m))))
    (a, b), (c, d) = m / scale
    diagnostics = {"w": basis.w, "endpoint_det": basis.w * value,
                   "condition": condition_estimate(m, value),
                   "steps": len(basis.knots) - 1,
                   "error_estimate": basis.error_estimate,
                   "det_m_residual": float(abs(a * d - b * c - 1.0 / scale / scale))}
    if bc != BC_DIRICHLET:
        om_a, om_b = basis.profile.omega_sq(np.array([iv.t_a, iv.t_b]))
        diagnostics["profile_period_compatible"] = bool(
            abs(om_a - om_b) <= 1e-8 * (1.0 + abs(om_a)))
    return DetResult(value=value, ratio=value / ref, bc=bc, reference=reference,
                     reference_value=ref, diagnostics=diagnostics,
                     omega0=None if bc == BC_DIRICHLET else float(omega0))


def det_dirichlet(basis: HomogeneousBasis) -> DetResult:
    """Determinant under Dirichlet conditions, M12, over the free operator's."""
    return _det(basis, BC_DIRICHLET, 0.0)


def det_periodic(basis: HomogeneousBasis, omega0: float) -> DetResult:
    return _det(basis, BC_PERIODIC, omega0)


def det_antiperiodic(basis: HomogeneousBasis, omega0: float) -> DetResult:
    return _det(basis, BC_ANTIPERIODIC, omega0)


def determinant(profile: FrequencyProfile, bc: str = BC_DIRICHLET,
                g: float = 1.0, omega0: float = 1.0) -> DetResult:
    """Build a basis and evaluate the determinant for one bc."""
    return _det(make_basis(profile, g=g), bc, omega0)


# ---------------------------------------------------------------------------
# trace identity: Tr Omega^2 G_g = -d/dg log det K_g


def _log_abs_det(profile: FrequencyProfile, bc: str, g: float) -> float:
    value = det_from_transfer(make_basis(profile, g=g).m, bc)
    if value == 0.0:
        raise DegenerateOperatorError(
            f"endpoint determinant vanishes at g = {g}; log undefined")
    return math.log(abs(value))


def _log_det_slope_fd(profile: FrequencyProfile, bc: str, g: float) -> float:
    """Central finite difference of log |det| with respect to g."""
    hi = _log_abs_det(profile, bc, g + LOG_DET_FD_STEP)
    lo = _log_abs_det(profile, bc, g - LOG_DET_FD_STEP)
    return (hi - lo) / (2.0 * LOG_DET_FD_STEP)


def trace_identity_residual(profile: FrequencyProfile, bc: str, g: float):
    """Both sides of the trace identity at coupling g.

    Returns (trace, -dlogdet/dg, relative residual).  The trace of
    Omega^2 * G_g is computed from the Green kernel; the derivative side by
    finite differences of the determinant.
    """
    basis = make_basis(profile, g=g)
    kernel = GreenKernel(basis, bc)
    lhs = trace_omega_sq(kernel)
    rhs = -_log_det_slope_fd(profile, bc, g)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return lhs, rhs, abs(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# Van Vleck cross-check


def van_vleck_check(profile: FrequencyProfile, mass: float = 1.0) -> float:
    """Determinant from the mixed derivative of the classical action.

    The action of L = (mass/2)(xdot^2 - Omega^2 x^2) along the classical path
    between endpoint values (x_a, x_b) is a quadratic form in them, whose
    mixed derivative is mass * integral (x1' x2' - Omega^2 x1 x2) over the
    unit paths x1 = (1 at t_a, 0 at t_b) and x2 = (0, 1); the determinant is
    -mass over it.  x2 = v / M12 comes from the prefix products and
    (x1, x1') = (S12, -S11) / M12 from the suffix products S(t) = Phi(t_b, t),
    so neither path is a difference of growing solutions.  The integral is
    taken by the basis's Gauss rule on the integrator's steps
    (HomogeneousBasis.quadrature).
    """
    if mass == 0.0:
        raise ValueError("mass must be nonzero")
    basis = make_basis(profile, g=1.0)
    (m11, m12), _ = basis.m
    if abs(m12) <= 1e-10 * profile.interval.span * max(1.0, abs(m11)):
        raise DegenerateOperatorError(
            "classical path is degenerate: a solution vanishes at both "
            f"endpoints (M12 = {m12:.3e})")

    nodes, weights = basis.quadrature
    phi, s = basis.frame(nodes)
    x2, dx2 = phi[:, 1] / m12
    (s11, s12), _ = s / m12
    mixed = mass * float(weights @ (-s11 * dx2 - profile.omega_sq(nodes) * s12 * x2))
    if mixed == 0.0:
        raise DegenerateOperatorError("mixed derivative of the action vanishes")
    return -mass / mixed


# ---------------------------------------------------------------------------
# zero-mode regularized determinants


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


def _zero_mode_scale(profile: FrequencyProfile) -> float:
    """Normalization constant matching the supplied zero-mode shape, if any.

    The zero mode is integrated as an initial-value solution with unit slope
    at t_a; all reported quantities are rescaled so the endpoint slope at t_a
    matches the shape stored on the profile (the regularized determinant is
    scale invariant either way).
    """
    zm = profile.zero_mode
    return 1.0 if zm is None else float(zm.dxi(profile.interval.t_a))


def _eigenvalue_shift(profile: FrequencyProfile, slope_b: float,
                      eps: float, first_order: float):
    """Solve A(lam) = eps by the secant method, where A(lam) is the value at
    t_a of the solution of the lam-shifted equation with (0, slope_b) at t_b.

    That solution is M^{-1} (0, slope_b) at t_a, so A = -slope_b M12(lam) with
    det M = 1.  Returns lam and M12(lam), the shifted Dirichlet determinant.
    """

    def shifted_m12(lam: float) -> float:
        return det_from_transfer(make_basis(shifted_profile(profile, lam)).m,
                                 BC_DIRICHLET)

    # The boundary value inherits inaccuracies of the profile representation
    # (finite-difference shapes plateau near 1e-10), so the residual target
    # is relative to eps; a 1e-6 relative shift error is far below the 1e-3
    # budget of the quotient chain this feeds.
    tol = max(1e-14, 1e-6 * abs(eps))
    x0 = first_order
    x1 = first_order * 1.02 if first_order != 0.0 else eps
    d1 = shifted_m12(x1)
    f0 = -slope_b * shifted_m12(x0) - eps
    f1 = -slope_b * d1 - eps
    for _ in range(EIGENVALUE_SHIFT_MAX_ITER):
        if abs(f1) <= tol:
            return x1, d1
        if f1 == f0:
            break
        x0, x1 = x1, x1 - f1 * (x1 - x0) / (f1 - f0)
        d1 = shifted_m12(x1)
        f0, f1 = f1, -slope_b * d1 - eps
    if abs(f1) <= tol:
        return x1, d1
    raise ShootingError(
        f"perturbed-eigenvalue solve did not converge (residual {abs(f1):.3e})")


def det_dirichlet_regularized(profile: FrequencyProfile,
                              eps: Optional[float] = None) -> ZeroModeReport:
    """Regularized determinant <xi|xi>/(xi'_a xi'_b) for a profile whose
    operator annihilates a Dirichlet zero mode, plus the finite-eps chain.

    The chain perturbs the boundary value at t_a to eps, solves for the
    perturbed eigenvalue, shifts the profile by it, and divides the shifted
    determinant by the eigenvalue; one Richardson step in eps must reproduce
    the closed form to 1e-3 relative or a verification error is raised.
    """
    span = profile.interval.span

    basis = make_basis(profile, g=1.0)
    det_d = det_from_transfer(basis.m, BC_DIRICHLET)
    if abs(det_d) > ZERO_MODE_PRESENT_TOL * span:
        raise ProfileError(
            f"profile has no Dirichlet zero mode (endpoint determinant {det_d:.3e})")

    # the zero mode is the column v of Phi, scaled to the shape's slope at t_a
    scale = _zero_mode_scale(profile)
    dxi_a = scale
    dxi_b = scale * float(basis.m[1, 1])
    slope_floor = 1e-8 * max(abs(dxi_a), abs(dxi_b), 1.0 / span)
    if abs(dxi_a) <= slope_floor or abs(dxi_b) <= slope_floor:
        raise DegenerateOperatorError(
            "zero-mode endpoint slope vanishes; the regularized determinant "
            f"formula is undefined (slopes {dxi_a:.3e}, {dxi_b:.3e})")

    nodes, weights = basis.quadrature
    norm_sq = float(weights @ (scale * basis.phi(nodes)[0, 1]) ** 2)
    det_reg = norm_sq / (dxi_a * dxi_b)

    if eps is None:
        eps = 1e-4 * span * max(abs(dxi_a), abs(dxi_b))
    eps = float(eps)
    slope_ratio = -dxi_a / norm_sq

    def quotient(e: float):
        lam, det_shifted = _eigenvalue_shift(profile, dxi_b, e,
                                             first_order=slope_ratio * e)
        return det_shifted / lam, lam

    q_full, lam_full = quotient(eps)
    q_half, _ = quotient(0.5 * eps)
    q_star = 2.0 * q_half - q_full

    residual = abs(q_star / det_reg - 1.0)
    if residual > EPS_CHAIN_CHECK_TOL:
        raise VerificationError(
            "finite-eps chain disagrees with the closed-form regularized "
            f"determinant: extrapolated {q_star!r} vs {det_reg!r} "
            f"(relative residual {residual:.3e})")

    return ZeroModeReport(
        xi_norm_sq=norm_sq, dxi_a=dxi_a, dxi_b=dxi_b,
        lambda_eps=lam_full, eps=eps, det_regularized=det_reg,
        det_eps=q_full * lam_full, quotient_eps=q_full,
        quotient_eps_half=q_half, quotient_extrapolated=q_star,
        lambda_over_eps=lam_full / eps, check_residual=residual)


@dataclass(frozen=True)
class WrappedZeroModeReport:
    """Difference-quotient regularized determinant for wrapped boundary
    conditions, reported next to the independent lattice pseudo-determinant.
    """

    bc: str
    formula_value: float
    denominator: float
    oracle_value: float
    oracle_report: object
    discrepant: bool


def _wrapped_difference_quotient(xi_a: float, xi_b: float, dxi_a: float,
                                 eta_a: float, deta_a: float,
                                 norm_sq: float, anti: bool = False) -> tuple:
    """(xi_b -+ xi_a) <xi|xi> / (eta_a (eta_a xi'_a - eta'_a xi_b)) and its
    denominator.

    Guarded division; the denominator vanishing is an error.  A numerator
    that cancels to zero gives 0.0, never -0.0.
    """
    s = -1.0 if anti else 1.0
    denominator = eta_a * (eta_a * dxi_a - deta_a * xi_b)
    scale = max(abs(eta_a), abs(deta_a), abs(dxi_a), abs(xi_b), 1.0)
    if abs(denominator) <= 1e-12 * scale * scale:
        raise DegenerateOperatorError(
            f"difference-quotient denominator vanishes ({denominator:.3e})")
    return (xi_b - s * xi_a) * norm_sq / denominator + 0.0, denominator


def det_periodic_regularized(profile: FrequencyProfile, anti: bool = False,
                             omega0: float = 1.0) -> WrappedZeroModeReport:
    """Evaluate the wrapped-boundary difference-quotient formula next to the
    lattice pseudo-determinant oracle.

    The formula's free-operator limit contradicts the oracle (its numerator
    vanishes for an exactly periodic zero mode), so the two numbers are
    reported side by side with a discrepancy flag instead of being merged.
    """
    from . import oracle

    bc = BC_ANTIPERIODIC if anti else BC_PERIODIC
    basis = make_basis(profile, g=1.0)
    m = basis.m
    det_bar = det_from_transfer(m, bc)
    if abs(det_bar) > ZERO_MODE_PRESENT_TOL:
        raise ProfileError(
            f"profile has no {bc} zero mode (endpoint determinant {det_bar:.3e})")

    # the zero mode xi = Phi(t) c has M c = c (periodic) or M c = -c
    s = -1.0 if anti else 1.0
    _, _, vh = np.linalg.svd(m - s * np.eye(2))
    c = vh[-1]
    lead = c[0] if abs(c[0]) > abs(c[1]) else c[1]
    if lead < 0:
        c = -c
    nodes, weights = basis.quadrature
    norm_sq = float(weights @ (c @ basis.phi(nodes)[0]) ** 2)
    xi_a, dxi_a = float(c[0]), float(c[1])
    xi_b = float(m[0] @ c)
    # eta = u + v, the solution with (value, slope) = (1, 1) at t_a
    eta_a = deta_a = 1.0

    formula, denominator = _wrapped_difference_quotient(
        xi_a, xi_b, dxi_a, eta_a, deta_a, norm_sq, anti=anti)

    report = oracle.pseudo_det_ratio(profile, bc, WRAPPED_ZERO_MODE_LATTICE_N,
                                     omega0=omega0)
    oracle_value = report.aligned_pseudo_det
    scale = max(abs(formula), abs(oracle_value), 1e-30)
    discrepant = (abs(formula - oracle_value) / scale > 1e-2
                  or (formula * oracle_value) < 0.0)

    return WrappedZeroModeReport(
        bc=bc, formula_value=formula, denominator=denominator,
        oracle_value=oracle_value, oracle_report=report,
        discrepant=discrepant)
