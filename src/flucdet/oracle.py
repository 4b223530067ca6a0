"""Brute-force verification paths independent of the endpoint construction.

Two oracles live here.  The lattice oracle discretizes the operator by
second-order finite differences and works with eigenvalue products and
three-term-recurrence determinants; ratios of same-size matrices are formed
so that mesh factors cancel, then multiplied by the reference operator's
continuum value.  The flow oracle integrates the Green-function trace along a
family of operators connecting the reference to the target and exponentiates.

Scaled convention: matrices are stored as h^2 * A, i.e. tridiagonal entries
(-1, 2 - h^2 g Omega^2(t_i), -1), with corner entries -+1 for the wrapped
boundary conditions.  Determinant and eigenvalue-product ratios are identical
in the scaled and physical conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .determinants import free_reference
from .errors import DegenerateOperatorError, IntegrationError, VerificationError
from .green import (BC_DIRICHLET, BC_PERIODIC, BOUNDARY_CONDITIONS,
                    GreenKernel, det_from_transfer, trace_weighted_diagonal)
from .odesolve import make_basis
from .profiles import KIND_USER, FrequencyProfile

LATTICE_ZERO_TOL = 1e-10
PSEUDO_ZERO_TOL = 1e-8
FLOW_DEGENERACY_TOL = 1e-8
# Eigenvalue products carry LAPACK noise on the smallest modes that grows
# with the mesh, so the recurrence cross-check budget scales with n.
RECURRENCE_CHECK_TOL_PER_NODE = 2e-11
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class LatticeOperator:
    """Finite-difference discretization in the scaled (h^2 A) convention."""

    bc: str
    g: float
    mesh_size: int
    step: float
    nodes: np.ndarray = field(repr=False)
    diag: np.ndarray = field(repr=False)
    corner: float
    profile: Optional[FrequencyProfile] = field(default=None, repr=False)


def build_lattice(profile: FrequencyProfile, bc: str, n: int,
                  g: float = 1.0) -> LatticeOperator:
    """Discretize -d^2/dt^2 - g*Omega^2 on n mesh points.

    Dirichlet uses the n interior points of an (n+1)-step mesh.  The wrapped
    conditions use n points starting at t_a with the last step folding back,
    and the diagonal at the fold uses the average of Omega^2 at the two
    interval ends so that profiles that are not exactly interval-periodic
    still discretize with second-order accuracy.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unsupported boundary condition {bc!r}")
    if n < 16:
        raise ValueError(f"mesh size must be at least 16, got {n}")
    iv = profile.interval
    if bc == BC_DIRICHLET:
        h = iv.span / (n + 1)
        nodes = iv.t_a + h * np.arange(1, n + 1)
        diag = 2.0 - h * h * g * profile.omega_sq(nodes)
        corner = 0.0
    else:
        h = iv.span / n
        nodes = iv.t_a + h * np.arange(n)
        values = profile.omega_sq(np.append(nodes, iv.t_b))
        diag = 2.0 - h * h * g * values[:-1]
        diag[0] = 2.0 - h * h * g * (0.5 * (values[0] + values[-1]))
        corner = -1.0 if bc == BC_PERIODIC else 1.0
    return LatticeOperator(bc=bc, g=g, mesh_size=n, step=h, nodes=nodes,
                           diag=diag, corner=corner, profile=profile)


def _reference_lattice(bc: str, n: int, span: float, omega0: float) -> LatticeOperator:
    if bc == BC_DIRICHLET:
        h = span / (n + 1)
        corner = 0.0
    else:
        h = span / n
        corner = -1.0 if bc == BC_PERIODIC else 1.0
    diag = np.full(n, 2.0 - h * h * omega0 * omega0)
    return LatticeOperator(bc=bc, g=1.0, mesh_size=n, step=h,
                           nodes=np.zeros(n), diag=diag, corner=corner)


def lattice_eigenvalues_scaled(op: LatticeOperator) -> np.ndarray:
    """Ascending eigenvalues of the scaled matrix."""
    if op.corner == 0.0:
        from scipy.linalg import eigvalsh_tridiagonal  # imported on first use

        off = -np.ones(op.mesh_size - 1)
        return eigvalsh_tridiagonal(op.diag, off)
    mat = np.diag(op.diag)
    idx = np.arange(op.mesh_size - 1)
    mat[idx, idx + 1] = -1.0
    mat[idx + 1, idx] = -1.0
    mat[0, -1] = op.corner
    mat[-1, 0] = op.corner
    return np.linalg.eigvalsh(mat)


def reference_eigenvalues_scaled(bc: str, n: int, step: float,
                                 omega0: float) -> np.ndarray:
    """Closed-form ascending eigenvalues of the scaled reference matrix."""
    shift = step * step * omega0 * omega0
    if bc == BC_DIRICHLET:
        k = np.arange(1, n + 1)
        vals = 2.0 - 2.0 * np.cos(k * np.pi / (n + 1)) - shift
    elif bc == BC_PERIODIC:
        k = np.arange(n)
        vals = 2.0 - 2.0 * np.cos(2.0 * np.pi * k / n) - shift
    else:
        k = np.arange(n)
        vals = 2.0 - 2.0 * np.cos((2.0 * k + 1.0) * np.pi / n) - shift
    return np.sort(vals)


def _tridiag_det(diag: np.ndarray) -> float:
    """Determinant of tridiag(-1, diag, -1) by the three-term recurrence."""
    d_prev_prev = 0.0
    d_prev = 1.0
    det = 1.0
    for d in diag:
        det = d * d_prev - d_prev_prev
        d_prev_prev, d_prev = d_prev, det
    return det


def lattice_determinant_scaled(op: LatticeOperator) -> float:
    """Determinant of the scaled matrix.

    Dirichlet is the plain three-term recurrence.  For corner entries c the
    bordered identity det = D_n + 2c - c^2 * D_inner applies, where D_inner
    drops the first and last mesh points.
    """
    d_full = _tridiag_det(op.diag)
    if op.corner == 0.0:
        return d_full
    d_inner = _tridiag_det(op.diag[1:-1])
    c = op.corner
    return d_full + 2.0 * c - c * c * d_inner


def _signed_exp_ratio(num: np.ndarray, den: np.ndarray) -> float:
    negatives = int(np.sum(num < 0.0)) + int(np.sum(den < 0.0))
    sign = -1.0 if negatives % 2 else 1.0
    log_ratio = float(np.sum(np.log(np.abs(num))) - np.sum(np.log(np.abs(den))))
    return sign * math.exp(log_ratio)


def lattice_ratio(profile: FrequencyProfile, bc: str, omega0: float, n: int,
                  g: float = 1.0, method: str = "eigen") -> float:
    """det(A)/det(reference) on an n-point mesh; converges with order h^2.

    The eigen method multiplies eigenvalue magnitudes in log space with the
    sign tracked separately; for Dirichlet the three-term recurrence is run
    as an internal cross-check.  The recurrence method uses determinant
    recurrences only (cheap, used for Richardson refinement).
    """
    op = build_lattice(profile, bc, n, g=g)
    if method == "recurrence":
        det_num = lattice_determinant_scaled(op)
        det_den = lattice_determinant_scaled(
            _reference_lattice(bc, n, profile.interval.span, omega0))
        if det_den == 0.0:
            raise DegenerateOperatorError("reference lattice determinant is zero")
        return det_num / det_den
    if method != "eigen":
        raise ValueError(f"method must be 'eigen' or 'recurrence', got {method!r}")

    eigs = lattice_eigenvalues_scaled(op)
    if np.min(np.abs(eigs)) < LATTICE_ZERO_TOL * np.max(np.abs(eigs)):
        raise DegenerateOperatorError(
            "zero mode on lattice; use the pseudo-determinant path")
    ref = reference_eigenvalues_scaled(bc, n, op.step, omega0)
    ratio = _signed_exp_ratio(eigs, ref)

    if bc == BC_DIRICHLET:
        det_rec = lattice_determinant_scaled(op)
        ref_rec = lattice_determinant_scaled(
            _reference_lattice(bc, n, profile.interval.span, omega0))
        rec_ratio = det_rec / ref_rec
        tol = max(1e-10, RECURRENCE_CHECK_TOL_PER_NODE * n)
        if abs(rec_ratio - ratio) > tol * max(abs(ratio), 1.0):
            raise VerificationError(
                "recurrence and eigenvalue-product determinants disagree: "
                f"{rec_ratio!r} vs {ratio!r}")
    return ratio


def lattice_ratio_richardson(profile: FrequencyProfile, bc: str,
                             omega0: float, n: int, g: float = 1.0) -> float:
    """One h^2 -> 0 refinement step: (4 r_{2n} - r_n) / 3."""
    r1 = lattice_ratio(profile, bc, omega0, n, g=g, method="recurrence")
    r2 = lattice_ratio(profile, bc, omega0, 2 * n, g=g, method="recurrence")
    return (4.0 * r2 - r1) / 3.0


@dataclass(frozen=True)
class SpectrumReport:
    """Lattice spectrum with one near-zero eigenvalue removed."""

    eigenvalues: np.ndarray = field(repr=False)
    num_nonpositive: int
    zero_mode_index: int
    pseudo_det_ratio: float
    aligned_pseudo_det: float
    mesh_size: int
    bc: str
    omega0: float


def pseudo_det_ratio(profile: FrequencyProfile, bc: str, n: int,
                     omega0: float = 0.0, g: float = 1.0) -> SpectrumReport:
    """Normalized product of the nonzero lattice eigenvalues.

    Exactly one eigenvalue within 1e-8 of zero (relative to the spectral
    scale) is removed; the remaining product is divided by the reference
    operator's full product and multiplied by the reference's continuum value
    (aligned_pseudo_det), which converges to the regularized determinant up
    to the sign convention of the removed mode.
    """
    op = build_lattice(profile, bc, n, g=g)
    eigs = lattice_eigenvalues_scaled(op)
    scale = float(np.max(np.abs(eigs)))
    near_zero = np.flatnonzero(np.abs(eigs) < PSEUDO_ZERO_TOL * scale)
    if len(near_zero) != 1:
        raise DegenerateOperatorError(
            f"expected exactly one near-zero lattice eigenvalue, found "
            f"{len(near_zero)}")
    zero_index = int(near_zero[0])
    kept = np.delete(eigs, zero_index)
    ref = reference_eigenvalues_scaled(bc, n, op.step, omega0)
    raw = _signed_exp_ratio(kept, ref) * op.step ** 2
    span = profile.interval.span
    aligned = raw * free_reference(bc, span, omega0)
    physical = eigs / op.step ** 2
    return SpectrumReport(
        eigenvalues=physical,
        num_nonpositive=int(np.sum(physical <= 0.0)),
        zero_mode_index=zero_index,
        pseudo_det_ratio=raw,
        aligned_pseudo_det=aligned,
        mesh_size=n, bc=bc, omega0=float(omega0))


def count_nonpositive(profile: FrequencyProfile, bc: str, n: int,
                      g: float) -> int:
    """Number of nonpositive lattice eigenvalues at coupling g."""
    op = build_lattice(profile, bc, n, g=g)
    eigs = lattice_eigenvalues_scaled(op)
    return int(np.sum(eigs <= 0.0))


# ---------------------------------------------------------------------------
# coupling-flow oracle


def _flow_profile(profile: FrequencyProfile, omega0_ref: float,
                  s: float) -> FrequencyProfile:
    base = profile.omega_sq
    w0sq = omega0_ref * omega0_ref

    def omega_sq(t, _s=float(s)):
        return w0sq + _s * (base(t) - w0sq)

    return FrequencyProfile(
        omega_sq=omega_sq, interval=profile.interval, kind=KIND_USER,
        periodic_with=profile.periodic_with,
        description=f"flow interpolant s={s!r}")


def _flow_endpoint_det(profile_s: FrequencyProfile, bc: str):
    basis = make_basis(profile_s, g=1.0)
    det = det_from_transfer(basis.m, bc)
    measure = abs(det) / basis.interval.span if bc == BC_DIRICHLET else abs(det)
    return basis, det, measure


def gflow_ratio(profile: FrequencyProfile, bc: str, omega0: float = 0.0,
                g_steps: int = 32) -> float:
    """Determinant ratio from the exponentiated Green-function trace.

    The flow connects the reference operator (free for Dirichlet, constant
    frequency omega0 for the wrapped conditions) to the target along
    V_s = omega0_ref^2 + s (Omega^2 - omega0_ref^2); the ratio is
    exp(-integral_0^1 ds Tr[(Omega^2 - omega0_ref^2) G_s]) with the trace at
    Gauss-Legendre nodes.  The flow must stay clear of zero modes: endpoint
    determinants are monitored at every node and a sign change between nodes
    is located and reported as a crossing.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unsupported boundary condition {bc!r}")
    omega0_ref = 0.0 if bc == BC_DIRICHLET else float(omega0)
    span = profile.interval.span
    if bc != BC_DIRICHLET:
        ref = free_reference(bc, span, omega0_ref)
        if abs(ref) <= 1e-9:
            raise DegenerateOperatorError(
                f"reference operator for {bc} is degenerate at omega0 = "
                f"{omega0}; choose a different omega0")

    xs, ws = np.polynomial.legendre.leggauss(int(g_steps))
    s_nodes = 0.5 * (xs + 1.0)
    s_weights = 0.5 * ws

    base = profile.omega_sq
    w0sq = omega0_ref * omega0_ref

    def det_at(s: float) -> float:
        _, det, _ = _flow_endpoint_det(_flow_profile(profile, omega0_ref, s), bc)
        return det

    bases = []
    dets = []
    s_probe = [0.0, *s_nodes.tolist(), 1.0]
    for s in s_probe:
        basis, det, measure = _flow_endpoint_det(
            _flow_profile(profile, omega0_ref, s), bc)
        if measure < FLOW_DEGENERACY_TOL:
            raise DegenerateOperatorError(
                f"coupling flow is degenerate at g' = {s:.6f} "
                f"(endpoint determinant measure {measure:.3e})")
        bases.append(basis)
        dets.append(det)
    for i in range(len(s_probe) - 1):
        if dets[i] * dets[i + 1] < 0.0:
            from scipy.optimize import brentq  # imported on first use

            crossing = brentq(det_at, s_probe[i], s_probe[i + 1], xtol=1e-8)
            raise DegenerateOperatorError(
                "coupling flow crosses a zero mode at g' ≈ "
                f"{crossing:.6f}; the trace integrand diverges there")

    integral = 0.0
    for s, w, basis in zip(s_nodes, s_weights, bases[1:-1]):
        kernel = GreenKernel(basis, bc)
        integral += w * trace_weighted_diagonal(kernel, lambda t: base(t) - w0sq)
    if -integral > _LOG_FLOAT_MAX:
        raise IntegrationError(
            f"coupling-flow ratio exp({-integral:.6g}) exceeds the float range")
    return math.exp(-integral)
