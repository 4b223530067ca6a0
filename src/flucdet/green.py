"""Green functions of -d^2/dt^2 - g*Omega^2(t) built from a solution basis.

Everything is read from M = Y_b Y_a^{-1} and the frame (Phi(t), S(t)) =
(Phi(t, t_a), Phi(t_b, t)) of the basis (see odesolve); the columns u and v
of Phi start from (1, 0) and (0, 1) at t_a.  The determinants are

    Dirichlet M12,   periodic 2 - tr M,   antiperiodic 2 + tr M

(Gel'fand-Yaglom, Forman).  The Dirichlet kernel is built from the
left-anchored solution l = v, which vanishes at t_a, and the right-anchored
solution r with (r, r') = (0, -1) at t_b:

    G_D(t, t') = l(min(t, t')) r(max(t, t')) / M12.

(r, r') = S(t)^{-1} (0, -1) = (S12, -S11), which make_basis reads from suffix
products, so r is never the difference M12 u - M11 v of growing solutions.

With sigma = +1 (periodic) or -1 (antiperiodic) and h = l + sigma*r, the
wrapped kernels add the separable correction
-sigma h(t) h(t') / ((2 - sigma tr M) M12).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateOperatorError, VerificationError
from .odesolve import HomogeneousBasis

BC_DIRICHLET = "dirichlet"
BC_PERIODIC = "periodic"
BC_ANTIPERIODIC = "antiperiodic"
BOUNDARY_CONDITIONS = (BC_DIRICHLET, BC_PERIODIC, BC_ANTIPERIODIC)

# A determinant whose condition estimate exceeds 1/ENDPOINT_DEGENERACY_TOL is
# treated as zero: the operator has a zero mode under that condition.
ENDPOINT_DEGENERACY_TOL = 1e-10
BC_CHECK_TOL = 1e-7
_PROBE_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)


def det_from_transfer(m: np.ndarray, bc: str) -> float:
    """The determinant of the operator under bc, read from M: M12 for
    Dirichlet, 2 - tr M for periodic and 2 + tr M for antiperiodic."""
    if bc == BC_DIRICHLET:
        return float(m[0, 1])
    if bc == BC_PERIODIC:
        return float(2.0 - (m[0, 0] + m[1, 1]))
    if bc == BC_ANTIPERIODIC:
        return float(2.0 + (m[0, 0] + m[1, 1]))
    raise ValueError(f"unsupported boundary condition {bc!r}")


def condition_estimate(m: np.ndarray, value: float) -> float:
    """Cancellation estimate of a determinant read from M: the largest entry
    of M (at least 1), which sets the integration error of the read, over
    |value|."""
    if value == 0.0:
        return math.inf
    return max(1.0, float(np.max(np.abs(m)))) / abs(value)


class GreenKernel:
    """Green function under one of the three supported boundary conditions.

    evaluate(t, tp) returns G(t, tp); on the diagonal the two branches
    coincide.  evaluate_dt differentiates in the first argument, with the
    branch chosen by side ("auto", "upper" for t > tp, "lower" for t < tp).
    Both take times or arrays of times that broadcast together (a grid is
    evaluate(ts[:, None], ts[None, :])) and return a float for scalar times.
    """

    def __init__(self, basis: HomogeneousBasis, bc: str):
        if bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"unsupported boundary condition {bc!r}")
        self.basis = basis
        self.bc = bc
        m = basis.m

        self.f_ab = det_from_transfer(m, BC_DIRICHLET)
        if condition_estimate(m, self.f_ab) >= 1.0 / ENDPOINT_DEGENERACY_TOL:
            raise DegenerateOperatorError(
                "Dirichlet endpoint determinant vanishes "
                f"({self.f_ab:.3e}); the Green function does not exist")

        if bc == BC_DIRICHLET:
            self.sigma = 0.0
            self.delta = None
        else:
            self.sigma = 1.0 if bc == BC_PERIODIC else -1.0
            self.delta = det_from_transfer(m, bc)
            if condition_estimate(m, self.delta) >= 1.0 / ENDPOINT_DEGENERACY_TOL:
                raise DegenerateOperatorError(
                    f"{bc} endpoint determinant vanishes ({self.delta:.3e}); "
                    "the Green function does not exist")

        self._validate_boundary_values()

    @property
    def denom(self) -> float:
        """Normalizing denominator: M12 for Dirichlet, 2 -+ tr M otherwise."""
        return self.f_ab if self.delta is None else self.delta

    def _anchored(self, *times) -> list:
        """[[l, r], [l', r']] at each of the given times or arrays of times,
        with shape (2, 2) + its shape, from one evaluation of the basis."""
        arrays = [np.asarray(t, dtype=float) for t in times]
        flat = np.concatenate([a.ravel() for a in arrays])
        phi, s = self.basis.frame(flat)
        (l, dl), (s11, s12) = phi[:, 1], s[0]
        lr = np.array([[l, s12], [dl, -s11]])
        ends = np.cumsum([0] + [a.size for a in arrays])
        return [lr[..., lo:hi].reshape((2, 2) + a.shape)
                for a, lo, hi in zip(arrays, ends[:-1], ends[1:])]

    def _eval(self, t, tp, side: Optional[str] = None):
        """G(t, tp) for side None, else dG/dt on the branch side names, at
        times t and tp that broadcast together; a float for scalar times.

        The upper branch (t > tp) is l(tp) r(t), the lower one l(t) r(tp).
        """
        at_t, at_tp = self._anchored(t) * 2 if tp is t else self._anchored(t, tp)
        (l, r), (dl, dr) = at_t
        (lp, rp), _ = at_tp
        if side is None:
            upper = np.greater(t, tp)
        elif side == "auto":
            upper = np.greater_equal(t, tp)
        elif side in ("upper", "lower"):
            upper = side == "upper"
        else:
            raise ValueError(f"side must be 'auto', 'upper' or 'lower', got {side!r}")
        if side is not None:
            l, r = dl, dr
        # divided before multiplying: l(t) r(t') alone overflows for strongly
        # growing bases on the branch np.where discards
        value = np.where(upper, (lp / self.f_ab) * r, (l / self.f_ab) * rp)
        if self.sigma:
            h, hp = l + self.sigma * r, lp + self.sigma * rp
            value = value - self.sigma * (h / self.delta) * (hp / self.f_ab)
        return float(value) if value.ndim == 0 else value

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, t, tp):
        return self._eval(t, tp)

    __call__ = evaluate

    def diagonal(self, t):
        return self._eval(t, t)

    def evaluate_dt(self, t, tp, side: str = "auto"):
        """Derivative of G with respect to the first argument."""
        return self._eval(t, tp, side)

    def slope_jump(self, t):
        """Jump of the t-derivative across the diagonal; should equal -1."""
        return self._eval(t, t, "upper") - self._eval(t, t, "lower")

    def table(self, grid_size: int):
        """Values on a uniform grid: (grid, nested list of G(t_i, t_j))."""
        ts = self.basis.interval.grid(grid_size)
        return ts, self.evaluate(ts[:, None], ts[None, :]).tolist()

    # -- construction-time checks -------------------------------------------

    def _validate_boundary_values(self) -> None:
        iv = self.basis.interval
        s = iv.t_a + np.array(_PROBE_FRACTIONS) * iv.span
        ends = np.array([[iv.t_a], [iv.t_b]])
        at_ends = self._eval(ends, s)
        if self.bc == BC_DIRICHLET:
            res = np.max(np.abs(at_ends), axis=0)
        else:
            slopes = self._eval(ends, s, "auto")
            res = np.maximum(np.abs(at_ends[0] - self.sigma * at_ends[1]),
                             np.abs(slopes[0] - self.sigma * slopes[1]))
        # the unit slope jump fails once r has lost its digits, as it does
        # for growing bases whose frame has no suffix products (basis_from_pq)
        worst = float(np.max(np.maximum(res / (1.0 + np.abs(self.diagonal(s))),
                                        np.abs(self.slope_jump(s) + 1.0))))
        if worst > BC_CHECK_TOL:
            raise VerificationError(
                f"{self.bc} Green function violates its boundary or jump "
                f"conditions (residual {worst:.3e} > {BC_CHECK_TOL})")


def trace_weighted_diagonal(kernel: GreenKernel, weight: Callable) -> float:
    """Integral of weight(t) * G(t, t) over the interval, by the basis's
    Gauss rule on the integrator's steps.  weight is called once, on the
    array of Gauss nodes, as a profile's omega_sq is."""
    nodes, weights = kernel.basis.quadrature
    return float(weights @ (weight(nodes) * kernel.diagonal(nodes)))


def _pair(basis: HomogeneousBasis, row_t, row_tp):
    """f(t, t') = (eta(t) xi(t') - xi(t) eta(t')) / W from the value rows
    (eta, xi) of Y at t and at t' (each a pair or a pair of arrays)."""
    return (row_t[0] * row_tp[1] - row_t[1] * row_tp[0]) / basis.w


def dirichlet_trace_direct(basis: HomogeneousBasis) -> float:
    """Dirichlet trace of Omega^2 G assembled from the two-point function.

    Uses G(t, t) = f(t, t_a) f(t_b, t) / f(t_a, t_b), with f(t, t_a) built
    from the basis columns and the rows of Y_a, f(t_a, t_b) from the endpoint
    rows of Y_a and Y_b, and f(t_b, t) = -S12(t) from S(t) = Phi(t_b, t) of
    the same frame, where the two columns would cancel for growing bases.
    The anchored solutions of the kernel do not enter, which makes it a
    consistency check on the kernel assembly.
    """
    row_a, row_b = basis.y_a[0], basis.y_b[0]
    f_ab = float(_pair(basis, row_a, row_b))
    if condition_estimate(basis.m, f_ab) >= 1.0 / ENDPOINT_DEGENERACY_TOL:
        raise DegenerateOperatorError(
            "Dirichlet endpoint determinant vanishes; the trace is undefined")
    nodes, weights = basis.quadrature
    phi, s = basis.frame(nodes)
    integrand = (basis.profile.omega_sq(nodes)
                 * (_pair(basis, basis.y_a.T @ phi[0], row_a) / f_ab) * -s[0, 1])
    return float(weights @ integrand)


def trace_omega_sq(kernel: GreenKernel, check: bool = False) -> float:
    """Integral of Omega^2(t) * G(t, t) over the interval.

    With check=True the Dirichlet result is re-derived from the two-point
    function and the two assemblies must agree to 1e-8 relative.
    """
    value = trace_weighted_diagonal(kernel, kernel.basis.profile.omega_sq)
    if check and kernel.bc == BC_DIRICHLET:
        direct = dirichlet_trace_direct(kernel.basis)
        if abs(value - direct) > 1e-8 * (1.0 + abs(value)):
            raise VerificationError(
                "Dirichlet trace assemblies disagree: "
                f"kernel diagonal {value!r} vs two-point form {direct!r}")
    return value


def retarded_green(basis: HomogeneousBasis) -> Callable[[float, float], float]:
    """Retarded kernel R(t, t') = step(t - t') * f(t, t').

    Solves the same inhomogeneous equation as the boundary kernels but with
    causal support; R vanishes for t < t' and on the diagonal.
    """

    def retarded(t: float, tp: float) -> float:
        return float(_pair(basis, basis.y(t)[0], basis.y(tp)[0])) if t > tp else 0.0

    return retarded
