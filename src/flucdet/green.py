"""Green functions of -d^2/dt^2 - g*Omega^2(t) built from a solution basis.

Everything is read from M = Y_b Y_a^{-1} and the frame (Phi(t), S(t)) =
(Phi(t, t_a), Phi(t_b, t)) of the basis (see odesolve); the columns u and v
of Phi start from (1, 0) and (0, 1) at t_a.  The determinants are

    Dirichlet M12,   periodic 2 - tr M,   antiperiodic 2 + tr M

(Gel'fand-Yaglom, Forman), formed from M's entries here alone: every route
takes F, its condition estimate and M's entries from the one float read of M
(_read_transfer), and the zero verdict (_refuse_degenerate) and the
reference operator (reference_determinant) from this module.  Every kernel
is Wronski's construction from l = v, which vanishes at t_a, and r with (r,
r') = (sin theta, -cos theta) at t_b, read as S(t)^{-1} (sin theta, -cos
theta) from suffix products, so r is never a difference of growing
solutions.  With W = -(M12 cos theta + M22 sin theta)

    G(t, t') = -l(min(t, t')) r(max(t, t')) / W + [l r](t) A [l r](t')^T.

Dirichlet is theta = 0 and A = 0.  The wrapped conditions, sigma = +1
(periodic) or -1 (antiperiodic), take theta = atan2(M22, M12), where |W| =
hypot(M12, M22) is largest and, as det M = 1, never 0, and the symmetric
A = -(Y_b - sigma Y_a)^{-1} B / W with B = [[-sin theta, 0], [cos theta,
sigma]], Y holding (l, r) and their slopes at an end; its one denominator is
det(Y_b - sigma Y_a) / W = 2 - sigma tr M.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateOperatorError, VerificationError
from .odesolve import HomogeneousBasis

# Each boundary condition's sign sigma: F = M12 at sigma = 0, else 2 - sigma tr M.
_SIGMA = {"dirichlet": 0, "periodic": 1, "antiperiodic": -1}

REFERENCE_FREE = "free"
REFERENCE_CONSTANT = "constant-frequency"

REFERENCE_DEGENERACY_TOL = 1e-9

# A determinant whose condition estimate reaches 1/ENDPOINT_DEGENERACY_TOL is
# zero: the operator has a zero mode under that condition.
ENDPOINT_DEGENERACY_TOL = 1e-10
BC_CHECK_TOL = 1e-7
_PROBE_FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)


def _scalar(x):
    """A float for a 0-d result, else the array of one value per member."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _sigma(bc: str) -> int:
    """The sign of bc: 0 (Dirichlet), +1 (periodic) or -1 (antiperiodic)."""
    if bc not in _SIGMA:
        raise ValueError(f"unsupported boundary condition {bc!r}")
    return _SIGMA[bc]


def _omega0(omega0: float) -> float:
    """The reference frequency omega0 as a float; the one check of it, which
    refuses a value that is not finite."""
    if not math.isfinite(omega0):
        raise ValueError(f"omega0 must be finite, got {omega0!r}")
    return float(omega0)


def _read_transfer(m: np.ndarray, bc: str) -> tuple:
    """(F, condition, [[M11, M12], [M21, M22]]) from one float read of a 2x2 M:
    the determinant of the operator under bc, M12 for Dirichlet, 2 - tr M for
    periodic and 2 + tr M for antiperiodic; the condition the largest entry of
    M (at least 1), which sets the integration error of the read, over |F|;
    inf at F = +-0."""
    sigma = _sigma(bc)
    rows = m.tolist()
    (m11, m12), (_, m22) = rows
    value = 2.0 - sigma * (m11 + m22) if sigma else m12
    condition = max(1.0, *map(abs, rows[0] + rows[1])) / abs(value) if value else math.inf
    return value, condition, rows


def free_reference(bc: str, span: float, omega0: float = 0.0) -> float:
    """Determinant of the reference operator on an interval of length span.

    Dirichlet: the free operator, value span (omega0=0) or sin(w0*span)/w0.
    Periodic: 4*sin^2(w0*span/2); antiperiodic: 4*cos^2(w0*span/2).
    """
    w0, sigma = _omega0(omega0), _sigma(bc)
    if sigma:
        return 4.0 * (math.sin if sigma > 0 else math.cos)(0.5 * w0 * span) ** 2
    return math.sin(w0 * span) / w0 if w0 else span


def reference_determinant(bc: str, span: float, omega0: float) -> tuple:
    """(name, value) of the reference operator a ratio is taken against: the
    free operator for Dirichlet, constant frequency omega0 otherwise.  The
    only test of a reference for degeneracy: |value| <= REFERENCE_DEGENERACY_TOL
    is refused."""
    if not _sigma(bc):
        return REFERENCE_FREE, span
    ref = free_reference(bc, span, omega0)
    if abs(ref) <= REFERENCE_DEGENERACY_TOL:
        raise DegenerateOperatorError(
            f"reference operator for {bc} is degenerate at omega0 = {omega0} "
            f"(reference determinant {ref:.3e}); choose a different omega0")
    return REFERENCE_CONSTANT, ref


def _det_slope(basis, bc: str, weight: Optional[Callable] = None) -> float:
    """dF/ds at s = 0 for the operator K - s weight(t), F the determinant under
    bc read from M (weight 1 if None): d/dlambda, or d/dg for weight Omega^2,
    from dM/ds = basis.slope(weight) (odesolve._MagnusGrid.slope), one per
    member of a Magnus family grid; basis_from_pq carries no slope and is refused."""
    if basis.slope is None:
        raise ValueError("a basis_from_pq basis carries no dM/ds; use make_basis")
    dm = basis.slope(weight)
    sigma = _sigma(bc)
    return _scalar(-sigma * np.trace(dm) if sigma else dm[0, 1])


def _refuse_degenerate(condition: float, message: str) -> None:
    """The one zero verdict on a determinant read from M: refuse it at condition
    estimate >= 1/ENDPOINT_DEGENERACY_TOL, with the verdict in message's {}."""
    if condition >= 1.0 / ENDPOINT_DEGENERACY_TOL:
        raise DegenerateOperatorError(message.format(
            f"condition {condition:.3g} >= 1/ENDPOINT_DEGENERACY_TOL"))


class GreenKernel:
    """Green function under one of the three supported boundary conditions.

    evaluate(t, tp) returns G(t, tp); on the diagonal the two branches
    coincide.  evaluate_dt differentiates in the first argument, with the
    branch chosen by side ("auto", "upper" for t > tp, "lower" for t < tp).
    Both take times or arrays of times that broadcast together (a grid is
    evaluate(ts[:, None], ts[None, :])) and return a float for scalar times.
    denom is the determinant F under bc, the one value the kernel refuses
    when its condition estimate is >= 1/ENDPOINT_DEGENERACY_TOL.
    """

    def __init__(self, basis: HomogeneousBasis, bc: str):
        self.basis = basis
        self.bc = bc
        self._sigma = sigma = _sigma(bc)
        self.denom, condition, ((m11, m12), (m21, m22)) = _read_transfer(basis.m, bc)
        _refuse_degenerate(condition,
                           f"{bc} endpoint determinant vanishes ({self.denom:.3e}, {{}}); "
                           "the Green function does not exist")

        # r has (r, r') = (sin theta, -cos theta) at t_b and W = -n, n = M12 cos
        # theta + M22 sin theta: theta = 0 for Dirichlet, else atan2(M22, M12),
        # where n = hypot(M12, M22) > 0 since det M = 1
        self._n = math.hypot(m12, m22) if sigma else m12
        self._sin, self._cos, self._c = 0.0, 1.0, (0.0, 0.0, 0.0)
        if sigma:
            n = self._n
            sin, cos = self._sin, self._cos = m22 / n, m12 / n
            # C = D^{-1} B = -adj(D / n) B / Delta for D = Y_b - sigma Y_a, where
            # (l, r) = (M12, sin), (M22, -cos) at t_b, (0, n), (1, -(M21 sin +
            # M11 cos)) at t_a; D / n keeps Delta W from overflowing
            d12, d22 = sin / n - sigma, (sigma * (m21 * sin + m11 * cos) - cos) / n
            self._c = tuple(x / self.denom for x in
                            (d22 * sin + d12 * cos, sigma * d12, -sigma * cos))
        self._validate_boundary_values()

    def _anchored(self, *times) -> list:
        """[[l, r], [l', r']] at each of the given times or arrays of times,
        with shape (2, 2) + its shape, from one frame call: l = v and
        (r, r') = S(t)^{-1} (sin theta, -cos theta)."""
        arrays = [np.asarray(t, dtype=float) for t in times]
        phi, s = self.basis.frame(np.concatenate([a.ravel() for a in arrays]))
        (l, dl), ((s11, s12), (s21, s22)) = phi[:, 1], s
        sin, cos = self._sin, self._cos
        lr = np.array([[l, s22 * sin + s12 * cos], [dl, -(s21 * sin + s11 * cos)]])
        ends = np.cumsum([0] + [a.size for a in arrays])
        return [lr[:, :, lo:hi].reshape((2, 2) + a.shape)
                for a, lo, hi in zip(arrays, ends[:-1], ends[1:])]

    def _eval(self, t, tp, side: Optional[str] = None):
        """G(t, tp) for side None, else dG/dt on the branch side names, at
        times t and tp that broadcast together; a float for scalar times."""
        at_t, at_tp = self._anchored(t) * 2 if tp is t else self._anchored(t, tp)
        if side is None:
            upper = np.greater(t, tp)
        elif side == "auto":
            upper = np.greater_equal(t, tp)
        elif side in ("upper", "lower"):
            upper = side == "upper"
        else:
            raise ValueError(f"side must be 'auto', 'upper' or 'lower', got {side!r}")
        return self._assemble(at_t, at_tp, upper, side is not None)

    def _assemble(self, at_t, at_tp, upper, slope: bool):
        """G(t, tp), or dG/dt with slope, from the anchored solutions at t and
        tp: (l(min) r(max) + [l r](t) C [l r](tp)^T) / n on the branch upper
        selects, l(tp) r(t) (t > tp) or l(t) r(tp)."""
        (l, r), (dl, dr) = at_t
        (lp, rp), _ = at_tp
        if slope:
            l, r = dl, dr
        # divided before multiplying: l(t) r(t') alone overflows for strongly
        # growing bases on the branch np.where discards
        ln, rn = l / self._n, r / self._n
        c11, c12, c22 = self._c
        value = (np.where(upper, (lp / self._n) * r, ln * rp)
                 + (ln * c11 + rn * c12) * lp + (ln * c12 + rn * c22) * rp)
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
        lr_ends, lr_s = self._anchored(ends, s)
        values, slopes = (self._assemble(lr_ends, lr_s, ends > s, d) for d in (False, True))
        res = (np.max(np.abs(values), axis=0) if not self._sigma else
               np.maximum(np.abs(values[0] - self._sigma * values[1]),
                          np.abs(slopes[0] - self._sigma * slopes[1])))
        diagonal = self._assemble(lr_s, lr_s, False, False)
        jump = self._assemble(lr_s, lr_s, True, True) - self._assemble(lr_s, lr_s, False, True)
        # the unit slope jump fails once r has lost its digits, as it does
        # for growing bases whose frame has no suffix products (basis_from_pq)
        worst = float(np.max(np.maximum(res / (1.0 + np.abs(diagonal)), np.abs(jump + 1.0))))
        if worst > BC_CHECK_TOL:
            raise VerificationError(
                f"{self.bc} Green function violates its boundary or jump "
                f"conditions (residual {worst:.3e} > BC_CHECK_TOL = {BC_CHECK_TOL})")


def trace_omega_sq(kernel: GreenKernel) -> float:
    """Integral of Omega^2(t) * G(t, t) over the interval, by the basis's
    Gauss rule on the integrator's steps, with one omega_sq call on the
    array of Gauss nodes."""
    nodes, weights = kernel.basis.quadrature
    return float(weights @ (kernel.diagonal(nodes) * kernel.basis.profile.omega_sq(nodes)))
