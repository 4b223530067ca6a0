"""Homogeneous solutions and amplitude-phase solutions of h'' = -g*Omega^2(t)*h.

A solution basis is one 2x2 fundamental matrix Y(t): its columns are two
independent solutions, its first row their values and its second row their
slopes.  Everything downstream reads the endpoint matrices Y_a = Y(t_a) and
Y_b = Y(t_b):

    W = det Y_a               the Wronskian, constant in t
    M = Y_b Y_a^{-1}          the transfer matrix Phi(t_b, t_a), det M = 1
    Phi(t) = Y(t) Y_a^{-1}    columns u, v start from (1, 0) and (0, 1) at t_a

M does not depend on the choice of basis.  make_basis integrates the whole
matrix in one pass of an adaptive high-order embedded Runge-Kutta pair with
dense output, so Y(t) can be evaluated anywhere on the interval, for one time
or for an array of times; slopes are state components and interpolate with
the same accuracy as values.  Integrals over the interval use one Gauss rule
on the integrator's own steps (HomogeneousBasis.quadrature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError, ShootingError
from .profiles import FrequencyProfile, Interval

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14

# Canonical basis (eta, xi): eta has (value, slope) = (0, 1) at t_a and xi has
# (1, 0), so W = eta*xi' - eta'*xi = -1.
_CANONICAL_Y_A = np.array([[0.0, 1.0], [1.0, 0.0]])
_CANONICAL_Y_A.setflags(write=False)  # shared by every canonical basis

# Between two knots Y(t) is the solver's degree-7 dense-output polynomial, so
# eight Gauss-Legendre nodes per step integrate a product of two entries of Y
# exactly; the rule has no tolerance of its own.
GAUSS_NODES_PER_STEP = 8
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(GAUSS_NODES_PER_STEP)


def _on_interval(fn: Callable, iv: Interval) -> Callable:
    """fn restricted to [t_a, t_b]: times within a relative 1e-9 of the ends
    are clipped onto the interval, times further out are an error."""
    slack = 1e-9 * iv.span

    def restricted(t):
        tt = np.asarray(t, dtype=float)
        if np.any(tt < iv.t_a - slack) or np.any(tt > iv.t_b + slack):
            raise ValueError(f"t = {t!r} outside solution domain [{iv.t_a}, {iv.t_b}]")
        return fn(np.clip(tt, iv.t_a, iv.t_b))

    return restricted


def _times(y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Y C for Y of shape (2, 2) or (2, 2, n) and a constant 2x2 matrix C."""
    return np.einsum("ij...,jk->ik...", y, c)


@dataclass(frozen=True, eq=False)
class HomogeneousBasis:
    """Fundamental matrix Y(t) of a solution basis with its endpoint matrices.

    y(t) takes a time or a 1-D array of times and returns Y(t) with shape
    (2, 2) or (2, 2, n).  Column j holds solution j: row 0 its value, row 1
    its slope.  knots are the integrator's step times from t_a to t_b.
    """

    y: Callable[[object], np.ndarray]
    y_a: np.ndarray
    y_b: np.ndarray
    g: float
    profile: FrequencyProfile
    knots: np.ndarray

    @property
    def interval(self) -> Interval:
        return self.profile.interval

    @property
    def w(self) -> float:
        """Wronskian det Y_a."""
        (a, b), (c, d) = self.y_a
        return float(a * d - b * c)

    @cached_property
    def inv_a(self) -> np.ndarray:
        (a, b), (c, d) = self.y_a
        return np.array([[d, -b], [-c, a]]) / self.w

    @cached_property
    def m(self) -> np.ndarray:
        """Transfer matrix M = Y_b Y_a^{-1}."""
        return self.y_b @ self.inv_a

    def phi(self, t) -> np.ndarray:
        """Phi(t) = Y(t) Y_a^{-1}, the fundamental matrix equal to I at t_a."""
        return _times(self.y(t), self.inv_a)

    @cached_property
    def quadrature(self) -> tuple:
        """Nodes and weights of the Gauss rule with GAUSS_NODES_PER_STEP nodes
        on each step between knots: the integral of f is weights @ f(nodes)."""
        half = 0.5 * np.diff(self.knots)[:, None]
        mid = 0.5 * (self.knots[1:] + self.knots[:-1])[:, None]
        return (mid + half * _GAUSS_X).ravel(), (half * _GAUSS_W).ravel()


def make_basis(profile: FrequencyProfile, g: float = 1.0,
               rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL) -> HomogeneousBasis:
    """Canonical basis (eta, xi) from one integration of the fundamental matrix.

    eta has (value, slope) = (0, 1) at t_a and xi has (1, 0), so M = Phi(t_b)
    and W = -1.  The four components of Y evolve under
    Y' = [[0, 1], [-g Omega^2, 0]] Y, one Omega^2 evaluation per step stage.
    """
    iv = profile.interval
    gg = float(g)
    if not math.isfinite(gg):
        raise ValueError("coupling g must be finite")
    om = profile.omega_sq

    def rhs(t, y):
        k = -gg * float(om(t))
        return (y[2], y[3], k * y[0], k * y[1])

    result = solve_ivp(rhs, (iv.t_a, iv.t_b), _CANONICAL_Y_A.ravel(),
                       method="DOP853", dense_output=True, rtol=rtol, atol=atol)
    if not result.success:
        t_fail = result.t[-1] if len(result.t) else iv.t_a
        raise IntegrationError(
            f"homogeneous integration failed near t = {t_fail}: {result.message}")
    dense = result.sol

    def y(t):
        state = dense(t)
        return state.reshape((2, 2) + state.shape[1:])

    return HomogeneousBasis(y=_on_interval(y, iv), y_a=_CANONICAL_Y_A,
                            y_b=result.y[:, -1].reshape(2, 2), g=gg, profile=profile,
                            knots=result.t)


def mix_basis(basis: HomogeneousBasis, matrix) -> HomogeneousBasis:
    """The basis Y C: column j of the result is sum_i C[i, j] times column i."""
    c = np.asarray(matrix, dtype=float)
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    scale = float(np.max(np.abs(c)))
    if abs(det) <= 1e-14 * scale * scale:
        raise ValueError("mixing matrix is singular")
    y = basis.y
    return HomogeneousBasis(y=lambda t: _times(y(t), c), y_a=basis.y_a @ c,
                            y_b=basis.y_b @ c, g=basis.g, profile=basis.profile,
                            knots=basis.knots)


def wronskian_drift(basis: HomogeneousBasis, num: int = 201) -> float:
    """Maximum deviation of det Y(t) from the stored Wronskian det Y_a."""
    (a, b), (c, d) = basis.y(np.asarray(basis.interval.grid(num)))
    return float(np.max(np.abs(a * d - b * c - basis.w)))


# ---------------------------------------------------------------------------
# amplitude-phase representation


@dataclass(frozen=True, eq=False)
class ErmakovSolution:
    """Amplitude p(t) and phase q(t) with p'' + Omega^2 p = p^-3, omega0*q'*p^2 = 1.

    state(t) returns (p, p', q) at a time or, as rows, at a 1-D array of
    times.  q is normalized to q(t_a) = 0.  For bc="periodic" the amplitude
    satisfies p(t_b) = p(t_a) and p'(t_b) = p'(t_a) to the shooting tolerance.
    knots are the integrator's step times from t_a to t_b.
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
    evenness_residual: Optional[float] = None
    newton_iterations: int = 0

    @property
    def interval(self) -> Interval:
        return self.profile.interval


def _integrate_ermakov(profile, omega0, p0, dp0, rtol, atol):
    iv = profile.interval
    om = profile.omega_sq
    w0 = float(omega0)

    def rhs(t, y):
        p = y[0]
        return (y[1], 1.0 / p ** 3 - float(om(t)) * p, 1.0 / (w0 * p * p))

    def collapse(t, y):
        return y[0] - 1e-8
    collapse.terminal = True
    collapse.direction = -1

    result = solve_ivp(rhs, (iv.t_a, iv.t_b), [p0, dp0, 0.0],
                       method="DOP853", dense_output=True,
                       rtol=rtol, atol=atol, events=collapse)
    if result.status == 1:
        raise IntegrationError(
            f"amplitude solution collapsed to zero near t = {result.t_events[0][0]}")
    if not result.success:
        raise IntegrationError(
            f"amplitude-phase integration failed near t = {result.t[-1]}: {result.message}")
    return result.sol


def solve_ermakov(profile: FrequencyProfile, omega0: float, bc: str = "initial",
                  init=None, rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
                  max_iter: int = 100, shooting_tol: float = 1e-8,
                  fd_delta: float = 1e-6) -> ErmakovSolution:
    """Solve the amplitude-phase system for the profile.

    bc="initial" starts from p(t_a) = Omega(t_a)^(-1/2) (or 1 if Omega^2(t_a)
    is not positive) with p'(t_a) = 0, or from the supplied init pair.
    bc="periodic" runs two-parameter Newton shooting on (p(t_a), p'(t_a)) to
    enforce matching endpoint amplitude and slope.
    """
    if not omega0 > 0.0:
        raise ValueError(f"omega0 must be positive, got {omega0}")
    iv = profile.interval

    if init is not None:
        p_start, dp_start = float(init[0]), float(init[1])
        if p_start <= 0.0:
            raise ValueError("initial amplitude must be positive")
    else:
        om_a = float(profile.omega_sq(iv.t_a))
        p_start = om_a ** (-0.25) if om_a > 0.0 else 1.0
        dp_start = 0.0

    if bc == "initial":
        sol = _integrate_ermakov(profile, omega0, p_start, dp_start, rtol, atol)
        iterations = 0
    elif bc == "periodic":
        z = np.array([p_start, dp_start])

        def residual(zz):
            s = _integrate_ermakov(profile, omega0, zz[0], zz[1], rtol, atol)
            end = s(iv.t_b)
            return np.array([end[0] - zz[0], end[1] - zz[1]])

        iterations = 0
        converged = False
        res = residual(z)
        for iterations in range(1, max_iter + 1):
            if np.max(np.abs(res)) <= shooting_tol * (1.0 + abs(z[0])):
                converged = True
                break
            jac = np.empty((2, 2))
            for j in range(2):
                z_pert = z.copy()
                z_pert[j] += fd_delta
                jac[:, j] = (residual(z_pert) - res) / fd_delta
            try:
                step = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError:
                raise ShootingError(
                    f"singular shooting Jacobian at iteration {iterations}") from None
            lam = 1.0
            while z[0] + lam * step[0] <= 1e-6 and lam > 1e-4:
                lam *= 0.5
            z = z + lam * step
            res = residual(z)
        if not converged and np.max(np.abs(res)) > shooting_tol * (1.0 + abs(z[0])):
            raise ShootingError(
                f"periodic amplitude shooting did not converge in {max_iter} "
                f"iterations (residual {np.max(np.abs(res)):.3e})")
        p_start, dp_start = float(z[0]), float(z[1])
        sol = _integrate_ermakov(profile, omega0, p_start, dp_start, rtol, atol)
    else:
        raise ValueError(f"bc must be 'initial' or 'periodic', got {bc!r}")

    state = _on_interval(sol, iv)
    end = sol(iv.t_b)

    evenness = None
    if bc == "periodic":
        taus = 0.5 * iv.span * np.arange(51) / 50
        evenness = float(np.max(np.abs(state(iv.t_a + taus)[0]
                                       - state(iv.t_b - taus)[0])))

    return ErmakovSolution(
        state=state, omega0=float(omega0),
        p_a=p_start, p_b=float(end[0]), dp_a=dp_start, dp_b=float(end[1]),
        q_b=float(end[2]), profile=profile, periodic=(bc == "periodic"),
        knots=sol.ts, evenness_residual=evenness, newton_iterations=iterations)
