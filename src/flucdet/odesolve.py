"""Homogeneous solutions and amplitude-phase solutions of h'' = -g*Omega^2(t)*h.

A solution basis is one 2x2 fundamental matrix Y(t): its columns are two
independent solutions, its first row their values and its second row their
slopes.  Everything downstream reads the endpoint matrices Y_a = Y(t_a) and
Y_b = Y(t_b):

    W = det Y_a               the Wronskian, constant in t
    M = Y_b Y_a^{-1}          the transfer matrix Phi(t_b, t_a), det M = 1
    Phi(t) = Y(t) Y_a^{-1}    columns u, v start from (1, 0) and (0, 1) at t_a

M does not depend on the choice of basis.  make_basis takes M from the
sixth-order Magnus integrator of Blanes, Casas and Ros (BIT 40, 434, 2000;
review: Blanes, Casas, Oteo, Ros, Phys. Rep. 470, 151, 2009) on n uniform
steps.  Each step samples Omega^2 at three Gauss nodes, builds the Magnus
exponent Omega_k, a traceless 2x2 matrix, and exponentiates it in closed form;
M is the pairwise product of the n step matrices.  n starts from a work
estimate and doubles until two levels agree to MAGNUS_REL_TARGET.

Dense output is one frame per time: one local Magnus step E from the knot
t_k before t gives both Phi(t, t_a) = E Phi(t_k, t_a) and Phi(t_b, t) =
Phi(t_b, t_k) adj(E), from prefix and suffix products formed on the first
dense call, so a determinant never pays for them.  Integrals use one Gauss
rule on the steps between knots (HomogeneousBasis.quadrature); every basis
keeps its steps within 1/MAGNUS_STEPS_PER_RADIAN = 1/2 radian of the
solutions' phase, where that rule reaches rounding level.

The amplitude-phase system is solved by scipy's adaptive DOP853, which keeps
that route independent of the Magnus product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import IntegrationError, ShootingError
from .profiles import FrequencyProfile, Interval

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-14
# periodic amplitude shooting: Newton iterations, tolerance, Jacobian FD step
SHOOTING_MAX_ITER = 100
SHOOTING_TOL = 1e-8
SHOOTING_FD_DELTA = 1e-6

# Magnus step doubling stops once the error estimate |M_2n - M_n| / 63 of the
# finer level is at most MAGNUS_REL_TARGET times its largest entry, or, from
# 2^15 steps on, n eps / 63 times it: two n-step products differ by up to
# about n eps from rounding alone.  Rounding both levels share is invisible
# to the doubling, so the reported estimate is at least 2 n eps times the
# envelope max(max|M_ij|, w, min(T, 1/w)), w = max|g Omega^2|^(1/2), which
# bounds the error of M against closed forms (constant Omega^2, w T from
# 0.01 to 1e5).  The first level has at least MAGNUS_STEPS_PER_RADIAN steps
# per radian of w, never fewer than MAGNUS_MIN_STEPS; a level above
# MAGNUS_MAX_STEPS is refused.  MAGNUS_CHUNK steps at a time keep memory flat.
MAGNUS_REL_TARGET = 1e-13
MAGNUS_STEPS_PER_RADIAN = 2.0
MAGNUS_MIN_STEPS = 64
MAGNUS_MAX_STEPS = 1 << 20
MAGNUS_CHUNK = 1 << 12

# Canonical basis (eta, xi): eta has (value, slope) = (0, 1) at t_a and xi has
# (1, 0), so W = eta*xi' - eta'*xi = -1.
_CANONICAL_Y_A = np.array([[0.0, 1.0], [1.0, 0.0]])
_CANONICAL_Y_A.setflags(write=False)  # shared by every canonical basis

# Gauss-Legendre rule on each Magnus step.  On the steps make_basis chooses
# (h sqrt|g Omega^2| <= 1/2), Omega^2 G integrated with four nodes agrees with
# a 16-node rule to 4.3e-13 of the integral of its modulus, the rounding level
# that five to eight nodes reach as well; three nodes leave 1.9e-10 (measured
# on constant omega T up to 300, Omega^2 = -k^2 with kT up to 60 and modulated
# profiles, under all three boundary conditions).
GAUSS_NODES_PER_STEP = 4
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(GAUSS_NODES_PER_STEP)

# the three Gauss nodes of a unit Magnus step
_MAGNUS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0])[:, None] * (math.sqrt(15.0) / 10.0)
_IDENTITY = (1.0, 0.0, 0.0, 1.0)
_EPS = float(np.finfo(float).eps)


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


def _adjugate(y: np.ndarray) -> np.ndarray:
    """adj(Y) = det(Y) Y^{-1} for Y of shape (2, 2) or (2, 2, n)."""
    (a, b), (c, d) = y
    return np.array([[d, -b], [-c, a]])


# ---------------------------------------------------------------------------
# sixth-order Magnus steps for Y' = [[0, 1], [-g Omega^2, 0]] Y
#
# 2x2 matrices are tuples of entries (m11, m12, m21, m22), each an array over
# steps or times, and traceless ones are triples (p, q, r) for
# [[p, q], [r, -p]], whose commutator is
# [(p, q, r), (p', q', r')] = (q r' - q' r, 2 (p q' - q p'), 2 (r p' - p r')).


def _mul(b, a):
    """b @ a, entrywise over the arrays."""
    return (b[0] * a[0] + b[1] * a[2], b[0] * a[1] + b[1] * a[3],
            b[2] * a[0] + b[3] * a[2], b[2] * a[1] + b[3] * a[3])


def _step_matrices(a: np.ndarray, h):
    """exp(Omega) for Magnus steps of length h whose three Gauss nodes carry
    a = -g Omega^2, an array of shape (3, m); h is a float or an array of m
    lengths.

    With A(t) = [[0, 1], [a, 0]] and A_i at node i, the node combinations
    A1 = h A_2, A2 = sqrt(15) h / 3 (A_3 - A_1), A3 = 10 h / 3 (A_3 - 2 A_2 + A_1)
    give C1 = [A1, A2], C2 = -[A1, 2 A3 + C1] / 60 and
    Omega = A1 + A3 / 12 + [-20 A1 - A3 + C1, A2 + C2] / 240.
    A2 and A3 have only a lower-left entry, b and c below, so the
    commutators reduce to the closed forms written out here.  Omega^2 = s I
    with s = -det Omega, hence exp(Omega) = cosh(sqrt s) I + sinh(sqrt s) /
    sqrt s Omega, with cos and sin for s < 0.
    """
    a1, a2, a3 = a
    b = (math.sqrt(15.0) / 3.0) * h * (a3 - a1)
    c = (10.0 / 3.0) * h * (a3 - 2.0 * a2 + a1)
    hh = h * h
    # [-20 A1 - A3 + C1, A2 + C2] with C1 = (h b, 0, 0) and
    # C2 = (-h c / 30, h^2 b / 30, -h^2 a_2 b / 30)
    p = h * b * (-20.0 + hh * a2 * (4.0 / 3.0) + h * c / 30.0)
    q = hh * (h * b * b / 15.0 - c * (4.0 / 3.0))
    r = h * (h * a2 * c * (4.0 / 3.0) + c * c / 15.0 - b * b * (2.0 - hh * a2 / 15.0))
    p = p / 240.0
    q = h + q / 240.0
    r = h * a2 + c / 12.0 + r / 240.0
    s = p * p + q * r
    x = np.sqrt(np.abs(s))
    safe = np.where(x == 0.0, 1.0, x)
    grow = s > 0.0
    xg = np.where(grow, x, 0.0)  # keep cosh and sinh off the unused branch
    cc = np.where(grow, np.cosh(xg), np.cos(x))
    sc = np.where(x == 0.0, 1.0, np.where(grow, np.sinh(xg), np.sin(x)) / safe)
    return (cc + sc * p, sc * q, sc * r, cc - sc * p)


def _reduce(e):
    """Ordered product e[m-1] ... e[1] e[0] of m step matrices, m a power of
    two, by pairwise products."""
    while e[0].shape[0] > 1:
        e = _mul(tuple(x[1::2] for x in e), tuple(x[0::2] for x in e))
    return tuple(x[0] for x in e)


def _scan(e, reverse: bool = False) -> np.ndarray:
    """Prefix products p_k = e[k-1] ... e[0] for k = 0..m (p_0 = I), or with
    reverse=True suffix products s_k = e[m-1] ... e[k] (s_m = I), by log2(m)
    passes of pairwise products; entries along the rows of a (4, m+1) array."""
    p = np.array(e)
    d = 1
    while d < p.shape[1]:
        if reverse:
            p[:, :-d] = _mul(p[:, d:], p[:, :-d])
        else:
            p[:, d:] = _mul(p[:, d:], p[:, :-d])
        d *= 2
    one = np.array(_IDENTITY)[:, None]
    return np.hstack([p, one] if reverse else [one, p])


class _MagnusGrid:
    """n uniform Magnus steps of Y' = [[0, 1], [-g Omega^2, 0]] Y on an
    interval: the transfer matrix and dense evaluation."""

    def __init__(self, omega_sq: Callable, g: float, iv: Interval, n: int):
        self.omega_sq = omega_sq
        self.g = g
        self.iv = iv
        self.n = n
        self.h = iv.span / n

    def starts(self, lo: int, hi: int) -> np.ndarray:
        """The knots t_a + k h, k = lo..hi-1."""
        k = np.arange(lo, hi, dtype=float)
        k *= self.h
        k += self.iv.t_a
        return k

    @cached_property
    def knots(self) -> np.ndarray:
        knots = self.starts(0, self.n + 1)
        knots[-1] = self.iv.t_b
        return knots

    def sample(self, starts: np.ndarray, h) -> np.ndarray:
        """-g Omega^2 at the three Gauss nodes of the steps of length h from
        starts, in one array call, shape (3, m)."""
        a = -self.g * np.asarray(self.omega_sq(starts + _MAGNUS_NODES * h), dtype=float)
        if not np.all(np.isfinite(a)):
            raise IntegrationError("Omega^2 is not finite on the interval")
        return a

    def _chunks(self):
        """Step matrices, MAGNUS_CHUNK steps at a time, with the largest
        sampled |g Omega^2| of each chunk."""
        for lo in range(0, self.n, MAGNUS_CHUNK):
            a = self.sample(self.starts(lo, min(self.n, lo + MAGNUS_CHUNK)), self.h)
            yield _step_matrices(a, self.h), float(np.max(np.abs(a)))

    def transfer(self):
        """M = Phi(t_b, t_a) and the largest sampled |g Omega^2|."""
        acc, a_max = _IDENTITY, 0.0
        for e, a_chunk in self._chunks():
            acc = _mul(_reduce(e), acc)
            a_max = max(a_max, a_chunk)
        return np.array(acc).reshape(2, 2), a_max

    @cached_property
    def _products(self):
        """Prefix products Phi(t_k, t_a) and suffix products Phi(t_b, t_k)
        at the knots, k = 0..n."""
        e = np.hstack([np.array(e) for e, _ in self._chunks()])
        return _scan(e), _scan(e, reverse=True)

    def frame(self, t) -> tuple:
        """(Phi(t, t_a), Phi(t_b, t)) = (E Phi(t_k, t_a), Phi(t_b, t_k) E^{-1}),
        where t_k is the knot before t and E the Magnus step from t_k to t,
        whose inverse is its adjugate; each of shape (2, 2) + t.shape."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        k = np.clip(np.floor((flat - self.iv.t_a) / self.h), 0, self.n).astype(np.intp)
        tau = flat - self.knots[k]
        e11, e12, e21, e22 = e = _step_matrices(self.sample(self.knots[k], tau), tau)
        pre, suf = self._products
        shape = (2, 2) + t.shape
        return (np.array(_mul(e, pre[:, k])).reshape(shape),
                np.array(_mul(suf[:, k], (e22, -e12, -e21, e11))).reshape(shape))


def _work_estimate(a_max: float, iv: Interval) -> float:
    """Steps for MAGNUS_STEPS_PER_RADIAN per radian of the largest sampled
    frequency; above MAGNUS_MAX_STEPS the integration is refused."""
    estimate = MAGNUS_STEPS_PER_RADIAN * math.sqrt(a_max) * iv.span
    if estimate > MAGNUS_MAX_STEPS:
        raise IntegrationError(
            f"work estimate of {estimate:.4g} Magnus steps "
            f"(MAGNUS_STEPS_PER_RADIAN = {MAGNUS_STEPS_PER_RADIAN} per radian "
            f"of max|g Omega^2|^(1/2) over T = {iv.span}) exceeds "
            f"MAGNUS_MAX_STEPS = {MAGNUS_MAX_STEPS}")
    return estimate


def _magnus(profile: FrequencyProfile, g: float):
    """The Magnus grid, M and the error estimate of M's entries, by step
    doubling from the work estimate."""
    iv, om = profile.interval, profile.omega_sq
    coarse = _MagnusGrid(om, g, iv, MAGNUS_MIN_STEPS)
    a_max = float(np.max(np.abs(coarse.sample(coarse.starts(0, coarse.n), coarse.h))))
    n, error = MAGNUS_MIN_STEPS, math.inf
    with np.errstate(over="raise", invalid="raise"):
        try:
            # a finer level can sample a larger |Omega^2|, so the estimate
            # is checked again on every level it sets
            estimate, m = _work_estimate(a_max, iv), None
            while m is None or n < estimate:
                if estimate > n:
                    n = 1 << math.ceil(math.log2(estimate))
                m, a_max = _MagnusGrid(om, g, iv, n).transfer()
                estimate = _work_estimate(a_max, iv)
            while True:
                if 2 * n > MAGNUS_MAX_STEPS:
                    raise IntegrationError(
                        f"Magnus step doubling needs more than MAGNUS_MAX_STEPS = "
                        f"{MAGNUS_MAX_STEPS} steps to meet MAGNUS_REL_TARGET = "
                        f"{MAGNUS_REL_TARGET} (error estimate {error:.3e} at {n} "
                        f"steps; work estimate {estimate:.4g} steps)")
                n *= 2
                grid = _MagnusGrid(om, g, iv, n)
                fine, _ = grid.transfer()
                error = float(np.max(np.abs(fine - m))) / 63.0
                m = fine
                scale = float(np.max(np.abs(m)))
                if error <= max(MAGNUS_REL_TARGET, n * _EPS / 63.0) * scale:
                    w, span = math.sqrt(a_max), iv.span
                    envelope = max(scale, w, span / max(1.0, w * span))
                    return grid, m, max(error, 2.0 * n * _EPS * envelope)
        except FloatingPointError:
            raise IntegrationError(
                f"the fundamental matrix overflows on [{iv.t_a}, {iv.t_b}] "
                f"at {n} Magnus steps") from None


@dataclass(frozen=True, eq=False)
class HomogeneousBasis:
    """A solution basis: its endpoint matrices Y_a, Y_b and its frame.

    frame(t) takes a time or a 1-D array of times and returns (Phi(t, t_a),
    Phi(t_b, t)), each of shape (2, 2) or (2, 2, n) and the same for every
    basis.  Column j of Y(t) = Phi(t, t_a) Y_a holds solution j: row 0 its
    value, row 1 its slope.  knots are the integrator's step times from t_a
    to t_b, each step at most 1/MAGNUS_STEPS_PER_RADIAN radian of the
    solutions' phase; error_estimate is the integrator's estimate of the
    largest error in an entry of M, if it has one.
    """

    frame: Callable[[object], tuple]
    y_a: np.ndarray
    y_b: np.ndarray
    profile: FrequencyProfile
    knots: np.ndarray
    error_estimate: Optional[float] = None

    @property
    def interval(self) -> Interval:
        return self.profile.interval

    @property
    def w(self) -> float:
        """Wronskian det Y_a."""
        (a, b), (c, d) = self.y_a
        return float(a * d - b * c)

    @cached_property
    def m(self) -> np.ndarray:
        """Transfer matrix M = Y_b adj(Y_a) / W."""
        return self.y_b @ _adjugate(self.y_a) / self.w

    def y(self, t) -> np.ndarray:
        """Y(t) = Phi(t) Y_a."""
        return _times(self.phi(t), self.y_a)

    def phi(self, t) -> np.ndarray:
        """Phi(t) = Phi(t, t_a), the fundamental matrix equal to I at t_a."""
        return self.frame(t)[0]

    def to_end(self, t) -> np.ndarray:
        """S(t) = Phi(t_b, t), the fundamental matrix equal to I at t_b."""
        return self.frame(t)[1]

    @cached_property
    def quadrature(self) -> tuple:
        """Nodes and weights of the Gauss rule with GAUSS_NODES_PER_STEP nodes
        on each step between knots: the integral of f is weights @ f(nodes)."""
        half = 0.5 * np.diff(self.knots)[:, None]
        mid = 0.5 * (self.knots[1:] + self.knots[:-1])[:, None]
        return (mid + half * _GAUSS_X).ravel(), (half * _GAUSS_W).ravel()


def make_basis(profile: FrequencyProfile, g: float = 1.0) -> HomogeneousBasis:
    """Canonical basis (eta, xi) from the sixth-order Magnus product.

    eta has (value, slope) = (0, 1) at t_a and xi has (1, 0), so M = Phi(t_b)
    and W = -1.  The frame is read from prefix and suffix products of the
    Magnus steps, formed on the first call.  Raises IntegrationError when the
    work estimate or the step doubling passes MAGNUS_MAX_STEPS, or when M
    overflows.
    """
    gg = float(g)
    if not math.isfinite(gg):
        raise ValueError("coupling g must be finite")
    grid, m, error = _magnus(profile, gg)
    return HomogeneousBasis(frame=_on_interval(grid.frame, profile.interval),
                            y_a=_CANONICAL_Y_A, y_b=m @ _CANONICAL_Y_A,
                            profile=profile, knots=grid.knots, error_estimate=error)


def mix_basis(basis: HomogeneousBasis, matrix) -> HomogeneousBasis:
    """The basis Y C: column j of the result is sum_i C[i, j] times column i;
    the frame does not depend on the basis."""
    c = np.asarray(matrix, dtype=float)
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    scale = float(np.max(np.abs(c)))
    if abs(det) <= 1e-14 * scale * scale:
        raise ValueError("mixing matrix is singular")
    return replace(basis, y_a=basis.y_a @ c, y_b=basis.y_b @ c)


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


def _integrate_ermakov(profile, omega0, p0, dp0):
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

    from scipy.integrate import solve_ivp  # only this route needs scipy

    result = solve_ivp(rhs, (iv.t_a, iv.t_b), [p0, dp0, 0.0],
                       method="DOP853", dense_output=True,
                       rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, events=collapse)
    if result.status == 1:
        raise IntegrationError(
            f"amplitude solution collapsed to zero near t = {result.t_events[0][0]}")
    if not result.success:
        raise IntegrationError(
            f"amplitude-phase integration failed near t = {result.t[-1]}: {result.message}")
    return result.sol


def solve_ermakov(profile: FrequencyProfile, omega0: float,
                  bc: str = "initial") -> ErmakovSolution:
    """Solve the amplitude-phase system for the profile.

    bc="initial" starts from p(t_a) = Omega(t_a)^(-1/2) (or 1 if Omega^2(t_a)
    is not positive) with p'(t_a) = 0.  bc="periodic" runs two-parameter
    Newton shooting on (p(t_a), p'(t_a)) from there to enforce matching
    endpoint amplitude and slope.
    """
    if not omega0 > 0.0:
        raise ValueError(f"omega0 must be positive, got {omega0}")
    iv = profile.interval

    om_a = float(profile.omega_sq(np.array(iv.t_a)))
    p_start = om_a ** (-0.25) if om_a > 0.0 else 1.0
    dp_start = 0.0

    if bc == "initial":
        sol = _integrate_ermakov(profile, omega0, p_start, dp_start)
        iterations = 0
    elif bc == "periodic":
        z = np.array([p_start, dp_start])

        def residual(zz):
            s = _integrate_ermakov(profile, omega0, zz[0], zz[1])
            return s, s(iv.t_b)[:2] - zz

        sol, res = residual(z)
        for iterations in range(1, SHOOTING_MAX_ITER + 1):
            if np.max(np.abs(res)) <= SHOOTING_TOL * (1.0 + abs(z[0])):
                break
            jac = np.empty((2, 2))
            for j in range(2):
                z_pert = z.copy()
                z_pert[j] += SHOOTING_FD_DELTA
                jac[:, j] = (residual(z_pert)[1] - res) / SHOOTING_FD_DELTA
            try:
                step = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError:
                raise ShootingError(
                    f"singular shooting Jacobian at iteration {iterations}") from None
            lam = 1.0
            while z[0] + lam * step[0] <= 1e-6 and lam > 1e-4:
                lam *= 0.5
            z = z + lam * step
            sol, res = residual(z)
        else:
            if np.max(np.abs(res)) > SHOOTING_TOL * (1.0 + abs(z[0])):
                raise ShootingError(
                    f"periodic amplitude shooting did not converge in {SHOOTING_MAX_ITER} "
                    f"iterations (residual {np.max(np.abs(res)):.3e})")
        p_start, dp_start = float(z[0]), float(z[1])
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
