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
estimate and doubles; until two levels agree to MAGNUS_REL_TARGET, n jumps
to the level 2^k n that the sixth-order error estimate predicts.  It solves
an affine family c0_j + c1_j Omega^2 at once (members on a trailing axis, one
Omega^2 sample per node for all); make_basis is the one-member case (0, g).

Dense output is one frame per time: one local Magnus step E from the knot
t_k before t gives both Phi(t, t_a) = E Phi(t_k, t_a) and Phi(t_b, t) =
Phi(t_b, t_k) adj(E), from prefix and suffix products formed on the first
dense call, which neither a determinant nor its slope dM/ds (step pairs
reduced pairwise as M is, _MagnusGrid.slope) pays for.  Integrals use one
Gauss rule on the steps between knots (HomogeneousBasis.quadrature); every
basis keeps its steps within 1/MAGNUS_STEPS_PER_RADIAN = 1/2 radian of the
solutions' phase, where that rule reaches rounding level.

The amplitude-phase system is solved by the package's own adaptive DOP853
(dop853.py), which keeps that route independent of the Magnus product.  It
steps as scipy's solve_ivp(method="DOP853") does, with one Omega^2 call per
step attempt, and builds its dense output only for the steps a time falls
into.  The periodic amplitude is Pinney's closed form in the monodromy
that one solve's own endpoint data give, so a periodic solve costs at most
two solves; newton_iterations counts the correction, 0 or 1.
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
# periodic amplitude: how closely p and p' must return to their start
SHOOTING_TOL = 1e-8

# Magnus step doubling stops once the error estimate |M_n - M_c| / (2^(6k) - 1)
# of the finer level n = 2^k c is at most MAGNUS_REL_TARGET times its largest
# entry, or, from 2^15 steps on, n eps / 63 times it: two n-step products
# differ by up to about n eps from rounding alone.  The first pair has k = 1;
# a pair that misses jumps by the k that divides its error below the target,
# k = ceil(log2(error / target) / 6).  Rounding both levels share is invisible
# to the doubling, so the reported estimate is at least 2 n eps times the
# envelope max(max|M_ij|, w, min(T, 1/w)), w = max|g Omega^2|^(1/2), which
# bounds the error of M against closed forms (constant Omega^2, w T from
# 0.01 to 1e5).  The first level has at least MAGNUS_STEPS_PER_RADIAN steps
# per radian of w, never fewer than MAGNUS_MIN_STEPS; a level above
# MAGNUS_MAX_STEPS is refused.  MAGNUS_CHUNK steps or Gauss nodes x members
# per array keep memory flat.
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


def _gauss_rule(knots: np.ndarray) -> tuple:
    """Nodes and weights, step by step, of the Gauss rule with GAUSS_NODES_PER_STEP
    nodes on each step between knots: the integral of f is weights @ f(nodes)."""
    half, mid = 0.5 * np.diff(knots)[:, None], 0.5 * (knots[1:] + knots[:-1])[:, None]
    return (mid + half * _GAUSS_X).ravel(), (half * _GAUSS_W).ravel()


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
    if grow.all():
        cc, sn = np.cosh(x), np.sinh(x)
    elif not grow.any():
        cc, sn = np.cos(x), np.sin(x)
    else:
        xg = np.where(grow, x, 0.0)  # keep cosh and sinh off the unused branch
        cc, sn = np.where(grow, np.cosh(xg), np.cos(x)), np.where(grow, np.sinh(xg), np.sin(x))
    sc = np.where(x == 0.0, 1.0, sn / safe)
    return (cc + sc * p, sc * q, sc * r, cc - sc * p)


def _product(b, a):
    """b @ a for b of shape (2, 2) and a of shape (2, c), both + trailing axes."""
    return np.einsum("ij...,jk...->ik...", b, a)


def _reduce_pairs(x):
    """The ordered product E = E[m-1] ... E[0] of m steps along axis 2 of x
    of shape (2, 2, m, ...), m a power of two, by pairwise products; with x
    of shape (2, 4, m, ...) the pair [E | D] from theirs: (E_b, D_b) o (E_a,
    D_a) = (E_b E_a, E_b D_a + D_b E_a)."""
    while x.shape[2] > 1:
        b, a = x[:, :, 1::2], x[:, :, 0::2]
        x = _product(b[:, :2], a)
        if x.shape[1] > 2:
            x[:, 2:] += _product(b[:, 2:], a[:, :2])
    return x[:, :, 0]


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
    one = np.broadcast_to(np.reshape(_IDENTITY, (4, 1) + (1,) * (p.ndim - 2)), p[:, :1].shape)
    return np.concatenate([p, one] if reverse else [one, p], axis=1)


class _MagnusGrid:
    """n uniform Magnus steps of Y' = [[0, 1], [-(c0 + c1 Omega^2), 0]] Y on
    an interval: the transfer matrix and dense evaluation, for each member
    (c0, c1) along a trailing axis, or without it for scalar c0 and c1."""

    def __init__(self, omega_sq: Callable, c0, c1, iv: Interval, n: int):
        self.omega_sq, self.iv, self.n, self.h = omega_sq, iv, n, iv.span / n
        self.c0, self.c1, self.members = c0, c1, c1.shape if isinstance(c1, np.ndarray) else ()

    def samples(self) -> np.ndarray:
        return self.sample(self.starts(0, self.n), self.h)

    def starts(self, lo: int, hi: int) -> np.ndarray:
        """The knots t_a + k h, k = lo..hi-1."""
        return np.arange(lo, hi, dtype=float) * self.h + self.iv.t_a

    @cached_property
    def knots(self) -> np.ndarray:
        knots = self.starts(0, self.n + 1)
        knots[-1] = self.iv.t_b
        return knots

    def sample(self, starts: np.ndarray, h) -> np.ndarray:
        """-(c0 + c1 Omega^2) at the three Gauss nodes of the steps of length h
        from starts, from one array call, shape (3, m) + members."""
        om = np.asarray(self.omega_sq(starts + _MAGNUS_NODES * h), dtype=float)
        a = np.multiply.outer(om, -self.c1) if self.members else -self.c1 * om
        if self.members or self.c0:  # make_basis has c0 = 0
            a -= self.c0
        if not np.all(np.isfinite(a)):
            raise IntegrationError("Omega^2 is not finite on the interval")
        return a

    def _runs(self, per: int = 1):
        """(lo, hi) of runs of 2^j steps, of at most MAGNUS_CHUNK steps x members x per."""
        chunk = 1 << max(0, (MAGNUS_CHUNK // (per * math.prod(self.members))).bit_length() - 1)
        return [(lo, min(self.n, lo + chunk)) for lo in range(0, self.n, chunk)]

    def transfer(self, a0=None):
        """M = Phi(t_b, t_a), shape (2, 2) + members, and each member's
        largest sampled |c0 + c1 Omega^2|, from the samples a0 if given."""
        acc, a_max = None, None
        for lo, hi in self._runs():
            a = self.sample(self.starts(lo, hi), self.h) if a0 is None else a0[:, lo:hi]
            e = _reduce_pairs(np.reshape(_step_matrices(a, self.h), (2, 2) + a.shape[1:]))
            acc, top = e if acc is None else _product(e, acc), np.abs(a).max(axis=(0, 1))
            a_max = top if a_max is None else np.maximum(a_max, top)
        return acc, a_max

    def slope(self, weight: Optional[Callable] = None) -> np.ndarray:
        """dM/ds = -int Phi(t_b, t) E21 Phi(t, t_a) weight dt at s = 0 for Omega^2
        + s weight (1 if None; weight(nodes) may carry members last), shape
        (2, 2) + members, by the Gauss rule: -sum_k S_{k+1} D_k P_k, P_k =
        Phi(t_k, t_a), S_k = Phi(t_b, t_k), D_k = E_k sum_i w_i adj(e_i) E21 e_i,
        e_i the Magnus step from t_k to node i; no P_k or S_k is formed."""
        per, pairs = GAUSS_NODES_PER_STEP, []
        for lo, hi in self._runs(per):  # at most MAGNUS_CHUNK nodes x members
            m, starts = hi - lo, self.knots[lo:hi]
            nodes, w = _gauss_rule(self.knots[lo:hi + 1])
            # members first, so that a weight with members last broadcasts
            wt = w if weight is None else np.transpose(weight(nodes)) * w
            starts = np.concatenate([starts, np.repeat(starts, per)])
            h = np.concatenate([np.full(m, self.h), nodes - starts[m:]])
            e = _step_matrices(self.sample(starts, h),
                               h.reshape((-1,) + (1,) * len(self.members)))
            # only the first row of e_i enters: sum_i w_i adj(e_i) E21 e_i = [[-p, -q], [r, p]]
            p, q, r = ((wt * (x[m:] * y[m:]).T).T.reshape((m, per) + x.shape[1:]).sum(axis=1)
                       for x, y in ((e[0], e[1]), (e[1], e[1]), (e[0], e[0])))
            step = tuple(x[:m] for x in e)
            d = _mul(step, (-p, -q, r, p))
            pairs.append(_reduce_pairs(np.array([step[:2] + d[:2], step[2:] + d[2:]])))
        return -_reduce_pairs(np.stack(pairs, axis=2))[:, 2:]

    @cached_property
    def _products(self):
        """Prefix products Phi(t_k, t_a) and suffix products Phi(t_b, t_k)
        at the knots, k = 0..n."""
        e = np.hstack([np.array(_step_matrices(self.sample(self.starts(lo, hi), self.h), self.h))
                       for lo, hi in self._runs()])
        return _scan(e), _scan(e, reverse=True)

    def frame(self, t) -> tuple:
        """(Phi(t, t_a), Phi(t_b, t)) = (E Phi(t_k, t_a), Phi(t_b, t_k) E^{-1}),
        where t_k is the knot before t and E the Magnus step from t_k to t,
        whose inverse is its adjugate; each of shape (2, 2) + t.shape +
        members."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        k = np.clip(np.floor((flat - self.iv.t_a) / self.h), 0, self.n).astype(np.intp)
        tau = flat - self.knots[k]
        h = tau.reshape((-1,) + (1,) * len(self.members))
        e11, e12, e21, e22 = e = _step_matrices(self.sample(self.knots[k], tau), h)
        pre, suf = self._products
        shape = (2, 2) + t.shape + self.members
        return (np.array(_mul(e, pre[:, k])).reshape(shape),
                np.array(_mul(suf[:, k], (e22, -e12, -e21, e11))).reshape(shape))


def _work_estimate(a_max: float, iv: Interval) -> tuple:
    """Steps for MAGNUS_STEPS_PER_RADIAN per radian of the largest sampled
    frequency, and its level: the power of two of steps at or above it, at
    least MAGNUS_MIN_STEPS.  Above MAGNUS_MAX_STEPS it is refused."""
    estimate = MAGNUS_STEPS_PER_RADIAN * math.sqrt(a_max) * iv.span
    if estimate > MAGNUS_MAX_STEPS:
        raise IntegrationError(
            f"work estimate of {estimate:.4g} Magnus steps "
            f"(MAGNUS_STEPS_PER_RADIAN = {MAGNUS_STEPS_PER_RADIAN} per radian "
            f"of max|g Omega^2|^(1/2) over T = {iv.span}) exceeds "
            f"MAGNUS_MAX_STEPS = {MAGNUS_MAX_STEPS}")
    return estimate, 1 << math.ceil(math.log2(max(estimate, MAGNUS_MIN_STEPS)))


def _magnus(om: Callable, c0, c1, iv: Interval, a0: np.ndarray):
    """The Magnus grid, M and the error estimates of M's entries of members
    (c0, c1) sampled as a0 on MAGNUS_MIN_STEPS steps, refined to MAGNUS_REL_TARGET."""
    n, m, error = MAGNUS_MIN_STEPS, None, math.inf
    with np.errstate(over="raise", invalid="raise"):
        try:
            # a finer level can sample a larger |Omega^2|, so the estimate
            # is checked again on every level it sets
            estimate, level = _work_estimate(float(np.abs(a0).max()), iv)
            while m is None or n < estimate:
                n, a = level, (a0 if level == n else None)
                m, a_max = _MagnusGrid(om, c0, c1, iv, n).transfer(a)
                estimate, level = _work_estimate(float(a_max.max()), iv)
            k = 1
            while True:
                if 2 * n > MAGNUS_MAX_STEPS:
                    raise IntegrationError(
                        f"Magnus step doubling needs more than MAGNUS_MAX_STEPS = "
                        f"{MAGNUS_MAX_STEPS} steps to meet MAGNUS_REL_TARGET = "
                        f"{MAGNUS_REL_TARGET} (error estimate {np.max(error):.3e} at "
                        f"{n} steps; work estimate {estimate:.4g} steps)")
                coarse, n = n, min(n << k, MAGNUS_MAX_STEPS)
                grid = _MagnusGrid(om, c0, c1, iv, n)
                fine, _ = grid.transfer()
                error = np.abs(fine - m).max(axis=(0, 1)) / ((n // coarse) ** 6 - 1.0)
                m = fine
                scale = np.abs(m).max(axis=(0, 1))
                tol = max(MAGNUS_REL_TARGET, n * _EPS / 63.0) * scale
                if (error <= tol).all():
                    # without a member axis (make_basis) the scalar max and sqrt cost less
                    top, sqrt = (np.maximum, np.sqrt) if grid.members else (max, math.sqrt)
                    w, span = sqrt(a_max), iv.span
                    envelope = top(top(scale, w), span / top(1.0, w * span))
                    return grid, m, top(error, 2.0 * n * _EPS * envelope)
                # sixth order: 2^k times the steps divide the error by 2^(6k)
                k = max(1, math.ceil(math.log2(np.max(error / tol)) / 6.0))
        except FloatingPointError:
            raise IntegrationError(
                f"the fundamental matrix overflows on [{iv.t_a}, {iv.t_b}] "
                f"at {n} Magnus steps") from None


def _family(profile: FrequencyProfile, c0, c1) -> list:
    """The members Omega_j^2 = c0_j + c1_j Omega^2 in groups whose work
    estimates on one coarse sampling have the same level, each doubled on its
    own from there: a list of (member indices, grid, M, error)."""
    iv, om = profile.interval, profile.omega_sq
    c0, c1 = np.asarray(c0, dtype=float), np.asarray(c1, dtype=float)
    a0 = _MagnusGrid(om, c0, c1, iv, MAGNUS_MIN_STEPS).samples()
    level = np.array([_work_estimate(a, iv)[1] for a in np.abs(a0).max(axis=(0, 1)).tolist()])
    return [(np.flatnonzero(k), *_magnus(om, c0[k], c1[k], iv, a0[..., k]))
            for k in (level == n for n in np.unique(level).tolist())]


@dataclass(frozen=True, eq=False)
class HomogeneousBasis:
    """A solution basis: its endpoint matrices Y_a, Y_b and its frame.

    frame(t) takes a time or a 1-D array of times and returns (Phi(t, t_a),
    Phi(t_b, t)), each of shape (2, 2) + t.shape.  Column j of Y(t) =
    Phi(t, t_a) Y_a holds solution j: row 0 its value, row 1 its slope.
    knots are the integrator's step times from t_a to t_b, each step at most
    1/MAGNUS_STEPS_PER_RADIAN radian of the solutions' phase; error_estimate
    and slope are the integrator's error estimate of M and dM/ds, if any.
    """

    frame: Callable[[object], tuple]
    y_a: np.ndarray
    y_b: np.ndarray
    profile: FrequencyProfile
    knots: np.ndarray
    error_estimate: Optional[float] = None
    slope: Optional[Callable] = None

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

    @cached_property
    def quadrature(self) -> tuple:
        """The Gauss rule on the steps between knots (_gauss_rule)."""
        return _gauss_rule(self.knots)


def make_basis(profile: FrequencyProfile, g: float = 1.0) -> HomogeneousBasis:
    """Canonical basis (eta, xi) from the sixth-order Magnus product.

    eta has (value, slope) = (0, 1) at t_a and xi has (1, 0), so M = Phi(t_b)
    and W = -1.  The frame is read from prefix and suffix products of the
    Magnus steps, formed on the first call; the slope forms neither.  Raises
    IntegrationError when the work estimate or the step doubling passes
    MAGNUS_MAX_STEPS, or when M overflows.
    """
    gg = float(g)
    if not math.isfinite(gg):
        raise ValueError("coupling g must be finite")
    om, iv = profile.omega_sq, profile.interval
    a0 = _MagnusGrid(om, 0.0, gg, iv, MAGNUS_MIN_STEPS).samples()
    grid, m, error = _magnus(om, 0.0, gg, iv, a0)
    basis = HomogeneousBasis(frame=_on_interval(grid.frame, iv), y_a=_CANONICAL_Y_A,
                             y_b=m @ _CANONICAL_Y_A, profile=profile, knots=grid.knots,
                             error_estimate=float(error), slope=grid.slope)
    # Y_a is its own inverse and W = -1, so Y_b adj(Y_a) / W is m exactly
    basis.__dict__["m"] = m
    return basis


def mix_basis(basis: HomogeneousBasis, matrix) -> HomogeneousBasis:
    """The basis Y C: column j of the result is sum_i C[i, j] times column i;
    the frame and the slope do not depend on the basis."""
    c = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("mixing matrix has a non-finite entry")
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
    satisfies p(t_b) = p(t_a) and p'(t_b) = p'(t_a) to SHOOTING_TOL, and
    newton_iterations counts the closed-form corrections it took, 0 or 1.
    knots are the integrator's step times from t_a to t_b and q_knots the
    phase at them, the solver's own step-end states.
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


def _integrate_ermakov(profile, omega0, start):
    """The DOP853 solution (dop853.solve) of (p, p', q) from start = (p_a,
    p'_a, 0) to DEFAULT_RTOL and DEFAULT_ATOL.  The solver module is compiled
    on the route's first use: a cold start without it skips that."""
    from .dop853 import solve

    return solve(profile.omega_sq, profile.interval, float(omega0), start,
                 DEFAULT_RTOL, DEFAULT_ATOL)


def _pinney_start(p_a, dp_a, end, omega0):
    """The periodic amplitude's start (p_a, p'_a) from one solve's start and
    end state (p_b, p'_b, q_b).  The solve's basis (p cos theta, p sin theta),
    theta = omega0 q, has Wronskian 1 and gives the monodromy M; the periodic
    amplitude's form [[p^2, p p'], [p p', p'^2 + p^-2]] at t_a is the one M
    leaves invariant (Pinney, Proc. AMS 1, 681, 1950; Lewis and Riesenfeld,
    J. Math. Phys. 10, 1458, 1969), so p_a^2 = 2|M12| / sqrt(4 - tr^2 M)
    and p_a p'_a = -sign(M12) (M11 - M22) / sqrt(4 - tr^2 M)."""
    p_b, dp_b, q_b = end
    s, c = math.sin(omega0 * q_b), math.cos(omega0 * q_b)
    m11, m12, m22 = p_b * (c / p_a - dp_a * s), p_a * p_b * s, p_a * (dp_b * s + c / p_b)
    trace = m11 + m22
    if not abs(trace) < 2.0:
        raise ShootingError(
            f"no periodic amplitude: |tr M| = {abs(trace):.4g} >= 2, the profile is "
            f"at a parametric resonance")
    root = math.sqrt((2.0 - trace) * (2.0 + trace))
    p = math.sqrt(2.0 * abs(m12) / root)
    return p, -math.copysign(1.0, m12) * (m11 - m22) / (root * p)


def solve_ermakov(profile: FrequencyProfile, omega0: float,
                  bc: str = "initial") -> ErmakovSolution:
    """Solve the amplitude-phase system for the profile.

    bc="initial" starts from p(t_a) = Omega(t_a)^(-1/2) (or 1 if Omega^2(t_a)
    is not positive) with p'(t_a) = 0.  bc="periodic" keeps that solve if
    its endpoint amplitude and slope match the start to SHOOTING_TOL, and
    otherwise solves once more from Pinney's closed form (_pinney_start),
    read from the first solve's own monodromy; newton_iterations counts
    these corrections, 0 or 1.  Raises ShootingError at a parametric
    resonance (|tr M| >= 2, where no periodic amplitude exists) or when the
    corrected solve misses SHOOTING_TOL.
    """
    if not 0.0 < omega0 < math.inf:
        raise ValueError(f"omega0 must be positive and finite, got {omega0}")
    if bc not in ("initial", "periodic"):
        raise ValueError(f"bc must be 'initial' or 'periodic', got {bc!r}")
    iv = profile.interval

    om_a = float(profile.omega_sq(np.array(iv.t_a)))
    p_a = om_a ** (-0.25) if om_a > 0.0 else 1.0
    dp_a = 0.0
    sol = _integrate_ermakov(profile, omega0, [p_a, dp_a, 0.0])
    corrections = 0

    def residual():
        p_b, dp_b = sol.ys[-1, :2]
        return max(abs(p_b - p_a), abs(dp_b - dp_a))

    if bc == "periodic" and residual() > SHOOTING_TOL * (1.0 + p_a):
        p_a, dp_a = _pinney_start(p_a, dp_a, sol.ys[-1], omega0)
        sol = _integrate_ermakov(profile, omega0, [p_a, dp_a, 0.0])
        corrections = 1
        if residual() > SHOOTING_TOL * (1.0 + p_a):
            raise ShootingError(
                f"the periodic amplitude from Pinney's closed form misses SHOOTING_TOL = "
                f"{SHOOTING_TOL} (residual {residual():.3e})")

    end = sol.ys[-1]
    return ErmakovSolution(
        state=_on_interval(sol, iv), omega0=float(omega0),
        p_a=p_a, p_b=float(end[0]), dp_a=dp_a, dp_b=float(end[1]),
        q_b=float(end[2]), profile=profile, periodic=(bc == "periodic"),
        knots=sol.ts, q_knots=sol.ys[:, 2],
        newton_iterations=corrections)
