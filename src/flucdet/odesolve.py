"""Homogeneous solutions of h'' = -g*Omega^2(t)*h by the Magnus integrator.

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
M is the pairwise product of the n step matrices.  A work estimate sets a
level L; one array pass forms the first pair of levels (L/2, L), or (64,
128) from the 64 coarse samples when L <= 128, and from there n jumps to the
level 2^k n that the sixth-order error estimate predicts until two levels
agree to MAGNUS_REL_TARGET, accepting no level below 2L.  It solves
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import IntegrationError
from .profiles import FrequencyProfile, Interval

# Magnus step doubling stops once the error estimate |M_n - M_c| / (2^(6k) - 1)
# of the finer level n = 2^k c is at most MAGNUS_REL_TARGET times its largest
# entry, or, from 2^15 steps on, n eps / 63 times it: two n-step products
# differ by up to about n eps from rounding alone.  The first pair has k = 1;
# a pair that misses jumps by the k that divides its error below the target,
# k = ceil(log2(error / target) / 6), and a pair below twice the work
# estimate's level goes on by k = 1 where it meets it.  Rounding both levels
# share is invisible to the doubling, so the reported estimate is at least
# 2 n eps times the envelope max(max|M_ij|, w, min(T, 1/w)), w = max|g
# Omega^2|^(1/2), which bounds the error of M against closed forms (constant
# Omega^2, w T from 0.01 to 1e5).  The work estimate's level has at least
# MAGNUS_STEPS_PER_RADIAN steps per radian of w, never fewer than
# MAGNUS_MIN_STEPS; a level above MAGNUS_MAX_STEPS is refused.  MAGNUS_CHUNK
# steps or Gauss nodes x members per array keep memory flat.
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
# leggauss(GAUSS_NODES_PER_STEP) to the last bit: importing numpy.polynomial costs 5 ms
_GAUSS_X = np.array([-0.8611363115940526, -0.33998104358485626,
                     0.33998104358485626, 0.8611363115940526])
_GAUSS_W = np.array([0.34785484513745357, 0.6521451548625464,
                     0.6521451548625464, 0.34785484513745357])


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
    A2 and A3 have only a lower-left entry, so with d = a3 - a1,
    e = a3 - 2 a2 + a1, k = sqrt(15) / 3, u = h^5 d^2 / 2160 and
    v = h^3 e / 54, Omega = (p, q, r) is
        p = k h^2 d (h^2 (4/3 a2 + e/9) - 20) / 240,
        q = h + h^3 (h^2 d^2 - 40 e) / 2160 = h + (u - v),
        r = a2 (h + (u + v)) + e (5/18 h + h^3/324 e) - h^3/72 d^2,
    each power of h folded into a coefficient and the small terms summed
    before h is added (added one by one, they bias q and r by 0.14 ulp a
    step).  Omega^2 = s I with s = -det Omega, hence exp(Omega) = cosh(sqrt s)
    I + sinh(sqrt s) / sqrt s Omega, with cos and sin for s < 0.
    """
    a1, a2, a3 = a
    h2 = h * h
    h3 = h2 * h
    d = a3 - a1
    e = a3 - 2.0 * a2 + a1
    dd = d * d
    k = math.sqrt(15.0) / 3.0
    p = d * ((k / 180.0 * h2 * h2) * (a2 + e / 12.0) - k / 12.0 * h2)
    u, v = (h3 * h2 / 2160.0) * dd, (h3 / 54.0) * e
    q = h + (u - v)
    r = a2 * (h + (u + v)) + (e * (5.0 / 18.0 * h + (h3 / 324.0) * e) - (h3 / 72.0) * dd)
    s = p * p
    s += q * r
    x = np.sqrt(np.abs(s))
    grow = s > 0.0
    n_grow = np.count_nonzero(grow)
    if n_grow == grow.size:
        cc, sn = np.cosh(x), np.sinh(x)
    elif not n_grow:
        cc, sn = np.cos(x), np.sin(x)
    else:
        xg = np.where(grow, x, 0.0)  # keep cosh and sinh off the unused branch
        cc, sn = np.where(grow, np.cosh(xg), np.cos(x)), np.where(grow, np.sinh(xg), np.sin(x))
    sc = np.divide(sn, x, out=np.ones_like(x), where=x != 0.0)
    p *= sc
    q *= sc
    r *= sc
    return (cc + p, q, r, cc - p)


def _product(b, a):
    """b @ a for b of shape (2, 2) and a of shape (2, c), both + trailing axes,
    which broadcast: a constant matrix times a stack of them, or the reverse."""
    return np.einsum("ij...,jk...->ik...", b, a)


def _reduce_pairs(x, axis: int = 2):
    """The ordered product E = E[m-1] ... E[0] of m steps along an axis of x
    of shape (2, 2, ...) (axis 2 by default), m a power of two, by pairwise
    products; with x of shape (2, 4, ...) the pair [E | D] from theirs:
    (E_b, D_b) o (E_a, D_a) = (E_b E_a, E_b D_a + D_b E_a)."""
    lead = (slice(None),) * axis
    while x.shape[axis] > 1:
        b, a = x[lead + (slice(1, None, 2),)], x[lead + (slice(0, None, 2),)]
        x = _product(b[:, :2], a)
        if x.shape[1] > 2:
            x[:, 2:] += _product(b[:, 2:], a[:, :2])
    return x[lead + (0,)]


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
        nodes = _MAGNUS_NODES if starts.ndim == 1 else _MAGNUS_NODES[..., None]
        om = np.asarray(self.omega_sq(starts + nodes * h), dtype=float)
        a = np.multiply.outer(om, -self.c1) if self.members else -self.c1 * om
        if self.members or self.c0:  # make_basis has c0 = 0
            a -= self.c0
        if not np.all(np.isfinite(a)):
            raise IntegrationError("Omega^2 is not finite on the interval")
        return a

    def _runs(self, per: float = 1.0, least: int = 1):
        """(lo, hi) of runs of 2^j >= least steps, of at most MAGNUS_CHUNK steps
        x members x per where least allows."""
        fit = int(MAGNUS_CHUNK / (per * math.prod(self.members)))
        chunk = max(least, 1 << max(0, fit.bit_length() - 1))
        return [(lo, min(self.n, lo + chunk)) for lo in range(0, self.n, chunk)]

    def transfer(self) -> np.ndarray:
        """M = Phi(t_b, t_a), shape (2, 2) + members."""
        acc = None
        for lo, hi in self._runs():
            a = self.sample(self.starts(lo, hi), self.h)
            e = _reduce_pairs(np.reshape(_step_matrices(a, self.h), (2, 2) + a.shape[1:]))
            acc = e if acc is None else _product(e, acc)
        return acc

    def pair(self, a0=None, peak: bool = False) -> tuple:
        """M on n/2 and on n steps, each of shape (2, 2) + members, in one
        pass: one sample call on both levels' Gauss nodes (the n/2 steps'
        are a0 if given), one _step_matrices call and one reduction of both;
        with peak, also the largest sampled |c0 + c1 Omega^2| of the n steps.
        A run of 2^j fine steps and its coarse ones is at most MAGNUS_CHUNK
        steps x members."""
        acc, top = None, None
        h = np.array([[self.h], [self.h], [2.0 * self.h]])  # fine steps 2k, 2k + 1, coarse k
        for lo, hi in self._runs(1.5, least=2):
            starts = self.starts(lo, hi).reshape(-1, 2).T
            a = self.sample(starts[[0, 1, 0]], h) if a0 is None else np.concatenate(
                [self.sample(starts, h[:2]), a0[:, None, lo // 2:hi // 2]], axis=1)
            if peak:
                top = np.maximum(0.0 if top is None else top, np.abs(a[:, :2]).max(axis=(0, 1, 2)))
            # a step of 2h on samples a is S E S^-1 for the step E of h on 4a,
            # S = diag(1, 1/2): powers of two scale bit for bit
            a[:, 2] *= 4.0
            x = np.reshape(_step_matrices(a, self.h), (2, 2) + a.shape[1:])
            x[:, :, 1] = _product(x[:, :, 1], x[:, :, 0])
            e = _reduce_pairs(x[:, :, 1:], axis=3)
            acc = e if acc is None else _product(e, acc)
        coarse = acc[:, :, 1]  # S M S^-1 from the product of the steps on 4a
        coarse[0, 1] *= 2.0
        coarse[1, 0] *= 0.5
        return coarse, acc[:, :, 0], top

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
    (c0, c1) sampled as a0 on MAGNUS_MIN_STEPS steps, refined to MAGNUS_REL_TARGET
    from the first pair (c, 2c) in one pass, c = max(L/2, MAGNUS_MIN_STEPS) for
    the work estimate's level L; no level below 2L is accepted."""
    n, m, a_max = MAGNUS_MIN_STEPS, None, np.abs(a0).max(axis=(0, 1))
    estimate, level = _work_estimate(float(a_max.max()), iv)
    with np.errstate(over="raise", invalid="raise"):
        try:
            # a finer level can sample a larger |Omega^2|, so the estimate
            # is checked again on every level it sets
            while m is None or n < estimate:
                coarse = max(level // 2, MAGNUS_MIN_STEPS)
                n, floor = 2 * coarse, 2 * level
                grid = _MagnusGrid(om, c0, c1, iv, n)
                # above MAGNUS_MIN_STEPS the fine level is L, whose samples check L again
                m_coarse, m, sampled = grid.pair(a0 if coarse == MAGNUS_MIN_STEPS else None,
                                                 peak=coarse < level)
                if sampled is not None:
                    a_max = sampled
                    estimate, level = _work_estimate(float(a_max.max()), iv)
            # without a member axis (make_basis) Python's scalar max, abs, sqrt and
            # comparisons cost less
            if grid.members:
                top, sqrt, largest = np.maximum, np.sqrt, lambda x: np.abs(x).max(axis=(0, 1))
                every, worst = np.all, np.max
            else:
                top, sqrt, largest = max, math.sqrt, lambda x: max(map(abs, x.ravel().tolist()))
                every, worst = bool, float
            while True:
                error = largest(m - m_coarse) / ((n // coarse) ** 6 - 1.0)
                scale = largest(m)
                tol = max(MAGNUS_REL_TARGET, n * _EPS / 63.0) * scale
                met = every(error <= tol)
                if met and n >= floor:
                    w, span = sqrt(a_max), iv.span
                    envelope = top(top(scale, w), span / top(1.0, w * span))
                    return grid, m, top(error, 2.0 * n * _EPS * envelope)
                if 2 * n > MAGNUS_MAX_STEPS:
                    raise IntegrationError(
                        f"Magnus step doubling needs more than MAGNUS_MAX_STEPS = "
                        f"{MAGNUS_MAX_STEPS} steps to meet MAGNUS_REL_TARGET = "
                        f"{MAGNUS_REL_TARGET} (error estimate {np.max(error):.3e} at "
                        f"{n} steps; work estimate {estimate:.4g} steps)")
                # sixth order: 2^k times the steps divide the error by 2^(6k)
                k = 1 if met else max(1, math.ceil(math.log2(worst(error / tol)) / 6.0))
                coarse, n = n, min(n << k, MAGNUS_MAX_STEPS)
                grid = _MagnusGrid(om, c0, c1, iv, n)
                m_coarse, m = m, grid.transfer()
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
            for k in (level == n for n in sorted(set(level.tolist())))]


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
        return _product(self.phi(t), self.y_a)

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


def __getattr__(name):
    """solve_ermakov of the amplitude-phase route (ermakov.py), loaded on first use."""
    if name != "solve_ermakov":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .ermakov import solve_ermakov
    return solve_ermakov
