"""Homogeneous solutions of h'' = -g*Omega^2(t)*h by the Magnus integrator.

A solution basis is one 2x2 fundamental matrix Y(t): its columns are two
independent solutions, its first row their values and its second row their
slopes.  Everything downstream reads the endpoint matrices Y_a = Y(t_a) and
Y_b = Y(t_b):

    W = det Y_a               the Wronskian, constant in t
    M = Y_b Y_a^{-1}          the transfer matrix Phi(t_b, t_a), det M = 1
    Phi(t) = Y(t) Y_a^{-1}    columns u, v start from (1, 0) and (0, 1) at t_a

M does not depend on the choice of basis.  make_basis takes M from the
eighth-order Magnus integrator of Blanes, Casas and Ros (BIT 40, 434, 2000;
review: Blanes, Casas, Oteo, Ros, Phys. Rep. 470, 151, 2009): the pairwise
product of n uniform steps, each exp of its Magnus exponent (a traceless
2x2 matrix) from Omega^2 at the four Gauss nodes of the quadrature below.
_solve integrates one operator c0 + c1 Omega^2 on Python floats (make_basis
is (0, g)), _family the members c0_j + c1_j Omega^2 on a trailing axis; both
return the grid, M, its error estimate and the coarsest level that meets the
target.  One Omega^2 call on the MAGNUS_MIN_STEPS coarse steps and the half
as many steps of twice their length feeds the work estimate and, at the
usual first level of 64 steps, both levels of the first step-doubling pair.

Dense output is one frame per time: one local Magnus step E from the knot
t_k before t gives both Phi(t, t_a) = E Phi(t_k, t_a) and Phi(t_b, t) =
Phi(t_b, t_k) adj(E), from prefix and suffix products formed on the first
dense call, which neither a determinant nor its slope dM/ds (step pairs
reduced pairwise as M is, _MagnusGrid.slope) pays for.  Integrals use the
same Gauss nodes (HomogeneousBasis.quadrature), at rounding level on the steps
of at most 1/4 radian that every basis below MAGNUS_MAX_STEPS has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from typing import Callable, Optional

import numpy as np

from .errors import IntegrationError
from .profiles import FrequencyProfile, Interval

# A work estimate on MAGNUS_MIN_STEPS coarse steps, MAGNUS_STEPS_PER_RADIAN steps
# per radian of w = max|g Omega^2|^(1/2), is refused above MAGNUS_MAX_STEPS.  The
# first level L is the power of two at or above 4 times it where Omega^2 varies
# on the coarse samples, else 2 times (every step integrates a constant Omega^2
# exactly; the Gauss rule below sets its steps), at most MAGNUS_MAX_STEPS and at
# least MAGNUS_MIN_STEPS.  One array pass forms the levels (L/2, L), and it
# usually meets the target; the coarse samples, taken in one call with the 32
# steps of 2h, are both levels at L = 64 (above it those 32 go unused).
# Doubling stops once |M_n - M_c| / (2^(8k) - 1), n = 2^k c, is at most
# MAGNUS_REL_TARGET max|M_ij|, or from 2^17 steps on n eps / 255 max|M_ij|
# (rounding alone moves an n-step product by about n eps), else n jumps by
# k = ceil(log2(error / target) / 8).
# The estimate reported is at least 2 n eps max(max|M_ij|, w, min(T, 1/w)), the
# rounding both levels share, which bounds the error against closed forms
# (constant Omega^2, w T from 0.01 to 1e5).  _magnus also returns the coarsest
# level known to meet the target: the coarse level c of the last comparison where
# every member's error (n/c)^8 <= tol and c is at least twice the work estimate
# (steps of at most 1/4 radian, on which the Gauss rule below holds), else n.
# Only the coupling flow's dF/ds reads c; M, the frames, make_basis's slope, the
# traces and the zero modes keep n and its digits.  MAGNUS_CHUNK steps or Gauss
# nodes x members per array keep memory flat.
MAGNUS_REL_TARGET = 1e-13
MAGNUS_STEPS_PER_RADIAN = 2.0
MAGNUS_MIN_STEPS = 64
MAGNUS_MAX_STEPS = 1 << 20
MAGNUS_CHUNK = 1 << 12

# Canonical basis (eta, xi): eta has (value, slope) = (0, 1) at t_a and xi has
# (1, 0), so W = eta*xi' - eta'*xi = -1.
_CANONICAL_Y_A = np.array([[0.0, 1.0], [1.0, 0.0]])
_CANONICAL_Y_A.setflags(write=False)  # shared by every canonical basis

# Gauss-Legendre rule on each Magnus step, whose nodes the step samples.  On steps
# of h sqrt|g Omega^2| <= 1/4, Omega^2 G integrated with four nodes agrees with a
# 16-node rule to 4.3e-13 of the integral of its modulus, as five to eight nodes
# do; three leave 1.9e-10 (constant omega T up to 300, Omega^2 = -k^2 with kT up
# to 60 and modulated profiles, all three conditions).  At 1/2 radian a step's
# rule misses exp(2 w t) by 5.4e-10 of it.  leggauss(4) to the last bit (importing
# numpy.polynomial costs 5 ms); the step kernel below is written for these nodes.
_GAUSS_X = np.array([-0.8611363115940526, -0.33998104358485626,
                     0.33998104358485626, 0.8611363115940526])
_GAUSS_W = np.array([0.34785484513745357, 0.6521451548625464,
                     0.6521451548625464, 0.34785484513745357])


def _gauss_rule(knots: np.ndarray) -> tuple:
    """Nodes and weights, step by step, of the Gauss rule with the four nodes
    of _GAUSS_X on each step between knots: the integral of f is weights @ f(nodes)."""
    half, mid = 0.5 * np.diff(knots)[:, None], 0.5 * (knots[1:] + knots[:-1])[:, None]
    return (mid + half * _GAUSS_X).ravel(), (half * _GAUSS_W).ravel()


# the steps of a pair of levels from knot 2k: fine 2k and 2k + 1 of h, coarse k of 2h
_PAIR_KNOTS, _PAIR_STEPS = np.array([[0.0], [1.0], [0.0]]), np.array([[1.0], [1.0], [2.0]])
_EPS = float(np.finfo(float).eps)


def _on_interval(fn: Callable, iv: Interval) -> Callable:
    """fn restricted to [t_a, t_b]: times within a relative 1e-9 of the ends
    are clipped onto the interval, times further out or NaN are an error."""
    lo, hi = iv.t_a - 1e-9 * iv.span, iv.t_b + 1e-9 * iv.span

    def restricted(t):
        tt = np.asarray(t, dtype=float)
        if not np.all((tt >= lo) & (tt <= hi)):  # NaN included
            raise ValueError(f"t = {t!r} outside solution domain [{iv.t_a}, {iv.t_b}]")
        return fn(np.clip(tt, iv.t_a, iv.t_b))

    return restricted


def _adjugate(y: np.ndarray) -> np.ndarray:
    """adj(Y) = det(Y) Y^{-1} for Y of shape (2, 2) or (2, 2, n)."""
    (a, b), (c, d) = y
    return np.array([[d, -b], [-c, a]])


# ---------------------------------------------------------------------------
# eighth-order Magnus steps for Y' = [[0, 1], [a(t), 0]] Y, a = -g Omega^2
#
# 2x2 matrices are (2, 2, ...) stacks over steps or times, multiplied by _product
# alone, and traceless ones are triples (p, q, r) for [[p, q], [r, -p]].
# A step samples a at its Gauss nodes, u_i h = x_i h / 2 from its midpoint; the
# cubic through the samples is sum_k C_k u^k, C = V^-1 a with V_ik = u_i^k, so
# C_k is a's k-th Taylor coefficient at the midpoint times h^k.  Truncating the
# logarithm of the cubic's exact step at O(h^9) gives Omega = (p, q, r), b = h^2 C:
#   p   = -(b1/12 + b3/80) + b0 b1/180 + b0 b3/1680 + 13 b1 b2/15120 - b0^2 b1/1890
#   q/h = 1 - b2/180 + b0 b2/1890 + b1^2/7560
#   r h = b0 + b2/12 + b0 b2/180 - b1^2/120 - b1 b3/420 + b2^2/3024
#         + b0 b1^2/1080 - b0^2 b2/1890
# that is (p, q/h - 1, r h) = b1 (X1, B1, X3) + b2 (0, Z, X2) + (b0 Y, 0, 0) + leads in
# the forms _FORMS, whose X1 and X2 lose b0 Z and X3 gains b1 b0/1080 (cubic terms).
_TAYLOR = np.linalg.inv(np.vander(0.5 * _GAUSS_X, 4, increasing=True))
_FORMS = np.array([  # rows b0, b1, b2; X1, B1, X3; Z, X2, Y; minus the leads; b0/1080
    [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
    [1 / 180, 0, 13 / 15120, 0], [0, 1 / 7560, 0, 0], [0, -1 / 120, 0, -1 / 420],
    [1 / 1890, 0, 0, 0], [1 / 180, 0, 1 / 3024, 0], [0, 0, 0, 1 / 1680],
    [0, 1 / 12, 0, 1 / 80], [0, 0, 1 / 180, 0], [-1, 0, -1 / 12, 0], [1 / 1080, 0, 0, 0],
]) @ _TAYLOR


def _step_matrices(a: np.ndarray, h) -> np.ndarray:
    """exp(Omega), a (2, 2, m) + members view of the entries it fills, of the
    Magnus steps of length h whose four Gauss nodes carry a = -g Omega^2 of
    shape (4, m) + members; h is a float or broadcasts against (m,) + members.

    One matrix product gives every form; the small terms are summed before
    each lead is added (added one by one they would bias q and r).  Omega^2 =
    s I with s = -det Omega, so exp(Omega) = cosh(sqrt s) I + sinh(sqrt s) /
    sqrt s Omega, with cos and sin for s < 0.
    """
    shape = a.shape[1:]
    forms, a = (_FORMS, a * (h * h)) if isinstance(h, np.ndarray) else (_FORMS * (h * h), a)
    f = np.dot(forms, a.reshape(4, -1)).reshape((13,) + shape)
    b0, b1, b2 = f[:3]
    f[3:8:4] -= b0 * f[6]
    f[5] += b1 * f[12]
    e = np.empty((4,) + shape)
    p, q, r = terms = np.multiply(b1, f[3:6], out=e[:3])
    terms[1:] += b2 * f[6:8]
    p += b0 * f[8]
    terms -= f[9:12]
    q *= h
    q += h
    # a frame time on a knot takes a step of h = 0, whose r h is 0
    np.divide(r, h, out=r, where=h != 0.0)
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
    terms *= sn / x if x.all() else np.divide(sn, x, out=np.ones_like(x), where=x != 0.0)
    np.subtract(cc, p, out=e[3])
    p += cc
    return e.reshape((2, 2) + shape)


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
    reverse=True suffix products s_k = e[m-1] ... e[k] (s_m = I), of the steps
    e, (2, 2, m) + members, along axis 2 by log2(m) passes of _product."""
    p, d = np.array(e), 1
    while d < p.shape[2]:
        later, earlier = p[:, :, d:], p[:, :, :-d]
        (earlier if reverse else later)[...] = _product(later, earlier)
        d *= 2
    one = np.broadcast_to(np.eye(2).reshape((2, 2) + (1,) * (p.ndim - 2)), p[:, :, :1].shape)
    return np.concatenate([p, one] if reverse else [one, p], axis=2)


class _MagnusGrid:
    """n uniform Magnus steps of Y' = [[0, 1], [-(c0 + c1 Omega^2), 0]] Y on
    an interval: the transfer matrix and dense evaluation, for each member
    (c0, c1) along a trailing axis, or without it for scalar c0 and c1."""

    def __init__(self, omega_sq: Callable, c0, c1, iv: Interval, n: int):
        self.omega_sq, self.iv, self.n, self.h = omega_sq, iv, n, iv.span / n
        self.c0, self.c1, self.members = c0, c1, c1.shape if isinstance(c1, np.ndarray) else ()

    def samples(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """a = -(c0 + c1 Omega^2) on the fine steps lo..hi (all n by default)
        and on the coarse steps of 2h over them, from one sample call, as the
        step kernel of pair takes them: shape (4, 3, (hi - lo)/2) + members,
        a on the fine steps 2k and 2k + 1, then 4a on the coarse step k (a
        step of 2h on a is S E S^-1 for the step E of h on 4a, S = diag(1,
        1/2): powers of two scale bit for bit)."""
        k = np.arange(lo, self.n if hi is None else hi, 2.0) + _PAIR_KNOTS
        a = self.sample(k * self.h + self.iv.t_a, self.h * _PAIR_STEPS)
        a[:, 2] *= 4.0
        return a

    def starts(self, lo: int, hi: int) -> np.ndarray:
        """The knots t_a + k h, k = lo..hi-1."""
        return np.arange(lo, hi, dtype=float) * self.h + self.iv.t_a

    @cached_property
    def knots(self) -> np.ndarray:
        knots = self.starts(0, self.n + 1)
        knots[-1] = self.iv.t_b
        return knots

    def sample(self, starts: np.ndarray, h) -> np.ndarray:
        """-(c0 + c1 Omega^2) at the four Gauss nodes of the steps of length h
        from starts, from one array call, shape (4,) + starts.shape + members."""
        x, half = (_GAUSS_X[:, None] if starts.ndim == 1 else _GAUSS_X[:, None, None]), 0.5 * h
        om = np.asarray(self.omega_sq((starts + half) + half * x), dtype=float)
        a = np.multiply.outer(om, -self.c1) if self.members else -self.c1 * om
        if self.members or self.c0:  # make_basis has c0 = 0
            a -= self.c0
        if not np.isfinite(a).all():
            raise IntegrationError("Omega^2 is not finite on the interval")
        return a

    def _runs(self, per: float = 1.0, least: int = 1):
        """(lo, hi) of runs of 2^j >= least steps, of at most MAGNUS_CHUNK steps
        x members x per where least allows."""
        fit = int(MAGNUS_CHUNK / (per * math.prod(self.members)))
        chunk = max(least, 1 << max(0, fit.bit_length() - 1))
        return [(lo, min(self.n, lo + chunk)) for lo in range(0, self.n, chunk)]

    def transfer(self) -> np.ndarray:
        """M = Phi(t_b, t_a), shape (2, 2) + members, the runs' products
        reduced pairwise as the steps of one run are."""
        runs = []
        for lo, hi in self._runs():
            a = self.sample(self.starts(lo, hi), self.h)
            runs.append(_reduce_pairs(_step_matrices(a, self.h)))
        return runs[0] if len(runs) == 1 else _reduce_pairs(np.stack(runs, axis=2))

    def pair(self, a0=None) -> tuple:
        """M on n/2 and on n steps, each of shape (2, 2) + members, in one pass
        over runs of 2^j fine steps and their coarse ones (MAGNUS_CHUNK steps x
        members): one sample call (none if a0, the grid's samples(), is
        given), one _step_matrices call and one reduction; and max|a| of the
        n if it samples, else None."""
        runs, top = [], None
        for lo, hi in self._runs(1.5, least=2):
            a = self.samples(lo, hi) if a0 is None else a0[:, :, lo // 2:hi // 2]
            if a0 is None:
                top = np.maximum(0.0 if top is None else top, np.abs(a[:, :2]).max(axis=(0, 1, 2)))
            x = _step_matrices(a, self.h)
            x[:, :, 1] = _product(x[:, :, 1], x[:, :, 0])
            runs.append(_reduce_pairs(x[:, :, 1:], axis=3))
        acc = runs[0] if len(runs) == 1 else _reduce_pairs(np.stack(runs, axis=3), axis=3)
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
        per, pairs, tail = _GAUSS_X.size, [], (1,) * len(self.members)
        for lo, hi in self._runs(per):  # at most MAGNUS_CHUNK nodes x members
            m, starts = hi - lo, self.knots[lo:hi]
            # node by node over the run's steps, shape (per, m), members last
            nodes, w = (x.reshape(m, per).T for x in _gauss_rule(self.knots[lo:hi + 1]))
            wt = w if weight is None else (np.transpose(weight(nodes)) * w.T).T
            wt = wt.reshape((per, m) + (tail if wt.ndim == 2 else self.members))
            h = np.concatenate([np.full(m, self.h), (nodes - starts).ravel()])
            e = _step_matrices(self.sample(np.tile(starts, 1 + per), h), h.reshape((-1,) + tail))
            e = e.reshape((2, 2, 1 + per, m) + self.members)
            # of e_i only the first row enters: sum_i w_i adj(e_i) E21 e_i = J G,
            # J = [[0, -1], [1, 0]] and G = sum_i w_i e_i[0]^T e_i[0]
            first, step = e[0, :, 1:], e[:, :, 0]
            gram = ((wt * first)[:, None] * first).sum(axis=2)
            pairs.append(_reduce_pairs(np.concatenate(
                [step, _product(step, np.stack([-gram[1], gram[0]]))], axis=1)))
        return -_reduce_pairs(np.stack(pairs, axis=2))[:, 2:]

    @cached_property
    def _products(self):
        """Prefix products Phi(t_k, t_a) and suffix products Phi(t_b, t_k)
        at the knots, k = 0..n, along axis 2."""
        e = np.concatenate([_step_matrices(self.sample(self.starts(lo, hi), self.h), self.h)
                            for lo, hi in self._runs()], axis=2)
        return _scan(e), _scan(e, reverse=True)

    def frame(self, t) -> tuple:
        """(Phi(t, t_a), Phi(t_b, t)) = (E Phi(t_k, t_a), Phi(t_b, t_k) E^{-1}),
        where t_k is the knot before t and E the Magnus step from t_k to t,
        whose inverse is its adjugate; each of shape (2, 2) + t.shape +
        members; take gathers the knots' products as contiguous stacks."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        k = np.clip(np.floor((flat - self.iv.t_a) / self.h), 0, self.n).astype(np.intp)
        tau = flat - self.knots[k]
        h = tau.reshape((-1,) + (1,) * len(self.members))
        e = _step_matrices(self.sample(self.knots[k], tau), h)
        pre, suf = self._products
        shape = (2, 2) + t.shape + self.members
        return (_product(e, pre.take(k, axis=2)).reshape(shape),
                _product(suf.take(k, axis=2), _adjugate(e)).reshape(shape))


def _work_estimate(a0: np.ndarray, iv: Interval, peaks=None) -> tuple:
    """The work estimates, MAGNUS_STEPS_PER_RADIAN steps per radian of the
    largest frequency of each member sampled as a0 (samples() on the
    MAGNUS_MIN_STEPS coarse steps, of which it reads the fine rows) or of
    peaks, their largest |a| sampled since; the members' first levels (see
    the MAGNUS_* constants) and their largest |a|: three lists, one entry
    per member.  One member (no member axis) takes its extremes as floats."""
    fine = a0[:, :2]
    if a0.ndim > 3:
        lo, hi = fine.min(axis=(0, 1, 2)), fine.max(axis=(0, 1, 2))
        peaks = np.ravel(np.maximum(hi, -lo) if peaks is None else peaks).tolist()
        varies = (lo < hi).tolist()
    else:
        lo, hi = float(fine.min()), float(fine.max())
        peaks, varies = [max(hi, -lo) if peaks is None else float(peaks)], [lo < hi]
    steps = [MAGNUS_STEPS_PER_RADIAN * math.sqrt(a) * iv.span for a in peaks]
    if max(steps) > MAGNUS_MAX_STEPS:
        raise IntegrationError(
            f"work estimate of {max(steps):.4g} Magnus steps "
            f"(MAGNUS_STEPS_PER_RADIAN = {MAGNUS_STEPS_PER_RADIAN} per radian "
            f"of max|g Omega^2|^(1/2) over T = {iv.span}) exceeds "
            f"MAGNUS_MAX_STEPS = {MAGNUS_MAX_STEPS}")
    return steps, [1 << math.ceil(math.log2(max(
        min((4.0 if v else 2.0) * n, MAGNUS_MAX_STEPS), MAGNUS_MIN_STEPS)))
        for n, v in zip(steps, varies)], peaks


def _magnus(grid: _MagnusGrid, a0: np.ndarray, work: tuple) -> tuple:
    """The Magnus grid, M, the error estimates of M's entries and the
    coarsest level known to meet the target (see the MAGNUS_* constants) of
    the members of grid, on MAGNUS_MIN_STEPS steps and sampled as a0 =
    grid.samples(), whose _work_estimate is work, refined to MAGNUS_REL_TARGET
    from the first pair of levels (L/2, L), L the members' largest first level."""
    om, c0, c1, iv = grid.omega_sq, grid.c0, grid.c1, grid.iv
    n, m = MAGNUS_MIN_STEPS, None
    steps, levels, peaks = work
    with np.errstate(over="raise", invalid="raise"):
        try:
            # a finer level can sample a larger |Omega^2|: above MAGNUS_MIN_STEPS
            # the first level's samples are new and check the estimate again
            while m is None or n < max(steps):
                n = max(levels)
                coarse = n // 2
                if n != grid.n:
                    grid = _MagnusGrid(om, c0, c1, iv, n)
                m_coarse, m, sampled = grid.pair(a0 if n == MAGNUS_MIN_STEPS else None)
                if sampled is not None:
                    steps, levels, peaks = _work_estimate(a0, iv, sampled)
            estimate = max(steps)
            # without a member axis (_solve) Python's scalars cost less
            if grid.members:
                top, sqrt, largest = np.maximum, np.sqrt, lambda x: np.abs(x).max(axis=(0, 1))
                every, worst, a_max = np.all, np.max, np.array(peaks)
            else:
                top, sqrt, largest = max, math.sqrt, lambda x: max(map(abs, x.ravel().tolist()))
                every, worst, (a_max,) = bool, float, peaks
            while True:
                error = largest(m - m_coarse) / ((n // coarse) ** 8 - 1.0)
                scale = largest(m)
                tol = max(MAGNUS_REL_TARGET, n * _EPS / 255.0) * scale
                if every(error <= tol):
                    fits = 2.0 * estimate <= coarse and every(error * (n // coarse) ** 8 <= tol)
                    w, span = sqrt(a_max), iv.span
                    envelope = top(top(scale, w), span / top(1.0, w * span))
                    return grid, m, top(error, 2.0 * n * _EPS * envelope), coarse if fits else n
                if 2 * n > MAGNUS_MAX_STEPS:
                    raise IntegrationError(
                        f"Magnus step doubling needs more than MAGNUS_MAX_STEPS = "
                        f"{MAGNUS_MAX_STEPS} steps to meet MAGNUS_REL_TARGET = "
                        f"{MAGNUS_REL_TARGET} (error estimate {np.max(error):.3e} at "
                        f"{n} steps; work estimate {estimate:.4g} steps)")
                # eighth order: 2^k times the steps divide the error by 2^(8k)
                k = math.ceil(math.log2(worst(error / tol)) / 8.0)
                coarse, n = n, min(n << k, MAGNUS_MAX_STEPS)
                grid = _MagnusGrid(om, c0, c1, iv, n)
                m_coarse, m = m, grid.transfer()
        except FloatingPointError:
            raise IntegrationError(
                f"the fundamental matrix overflows on [{iv.t_a}, {iv.t_b}] "
                f"at {n} Magnus steps") from None


def _solve(profile: FrequencyProfile, c0: float, c1: float) -> tuple:
    """The one operator -d^2/dt^2 - (c0 + c1 Omega^2), on Python floats (no
    member axis): _magnus's (grid, M, error estimate, coarsest level)."""
    iv = profile.interval
    grid = _MagnusGrid(profile.omega_sq, c0, c1, iv, MAGNUS_MIN_STEPS)
    a0 = grid.samples()
    return _magnus(grid, a0, _work_estimate(a0, iv))


def _family(profile: FrequencyProfile, c0, c1) -> list:
    """The members Omega_j^2 = c0_j + c1_j Omega^2 in groups whose work
    estimates on one coarse sampling have the same first level, each doubled
    on its own from there with its members' part of that one estimate: a list
    of (member indices, grid, M, error, coarsest level), as _magnus returns."""
    iv, om = profile.interval, profile.omega_sq
    c0, c1 = np.asarray(c0, dtype=float), np.asarray(c1, dtype=float)
    a0 = _MagnusGrid(om, c0, c1, iv, MAGNUS_MIN_STEPS).samples()
    work = _work_estimate(a0, iv)
    level = np.array(work[1])
    return [(np.flatnonzero(k), *_magnus(_MagnusGrid(om, c0[k], c1[k], iv, MAGNUS_MIN_STEPS),
                                         a0[..., k], [list(compress(x, k)) for x in work]))
            for k in (level == n for n in sorted(set(work[1])))]


@dataclass(frozen=True, eq=False)
class HomogeneousBasis:
    """A solution basis: its endpoint matrices Y_a, Y_b and its frame.

    frame(t) takes a time or a 1-D array of times and returns (Phi(t, t_a),
    Phi(t_b, t)), each of shape (2, 2) + t.shape.  Column j of Y(t) =
    Phi(t, t_a) Y_a holds solution j: row 0 its value, row 1 its slope.
    m is the transfer matrix M = Y_b adj(Y_a) / W.  knots are the
    integrator's step times from t_a to t_b, each step at most
    1/MAGNUS_STEPS_PER_RADIAN radian of the solutions' phase; error_estimate
    and slope are the integrator's error estimate of M and dM/ds, if any.
    """

    frame: Callable[[object], tuple]
    y_a: np.ndarray
    y_b: np.ndarray
    m: np.ndarray
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
    """Canonical basis (eta, xi) from the eighth-order Magnus product.

    eta has (value, slope) = (0, 1) at t_a and xi has (1, 0), so M = Phi(t_b)
    and W = -1.  The frame is read from prefix and suffix products of the
    Magnus steps, formed on the first call; the slope forms neither.  Raises
    IntegrationError when the work estimate or the step doubling passes
    MAGNUS_MAX_STEPS, or when M overflows.
    """
    gg = float(g)
    if not math.isfinite(gg):
        raise ValueError("coupling g must be finite")
    grid, m, error, _ = _solve(profile, 0.0, gg)
    # Y_a is its own inverse and W = -1, so Y_b adj(Y_a) / W is m exactly
    return HomogeneousBasis(frame=_on_interval(grid.frame, profile.interval), y_a=_CANONICAL_Y_A,
                            y_b=m @ _CANONICAL_Y_A, m=m, profile=profile, knots=grid.knots,
                            error_estimate=error, slope=grid.slope)


def _mix_basis(basis: HomogeneousBasis, matrix) -> HomogeneousBasis:
    """The basis Y C: column j of the result is sum_i C[i, j] times column i,
    and M = Y_b adj(Y_a) / W of its endpoint matrices; the frame and the
    slope do not depend on the basis."""
    c = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("mixing matrix has a non-finite entry")
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    scale = float(np.max(np.abs(c)))
    if abs(det) <= 1e-14 * scale * scale:
        raise ValueError("mixing matrix is singular")
    y_a, y_b = basis.y_a @ c, basis.y_b @ c
    (p, q), (r, s) = y_a  # W = det Y_a as HomogeneousBasis.w forms it
    return replace(basis, y_a=y_a, y_b=y_b, m=y_b @ _adjugate(y_a) / float(p * s - q * r))


def __getattr__(name):
    """solve_ermakov of the amplitude-phase route (ermakov.py), loaded on first use."""
    if name != "solve_ermakov":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .ermakov import solve_ermakov
    return solve_ermakov
