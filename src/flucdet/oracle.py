"""Brute-force verification paths independent of the endpoint construction.

Two oracles live here.  The lattice oracle discretizes the operator by
Numerov's fourth-order scheme, N = T' C: C = diag(c_k), c_k = 1 + q_k / 12
with q_k = h^2 Omega^2(t_k), and T' tridiagonal (bordered for the wrapped
conditions) with off-diagonals -1 and diagonal 2 - q_k / c_k.  Everything is
read from O(n) LDL^T sweeps of T' - mu W, W = C^-2, the pencil whose shift
in mu is, to first order, that of T' in h^2 lambda: the log-determinant and
its sign from the pivots, Sturm counts of the pencil's eigenvalues below a
shift from the pivot signs, and the derivative of the log-determinant in
the shift, which gives the determinant with one zero mode removed (Kirsten
and McKane, Ann. Phys. 308, 502, 2003) without computing a spectrum.  One
pivot loop (_pivots) is the only loop over a lattice's rows.  lattice_ratio
reads its determinant and its zero verdict from one sweep: a few numpy
passes over its pivots certify that no eigenvalue lies within
LATTICE_ZERO_TOL of zero (_certified, whose docstring holds the proof), and
only a lattice they cannot certify sweeps twice more for the two Sturm
counts of _window.  lattice_ratio keeps its last read that passed the
verdict, its lattice and determinant, per profile object; every oracle keeps
the closed-form reference spectra of the 8 last read.  Dirichlet reads
M12 as h det T' times the boundary factor c_1 (1 - (q_0 + q_1) / 12) /
c_{n+1}, which starts the recurrence at the solution's value at t_a + h to
O(h^5); the wrapped conditions read 2 -+ tr M as det T'.  Ratios are taken
over the constant reference lattice of the same size, whose spectrum is a
closed form.  The flow oracle integrates the Green-function trace along a
family of operators connecting the reference to the target, by a
Gauss-Legendre rule that Newton's method finds, and exponentiates; the
family is one batched Magnus family per step-count group, and each member's
trace Tr[(Omega^2 - omega0^2) G_s] is read as -dF_s/ds / F_s.  F_s and the
zero verdict read M on the group's accepted grid; dF_s/ds, the exact slope
of the determinant (green._det_slope), is read on the coarsest level that
already meets the Magnus target with steps of at most 1/4 radian, which the
family returns with each group: often half its steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DegenerateOperatorError, IntegrationError
from .green import (_det_slope, _omega0, _read_transfer, _refuse_degenerate, _sigma,
                    free_reference, reference_determinant)
from .odesolve import _family, _MagnusGrid, _solve
from .profiles import FrequencyProfile

# Zero-mode windows of the lattice pencil, relative to the Gershgorin bound
# of its spectrum: lattice_ratio refuses an eigenvalue within
# LATTICE_ZERO_TOL of zero, pseudo_det_ratio needs exactly one within
# PSEUDO_ZERO_TOL.
LATTICE_ZERO_TOL = 1e-10
PSEUDO_ZERO_TOL = 1e-8
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class _LatticeOperator:
    """Numerov discretization N = T' C in the scaled (h^2 K) convention: the
    gaps g_k = q_k / c_k of T', whose diagonal is 2 - g_k, the pencil weight
    w_k = 1/c_k^2, the corner entry of T' (0 for Dirichlet) and the Dirichlet
    boundary factor (1 when wrapped).  The gaps are stored, not the
    diagonal: 2 - g_k would round g_k to eps relative to 2."""

    bc: str
    mesh_size: int
    step: float
    gap: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    corner: float
    boundary: float

    @property
    def diag(self) -> np.ndarray:
        return 2.0 - self.gap


def _build_lattice(profile: FrequencyProfile, bc: str, n: int) -> _LatticeOperator:
    """Discretize -d^2/dt^2 - Omega^2 on n mesh points by Numerov's scheme.

    Dirichlet uses the n interior points of an (n+1)-step mesh; the samples
    at t_a and t_b set its boundary factor.  The wrapped conditions use n
    points starting at t_a with the last step folding back, and the fold
    node uses the average of Omega^2 at the two interval ends, which keeps
    profiles that are not exactly interval-periodic at second order.
    """
    sigma = _sigma(bc)
    if not float(n).is_integer():
        raise ValueError(f"mesh size n must be a finite integer, got {n!r}")
    n = int(n)
    if n < 16:
        raise ValueError(f"mesh size must be at least 16, got {n}")
    iv = profile.interval
    dirichlet = not sigma
    h = iv.span / (n + 1) if dirichlet else iv.span / n
    times = np.append(iv.t_a + h * np.arange(n + dirichlet), iv.t_b)
    q = h * h * profile.omega_sq(times)
    if dirichlet:
        # c_1 (1 - (q_0 + q_1) / 12) / c_{n+1}
        boundary = float((12.0 + q[1]) * (1.0 - (q[0] + q[1]) / 12.0) / (12.0 + q[-1]))
        q, corner = q[1:-1], 0.0
    else:
        q[0] = 0.5 * (q[0] + q[-1])
        q, boundary, corner = q[:-1], 1.0, -float(sigma)
    c = 1.0 + q / 12.0
    return _LatticeOperator(bc=bc, mesh_size=n, step=h, gap=q / c, weight=c ** -2.0,
                           corner=corner, boundary=boundary)


def _gershgorin(op: _LatticeOperator) -> float:
    """(max|d_k| + 2) / min w_k, a bound of every |eigenvalue| of the pencil
    (T', W), which are those of C T' C."""
    return float(np.max(np.abs(op.diag)) + 2.0) / float(np.min(op.weight))


def _pivots(op: _LatticeOperator, mu: float = 0.0) -> tuple:
    """The LDL^T pivots of T' - mu W in one O(n) pass: (pivots, log|pivots|,
    _schur's z or None, whether a pivot was nudged).

    The pivots p_k = (2 - g_k - mu w_k) - 1/p_{k-1} are swept as their
    excess e_k = p_k - 1 = e_{k-1}/p_{k-1} - (g_k + mu w_k), whose log1p
    keeps the digits of pivots near 1 (the free lattice's are (k+1)/k).
    They run over all n rows for Dirichlet; the wrapped conditions run them
    over the first n-1 rows (the block T) and append the Schur complement of
    the last row, s = 2 - g_n - mu w_n - b^T T^-1 b with b = (c, 0, ..., 0,
    -1).  A pivot, or s, zero to working precision is nudged to a negative
    one of that size, as in LAPACK's bisection.
    """
    gap = op.gap + mu * op.weight
    wrapped = op.corner != 0.0
    # 1 + e resolves a pivot to eps at best, so the floor is at least eps
    floor = _EPS * max(_gershgorin(op), 1.0)
    exc, lo, nudged = [], -floor, False
    append = exc.append
    r = 1.0  # e_{k-1} / p_{k-1}, 1 before the first row
    for gk in (gap[:-1] if wrapped else gap).tolist():
        e = r - gk
        p = 1.0 + e
        if p < floor and lo < p:
            e, nudged = lo - 1.0, True
            p = 1.0 + e
        append(e)
        r = e / p
    exc = np.fromiter(exc, float, len(exc))
    piv = 1.0 + exc
    logs = np.log1p(np.where(exc > -1.0, exc, -2.0 - exc))  # |p| - 1 = -2 - e for p < 0
    z = None
    if wrapped:
        z, s = _schur(op, gap, piv)
        if lo < s < floor:
            s, nudged = lo, True
        piv = np.append(piv, s)
        logs = np.append(logs, math.log(abs(s)))
    return piv, logs, z, nudged


def _sweep(op: _LatticeOperator, mu: float = 0.0, slope: bool = False) -> tuple:
    """One LDL^T pass over T' - mu W, in O(n) (_pivots): (log|det|, sign of
    det, number of the pencil's eigenvalues below mu, d/dmu log|det|).

    The count is that of negative pivots and of s < 0 (Sylvester's inertia
    law, Haynsworth's additivity; W is positive).  The slope, only on
    request, sums p_k'/p_k, p_k' = -w_k + p_{k-1}'/p_{k-1}^2, and s'/s, s' =
    -w_n - sum_k w_k x_k^2 with x = T^-1 b.
    """
    piv, logs, z, _ = _pivots(op, mu)
    dlog = math.nan
    if slope:
        block = piv if z is None else piv[:-1]
        dp = dlog = 0.0
        pivots = block.tolist()
        for wk, prev, pk in zip(op.weight.tolist(), [math.inf] + pivots[:-1], pivots):
            dp = -wk + dp / (prev * prev)
            dlog += dp / pk
        if z is not None:
            # T^-1 b = L^-T z, one backward pass with the same pivots
            x = norm = 0.0
            for zk, pk, wk in zip(z[::-1].tolist(), block[::-1].tolist(),
                                  op.weight[-2::-1].tolist()):
                x = zk + x / pk
                norm += wk * x * x
            dlog += (-op.weight[-1] - norm) / float(piv[-1])
    below = int(np.count_nonzero(piv < 0.0))
    return float(np.sum(logs)), (-1.0 if below % 2 else 1.0), below, dlog


def _schur(op: _LatticeOperator, gap: np.ndarray, piv: np.ndarray) -> tuple:
    """z = L^-1 b / piv and the last row's Schur complement s, from the block
    T's pivots."""
    # y = L^-1 b: y_k = c / (leading k-1 determinant) up to y_{n-1} -= 1
    y = op.corner * np.cumprod(np.append(1.0, 1.0 / piv[:-1]))
    y[-1] -= 1.0
    z = y / piv
    return z, float(2.0 - gap[-1] - y @ z)


def _window(op: _LatticeOperator, tol: float) -> tuple:
    """Counts of the pencil's eigenvalues below -delta and below +delta, with
    delta = tol * _gershgorin(op); they differ by the number in [-delta, delta)."""
    delta = tol * _gershgorin(op)
    return _sweep(op, -delta)[2], _sweep(op, delta)[2]


def _certified(op: _LatticeOperator, piv: np.ndarray, logs: np.ndarray, tol: float) -> bool:
    """True when _pivots(op)'s pivots prove that the pencil has no eigenvalue
    in [-delta, delta], delta = tol * _gershgorin(op): no pivot of T' - mu W,
    and no Schur complement, can vanish for |mu| <= delta.  A few numpy
    passes over the pivots, where _window sweeps twice more.

    Pivots.  Let a_k = p_k(0) be the m block pivots (m = n, or n - 1 when
    wrapped), l_k = -2 sum_{i<k} log|a_i|, r = 1/n and F = (1 - r)^-n.  With
    D_k = delta w_k + D_{k-1} / a_{k-1}^2 = delta e^{l_k} sum_{j<=k} w_j
    e^{-l_j} (the first-order shift, |p_k'(0)| delta), the certificate asks F
    D_k <= r |a_k| for every k.  Then |p_k(mu) - a_k| <= (1 - r)^-k D_k <=
    r |a_k| for |mu| <= delta, by induction: where it holds below k,
    |p_{k-1}(mu)| >= (1 - r) |a_{k-1}|, and p_k(mu) - a_k = -mu w_k +
    (p_{k-1}(mu) - a_{k-1}) / (p_{k-1}(mu) a_{k-1}) is at most delta w_k +
    (1 - r)^-k D_{k-1} / a_{k-1}^2 <= (1 - r)^-k D_k.  So no pivot changes
    sign, and every 1/|p_k(mu)| is at most (1 - r)^-1 / |a_k|; k < n leaves
    a factor 1 - r of slack for rounding of relative order n eps.

    Schur complement (wrapped).  s(mu) = d_n - mu w_n - b^T T(mu)^-1 b has
    s' = -w_n - x^T W x, x(mu) = T(mu)^-1 b, so |s(mu) - s(0)| <= delta (w_n
    + max x^T W x).  At 0, x_k = P_k sum_{j>=k} t_j with P_k = a_0 ...
    a_{k-1}, |P_k| = e^{-l_k/2}, and t_j = z_j / P_j = c e^{l_j} / a_j, less
    1 / (P_j a_j) at j = m - 1 (the -1 of b): one signed reverse cumsum.
    Each l_j is within 3 m eps max|l| of its value, so the sum is within m
    eps (2 + 3 max|l|) times the sum of |t_j|, however much cancels.  Away
    from 0, x(mu) - x(0) = mu T(mu)^-1 W x(0), and T(mu)^-1 = L^-T D^-1 L^-1 has
    entries sum_{j >= i, k} 1 / (p_i ... p_{j-1} p_j p_k ... p_{j-1}), at
    most 2n pivots each: so |T(mu)^-1 v|_i <= F^2 G(|v|)_i with G(v)_i =
    e^{-l_i/2} sum_{j>=i} (e^{l_j} / |a_j|) sum_{k<=j} e^{-l_k/2} v_k, two
    cumsums.  With X the bound of |x(0)|, |x(mu)| <= X + delta F^2 G(W X),
    and the certificate asks delta (w_n + sum_k w_k (X_k + delta F^2
    G(W X)_k)^2) <= |s(0)| / 2: this bound holds at every mu, with no
    induction to feed, so a margin of 1/2, not r, is all rounding needs.

    Then det(T' - mu W) = prod_k p_k(mu) s(mu) has no zero for |mu| <=
    delta, so the Sturm counts at -+delta agree.  An exponent beyond the
    float range gives inf or nan, which fails.
    """
    n, wrapped = op.mesh_size, op.corner != 0.0
    m, r = logs.size - wrapped, 1.0 / n
    grow, delta = (1.0 - r) ** -n, tol * _gershgorin(op)
    ls = np.zeros(m)
    np.cumsum(logs[:m - 1], out=ls[1:])
    ls *= -2.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        up, down = np.exp(ls), np.exp(-ls)  # e^{l_k}, e^{-l_k}
        block, weight = np.abs(piv[:m]), op.weight[:m]
        if not np.all(grow * delta * up * np.cumsum(weight * down) <= r * block):
            return False
        if not wrapped:
            return True
        root = np.sqrt(down)  # |P_k|
        t = op.corner * up / piv[:m]
        sign = -1.0 if np.count_nonzero(piv[:m - 1] < 0.0) % 2 else 1.0  # of P_{m-1}
        t[-1] -= sign / (root[-1] * piv[m - 1])
        err = m * _EPS * (2.0 + 3.0 * float(np.max(np.abs(ls))))
        x = root * (np.abs(np.cumsum(t[::-1])[::-1]) + err * np.cumsum(np.abs(t[::-1]))[::-1])
        spread = root * np.cumsum((up / block * np.cumsum(root * weight * x))[::-1])[::-1]
        x += delta * grow * grow * spread
        shift = delta * (op.weight[-1] + float(weight @ (x * x)))
        return bool(shift <= 0.5 * abs(piv[-1]))


def _exp_signed(log_abs: float, sign: float, what: str) -> float:
    if log_abs > _LOG_FLOAT_MAX:
        raise IntegrationError(
            f"{what} exp({log_abs:.6g}) exceeds the float range")
    return sign * math.exp(log_abs)


@lru_cache(maxsize=8)
def _reference_spectrum(bc: str, n: int, span: float, omega0: float) -> tuple:
    """The constant-omega0 reference lattice in closed form, cached and
    read-only: the eigenvalues a - 2 cos(theta_j) of its T', a = 2 - g0 with
    g0 = h^2 omega0^2 / c0, and theta_j = pi j / (n+1) (Dirichlet, j =
    1..n), 2 pi j / n (periodic) or (2j+1) pi / n (antiperiodic); the log of
    |det T'|; the Gershgorin bound c0^2 (|a| + 2) of its pencil, whose
    eigenvalues are c0^2 times those of T'; and its Dirichlet boundary
    factor 1 - h^2 omega0^2 / 6.

    An eigenvalue is s_j - g0 with s_j = 4 sin^2(theta_j / 2), which keeps
    its digits where a is near 2.  The log-determinant is log prod s_j +
    sum_j log|1 - g0 / s_j| over s_j > 0, with the free lattice's prod s_j
    exact: n + 1 (Dirichlet), 4 (antiperiodic) or n^2 (periodic, whose s_0
    = 0 leaves the eigenvalue -g0).  The rounding of theta_j and of the
    sines then enters only through g0 / s_j, where in a sum of log|s_j - g0|
    their shared relative rounding alone moves the log by about n eps.  An
    exact zero eigenvalue gives -inf, which the callers refuse before
    reading."""
    sigma = _sigma(bc)
    dirichlet, periodic = not sigma, sigma > 0
    h = span / (n + 1) if dirichlet else span / n
    q0 = (h * omega0) ** 2
    gap = q0 / (1.0 + q0 / 12.0)
    if dirichlet:
        theta = math.pi / (n + 1) * np.arange(1, n + 1)
    else:
        theta = math.pi / n * (2 * np.arange(n) + (not periodic))
    free = 4.0 * np.sin(0.5 * theta) ** 2
    ratio = gap / free[periodic:]
    log_free = 2.0 * math.log(n) if periodic else math.log(n + 1 if dirichlet else 4)
    with np.errstate(divide="ignore"):
        logs = np.log1p(np.where(ratio < 1.0, -ratio, ratio - 2.0))  # log|1 - ratio|
        lone = np.log(gap) if periodic else 0.0  # the periodic eigenvalue -g0
    eigs = free - gap
    eigs.flags.writeable = False
    return (eigs, float(log_free + lone + np.sum(logs)), abs(2.0 - gap) + 2.0,
            1.0 - q0 / 6.0 if dirichlet else 1.0)


def _over_reference(op: _LatticeOperator, log_abs: float, sign: float,
                    span: float, omega0: float) -> float:
    """sign exp(log_abs) det T' times the lattice's boundary factor over the
    reference lattice's, from the reference's closed-form spectrum."""
    eigs, log_ref, bound, boundary = _reference_spectrum(op.bc, op.mesh_size, span,
                                                         _omega0(omega0))
    delta = LATTICE_ZERO_TOL * bound
    if np.any((eigs >= -delta) & (eigs < delta)):
        raise DegenerateOperatorError(
            f"reference lattice has a zero mode at omega0 = {omega0}")
    ref_sign = -1.0 if np.count_nonzero(eigs < 0.0) % 2 else 1.0
    factor = op.boundary / boundary
    return _exp_signed(log_abs + math.log(abs(factor)) - log_ref,
                       sign * ref_sign * math.copysign(1.0, factor),
                       "lattice determinant ratio")


# (profile, bc, n, lattice, log|det T'|, sign) of lattice_ratio's last read
# that passed its verdict; it holds the profile (immutable), so no other
# object can take its id while kept
_last_read: list = [None]


def lattice_ratio(profile: FrequencyProfile, bc: str, omega0: float, n: int) -> float:
    """det(K)/det(reference) on an n-point Numerov mesh; converges with order
    h^4 under Dirichlet conditions, and under the wrapped ones where the
    profile closes up at the fold (h^2 where it does not).

    The target's determinant and zero verdict come from _verdict, the
    reference's determinant from its closed-form spectrum.  A ratio beyond
    the float range raises IntegrationError.  The last read that passed its
    verdict is kept for the same profile object, bc and n, so Richardson's
    r_n after a plain r_n samples no Omega^2 and sweeps no pivots; a refusal
    is raised again on every call, never kept.
    """
    last = _last_read[0]
    if last is None or last[0] is not profile or last[1:3] != (bc, n):
        op = _build_lattice(profile, bc, n)
        last = _last_read[0] = (profile, bc, n, op, *_verdict(op))
    _, _, _, op, log_abs, sign = last
    return _over_reference(op, log_abs, sign, profile.interval.span, omega0)


def _verdict(op: _LatticeOperator) -> tuple:
    """(log|det T'|, sign) of the lattice, after its zero verdict.  One pivot
    loop (_pivots) reads the determinant, and its pivots decide the verdict
    where _certified shows no eigenvalue within LATTICE_ZERO_TOL of zero; a
    nudged pivot, an exponent beyond the float range or a missed margin
    falls back to _window's two Sturm counts, and counts that differ are
    refused with a pointer to the pseudo-determinant."""
    piv, logs, _, nudged = _pivots(op)
    if nudged or not _certified(op, piv, logs, LATTICE_ZERO_TOL):
        below, nonpositive = _window(op, LATTICE_ZERO_TOL)
        if nonpositive != below:
            raise DegenerateOperatorError(
                f"zero mode on lattice (Sturm counts {below} and {nonpositive} differ "
                f"within LATTICE_ZERO_TOL = {LATTICE_ZERO_TOL:g} of the Gershgorin bound); "
                "use the pseudo-determinant path")
    return float(np.sum(logs)), (-1.0 if np.count_nonzero(piv < 0.0) % 2 else 1.0)


def lattice_ratio_richardson(profile: FrequencyProfile, bc: str,
                             omega0: float, n: int) -> float:
    """One refinement step in the mesh step: (16 r_{2n} - r_n) / 15 for
    Dirichlet (order h^4), (4 r_{2n} - r_n) / 3 for the wrapped conditions,
    whose fold keeps them at order h^2."""
    r1 = lattice_ratio(profile, bc, omega0, n)
    r2 = lattice_ratio(profile, bc, omega0, 2 * n)
    gain = 4.0 if _sigma(bc) else 16.0
    refined = (gain * r2 - r1) / (gain - 1.0)
    if not math.isfinite(refined):
        raise IntegrationError(
            f"Richardson lattice ratio ({gain:g} {r2!r} - {r1!r}) / {gain - 1.0:g} "
            "exceeds the float range")
    return refined


@dataclass(frozen=True)
class SpectrumReport:
    """Lattice determinant with one near-zero eigenvalue removed."""

    num_nonpositive: int
    zero_mode_index: int
    pseudo_det_ratio: float
    aligned_pseudo_det: float
    mesh_size: int
    bc: str
    omega0: float


def pseudo_det_ratio(profile: FrequencyProfile, bc: str, n: int,
                     omega0: float = 0.0) -> SpectrumReport:
    """Normalized lattice determinant with its near-zero eigenvalue removed.

    The Sturm counts at -delta and +delta (delta is PSEUDO_ZERO_TOL times the
    Gershgorin bound) must differ by one: the first is the zero mode's index
    in the ascending spectrum of the pencil (T', W), the second the number
    of nonpositive eigenvalues, the removed mode included whatever its
    rounding sign.  The reduced determinant -d/dmu det(T' - mu W) at 0 is
    the product of the other eigenvalues, over det W, up to a relative
    lambda_0 sum_{j != 0} 1/lambda_j; it is -h^-2 d/dlambda det T' at
    lambda = 0.  Times the boundary factor, over the reference lattice's
    determinant, times h^2 for the removed mode, it is pseudo_det_ratio;
    times the reference's continuum value it is aligned_pseudo_det, which
    converges to det' K = -dF/dlambda, sign included: to
    det_periodic_regularized's value for the wrapped conditions and to minus
    det_dirichlet_regularized's closed form for Dirichlet.
    """
    op = _build_lattice(profile, bc, n)
    index, nonpositive = _window(op, PSEUDO_ZERO_TOL)
    if nonpositive - index != 1:
        raise DegenerateOperatorError(
            f"expected exactly one near-zero lattice eigenvalue (Sturm counts {index} and "
            f"{nonpositive} within PSEUDO_ZERO_TOL = {PSEUDO_ZERO_TOL:g} of the Gershgorin "
            f"bound), found {nonpositive - index}")
    log_abs, sign, _, slope = _sweep(op, slope=True)
    span = profile.interval.span
    raw = _over_reference(op, log_abs + math.log(abs(slope)) + 2.0 * math.log(op.step),
                          -sign * math.copysign(1.0, slope), span, omega0)
    return SpectrumReport(
        num_nonpositive=nonpositive,
        zero_mode_index=index,
        pseudo_det_ratio=raw,
        aligned_pseudo_det=raw * free_reference(bc, span, omega0),
        mesh_size=op.mesh_size, bc=bc, omega0=float(omega0))


# ---------------------------------------------------------------------------
# coupling-flow oracle


@lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple:
    """The n Gauss-Legendre nodes, ascending, and weights on [-1, 1], read-only:
    Newton's method on Bonnet's recurrence (k + 1) P_{k+1} = (2k + 1) x P_k -
    k P_{k-1} from x = -cos(pi (k - 1/4) / (n + 1/2)), kept symmetric, and
    2 / ((1 - x)(1 + x) P_n'^2) at the last nodes, normalized to sum 2."""
    x, step = -np.cos(math.pi / (n + 0.5) * (np.arange(1, n + 1) - 0.25)), math.inf
    for _ in range(100):
        p0, p1 = np.ones(n), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        dp = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))  # P_n'
        if step <= _EPS:
            break
        dx = p1 / dp
        step, x = float(np.max(np.abs(dx))), x - dx
        x = 0.5 * (x - x[::-1])
    ws = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    ws *= 2.0 / ws.sum()
    x.flags.writeable = ws.flags.writeable = False
    return x, ws


def gflow_ratio(profile: FrequencyProfile, bc: str, omega0: float = 0.0,
                g_steps: int = 32) -> float:
    """Determinant ratio from the exponentiated Green-function trace.

    The flow connects the reference operator (free for Dirichlet, constant
    frequency omega0 for the wrapped conditions) to the target along
    V_s = omega0_ref^2 + s (Omega^2 - omega0_ref^2); the ratio is
    exp(-integral_0^1 ds Tr[(Omega^2 - omega0_ref^2) G_s]).  The integral is
    taken in u = sqrt(s), with g_steps Gauss-Legendre nodes u_i on [0, 1]:
    s = u_i^2 with weights 2 u_i w_i, which absorbs the 1/sqrt(s) growth of
    a hyperbolic integrand near s = 0.  V_s is affine in s, so the nodes and
    ends are one Magnus family; each node's trace is -dF_s/ds / F_s, with F_s
    read from M on its group's accepted grid and dF_s/ds the exact slope of
    the determinant on the coarsest level known to meet the Magnus target,
    which odesolve._family returns with the group: often half the accepted
    steps.  The flow must stay clear of zero modes: every node's endpoint
    determinant must pass the zero verdict (green._refuse_degenerate), a sign
    change between nodes is located by bisection (one odesolve._solve per
    probe) and reported as a crossing, and the lattice Sturm counts of the
    reference and the target, which differ by the number of eigenvalues the
    flow takes through zero, must agree.
    """
    sigma = _sigma(bc)
    if not (g_steps >= 1 and float(g_steps).is_integer()):
        raise ValueError(f"g_steps must be a positive integer, got {g_steps!r}")
    omega0_ref = float(omega0) if sigma else 0.0
    span = profile.interval.span
    reference_determinant(bc, span, omega0_ref)

    xs, ws = _gauss_legendre(int(g_steps))
    u = 0.5 * (xs + 1.0)
    s_probe = np.concatenate([[0.0], u * u, [1.0]])
    w0sq = omega0_ref * omega0_ref

    groups = _family(profile, w0sq * (1.0 - s_probe), s_probe)
    dets, conditions = np.empty(s_probe.size), np.empty(s_probe.size)
    for members, _, m, _, _ in groups:
        for j, k in enumerate(members):
            dets[k], conditions[k], _ = _read_transfer(m[..., j], bc)
    i = int(np.argmax(conditions))
    _refuse_degenerate(conditions[i], f"coupling flow is degenerate at g' = {s_probe[i]:.6f} "
                       f"(endpoint determinant {dets[i]:.3e}, {{}})")
    # signs, not products: the product of two determinants can overflow
    flips = np.sign(dets[:-1]) != np.sign(dets[1:])
    if flips.any():
        i = int(np.argmax(flips))
        lo, hi, sign_lo = float(s_probe[i]), float(s_probe[i + 1]), np.sign(dets[i])
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            det_mid = _read_transfer(_solve(profile, w0sq * (1.0 - mid), mid)[1], bc)[0]
            lo, hi = (mid, hi) if np.sign(det_mid) == sign_lo else (lo, mid)
        raise DegenerateOperatorError(
            "coupling flow crosses a zero mode at g' ≈ "
            f"{0.5 * (lo + hi):.6f}; the trace integrand diverges there")
    # An even number of crossings keeps the sign.  The lattice mesh is the
    # larger step count of the groups that hold the end members: at least
    # two points per radian of sqrt(max|V_s|) T.
    n = max(grid.n for members, grid, _, _, _ in groups
            if members[0] == 0 or members[-1] == s_probe.size - 1)
    below_ref = int(np.count_nonzero(_reference_spectrum(bc, n, span, omega0_ref)[0] < 0.0))
    below = _sweep(_build_lattice(profile, bc, n))[2]
    if below != below_ref:
        raise DegenerateOperatorError(
            f"coupling flow passes zero modes without a sign change: the lattice "
            f"counts {below_ref} negative eigenvalues at the reference and "
            f"{below} at the target; the trace integrand diverges there")

    traces = np.zeros(s_probe.size)
    for members, grid, _, _, coarsest in groups:
        j = np.flatnonzero((s_probe[members] > 0.0) & (s_probe[members] < 1.0))
        if j.size:  # 1/F in the weight: dF/ds alone overflows where F nears the float range
            traces[members[j]] = -_det_slope(
                _MagnusGrid(grid.omega_sq, grid.c0[j], grid.c1[j], grid.iv, coarsest), bc,
                lambda t: np.divide.outer(profile.omega_sq(t) - w0sq, dets[members[j]]))
    integral = float((u * ws) @ traces[1:-1])
    return _exp_signed(-integral, 1.0, "coupling-flow ratio")
