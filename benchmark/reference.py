"""Independent reference values for the benchmark.

Nothing here imports flucdet.  Constant and hyperbolic profiles use closed
forms; modulated profiles use a vectorized fourth-order Magnus integrator
(two Gauss nodes) for the transfer matrix M = Phi(t_b, t_a) of
y' = [[0, 1], [-g Omega^2(t), 0]] y, with step doubling until two levels
agree.  Every determinant is read from M:

    Dirichlet     M01                (M12 in 1-based indexing)
    periodic      2 - tr M
    antiperiodic  2 + tr M

Green tables are assembled from the solutions u_a (u(t_a) = 0, u'(t_a) = 1)
and u_b (u(t_b) = 0, u'(t_b) = -1), read from prefix and suffix products of
the step matrices, so no difference of growing solutions is ever formed.
Traces use the identity Tr Omega^2 G = -d/dg log F(g) at g = 1, with the
derivative taken by a complex step through the same Magnus product.

A profile spec is a dict with "t_a", "t_b" and "kind" one of
    constant    {"omega"}
    modulated   {"omega", "eps", "nu"}      Omega^2 = omega^2 (1 + eps sin(nu t))
    hyperbolic  {"k"}                       Omega^2 = -k^2
    synthetic   {"xi"}                      zero-mode shapes sinpi, sinpi_bump
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT3 = math.sqrt(3.0)
GAUSS_NODES = (0.5 - SQRT3 / 6.0, 0.5 + SQRT3 / 6.0)
CHUNK = 1 << 15
# Step doubling stops once the error estimate of the finer level is below
# this relative size, or at MAX_STEPS; the verified digits say which.
TARGET_REL = 1e-13
MAX_STEPS = 1 << 22
MAX_DIGITS = 15.0
COMPLEX_STEP = 1e-20
BCS = ("dirichlet", "periodic", "antiperiodic")


@dataclass(frozen=True)
class Ref:
    """A reference value and how many significant digits were verified."""

    value: float
    digits: float


def _digits(err: float, scale: float) -> float:
    if scale == 0.0:
        return 0.0
    rel = abs(err) / abs(scale)
    if rel <= 10.0 ** -MAX_DIGITS:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(rel))


def omega_sq_fn(spec: dict):
    """Vectorized Omega^2(t) for a non-synthetic spec."""
    kind = spec["kind"]
    if kind == "constant":
        w2 = spec["omega"] ** 2
        return lambda t: np.full(np.shape(t), w2)
    if kind == "modulated":
        w2, e, n = spec["omega"] ** 2, spec["eps"], spec["nu"]
        return lambda t: w2 * (1.0 + e * np.sin(n * t))
    if kind == "hyperbolic":
        k2 = spec["k"] ** 2
        return lambda t: np.full(np.shape(t), -k2)
    raise ValueError(f"no Omega^2 for kind {kind!r}")


def wrapped_sign(bc: str) -> float:
    return 1.0 if bc == "periodic" else -1.0


def free_reference(bc: str, span: float, omega0: float) -> float:
    """Closed-form determinant of the reference operator."""
    if bc == "dirichlet":
        return span if omega0 == 0.0 else math.sin(omega0 * span) / omega0
    if bc == "periodic":
        return 4.0 * math.sin(0.5 * omega0 * span) ** 2
    return 4.0 * math.cos(0.5 * omega0 * span) ** 2


def det_from_matrix(m, bc: str):
    """Determinant read from a transfer matrix given as (m00, m01, m10, m11)."""
    if bc == "dirichlet":
        return m[1]
    return 2.0 - wrapped_sign(bc) * (m[0] + m[3])


# ---------------------------------------------------------------------------
# Magnus integrator


def _step_matrices(a_fn, t_a: float, h: float, lo: int, hi: int, g):
    """Fourth-order Magnus step exponentials for steps lo..hi-1.

    Omega = [[d, h], [-h abar, -d]] with abar the Gauss mean of g Omega^2 and
    d = sqrt(3)/12 h^2 (a2 - a1), so Omega^2 = q I with q = d^2 - h^2 abar
    and exp(Omega) = cosh(sqrt q) I + sinh(sqrt q)/sqrt q Omega.
    """
    t0 = t_a + h * np.arange(lo, hi, dtype=float)
    a1 = g * a_fn(t0 + GAUSS_NODES[0] * h)
    a2 = g * a_fn(t0 + GAUSS_NODES[1] * h)
    abar = 0.5 * (a1 + a2)
    d = (SQRT3 / 12.0) * h * h * (a2 - a1)
    q = d * d - h * h * abar
    if np.iscomplexobj(q):
        r = np.sqrt(q)
        safe = np.where(r == 0, 1.0, r)
        c = np.cosh(r)
        s = np.where(r == 0, 1.0, np.sinh(safe) / safe)
    else:
        r = np.sqrt(np.abs(q))
        safe = np.where(r == 0.0, 1.0, r)
        c = np.where(q >= 0.0, np.cosh(r), np.cos(r))
        s = np.where(r == 0.0, 1.0,
                     np.where(q >= 0.0, np.sinh(safe), np.sin(safe)) / safe)
    return (c + s * d, s * h, -s * h * abar, c - s * d)


def _mul(b, a):
    """b @ a for 2x2 matrices stored as entry tuples (broadcasting)."""
    return (b[0] * a[0] + b[1] * a[2], b[0] * a[1] + b[1] * a[3],
            b[2] * a[0] + b[3] * a[2], b[2] * a[1] + b[3] * a[3])


def _reduce(e):
    """Ordered product e[n-1] ... e[1] e[0] along the last axis, pairwise."""
    while e[0].shape[-1] > 1:
        if e[0].shape[-1] % 2:
            pad = [np.ones(e[0].shape[:-1] + (1,), dtype=e[0].dtype),
                   np.zeros(e[0].shape[:-1] + (1,), dtype=e[0].dtype)]
            e = tuple(np.concatenate([x, pad[i in (1, 2)]], axis=-1)
                      for i, x in enumerate(e))
        e = _mul(tuple(x[..., 1::2] for x in e), tuple(x[..., 0::2] for x in e))
    return tuple(x[..., 0] for x in e)


def cell_products(spec: dict, cells: int, n: int, g=1.0):
    """Transfer matrices of `cells` equal cells, each integrated with n/cells steps.

    Returns entry tuples of arrays with one element per cell.
    """
    t_a, t_b = spec["t_a"], spec["t_b"]
    per = n // cells
    h = (t_b - t_a) / (per * cells)
    a_fn = omega_sq_fn(spec)
    out = []
    if per <= CHUNK:
        group = max(1, CHUNK // per)
        for c0 in range(0, cells, group):
            c1 = min(cells, c0 + group)
            e = _step_matrices(a_fn, t_a, h, c0 * per, c1 * per, g)
            e = tuple(x.reshape(c1 - c0, per) for x in e)
            out.append(_reduce(e))
        return tuple(np.concatenate([o[i] for o in out]) for i in range(4))
    for c in range(cells):
        acc = None
        for lo in range(c * per, (c + 1) * per, CHUNK):
            hi = min((c + 1) * per, lo + CHUNK)
            part = _reduce(_step_matrices(a_fn, t_a, h, lo, hi, g))
            acc = part if acc is None else _mul(part, acc)
        out.append(acc)
    return tuple(np.array([o[i] for o in out]) for i in range(4))


def transfer(spec: dict, n: int, g=1.0):
    """M = Phi(t_b, t_a) from n Magnus steps, as scalars (m00, m01, m10, m11)."""
    cells = max(1, n // CHUNK)
    prods = cell_products(spec, cells, n, g)
    acc = tuple(x[0] for x in prods)
    for c in range(1, cells):
        acc = _mul(tuple(x[c] for x in prods), acc)
    return acc


def _start_steps(spec: dict) -> int:
    span = spec["t_b"] - spec["t_a"]
    w = spec["omega"] * math.sqrt(1.0 + spec["eps"])
    work = span * (w + spec["nu"]) + 1.0
    n = 512
    while n < 16.0 * work:
        n *= 2
    return n


def _closed_transfer(spec: dict, tau):
    """Phi(t_a + tau, t_a) for constant and hyperbolic profiles."""
    tau = np.asarray(tau, dtype=float)
    if spec["kind"] == "hyperbolic":
        k = spec["k"]
        c, s = np.cosh(k * tau), np.sinh(k * tau)
        return c, s / k, k * s, c
    w = spec["omega"]
    if w == 0.0:
        return np.ones_like(tau), tau, np.zeros_like(tau), np.ones_like(tau)
    c, s = np.cos(w * tau), np.sin(w * tau)
    return c, s / w, -w * s, c


def _closed_log_slope(spec: dict, bc: str) -> float:
    """d/dg log F(g) at g = 1 in closed form (constant and hyperbolic)."""
    span = spec["t_b"] - spec["t_a"]
    if spec["kind"] == "hyperbolic":
        x = spec["k"] * span
        if bc == "dirichlet":
            return 0.5 * (x / math.tanh(x) - 1.0)
        sgn = wrapped_sign(bc)
        # F = 2 - 2 s cosh(x sqrt g); F' = -s x sinh(x)
        return -sgn * x * math.sinh(x) / (2.0 - 2.0 * sgn * math.cosh(x))
    x = spec["omega"] * span
    if bc == "dirichlet":
        if x == 0.0:
            return 0.0
        return 0.5 * (x / math.tan(x) - 1.0)
    sgn = wrapped_sign(bc)
    # F = 2 - 2 s cos(x sqrt g); F' = s x sin(x)
    return sgn * x * math.sin(x) / (2.0 - 2.0 * sgn * math.cos(x))


def _is_closed(spec: dict) -> bool:
    return spec["kind"] in ("constant", "hyperbolic")


def determinant(spec: dict, bc: str) -> Ref:
    """Reference endpoint determinant F for one boundary condition."""
    if _is_closed(spec):
        m = tuple(float(x) for x in _closed_transfer(spec, spec["t_b"] - spec["t_a"]))
        return Ref(float(det_from_matrix(m, bc)), MAX_DIGITS)
    return _converged(spec, lambda n: float(det_from_matrix(transfer(spec, n), bc)))


def _converged(spec: dict, level) -> Ref:
    n = _start_steps(spec)
    coarse = level(n)
    while True:
        n *= 2
        fine = level(n)
        err = abs(fine - coarse) / 15.0
        if err <= TARGET_REL * abs(fine) or n >= MAX_STEPS:
            return Ref(fine, _digits(err, fine))
        coarse = fine


def trace(spec: dict, bc: str) -> Ref:
    """Integral of Omega^2(t) G(t, t), which is -d/dg log F(g) at g = 1."""
    if _is_closed(spec):
        return Ref(-_closed_log_slope(spec, bc), MAX_DIGITS - 1.0)
    g = complex(1.0, COMPLEX_STEP)

    def level(n):
        f = det_from_matrix(transfer(spec, n, g), bc)
        return -f.imag / (COMPLEX_STEP * f.real)
    return _converged(spec, level)


# ---------------------------------------------------------------------------
# Green tables


def _green_from_products(pre, suf, bc: str, grid: int) -> np.ndarray:
    """G on the grid from prefix products P_i = Phi(t_i, t_a) and suffix
    products S_i = Phi(t_b, t_i) at the grid points."""
    u_a = pre[1]                      # Phi(t_i, t_a) (0, 1)^T, value row
    u_b = suf[1]                      # adj(S_i) (0, -1)^T, value row
    w = pre[1][-1]                    # u_a(t_b) = M01 = u_b(t_a)
    lo = np.minimum.outer(np.arange(grid), np.arange(grid))
    hi = np.maximum.outer(np.arange(grid), np.arange(grid))
    table = u_a[lo] * u_b[hi] / w
    if bc != "dirichlet":
        sgn = wrapped_sign(bc)
        tr = pre[0][-1] + pre[3][-1]
        v = u_b + sgn * u_a
        table = table + sgn * np.outer(v, v) / (w * (sgn * tr - 2.0))
    return table


def _prefix_suffix(cells):
    count = len(cells[0])
    pre = [(1.0, 0.0, 0.0, 1.0)]
    for c in range(count):
        pre.append(_mul(tuple(x[c] for x in cells), pre[-1]))
    suf = [(1.0, 0.0, 0.0, 1.0)]
    for c in range(count - 1, -1, -1):
        suf.append(_mul(suf[-1], tuple(x[c] for x in cells)))
    suf.reverse()
    return (tuple(np.array([p[i] for p in pre], dtype=float) for i in range(4)),
            tuple(np.array([s[i] for s in suf], dtype=float) for i in range(4)))


def green_table(spec: dict, bc: str, grid: int) -> tuple:
    """(table, digits) of G(t_i, t_j) on grid points t_a + i (t_b - t_a)/(grid - 1)."""
    span = spec["t_b"] - spec["t_a"]
    if _is_closed(spec):
        tau = span * np.arange(grid) / (grid - 1)
        pre = _closed_transfer(spec, tau)
        back = _closed_transfer(spec, span - tau)
        return _green_from_products(pre, back, bc, grid), MAX_DIGITS - 1.0
    cells = grid - 1
    n = _start_steps(spec)
    n = max(cells, n - n % cells)

    def level(steps):
        return _green_from_products(*_prefix_suffix(cell_products(spec, cells, steps)),
                                    bc, grid)
    coarse = level(n)
    while True:
        n *= 2
        fine = level(n)
        scale = float(np.max(np.abs(fine)))
        err = float(np.max(np.abs(fine - coarse))) / 15.0
        if err <= TARGET_REL * scale or n >= MAX_STEPS:
            return fine, _digits(err, scale)
        coarse = fine


# ---------------------------------------------------------------------------
# zero modes


# <xi|xi> / (T^3 / pi^2) for the built-in shapes: the mean of s^2, s^2 (1 +
# 0.1 s^2)^2 over a half period of s = sin, times 1 (endpoint slopes +-pi/T).
_SHAPE_NORM = {"sinpi": 0.5, "sinpi_bump": 0.5 + 0.2 * 3.0 / 8.0 + 0.01 * 5.0 / 16.0}


def zero_mode_regularized(spec: dict) -> Ref:
    """Closed form <xi|xi> / (xi'_a xi'_b) = -c T^3 / pi^2 for the built-in shapes."""
    span = spec["t_b"] - spec["t_a"]
    return Ref(-_SHAPE_NORM[spec["xi"]] * span ** 3 / math.pi ** 2, MAX_DIGITS - 1.0)


# ---------------------------------------------------------------------------
# margins used by the generators (coarse, not references)


def coarse_matrix(spec: dict):
    """Transfer matrix good to a few digits, for margin tests only."""
    if _is_closed(spec):
        return tuple(float(x) for x in _closed_transfer(spec, spec["t_b"] - spec["t_a"]))
    return transfer(spec, _start_steps(spec) // 4)


def margin(spec: dict, bc: str, m=None) -> float:
    """Distance from a zero mode on a scale where 1 is far from one.

    Dirichlet: |sin| of the phase of u_a at t_b.  Wrapped: |2 -+ tr M|
    relative to 2 + |tr M|.
    """
    m = coarse_matrix(spec) if m is None else m
    if bc == "dirichlet":
        span = spec["t_b"] - spec["t_a"]
        a_b = float(omega_sq_fn(spec)(np.array([spec["t_b"]]))[0])
        w_b = max(math.sqrt(abs(a_b)), 1.0 / span)
        return abs(m[1] * w_b) / math.hypot(m[1] * w_b, m[3])
    tr = m[0] + m[3]
    return abs(2.0 - wrapped_sign(bc) * tr) / (2.0 + abs(tr))
