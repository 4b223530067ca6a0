"""Frequency profiles for the fluctuation operator -d^2/dt^2 - g*Omega^2(t).

A profile bundles the squared frequency Omega^2(t) with the time interval
[t_a, t_b] on which the operator lives.  Profiles are immutable.  The
constant and modulated kinds are continuous by construction and check their
parameters: one that is not finite, or a bound of |Omega^2| or of sin's
argument on the interval that is not, is refused by name before Omega^2 is
evaluated.  User and synthetic zero-mode profiles are checked by dense
sampling, bisecting every sample step that trips the jump threshold in one
batch (one omega_sq call on an array per level); the synthetic constructor
also checks that its shape xi(t) produces a regular Omega^2 = -xi''/xi.
omega_sq takes a float or an ndarray of times and returns a value of the
same shape.  User callables need only take a float: _lift passes arrays to
one that a probe finds works on them, and element by element to the rest.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ProfileError

CONTINUITY_SAMPLES = 10_000
CONTINUITY_REL_JUMP = 1e-3
# Bisection levels for the flagged sample steps: a smooth difference falls
# below the threshold once the step is short enough, a jump stays above it.
CONTINUITY_REFINEMENTS = 12
# Smooth curvature ratios approach their endpoint limit with O(h) or O(h^2)
# residuals (~1e-6 relative at the sampling steps used); singular ones leave
# O(1) or larger extrapolation differences, so 1e-4 separates them cleanly.
ENDPOINT_LIMIT_TOL = 1e-4


@dataclass(frozen=True)
class Interval:
    """Closed time interval [t_a, t_b] with t_b > t_a."""

    t_a: float
    t_b: float

    def __post_init__(self):
        if not (math.isfinite(self.t_a) and math.isfinite(self.t_b)):
            raise ValueError("interval endpoints must be finite")
        if not self.t_b > self.t_a:
            raise ValueError(f"interval requires t_b > t_a, got [{self.t_a}, {self.t_b}]")

    @property
    def span(self) -> float:
        return self.t_b - self.t_a

    def grid(self, n: int) -> np.ndarray:
        """n equally spaced points t_a + i*h, h = span/(n - 1), i = 0..n-1."""
        if not float(n).is_integer():
            raise ValueError(f"grid size n must be a finite integer, got {n!r}")
        n = int(n)
        if n < 2:
            raise ValueError("grid needs at least 2 points")
        h = self.span / (n - 1)
        return self.t_a + h * np.arange(n)


@dataclass(frozen=True)
class SyntheticZeroModeSpec:
    """Shape function xi(t) that generates a profile through Omega^2 = -xi''/xi.

    xi must vanish at both interval endpoints, have no zeros inside the open
    interval, and have nonzero endpoint slopes; dxi and d2xi are its first
    and second derivatives.  The callables need only take a float.
    """

    xi: Callable[[float], float]
    interval: Interval
    dxi: Callable[[float], float]
    d2xi: Callable[[float], float]
    name: str = "custom"


@dataclass(frozen=True)
class FrequencyProfile:
    """Immutable squared-frequency profile on an interval.

    omega_sq maps a float or an ndarray of times to a value of the same shape.
    zero_mode, on a synthetic profile, is its shape with xi, dxi and d2xi
    evaluable on arrays.
    """

    omega_sq: Callable[[object], object]
    interval: Interval
    description: str = ""
    zero_mode: Optional[SyntheticZeroModeSpec] = None
    config: Optional[dict] = field(default=None, repr=False)

    def __call__(self, t):
        return self.omega_sq(t)


def _on_arrays(fn):
    """Mark fn as taking arrays of times already, so that _lift leaves it."""
    fn.on_arrays = True
    return fn


def _lift(fn, interval: Interval) -> tuple:
    """fn, a callable of one float, as a callable of a float or an ndarray of
    times, and its values on the continuity grid if the probe kept them.  A
    float goes to fn; an array goes to fn whole if one call on the
    continuity grid (as a row) returns the grid's shape or one number, equal
    bit for bit to fn's float calls at five points across the interval, and
    element by element otherwise.  The probe keeps numpy's warnings silent."""
    if getattr(fn, "on_arrays", False):
        return fn, None
    ts = interval.grid(CONTINUITY_SAMPLES)[None, :]
    k = (np.arange(5) * (ts.size - 1)) // 4
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            vs = np.asarray(fn(ts), dtype=float)
            whole = vs.shape in (ts.shape, ()) and (
                np.broadcast_to(vs, ts.shape)[0, k].tobytes()
                == np.array([fn(t) for t in ts[0, k].tolist()], dtype=float).tobytes())
        except Exception:  # a callable of floats only: element by element
            whole = False

    @_on_arrays
    def lifted(t):
        if not isinstance(t, np.ndarray):
            return fn(t)
        if whole:
            return np.broadcast_to(fn(t), t.shape).astype(float)
        return np.array([fn(x) for x in t.ravel().tolist()], dtype=float).reshape(t.shape)

    return lifted, (np.broadcast_to(vs, ts.shape)[0].astype(float) if whole else None)


def _math_for(t):
    """numpy for an array, math (several times cheaper) for one float."""
    return np if isinstance(t, np.ndarray) else math


def _jump_tol(v0, v1):
    return CONTINUITY_REL_JUMP * (1.0 + np.maximum(np.abs(v0), np.abs(v1)))


def _check_continuity(omega_sq, interval, vs=None):
    """Reject a profile that is not finite or not continuous on the interval;
    vs are omega_sq's values on the grid if known.

    Sample steps whose difference passes the threshold are bisected together,
    one array call of omega_sq per level, each following the half with the
    larger difference: a true jump keeps its size however short the step,
    while the difference of a smooth profile shrinks with it, and a step
    leaves the batch once its difference falls under the threshold.  After
    CONTINUITY_REFINEMENTS levels the earliest step left is refused.  Profiles
    that never trip the threshold take no samples beyond the
    CONTINUITY_SAMPLES of the grid.
    """
    ts = interval.grid(CONTINUITY_SAMPLES)
    vs = omega_sq(ts) if vs is None else vs
    bad = np.flatnonzero(~np.isfinite(vs))
    if bad.size:
        raise ProfileError(f"Omega^2 is not finite at t = {float(ts[bad[0]])!r}")
    i = np.flatnonzero(np.abs(np.diff(vs)) > _jump_tol(vs[:-1], vs[1:]))
    if not i.size:
        return
    # the steps stay in time order, so the first one left is the earliest
    t0, v0, t1, v1 = ts[i], vs[i], ts[i + 1], vs[i + 1]
    refusal = None
    for _ in range(CONTINUITY_REFINEMENTS):
        tm = 0.5 * (t0 + t1)
        vm = omega_sq(tm)
        bad = np.flatnonzero(~np.isfinite(vm))
        if bad.size:
            # refused unless an earlier step fails too: only those go on
            k = bad[0]
            refusal = ProfileError(f"Omega^2 is not finite at t = {float(tm[k])!r}")
            t0, v0, t1, v1, tm, vm = t0[:k], v0[:k], t1[:k], v1[:k], tm[:k], vm[:k]
        left = np.abs(vm - v0) >= np.abs(v1 - vm)
        t0, v0 = np.where(left, t0, tm), np.where(left, v0, vm)
        t1, v1 = np.where(left, tm, t1), np.where(left, vm, v1)
        keep = np.abs(v1 - v0) > _jump_tol(v0, v1)
        t0, v0, t1, v1 = t0[keep], v0[keep], t1[keep], v1[keep]
        if not t0.size:
            break
    if t0.size:
        raise ProfileError(
            f"Omega^2 jumps by {abs(v1[0] - v0[0]):.3e} between t = {float(t0[0])!r} "
            f"and t = {float(t1[0])!r}; profiles must be continuous")
    if refusal is not None:
        raise refusal


def _require_finite(*named):
    """Refuse the first of the (name, value) pairs whose value is not finite."""
    for name, value in named:
        if not math.isfinite(value):
            raise ProfileError(f"{name} must be finite, got {value!r}")


def make_constant_profile(omega: float, interval: Interval) -> FrequencyProfile:
    """Profile with Omega^2(t) = omega^2 everywhere."""
    if omega < 0:
        raise ProfileError(f"omega must be nonnegative, got {omega}")
    w2 = float(omega) * float(omega)
    _require_finite(("omega", float(omega)), ("omega^2", w2))

    def omega_sq(t, _w2=w2):
        return np.full(t.shape, _w2) if isinstance(t, np.ndarray) else _w2

    return FrequencyProfile(
        omega_sq=omega_sq,
        interval=interval,
        description=f"constant omega={omega}",
        config={"kind": "constant", "omega": float(omega)},
    )


def make_modulated_profile(omega: float, eps: float, nu: float,
                           interval: Interval) -> FrequencyProfile:
    """Profile with Omega^2(t) = omega^2 * (1 + eps*sin(nu*t))."""
    w, e, n = float(omega), float(eps), float(nu)
    w2 = w * w
    _require_finite(("omega", w), ("eps", e), ("nu", n),
                    ("omega^2 (1 + |eps|)", w2 * (1.0 + abs(e))),
                    ("nu max(|t_a|, |t_b|)", n * max(abs(interval.t_a), abs(interval.t_b))))

    def omega_sq(t, _w2=w2, _e=e, _n=n):
        return _w2 * (1.0 + _e * _math_for(t).sin(_n * t))

    return FrequencyProfile(
        omega_sq=omega_sq,
        interval=interval,
        description=f"modulated omega={omega} eps={eps} nu={nu}",
        config={"kind": "modulated", "omega": float(omega), "eps": e, "nu": n},
    )


def make_user_profile(omega_sq: Callable[[float], float], interval: Interval,
                      description: str = "user") -> FrequencyProfile:
    """Wrap an arbitrary continuous callable of one float as a profile."""
    lifted, vs = _lift(omega_sq, interval)
    _check_continuity(lifted, interval, vs)
    return FrequencyProfile(omega_sq=lifted, interval=interval, description=description)


def _endpoint_limit(xi, d2xi, t0, direction, span):
    """One-sided limit of -xi''/xi at an endpoint where xi vanishes.

    Uses two levels of Richardson extrapolation on the ratio; smooth ratios
    converge (linearly or quadratically) and leave tiny extrapolation
    differences, while a singular endpoint leaves order-one ones.
    """
    ts = t0 + direction * (span * 1e-3) * np.array([1.0, 0.5, 0.25])
    xs = xi(ts)
    if np.any(xs == 0.0):
        raise ProfileError("shape function vanishes at interior point "
                           f"t = {float(ts[xs == 0.0][0])!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite limit is refused below
        v1, v2, v3 = -d2xi(ts) / xs
        l1, l2 = 2 * v2 - v1, 2 * v3 - v2
    if not all(math.isfinite(v) for v in (l1, l2)):
        raise ProfileError(f"Omega^2 = -xi''/xi is singular near t = {t0!r}")
    if abs(l2 - l1) > ENDPOINT_LIMIT_TOL * (1.0 + abs(l2)):
        raise ProfileError(
            f"Omega^2 = -xi''/xi does not approach a finite limit at t = {t0!r} "
            f"(successive extrapolations differ by {abs(l2 - l1):.3e})"
        )
    return float(l2)


def make_zero_mode_profile(spec: SyntheticZeroModeSpec) -> FrequencyProfile:
    """Build the profile whose operator annihilates the supplied shape xi.

    Sets Omega^2(t) = -xi''(t)/xi(t) in the interior and the extrapolated
    one-sided limits at the endpoints.  Rejects shapes with interior zeros,
    vanishing endpoint slopes, or endpoint-singular curvature ratios.
    """
    iv = spec.interval
    (xi, xi_grid), (dxi, _), (d2xi, d2xi_grid) = (
        _lift(fn, iv) for fn in (spec.xi, spec.dxi, spec.d2xi))

    # interior zeros make -xi''/xi singular inside the interval
    ts = iv.grid(CONTINUITY_SAMPLES)
    vals = xi(ts) if xi_grid is None else xi_grid
    xmax = float(np.max(np.abs(vals)))
    if xmax == 0.0:
        raise ProfileError("shape function is identically zero on the sampling grid")
    inner = vals[1:-2]
    zeros = np.flatnonzero((inner * vals[2:-1] < 0.0) | (np.abs(inner) < 1e-12 * xmax))
    if zeros.size:
        raise ProfileError("shape function has a zero inside the interval near "
                           f"t = {float(ts[zeros[0] + 1])!r}")

    slope_a, slope_b = dxi(np.array([iv.t_a, iv.t_b]))
    slope_scale = max(abs(slope_a), abs(slope_b), xmax / iv.span)
    if abs(slope_a) <= 1e-8 * slope_scale or abs(slope_b) <= 1e-8 * slope_scale:
        raise ProfileError(
            "shape function must have nonzero slope at both endpoints "
            f"(got {slope_a:.3e} at t_a and {slope_b:.3e} at t_b)"
        )

    lim_a = _endpoint_limit(xi, d2xi, iv.t_a, +1.0, iv.span)
    lim_b = _endpoint_limit(xi, d2xi, iv.t_b, -1.0, iv.span)
    seam = iv.span * 1e-6
    lo, hi = iv.t_a + seam, iv.t_b - seam

    def interior(t):
        return -d2xi(t) / xi(t)

    def glued(t, ratio):
        """Omega^2 at the times t: the limits up to the seams and, between
        them, ratio(inside) = -xi''/xi at the times a mask selects."""
        out = np.where(t <= lo, lim_a, lim_b)
        inside = (t > lo) & (t < hi)
        out[inside] = ratio(inside)
        return out

    def omega_sq(t):
        if isinstance(t, np.ndarray):
            return glued(t, lambda m: interior(t[m]))
        return lim_a if t <= lo else lim_b if t >= hi else float(interior(t))

    prof = FrequencyProfile(
        omega_sq=omega_sq,
        interval=iv,
        description=f"synthetic zero mode '{spec.name}'",
        zero_mode=replace(spec, xi=xi, dxi=dxi, d2xi=d2xi),
        config={"kind": "synthetic", "xi": spec.name},
    )
    # on the continuity grid from the values its probes and the zero check took
    d2x = (lambda m: d2xi(ts[m])) if d2xi_grid is None else d2xi_grid.__getitem__
    _check_continuity(omega_sq, iv, glued(ts, lambda m: -d2x(m) / vals[m]))
    return prof


def _shifted_profile(profile: FrequencyProfile, shift: float) -> FrequencyProfile:
    """Profile with Omega^2(t) + shift; used for spectral-parameter sweeps."""
    base = profile.omega_sq
    return FrequencyProfile(
        omega_sq=lambda t, _b=base, _s=float(shift): _b(t) + _s,
        interval=profile.interval,
        description=f"{profile.description} shifted by {shift}",
    )


# ---------------------------------------------------------------------------
# built-in zero-mode shapes


def _sinpi_spec(interval: Interval) -> SyntheticZeroModeSpec:
    a, span = interval.t_a, interval.span
    k = math.pi / span
    return SyntheticZeroModeSpec(
        xi=_on_arrays(lambda t: _math_for(t).sin(k * (t - a))),
        dxi=_on_arrays(lambda t: k * _math_for(t).cos(k * (t - a))),
        d2xi=_on_arrays(lambda t: -k * k * _math_for(t).sin(k * (t - a))),
        interval=interval,
        name="sinpi",
    )


def _sinpi_bump_spec(interval: Interval) -> SyntheticZeroModeSpec:
    """sin(pi*s) * (1 + 0.1*sin(pi*s)^2) with s the normalized coordinate.

    The cubic correction keeps xi'' proportional to xi near both endpoint
    zeros, so -xi''/xi stays finite there.
    """
    a, span = interval.t_a, interval.span
    k = math.pi / span

    @_on_arrays
    def xi(t):
        s = _math_for(t).sin(k * (t - a))
        return s * (1.0 + 0.1 * s * s)

    @_on_arrays
    def dxi(t):
        m, u = _math_for(t), k * (t - a)
        s, c = m.sin(u), m.cos(u)
        return k * c * (1.0 + 0.3 * s * s)

    @_on_arrays
    def d2xi(t):
        m, u = _math_for(t), k * (t - a)
        s, c = m.sin(u), m.cos(u)
        return k * k * (-s * (1.0 + 0.3 * s * s) + 0.6 * s * c * c)

    return SyntheticZeroModeSpec(xi=xi, dxi=dxi, d2xi=d2xi,
                                 interval=interval, name="sinpi_bump")


BUILTIN_ZERO_MODE_SHAPES = {
    "sinpi": _sinpi_spec,
    "sinpi_bump": _sinpi_bump_spec,
}


def builtin_zero_mode_spec(name: str, interval: Interval) -> SyntheticZeroModeSpec:
    try:
        factory = BUILTIN_ZERO_MODE_SHAPES[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_ZERO_MODE_SHAPES))
        raise ConfigError(f"unknown zero-mode shape '{name}' (available: {known})") from None
    return factory(interval)


# ---------------------------------------------------------------------------
# JSON configuration

_CONFIG_KEYS = {
    "constant": {"kind", "omega"},
    "modulated": {"kind", "omega", "eps", "nu"},
    "synthetic": {"kind", "xi"},
}


def profile_from_config(config, interval: Interval) -> FrequencyProfile:
    """Build a profile from a JSON string or an already-parsed mapping.

    Recognized forms:
        {"kind": "constant",  "omega": w}
        {"kind": "modulated", "omega": w, "eps": e, "nu": n}   # w^2*(1+e*sin(n*t))
        {"kind": "synthetic", "xi": "sinpi"}
    Unknown keys are rejected by name.
    """
    if isinstance(config, str):
        try:
            config = json.loads(config)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"profile config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("profile config must be a JSON object")
    kind = config.get("kind")
    if kind not in _CONFIG_KEYS:
        known = ", ".join(sorted(_CONFIG_KEYS))
        raise ConfigError(f"unknown profile kind {kind!r} (expected one of: {known})")
    allowed = _CONFIG_KEYS[kind]
    for key in config:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {kind} profile config")
    missing = allowed - set(config)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {kind} profile config")

    def number(key):
        v = config[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ConfigError(f"key '{key}' must be a number, got {v!r}")
        return float(v)

    if kind == "constant":
        return make_constant_profile(number("omega"), interval)
    if kind == "modulated":
        return make_modulated_profile(number("omega"), number("eps"), number("nu"), interval)
    shape = config["xi"]
    if not isinstance(shape, str):
        raise ConfigError(f"key 'xi' must name a built-in shape, got {shape!r}")
    return make_zero_mode_profile(builtin_zero_mode_spec(shape, interval))
