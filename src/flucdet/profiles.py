"""Frequency profiles for the fluctuation operator -d^2/dt^2 - g*Omega^2(t).

A profile bundles the squared frequency Omega^2(t) with the time interval
[t_a, t_b] on which the operator lives.  Profiles are immutable; all
constructors validate continuity by dense sampling, and the synthetic
zero-mode constructor additionally checks that the generating shape xi(t)
really produces a regular Omega^2 = -xi''/xi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ConfigError, ProfileError

CONTINUITY_SAMPLES = 10_000
CONTINUITY_REL_JUMP = 1e-3
# Bisections of a flagged sample step: a smooth difference falls below the
# threshold once the step is short enough, a jump stays above it throughout.
CONTINUITY_REFINEMENTS = 12
PERIODICITY_TOL = 1e-10
# Smooth curvature ratios approach their endpoint limit with O(h) or O(h^2)
# residuals (~1e-6 relative at the sampling steps used); singular ones leave
# O(1) or larger extrapolation differences, so 1e-4 separates them cleanly.
ENDPOINT_LIMIT_TOL = 1e-4
FD_STEP_FACTOR = 1e-4
CURVATURE_SPLINE_NODES = 1201

KIND_CONSTANT = "constant"
KIND_MODULATED = "modulated"
KIND_SYNTHETIC = "synthetic-zero-mode"
KIND_USER = "user"


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

    def grid(self, n: int) -> list:
        """n equally spaced points from t_a to t_b inclusive."""
        if n < 2:
            raise ValueError("grid needs at least 2 points")
        h = self.span / (n - 1)
        return [self.t_a + i * h for i in range(n)]

    def contains(self, t: float, slack: float = 0.0) -> bool:
        return self.t_a - slack <= t <= self.t_b + slack


@dataclass(frozen=True)
class SyntheticZeroModeSpec:
    """Shape function xi(t) that generates a profile through Omega^2 = -xi''/xi.

    xi must vanish at both interval endpoints, have no zeros inside the open
    interval, and have nonzero endpoint slopes.  If dxi/d2xi are omitted they
    are replaced by fourth-order central finite differences, which requires
    xi to be evaluable slightly outside the interval.
    """

    xi: Callable[[float], float]
    interval: Interval
    dxi: Optional[Callable[[float], float]] = None
    d2xi: Optional[Callable[[float], float]] = None
    name: str = "custom"


@dataclass(frozen=True)
class FrequencyProfile:
    """Immutable squared-frequency profile on an interval.

    omega_sq maps a scalar time to a scalar value.  periodic_with, when set,
    records a period P with Omega^2(t + P) = Omega^2(t).
    """

    omega_sq: Callable[[float], float]
    interval: Interval
    kind: str = KIND_USER
    periodic_with: Optional[float] = None
    description: str = ""
    zero_mode: Optional["ZeroModeData"] = None
    config: Optional[dict] = field(default=None, repr=False)

    def __call__(self, t: float) -> float:
        return float(self.omega_sq(t))


@dataclass(frozen=True)
class ZeroModeData:
    """Resolved zero-mode shape attached to a synthetic profile."""

    xi: Callable[[float], float]
    dxi: Callable[[float], float]
    d2xi: Callable[[float], float]
    name: str


def _jump_tol(v0: float, v1: float) -> float:
    return CONTINUITY_REL_JUMP * (1.0 + max(abs(v0), abs(v1)))


def _check_continuity(omega_sq, interval, n=CONTINUITY_SAMPLES):
    """Reject a profile that is not finite or not continuous on the interval.

    A sample-to-sample difference above the threshold is refined by
    bisection, following the half with the larger difference: a true jump
    keeps its size however short the step, while the difference of a smooth
    profile shrinks with it.  Profiles that never trip the threshold take no
    samples beyond the n of the grid.
    """
    ts = interval.grid(n)
    prev_t = ts[0]
    prev_v = float(omega_sq(prev_t))
    if not math.isfinite(prev_v):
        raise ProfileError(f"Omega^2 is not finite at t = {prev_t!r}")
    for t in ts[1:]:
        v = float(omega_sq(t))
        if not math.isfinite(v):
            raise ProfileError(f"Omega^2 is not finite at t = {t!r}")
        if abs(v - prev_v) > _jump_tol(prev_v, v):
            _refine_jump(omega_sq, prev_t, prev_v, t, v)
        prev_t, prev_v = t, v


def _refine_jump(omega_sq, t0, v0, t1, v1):
    """Bisect [t0, t1] down to 2^-CONTINUITY_REFINEMENTS of its length; raise
    if the difference never falls below the threshold."""
    for _ in range(CONTINUITY_REFINEMENTS):
        tm = 0.5 * (t0 + t1)
        vm = float(omega_sq(tm))
        if not math.isfinite(vm):
            raise ProfileError(f"Omega^2 is not finite at t = {tm!r}")
        if abs(vm - v0) >= abs(v1 - vm):
            t1, v1 = tm, vm
        else:
            t0, v0 = tm, vm
        if abs(v1 - v0) <= _jump_tol(v0, v1):
            return
    raise ProfileError(
        f"Omega^2 jumps by {abs(v1 - v0):.3e} between t = {t0!r} "
        f"and t = {t1!r}; profiles must be continuous"
    )


def _check_periodicity(omega_sq, interval, period):
    if period <= 0:
        raise ProfileError(f"period must be positive, got {period}")
    for frac in (0.0, 0.17, 0.43, 0.71, 1.0):
        t = interval.t_a + frac * interval.span
        v0 = float(omega_sq(t))
        v1 = float(omega_sq(t + period))
        if abs(v1 - v0) > PERIODICITY_TOL * (1.0 + abs(v0)):
            raise ProfileError(
                f"Omega^2 is not periodic with period {period}: "
                f"values at t = {t} and t + P differ by {abs(v1 - v0):.3e}"
            )


def make_constant_profile(omega: float, interval: Interval) -> FrequencyProfile:
    """Profile with Omega^2(t) = omega^2 everywhere."""
    if omega < 0:
        raise ProfileError(f"omega must be nonnegative, got {omega}")
    w2 = float(omega) * float(omega)
    prof = FrequencyProfile(
        omega_sq=lambda t, _w2=w2: _w2,
        interval=interval,
        kind=KIND_CONSTANT,
        periodic_with=interval.span,
        description=f"constant omega={omega}",
        config={"kind": "constant", "omega": float(omega)},
    )
    _check_continuity(prof.omega_sq, interval)
    return prof


def make_modulated_profile(omega: float, eps: float, nu: float,
                           interval: Interval) -> FrequencyProfile:
    """Profile with Omega^2(t) = omega^2 * (1 + eps*sin(nu*t))."""
    w2 = float(omega) * float(omega)
    e, n = float(eps), float(nu)

    def omega_sq(t, _w2=w2, _e=e, _n=n):
        return _w2 * (1.0 + _e * math.sin(_n * t))

    period = 2.0 * math.pi / abs(n) if n != 0.0 else interval.span
    prof = FrequencyProfile(
        omega_sq=omega_sq,
        interval=interval,
        kind=KIND_MODULATED,
        periodic_with=period,
        description=f"modulated omega={omega} eps={eps} nu={nu}",
        config={"kind": "modulated", "omega": float(omega), "eps": e, "nu": n},
    )
    _check_continuity(prof.omega_sq, interval)
    _check_periodicity(prof.omega_sq, interval, period)
    return prof


def make_user_profile(omega_sq: Callable[[float], float], interval: Interval,
                      periodic_with: Optional[float] = None,
                      description: str = "user") -> FrequencyProfile:
    """Wrap an arbitrary continuous callable as a profile."""
    prof = FrequencyProfile(
        omega_sq=omega_sq,
        interval=interval,
        kind=KIND_USER,
        periodic_with=periodic_with,
        description=description,
    )
    _check_continuity(prof.omega_sq, interval)
    if periodic_with is not None:
        _check_periodicity(prof.omega_sq, interval, periodic_with)
    return prof


def _fd_first(f, t, h):
    return (-f(t + 2 * h) + 8 * f(t + h) - 8 * f(t - h) + f(t - 2 * h)) / (12 * h)


def _fd_second(f, t, h):
    return (-f(t + 2 * h) + 16 * f(t + h) - 30 * f(t)
            + 16 * f(t - h) - f(t - 2 * h)) / (12 * h * h)


def _resolve_derivatives(spec: SyntheticZeroModeSpec):
    h = spec.interval.span * FD_STEP_FACTOR
    xi = spec.xi
    dxi = spec.dxi if spec.dxi is not None else (lambda t: _fd_first(xi, t, h))
    d2xi = spec.d2xi if spec.d2xi is not None else (lambda t: _fd_second(xi, t, h))
    return dxi, d2xi


def _endpoint_limit(xi, d2xi, t0, direction, span):
    """One-sided limit of -xi''/xi at an endpoint where xi vanishes.

    Uses two levels of Richardson extrapolation on the ratio; smooth ratios
    converge (linearly or quadratically) and leave tiny extrapolation
    differences, while a singular endpoint leaves order-one ones.
    """
    h0 = span * 1e-3

    def ratio(h):
        t = t0 + direction * h
        x = xi(t)
        if x == 0.0:
            raise ProfileError(f"shape function vanishes at interior point t = {t!r}")
        return -d2xi(t) / x

    v1, v2, v3 = ratio(h0), ratio(h0 / 2), ratio(h0 / 4)
    l1 = 2 * v2 - v1
    l2 = 2 * v3 - v2
    if not all(math.isfinite(v) for v in (l1, l2)):
        raise ProfileError(f"Omega^2 = -xi''/xi is singular near t = {t0!r}")
    if abs(l2 - l1) > ENDPOINT_LIMIT_TOL * (1.0 + abs(l2)):
        raise ProfileError(
            f"Omega^2 = -xi''/xi does not approach a finite limit at t = {t0!r} "
            f"(successive extrapolations differ by {abs(l2 - l1):.3e})"
        )
    return l2


def make_zero_mode_profile(spec: SyntheticZeroModeSpec) -> FrequencyProfile:
    """Build the profile whose operator annihilates the supplied shape xi.

    Sets Omega^2(t) = -xi''(t)/xi(t) in the interior and the extrapolated
    one-sided limits at the endpoints.  Rejects shapes with interior zeros,
    vanishing endpoint slopes, or endpoint-singular curvature ratios.
    """
    iv = spec.interval
    dxi, d2xi = _resolve_derivatives(spec)
    xi = spec.xi

    # interior zeros make -xi''/xi singular inside the interval
    ts = iv.grid(CONTINUITY_SAMPLES)
    vals = [float(xi(t)) for t in ts]
    xmax = max(abs(v) for v in vals)
    if xmax == 0.0:
        raise ProfileError("shape function is identically zero on the sampling grid")
    for i in range(1, len(ts) - 2):
        if vals[i] * vals[i + 1] < 0.0 or abs(vals[i]) < 1e-12 * xmax:
            raise ProfileError(
                f"shape function has a zero inside the interval near t = {ts[i]!r}"
            )

    slope_a = float(dxi(iv.t_a))
    slope_b = float(dxi(iv.t_b))
    slope_scale = max(abs(slope_a), abs(slope_b), xmax / iv.span)
    if abs(slope_a) <= 1e-8 * slope_scale or abs(slope_b) <= 1e-8 * slope_scale:
        raise ProfileError(
            "shape function must have nonzero slope at both endpoints "
            f"(got {slope_a:.3e} at t_a and {slope_b:.3e} at t_b)"
        )

    lim_a = _endpoint_limit(xi, d2xi, iv.t_a, +1.0, iv.span)
    lim_b = _endpoint_limit(xi, d2xi, iv.t_b, -1.0, iv.span)
    seam = iv.span * 1e-6

    if spec.d2xi is None:
        # The pointwise finite-difference fallback carries roundoff noise of
        # order eps/h^2 that defeats tight-tolerance integration, so tabulate
        # the curvature ratio once and interpolate a smooth representation.
        from scipy.interpolate import CubicSpline

        lo, hi = iv.t_a + seam, iv.t_b - seam
        step = (hi - lo) / (CURVATURE_SPLINE_NODES - 1)
        ts_nodes = [lo + i * step for i in range(CURVATURE_SPLINE_NODES)]
        spline = CubicSpline(ts_nodes,
                             [-d2xi(t) / xi(t) for t in ts_nodes])

        def interior(t):
            return float(spline(t))
    else:
        def interior(t):
            return -d2xi(t) / xi(t)

    def omega_sq(t):
        if t <= iv.t_a + seam:
            return lim_a
        if t >= iv.t_b - seam:
            return lim_b
        return interior(t)

    prof = FrequencyProfile(
        omega_sq=omega_sq,
        interval=iv,
        kind=KIND_SYNTHETIC,
        periodic_with=None,
        description=f"synthetic zero mode '{spec.name}'",
        zero_mode=ZeroModeData(xi=xi, dxi=dxi, d2xi=d2xi, name=spec.name),
        config={"kind": "synthetic", "xi": spec.name},
    )
    _check_continuity(prof.omega_sq, iv)
    return prof


def shifted_profile(profile: FrequencyProfile, shift: float) -> FrequencyProfile:
    """Profile with Omega^2(t) + shift; used for spectral-parameter sweeps."""
    base = profile.omega_sq
    return FrequencyProfile(
        omega_sq=lambda t, _b=base, _s=float(shift): float(_b(t)) + _s,
        interval=profile.interval,
        kind=KIND_USER,
        periodic_with=profile.periodic_with,
        description=f"{profile.description} shifted by {shift}",
    )


def sample_profile(profile: FrequencyProfile, grid_size: int):
    """Evaluate the profile on a uniform grid, returning (t, Omega^2(t)) pairs."""
    pairs = []
    for t in profile.interval.grid(grid_size):
        v = float(profile.omega_sq(t))
        if not math.isfinite(v):
            raise ProfileError(f"Omega^2 is not finite at t = {t!r}")
        pairs.append((t, v))
    return pairs


# ---------------------------------------------------------------------------
# built-in zero-mode shapes


def _sinpi_spec(interval: Interval) -> SyntheticZeroModeSpec:
    a, span = interval.t_a, interval.span
    k = math.pi / span
    return SyntheticZeroModeSpec(
        xi=lambda t: math.sin(k * (t - a)),
        dxi=lambda t: k * math.cos(k * (t - a)),
        d2xi=lambda t: -k * k * math.sin(k * (t - a)),
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

    def xi(t):
        s = math.sin(k * (t - a))
        return s * (1.0 + 0.1 * s * s)

    def dxi(t):
        u = k * (t - a)
        s, c = math.sin(u), math.cos(u)
        return k * c * (1.0 + 0.3 * s * s)

    def d2xi(t):
        u = k * (t - a)
        s, c = math.sin(u), math.cos(u)
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


def profile_to_config(profile: FrequencyProfile) -> dict:
    """Serialize a config-born profile back to its JSON mapping."""
    if profile.config is None:
        raise ConfigError(f"{profile.kind} profile is not representable as a config mapping")
    return dict(profile.config)
