"""Profile construction, validation, and JSON configuration."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import flucdet as fd
from flucdet.determinants import van_vleck_check
from flucdet import odesolve, profiles
from flucdet.green import GreenKernel, trace_omega_sq
from flucdet.odesolve import make_basis
from flucdet.oracle import gflow_ratio, lattice_ratio
from flucdet.profiles import (
    CONTINUITY_REFINEMENTS,
    CONTINUITY_SAMPLES,
    SyntheticZeroModeSpec,
    _jump_tol,
    _on_arrays,
    builtin_zero_mode_spec,
    make_user_profile,
    make_zero_mode_profile,
    profile_from_config,
)


class TestInterval:
    def test_span(self):
        assert fd.Interval(-0.5, 2.0).span == 2.5

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            fd.Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            fd.Interval(2.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_rejects_nonfinite(self):
        """A NaN or infinite end, or finite ends whose span t_b - t_a
        overflows, is refused by name before numpy can warn downstream; the
        largest finite span is an interval."""
        for t_a, t_b in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (math.inf, math.inf),
                         (-1e308, 1e308), (-9e307, 9e307)):
            with pytest.raises(ValueError, match="ends and span t_b - t_a must be finite"):
                fd.Interval(t_a, t_b)
        assert fd.Interval(-1e308, 7e307).span == 1.7e308

    def test_grid_endpoints(self):
        g = fd.Interval(0.0, 1.0).grid(5)
        assert g[0] == 0.0 and g[-1] == 1.0 and len(g) == 5

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            fd.Interval(0.0, 1.0).grid(1)

    @pytest.mark.parametrize("n", [3.0000001, 2.5, math.nan, math.inf])
    def test_grid_size_must_be_an_integer(self, n):
        """A size that is not a finite integer is refused by name, where it
        gave a point past t_b (3.0000001), too few points (2.5) or numpy's
        arange error (nan); an integral float is a size."""
        with pytest.raises(ValueError, match=f"grid size n must be a finite integer, got {n!r}"):
            fd.Interval(0.0, 1.0).grid(n)
        assert np.array_equal(fd.Interval(0.0, 1.0).grid(4.0), fd.Interval(0.0, 1.0).grid(4))


class TestFactories:
    def test_constant_value(self, const2_profile):
        assert const2_profile(0.3) == pytest.approx(4.0, abs=0.0)

    def test_constant_rejects_negative_omega(self, unit_interval):
        with pytest.raises(fd.ProfileError):
            fd.make_constant_profile(-1.0, unit_interval)

    def test_modulated_values(self, modulated_profile):
        for t in (0.0, 0.7, 1.9):
            expected = 1.0 + 0.2 * math.sin(3.0 * t)
            assert modulated_profile(t) == pytest.approx(expected, rel=1e-15)

    def test_user_profile_accepts_smooth(self, unit_interval):
        prof = make_user_profile(lambda t: 1.0 + t * t, unit_interval)
        assert prof(0.5) == pytest.approx(1.25)

    @pytest.mark.parametrize("omega,eps,nu,span", [(1.0, 0.5, 10.0, 10.0),
                                                   (1.0, 0.9, 1.0, 40.0)])
    def test_steep_smooth_profile_accepted(self, omega, eps, nu, span):
        # per-sample differences exceed the jump threshold but shrink on refinement
        prof = fd.make_modulated_profile(omega, eps, nu, fd.Interval(0.0, span))
        assert prof(1.0) == pytest.approx(1.0 + eps * math.sin(nu), rel=1e-15)

    def test_user_profile_rejects_jump(self, unit_interval):
        with pytest.raises(fd.ProfileError):
            make_user_profile(lambda t: 0.0 if t < 0.5 else 10.0, unit_interval)
        # a jump among thousands of flagged steps of a steep smooth background
        # is still refused, and the reported interval brackets it
        with pytest.raises(fd.ProfileError, match="jumps") as refused:
            make_user_profile(lambda t: 1.0 + 0.5 * math.sin(10.0 * t) + (t >= 6.3),
                              fd.Interval(0.0, 10.0))
        t0, t1 = map(float, re.findall(r"t = (\S+?)(?: |;)", str(refused.value)))
        assert t0 < 6.3 <= t1

    def test_flagged_steps_bisected_together(self):
        # 1 + 0.5 sin(10 t) on [0, 10] trips the jump threshold on thousands
        # of sample steps; an array callable is sampled once on the grid and
        # at most once per bisection level for all of them
        calls = []

        @_on_arrays
        def omega_sq(t):
            calls.append(np.size(t))
            return 1.0 + 0.5 * np.sin(10.0 * t)

        iv = fd.Interval(0.0, 10.0)
        ts = iv.grid(CONTINUITY_SAMPLES)
        vs = omega_sq(ts)
        assert np.sum(np.abs(np.diff(vs)) > _jump_tol(vs[:-1], vs[1:])) > 1000
        calls.clear()
        make_user_profile(omega_sq, iv)
        assert 1 < len(calls) <= 1 + CONTINUITY_REFINEMENTS

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_user_profile_rejects_nonfinite_samples(self, unit_interval, bad):
        with pytest.raises(fd.ProfileError, match="Omega\\^2 is not finite at t = 0.5"):
            make_user_profile(lambda t: bad if t > 0.5 else 1.0, unit_interval)

    @pytest.mark.parametrize("earlier_jump,message", [
        (False, "Omega^2 is not finite at t = 0.50010001"),
        (True, "Omega^2 jumps by 1.000e+00 between t = 0.2499"),
    ], ids=["earliest", "earlier-jump-wins"])
    def test_nonfinite_bisection_midpoint(self, unit_interval, earlier_jump, message):
        """Omega^2 steps by 1 across the grid step [ts[5000], ts[5001]] and is
        infinite at its midpoint, the first point the bisection samples there:
        refused as not finite, unless a jump in an earlier step (at 0.25)
        outlives the bisection."""
        ts = unit_interval.grid(CONTINUITY_SAMPLES)
        mid = 0.5 * (ts[5000] + ts[5001])

        def omega_sq(t):
            if t == mid:
                return math.inf
            return 1.0 + (t > mid) + (earlier_jump and t >= 0.25)

        with pytest.raises(fd.ProfileError, match=re.escape(message)):
            make_user_profile(omega_sq, unit_interval)


class TestZeroModeShapes:
    def test_sinpi_recovers_constant_curvature(self, sinpi_profile):
        for t in (0.0, 0.21, 0.5, 0.83, 1.0):
            assert sinpi_profile(t) == pytest.approx(math.pi ** 2, rel=1e-9)

    def test_sinpi_bump_endpoint_limits(self, sinpi_bump_profile):
        # xi = sin(u)(1 + 0.1 sin^2 u) gives -xi''/xi -> 0.4 pi^2 at both
        # ends; the endpoint constant is an extrapolated limit with a small
        # O(h^2) residual and only governs the thin seam region.
        assert sinpi_bump_profile(0.0) == pytest.approx(0.4 * math.pi ** 2, rel=1e-5)
        assert sinpi_bump_profile(1.0) == pytest.approx(0.4 * math.pi ** 2, rel=1e-5)

    def test_zero_mode_data_attached(self, sinpi_profile):
        zm = sinpi_profile.zero_mode
        assert isinstance(zm, SyntheticZeroModeSpec)
        assert zm.name == "sinpi" and zm.interval == sinpi_profile.interval
        assert zm.xi(0.5) == pytest.approx(1.0)
        assert zm.dxi(0.0) == pytest.approx(math.pi)

    def test_rejects_interior_zero(self, unit_interval):
        k = 2.0 * math.pi
        spec = SyntheticZeroModeSpec(lambda t: math.sin(k * t), unit_interval,
                                     dxi=lambda t: k * math.cos(k * t),
                                     d2xi=lambda t: -k * k * math.sin(k * t), name="twonode")
        with pytest.raises(fd.ProfileError):
            make_zero_mode_profile(spec)

    def test_rejects_flat_endpoint_slope(self, unit_interval):
        spec = SyntheticZeroModeSpec(lambda t: t * t * (1.0 - t), unit_interval,
                                     dxi=lambda t: 2.0 * t - 3.0 * t * t,
                                     d2xi=lambda t: 2.0 - 6.0 * t, name="flat")
        with pytest.raises(fd.ProfileError):
            make_zero_mode_profile(spec)

    def test_rejects_singular_endpoint_ratio(self, unit_interval):
        # quadratic term at the endpoint zero makes -xi''/xi blow up like 1/t
        k = math.pi

        def xi(t):
            return math.sin(k * t) * (1.0 + 0.1 * math.sin(2.0 * k * t))

        def dxi(t):
            return (k * math.cos(k * t) * (1.0 + 0.1 * math.sin(2.0 * k * t))
                    + 0.2 * k * math.sin(k * t) * math.cos(2.0 * k * t))

        def d2xi(t):
            return (-k * k * xi(t) + 0.4 * k * k * math.cos(k * t) * math.cos(2.0 * k * t)
                    - 0.4 * k * k * math.sin(k * t) * math.sin(2.0 * k * t))

        spec = SyntheticZeroModeSpec(xi, unit_interval, dxi=dxi, d2xi=d2xi, name="singular")
        with pytest.raises(fd.ProfileError):
            make_zero_mode_profile(spec)

    def test_rejects_non_finite_endpoint_ratio(self, unit_interval):
        """-xi''/xi that overflows near t_a is refused as singular there, under
        numpy's default error state: the profile silences the overflow, since
        the refusal names it."""
        spec = SyntheticZeroModeSpec(lambda t: math.sin(math.pi * t), unit_interval,
                                     dxi=lambda t: math.pi * math.cos(math.pi * t),
                                     d2xi=lambda t: 1e308, name="overflow")
        with pytest.raises(fd.ProfileError,
                           match=r"Omega\^2 = -xi''/xi is singular near t = 0\.0$"):
            make_zero_mode_profile(spec)

    def test_rejects_non_finite_ratio_at_t_b(self, unit_interval):
        """The same overflow near t_b alone, past a finite limit at t_a, is
        refused as singular at t_b, with no warning either."""
        spec = SyntheticZeroModeSpec(
            lambda t: math.sin(math.pi * t), unit_interval,
            dxi=lambda t: math.pi * math.cos(math.pi * t),
            d2xi=lambda t: 1e308 if t > 0.5 else -math.pi ** 2 * math.sin(math.pi * t),
            name="overflow-b")
        with pytest.raises(fd.ProfileError,
                           match=r"Omega\^2 = -xi''/xi is singular near t = 1\.0$"):
            make_zero_mode_profile(spec)

    def test_rejects_identically_zero_shape(self, unit_interval):
        spec = SyntheticZeroModeSpec(lambda t: 0.0, unit_interval, dxi=lambda t: 0.0,
                                     d2xi=lambda t: 0.0, name="zero")
        with pytest.raises(fd.ProfileError, match="identically zero"):
            make_zero_mode_profile(spec)

    def test_unknown_builtin_name(self, unit_interval):
        with pytest.raises(fd.ConfigError, match="sinpi"):
            builtin_zero_mode_spec("nope", unit_interval)


class TestConfig:
    def test_constant_roundtrip(self, unit_interval):
        cfg = {"kind": "constant", "omega": 2.0}
        prof = profile_from_config(cfg, unit_interval)
        assert prof.config == cfg
        assert prof(0.1) == pytest.approx(4.0)

    def test_modulated_roundtrip(self, unit_interval):
        cfg = {"kind": "modulated", "omega": 1.0, "eps": 0.2, "nu": 3.0}
        prof = profile_from_config(cfg, unit_interval)
        assert prof.config == cfg

    def test_synthetic_roundtrip(self, unit_interval):
        cfg = {"kind": "synthetic", "xi": "sinpi"}
        prof = profile_from_config(cfg, unit_interval)
        assert prof.config == cfg
        assert prof.zero_mode is not None

    def test_json_string_accepted(self, unit_interval):
        prof = profile_from_config('{"kind": "constant", "omega": 1.5}', unit_interval)
        assert prof(0.0) == pytest.approx(2.25)

    def test_unknown_kind_named(self, unit_interval):
        with pytest.raises(fd.ConfigError, match="bogus"):
            profile_from_config({"kind": "bogus"}, unit_interval)

    def test_unknown_key_named(self, unit_interval):
        with pytest.raises(fd.ConfigError, match="extra"):
            profile_from_config({"kind": "constant", "omega": 1.0, "extra": 3},
                                unit_interval)

    def test_missing_key_named(self, unit_interval):
        with pytest.raises(fd.ConfigError, match="omega"):
            profile_from_config({"kind": "constant"}, unit_interval)

    def test_non_numeric_value(self, unit_interval):
        with pytest.raises(fd.ConfigError):
            profile_from_config({"kind": "constant", "omega": "one"}, unit_interval)

    def test_invalid_json_text(self, unit_interval):
        with pytest.raises(fd.ConfigError):
            profile_from_config("{not json", unit_interval)

    def test_non_object_refused(self, unit_interval):
        with pytest.raises(fd.ConfigError, match="must be a JSON object"):
            profile_from_config("[1]", unit_interval)

    def test_synthetic_shape_must_be_a_name(self, unit_interval):
        with pytest.raises(fd.ConfigError, match="must name a built-in shape, got 3"):
            profile_from_config({"kind": "synthetic", "xi": 3}, unit_interval)

    def test_user_profile_not_representable(self, unit_interval):
        profile = make_user_profile(lambda t: 1.0, unit_interval, description="flat")
        assert profile.config is None

    @pytest.mark.parametrize("config,iv,name", [
        ({"kind": "constant", "omega": math.nan}, (0.0, 1.0), "omega"),
        ({"kind": "constant", "omega": 1e200}, (0.0, 1.0), "omega^2"),
        ({"kind": "modulated", "omega": 1.0, "eps": math.nan, "nu": 3.0}, (0.0, 1.0), "eps"),
        ({"kind": "modulated", "omega": 1.0, "eps": 0.2, "nu": math.inf}, (0.0, 1.0), "nu"),
        ({"kind": "modulated", "omega": 1e154, "eps": 1.0, "nu": 1.0}, (0.0, 10.0),
         "omega^2 (1 + |eps|)"),
        ({"kind": "modulated", "omega": 1.0, "eps": 0.2, "nu": 1e308}, (0.0, 10.0),
         "nu max(|t_a|, |t_b|)"),
    ], ids=["constant-omega-nan", "constant-omega-1e200", "modulated-eps-nan",
            "modulated-nu-inf", "modulated-omega-1e154", "modulated-nu-1e308"])
    def test_nonfinite_parameters_refused(self, monkeypatch, config, iv, name):
        """Parameters whose Omega^2 is not finite somewhere on the interval
        are refused with a profile error that names the parameter or bound
        that failed, before Omega^2 is evaluated: no numpy warning (errors
        here) and no sampling.  omega^2 overflows for omega = 1e200, omega^2
        (1 + eps sin(nu t)) where sin(t) > 0.8 for omega = 1e154, and sin's
        argument for nu = 1e308 on [0, 10]; NaN and inf propagate."""
        monkeypatch.setattr(profiles, "_check_continuity", _no_sampling)
        with pytest.raises(fd.ProfileError, match=f"^{re.escape(name)} must be finite"):
            profile_from_config(config, fd.Interval(*iv))

    def test_builtin_kinds_take_no_samples(self, monkeypatch, unit_interval):
        """constant and modulated profiles are checked by their parameters;
        user and synthetic zero-mode profiles still by sampling."""
        monkeypatch.setattr(profiles, "_check_continuity", _no_sampling)
        for prof in (fd.make_constant_profile(2.0, unit_interval),
                     fd.make_modulated_profile(1.5, 0.5, 40.0, unit_interval),
                     profile_from_config({"kind": "constant", "omega": 2.0}, unit_interval),
                     profile_from_config({"kind": "modulated", "omega": 1.5, "eps": 0.5,
                                          "nu": 40.0}, unit_interval)):
            assert math.isfinite(prof(0.5))
        with pytest.raises(AssertionError, match="sampled"):
            make_user_profile(lambda t: 1.0 + t, unit_interval)
        with pytest.raises(AssertionError, match="sampled"):
            make_zero_mode_profile(builtin_zero_mode_spec("sinpi", unit_interval))


def _no_sampling(omega_sq, interval, vs=None):
    raise AssertionError("Omega^2 sampled for the continuity check")


def assert_array_contract(omega_sq, iv):
    """omega_sq on an array equals the scalar calls exactly and keeps the
    array's shape: 0-d, 1-d, (n, 1), (1, n) and their (n, n) broadcast."""
    # synthetic profiles switch to their endpoint limits at a seam of
    # 1e-6 * span: probe inside it, on it and just beyond it
    ts = np.array([iv.t_a, iv.t_a + 1e-7 * iv.span, iv.t_a + iv.span * 1e-6,
                   iv.t_a + 2e-6 * iv.span, iv.t_a + 0.13 * iv.span,
                   iv.t_a + 0.5 * iv.span, iv.t_a + 0.91 * iv.span,
                   iv.t_b - iv.span * 1e-6, iv.t_b - 1e-7 * iv.span, iv.t_b])
    for t in ts.tolist():
        value = omega_sq(np.array(t))
        assert np.shape(value) == () and value == omega_sq(t)
    for arr in (ts, ts[:, None], ts[None, :], 0.5 * (ts[:, None] + ts[None, :])):
        values = omega_sq(arr)
        expected = [omega_sq(t) for t in arr.ravel().tolist()]
        assert values.shape == arr.shape
        assert np.array_equal(values.ravel(), expected)


class TestArrayContract:
    def test_constant_and_modulated(self, const2_profile, modulated_profile):
        for prof in (const2_profile, modulated_profile):
            assert_array_contract(prof.omega_sq, prof.interval)

    @pytest.mark.parametrize("name", ["sinpi", "sinpi_bump"])
    def test_builtin_zero_mode_shapes(self, name):
        iv = fd.Interval(-0.4, 1.3)
        prof = make_zero_mode_profile(builtin_zero_mode_spec(name, iv))
        assert_array_contract(prof.omega_sq, iv)
        for fn in (prof.zero_mode.xi, prof.zero_mode.dxi, prof.zero_mode.d2xi):
            assert_array_contract(fn, iv)

    @pytest.mark.parametrize("derivatives", [True])
    def test_user_shapes(self, unit_interval, derivatives):
        # scalar-only shapes and their derivatives
        k = math.pi
        spec = SyntheticZeroModeSpec(
            lambda t: math.sin(k * t), unit_interval,
            dxi=lambda t: k * math.cos(k * t), d2xi=lambda t: -k * k * math.sin(k * t))
        prof = make_zero_mode_profile(spec)
        assert_array_contract(prof.omega_sq, unit_interval)
        for fn in (prof.zero_mode.xi, prof.zero_mode.dxi, prof.zero_mode.d2xi):
            assert_array_contract(fn, unit_interval)

    def test_user_profile(self, unit_interval):
        prof = make_user_profile(lambda t: 1.0 + 0.5 * math.cos(2.0 * t), unit_interval)
        assert_array_contract(prof.omega_sq, unit_interval)

    def test_shifted_and_flow_profiles(self, modulated_profile):
        iv = modulated_profile.interval
        # the coupling flow samples V_s = 1.3^2 + s (Omega^2 - 1.3^2) as the
        # members (c0, c1) = (1.3^2 (1 - s), s) of one array call: each
        # member's slice is that member sampled alone, and the value is V_s
        s = np.array([0.0, 0.4, 1.0])
        grid = odesolve._MagnusGrid(modulated_profile.omega_sq, 1.69 * (1.0 - s), s, iv, 16)
        starts = grid.starts(0, grid.n)
        samples = grid.sample(starts, grid.h)
        assert samples.shape == (4, grid.n, s.size)
        for j in range(s.size):
            alone = odesolve._MagnusGrid(grid.omega_sq, grid.c0[j], grid.c1[j], iv, grid.n)
            assert np.array_equal(samples[..., j], alone.sample(starts, grid.h))
        ts = (starts + 0.5 * grid.h) + (0.5 * grid.h) * odesolve._GAUSS_X[:, None]
        np.testing.assert_allclose(
            -samples[..., 1], 1.69 + 0.4 * (modulated_profile.omega_sq(ts) - 1.69),
            rtol=1e-15, atol=0.0)

    def test_scalar_only_callable_everywhere(self):
        # math.sin refuses arrays, so every array sample goes through the lift
        iv = fd.Interval(0.0, 2.0)
        user = make_user_profile(lambda t: 1.0 + 0.2 * math.sin(3.0 * t), iv)
        builtin = fd.make_modulated_profile(1.0, 0.2, 3.0, iv)

        def routes(prof):
            yield van_vleck_check(prof)
            yield gflow_ratio(prof, "periodic", omega0=1.0, g_steps=8)
            for bc in ("dirichlet", "periodic"):
                yield trace_omega_sq(GreenKernel(make_basis(prof), bc))
                yield lattice_ratio(prof, bc, 1.0, 400)

        for got, want in zip(routes(user), routes(builtin)):
            assert got == pytest.approx(want, rel=1e-12)


def counting(fn):
    """fn and the list of the times it is called with."""
    calls = []

    def counted(t):
        calls.append(t)
        return fn(t)

    return counted, calls


class TestLift:
    """A user callable is used on arrays when one call on the continuity
    grid returns its shape (or one number) equal to its float calls at five
    points; any other callable goes element by element, as before."""

    TIMES = np.linspace(0.0, 1.0, 7)

    def array_calls(self, fn, iv):
        """The calls of fn that one array of 7 times costs once fn is lifted."""
        counted, calls = counting(fn)
        lifted, _ = profiles._lift(counted, iv)
        calls.clear()
        assert lifted(self.TIMES).shape == self.TIMES.shape
        return len(calls)

    @pytest.mark.parametrize("fn", [lambda t: -4.0, lambda t: 1.0 + t * t],
                             ids=["constant", "quadratic"])
    def test_array_callables_take_arrays(self, fn, unit_interval):
        assert self.array_calls(fn, unit_interval) == 1
        assert_array_contract(make_user_profile(fn, unit_interval).omega_sq, unit_interval)

    @pytest.mark.parametrize("fn", [
        lambda t: 1.0 + 0.5 * math.cos(2.0 * t),  # math refuses arrays
        lambda t: 2.0 if t < 0.5 else 2.0 + (t - 0.5) ** 2,  # an array has no truth value
        lambda t: np.max(t),  # agrees with its float calls at t_b only
        lambda t: np.transpose(1.0 + t * t),  # another shape on the (1, n) grid
    ], ids=["math", "raises", "disagrees", "shape"])
    def test_other_callables_element_by_element(self, fn, unit_interval):
        assert self.array_calls(fn, unit_interval) == self.TIMES.size
        assert_array_contract(make_user_profile(fn, unit_interval).omega_sq, unit_interval)

    @pytest.mark.parametrize("case", ["jump", "nonfinite", "midpoint"])
    def test_refusals_match_element_by_element(self, case, unit_interval):
        """The jump, non-finite and bisection-midpoint refusals of
        TestFactories, from a float callable and from its array form."""
        ts = unit_interval.grid(CONTINUITY_SAMPLES)
        mid = 0.5 * (ts[5000] + ts[5001])
        floats, arrays = {
            "jump": (lambda t: 0.0 if t < 0.5 else 10.0,
                     lambda t: np.where(t < 0.5, 0.0, 10.0)),
            "nonfinite": (lambda t: math.inf if t > 0.5 else 1.0,
                          lambda t: np.where(t > 0.5, np.inf, 1.0)),
            "midpoint": (lambda t: math.inf if t == mid else 1.0 + (t > mid),
                         lambda t: np.where(t == mid, np.inf, 1.0 + (t > mid))),
        }[case]
        assert self.array_calls(floats, unit_interval) == self.TIMES.size
        assert self.array_calls(arrays, unit_interval) == 1
        messages = []
        for fn in (floats, arrays):
            with pytest.raises(fd.ProfileError) as refused:
                make_user_profile(fn, unit_interval)
            messages.append(str(refused.value))
        assert messages[0] == messages[1]

    def test_constant_callable_called_a_few_times(self):
        """make_user_profile and make_basis of Omega^2 = -(30/12)^2 on
        [-20, -8] call it 8 times (10,576 element by element: the continuity
        grid and every Gauss node of two Magnus levels): the probe on the
        grid, whose values the continuity check reads, its five points, and
        the 64 coarse steps and the 128 of the first pair, with the same M12."""
        counted, calls = counting(lambda t: -(30.0 / 12.0) ** 2)
        basis = make_basis(make_user_profile(counted, fd.Interval(-20.0, -8.0)))
        assert len(calls) == 8
        assert fd.det_dirichlet(basis).value == 2137294916304.9014

    def test_user_profile_samples_grid_once(self, unit_interval):
        """make_user_profile evaluates the callable once per point of the
        continuity grid: one array call, the probe, whose values the check
        reads, or, where that call fails, the check's float calls."""
        sizes = []
        for fn in (lambda t: 1.0 + t * t, lambda t: 1.0 + math.cos(t)):
            counted, calls = counting(fn)
            make_user_profile(counted, unit_interval)
            sizes.append([np.size(t) for t in calls])
        assert sizes == [[CONTINUITY_SAMPLES] + [1] * 5,
                         [CONTINUITY_SAMPLES] + [1] * CONTINUITY_SAMPLES]

    def test_zero_mode_shape_samples_grid_once(self, unit_interval, monkeypatch):
        """make_zero_mode_profile evaluates xi, xi' and xi'' on the continuity
        grid once each, in their probes: the zero and continuity checks read
        those values, which are Omega^2's on the grid bit for bit."""
        spec = SyntheticZeroModeSpec(
            lambda t: t * (1.0 - t) * (1.0 + t * (1.0 - t)), unit_interval,
            dxi=lambda t: (1.0 - 2.0 * t) * (1.0 + 2.0 * t * (1.0 - t)),
            d2xi=lambda t: -12.0 * t * (1.0 - t))
        counts = []
        for name in ("xi", "dxi", "d2xi"):
            counted, calls = counting(getattr(spec, name))
            spec = replace(spec, **{name: counted})
            counts.append(calls)
        handed, check = [], profiles._check_continuity
        monkeypatch.setattr(profiles, "_check_continuity",
                            lambda om, iv, vs=None: handed.append(vs) or check(om, iv, vs))
        prof = make_zero_mode_profile(spec)
        assert [[np.size(t) for t in calls].count(CONTINUITY_SAMPLES)
                for calls in counts] == [1, 1, 1]
        ts = unit_interval.grid(CONTINUITY_SAMPLES)
        assert np.array_equal(handed[0], prof.omega_sq(ts))

    def test_zero_mode_shape_takes_arrays(self, unit_interval):
        """xi = s + s^2 with s = t (1 - t), so Omega^2 = -xi''/xi = 12 / (1 + s)."""
        spec = SyntheticZeroModeSpec(
            lambda t: t * (1.0 - t) * (1.0 + t * (1.0 - t)), unit_interval,
            dxi=lambda t: (1.0 - 2.0 * t) * (1.0 + 2.0 * t * (1.0 - t)),
            d2xi=lambda t: -12.0 * t * (1.0 - t))
        for fn in (spec.xi, spec.dxi, spec.d2xi):
            assert self.array_calls(fn, unit_interval) == 1
        prof = make_zero_mode_profile(spec)
        assert prof(0.5) == pytest.approx(12.0 / 1.25, rel=1e-14)
        assert_array_contract(prof.omega_sq, unit_interval)
        for fn in (prof.zero_mode.xi, prof.zero_mode.dxi, prof.zero_mode.d2xi):
            assert_array_contract(fn, unit_interval)
