"""Profile construction, validation, and JSON configuration."""

import json
import math

import pytest

import flucdet as fd
from flucdet.profiles import (
    SyntheticZeroModeSpec,
    builtin_zero_mode_spec,
    make_user_profile,
    make_zero_mode_profile,
    profile_from_config,
    profile_to_config,
    sample_profile,
    shifted_profile,
)


class TestInterval:
    def test_span(self):
        assert fd.Interval(-0.5, 2.0).span == 2.5

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            fd.Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            fd.Interval(2.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            fd.Interval(0.0, math.inf)

    def test_grid_endpoints(self):
        g = fd.Interval(0.0, 1.0).grid(5)
        assert g[0] == 0.0 and g[-1] == 1.0 and len(g) == 5

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            fd.Interval(0.0, 1.0).grid(1)


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

    def test_modulated_period_metadata(self, modulated_profile):
        assert modulated_profile.periodic_with == pytest.approx(2.0 * math.pi / 3.0)

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
        assert zm is not None
        assert zm.xi(0.5) == pytest.approx(1.0)
        assert zm.dxi(0.0) == pytest.approx(math.pi)

    def test_rejects_interior_zero(self, unit_interval):
        spec = SyntheticZeroModeSpec(lambda t: math.sin(2.0 * math.pi * t),
                                     unit_interval, name="twonode")
        with pytest.raises(fd.ProfileError):
            make_zero_mode_profile(spec)

    def test_rejects_flat_endpoint_slope(self, unit_interval):
        spec = SyntheticZeroModeSpec(lambda t: t * t * (1.0 - t),
                                     unit_interval, name="flat")
        with pytest.raises(fd.ProfileError):
            make_zero_mode_profile(spec)

    def test_rejects_singular_endpoint_ratio(self, unit_interval):
        # quadratic term at the endpoint zero makes -xi''/xi blow up like 1/t
        spec = SyntheticZeroModeSpec(
            lambda t: math.sin(math.pi * t) * (1.0 + 0.1 * math.sin(2.0 * math.pi * t)),
            unit_interval, name="singular")
        with pytest.raises(fd.ProfileError):
            make_zero_mode_profile(spec)

    def test_finite_difference_fallback(self, unit_interval):
        spec = SyntheticZeroModeSpec(lambda t: math.sin(math.pi * t),
                                     unit_interval, name="fd-only")
        prof = make_zero_mode_profile(spec)
        assert prof(0.37) == pytest.approx(math.pi ** 2, rel=1e-6)

    def test_unknown_builtin_name(self, unit_interval):
        with pytest.raises(fd.ConfigError, match="sinpi"):
            builtin_zero_mode_spec("nope", unit_interval)


class TestHelpers:
    def test_shifted_profile(self, const_profile):
        shifted = shifted_profile(const_profile, 2.5)
        assert shifted(0.4) == pytest.approx(3.5)

    def test_sample_profile(self, const2_profile):
        pairs = sample_profile(const2_profile, 5)
        assert len(pairs) == 5
        assert pairs[0][0] == 0.0 and pairs[-1][0] == 1.0
        assert all(v == pytest.approx(4.0) for _, v in pairs)


class TestConfig:
    def test_constant_roundtrip(self, unit_interval):
        cfg = {"kind": "constant", "omega": 2.0}
        prof = profile_from_config(cfg, unit_interval)
        assert profile_to_config(prof) == cfg
        assert prof(0.1) == pytest.approx(4.0)

    def test_modulated_roundtrip(self, unit_interval):
        cfg = {"kind": "modulated", "omega": 1.0, "eps": 0.2, "nu": 3.0}
        prof = profile_from_config(cfg, unit_interval)
        assert profile_to_config(prof) == cfg

    def test_synthetic_roundtrip(self, unit_interval):
        cfg = {"kind": "synthetic", "xi": "sinpi"}
        prof = profile_from_config(cfg, unit_interval)
        assert profile_to_config(prof) == cfg
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
