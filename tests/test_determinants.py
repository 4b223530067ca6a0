"""Endpoint determinants, trace identity, action check, zero-mode paths."""

import math

import pytest

import flucdet as fd
from flucdet.determinants import (
    det_antiperiodic,
    det_dirichlet,
    det_dirichlet_regularized,
    det_periodic,
    det_periodic_regularized,
    determinant,
    free_reference,
    trace_identity_residual,
    van_vleck_check,
    _wrapped_difference_quotient,
)
from flucdet.odesolve import make_basis

SIN_1 = 0.8414709848078965
SIN_2_OVER_2 = 0.45464871341284085
SIN_25 = 0.5984721441039565
SIN_4_OVER_2 = -0.3784012476539641
FOUR_SIN_SQ_HALF = 0.9193953882637205
FOUR_COS_SQ_HALF = 3.0806046117362795
NEG_HALF_INV_PI_SQ = -0.050660591821168885


def const(omega, t_a=0.0, t_b=1.0):
    return fd.make_constant_profile(omega, fd.Interval(t_a, t_b))


class TestFreeReference:
    def test_values(self):
        assert free_reference("dirichlet", 2.0) == pytest.approx(2.0)
        assert free_reference("dirichlet", 1.0, 2.0) == pytest.approx(
            SIN_2_OVER_2, rel=1e-14)
        assert free_reference("periodic", 1.0, 1.0) == pytest.approx(
            FOUR_SIN_SQ_HALF, rel=1e-14)
        assert free_reference("antiperiodic", 1.0, 1.0) == pytest.approx(
            FOUR_COS_SQ_HALF, rel=1e-14)

    def test_bad_bc(self):
        with pytest.raises(ValueError):
            free_reference("robin", 1.0)


class TestDirichlet:
    @pytest.mark.parametrize("omega,t_b,expected", [
        (1.0, 1.0, SIN_1),
        (2.0, 1.0, SIN_2_OVER_2),
        (1.0, 2.5, SIN_25),
        (2.0, 2.0, SIN_4_OVER_2),
    ])
    def test_constant_frequency(self, omega, t_b, expected):
        result = det_dirichlet(make_basis(const(omega, 0.0, t_b)))
        assert result.value == pytest.approx(expected, rel=1e-10)
        assert result.ratio == pytest.approx(expected / t_b, rel=1e-10)
        assert result.reference == "free"

    @pytest.mark.parametrize("t_b", [1.0, 3.0])
    def test_free_equals_span(self, t_b):
        result = det_dirichlet(make_basis(const(0.0, 0.0, t_b)))
        assert result.value == pytest.approx(t_b, rel=1e-10)
        assert result.ratio == pytest.approx(1.0, rel=1e-10)

    def test_negative_value_sign(self):
        result = det_dirichlet(make_basis(const(2.0, 0.0, 2.0)))
        assert result.value < 0.0

    def test_diagnostics_keys(self, const_profile):
        basis = make_basis(const_profile)
        result = det_dirichlet(basis)
        assert set(result.diagnostics) == {"w", "endpoint_det", "condition", "steps",
                                           "error_estimate", "det_m_residual"}
        assert result.diagnostics["w"] == pytest.approx(-1.0)
        assert result.diagnostics["condition"] >= 1.0
        assert result.diagnostics["steps"] == len(basis.knots) - 1
        assert 0.0 <= result.diagnostics["error_estimate"] <= 1e-12
        assert 0.0 <= result.diagnostics["det_m_residual"] <= 1e-14


class TestWrapped:
    def test_constant_values(self, const_profile):
        basis = make_basis(const_profile)
        per = det_periodic(basis, omega0=1.0)
        anti = det_antiperiodic(basis, omega0=1.0)
        assert per.value == pytest.approx(FOUR_SIN_SQ_HALF, rel=1e-10)
        assert anti.value == pytest.approx(FOUR_COS_SQ_HALF, rel=1e-10)
        assert per.reference == "constant-frequency"

    def test_matched_reference_ratios(self, const_profile):
        basis = make_basis(const_profile)
        assert det_periodic(basis, omega0=1.0).ratio == pytest.approx(
            1.0, abs=1e-10)
        assert det_antiperiodic(basis, omega0=1.0).ratio == pytest.approx(
            1.0, abs=1e-10)

    def test_free_wrapped_values(self, free_profile):
        basis = make_basis(free_profile)
        per = det_periodic(basis, omega0=1.0)
        anti = det_antiperiodic(basis, omega0=1.0)
        assert per.value == pytest.approx(0.0, abs=1e-10)
        assert anti.value == pytest.approx(4.0, rel=1e-10)

    def test_degenerate_reference_rejected(self, const_profile):
        basis = make_basis(const_profile)
        with pytest.raises(fd.DegenerateOperatorError, match="omega0"):
            det_periodic(basis, omega0=2.0 * math.pi)

    def test_period_compatibility_flag(self, seam_profile, modulated_profile):
        compatible = det_periodic(make_basis(seam_profile), omega0=1.0)
        assert compatible.diagnostics["profile_period_compatible"] is True
        clipped = det_periodic(make_basis(modulated_profile), omega0=1.0)
        assert clipped.diagnostics["profile_period_compatible"] is False


class TestConvenienceEntry:
    def test_matches_direct_calls(self, modulated_profile):
        basis = make_basis(modulated_profile)
        for bc, direct in (("dirichlet", det_dirichlet(basis)),
                           ("periodic", det_periodic(basis, 1.0)),
                           ("antiperiodic", det_antiperiodic(basis, 1.0))):
            via = determinant(modulated_profile, bc=bc, omega0=1.0)
            assert via.value == pytest.approx(direct.value, rel=1e-12)
            assert via.bc == bc

    def test_coupling_argument(self, const_profile):
        scaled = determinant(const_profile, g=4.0)
        assert scaled.value == pytest.approx(math.sin(2.0) / 2.0, rel=1e-10)

    def test_bad_bc(self, const_profile):
        with pytest.raises(ValueError):
            determinant(const_profile, bc="neumann")


class TestTraceIdentity:
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    @pytest.mark.parametrize("g", [0.2, 0.5, 0.8])
    def test_residual_small(self, modulated_profile, bc, g):
        lhs, rhs, rel = trace_identity_residual(modulated_profile, bc, g)
        assert math.isfinite(lhs) and math.isfinite(rhs)
        assert rel <= 1e-5


class TestVanVleck:
    def test_constant_profile(self, const_profile):
        value = van_vleck_check(const_profile)
        assert value == pytest.approx(SIN_1, rel=1e-5)

    def test_mass_independent_result(self, const_profile):
        v1 = van_vleck_check(const_profile, mass=1.0)
        v2 = van_vleck_check(const_profile, mass=2.0)
        assert v2 == pytest.approx(v1, rel=1e-9)

    def test_modulated_profile(self, modulated_profile):
        expected = det_dirichlet(make_basis(modulated_profile)).value
        assert van_vleck_check(modulated_profile) == pytest.approx(
            expected, rel=1e-5)

    def test_focal_interval(self):
        with pytest.raises(fd.DegenerateOperatorError):
            van_vleck_check(const(1.0, 0.0, math.pi))

    def test_zero_mass_rejected(self, const_profile):
        with pytest.raises(ValueError):
            van_vleck_check(const_profile, mass=0.0)

    @pytest.mark.parametrize("kt", [10.0, 30.0, 60.0])
    def test_hyperbolic(self, kt):
        """Omega^2 = -k^2 on [0, 3]: M12 = sinh(kT) / k, read without
        subtracting growing solutions."""
        k = kt / 3.0
        profile = fd.make_user_profile(lambda t: -k * k, fd.Interval(0.0, 3.0))
        assert van_vleck_check(profile) == pytest.approx(math.sinh(kt) / k, rel=1e-9)


class TestDirichletZeroMode:
    def test_sine_mode_report(self, sinpi_profile):
        report = det_dirichlet_regularized(sinpi_profile)
        assert report.xi_norm_sq == pytest.approx(0.5, rel=1e-8)
        assert report.dxi_a == pytest.approx(math.pi, rel=1e-8)
        assert report.dxi_b == pytest.approx(-math.pi, rel=1e-8)
        assert report.det_regularized == pytest.approx(
            NEG_HALF_INV_PI_SQ, rel=1e-6)
        assert report.check_residual <= 1e-3
        assert report.quotient_extrapolated == pytest.approx(
            report.det_regularized, rel=1e-3)

    def test_eps_chain_consistency(self, sinpi_profile):
        report = det_dirichlet_regularized(sinpi_profile)
        # one Richardson step in eps: q* = 2 q(eps/2) - q(eps)
        extrapolated = 2.0 * report.quotient_eps_half - report.quotient_eps
        assert report.quotient_extrapolated == pytest.approx(extrapolated)
        assert report.lambda_eps == pytest.approx(
            report.lambda_over_eps * report.eps, rel=1e-12)

    def test_eps_override(self, sinpi_profile):
        report = det_dirichlet_regularized(sinpi_profile, eps=1e-5)
        assert report.eps == pytest.approx(1e-5)
        assert report.det_regularized == pytest.approx(
            NEG_HALF_INV_PI_SQ, rel=1e-6)

    def test_bump_mode_matches_lattice(self, sinpi_bump_profile):
        from flucdet.oracle import pseudo_det_ratio
        report = det_dirichlet_regularized(sinpi_bump_profile)
        lattice = pseudo_det_ratio(sinpi_bump_profile, "dirichlet", n=1000)
        assert abs(report.det_regularized) == pytest.approx(
            abs(lattice.aligned_pseudo_det), rel=1e-4)

    def test_rejects_invertible_profile(self, const_profile):
        with pytest.raises(fd.ProfileError, match="no Dirichlet zero mode"):
            det_dirichlet_regularized(const_profile)


class TestWrappedZeroMode:
    def test_difference_quotient_arithmetic(self):
        value, denominator = _wrapped_difference_quotient(
            xi_a=0.5, xi_b=2.0, dxi_a=1.5, eta_a=1.0, deta_a=1.0, norm_sq=2.0)
        assert value == pytest.approx(-6.0, rel=1e-14)
        assert denominator == pytest.approx(-0.5, rel=1e-14)
        anti, _ = _wrapped_difference_quotient(
            xi_a=0.5, xi_b=2.0, dxi_a=1.5, eta_a=1.0, deta_a=1.0,
            norm_sq=2.0, anti=True)
        assert anti == pytest.approx(-10.0, rel=1e-14)

    def test_difference_quotient_zero_denominator(self):
        with pytest.raises(fd.DegenerateOperatorError, match="denominator"):
            _wrapped_difference_quotient(
                xi_a=0.5, xi_b=1.5, dxi_a=1.5, eta_a=1.0, deta_a=1.0,
                norm_sq=2.0)

    def test_free_periodic_report(self):
        profile = const(0.0, 0.0, 2.0)
        report = det_periodic_regularized(profile)
        assert report.bc == "periodic"
        # the constant mode makes the formula's numerator vanish while the
        # lattice pseudo-determinant stays at -span^2; the two are reported
        # side by side and flagged
        assert abs(report.formula_value) <= 1e-6
        assert report.oracle_value == pytest.approx(-4.0, rel=1e-4)
        assert report.discrepant is True

    def test_rejects_invertible_profile(self, const_profile):
        with pytest.raises(fd.ProfileError, match="zero mode"):
            det_periodic_regularized(const_profile)
