"""Endpoint determinants, trace identity, action check, zero-mode paths."""

import math
from dataclasses import replace

import pytest

import flucdet as fd
from flucdet import determinants, odesolve
from flucdet.determinants import (
    _trace_identity_residual,
    det_antiperiodic,
    det_dirichlet,
    det_dirichlet_regularized,
    det_periodic,
    det_periodic_regularized,
    determinant,
    van_vleck_check,
)
from flucdet.green import _det_slope, _read_transfer, free_reference
from flucdet.odesolve import make_basis
from flucdet.oracle import pseudo_det_ratio
from flucdet.profiles import _shifted_profile

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
        """The free operator has the constant periodic zero mode: 2 - tr M
        is zero to its condition and refused, as det refuses it."""
        basis = make_basis(free_profile)
        with pytest.raises(fd.DegenerateOperatorError, match="ENDPOINT_DEGENERACY_TOL"):
            det_periodic(basis, omega0=1.0)
        anti = det_antiperiodic(basis, omega0=1.0)
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
        """Coupling g = 4 on omega = 1 is the constant profile of frequency
        omega sqrt(g) = 2, through make_basis and through determinant."""
        scaled = det_dirichlet(make_basis(const_profile, g=4.0))
        assert scaled.value == pytest.approx(math.sin(2.0) / 2.0, rel=1e-10)
        direct = determinant(fd.make_constant_profile(2.0, const_profile.interval))
        assert direct.value == pytest.approx(math.sin(2.0) / 2.0, rel=1e-10)

    def test_bad_bc(self, const_profile):
        with pytest.raises(ValueError):
            determinant(const_profile, bc="neumann")


class TestTraceIdentity:
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    @pytest.mark.parametrize("g", [0.2, 0.5, 0.8])
    def test_residual_small(self, modulated_profile, bc, g):
        lhs, rhs, rel = _trace_identity_residual(modulated_profile, bc, g)
        assert math.isfinite(lhs) and math.isfinite(rhs)
        assert rel <= 1e-5

    def test_one_basis(self, monkeypatch, modulated_profile):
        """Both sides are read from one basis, at the coupling asked for."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs.get("g"))
            return make_basis(*args, **kwargs)

        monkeypatch.setattr(fd.determinants, "make_basis", counted)
        _trace_identity_residual(modulated_profile, "periodic", 0.5)
        assert calls == [0.5]


SLOPE_CASES = {
    "modulated": fd.make_modulated_profile(1.0, 0.2, 3.0, fd.Interval(0.0, 2.0)),
    "hyperbolic-kT10": fd.make_user_profile(lambda t: -(10.0 / 3.0) ** 2,
                                            fd.Interval(0.0, 3.0)),
    "shifted-t_a": fd.make_modulated_profile(1.0, 0.2, 3.0, fd.Interval(-3.0, -1.0)),
}


def central_difference(f, step=1e-5):
    return (f(step) - f(-step)) / (2.0 * step)


class TestDetSlope:
    """_det_slope against central differences of F read from M."""

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    @pytest.mark.parametrize("case", sorted(SLOPE_CASES))
    def test_lambda_and_coupling_derivatives(self, case, bc):
        profile = SLOPE_CASES[case]
        basis = make_basis(profile)
        d_lambda = central_difference(lambda s: _read_transfer(
            make_basis(_shifted_profile(profile, s)).m, bc)[0])
        d_g = central_difference(lambda s: _read_transfer(
            make_basis(profile, g=1.0 + s).m, bc)[0])
        assert _det_slope(basis, bc) == pytest.approx(d_lambda, rel=1e-7)
        assert _det_slope(basis, bc, profile.omega_sq) == pytest.approx(d_g, rel=1e-7)

    def test_dirichlet_closed_form_sign(self, sinpi_profile, sinpi_bump_profile):
        """<xi|xi>/(xi'_a xi'_b) is +dM12/dlambda, minus det' K: the norm by
        the basis's Gauss rule over Phi12 = v, scaled to the shape's slope at
        t_a, agrees with the report's slope-read closed form."""
        shifted = fd.make_zero_mode_profile(
            fd.builtin_zero_mode_spec("sinpi_bump", fd.Interval(-2.3, 0.4)))
        for profile in (sinpi_profile, sinpi_bump_profile, shifted):
            report = det_dirichlet_regularized(profile)
            basis = make_basis(profile)
            nodes, weights = basis.quadrature
            norm_sq = float(weights @ (report.dxi_a * basis.phi(nodes)[0, 1]) ** 2)
            assert report.xi_norm_sq == pytest.approx(norm_sq, rel=1e-12)
            assert report.det_regularized == pytest.approx(
                norm_sq / (report.dxi_a * report.dxi_b), rel=1e-12)
            assert report.det_regularized == _det_slope(basis, "dirichlet")


class TestVanVleck:
    def test_constant_profile(self, const_profile):
        value = van_vleck_check(const_profile)
        assert value == pytest.approx(SIN_1, rel=1e-5)

    def test_modulated_profile(self, modulated_profile):
        expected = det_dirichlet(make_basis(modulated_profile)).value
        assert van_vleck_check(modulated_profile) == pytest.approx(
            expected, rel=1e-5)

    def test_focal_interval(self):
        with pytest.raises(fd.DegenerateOperatorError):
            van_vleck_check(const(1.0, 0.0, math.pi))

    def test_degenerate_path_names_the_verdict(self):
        """omega = pi on [0, 1]: M12 is rounding, refused by det's verdict."""
        with pytest.raises(fd.DegenerateOperatorError,
                           match="classical path is degenerate.*ENDPOINT_DEGENERACY_TOL"):
            van_vleck_check(const(math.pi))

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

    def test_eps_chain_disagreement_refused(self, monkeypatch, sinpi_profile):
        """A chain whose relative residual exceeds EPS_CHAIN_CHECK_TOL is
        refused with both values, the residual and the tolerance by name; at 0
        every chain does."""
        monkeypatch.setattr(determinants, "EPS_CHAIN_CHECK_TOL", 0.0)
        with pytest.raises(fd.VerificationError,
                           match=r"finite-eps chain disagrees .* \(relative residual \S+ > "
                                 r"EPS_CHAIN_CHECK_TOL = 0\.0\)$"):
            det_dirichlet_regularized(sinpi_profile)

    @pytest.mark.parametrize("span", [0.01, 1.0, 30.0])
    def test_scaled_shape(self, span):
        """s sin(pi t / T) on [0, T] has the determinant of s = 1 for every s,
        and <xi|xi> scales as s^2: the slope floor compares the shape's
        slopes with each other, not with 1/T."""
        def report(s):
            k = math.pi / span
            spec = fd.SyntheticZeroModeSpec(
                lambda t: s * math.sin(k * t), fd.Interval(0.0, span),
                dxi=lambda t: s * k * math.cos(k * t), d2xi=lambda t: -s * k * k * math.sin(k * t))
            return det_dirichlet_regularized(fd.make_zero_mode_profile(spec))

        unit = report(1.0)
        for s in (1e-12, 1e-9, 1e-6, 1e3, 1e9):
            scaled = report(s)
            assert scaled.det_regularized == pytest.approx(unit.det_regularized, rel=1e-15)
            assert scaled.xi_norm_sq == pytest.approx(s * s * unit.xi_norm_sq, rel=1e-15)

    def test_zero_endpoint_slope_refused(self, sinpi_profile):
        """A shape whose slope at t_a is 0 (both slopes are then 0) is refused
        by the slope floor, whatever its scale."""
        zm = sinpi_profile.zero_mode
        flat = replace(sinpi_profile, zero_mode=replace(zm, dxi=lambda t: 0.0 * t))
        with pytest.raises(fd.DegenerateOperatorError,
                           match=r"zero-mode endpoint slope vanishes.*slopes 0\.000e\+00, "):
            det_dirichlet_regularized(flat)

    def test_eps_override(self, sinpi_profile):
        report = det_dirichlet_regularized(sinpi_profile, eps=1e-5)
        assert report.eps == pytest.approx(1e-5)
        assert report.det_regularized == pytest.approx(
            NEG_HALF_INV_PI_SQ, rel=1e-6)

    def test_bump_mode_matches_lattice(self, sinpi_bump_profile):
        report = det_dirichlet_regularized(sinpi_bump_profile)
        lattice = pseudo_det_ratio(sinpi_bump_profile, "dirichlet", n=1000)
        assert report.det_regularized == pytest.approx(
            -lattice.aligned_pseudo_det, rel=1e-4)

    def test_rejects_invertible_profile(self, const_profile):
        with pytest.raises(fd.ProfileError,
                           match="no simple dirichlet zero mode.*ZERO_MODE_PRESENT_TOL"):
            det_dirichlet_regularized(const_profile)

    def test_small_determinant_is_not_a_zero_mode(self):
        """omega = 1 on [0, 999.0269638415542]: M12 = sin T = 5e-4 is within
        1e-6 of the span, but Newton's step T^2 |M12 / (dM12/dlambda)| to the
        nearest eigenvalue is about 1, so no zero mode is there."""
        with pytest.raises(fd.ProfileError, match="Newton's step.*ZERO_MODE_PRESENT_TOL"):
            det_dirichlet_regularized(const(1.0, 0.0, 999.0269638415542))

    def test_zero_eps_rejected(self, sinpi_profile):
        with pytest.raises(ValueError, match="eps"):
            det_dirichlet_regularized(sinpi_profile, eps=0.0)

    @pytest.mark.parametrize("name", ["sinpi", "sinpi_bump"])
    def test_five_bases_and_no_products(self, monkeypatch, name):
        """The closed form is the verdict's slope and the chain's Newton steps
        read slopes, so no prefix or suffix products are formed; one basis for
        the verdict and two Newton steps for each of eps and eps / 2."""
        def refuse(*args, **kwargs):
            raise AssertionError("prefix or suffix products formed")

        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return make_basis(*args, **kwargs)

        monkeypatch.setattr(odesolve, "_scan", refuse)
        monkeypatch.setattr(determinants, "make_basis", counted)
        profile = fd.make_zero_mode_profile(
            fd.builtin_zero_mode_spec(name, fd.Interval(0.0, 1.0)))
        assert det_dirichlet_regularized(profile).check_residual <= 1e-8
        assert len(built) == 5

    def test_newton_miss_refused(self, monkeypatch, sinpi_profile):
        monkeypatch.setattr(determinants, "EIGENVALUE_SHIFT_MAX_ITER", 1)
        with pytest.raises(fd.ShootingError, match="EIGENVALUE_SHIFT_MAX_ITER = 1 "):
            det_dirichlet_regularized(sinpi_profile)

    @pytest.mark.parametrize("shifted_slope", [0.0, math.nan, math.inf])
    def test_newton_undefined_slope_refused(self, monkeypatch, sinpi_profile, shifted_slope):
        """A shifted basis whose dM12/dlambda is zero or not finite stops
        Newton's method with a named refusal; the verdict keeps its slope."""
        def slope(basis, bc, weight=None):
            return _det_slope(basis, bc) if basis.profile is sinpi_profile else shifted_slope

        monkeypatch.setattr(determinants, "_det_slope", slope)
        with pytest.raises(fd.ShootingError, match=f"EIGENVALUE_SHIFT_MAX_ITER = 60 .*"
                                                   f"dM12/dlambda {shifted_slope!r}"):
            det_dirichlet_regularized(sinpi_profile)


class TestWrappedZeroMode:
    def test_free_periodic_report(self):
        """F = 2 - 2 cos(sqrt(lambda) T) = lambda T^2 + ..., so det' K = -T^2,
        which the lattice pseudo-determinant also converges to."""
        profile = const(0.0, 0.0, 2.0)
        lattice = pseudo_det_ratio(profile, "periodic", 800, omega0=1.0)
        assert det_periodic_regularized(profile) == pytest.approx(-4.0, rel=1e-12)
        assert lattice.aligned_pseudo_det == pytest.approx(-4.0, rel=1e-4)

    def test_shifted_bump_matches_lattice(self):
        profile = fd.make_zero_mode_profile(
            fd.builtin_zero_mode_spec("sinpi_bump", fd.Interval(-3.0, -1.5)))
        lattice = pseudo_det_ratio(profile, "antiperiodic", 800, omega0=1.0)
        assert det_periodic_regularized(profile, "antiperiodic") == pytest.approx(
            lattice.aligned_pseudo_det, rel=1e-4)

    @pytest.mark.parametrize("anti", [False, True])
    def test_two_zero_modes_refused(self, sinpi_profile, anti):
        """M = +I (omega = pi on [0, 2]) or -I (omega = pi on [0, 1]): every
        solution is a zero mode and F has a double zero."""
        profile = sinpi_profile if anti else const(math.pi, 0.0, 2.0)
        with pytest.raises(fd.DegenerateOperatorError, match="two .*zero modes"):
            det_periodic_regularized(profile, "antiperiodic" if anti else "periodic")

    @pytest.mark.parametrize("delta", [1e-4, 1e-6])
    def test_two_near_zero_modes_refused(self, delta):
        """omega = pi + delta on [0, 2]: F = 4 sin^2(omega) is within
        ZERO_MODE_PRESENT_TOL, but both periodic modes sit near -2 pi delta,
        so Newton's step T^2 |F / (dF/dlambda)| (about 4 pi delta) exceeds it
        and no simple zero mode is there."""
        with pytest.raises(fd.ProfileError, match="Newton's step.*ZERO_MODE_PRESENT_TOL"):
            det_periodic_regularized(const(math.pi + delta, 0.0, 2.0))

    def test_rejects_invertible_profile(self, const_profile):
        with pytest.raises(fd.ProfileError, match="zero mode"):
            det_periodic_regularized(const_profile)

    @pytest.mark.parametrize("bc", ["dirichlet", "robin"])
    def test_takes_a_wrapped_condition(self, bc):
        """Dirichlet has its own regularized determinant
        (det_dirichlet_regularized); an unknown condition is refused as
        everywhere else."""
        with pytest.raises(ValueError, match="wrapped boundary condition|unsupported"):
            det_periodic_regularized(const(0.0, 0.0, 2.0), bc)
