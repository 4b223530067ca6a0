"""Amplitude-phase determinant ratios against the endpoint-matrix route."""

import math

import numpy as np
import pytest

import flucdet as fd
from flucdet.determinants import det_antiperiodic, det_dirichlet, det_periodic
from flucdet.ermakov import (
    basis_from_pq,
    det_ratio_dirichlet_pq,
    det_ratio_periodic_pq,
)
from flucdet.green import GreenKernel
from flucdet.odesolve import MAGNUS_STEPS_PER_RADIAN, make_basis, solve_ermakov

OMEGA0_CHOICES = (0.7, 1.0, 2.3)


class TestDirichletRatio:
    def test_constant_profile(self, const_profile):
        sol = solve_ermakov(const_profile, omega0=1.0)
        endpoint = det_dirichlet(make_basis(const_profile)).ratio
        assert det_ratio_dirichlet_pq(sol) == pytest.approx(endpoint, rel=1e-9)

    def test_free_profile_ratio_is_one(self, free_profile):
        sol = solve_ermakov(free_profile, omega0=1.0)
        assert sol.p_b == pytest.approx(math.sqrt(2.0), rel=1e-10)
        assert det_ratio_dirichlet_pq(sol) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("fixture", ["modulated_profile", "soft_profile"])
    def test_varying_profiles(self, request, fixture):
        profile = request.getfixturevalue(fixture)
        sol = solve_ermakov(profile, omega0=1.0)
        endpoint = det_dirichlet(make_basis(profile)).ratio
        assert det_ratio_dirichlet_pq(sol) == pytest.approx(endpoint, rel=1e-6)

    def test_omega0_invariance(self, modulated_profile):
        ratios = []
        phases = []
        for w0 in OMEGA0_CHOICES:
            sol = solve_ermakov(modulated_profile, omega0=w0)
            ratios.append(det_ratio_dirichlet_pq(sol))
            phases.append(w0 * sol.q_b)
        for r in ratios[1:]:
            assert r == pytest.approx(ratios[0], rel=1e-7)
        for ph in phases[1:]:
            assert ph == pytest.approx(phases[0], rel=1e-12)


class TestPeriodicRatio:
    def test_constant_profile_matched(self, const_profile):
        sol = solve_ermakov(const_profile, omega0=1.0, bc="periodic")
        assert det_ratio_periodic_pq(sol) == pytest.approx(1.0, rel=1e-9)
        assert det_ratio_periodic_pq(sol, anti=True) == pytest.approx(
            1.0, rel=1e-9)

    def test_seam_profile_both_wrappings(self, seam_profile):
        sol = solve_ermakov(seam_profile, omega0=1.0, bc="periodic")
        basis = make_basis(seam_profile)
        per = det_periodic(basis, omega0=1.0).ratio
        anti = det_antiperiodic(basis, omega0=1.0).ratio
        assert det_ratio_periodic_pq(sol) == pytest.approx(per, rel=1e-11)
        assert det_ratio_periodic_pq(sol, anti=True) == pytest.approx(
            anti, rel=1e-11)

    def test_shifted_profile_both_wrappings(self, shifted_profile):
        sol = solve_ermakov(shifted_profile, omega0=6.5, bc="periodic")
        basis = make_basis(shifted_profile)
        per = det_periodic(basis, omega0=6.5).ratio
        anti = det_antiperiodic(basis, omega0=6.5).ratio
        assert det_ratio_periodic_pq(sol) == pytest.approx(per, rel=1e-11)
        assert det_ratio_periodic_pq(sol, anti=True) == pytest.approx(
            anti, rel=1e-11)

    def test_shooting_closes(self, seam_profile):
        sol = solve_ermakov(seam_profile, omega0=1.0, bc="periodic")
        assert sol.periodic is True
        assert sol.newton_iterations >= 1
        assert sol.p_b == pytest.approx(sol.p_a, rel=1e-7)
        assert sol.dp_b == pytest.approx(sol.dp_a, abs=1e-7)

    def test_omega0_invariance(self, seam_profile):
        # the ratio itself carries the omega0-dependent reference; the
        # underlying determinant value ratio * 4sin^2(omega0 T/2) and the
        # total phase omega0 q_b must not move
        span = seam_profile.interval.span
        values = []
        phases = []
        for w0 in OMEGA0_CHOICES:
            sol = solve_ermakov(seam_profile, omega0=w0, bc="periodic")
            ratio = det_ratio_periodic_pq(sol)
            values.append(ratio * 4.0 * math.sin(0.5 * w0 * span) ** 2)
            phases.append(w0 * sol.q_b)
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-7)
        for ph in phases[1:]:
            assert ph == pytest.approx(phases[0], rel=1e-10)

    def test_degenerate_reference_refused(self, seam_profile):
        """omega0 T = 2 pi: the reference 4 sin^2(omega0 T/2) vanishes, and
        the refusal is the one every route shares."""
        sol = solve_ermakov(seam_profile, omega0=math.pi, bc="periodic")
        with pytest.raises(fd.DegenerateOperatorError,
                           match="reference operator for periodic is degenerate"):
            det_ratio_periodic_pq(sol)

    def test_ratio_bit_identical_to_quotient_of_squares(self, seam_profile):
        """4 sin^2(omega0 q_b/2) over the reference 4 sin^2(omega0 T/2) is
        the quotient sin^2/sin^2 to the bit: the factor 4 is exact."""
        sol = solve_ermakov(seam_profile, omega0=1.0, bc="periodic")
        half, ref_half = 0.5 * sol.omega0 * sol.q_b, 0.5 * sol.omega0 * 2.0
        assert det_ratio_periodic_pq(sol) == (
            math.sin(half) ** 2 / math.sin(ref_half) ** 2)
        assert det_ratio_periodic_pq(sol, anti=True) == (
            math.cos(half) ** 2 / math.cos(ref_half) ** 2)

    def test_initial_shot_rejected(self, modulated_profile):
        sol = solve_ermakov(modulated_profile, omega0=1.0)
        with pytest.raises(ValueError, match="periodic endpoint"):
            det_ratio_periodic_pq(sol)


@pytest.mark.parametrize("omega,span,bc,read", [
    (1.0, math.pi, "initial", det_ratio_dirichlet_pq),
    (1.0, math.pi, "initial", basis_from_pq),
    (2.0 * math.pi, 1.0, "periodic", det_ratio_periodic_pq),
    (math.pi, 1.0, "periodic", lambda sol: det_ratio_periodic_pq(sol, anti=True)),
], ids=["dirichlet", "basis", "periodic", "antiperiodic"])
def test_zero_mode_refused_by_name(omega, span, bc, read):
    """Constant omega with omega T = pi, 2 pi or pi: the sine each reader is
    built from (sin phi, sin phi/2 or cos phi/2) is rounding, and the
    refusal names PQ_DEGENERACY_TOL."""
    profile = fd.make_constant_profile(omega, fd.Interval(0.0, span))
    sol = solve_ermakov(profile, omega0=1.0, bc=bc)
    with pytest.raises(fd.DegenerateOperatorError, match="within PQ_DEGENERACY_TOL = 1e-10"):
        read(sol)


class TestBasisFromPQ:
    def test_endpoint_values(self, modulated_profile):
        sol = solve_ermakov(modulated_profile, omega0=1.0)
        basis = basis_from_pq(sol)
        # value rows (eta, xi) at t_a and t_b
        assert basis.y_a[0].tolist() == [0.0, 1.0]
        assert basis.y_b[0].tolist() == [1.0, 0.0]

    def test_determinant_consistency(self, modulated_profile):
        sol = solve_ermakov(modulated_profile, omega0=1.0)
        basis = basis_from_pq(sol)
        span = modulated_profile.interval.span
        ratio = det_ratio_dirichlet_pq(sol)
        assert det_dirichlet(basis).value == pytest.approx(
            ratio * span, rel=1e-9)
        d = sol.p_a * sol.p_b * math.sin(sol.omega0 * sol.q_b)
        assert basis.w == pytest.approx(-1.0 / d, rel=1e-12)

    def test_solves_the_equation(self, modulated_profile):
        sol = solve_ermakov(modulated_profile, omega0=1.0)
        basis = basis_from_pq(sol)
        h = 1e-4
        for t in (0.4, 1.1, 1.7):
            for j in (1, 0):
                def s(tt):
                    return basis.y(tt)[0, j]
                second = (s(t + h) - 2.0 * s(t) + s(t - h)) / (h * h)
                residual = -second - modulated_profile(t) * s(t)
                assert abs(residual) <= 1e-5 * (1.0 + abs(s(t)))

    def test_wronskian_constancy(self, modulated_profile):
        basis = basis_from_pq(solve_ermakov(modulated_profile, omega0=1.0))
        (eta, xi), (deta, dxi) = basis.y(modulated_profile.interval.grid(201))
        assert np.max(np.abs(eta * dxi - xi * deta - basis.w)) <= 1e-9

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_green_kernel_without_suffix_products(self, modulated_profile, bc):
        """A pq basis has no suffix products, so the kernel's right-anchored
        solution comes from Phi(t_b, t) = M Phi(t)^{-1}, which basis_from_pq
        builds into its frame; it must agree with the Magnus basis, which
        reads it from suffix products."""
        basis = basis_from_pq(solve_ermakov(modulated_profile, omega0=1.0))
        _, table = GreenKernel(basis, bc).table(9)
        _, expected = GreenKernel(make_basis(modulated_profile), bc).table(9)
        np.testing.assert_allclose(table, expected, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("omega,interval", [
        (3.0, fd.Interval(-1.7, 8.3)), (12.12, fd.Interval(0.0, 2.5))])
    def test_trace_resolves_the_oscillation(self, omega, interval):
        """The amplitude is constant here, so the solver's steps are long;
        the knots split them to half a radian of the phase, and the Gauss
        rule on them reaches the closed form 1/2 - (x/2) cot x at x = 30 and
        30.3."""
        sol = solve_ermakov(fd.make_constant_profile(omega, interval), omega0=1.0)
        trace = fd.trace_omega_sq(GreenKernel(basis_from_pq(sol), "dirichlet"))
        x = omega * interval.span
        assert trace == pytest.approx(0.5 - 0.5 * x / math.tan(x), rel=1e-9)

    @pytest.mark.parametrize("bc", ["initial", "periodic"])
    def test_knots_from_the_solver_states(self, bc):
        """The knots split the solver's steps by the phase at its own step
        ends, with no Omega^2 call for a dense output; they agree with the
        knots from the dense output at the step ends to 1e-14."""
        calls = []
        base = fd.make_modulated_profile(5.0, 0.1, 7.0, fd.Interval(0.0, 10.0))

        def omega_sq(t):
            calls.append(np.size(t))
            return base.omega_sq(t)

        sol = solve_ermakov(fd.FrequencyProfile(omega_sq, base.interval), omega0=1.0, bc=bc)
        calls.clear()
        knots = basis_from_pq(sol).knots
        assert calls == []
        q = sol.state(sol.knots)[2]
        np.testing.assert_allclose(sol.q_knots, q, rtol=1e-14, atol=0.0)
        advance = MAGNUS_STEPS_PER_RADIAN * sol.omega0 * np.diff(q)
        counts = np.concatenate(([0.0], np.cumsum(np.maximum(1.0, np.ceil(advance)))))
        dense = np.interp(np.arange(counts[-1] + 1.0), counts, sol.knots)
        np.testing.assert_allclose(knots, dense, rtol=1e-14, atol=0.0)

    def test_zero_mode_rejected(self):
        profile = fd.make_constant_profile(1.0, fd.Interval(0.0, math.pi))
        sol = solve_ermakov(profile, omega0=1.0)
        with pytest.raises(fd.DegenerateOperatorError, match="zero mode"):
            basis_from_pq(sol)
