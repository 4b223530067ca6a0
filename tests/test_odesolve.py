"""Homogeneous solutions, basis construction, and the amplitude-phase solver."""

import math
import warnings

import numpy as np
import pytest

import flucdet as fd
from flucdet import odesolve
from flucdet.odesolve import (
    MAGNUS_MAX_STEPS,
    make_basis,
    mix_basis,
    solve_ermakov,
)


class TestCanonicalBasis:
    def test_initial_conditions_exact(self, modulated_profile):
        # columns (eta, xi): eta starts from (0, 1), xi from (1, 0)
        b = make_basis(modulated_profile)
        assert b.y_a.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert b.w == -1.0

    def test_constant_solutions(self, const_profile):
        # between knots, Y(t) is a prefix product times one local Magnus step
        b = make_basis(const_profile)
        for t in (0.2, 0.7, 1.0):
            (eta, xi), (deta, dxi) = b.y(t)
            assert xi == pytest.approx(math.cos(t), abs=1e-10)
            assert eta == pytest.approx(math.sin(t), abs=1e-10)
            assert dxi == pytest.approx(-math.sin(t), abs=1e-10)
            assert deta == pytest.approx(math.cos(t), abs=1e-10)

    def test_nonfinite_samples_refused(self):
        """A profile built directly, without make_user_profile's check, that
        is NaN on (0.5, 1]: the integrator refuses its samples."""
        profile = fd.FrequencyProfile(
            omega_sq=lambda t: np.where(np.asarray(t) > 0.5, np.nan, 1.0),
            interval=fd.Interval(0.0, 1.0))
        with pytest.raises(fd.IntegrationError,
                           match="Omega\\^2 is not finite on the interval"):
            make_basis(profile)

    def test_free_solutions(self, free_profile):
        b = make_basis(free_profile)
        for t in (0.0, 0.4, 1.0):
            (eta, xi), _ = b.y(t)
            assert xi == pytest.approx(1.0, abs=1e-13)
            assert eta == pytest.approx(t, abs=1e-13)

    def test_coupling_scales_frequency(self, const_profile):
        b = make_basis(const_profile, g=4.0)
        # -u'' = 4 u has basis cos(2t), sin(2t)/2
        (eta, xi), _ = b.y(0.5)
        assert xi == pytest.approx(math.cos(1.0), abs=1e-11)
        assert eta == pytest.approx(math.sin(1.0) / 2.0, abs=1e-11)

    def test_superposition(self, modulated_profile, rng):
        # Phi(t) = Y(t) Y_a^{-1} does not depend on the basis, so the solution
        # with data (2, -3) at t_a is the same combination in any basis
        b = make_basis(modulated_profile)
        mixed = mix_basis(b, rng.uniform(-2.0, 2.0, size=(2, 2)))
        for t in (0.3, 1.1, 1.9):
            (eta, xi), _ = b.y(t)
            y = mixed.phi(t) @ (2.0, -3.0)
            assert y[0] == pytest.approx(2.0 * xi - 3.0 * eta, rel=1e-10, abs=1e-12)

    def test_wronskian_constancy(self, modulated_profile):
        b = make_basis(modulated_profile)
        (eta, xi), (deta, dxi) = b.y(modulated_profile.interval.grid(201))
        assert np.max(np.abs(eta * dxi - xi * deta - b.w)) <= 1e-10
        for t in (0.25, 1.5):
            assert np.linalg.det(b.y(t)) == pytest.approx(b.w, abs=1e-11)

    @pytest.mark.parametrize("name", ["const_profile", "free_profile", "modulated_profile",
                                      "seam_profile", "shifted_profile"])
    def test_transfer_matrix_is_the_rebuilt_product(self, name, request):
        # a canonical basis holds M from the integrator; Y_b adj(Y_a) / W
        # rebuilds it exactly
        b = make_basis(request.getfixturevalue(name))
        rebuilt = b.y_b @ odesolve._adjugate(b.y_a) / b.w
        assert np.array_equal(b.m, rebuilt)

    def test_transfer_matrix_unimodular(self, modulated_profile):
        assert abs(np.linalg.det(make_basis(modulated_profile).m) - 1.0) <= 1e-10

    def test_array_evaluation_matches_pointwise(self, modulated_profile):
        b = make_basis(modulated_profile)
        ts = np.array([0.0, 0.7, 1.3, 2.0])
        table = b.y(ts)
        assert table.shape == (2, 2, 4)
        for k, t in enumerate(ts):
            np.testing.assert_allclose(table[:, :, k], b.y(t), rtol=1e-14, atol=1e-15)

    def test_solution_domain_guard(self, const_profile):
        b = make_basis(const_profile)
        with pytest.raises(ValueError):
            b.y(1.5)
        with pytest.raises(ValueError):
            b.y(-0.2)

    def test_linear_combination(self, const_profile):
        b = make_basis(const_profile)
        combo = mix_basis(b, ((2.0, 1.0), (0.5, -1.0)))
        t = 0.6
        (eta, xi), (deta, dxi) = b.y(t)
        (value, _), (slope, _) = combo.y(t)
        assert value == pytest.approx(2.0 * eta + 0.5 * xi)
        assert slope == pytest.approx(2.0 * deta + 0.5 * dxi)

    def test_nonfinite_coupling_rejected(self, const_profile):
        with pytest.raises(ValueError):
            make_basis(const_profile, g=math.nan)


def constant_transfer(omega_sq: float, tau):
    """Phi(t_a + tau, t_a) in closed form for a constant Omega^2, with
    shape (2, 2) + tau.shape."""
    tau = np.asarray(tau, dtype=float)
    if omega_sq >= 0.0:
        w = math.sqrt(omega_sq)
        c, s = np.cos(w * tau), np.sin(w * tau)
        return np.array([[c, s / w], [-w * s, c]])
    k = math.sqrt(-omega_sq)
    c, s = np.cosh(k * tau), np.sinh(k * tau)
    return np.array([[c, s / k], [k * s, c]])


class TestMagnus:
    """The sixth-order Magnus product against closed forms, on a shifted
    interval [-3, 7]."""

    T_A, SPAN = -3.0, 10.0

    def basis(self, omega_sq: float):
        iv = fd.Interval(self.T_A, self.T_A + self.SPAN)
        return make_basis(fd.make_user_profile(lambda t: omega_sq, iv))

    @pytest.mark.parametrize("x", [1.0, 30.0, 300.0])
    def test_oscillatory_transfer_matrix(self, x):
        # the adaptive DOP853 integrator this replaced reached about 2e-12
        # (Dirichlet, relative) and 2.2e-11 (2 -+ tr M) here
        omega = x / self.SPAN
        basis = self.basis(omega * omega)
        m, exact = basis.m, constant_transfer(omega * omega, self.SPAN)
        assert np.max(np.abs(m - exact)) <= 2e-12 * max(1.0, omega)
        assert abs(m[0, 1] - exact[0, 1]) <= 2e-12 * abs(exact[0, 1])
        assert abs(np.trace(m) - np.trace(exact)) <= 2.2e-11
        assert np.max(np.abs(m - exact)) <= basis.error_estimate

    @pytest.mark.parametrize("omega_sq,t_a,span", [
        (1.0, 0.0, 1e3), (1.0, 0.0, 1e4), (1.0, 0.0, 1e5),
        (0.01, -3.0, 10.0), (9.0, -3.0, 10.0), (900.0, -3.0, 10.0),
        (-0.25, -3.0, 10.0), (-36.0, -3.0, 10.0),
        # omega T = 3 pi: M is nearly diagonal, M12 errs by the phase over omega
        (3.469e-4, 0.0, 505.8),
    ])
    def test_error_estimate_bounds_error(self, omega_sq, t_a, span):
        """The reported error estimate of M bounds its error against the
        closed form, and overstates it less than a hundredfold, also where
        both step-doubling levels share the error: on [0, 1e5] step doubling
        alone reports 4.5e-13 for an error of 2.2e-11."""
        iv = fd.Interval(t_a, t_a + span)
        basis = make_basis(fd.make_user_profile(lambda t: omega_sq, iv))
        error = np.max(np.abs(basis.m - constant_transfer(omega_sq, iv.span)))
        assert error <= basis.error_estimate <= 100.0 * error

    @pytest.mark.parametrize("x", [5.0, 60.0])
    def test_hyperbolic_transfer_matrix(self, x):
        k = x / self.SPAN
        m = self.basis(-k * k).m
        exact = constant_transfer(-k * k, self.SPAN)
        np.testing.assert_allclose(m, exact, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("omega_sq", [9.0, -0.25])
    def test_dense_output(self, omega_sq, rng):
        """Y(t) at interior times, on and off the knots, and at both ends."""
        basis = self.basis(omega_sq)
        ts = np.concatenate(([self.T_A], basis.knots[[1, 17, -2]],
                             rng.uniform(self.T_A, self.T_A + self.SPAN, 9),
                             [self.T_A + self.SPAN]))
        exact = constant_transfer(omega_sq, ts - self.T_A)
        scale = np.max(np.abs(exact), axis=(0, 1))
        assert np.all(np.abs(basis.phi(ts) - exact) <= 1e-12 * scale)
        # S(t) = Phi(t_b, t), from the suffix products
        exact_back = constant_transfer(omega_sq, self.T_A + self.SPAN - ts)
        scale = np.max(np.abs(exact_back), axis=(0, 1))
        assert np.all(np.abs(basis.frame(ts)[1] - exact_back) <= 1e-12 * scale)

    def test_sixth_order(self):
        """Halving the step divides the error of M by 2^6 on a varying
        profile, where the commutator terms of the Magnus exponent matter
        (constant profiles are integrated exactly at any step)."""
        profile = fd.make_modulated_profile(1.0, 0.5, 3.0, fd.Interval(-1.0, 2.0))
        exact = make_basis(profile).m
        errors = [np.max(np.abs(odesolve._MagnusGrid(
            profile.omega_sq, 0.0, 1.0, profile.interval, n).transfer()[0] - exact))
            for n in (8, 16, 32, 64)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 56.0 <= coarse / fine <= 72.0

    def test_chunked_product(self, monkeypatch):
        """Steps are multiplied MAGNUS_CHUNK at a time; more chunks change
        only the rounding of M."""
        profile = fd.make_modulated_profile(5.0, 0.1, 7.0, fd.Interval(0.0, 10.0))
        whole = make_basis(profile)
        monkeypatch.setattr(odesolve, "MAGNUS_CHUNK", 64)
        chunked = make_basis(profile)
        assert len(chunked.knots) == len(whole.knots) > 64 * 8
        np.testing.assert_allclose(chunked.m, whole.m, rtol=0.0, atol=1e-13)
        ts = np.linspace(0.0, 10.0, 7)
        np.testing.assert_allclose(chunked.y(ts), whole.y(ts), rtol=0.0, atol=1e-13)

    def test_overflow_is_an_integration_error(self):
        """Omega^2 = -1 on [0, 800]: M has entries near e^800 / 2."""
        profile = fd.make_user_profile(lambda t: -1.0, fd.Interval(0.0, 800.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fd.IntegrationError, match="overflows"):
                make_basis(profile)

    def test_work_estimate_above_step_cap(self):
        profile = fd.make_constant_profile(1.0, fd.Interval(0.0, 1e6))
        with pytest.raises(fd.IntegrationError,
                           match=f"MAGNUS_MAX_STEPS = {MAGNUS_MAX_STEPS}") as info:
            make_basis(profile)
        assert "work estimate of 2e+06" in str(info.value)

    def test_step_doubling_above_step_cap(self, monkeypatch):
        profile = fd.make_modulated_profile(5.0, 0.1, 7.0, fd.Interval(0.0, 10.0))
        monkeypatch.setattr(odesolve, "MAGNUS_MAX_STEPS", 256)
        with pytest.raises(fd.IntegrationError,
                           match="MAGNUS_MAX_STEPS = 256") as info:
            make_basis(profile)
        assert "error estimate" in str(info.value)

    @pytest.mark.parametrize("args,adjacent,levels", [
        # (128, 256) predicts 2048 steps: 7,488 nodes where adjacent
        # doubling samples 12,096
        ((5.0, 0.1, 7.0, 0.0, 10.0), [128, 256, 512, 1024, 2048], [64, 128, 256, 2048]),
        # a det-stress operator: (64, 128) predicts 512 steps, which fall
        # short, and 1024 meet the target
        ((3.077219978188551, 0.004594494420126185, 4.866572593155098,
          48.697862718257255, 55.81072967325839),
         [64, 128, 256, 512, 1024], [64, 128, 512, 1024]),
    ], ids=["jump", "short-jump"])
    def test_jump_to_predicted_level(self, args, adjacent, levels):
        """After the first doubling, step doubling jumps to the level the
        sixth-order error estimate predicts: Omega^2 is sampled on the 64
        coarse steps and on levels only, not on the levels between that
        adjacent doubling visits, and M, the knots and the error estimate
        are those of adjacent doubling bit for bit."""
        omega, eps, nu, t_a, t_b = args
        profile = fd.make_modulated_profile(omega, eps, nu, fd.Interval(t_a, t_b))
        calls = []
        basis = make_basis(counted(profile, calls))
        assert calls == levels
        visited, grid, m, error = adjacent_doubling(profile, adjacent[0])
        assert visited == adjacent
        assert np.array_equal(basis.m, m)
        assert np.array_equal(basis.knots, grid.knots)
        assert basis.error_estimate == error

    def test_jump_clamped_to_step_cap(self, monkeypatch):
        """The jump from 256 to 2048 steps stops at MAGNUS_MAX_STEPS = 1024,
        where the estimate still misses the target, and is refused."""
        profile = fd.make_modulated_profile(5.0, 0.1, 7.0, fd.Interval(0.0, 10.0))
        monkeypatch.setattr(odesolve, "MAGNUS_MAX_STEPS", 1024)
        calls = []
        with pytest.raises(fd.IntegrationError,
                           match="MAGNUS_MAX_STEPS = 1024") as info:
            make_basis(counted(profile, calls))
        assert "error estimate" in str(info.value)
        assert calls == [64, 128, 256, 1024]

    @pytest.mark.parametrize("omega,eps,nu,span", [
        (5.0, 0.1, 7.0, 10.0), (3.0, 0.2, 2.0, 10.0), (1.0, 0.5, 3.0, 3.0)])
    def test_jumped_estimate_is_an_error_estimate(self, omega, eps, nu, span):
        """At make_basis's final level m, the estimate after a jump by 8,
        |M_m - M_{m/8}| / (8^6 - 1), agrees with the adjacent one |M_m -
        M_{m/2}| / 63 within a factor of 2, and both are within a factor of
        2 of M_m's difference from M_{4m}."""
        profile = fd.make_modulated_profile(omega, eps, nu, fd.Interval(0.0, span))
        m = len(make_basis(profile).knots) - 1

        def transfer(n):
            return odesolve._MagnusGrid(profile.omega_sq, 0.0, 1.0,
                                        profile.interval, n).transfer()[0]

        fine = transfer(m)
        jumped = np.max(np.abs(fine - transfer(m // 8))) / (8.0 ** 6 - 1.0)
        adjacent = np.max(np.abs(fine - transfer(m // 2))) / 63.0
        error = np.max(np.abs(fine - transfer(4 * m)))
        assert 0.5 <= jumped / adjacent <= 2.0
        for estimate in (jumped, adjacent):
            assert 0.5 <= estimate / error <= 2.0


def counted(profile, calls):
    """The profile with each Omega^2 call's count of Magnus steps (three
    Gauss nodes each) appended to calls."""
    def omega_sq(t):
        calls.append(np.size(t) // 3)
        return profile.omega_sq(t)

    return fd.FrequencyProfile(omega_sq=omega_sq, interval=profile.interval)


def adjacent_doubling(profile, n):
    """make_basis's step doubling without the jump, from a first level of n
    steps: n, 2n, 4n, ... until |M_2n - M_n| / 63 meets the target.  The
    levels, the last grid, M and the error estimate with its 2 n eps
    envelope floor."""
    iv, eps = profile.interval, np.finfo(float).eps
    m, a_max = odesolve._MagnusGrid(profile.omega_sq, 0.0, 1.0, iv, n).transfer()
    levels = [n]
    while True:
        n *= 2
        levels.append(n)
        grid = odesolve._MagnusGrid(profile.omega_sq, 0.0, 1.0, iv, n)
        fine = grid.transfer()[0]
        error, m = np.abs(fine - m).max() / 63.0, fine
        scale = np.abs(m).max()
        if error <= max(odesolve.MAGNUS_REL_TARGET, n * eps / 63.0) * scale:
            w = math.sqrt(a_max)
            envelope = max(scale, w, iv.span / max(1.0, w * iv.span))
            return levels, grid, m, max(error, 2.0 * n * eps * envelope)


class TestFamily:
    """The members V_j = c0_j + c1_j Omega^2 of an affine family, solved
    together by odesolve._family."""

    @pytest.mark.parametrize("name", ["const_profile", "modulated_profile",
                                      "seam_profile", "shifted_profile"])
    def test_make_basis_is_the_one_member_case(self, name, request):
        """make_basis is the one-member family (c0, c1) = (0, g) bit for bit,
        and the frame with a member axis changes no bit of its frame."""
        profile = request.getfixturevalue(name)
        ts = np.linspace(profile.interval.t_a, profile.interval.t_b, 23)
        for g in (1.0, -0.6):
            basis = make_basis(profile, g)
            ((members, grid, m, error),) = odesolve._family(profile, [0.0], [g])
            assert members.tolist() == [0]
            assert np.array_equal(basis.m, m[..., 0])
            assert np.array_equal(basis.knots, grid.knots)
            assert basis.error_estimate == error[0]
            for alone, family in zip(basis.frame(ts), grid.frame(ts)):
                assert family.shape == alone.shape + (1,)
                assert np.array_equal(alone, family[..., 0])

    def test_member_matches_its_own_basis(self, modulated_profile):
        """Each member of the coupling-flow family V_s = w^2 + s (Omega^2 -
        w^2) has the M that make_basis gives the profile V_s."""
        w0sq, s = 1.1 ** 2, np.array([0.05, 0.5, 0.95])
        groups = odesolve._family(modulated_profile, w0sq * (1.0 - s), s)
        assert sorted(np.concatenate([g[0] for g in groups]).tolist()) == [0, 1, 2]
        for members, _, m, _ in groups:
            for j, i in enumerate(members.tolist()):
                v_s = fd.FrequencyProfile(
                    omega_sq=lambda t, si=s[i]: w0sq + si * (modulated_profile.omega_sq(t) - w0sq),
                    interval=modulated_profile.interval)
                alone = make_basis(v_s).m
                assert np.max(np.abs(m[..., j] - alone)) <= 1e-13 * np.max(np.abs(alone))

    def test_groups_by_first_level(self):
        """Members whose work estimates round up to different powers of two
        double on their own: a one-member group is make_basis at that
        coupling, bit for bit."""
        profile = fd.make_constant_profile(1.0, fd.Interval(0.0, 10.0))
        g = np.array([400.0, 1.0, 1e4])
        groups = odesolve._family(profile, np.zeros(3), g)
        assert [members.tolist() for members, *_ in groups] == [[1], [0], [2]]
        for members, grid, m, error in groups:
            alone = make_basis(profile, g[members[0]])
            assert len(alone.knots) == grid.n + 1
            assert np.array_equal(alone.m, m[..., 0])
            assert alone.error_estimate == error[0]

    def test_first_level_takes_the_coarse_samples(self, modulated_profile):
        """A first level of 64 steps multiplies the coarse samples, so no
        node is sampled twice: one call on the 64 coarse steps, one on the
        128 steps of the doubling, for make_basis and for a family alike."""
        calls = []

        def omega_sq(t):
            calls.append(np.size(t))
            return modulated_profile.omega_sq(t)

        counted = fd.FrequencyProfile(omega_sq=omega_sq, interval=modulated_profile.interval)
        calls.clear()
        assert np.array_equal(make_basis(counted).m, make_basis(modulated_profile).m)
        assert calls == [3 * 64, 3 * 128]
        calls.clear()
        ((_, _, m, _),) = odesolve._family(counted, [0.0, 0.0], [0.5, 1.0])
        assert np.array_equal(m[..., 1], make_basis(modulated_profile).m)
        assert calls == [3 * 64, 3 * 128]


class TestMixing:
    def test_endpoint_data_transforms(self, modulated_profile, rng):
        b = make_basis(modulated_profile)
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        mixed = mix_basis(b, m)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert mixed.w == pytest.approx(det * b.w, rel=1e-14)
        t = 1.3
        expected = b.y(t) @ m
        assert np.allclose(mixed.y(t), expected, rtol=1e-13, atol=0.0)
        assert np.allclose(mixed.y_b, b.y_b @ m, rtol=1e-13, atol=0.0)
        assert np.allclose(mixed.m, b.m, rtol=1e-12, atol=1e-14)

    def test_singular_matrix_rejected(self, const_profile):
        b = make_basis(const_profile)
        with pytest.raises(ValueError):
            mix_basis(b, ((1.0, 2.0), (2.0, 4.0)))

    def test_nonfinite_matrix_rejected(self, const_profile):
        b = make_basis(const_profile)
        with pytest.raises(ValueError, match="matrix"):
            mix_basis(b, ((1.0, math.nan), (0.0, 1.0)))

    def test_frame_shared(self, modulated_profile, rng):
        """Phi(t, t_a) and Phi(t_b, t) do not depend on the basis, so mixing
        leaves them exactly as they were."""
        b = make_basis(modulated_profile)
        mixed = mix_basis(b, rng.uniform(-2.0, 2.0, size=(2, 2)))
        ts = modulated_profile.interval.grid(41)
        assert np.array_equal(mixed.phi(ts), b.phi(ts))
        assert np.array_equal(mixed.frame(ts)[1], b.frame(ts)[1])


@pytest.mark.parametrize("kind", ["magnus", "mixed", "pq"])
def test_frame_composes_to_transfer_matrix(modulated_profile, kind):
    """Phi(t_b, t) Phi(t, t_a) = M at every time, whichever way the basis
    builds its frame."""
    if kind == "pq":
        basis = fd.basis_from_pq(solve_ermakov(modulated_profile, omega0=1.0))
    else:
        basis = make_basis(modulated_profile)
        if kind == "mixed":
            basis = mix_basis(basis, ((2.0, 1.0), (0.5, -1.0)))
    ts = modulated_profile.interval.grid(41)
    m = basis.m
    composed = np.einsum("ijn,jkn->ikn", basis.frame(ts)[1], basis.phi(ts))
    assert np.max(np.abs(composed - m[:, :, None])) <= 1e-12 * max(1.0, np.max(np.abs(m)))


class TestClassicalPathConvention:
    @staticmethod
    def classical_path(basis):
        # columns (eta, xi) with eta = 0 at t_a and 1 at t_b, xi the reverse
        (m11, m12), _ = basis.m
        return mix_basis(basis, ((1.0 / m12, -m11 / m12), (0.0, 1.0)))

    def test_boundary_values(self, const_profile):
        b = self.classical_path(make_basis(const_profile))
        assert b.y_a[0].tolist() == pytest.approx([0.0, 1.0], abs=1e-12)
        assert b.y_b[0].tolist() == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_same_determinant_as_canonical(self, modulated_profile):
        basis = make_basis(modulated_profile)
        v1 = fd.det_dirichlet(basis).value
        v2 = fd.det_dirichlet(self.classical_path(basis)).value
        assert v2 == pytest.approx(v1, rel=1e-10)


class TestCouplingFlowIdentity:
    def test_interchanged_derivatives_identity(self, modulated_profile):
        """d/dt of (deta * d_g xi - eta * d_g dxi) equals Omega^2 xi eta.

        The g-derivatives are taken by central differences across two extra
        solves; the t-derivative by a central difference of the bracket.
        """
        g, dg, dt = 0.7, 1e-5, 1e-4
        b0 = make_basis(modulated_profile, g=g)
        bp = make_basis(modulated_profile, g=g + dg)
        bm = make_basis(modulated_profile, g=g - dg)

        def bracket(t):
            dxi_dg, ddxi_dg = (bp.y(t)[:, 1] - bm.y(t)[:, 1]) / (2.0 * dg)
            (eta, _), (deta, _) = b0.y(t)
            return deta * dxi_dg - eta * ddxi_dg

        for t in (0.3, 0.9, 1.4, 1.8):
            lhs = (bracket(t + dt) - bracket(t - dt)) / (2.0 * dt)
            (eta, xi), _ = b0.y(t)
            rhs = modulated_profile(t) * xi * eta
            assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-7)


class TestErmakov:
    def test_free_amplitude_and_phase(self, free_profile):
        sol = solve_ermakov(free_profile, 1.0)
        assert sol.state(1.0)[0] == pytest.approx(math.sqrt(2.0), rel=1e-11)
        assert sol.q_b == pytest.approx(math.atan(1.0), rel=1e-11)

    def test_constant_amplitude_flat(self, const_profile):
        sol = solve_ermakov(const_profile, 2.3)
        for t in (0.0, 0.5, 1.0):
            assert sol.state(t)[0] == pytest.approx(1.0, abs=1e-12)
        # omega0 * q_b equals the accumulated phase omega * T
        assert 2.3 * sol.q_b == pytest.approx(1.0, rel=1e-11)

    def test_phase_monotone(self, modulated_profile):
        sol = solve_ermakov(modulated_profile, 1.0)
        qs = [sol.state(t)[2] for t in (0.0, 0.5, 1.0, 1.5, 2.0)]
        assert all(b > a for a, b in zip(qs, qs[1:]))
        assert qs[0] == 0.0

    def test_periodic_shooting_closes(self, seam_profile):
        sol = solve_ermakov(seam_profile, 1.0, bc="periodic")
        assert sol.periodic
        assert sol.p_b == pytest.approx(sol.p_a, rel=1e-7)
        assert sol.dp_b == pytest.approx(sol.dp_a, abs=1e-7 * (1.0 + abs(sol.dp_a)))
        assert sol.newton_iterations >= 1

    def test_periodic_start_takes_no_step(self):
        """A constant profile's start p = omega^(-1/2), p' = 0 is already
        periodic: newton_iterations counts corrections, not residual checks,
        and the periodic solve is the initial one, knot for knot."""
        profile = fd.make_constant_profile(1.3, fd.Interval(0.0, 2.0))
        periodic = solve_ermakov(profile, 1.3, bc="periodic")
        assert periodic.newton_iterations == 0
        assert periodic.knots.size == 7
        np.testing.assert_array_equal(periodic.knots, solve_ermakov(profile, 1.3).knots)

    def test_one_solve_per_newton_step(self, seam_profile, monkeypatch):
        """A periodic amplitude that the start misses costs one correction
        from the closed form: two solves in all."""
        calls = []
        integrate = odesolve._integrate_ermakov

        def counted(*args):
            calls.append(args)
            return integrate(*args)

        monkeypatch.setattr(odesolve, "_integrate_ermakov", counted)
        sol = solve_ermakov(seam_profile, 1.0, bc="periodic")
        assert sol.newton_iterations == 1
        assert len(calls) == 2

    def test_parametric_resonance_refused(self):
        """Modulated (1, 0.9, 2) on [0, 3.2] has tr M = -2.505: no periodic
        amplitude exists, and the solve says why."""
        profile = fd.make_modulated_profile(1.0, 0.9, 2.0, fd.Interval(0.0, 3.2))
        with pytest.raises(fd.ShootingError, match=r"\|tr M\| = 2\.505 .*parametric resonance"):
            solve_ermakov(profile, 1.0, bc="periodic")

    def test_invalid_omega0(self, const_profile):
        with pytest.raises(ValueError):
            solve_ermakov(const_profile, 0.0)
        with pytest.raises(ValueError):
            solve_ermakov(const_profile, -1.0)

    def test_infinite_omega0_rejected(self, const_profile):
        with pytest.raises(ValueError, match="omega0"):
            solve_ermakov(const_profile, math.inf)

    def test_invalid_bc(self, const_profile):
        with pytest.raises(ValueError):
            solve_ermakov(const_profile, 1.0, bc="none")


def _scipy_dop853(profile, omega0, start):
    """scipy's DOP853 on the Ermakov right-hand side, one scalar Omega^2
    call per stage: the reference the package's port must reproduce."""
    from scipy.integrate import solve_ivp  # the reference only; src/ never imports it

    om, w0 = profile.omega_sq, float(omega0)

    def rhs(t, y):
        p = y[0]
        return [y[1], 1.0 / p ** 3 - float(om(t)) * p, 1.0 / (w0 * p * p)]

    iv = profile.interval
    return solve_ivp(rhs, (iv.t_a, iv.t_b), start, method="DOP853", dense_output=True,
                     rtol=odesolve.DEFAULT_RTOL, atol=odesolve.DEFAULT_ATOL)


class TestDop853Port:
    @pytest.fixture(scope="class")
    def user_profile(self):
        return fd.make_user_profile(lambda t: 1.0 + 0.5 * math.cos(2.0 * t),
                                    fd.Interval(-1.0, 3.0))

    @pytest.mark.parametrize("name, omega0", [
        ("const_profile", 1.0), ("modulated_profile", 1.0), ("seam_profile", 1.0),
        ("shifted_profile", 6.5), ("user_profile", 1.0)])
    @pytest.mark.parametrize("components", [3])
    def test_matches_scipy(self, request, name, omega0, components):
        """The same accepted steps, knots and states (p, p', q) as scipy's
        solve_ivp, and the same dense output at 101 interior times."""
        profile = request.getfixturevalue(name)
        iv = profile.interval
        start = [float(profile.omega_sq(iv.t_a)) ** -0.25, 0.0, 0.0]
        port = odesolve._integrate_ermakov(profile, omega0, start)
        ref = _scipy_dop853(profile, omega0, start)
        assert ref.status == 0
        assert port.ys.shape[1] == components
        assert port.ts.size == ref.t.size
        np.testing.assert_allclose(port.ts, ref.t, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(port.ys.T, ref.y, rtol=0.0, atol=1e-12)
        times = np.linspace(iv.t_a, iv.t_b, 103)[1:-1]
        np.testing.assert_allclose(port(times), ref.sol(times), rtol=0.0, atol=1e-12)

    def test_overflowing_amplitude_matches_scipy(self):
        """Omega^2 = -1 on [0, 240] grows p past 1e103, where p^3 overflows:
        the port then steps on numpy scalars' inf, as scipy does."""
        profile = fd.make_user_profile(lambda t: -1.0, fd.Interval(0.0, 240.0))
        start = [1.0, 0.0, 0.0]
        port = odesolve._integrate_ermakov(profile, 1.0, start)
        with np.errstate(over="ignore"):
            ref = _scipy_dop853(profile, 1.0, start)
        assert ref.status == 0 and ref.y[0, -1] > 1e104
        assert port.ts.size == ref.t.size
        np.testing.assert_allclose(port.ts, ref.t, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(port.ys.T, ref.y, rtol=1e-12, atol=0.0)

    def test_dense_output_shapes(self, modulated_profile):
        port = odesolve._integrate_ermakov(modulated_profile, 1.0, [1.0, 0.0, 0.0])
        assert port(0.7).shape == (3,)
        assert port(np.array([0.7])).shape == (3, 1)
        np.testing.assert_array_equal(port(np.array([0.7, 1.3]))[:, 1], port(1.3))
        # a knot reads the interpolant of the step before it, which ends there
        np.testing.assert_allclose(port(port.ts), port.ys.T, rtol=0.0, atol=1e-15)

    def test_collapse_refused(self):
        """p'(t_a) = -1e9 drives p from 1 to the collapse level 1e-8 at about
        t = 1e-9, where the refusal names the crossing."""
        profile = fd.make_constant_profile(1.3, fd.Interval(0.0, 2.0))
        with pytest.raises(fd.IntegrationError, match="collapsed to zero near t") as info:
            odesolve._integrate_ermakov(profile, 1.3, [1.0, -1e9, 0.0])
        assert float(str(info.value).rsplit("= ", 1)[1]) == pytest.approx(1e-9, rel=1e-6)

    def test_step_too_small_refused(self):
        """Omega^2 that is NaN from t = 1 on rejects every step across it,
        until the step size falls below ten float spacings there."""
        profile = fd.FrequencyProfile(
            omega_sq=lambda t: np.where(np.asarray(t) < 1.0, 1.0, np.nan),
            interval=fd.Interval(0.0, 2.0))
        with pytest.raises(fd.IntegrationError, match="integration failed near t") as info:
            odesolve._integrate_ermakov(profile, 1.0, [1.0, 0.0, 0.0])
        assert float(str(info.value).split("= ")[1].split(":")[0]) == pytest.approx(1.0)
