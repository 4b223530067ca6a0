"""Homogeneous solutions, basis construction, and the amplitude-phase solver."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flucdet as fd
from flucdet import dop853, ermakov, odesolve
from flucdet.ermakov import solve_ermakov
from flucdet.odesolve import (
    MAGNUS_MAX_STEPS,
    _mix_basis,
    make_basis,
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
        mixed = _mix_basis(b, rng.uniform(-2.0, 2.0, size=(2, 2)))
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

    @pytest.mark.parametrize("route", ["magnus", "green", "ermakov", "pq"])
    def test_nan_time_is_outside_the_domain(self, modulated_profile, route):
        """A NaN time, alone or in an array, is refused as outside the
        solution domain by every dense reader, with no numpy warning first:
        the Magnus frame, the Green kernel, the amplitude-phase state and the
        pq basis's frame."""
        if route in ("magnus", "green"):
            basis = make_basis(modulated_profile)
            read = basis.frame if route == "magnus" else (
                lambda t, kernel=fd.GreenKernel(basis, "dirichlet"): kernel.evaluate(t, 0.5))
        else:
            sol = solve_ermakov(modulated_profile, 1.0)
            read = sol.state if route == "ermakov" else fd.basis_from_pq(sol).frame
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (math.nan, np.array([0.5, math.nan])):
                with pytest.raises(ValueError, match="outside solution domain"):
                    read(t)

    def test_linear_combination(self, const_profile):
        b = make_basis(const_profile)
        combo = _mix_basis(b, ((2.0, 1.0), (0.5, -1.0)))
        t = 0.6
        (eta, xi), (deta, dxi) = b.y(t)
        (value, _), (slope, _) = combo.y(t)
        assert value == pytest.approx(2.0 * eta + 0.5 * xi)
        assert slope == pytest.approx(2.0 * deta + 0.5 * dxi)

    def test_nonfinite_coupling_rejected(self, const_profile):
        with pytest.raises(ValueError):
            make_basis(const_profile, g=math.nan)


def test_gauss_rule_is_leggauss():
    """The Gauss rule on each Magnus step is numpy's leggauss bit for bit."""
    x, w = np.polynomial.legendre.leggauss(odesolve._GAUSS_X.size)
    assert np.array_equal(odesolve._GAUSS_X, x)
    assert np.array_equal(odesolve._GAUSS_W, w)


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


def nested_step_matrices(a, h):
    """exp(Omega) of the Magnus steps from the exponent as odesolve writes it
    out, term by term in the Taylor coefficients C = V^-1 a (V_ik = u_i^k at
    the nodes u_i = x_i / 2, solved with np.linalg.solve) and powers of h, in
    75 array operations: the reference for _step_matrices' factored form."""
    u = 0.5 * odesolve._GAUSS_X
    c0, c1, c2, c3 = np.linalg.solve(np.vander(u, 4, increasing=True),
                                     a.reshape(4, -1)).reshape(a.shape)
    h2 = h * h
    h3, h4 = h2 * h, h2 * h2
    p = (-h2 * (c1 / 12.0 + c3 / 80.0)
         + h4 * (c0 * c1 / 180.0 + c0 * c3 / 1680.0 + 13.0 * c1 * c2 / 15120.0)
         - h4 * h2 * c0 * c0 * c1 / 1890.0)
    q = h - h3 * c2 / 180.0 + h4 * h * (c0 * c2 / 1890.0 + c1 * c1 / 7560.0)
    r = (h * (c0 + c2 / 12.0)
         + h3 * (c0 * c2 / 180.0 - c1 * c1 / 120.0 - c1 * c3 / 420.0 + c2 * c2 / 3024.0)
         + h4 * h * c0 * (c1 * c1 / 1080.0 - c0 * c2 / 1890.0))
    s = p * p + q * r
    x = np.sqrt(np.abs(s))
    safe = np.where(x == 0.0, 1.0, x)
    grow = s > 0.0
    if grow.all():
        cc, sn = np.cosh(x), np.sinh(x)
    elif not grow.any():
        cc, sn = np.cos(x), np.sin(x)
    else:
        xg = np.where(grow, x, 0.0)
        cc, sn = np.where(grow, np.cosh(xg), np.cos(x)), np.where(grow, np.sinh(xg), np.sin(x))
    sc = np.where(x == 0.0, 1.0, sn / safe)
    return (cc + sc * p, sc * q, sc * r, cc - sc * p)


class Counted(np.ndarray):
    """An array that counts the numpy operations made on it and on the
    arrays they return."""

    ops = 0

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        return Counted.run(getattr(ufunc, method), args, kwargs)

    def __array_function__(self, func, types, args, kwargs):
        return Counted.run(func, args, kwargs)

    @staticmethod
    def run(fn, args, kwargs):
        Counted.ops += 1

        def plain(x):
            if isinstance(x, tuple):
                return tuple(map(plain, x))
            return x.view(np.ndarray) if isinstance(x, Counted) else x

        out = fn(*plain(args), **{k: plain(v) for k, v in kwargs.items()})
        return out.view(Counted) if isinstance(out, np.ndarray) else out


def array_operations(kernel, a, h) -> int:
    Counted.ops = 0
    kernel(a.view(Counted), h.view(Counted) if isinstance(h, np.ndarray) else h)
    return Counted.ops


def step_samples(kind: str, rng, m: int = 40, members: tuple = ()) -> np.ndarray:
    """a = -g Omega^2 at the four Gauss nodes of m steps: s > 0 ("grow"),
    s < 0 ("oscillate"), both, or a = 0, where s = 0 and x = 0."""
    size = (4, m) + members
    a = 25.0 * (1.0 + 0.3 * rng.standard_normal(size))
    if kind == "oscillate":
        return -a
    if kind == "mixed":
        return a * np.where(np.arange(m) % 2, 1.0, -1.0).reshape((m,) + (1,) * len(members))
    return a if kind == "grow" else np.zeros(size)


class TestMagnus:
    """The eighth-order Magnus product against closed forms, on a shifted
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

    @pytest.mark.parametrize("c0,c1", [(0.0, 1.0), (np.array([0.0, 2.0, -1.0]),
                                                    np.array([1.0, 0.5, 3.0]))],
                             ids=["one", "members"])
    def test_frame_at_knots_is_the_products(self, c0, c1):
        """At a knot the local step is exactly I, so the frame there is the
        prefix and suffix products bit for bit, for one member and along a
        member axis, where a gather along the wrong axis fails."""
        profile = fd.make_modulated_profile(1.0, 0.2, 3.0, fd.Interval(-1.0, 3.0))
        grid = odesolve._MagnusGrid(profile.omega_sq, c0, c1, profile.interval, 64)
        pre, suf = grid._products
        phi, back = grid.frame(grid.knots)
        assert phi.shape == back.shape == suf.shape == pre.shape == (2, 2, 65) + grid.members
        assert np.array_equal(phi, pre) and np.array_equal(back, suf)

    @pytest.mark.parametrize("kind", ["grow", "oscillate", "mixed", "zero"])
    @pytest.mark.parametrize("form", ["float", "array", "members"])
    def test_step_kernel_matches_nested_form(self, kind, form, rng):
        """_step_matrices agrees with the nested form to 1e-14 of max|E|,
        for a float h (transfer) and an array of h (frame, slope), also
        broadcast over members."""
        members = (3,) if form == "members" else ()
        a = step_samples(kind, rng, members=members)
        h = 0.08 if form == "float" else 0.08 * rng.uniform(0.2, 1.0, (40,) + (1,) * len(members))
        e = odesolve._step_matrices(a, h).reshape((4,) + a.shape[1:])
        ref = np.array(nested_step_matrices(a, h))
        assert e.shape == ref.shape == (4, 40) + members
        assert np.max(np.abs(e - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("omega_sq", [-30.0, 30.0])
    @pytest.mark.parametrize("form", ["float", "array"])
    def test_step_kernel_constant(self, omega_sq, form, rng):
        """With constant Omega^2 a step is cos/sin or cosh/sinh of w h."""
        h = 0.09 if form == "float" else rng.uniform(0.0, 0.09, 40)
        e = odesolve._step_matrices(np.full((4, 40), -omega_sq), h).reshape(4, 40)
        exact = constant_transfer(omega_sq, np.broadcast_to(h, (40,))).reshape(4, 40)
        assert np.max(np.abs(e - exact)) <= 1e-15 * np.max(np.abs(exact))

    @pytest.mark.parametrize("kind", ["grow", "oscillate"])
    def test_step_kernel_array_operations(self, kind, rng):
        """With a float h the kernel makes at most 28 numpy operations, where
        the nested form makes 75 (76 with cos and sin), which checks the
        count; with an array of h it makes fewer than the nested form."""
        a = step_samples(kind, rng)
        h = 0.08 * rng.uniform(0.2, 1.0, 40)
        assert array_operations(odesolve._step_matrices, a, 0.08) <= 28
        assert array_operations(nested_step_matrices, a, 0.08) == 75 + (kind != "grow")
        assert (array_operations(odesolve._step_matrices, a, h)
                < array_operations(nested_step_matrices, a, h))

    def test_eighth_order_step(self):
        """One step on a = -1 + t/2 - 3 t^2/10 + t^3/5, a cubic that the four
        nodes determine, against mpmath's Taylor solve: halving h divides the
        error by about 2^9 (437 and 473 from h = 0.4 to 0.1), so every term of
        the exponent through h^8 is right."""
        mpmath = pytest.importorskip("mpmath")
        coef = (-1.0, 0.5, -0.3, 0.2)
        errors = []
        for h in (0.4, 0.2, 0.1):
            with mpmath.workdps(30):
                exact = [mpmath.odefun(lambda t, y: [y[1], mpmath.polyval(coef[::-1], t) * y[0]],
                                       0, start)(h) for start in ([1, 0], [0, 1])]
            exact = np.array([[float(x) for x in column] for column in exact]).T
            a = np.polyval(coef[::-1], h * (0.5 + 0.5 * odesolve._GAUSS_X))[:, None]
            step = odesolve._step_matrices(a, h).reshape(2, 2)
            errors.append(np.max(np.abs(step - exact)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 2.0 ** 8.5 <= coarse / fine <= 2.0 ** 9.5

    def test_eighth_order(self):
        """Doubling the steps divides the error of M by 2^8 on a varying
        profile, where the commutator terms of the Magnus exponent matter
        (constant profiles are integrated exactly at any step): 4.9e-8,
        1.9e-10 and 7.3e-13 of max|M_ij| at 256, 512 and 1024 steps."""
        profile = fd.make_modulated_profile(7.5, 0.2, 3.0, fd.Interval(-5.0, 15.0))

        def transfer(n):
            return odesolve._MagnusGrid(profile.omega_sq, 0.0, 1.0, profile.interval,
                                        n).transfer()

        exact = transfer(4096)
        errors = [np.max(np.abs(transfer(n) - exact)) for n in (256, 512, 1024)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 224.0 <= coarse / fine <= 288.0

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
        # the first level is 64: the pair (32, 64), on the 64 coarse steps
        # and the 32 steps of 2h sampled with them in one call, predicts 512
        # steps: 2,432 nodes where adjacent doubling samples 3,968
        ((1.0, 0.9, 20.0, 0.0, 5.0), [32, 64, 128, 256, 512], [96, 512]),
        # (32, 64) predicts 256 steps, which fall short, and 512 meet the target
        ((0.7442750006798367, 0.6448260412713754, 19.493234738870946,
          46.93135101824825, 50.56290129223184),
         [32, 64, 128, 256, 512], [96, 256, 512]),
    ], ids=["jump", "short-jump"])
    def test_jump_to_predicted_level(self, args, adjacent, levels):
        """After the first pair, step doubling jumps to the level the
        eighth-order error estimate predicts: Omega^2 is sampled on the 64
        coarse steps with the first pair's 32 and on levels only, not on the levels between that
        adjacent doubling visits, and M, the knots and the error estimate
        are those of adjacent doubling bit for bit."""
        omega, eps, nu, t_a, t_b = args
        profile = fd.make_modulated_profile(omega, eps, nu, fd.Interval(t_a, t_b))
        calls = []
        basis = make_basis(counted(profile, calls))
        assert calls == levels
        visited, grid, m, error = adjacent_doubling(profile, 2 * adjacent[0])
        assert visited == adjacent
        assert np.array_equal(basis.m, m)
        assert np.array_equal(basis.knots, grid.knots)
        assert basis.error_estimate == error

    def test_jump_clamped_to_step_cap(self, monkeypatch):
        """The jump from the pair (32, 64) to 512 steps stops at
        MAGNUS_MAX_STEPS = 256, where the estimate still misses the target,
        and is refused."""
        profile = fd.make_modulated_profile(1.0, 0.9, 20.0, fd.Interval(0.0, 5.0))
        monkeypatch.setattr(odesolve, "MAGNUS_MAX_STEPS", 256)
        calls = []
        with pytest.raises(fd.IntegrationError,
                           match="MAGNUS_MAX_STEPS = 256") as info:
            make_basis(counted(profile, calls))
        assert "error estimate" in str(info.value)
        assert calls == [96, 256]

    @pytest.mark.parametrize("chunk,calls", [
        (odesolve.MAGNUS_CHUNK, [96, 1536]), (64, [96] + [48] * 32)])
    def test_first_pair_samples_once(self, monkeypatch, chunk, calls):
        """Omega^2 = 100 (1 + 0.1 sin t) on [0, 10] varies on the coarse
        samples, so its first level is 1024, the level of 4 times its work
        estimate of 210 steps: after the one call on the 64 coarse steps and
        the 32 of 2h that a first level of 64 would take, the pair (512, 1024)
        samples both levels' Gauss nodes in one Omega^2 call (1536 steps), or
        one per run of 32 fine and 16 coarse steps at MAGNUS_CHUNK = 64, and
        meets the target."""
        profile = fd.make_modulated_profile(10.0, 0.1, 1.0, fd.Interval(0.0, 10.0))
        whole = make_basis(profile)
        monkeypatch.setattr(odesolve, "MAGNUS_CHUNK", chunk)
        counts = []
        basis = make_basis(counted(profile, counts))
        assert counts == calls
        np.testing.assert_allclose(basis.m, whole.m, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("members", [(), (3,)])
    @pytest.mark.parametrize("kind", ["oscillate", "grow", "mixed"])
    def test_pair_is_two_transfers(self, members, kind):
        """Within one run the pair's M are transfer's on n and n/2 steps bit
        for bit, the coarse one from steps of h on 4 a conjugated by diag(1,
        1/2); over several runs they agree to rounding."""
        omega_sq = {"oscillate": lambda t: 30.0 + 10.0 * np.sin(t),
                    "grow": lambda t: -9.0 - np.sin(t), "mixed": lambda t: 5.0 * np.sin(3.0 * t)}
        c1 = np.array([1.0, 0.5, 2.0]) if members else 1.0
        c0 = np.array([0.0, 1.0, -1.0]) if members else 0.0
        for n in (256, 8192):
            grid = odesolve._MagnusGrid(omega_sq[kind], c0, c1, fd.Interval(-1.0, 3.0), n)
            half = odesolve._MagnusGrid(omega_sq[kind], c0, c1, fd.Interval(-1.0, 3.0), n // 2)
            coarse, fine, top = grid.pair()
            assert np.array_equal(top, np.abs(grid.samples()[:, :2]).max(axis=(0, 1, 2)))
            if n == 256:
                assert np.array_equal(fine, grid.transfer())
                assert np.array_equal(coarse, half.transfer())
                given = grid.pair(grid.samples())
                assert np.array_equal(given[0], coarse) and np.array_equal(given[1], fine)
                assert given[2] is None
            else:
                assert np.max(np.abs(fine - grid.transfer())) <= 1e-14 * np.max(np.abs(fine))
                assert np.max(np.abs(coarse - half.transfer())) <= 1e-14 * np.max(np.abs(coarse))

    @pytest.mark.parametrize("omega,eps,nu,span", [
        (5.0, 0.1, 7.0, 10.0), (3.0, 0.2, 2.0, 10.0), (1.0, 0.5, 3.0, 4.0)])
    def test_jumped_estimate_is_an_error_estimate(self, omega, eps, nu, span):
        """At half make_basis's final level, m, where the error of M_m is
        truncation (at the final level both estimates read rounding, 7e-16 to
        7e-15), the estimate after a jump by 8, |M_m - M_{m/8}| / (8^8 - 1),
        agrees with the adjacent one |M_m - M_{m/2}| / 255 within a factor of
        2, and both are within a factor of 2 of M_m's difference from M_{4m}."""
        profile = fd.make_modulated_profile(omega, eps, nu, fd.Interval(0.0, span))
        m = (len(make_basis(profile).knots) - 1) // 2

        def transfer(n):
            return odesolve._MagnusGrid(profile.omega_sq, 0.0, 1.0,
                                        profile.interval, n).transfer()

        fine = transfer(m)
        jumped = np.max(np.abs(fine - transfer(m // 8))) / (8.0 ** 8 - 1.0)
        adjacent = np.max(np.abs(fine - transfer(m // 2))) / 255.0
        error = np.max(np.abs(fine - transfer(4 * m)))
        assert 0.5 <= jumped / adjacent <= 2.0
        for estimate in (jumped, adjacent):
            assert 0.5 <= estimate / error <= 2.0


def work_level(profile) -> tuple:
    """make_basis of the profile and the last first level its work estimate set."""
    levels = []
    estimate = odesolve._work_estimate

    def recorded(a0, iv, peaks=None):
        result = estimate(a0, iv, peaks)
        levels.append(max(result[1]))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(odesolve, "_work_estimate", recorded)
        basis = make_basis(profile)
    return basis, levels[-1]


SPANS = st.floats(0.5, 30.0)
STARTS = st.floats(-20.0, 20.0)
MODULATED = st.builds(
    lambda wt, eps, nu, t_a, span: fd.make_modulated_profile(
        wt / span, eps, nu, fd.Interval(t_a, t_a + span)),
    st.floats(1.0, 100.0), st.floats(0.0, 0.5), st.floats(0.2, 5.0), STARTS, SPANS)
HYPERBOLIC = st.builds(
    lambda kt, t_a, span: fd.make_user_profile(
        lambda t, k2=(kt / span) ** 2: -k2, fd.Interval(t_a, t_a + span)),
    st.floats(0.1, 30.0), STARTS, SPANS)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(MODULATED, HYPERBOLIC))
def test_schedule_against_adjacent_doubling(profile):
    """The accepted level is never below the first level L, and it is the
    level where adjacent doubling from the pair (L/2, L) stops, or the next
    one where a jump predicts past it.  Up to omega T = 100: further out both
    schedules' estimates reach the rounding of the product, which the 2 n eps
    envelope reports."""
    basis, level = work_level(profile)
    n = len(basis.knots) - 1
    assert n >= level
    assert n // adjacent_doubling(profile, level)[1].n in (1, 2)


def counted(profile, calls):
    """The profile with each Omega^2 call's count of Magnus steps (four
    Gauss nodes each) appended to calls."""
    def omega_sq(t):
        calls.append(np.size(t) // 4)
        return profile.omega_sq(t)

    return fd.FrequencyProfile(omega_sq=omega_sq, interval=profile.interval)


def adjacent_doubling(profile, level):
    """make_basis's step doubling without the jump, from the first pair of
    levels (level/2, level): n = level/2, level, 2 level, ... until
    |M_2n - M_n| / 255 meets the target.  The levels, the last grid, M and
    the error estimate with its 2 n eps envelope floor, w from the first
    level's samples."""
    iv, eps, n = profile.interval, np.finfo(float).eps, level // 2
    a_max = np.abs(odesolve._MagnusGrid(profile.omega_sq, 0.0, 1.0, iv,
                                        level).samples()[:, :2]).max()
    m = odesolve._MagnusGrid(profile.omega_sq, 0.0, 1.0, iv, n).transfer()
    levels = [n]
    while True:
        n *= 2
        levels.append(n)
        grid = odesolve._MagnusGrid(profile.omega_sq, 0.0, 1.0, iv, n)
        fine = grid.transfer()
        error, m = np.abs(fine - m).max() / 255.0, fine
        scale = np.abs(m).max()
        if error <= max(odesolve.MAGNUS_REL_TARGET, n * eps / 255.0) * scale:
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
            ((members, grid, m, error, _),) = odesolve._family(profile, [0.0], [g])
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
        for members, _, m, _, _ in groups:
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
        for members, grid, m, error, _ in groups:
            alone = make_basis(profile, g[members[0]])
            assert len(alone.knots) == grid.n + 1
            assert np.array_equal(alone.m, m[..., 0])
            assert alone.error_estimate == error[0]

    def test_first_level_takes_the_coarse_samples(self, modulated_profile):
        """A first level of 64 steps multiplies the coarse samples, so no
        node is sampled twice: one call on the 64 coarse steps and the 32
        steps of the pair's coarse level, for make_basis and for a family
        alike."""
        calls = []

        def omega_sq(t):
            calls.append(np.size(t))
            return modulated_profile.omega_sq(t)

        counted = fd.FrequencyProfile(omega_sq=omega_sq, interval=modulated_profile.interval)
        calls.clear()
        assert np.array_equal(make_basis(counted).m, make_basis(modulated_profile).m)
        assert calls == [4 * 96]
        calls.clear()
        ((_, _, m, _, _),) = odesolve._family(counted, [0.0, 0.0], [0.5, 1.0])
        assert np.array_equal(m[..., 1], make_basis(modulated_profile).m)
        assert calls == [4 * 96]

    @pytest.mark.parametrize("name", ["const_profile", "modulated_profile", "shifted_profile",
                                      "hyperbolic", "sinpi_bump_profile", "fast"])
    def test_first_pair_from_the_one_call(self, name, request, monkeypatch):
        """The first pair read from the one sample call on the coarse steps
        is the pair that samples both of its levels itself, bit for bit: M,
        the error estimate, the knots and the coarsest level, for make_basis
        and a two-member family, at a first level of 64 and (fast, 1024)
        above it."""
        profile = {
            "hyperbolic": fd.make_user_profile(lambda t: -9.0, fd.Interval(-1.0, 1.5)),
            "fast": fd.make_modulated_profile(10.0, 0.1, 1.0, fd.Interval(0.0, 10.0)),
        }.get(name) or request.getfixturevalue(name)

        def solve():
            return make_basis(profile), odesolve._solve(profile, 0.0, 1.0), odesolve._family(
                profile, [0.0, 0.4], [1.0, 0.5])

        one_call = solve()
        pair = odesolve._MagnusGrid.pair
        monkeypatch.setattr(odesolve._MagnusGrid, "pair", lambda self, a0=None: pair(self))
        itself = solve()
        (basis, alone, family), (basis_itself, alone_itself, family_itself) = one_call, itself
        assert np.array_equal(basis.m, basis_itself.m)
        assert basis.error_estimate == basis_itself.error_estimate
        assert np.array_equal(basis.knots, basis_itself.knots)
        assert alone[3] == alone_itself[3]
        assert len(family) == len(family_itself)
        for (members, g, m, error, c), (members_i, g_i, m_i, error_i, c_i) in zip(
                family, family_itself):
            assert np.array_equal(members, members_i)
            assert np.array_equal(m, m_i) and np.array_equal(error, error_i)
            assert np.array_equal(g.knots, g_i.knots) and c == c_i

    def test_work_estimate_of_members(self, modulated_profile, rng):
        """On a member axis the work estimates, the first levels and the
        largest |a| are each member's, bit for bit, from the coarse samples
        and from peaks sampled since; constant members (c1 = 0) take 2, not
        4, times their estimate."""
        iv = modulated_profile.interval
        c0, c1 = rng.uniform(-2e3, 2e3, 16), rng.uniform(-300.0, 300.0, 16)
        c1[::5] = 0.0
        a0 = odesolve._MagnusGrid(modulated_profile.omega_sq, c0, c1, iv,
                                  odesolve.MAGNUS_MIN_STEPS).samples()
        for peaks in (None, rng.uniform(0.0, 3e3, 16)):
            steps, levels, top = odesolve._work_estimate(a0, iv, peaks)
            alone = [odesolve._work_estimate(a0[..., j], iv, None if peaks is None else peaks[j])
                     for j in range(16)]
            assert steps == [e for (e,), _, _ in alone]
            assert levels == [level for _, (level,), _ in alone]
            assert len(set(levels)) > 2
            assert top == [a for *_, (a,) in alone]

    def test_family_estimates_its_work_once(self, monkeypatch):
        """A family in two groups (first levels 64 and 1024) is estimated
        once on its coarse samples; each group doubles from its members'
        part of that estimate and estimates again only where its first
        level is above 64, on that level's own samples."""
        profile = fd.make_modulated_profile(1.0, 0.3, 2.0, fd.Interval(0.0, 3.0))
        calls, estimate = [], odesolve._work_estimate

        def recorded(a0, iv, peaks=None):
            result = estimate(a0, iv, peaks)
            calls.append((a0.shape[-1], peaks is None, result[1]))
            return result

        monkeypatch.setattr(odesolve, "_work_estimate", recorded)
        groups = odesolve._family(profile, [0.0, 0.0], [1.0, 400.0])
        assert [members.tolist() for members, *_ in groups] == [[0], [1]]
        assert calls == [(2, True, [64, 1024]), (1, False, [1024])]


class TestMixing:
    def test_endpoint_data_transforms(self, modulated_profile, rng):
        b = make_basis(modulated_profile)
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        mixed = _mix_basis(b, m)
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
            _mix_basis(b, ((1.0, 2.0), (2.0, 4.0)))

    def test_nonfinite_matrix_rejected(self, const_profile):
        b = make_basis(const_profile)
        with pytest.raises(ValueError, match="matrix"):
            _mix_basis(b, ((1.0, math.nan), (0.0, 1.0)))

    def test_frame_shared(self, modulated_profile, rng):
        """Phi(t, t_a) and Phi(t_b, t) do not depend on the basis, so mixing
        leaves them exactly as they were."""
        b = make_basis(modulated_profile)
        mixed = _mix_basis(b, rng.uniform(-2.0, 2.0, size=(2, 2)))
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
            basis = _mix_basis(basis, ((2.0, 1.0), (0.5, -1.0)))
    ts = modulated_profile.interval.grid(41)
    m = basis.m
    composed = np.einsum("ijn,jkn->ikn", basis.frame(ts)[1], basis.phi(ts))
    assert np.max(np.abs(composed - m[:, :, None])) <= 1e-12 * max(1.0, np.max(np.abs(m)))


class TestClassicalPathConvention:
    @staticmethod
    def classical_path(basis):
        # columns (eta, xi) with eta = 0 at t_a and 1 at t_b, xi the reverse
        (m11, m12), _ = basis.m
        return _mix_basis(basis, ((1.0 / m12, -m11 / m12), (0.0, 1.0)))

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
        """A periodic amplitude that the start misses costs one correction,
        read off the first solve by Pinney's superposition: one solve in all."""
        calls = []
        integrate = dop853.solve

        def counted(*args):
            calls.append(args)
            return integrate(*args)

        monkeypatch.setattr(dop853, "solve", counted)
        sol = solve_ermakov(seam_profile, 1.0, bc="periodic")
        assert sol.newton_iterations == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("name, omega0", [
        ("seam_profile", 1.0), ("shifted_profile", 6.5), ("modulated_profile", 1.0)])
    def test_superposition_matches_second_solve(self, request, name, omega0):
        """The superposed periodic amplitude is the DOP853 solve from Pinney's
        start, (p, p', q) to 1e-9 of each component's largest magnitude at
        101 interior times, and its endpoint closes to SHOOTING_TOL."""
        profile = request.getfixturevalue(name)
        iv = profile.interval
        sol = solve_ermakov(profile, omega0, bc="periodic")
        assert sol.newton_iterations == 1
        p1_a = float(profile.omega_sq(iv.t_a)) ** -0.25
        first = dop853_solve(profile, omega0, [p1_a, 0.0, 0.0])
        p_a, dp_a = ermakov._pinney_start(p1_a, first.ys[-1], omega0)
        assert (sol.p_a, sol.dp_a) == (p_a, dp_a)
        second = dop853_solve(profile, omega0, [p_a, dp_a, 0.0])
        times = np.linspace(iv.t_a, iv.t_b, 103)[1:-1]
        ref = second(times)
        error = np.abs(sol.state(times) - ref).max(axis=1)
        np.testing.assert_array_less(error, 1e-9 * np.abs(ref).max(axis=1))
        np.testing.assert_allclose(sol.q_knots, sol.state(sol.knots)[2], rtol=0.0,
                                   atol=1e-12 * sol.q_b)
        tol = ermakov.SHOOTING_TOL * (1.0 + sol.p_a)
        assert abs(sol.p_b - sol.p_a) <= tol and abs(sol.dp_b - sol.dp_a) <= tol

    @pytest.mark.parametrize("t_b", [3.196, 6.2])
    def test_near_resonance(self, t_b):
        """Modulated (1, 0.3, pi) on [0, t_b] at 2 - |tr M| of about 1e-3, by
        a band edge on either side (tr M near -2 and near 2): the superposed
        amplitude amplifies the first solve's error by about (4 - tr^2 M)^(-1/2)
        and still gives det_periodic's ratios, or refuses by SHOOTING_TOL."""
        profile = fd.make_modulated_profile(1.0, 0.3, math.pi, fd.Interval(0.0, t_b))
        basis = make_basis(profile)
        assert 5e-4 < 2.0 - abs(np.trace(basis.m)) < 2e-3
        try:
            sol = solve_ermakov(profile, 1.0, bc="periodic")
        except fd.ShootingError as err:
            assert "SHOOTING_TOL" in str(err)
            return
        for anti, det in ((False, fd.det_periodic), (True, fd.det_antiperiodic)):
            assert fd.det_ratio_periodic_pq(sol, anti=anti) == pytest.approx(
                det(basis, 1.0).ratio, rel=1e-8)

    def test_parametric_resonance_refused(self):
        """Modulated (1, 0.9, 2) on [0, 3.2] has tr M = -2.505: no periodic
        amplitude exists, and the solve says why."""
        profile = fd.make_modulated_profile(1.0, 0.9, 2.0, fd.Interval(0.0, 3.2))
        with pytest.raises(fd.ShootingError, match=r"\|tr M\| = 2\.505 .*parametric resonance"):
            solve_ermakov(profile, 1.0, bc="periodic")

    def test_pinney_miss_refused(self, monkeypatch, seam_profile):
        """A corrected amplitude that does not close to SHOOTING_TOL is refused
        by that name; at 1e-300 no solve closes."""
        monkeypatch.setattr(ermakov, "SHOOTING_TOL", 1e-300)
        with pytest.raises(fd.ShootingError, match=r"Pinney's closed form misses "
                                                   r"SHOOTING_TOL = 1e-300 \(residual"):
            solve_ermakov(seam_profile, 1.0, bc="periodic")

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


def dop853_solve(profile, omega0, start):
    """dop853.solve of (p, p', q) from start to the pq route's tolerances, as
    solve_ermakov calls it."""
    return dop853.solve(profile.omega_sq, profile.interval, float(omega0), start,
                        ermakov.DEFAULT_RTOL, ermakov.DEFAULT_ATOL)


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
                     rtol=ermakov.DEFAULT_RTOL, atol=ermakov.DEFAULT_ATOL)


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
        port = dop853_solve(profile, omega0, start)
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
        port = dop853_solve(profile, 1.0, start)
        with np.errstate(over="ignore"):
            ref = _scipy_dop853(profile, 1.0, start)
        assert ref.status == 0 and ref.y[0, -1] > 1e104
        assert port.ts.size == ref.t.size
        np.testing.assert_allclose(port.ts, ref.t, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(port.ys.T, ref.y, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name, omega0", [
        ("const_profile", 1.0), ("modulated_profile", 1.0), ("seam_profile", 1.0),
        ("shifted_profile", 6.5), ("user_profile", 1.0), ("overflowing", 1.0)])
    def test_steps_without_np_dot(self, request, monkeypatch, name, omega0):
        """The step loop makes its stage and error sums by ndarray.dot, not
        through np.dot's dispatch: with np.dot raising, the port still
        matches scipy's solve_ivp (run outside the patch) as
        test_matches_scipy and test_overflowing_amplitude_matches_scipy
        check it."""
        overflowing = name == "overflowing"
        if overflowing:
            profile = fd.make_user_profile(lambda t: -1.0, fd.Interval(0.0, 240.0))
            start = [1.0, 0.0, 0.0]
        else:
            profile = request.getfixturevalue(name)
            start = [float(profile.omega_sq(profile.interval.t_a)) ** -0.25, 0.0, 0.0]
        with np.errstate(over="ignore"):
            ref = _scipy_dop853(profile, omega0, start)

        def no_dot(*args, **kwargs):
            raise AssertionError("np.dot called")

        with monkeypatch.context() as patch:
            patch.setattr(np, "dot", no_dot)
            port = dop853_solve(profile, omega0, start)
        assert ref.status == 0
        assert port.ts.size == ref.t.size
        np.testing.assert_allclose(port.ts, ref.t, rtol=1e-13, atol=0.0)
        if overflowing:
            np.testing.assert_allclose(port.ys.T, ref.y, rtol=1e-12, atol=0.0)
        else:
            np.testing.assert_allclose(port.ys.T, ref.y, rtol=0.0, atol=1e-12)
            times = np.linspace(profile.interval.t_a, profile.interval.t_b, 103)[1:-1]
            np.testing.assert_allclose(port(times), ref.sol(times), rtol=0.0, atol=1e-12)

    def test_rejected_steps_match_scipy(self):
        """Omega^2 = 1 + 30 exp(-((t - 1)/0.05)^2) on [0, 2]: the steps
        overshoot the narrow bump and are rejected and retried there, so
        Omega^2 is sampled in more array calls than the accepted steps plus
        the two of the initial step; the retried steps are scipy's."""
        bump = fd.make_user_profile(lambda t: 1.0 + 30.0 * math.exp(-((t - 1.0) / 0.05) ** 2),
                                    fd.Interval(0.0, 2.0))
        calls = []

        def om(t):
            calls.append(t)
            return bump.omega_sq(t)

        start = [1.0, 0.0, 0.0]
        port = dop853_solve(
            fd.FrequencyProfile(omega_sq=om, interval=bump.interval), 1.0, start)
        assert len(calls) > port.ts.size - 1 + 2
        ref = _scipy_dop853(bump, 1.0, start)
        assert ref.status == 0
        assert port.ts.size == ref.t.size
        np.testing.assert_allclose(port.ts, ref.t, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(port.ys.T, ref.y, rtol=0.0, atol=1e-12)
        times = np.linspace(0.0, 2.0, 103)[1:-1]
        np.testing.assert_allclose(port(times), ref.sol(times), rtol=0.0, atol=1e-12)

    def test_dense_output_shapes(self, modulated_profile):
        port = dop853_solve(modulated_profile, 1.0, [1.0, 0.0, 0.0])
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
            dop853_solve(profile, 1.3, [1.0, -1e9, 0.0])
        assert float(str(info.value).rsplit("= ", 1)[1]) == pytest.approx(1e-9, rel=1e-6)

    def test_collapse_names_its_level(self):
        """The collapse refusal names the level p fell to: here on modulated
        (1, 5, 1) over [0, 200], where the endpoint ratio is 2.8e63."""
        profile = fd.make_modulated_profile(1.0, 5.0, 1.0, fd.Interval(0.0, 200.0))
        with pytest.raises(fd.IntegrationError,
                           match=r"p fell to dop853\._COLLAPSE_LEVEL = 1e-08: amplitude "
                                 r"solution collapsed to zero near t = 20\.03"):
            solve_ermakov(profile, 1.0, bc="initial")

    def test_step_too_small_refused(self):
        """Omega^2 that is NaN from t = 1 on rejects every step across it,
        until the step size falls below ten float spacings there."""
        profile = fd.FrequencyProfile(
            omega_sq=lambda t: np.where(np.asarray(t) < 1.0, 1.0, np.nan),
            interval=fd.Interval(0.0, 2.0))
        with pytest.raises(fd.IntegrationError, match="integration failed near t") as info:
            dop853_solve(profile, 1.0, [1.0, 0.0, 0.0])
        assert float(str(info.value).split("= ")[1].split(":")[0]) == pytest.approx(1.0)

    def test_nan_start_refused(self):
        """Omega^2 NaN at t_a (a profile built directly, which
        make_user_profile would refuse) makes the first step size NaN, which
        no comparison with the minimum step is true of: the solve must
        refuse it, not retry forever, so it runs in a subprocess under a
        timeout."""
        code = ("import numpy as np, flucdet as fd\n"
                "profile = fd.FrequencyProfile(omega_sq=lambda t: np.where(\n"
                "    np.asarray(t) <= 0.0, np.nan, 1.0), interval=fd.Interval(0.0, 2.0))\n"
                "try:\n    fd.solve_ermakov(profile, 1.0)\n"
                "except fd.IntegrationError as exc:\n    print(exc)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(fd.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout
        assert "integration failed near t = 0.0" in out
