"""Two-point functions, Green kernels, traces, and the retarded kernel."""

import math

import numpy as np
import pytest

import flucdet as fd
from flucdet.green import (
    BC_ANTIPERIODIC,
    BC_DIRICHLET,
    BC_PERIODIC,
    GreenKernel,
    det_from_transfer,
    dirichlet_trace_direct,
    retarded_green,
    trace_omega_sq,
    trace_weighted_diagonal,
)
from flucdet.odesolve import make_basis

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)


def apply_kernel(kernel, source, t, interval):
    """Integrate kernel(t, t') * source(t') with the diagonal kink split out."""
    total = 0.0
    for lo, hi in ((interval.t_a, t), (t, interval.t_b)):
        half = 0.5 * (hi - lo)
        if half <= 0.0:
            continue
        mid = 0.5 * (lo + hi)
        for x, w in zip(GAUSS_NODES, GAUSS_WEIGHTS):
            tp = mid + half * x
            total += w * half * kernel(t, tp) * source(tp)
    return total


class TestPairFunction:
    def test_constant_two_point_values(self, const2_profile):
        # f(t, t') = (eta(t) xi(t') - xi(t) eta(t')) / W, the retarded kernel for t > t'
        ret = retarded_green(make_basis(const2_profile))
        for t, tp in ((0.8, 0.1), (0.6, 0.2)):
            assert ret(t, tp) == pytest.approx(
                math.sin(2.0 * (tp - t)) / 2.0, abs=1e-11)

    def test_mixing_invariance(self, modulated_profile, rng):
        basis = make_basis(modulated_profile)
        mixed = fd.mix_basis(basis, rng.uniform(-2.0, 2.0, size=(2, 2)))
        for bc in (BC_DIRICHLET, BC_PERIODIC):
            k0, k1 = GreenKernel(basis, bc), GreenKernel(mixed, bc)
            for t, tp in ((0.3, 1.5), (1.9, 0.2)):
                assert k1(t, tp) == pytest.approx(k0(t, tp), rel=1e-11, abs=1e-13)


class TestEndpointMatrices:
    def test_dirichlet_det_constant(self, const2_profile):
        m = make_basis(const2_profile).m
        assert det_from_transfer(m, BC_DIRICHLET) == pytest.approx(
            math.sin(2.0) / 2.0, rel=1e-11)

    def test_wrapped_det_constant(self, const_profile):
        m = make_basis(const_profile).m
        per = det_from_transfer(m, BC_PERIODIC)
        anti = det_from_transfer(m, BC_ANTIPERIODIC)
        assert per == pytest.approx(4.0 * math.sin(0.5) ** 2, rel=1e-11)
        assert anti == pytest.approx(4.0 * math.cos(0.5) ** 2, rel=1e-11)

    def test_endpoint_matrix_kinds(self, modulated_profile):
        """The reads from M equal the general-basis endpoint formulas: the
        determinant of the boundary-value matrix (Dirichlet) or of the
        endpoint-difference matrix (wrapped) over the Wronskian."""
        basis = make_basis(modulated_profile)
        (eta_a, xi_a), (deta_a, dxi_a) = basis.y_a
        (eta_b, xi_b), (deta_b, dxi_b) = basis.y_b
        w = basis.w
        assert det_from_transfer(basis.m, BC_DIRICHLET) == pytest.approx(
            (eta_a * xi_b - xi_a * eta_b) / w, rel=1e-14)
        for bc, s in ((BC_PERIODIC, 1.0), (BC_ANTIPERIODIC, -1.0)):
            a11, a12 = eta_b - s * eta_a, xi_b - s * xi_a
            a21, a22 = deta_b - s * deta_a, dxi_b - s * dxi_a
            assert det_from_transfer(basis.m, bc) == pytest.approx(
                (a11 * a22 - a12 * a21) / w, rel=1e-12)

    def test_endpoint_matrix_bad_bc(self, const_profile):
        with pytest.raises(ValueError):
            det_from_transfer(make_basis(const_profile).m, "neumann")

    def test_hyperbolic_wrapped_no_cancellation(self):
        """Omega^2 = -4 on [0, 30]: 2 -+ tr M = 2 -+ 2 cosh(60), where the
        general endpoint formula cancels products of size e^120."""
        profile = fd.make_user_profile(lambda t: -4.0, fd.Interval(0.0, 30.0))
        m = make_basis(profile).m
        assert abs(np.linalg.det(m) - 1.0) <= 1e-10 * np.max(np.abs(m)) ** 2
        for bc, sign in ((BC_PERIODIC, -1.0), (BC_ANTIPERIODIC, 1.0)):
            exact = 2.0 + sign * 2.0 * math.cosh(60.0)
            assert det_from_transfer(m, bc) == pytest.approx(exact, rel=1e-10)


class TestKernelValues:
    def test_dirichlet_diagonal_constant(self, const_profile):
        kernel = GreenKernel(make_basis(const_profile), BC_DIRICHLET)
        for t in (0.25, 0.5, 0.8):
            expected = math.sin(t) * math.sin(1.0 - t) / math.sin(1.0)
            assert kernel.diagonal(t) == pytest.approx(expected, rel=1e-10)

    def test_periodic_diagonal_constant(self, const_profile):
        kernel = GreenKernel(make_basis(const_profile), BC_PERIODIC)
        expected = -math.cos(0.5) / (2.0 * math.sin(0.5))
        for t in (0.0, 0.3, 0.9):
            assert kernel.diagonal(t) == pytest.approx(expected, rel=1e-9)

    def test_antiperiodic_diagonal_constant(self, const_profile):
        kernel = GreenKernel(make_basis(const_profile), BC_ANTIPERIODIC)
        expected = math.sin(0.5) / (2.0 * math.cos(0.5))
        for t in (0.1, 0.5, 1.0):
            assert kernel.diagonal(t) == pytest.approx(expected, rel=1e-9)

    def test_denom_property(self, const_profile):
        basis = make_basis(const_profile)
        assert GreenKernel(basis, BC_DIRICHLET).denom == pytest.approx(
            math.sin(1.0), rel=1e-11)
        assert GreenKernel(basis, BC_PERIODIC).denom == pytest.approx(
            4.0 * math.sin(0.5) ** 2, rel=1e-11)

    def test_table_shape(self, const_profile):
        kernel = GreenKernel(make_basis(const_profile), BC_DIRICHLET)
        grid, table = kernel.table(5)
        assert len(grid) == 5 and len(table) == 5
        assert all(len(row) == 5 for row in table)
        assert table[0][2] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_PERIODIC, BC_ANTIPERIODIC])
    def test_table_matches_pointwise(self, modulated_profile, bc):
        kernel = GreenKernel(make_basis(modulated_profile), bc)
        grid, table = kernel.table(17)
        for ti, row in zip(grid, table):
            for tj, value in zip(grid, row):
                assert abs(value - kernel(ti, tj)) <= 1e-12

    @pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_PERIODIC, BC_ANTIPERIODIC])
    def test_arrays_equal_scalar_calls(self, modulated_profile, rng, bc):
        """Array calls, the (n, 1) x (1, n) broadcast included, equal the
        elementwise scalar calls exactly; scalar calls return float."""
        kernel = GreenKernel(make_basis(modulated_profile), bc)
        iv = modulated_profile.interval
        ts = np.concatenate(([iv.t_a], rng.uniform(iv.t_a, iv.t_b, size=6), [iv.t_b]))
        calls = [kernel.evaluate] + [
            lambda t, tp, side=side: kernel.evaluate_dt(t, tp, side=side)
            for side in ("auto", "upper", "lower")]
        for call in calls:
            square = call(ts[:, None], ts[None, :])
            assert square.shape == (ts.size, ts.size)
            for i, t in enumerate(ts):
                for j, tp in enumerate(ts):
                    scalar = call(t, tp)
                    assert type(scalar) is float
                    assert square[i, j] == scalar
            paired = call(ts, ts[::-1])
            assert paired.tolist() == [call(t, tp) for t, tp in zip(ts, ts[::-1])]
        assert kernel.diagonal(ts).tolist() == [kernel.diagonal(t) for t in ts]
        assert type(kernel.diagonal(float(ts[1]))) is float
        assert type(kernel.slope_jump(float(ts[1]))) is float

    @pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_PERIODIC, BC_ANTIPERIODIC])
    def test_one_frame_per_time(self, modulated_profile, bc):
        """Once the prefix and suffix products are formed, each time costs
        one local Magnus step for both anchored solutions: Omega^2 is
        sampled at its three Gauss nodes, once."""
        sampled = []

        def omega_sq(t):
            sampled.append(np.size(t))
            return modulated_profile.omega_sq(t)

        profile = fd.FrequencyProfile(omega_sq, modulated_profile.interval)
        kernel = GreenKernel(make_basis(profile), bc)
        ts = modulated_profile.interval.grid(101)
        sampled.clear()
        kernel.diagonal(ts)
        assert sum(sampled) == 3 * len(ts)


class TestKernelProperties:
    @pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_PERIODIC, BC_ANTIPERIODIC])
    def test_symmetry(self, modulated_profile, rng, bc):
        kernel = GreenKernel(make_basis(modulated_profile), bc)
        iv = modulated_profile.interval
        pts = rng.uniform(iv.t_a, iv.t_b, size=(20, 2))
        for t, tp in pts:
            g1, g2 = kernel(t, tp), kernel(tp, t)
            assert abs(g1 - g2) <= 1e-9 * (1.0 + abs(g1))

    @pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_PERIODIC, BC_ANTIPERIODIC])
    def test_slope_jump(self, modulated_profile, bc):
        kernel = GreenKernel(make_basis(modulated_profile), bc)
        for t in (0.4, 1.0, 1.7):
            assert kernel.slope_jump(t) == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_PERIODIC, BC_ANTIPERIODIC])
    def test_annihilation_off_diagonal(self, modulated_profile, bc):
        kernel = GreenKernel(make_basis(modulated_profile), bc)
        h = 1e-3
        tp = 0.55
        for t in (1.2, 1.6):
            stencil = (-kernel(t + 2 * h, tp) + 16.0 * kernel(t + h, tp)
                       - 30.0 * kernel(t, tp) + 16.0 * kernel(t - h, tp)
                       - kernel(t - 2 * h, tp))
            second = stencil / (12.0 * h * h)
            residual = -second - modulated_profile(t) * kernel(t, tp)
            assert abs(residual) <= 1e-6

    def test_dirichlet_boundary_values(self, modulated_profile):
        kernel = GreenKernel(make_basis(modulated_profile), BC_DIRICHLET)
        iv = modulated_profile.interval
        for s in (0.3, 0.9, 1.5):
            assert kernel(iv.t_a, s) == pytest.approx(0.0, abs=1e-10)
            assert kernel(iv.t_b, s) == pytest.approx(0.0, abs=1e-10)

    def test_wrapped_boundary_relations(self, modulated_profile):
        iv = modulated_profile.interval
        basis = make_basis(modulated_profile)
        for bc, sign in ((BC_PERIODIC, 1.0), (BC_ANTIPERIODIC, -1.0)):
            kernel = GreenKernel(basis, bc)
            for s in (0.4, 1.1, 1.8):
                va, vb = kernel(iv.t_a, s), kernel(iv.t_b, s)
                assert vb == pytest.approx(sign * va, rel=1e-7, abs=1e-9)
                da = kernel.evaluate_dt(iv.t_a, s)
                db = kernel.evaluate_dt(iv.t_b, s)
                assert db == pytest.approx(sign * da, rel=1e-6, abs=1e-8)

    def test_continuity_across_diagonal(self, const2_profile):
        kernel = GreenKernel(make_basis(const2_profile), BC_DIRICHLET)
        t, d = 0.6, 1e-8
        assert kernel(t, t + d) == pytest.approx(kernel(t, t - d), abs=1e-7)
        assert kernel(t, t) == pytest.approx(kernel(t, t + d), abs=1e-7)


class TestResolvent:
    CASES = (
        (BC_DIRICHLET,
         lambda s: math.sin(math.pi * s),
         lambda s: math.pi ** 2 * math.sin(math.pi * s)),
        (BC_PERIODIC,
         lambda s: math.sin(2.0 * math.pi * s),
         lambda s: 4.0 * math.pi ** 2 * math.sin(2.0 * math.pi * s)),
        (BC_ANTIPERIODIC,
         lambda s: math.cos(math.pi * s),
         lambda s: math.pi ** 2 * math.cos(math.pi * s)),
    )

    @pytest.mark.parametrize("bc,shape,neg_second", CASES)
    def test_kernel_inverts_operator(self, const_profile, bc, shape, neg_second):
        """Applying the kernel to K phi returns phi for phi in the domain."""
        iv = const_profile.interval
        span = iv.span
        kernel = GreenKernel(make_basis(const_profile), bc)

        def phi(t):
            return shape((t - iv.t_a) / span)

        def source(t):
            return neg_second((t - iv.t_a) / span) / span ** 2 \
                - const_profile(t) * phi(t)

        for t in (0.17, 0.42, 0.88):
            recovered = apply_kernel(kernel, source, t, iv)
            assert recovered == pytest.approx(phi(t), abs=1e-8)


class TestTraces:
    def test_free_unit_weight_trace(self, free_profile):
        kernel = GreenKernel(make_basis(free_profile), BC_DIRICHLET)
        value = trace_weighted_diagonal(kernel, lambda t: 1.0)
        assert value == pytest.approx(1.0 / 6.0, rel=1e-10)

    @pytest.mark.parametrize("bc", [BC_DIRICHLET, BC_PERIODIC, BC_ANTIPERIODIC])
    def test_trace_omega_sq_runs(self, modulated_profile, bc):
        kernel = GreenKernel(make_basis(modulated_profile), bc)
        value = trace_omega_sq(kernel, check=True)
        assert math.isfinite(value)

    def test_direct_assembly_matches_kernel(self, modulated_profile):
        basis = make_basis(modulated_profile)
        kernel = GreenKernel(basis, BC_DIRICHLET)
        via_kernel = trace_omega_sq(kernel)
        direct = dirichlet_trace_direct(basis)
        assert direct == pytest.approx(via_kernel, rel=1e-9)


class TestTraceClosedForms:
    """Tr[Omega^2 G] = -d/dg log det K_g at g = 1 for constant Omega^2 on a
    shifted interval, with x = omega T or k T."""

    T_A, SPAN = -1.7, 2.5

    def trace(self, omega_sq: float, bc: str) -> float:
        iv = fd.Interval(self.T_A, self.T_A + self.SPAN)
        profile = fd.make_user_profile(lambda t: omega_sq, iv)
        return trace_omega_sq(GreenKernel(make_basis(profile), bc), check=True)

    @pytest.mark.parametrize("x", [1.0, 6.0, 10.25, 30.3])
    @pytest.mark.parametrize("bc,closed", [
        (BC_DIRICHLET, lambda x: 0.5 - 0.5 * x / math.tan(x)),
        (BC_PERIODIC, lambda x: -0.5 * x / math.tan(0.5 * x)),
        (BC_ANTIPERIODIC, lambda x: 0.5 * x * math.tan(0.5 * x)),
    ])
    def test_oscillatory(self, x, bc, closed):
        omega = x / self.SPAN
        assert self.trace(omega * omega, bc) == pytest.approx(closed(x), rel=1e-9)

    @pytest.mark.parametrize("x", [2.0, 6.0, 6.9, 16.0, 30.0])
    @pytest.mark.parametrize("bc,closed", [
        (BC_DIRICHLET, lambda x: 0.5 - 0.5 * x / math.tanh(x)),
        (BC_ANTIPERIODIC, lambda x: -0.5 * x * math.tanh(0.5 * x)),
    ])
    def test_hyperbolic(self, x, bc, closed):
        k = x / self.SPAN
        assert self.trace(-k * k, bc) == pytest.approx(closed(x), rel=1e-9)


class TestRetarded:
    def test_causal_support(self, const_profile):
        basis = make_basis(const_profile)
        ret = retarded_green(basis)
        assert ret(0.3, 0.8) == 0.0
        assert ret(0.5, 0.5) == 0.0
        assert ret(0.8, 0.3) == pytest.approx(math.sin(0.3 - 0.8), abs=1e-11)

    def test_free_values(self, free_profile):
        ret = retarded_green(make_basis(free_profile))
        assert ret(0.9, 0.4) == pytest.approx(-0.5, abs=1e-12)


class TestDegeneracies:
    def test_dirichlet_focal_interval(self):
        prof = fd.make_constant_profile(1.0, fd.Interval(0.0, math.pi))
        with pytest.raises(fd.DegenerateOperatorError):
            GreenKernel(make_basis(prof), BC_DIRICHLET)

    def test_periodic_free_interval(self, free_profile):
        with pytest.raises(fd.DegenerateOperatorError):
            GreenKernel(make_basis(free_profile), BC_PERIODIC)

    def test_unsupported_bc(self, const_profile):
        with pytest.raises(ValueError):
            GreenKernel(make_basis(const_profile), "robin")
