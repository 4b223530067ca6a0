"""Two-point functions, Green kernels and traces."""

import math

import numpy as np
import pytest

import flucdet as fd
from flucdet import green, odesolve
from flucdet.green import (
    GreenKernel,
    _det_slope,
    _read_transfer,
    trace_omega_sq,
)
from flucdet.odesolve import make_basis

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)


def assert_trace_identity(value, basis, kernel):
    """Tr[Omega^2 G] = -dF/dg / F, with dF/dg from _det_slope (the Magnus
    grid's slope), to 1e-8 relative to 1 + |value|."""
    slope = _det_slope(basis, kernel.bc, basis.profile.omega_sq)
    assert abs(value + slope / kernel.denom) <= 1e-8 * (1.0 + abs(value))


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
    def test_mixing_invariance(self, modulated_profile, rng):
        basis = make_basis(modulated_profile)
        mixed = odesolve._mix_basis(basis, rng.uniform(-2.0, 2.0, size=(2, 2)))
        for bc in ("dirichlet", "periodic"):
            k0, k1 = GreenKernel(basis, bc), GreenKernel(mixed, bc)
            for t, tp in ((0.3, 1.5), (1.9, 0.2)):
                assert k1(t, tp) == pytest.approx(k0(t, tp), rel=1e-11, abs=1e-13)


class TestEndpointMatrices:
    def test_dirichlet_det_constant(self, const2_profile):
        m = make_basis(const2_profile).m
        assert _read_transfer(m, "dirichlet")[0] == pytest.approx(
            math.sin(2.0) / 2.0, rel=1e-11)

    def test_wrapped_det_constant(self, const_profile):
        m = make_basis(const_profile).m
        per = _read_transfer(m, "periodic")[0]
        anti = _read_transfer(m, "antiperiodic")[0]
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
        assert _read_transfer(basis.m, "dirichlet")[0] == pytest.approx(
            (eta_a * xi_b - xi_a * eta_b) / w, rel=1e-14)
        for bc, s in (("periodic", 1.0), ("antiperiodic", -1.0)):
            a11, a12 = eta_b - s * eta_a, xi_b - s * xi_a
            a21, a22 = deta_b - s * deta_a, dxi_b - s * dxi_a
            assert _read_transfer(basis.m, bc)[0] == pytest.approx(
                (a11 * a22 - a12 * a21) / w, rel=1e-12)

    def test_endpoint_matrix_bad_bc(self, const_profile):
        with pytest.raises(ValueError):
            _read_transfer(make_basis(const_profile).m, "neumann")

    def test_hyperbolic_wrapped_no_cancellation(self):
        """Omega^2 = -4 on [0, 30]: 2 -+ tr M = 2 -+ 2 cosh(60), where the
        general endpoint formula cancels products of size e^120."""
        profile = fd.make_user_profile(lambda t: -4.0, fd.Interval(0.0, 30.0))
        m = make_basis(profile).m
        assert abs(np.linalg.det(m) - 1.0) <= 1e-10 * np.max(np.abs(m)) ** 2
        for bc, sign in (("periodic", -1.0), ("antiperiodic", 1.0)):
            exact = 2.0 + sign * 2.0 * math.cosh(60.0)
            assert _read_transfer(m, bc)[0] == pytest.approx(exact, rel=1e-10)


class TestKernelValues:
    def test_dirichlet_diagonal_constant(self, const_profile):
        kernel = GreenKernel(make_basis(const_profile), "dirichlet")
        for t in (0.25, 0.5, 0.8):
            expected = math.sin(t) * math.sin(1.0 - t) / math.sin(1.0)
            assert kernel.diagonal(t) == pytest.approx(expected, rel=1e-10)

    def test_periodic_diagonal_constant(self, const_profile):
        kernel = GreenKernel(make_basis(const_profile), "periodic")
        expected = -math.cos(0.5) / (2.0 * math.sin(0.5))
        for t in (0.0, 0.3, 0.9):
            assert kernel.diagonal(t) == pytest.approx(expected, rel=1e-9)

    def test_antiperiodic_diagonal_constant(self, const_profile):
        kernel = GreenKernel(make_basis(const_profile), "antiperiodic")
        expected = math.sin(0.5) / (2.0 * math.cos(0.5))
        for t in (0.1, 0.5, 1.0):
            assert kernel.diagonal(t) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("bc,omega_sq,span", [
        # M = -I and M = +I: M12 = 0, though both kernels exist
        ("periodic", (0.5 * math.pi) ** 2, 2.0),
        ("antiperiodic", math.pi ** 2, 2.0),
        # periodic omega T = pi + delta: M12 of size delta
        ("periodic", (0.5 * (math.pi + 1e-2)) ** 2, 2.0),
        ("periodic", (0.5 * (math.pi + 1e-6)) ** 2, 2.0),
        ("periodic", (0.5 * (math.pi + 1e-8)) ** 2, 2.0),
        # hyperbolic k T = 30: solutions of size e^30
        ("periodic", -(30.0 / 2.5) ** 2, 2.5),
        ("antiperiodic", -(30.0 / 2.5) ** 2, 2.5),
    ], ids=["periodic-pi", "antiperiodic-2pi", "periodic-pi+1e-2", "periodic-pi+1e-6",
            "periodic-pi+1e-8", "periodic-kT30", "antiperiodic-kT30"])
    def test_wrapped_table_closed_form(self, bc, omega_sq, span):
        """Constant Omega^2 on [t_a, t_a + T], with u = |t - t'| - T/2: G =
        -cos(omega u) / (2 omega sin(omega T/2)) periodic and -sin(omega u) /
        (2 omega cos(omega T/2)) antiperiodic, or cosh(k u) / (2 k sinh(k T/2))
        and -sinh(k u) / (2 k cosh(k T/2)) for Omega^2 = -k^2; to 1e-13 of
        max|G|."""
        iv = fd.Interval(-0.7, -0.7 + span)
        kernel = GreenKernel(make_basis(fd.make_user_profile(lambda t: omega_sq, iv)), bc)
        ts = iv.grid(21)
        u = np.abs(ts[:, None] - ts[None, :]) - 0.5 * span
        if omega_sq > 0.0:
            w = math.sqrt(omega_sq)
            exact = (-np.cos(w * u) / (2.0 * w * math.sin(0.5 * w * span))
                     if bc == "periodic" else
                     -np.sin(w * u) / (2.0 * w * math.cos(0.5 * w * span)))
        else:
            k = math.sqrt(-omega_sq)
            exact = (np.cosh(k * u) / (2.0 * k * math.sinh(0.5 * k * span))
                     if bc == "periodic" else
                     -np.sinh(k * u) / (2.0 * k * math.cosh(0.5 * k * span)))
        table = kernel.evaluate(ts[:, None], ts[None, :])
        assert np.max(np.abs(table - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_denom_property(self, const_profile):
        basis = make_basis(const_profile)
        assert GreenKernel(basis, "dirichlet").denom == pytest.approx(
            math.sin(1.0), rel=1e-11)
        assert GreenKernel(basis, "periodic").denom == pytest.approx(
            4.0 * math.sin(0.5) ** 2, rel=1e-11)

    def test_table_shape(self, const_profile):
        kernel = GreenKernel(make_basis(const_profile), "dirichlet")
        grid, table = kernel.table(5)
        assert len(grid) == 5 and len(table) == 5
        assert all(len(row) == 5 for row in table)
        assert table[0][2] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("size", [2.5, math.nan])
    def test_table_size_must_be_an_integer(self, const_profile, size):
        """A table of 2.5 or nan points is refused by its grid size, not by
        the frame's domain check or numpy's arange."""
        kernel = GreenKernel(make_basis(const_profile), "dirichlet")
        with pytest.raises(ValueError, match="grid size n must be a finite integer"):
            kernel.table(size)

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_table_matches_pointwise(self, modulated_profile, bc):
        kernel = GreenKernel(make_basis(modulated_profile), bc)
        grid, table = kernel.table(17)
        for ti, row in zip(grid, table):
            for tj, value in zip(grid, row):
                assert abs(value - kernel(ti, tj)) <= 1e-12

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
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

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_one_frame_per_time(self, modulated_profile, bc):
        """Once the prefix and suffix products are formed, each time costs
        one local Magnus step for both anchored solutions: Omega^2 is
        sampled at its four Gauss nodes, once."""
        sampled = []

        def omega_sq(t):
            sampled.append(np.size(t))
            return modulated_profile.omega_sq(t)

        profile = fd.FrequencyProfile(omega_sq, modulated_profile.interval)
        kernel = GreenKernel(make_basis(profile), bc)
        ts = modulated_profile.interval.grid(101)
        sampled.clear()
        kernel.diagonal(ts)
        assert sum(sampled) == 4 * len(ts)


class TestKernelProperties:
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_symmetry(self, modulated_profile, rng, bc):
        kernel = GreenKernel(make_basis(modulated_profile), bc)
        iv = modulated_profile.interval
        pts = rng.uniform(iv.t_a, iv.t_b, size=(20, 2))
        for t, tp in pts:
            g1, g2 = kernel(t, tp), kernel(tp, t)
            assert abs(g1 - g2) <= 1e-9 * (1.0 + abs(g1))

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_slope_jump(self, modulated_profile, bc):
        kernel = GreenKernel(make_basis(modulated_profile), bc)
        for t in (0.4, 1.0, 1.7):
            assert kernel.slope_jump(t) == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
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
        kernel = GreenKernel(make_basis(modulated_profile), "dirichlet")
        iv = modulated_profile.interval
        for s in (0.3, 0.9, 1.5):
            assert kernel(iv.t_a, s) == pytest.approx(0.0, abs=1e-10)
            assert kernel(iv.t_b, s) == pytest.approx(0.0, abs=1e-10)

    def test_wrapped_boundary_relations(self, modulated_profile):
        iv = modulated_profile.interval
        basis = make_basis(modulated_profile)
        for bc, sign in (("periodic", 1.0), ("antiperiodic", -1.0)):
            kernel = GreenKernel(basis, bc)
            for s in (0.4, 1.1, 1.8):
                va, vb = kernel(iv.t_a, s), kernel(iv.t_b, s)
                assert vb == pytest.approx(sign * va, rel=1e-7, abs=1e-9)
                da = kernel.evaluate_dt(iv.t_a, s)
                db = kernel.evaluate_dt(iv.t_b, s)
                assert db == pytest.approx(sign * da, rel=1e-6, abs=1e-8)

    def test_continuity_across_diagonal(self, const2_profile):
        kernel = GreenKernel(make_basis(const2_profile), "dirichlet")
        t, d = 0.6, 1e-8
        assert kernel(t, t + d) == pytest.approx(kernel(t, t - d), abs=1e-7)
        assert kernel(t, t) == pytest.approx(kernel(t, t + d), abs=1e-7)


class TestResolvent:
    CASES = (
        ("dirichlet",
         lambda s: math.sin(math.pi * s),
         lambda s: math.pi ** 2 * math.sin(math.pi * s)),
        ("periodic",
         lambda s: math.sin(2.0 * math.pi * s),
         lambda s: 4.0 * math.pi ** 2 * math.sin(2.0 * math.pi * s)),
        ("antiperiodic",
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


def unit_weight_trace(kernel) -> float:
    """int G(t, t) dt by the basis's Gauss rule on the integrator's steps."""
    nodes, weights = kernel.basis.quadrature
    return float(weights @ kernel.diagonal(nodes))


class TestTraces:
    def test_free_unit_weight_trace(self, free_profile):
        kernel = GreenKernel(make_basis(free_profile), "dirichlet")
        value = unit_weight_trace(kernel)
        assert value == pytest.approx(1.0 / 6.0, rel=1e-10)

    def test_periodic_unit_weight_trace_near_focal(self):
        """omega T = pi + delta, delta = 1e-8, on [0, 2]: int G(t, t) dt =
        T tan(delta/2) / (2 omega), of size 3e-9 against |G| up to 0.3."""
        delta, span = 1e-8, 2.0
        omega = (math.pi + delta) / span
        profile = fd.make_constant_profile(omega, fd.Interval(0.0, span))
        value = unit_weight_trace(GreenKernel(make_basis(profile), "periodic"))
        assert value == pytest.approx(span * math.tan(0.5 * delta) / (2.0 * omega), rel=1e-6)

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_trace_omega_sq_runs(self, modulated_profile, bc):
        basis = make_basis(modulated_profile)
        kernel = GreenKernel(basis, bc)
        value = trace_omega_sq(kernel)
        assert math.isfinite(value)
        assert_trace_identity(value, basis, kernel)

    def test_direct_assembly_matches_kernel(self, modulated_profile):
        """The kernel diagonal against -dF/dg / F, which _det_slope reads from
        the pairwise reduction of the Magnus steps, without the kernel's
        anchored solutions or any frame."""
        basis = make_basis(modulated_profile)
        kernel = GreenKernel(basis, "dirichlet")
        via_kernel = trace_omega_sq(kernel)
        direct = -_det_slope(basis, "dirichlet", modulated_profile.omega_sq) / kernel.denom
        assert direct == pytest.approx(via_kernel, rel=1e-9)


class TestTraceClosedForms:
    """Tr[Omega^2 G] = -d/dg log det K_g at g = 1 for constant Omega^2 on a
    shifted interval, with x = omega T or k T."""

    T_A, SPAN = -1.7, 2.5

    def trace(self, omega_sq: float, bc: str) -> float:
        iv = fd.Interval(self.T_A, self.T_A + self.SPAN)
        basis = make_basis(fd.make_user_profile(lambda t: omega_sq, iv))
        kernel = GreenKernel(basis, bc)
        value = trace_omega_sq(kernel)
        assert_trace_identity(value, basis, kernel)
        return value

    @pytest.mark.parametrize("x", [1.0, 6.0, 10.25, 30.3])
    @pytest.mark.parametrize("bc,closed", [
        ("dirichlet", lambda x: 0.5 - 0.5 * x / math.tan(x)),
        ("periodic", lambda x: -0.5 * x / math.tan(0.5 * x)),
        ("antiperiodic", lambda x: 0.5 * x * math.tan(0.5 * x)),
    ])
    def test_oscillatory(self, x, bc, closed):
        omega = x / self.SPAN
        assert self.trace(omega * omega, bc) == pytest.approx(closed(x), rel=1e-9)

    @pytest.mark.parametrize("x", [2.0, 6.0, 6.9, 16.0, 30.0])
    @pytest.mark.parametrize("bc,closed", [
        ("dirichlet", lambda x: 0.5 - 0.5 * x / math.tanh(x)),
        ("periodic", lambda x: -0.5 * x / math.tanh(0.5 * x)),
        ("antiperiodic", lambda x: -0.5 * x * math.tanh(0.5 * x)),
    ])
    def test_hyperbolic(self, x, bc, closed):
        k = x / self.SPAN
        assert self.trace(-k * k, bc) == pytest.approx(closed(x), rel=1e-9)


class TestFamilyKernel:
    """_det_slope on a Magnus family grid, as the coupling flow reads it."""

    S = np.array([0.2, 0.6, 1.0])

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_per_member_values(self, modulated_profile, bc):
        """Every member's dF/ds, unweighted, weighted by Omega^2 or by a
        members-last weight, is that member's own grid's."""
        ((_, grid, _, _, _),) = odesolve._family(modulated_profile, 1.0 - self.S, self.S)
        om, scale = modulated_profile.omega_sq, np.array([1.0, -2.5, 0.5])
        cases = ((None, lambda j: None), (om, lambda j: om),
                 (lambda t: np.multiply.outer(om(t), scale),
                  lambda j: lambda t: scale[j] * om(t)))
        for family_weight, member_weight in cases:
            slopes = _det_slope(grid, bc, family_weight)
            assert slopes.shape == (self.S.size,)
            for j in range(self.S.size):
                alone = odesolve._MagnusGrid(grid.omega_sq, grid.c0[j], grid.c1[j],
                                             grid.iv, grid.n)
                assert slopes[j] == pytest.approx(
                    _det_slope(alone, bc, member_weight(j)), rel=1e-14)


def frame_slope(grid, weight=None):
    """dM/ds = -sum_n w_n S(t_n)[:, 1] Phi(t_n)[0] over the Gauss nodes, from
    the frame's prefix and suffix products: the assembly that the grid's
    pairwise reduction replaced, kept as its independent reference."""
    nodes, weights = odesolve._gauss_rule(grid.knots)
    if weight is not None:
        weights = (np.transpose(weight(nodes)) * weights).T
    phi, s = grid.frame(nodes)
    return -np.einsum("in...,jn...,n...->ij...", s[:, 1], phi[0], weights)


def hyperbolic(kt):
    """Omega^2 = -k^2 on [0, 1]."""
    return fd.FrequencyProfile(omega_sq=lambda t: np.full(np.shape(t), -kt * kt),
                               interval=fd.Interval(0.0, 1.0))


SLOPE_PROFILES = {
    "constant-1": fd.make_constant_profile(1.0, fd.Interval(0.0, 1.0)),
    "constant-300": fd.make_constant_profile(300.0, fd.Interval(0.0, 1.0)),
    "modulated": fd.make_modulated_profile(3.0, 0.3, 2.0, fd.Interval(-0.5, 1.5)),
    "hyperbolic-33": hyperbolic(33.0),
    "hyperbolic-60": hyperbolic(60.0),
}
F_SLOPE = {"dirichlet": lambda dm: dm[0, 1],
           "periodic": lambda dm: -np.trace(dm),
           "antiperiodic": lambda dm: np.trace(dm)}


class TestGridSlope:
    """_MagnusGrid.slope, the pairwise reduction of the step pairs (E_k, D_k),
    against the frame's products, which it no longer forms."""

    @pytest.mark.parametrize("bc", sorted(F_SLOPE))
    @pytest.mark.parametrize("name", sorted(SLOPE_PROFILES))
    def test_matches_frame_assembly(self, name, bc):
        """Unweighted, weighted by Omega^2 and by a members-last weight, on
        each group of a two-member family (g = 1 and 0.8)."""
        profile = SLOPE_PROFILES[name]
        om, scale = profile.omega_sq, np.array([1.0, -2.5])
        for members, grid, _, _, _ in odesolve._family(profile, [0.0, 0.0], [1.0, 0.8]):
            for weight in (None, om, lambda t: np.multiply.outer(om(t), scale[members])):
                assert _det_slope(grid, bc, weight) == pytest.approx(
                    F_SLOPE[bc](frame_slope(grid, weight)), rel=1e-13)

    def test_basis_carries_its_grid_slope(self, modulated_profile):
        """make_basis carries the slope of its final grid, bit for bit."""
        basis = make_basis(modulated_profile)
        grid = odesolve._MagnusGrid(modulated_profile.omega_sq, 0.0, 1.0,
                                    modulated_profile.interval, basis.knots.size - 1)
        assert np.array_equal(basis.slope(), grid.slope())

    def test_basis_reads_the_accepted_level(self, modulated_profile, monkeypatch):
        """make_basis's slope and frames, and so its kernels and traces, run
        on the accepted 64 steps, though its solve returns 32 as the coarsest
        level that meets the target (the level only the coupling flow's dF/ds
        reads): the main path keeps the digits of its finest M."""
        levels = set()

        def spy(name, method):
            def record(grid, *args):
                levels.add((name, grid.n))
                return method(grid, *args)
            return record

        for name in ("slope", "frame"):
            monkeypatch.setattr(odesolve._MagnusGrid, name,
                                spy(name, getattr(odesolve._MagnusGrid, name)))
        basis, (grid, _, _, coarsest) = (make_basis(modulated_profile),
                                         odesolve._solve(modulated_profile, 0.0, 1.0))
        assert basis.knots.size - 1 == grid.n == 64 and coarsest == 32
        trace_omega_sq(GreenKernel(basis, "periodic"))
        _det_slope(basis, "dirichlet")
        assert levels == {("slope", 64), ("frame", 64)}

    def test_runs_combine_in_order(self, modulated_profile, monkeypatch):
        """At MAGNUS_CHUNK = 64 the 256 steps reduce in 16 runs of 16, whose
        pairs are combined in the order transfer multiplies them; the slope
        changes only in rounding against the one run it is by default."""
        grid = odesolve._MagnusGrid(modulated_profile.omega_sq, 0.0, 1.0,
                                    modulated_profile.interval, 256)
        whole = grid.slope(modulated_profile.omega_sq)
        monkeypatch.setattr(odesolve, "MAGNUS_CHUNK", 64)
        assert len(grid._runs(odesolve._GAUSS_X.size)) == 16
        parts = grid.slope(modulated_profile.omega_sq)
        assert np.max(np.abs(parts - whole)) <= 1e-14 * np.max(np.abs(whole))

    def test_pq_basis_refused(self, modulated_profile):
        """basis_from_pq has no Magnus product, hence no slope, and no frame
        fallback stands in for one."""
        basis = fd.basis_from_pq(fd.solve_ermakov(modulated_profile, 1.0))
        with pytest.raises(ValueError, match="basis_from_pq"):
            _det_slope(basis, "dirichlet")


@pytest.mark.parametrize("call", [
    lambda p: _det_slope(make_basis(p), "periodic", p.omega_sq),
    lambda p: fd.gflow_ratio(p, "periodic", omega0=1.0),
    lambda p: fd.det_periodic_regularized(
        fd.make_constant_profile(0.0, fd.Interval(0.0, 2.0))),
], ids=["det-slope", "gflow-ratio", "det-periodic-regularized"])
def test_slopes_form_no_products(modulated_profile, monkeypatch, call):
    """dF/ds, the coupling flow and the wrapped regularized determinant read
    the slope's pairwise reduction: none forms prefix or suffix products."""
    def refuse(*args, **kwargs):
        raise AssertionError("prefix or suffix products formed")

    monkeypatch.setattr(odesolve, "_scan", refuse)
    assert np.all(np.isfinite(call(modulated_profile)))


@pytest.mark.parametrize("omega0", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("read", [
    lambda p, w: fd.determinant(p, "periodic", omega0=w),
    lambda p, w: fd.determinant(p, "antiperiodic", omega0=w),
    lambda p, w: fd.lattice_ratio(p, "periodic", w, 200),
    lambda p, w: fd.lattice_ratio(p, "dirichlet", w, 200),
    lambda p, w: fd.lattice_ratio_richardson(p, "periodic", w, 200),
    lambda p, w: fd.pseudo_det_ratio(fd.make_constant_profile(0.0, p.interval), "periodic",
                                     200, omega0=w),
    lambda p, w: fd.gflow_ratio(p, "periodic", omega0=w, g_steps=4),
], ids=["endpoint-periodic", "endpoint-antiperiodic", "lattice-periodic", "lattice-dirichlet",
        "richardson", "pseudo", "flow"])
def test_non_finite_omega0_refused(modulated_profile, read, omega0):
    """Every route that reads omega0 refuses a value that is not finite by
    name (green._omega0): NaN read a NaN ratio, and inf failed with a math
    domain error."""
    with pytest.raises(ValueError, match="omega0 must be finite"):
        read(modulated_profile, omega0)


def test_dirichlet_endpoint_ignores_omega0(modulated_profile):
    """The Dirichlet endpoint ratio is over the free operator: omega0 is not read."""
    ratio = fd.determinant(modulated_profile, "dirichlet", omega0=1.0).ratio
    assert fd.determinant(modulated_profile, "dirichlet", omega0=math.nan).ratio == ratio


class TestDegeneracies:
    def test_dirichlet_focal_interval(self):
        prof = fd.make_constant_profile(1.0, fd.Interval(0.0, math.pi))
        with pytest.raises(fd.DegenerateOperatorError):
            GreenKernel(make_basis(prof), "dirichlet")

    def test_periodic_free_interval(self, free_profile):
        with pytest.raises(fd.DegenerateOperatorError):
            GreenKernel(make_basis(free_profile), "periodic")

    def test_unsupported_bc(self, const_profile):
        with pytest.raises(ValueError):
            GreenKernel(make_basis(const_profile), "robin")

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_boundary_check_refused(self, monkeypatch, modulated_profile, bc):
        """A kernel whose boundary or jump residual exceeds BC_CHECK_TOL is
        refused with the residual and the tolerance by name; at 0 every
        kernel's rounding exceeds it."""
        monkeypatch.setattr(green, "BC_CHECK_TOL", 0.0)
        with pytest.raises(fd.VerificationError, match=rf"{bc} Green function violates its "
                                                       r"boundary or jump conditions \(residual "
                                                       r"\S+ > BC_CHECK_TOL = 0\.0\)"):
            GreenKernel(make_basis(modulated_profile), bc)

    def test_unknown_branch_side(self, const_profile):
        kernel = GreenKernel(make_basis(const_profile), "dirichlet")
        with pytest.raises(ValueError, match="side must be 'auto', 'upper' or 'lower'"):
            kernel.evaluate_dt(0.2, 0.3, side="left")


class TestConditionEstimate:
    # M11 is a dyadic or an integer, so that M22 = sigma (2 - F) - M11 sums
    # back exactly to +-2 at F = +-0
    MATRICES = [np.array([[0.25, -2.0], [0.5, 1.2]]),
                np.array([[0.125, 0.2], [-0.3, 0.4]]),
                np.array([[-7.5e8, 1e-3], [2.0, -1.3e-9]])]
    VALUES = [0.01, -3.0, 2.5e-12, 0.0, -0.0, 1e300]

    @staticmethod
    def with_value(m, value, bc):
        """m with M12 = value (Dirichlet), or with M22 set so that 2 - sigma tr M
        is value up to the rounding of 2 - value and of the sum."""
        m, sigma = m.copy(), {"dirichlet": 0, "periodic": 1, "antiperiodic": -1}[bc]
        if sigma:
            m[1, 1] = sigma * (2.0 - value) - m[0, 0]
        else:
            m[0, 1] = value
        return m

    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("index", range(len(MATRICES)))
    def test_scalar_path_equals_array_path(self, index, value):
        """Under each condition, the float read of M gives F = M12 or 2 - sigma
        tr M as formed on the array, the sign of zero included, the condition
        max(1, max|M_ij|) / |F| formed on arrays and M's entries; inf at F =
        +-0."""
        for bc, sigma in (("dirichlet", 0), ("periodic", 1), ("antiperiodic", -1)):
            m = self.with_value(self.MATRICES[index], value, bc)
            f, condition, entries = _read_transfer(m, bc)
            assert type(f) is float and type(condition) is float
            expected = 2.0 - sigma * (m[0, 0] + m[1, 1]) if sigma else m[0, 1]
            assert f == expected
            assert math.copysign(1.0, f) == math.copysign(1.0, expected)
            assert entries == m.tolist()
            with np.errstate(divide="ignore"):
                assert condition == np.maximum(1.0, np.abs(m).max()) / np.abs(f)
            if value == 0.0:
                assert f == 0.0 and condition == math.inf
