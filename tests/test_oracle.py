"""Lattice, recurrence, pseudo-determinant, and coupling-flow oracles."""

import math

import numpy as np
import pytest

import flucdet as fd
from flucdet import cli, odesolve, oracle
from flucdet.determinants import det_dirichlet, det_periodic, determinant
from flucdet.odesolve import make_basis
from flucdet.oracle import (
    LATTICE_ZERO_TOL,
    PSEUDO_ZERO_TOL,
    LatticeOperator,
    _count,
    _gauss_legendre,
    _gershgorin,
    _over_reference,
    _reference_spectrum,
    _sweep,
    build_lattice,
    gflow_ratio,
    lattice_ratio,
    lattice_ratio_richardson,
    pseudo_det_ratio,
)


def dense_matrix(op: LatticeOperator) -> np.ndarray:
    """T' as a dense matrix."""
    mat = np.diag(op.diag)
    idx = np.arange(op.mesh_size - 1)
    mat[idx, idx + 1] = -1.0
    mat[idx + 1, idx] = -1.0
    if op.corner != 0.0:
        mat[0, -1] = op.corner
        mat[-1, 0] = op.corner
    return mat


def dense_spectrum(op: LatticeOperator) -> np.ndarray:
    """Ascending eigenvalues of the pencil (T', W), those of C T' C with C =
    W^-1/2, from a dense eigensolve: the test-only check of the O(n) sweep."""
    assert op.mesh_size <= 500
    c = 1.0 / np.sqrt(op.weight)
    return np.linalg.eigvalsh(c[:, None] * dense_matrix(op) * c[None, :])


def dense_log_det(op: LatticeOperator) -> tuple:
    """(log|det T' * boundary|, its sign) from the dense pencil spectrum:
    det T' = det(C T' C) det W."""
    log_abs, sign = log_product(dense_spectrum(op))
    return (log_abs + float(np.sum(np.log(op.weight))) + math.log(abs(op.boundary)),
            sign * math.copysign(1.0, op.boundary))


def numerov(omega_sq: float, h: float) -> tuple:
    """(gap q/c of T', whose diagonal is 2 - q/c, weight 1/c^2) at a node
    where Omega^2 = omega_sq."""
    q = h * h * omega_sq
    c = 1.0 + q / 12.0
    return q / c, 1.0 / c ** 2


def closed_form_spectrum(bc: str, n: int, step: float, omega0: float) -> np.ndarray:
    """Eigenvalues c0^2 (a - 2 cos theta_j) of the constant-frequency Numerov
    pencil, with a its diagonal and c0^2 = 1/w."""
    if bc == "dirichlet":
        angles = np.arange(1, n + 1) * np.pi / (n + 1)
    elif bc == "periodic":
        angles = 2.0 * np.pi * np.arange(n) / n
    else:
        angles = (2.0 * np.arange(n) + 1.0) * np.pi / n
    gap, weight = numerov(omega0 ** 2, step)
    return (2.0 - gap - 2.0 * np.cos(angles)) / weight


def constant_lattice(bc: str, n: int, span: float, omega0: float) -> LatticeOperator:
    """The constant-omega0 Numerov lattice built explicitly, entry by entry."""
    h = span / (n + 1) if bc == "dirichlet" else span / n
    gap, weight = numerov(omega0 ** 2, h)
    return LatticeOperator(bc=bc, mesh_size=n, step=h, nodes=np.zeros(n),
                           gap=np.full(n, gap), weight=np.full(n, weight),
                           corner={"dirichlet": 0.0, "periodic": -1.0}.get(bc, 1.0),
                           boundary=1.0 - (h * omega0) ** 2 / 6.0 if bc == "dirichlet" else 1.0)


def log_product(values: np.ndarray) -> tuple:
    """(log|prod|, sign of prod)."""
    sign = -1.0 if np.count_nonzero(values < 0.0) % 2 else 1.0
    return float(np.sum(np.log(np.abs(values)))), sign


def constant(omega: float, span: float) -> fd.FrequencyProfile:
    return fd.make_constant_profile(omega, fd.Interval(0.0, span))


def zero_mode(name: str) -> fd.FrequencyProfile:
    return fd.make_zero_mode_profile(
        fd.builtin_zero_mode_spec(name, fd.Interval(0.0, 1.0)))


def hyperbolic(kt: float, span: float = 2.0, t_a: float = 0.0) -> fd.FrequencyProfile:
    k_sq = (kt / span) ** 2
    return fd.FrequencyProfile(omega_sq=lambda t: np.full(np.shape(t), -k_sq),
                               interval=fd.Interval(t_a, t_a + span))


class TestLatticeAssembly:
    def test_dirichlet_mesh(self, const_profile):
        op = build_lattice(const_profile, "dirichlet", 20)
        assert op.mesh_size == 20
        assert op.step == pytest.approx(1.0 / 21.0)
        assert op.nodes[0] == pytest.approx(op.step)
        assert op.nodes[-1] == pytest.approx(1.0 - op.step)
        assert op.corner == 0.0
        gap, weight = numerov(1.0, op.step)
        assert np.allclose(op.gap, gap, rtol=1e-15, atol=0.0)
        assert np.allclose(op.weight, weight, rtol=1e-15)
        # c_1 (1 - (q_0 + q_1) / 12) / c_{n+1} with q = h^2 throughout
        assert op.boundary == pytest.approx(1.0 - op.step ** 2 / 6.0, rel=1e-15)

    def test_wrapped_mesh_and_corners(self, const_profile):
        per = build_lattice(const_profile, "periodic", 20)
        anti = build_lattice(const_profile, "antiperiodic", 20)
        assert per.step == pytest.approx(0.05)
        assert per.nodes[0] == pytest.approx(0.0)
        assert per.corner == -1.0 and anti.corner == 1.0

    def test_seam_average(self, modulated_profile):
        op = build_lattice(modulated_profile, "periodic", 32)
        iv = modulated_profile.interval
        expected = 0.5 * (modulated_profile(iv.t_a) + modulated_profile(iv.t_b))
        # the gap is q / c and c = w^-1/2
        recovered = op.gap[0] / np.sqrt(op.weight[0]) / op.step ** 2
        assert recovered == pytest.approx(expected, rel=1e-12)

    def test_coupling_scales_diagonal(self, const_profile):
        """Coupling g = 4 on omega = 1: the lattice of frequency omega sqrt(g) = 2."""
        op = build_lattice(fd.make_constant_profile(2.0, const_profile.interval), "dirichlet", 20)
        gap, weight = numerov(4.0, op.step)
        assert np.allclose(op.gap, gap, rtol=1e-15, atol=0.0)
        assert np.allclose(op.weight, weight, rtol=1e-15)

    def test_minimum_size(self, const_profile):
        with pytest.raises(ValueError, match="at least 16"):
            build_lattice(const_profile, "dirichlet", 8)

    def test_bad_bc(self, const_profile):
        with pytest.raises(ValueError):
            build_lattice(const_profile, "robin", 32)


class TestEigenvalues:
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_reference_spectra_match_dense(self, bc):
        """A constant lattice's dense pencil spectrum, eig(C T' C), against
        the closed-form eigenvalues; its determinant with the boundary factor
        against the closed-form reference's, by sweep and densely."""
        profile = fd.make_constant_profile(2.0, fd.Interval(0.0, 1.0))
        op = build_lattice(profile, bc, 32)
        analytic = np.sort(closed_form_spectrum(bc, 32, op.step, 2.0))
        assert np.allclose(dense_spectrum(op), analytic, rtol=0.0, atol=1e-12)
        eigs, log_ref, _, boundary = _reference_spectrum(bc, 32, 1.0, 2.0)
        # the pencil's eigenvalues are c0^2 = 1/w times those of T'
        assert np.allclose(np.sort(eigs) / op.weight[0], analytic, rtol=0.0, atol=1e-12)
        assert op.boundary == pytest.approx(boundary, rel=1e-15)
        log_abs, sign = dense_log_det(op)
        assert sign * math.exp(log_abs) == pytest.approx(np.prod(eigs) * boundary, rel=1e-12)
        assert log_ref == pytest.approx(math.log(abs(np.prod(eigs))), abs=1e-13)
        assert _over_reference(op, *_sweep(op)[:2], 1.0, 2.0) == pytest.approx(1.0, rel=1e-13)

    def test_count_nonpositive_monotone(self, const_profile):
        """Couplings g = 1/16, 9/16, 1 and 9/4 on omega = 4 on [0, 2]: the
        lattices of frequency omega sqrt(g) = 1, 3, 4 and 6."""
        interval = fd.Interval(0.0, 2.0)
        counts = [_sweep(build_lattice(fd.make_constant_profile(4.0 * root_g, interval),
                                       "dirichlet", 200))[2]
                  for root_g in (0.25, 0.75, 1.0, 1.5)]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]


class TestSturmSweep:
    """The O(n) sweep against dense inertia and a dense log-determinant."""

    @pytest.mark.parametrize("bc,corner", [("dirichlet", 0.0),
                                           ("periodic", -1.0),
                                           ("antiperiodic", 1.0)])
    def test_random_diagonals_of_both_signs(self, rng, bc, corner):
        """Random diagonals and weights: det(T' - mu W) = det W prod(lambda_j
        - mu) over the pencil's eigenvalues."""
        for _ in range(5):
            diag = rng.uniform(-3.0, 3.0, size=60)
            weight = rng.uniform(0.5, 2.0, size=60)
            op = LatticeOperator(bc=bc, mesh_size=60, step=0.1, nodes=np.zeros(60),
                                 gap=2.0 - diag, weight=weight, corner=corner, boundary=1.0)
            eigs = dense_spectrum(op)
            for mu in (-4.5, -1.3, 0.0, 0.4, 2.2, 4.5):
                log_abs, sign, below, slope = _sweep(op, mu, slope=True)
                assert below == np.count_nonzero(eigs < mu)
                dense_log, dense_sign = log_product(eigs - mu)
                dense_log += float(np.sum(np.log(weight)))
                assert log_abs == pytest.approx(dense_log, abs=1e-9)
                assert sign == dense_sign
                trace = float(np.sum(1.0 / (eigs - mu)))
                assert slope == pytest.approx(-trace, rel=1e-8, abs=1e-10)

    def test_exact_zero_pivot_is_nudged(self):
        """d = 1 makes the second pivot 1 - 1/1 = 0 exactly; the matrix is
        regular for n = 22 (its eigenvalues are 1 - 2 cos(k pi / 23))."""
        op = LatticeOperator(bc="dirichlet", mesh_size=22, step=0.1, nodes=np.zeros(22),
                             gap=np.ones(22), weight=np.ones(22), corner=0.0,
                             boundary=1.0)
        eigs = dense_spectrum(op)
        log_abs, sign, below, _ = _sweep(op)
        assert below == np.count_nonzero(eigs < 0.0)
        assert np.isfinite(log_abs)
        assert sign * math.exp(log_abs) == pytest.approx(np.prod(eigs), abs=1e-12)

    def test_zero_pivot_nudged_below_unit_bound(self):
        """The same zero pivot under weight 8, where the Gershgorin bound is
        3/8: eps times it is a pivot that 1 + e cannot hold, so the nudge
        is at least eps."""
        op = LatticeOperator(bc="dirichlet", mesh_size=22, step=0.1, nodes=np.zeros(22),
                             gap=np.ones(22), weight=np.full(22, 8.0), corner=0.0,
                             boundary=1.0)
        eigs = dense_spectrum(op)
        log_abs, sign, below, _ = _sweep(op)
        assert below == np.count_nonzero(eigs < 0.0)
        assert sign * math.exp(log_abs) == pytest.approx(np.prod(8.0 * eigs), abs=1e-12)

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_count_is_the_sweeps(self, bc):
        """_count, which only counts, reads _sweep's count on the closed-form
        reference's lattices, at zero, at both ends of both zero windows and
        at shifts of both signs that split the spectrum."""
        for n in (100, 2000):
            for span, omega0 in TestClosedFormReference.PAIRS:
                op = constant_lattice(bc, n, span, omega0)
                bound = _gershgorin(op)
                for tol in (0.0, LATTICE_ZERO_TOL, PSEUDO_ZERO_TOL, 1e-3, 0.3):
                    for mu in (-tol * bound, tol * bound):
                        assert _count(op, mu) == _sweep(op, mu)[2]

    @pytest.mark.parametrize("bc,corner", [("dirichlet", 0.0),
                                           ("periodic", -1.0),
                                           ("antiperiodic", 1.0)])
    def test_count_where_the_nudge_fires(self, bc, corner):
        """The lattice of test_exact_zero_pivot_is_nudged, whose second pivot
        1 - 1/1 is zero at mu = 0 and, at the other shifts below, -2/3, +2/3
        and +1/3 of the floor eps * bound: _count nudges it to a negative
        pivot and counts it as _sweep does, and both count the dense
        spectrum."""
        op = LatticeOperator(bc=bc, mesh_size=22, step=0.1, nodes=np.zeros(22),
                             gap=np.ones(22), weight=np.ones(22), corner=corner,
                             boundary=1.0)
        eigs = dense_spectrum(op)
        floor = np.finfo(float).eps * _gershgorin(op)
        for mu in (0.0, 0.25 * floor, -0.25 * floor, -0.1 * floor):
            assert _count(op, mu) == _sweep(op, mu)[2] == np.count_nonzero(eigs < mu)

    @pytest.mark.parametrize("case", ["sinpi_bump-antiperiodic", "free-periodic"])
    def test_wrapped_count_at_the_pseudo_window(self, case):
        """The wrapped count, whose y^T z is summed along the rows, reads
        _sweep's count at n = 4000 at both ends of the pseudo-determinant's
        zero window, which holds the one zero mode."""
        make, bc, _ = PSEUDO_CASES[case]
        op = build_lattice(make(), bc, 4000)
        delta = PSEUDO_ZERO_TOL * _gershgorin(op)
        counts = [_count(op, mu) for mu in (-delta, delta)]
        assert counts == [_sweep(op, mu)[2] for mu in (-delta, delta)]
        assert counts[1] - counts[0] == 1 and all(type(c) is int for c in counts)


# (profile, boundary condition, omega0) without a lattice zero mode
RATIO_CASES = {
    "constant-dirichlet": (lambda: constant(1.3, 2.0), "dirichlet", 0.0),
    "constant-periodic": (lambda: constant(1.3, 2.0), "periodic", 1.0),
    "constant-antiperiodic": (lambda: constant(1.3, 2.0), "antiperiodic", 1.0),
    "modulated-dirichlet": (lambda: fd.make_modulated_profile(
        1.0, 0.2, 3.0, fd.Interval(0.0, 2.0)), "dirichlet", 0.0),
    "modulated-periodic": (lambda: fd.make_modulated_profile(
        5.0, 0.1, 7.0, fd.Interval(-3.0, 7.0)), "periodic", 1.0),
    "modulated-antiperiodic": (lambda: fd.make_modulated_profile(
        1.0, 0.2, 3.0, fd.Interval(0.0, 2.0)), "antiperiodic", 1.0),
    "hyperbolic5-dirichlet": (lambda: hyperbolic(5.0), "dirichlet", 0.0),
    "hyperbolic30-periodic": (lambda: hyperbolic(30.0), "periodic", 1.0),
    "hyperbolic60-dirichlet": (lambda: hyperbolic(60.0), "dirichlet", 0.0),
    "hyperbolic60-periodic": (lambda: hyperbolic(60.0), "periodic", 1.0),
    "hyperbolic60-antiperiodic": (lambda: hyperbolic(60.0), "antiperiodic", 1.0),
    "sinpi-periodic": (lambda: zero_mode("sinpi"), "periodic", 1.0),
    "sinpi_bump-periodic": (lambda: zero_mode("sinpi_bump"), "periodic", 1.0),
}

# profiles with one lattice zero mode under the given condition
PSEUDO_CASES = {
    "sinpi-dirichlet": (lambda: zero_mode("sinpi"), "dirichlet", 0.0),
    "sinpi_bump-dirichlet": (lambda: zero_mode("sinpi_bump"), "dirichlet", 0.0),
    "sinpi_bump-antiperiodic": (lambda: zero_mode("sinpi_bump"), "antiperiodic", 1.0),
    "free-periodic": (lambda: constant(0.0, 2.0), "periodic", 1.0),
}


def dense_ratio(profile, bc: str, omega0: float, n: int) -> tuple:
    """(log|ratio|, sign) of the lattice against the constant reference
    lattice, each from its dense pencil spectrum and boundary factor."""
    op = build_lattice(profile, bc, n)
    log_num, sign_num = dense_log_det(op)
    log_den, sign_den = dense_log_det(constant_lattice(bc, n, profile.interval.span, omega0))
    return log_num - log_den, sign_num * sign_den


def richardson(bc: str, r1: float, r2: float) -> float:
    gain = 16.0 if bc == "dirichlet" else 4.0
    return (gain * r2 - r1) / (gain - 1.0)


class TestDenseCrossCheck:
    """Every lattice output against a dense eigensolve at n <= 300."""

    @pytest.mark.parametrize("case", sorted(RATIO_CASES))
    def test_ratio_and_sign(self, case):
        make, bc, omega0 = RATIO_CASES[case]
        profile = make()
        for n in (150, 300):
            log_ratio, sign = dense_ratio(profile, bc, omega0, n)
            ratio = lattice_ratio(profile, bc, omega0, n)
            assert math.copysign(1.0, ratio) == sign
            assert math.log(abs(ratio)) == pytest.approx(log_ratio, abs=1e-9)
        r1, r2 = (sign * math.exp(log_ratio) for log_ratio, sign in
                  (dense_ratio(profile, bc, omega0, n) for n in (150, 300)))
        assert lattice_ratio_richardson(profile, bc, omega0, 150) == pytest.approx(
            richardson(bc, r1, r2), rel=1e-9)

    @pytest.mark.parametrize("case", sorted(PSEUDO_CASES))
    def test_pseudo_determinant(self, case):
        make, bc, omega0 = PSEUDO_CASES[case]
        profile = make()
        n = 300
        report = pseudo_det_ratio(profile, bc, n, omega0=omega0)
        op = build_lattice(profile, bc, n)
        eigs = dense_spectrum(op)
        delta = PSEUDO_ZERO_TOL * (np.max(np.abs(op.diag)) + 2.0) / np.min(op.weight)
        assert report.zero_mode_index == np.count_nonzero(eigs < -delta)
        assert report.num_nonpositive == np.count_nonzero(eigs < delta)
        zero = int(np.argmin(np.abs(eigs)))
        assert zero == report.zero_mode_index
        kept = np.delete(eigs, zero)
        log_kept, sign_kept = log_product(kept)
        log_kept += float(np.sum(np.log(op.weight))) + math.log(abs(op.boundary))
        sign_kept *= math.copysign(1.0, op.boundary)
        log_ref, sign_ref = dense_log_det(
            constant_lattice(bc, n, profile.interval.span, omega0))
        product = sign_kept * sign_ref * math.exp(log_kept - log_ref) * op.step ** 2
        # -d/dmu det(T' - mu W) at 0 is det W times the product of the other
        # eigenvalues times 1 + lambda_0 sum_j 1/lambda_j
        correction = eigs[zero] * float(np.sum(1.0 / kept))
        assert report.pseudo_det_ratio == pytest.approx(
            product * (1.0 + correction), rel=1e-9)
        assert abs(correction) <= 1e-4
        assert report.aligned_pseudo_det == pytest.approx(
            report.pseudo_det_ratio * fd.free_reference(bc, profile.interval.span, omega0),
            rel=1e-15)

    @pytest.mark.parametrize("omega,bc", [(math.pi, "antiperiodic"),
                                          (2.0 * math.pi, "periodic")])
    def test_two_zero_modes_refused(self, omega, bc):
        """Two continuum zero modes give two near-zero lattice eigenvalues;
        dense counts the same window."""
        prof = constant(omega, 1.0)
        op = build_lattice(prof, bc, 300)
        delta = PSEUDO_ZERO_TOL * (np.max(np.abs(op.diag)) + 2.0) / np.min(op.weight)
        assert np.count_nonzero(np.abs(dense_spectrum(op)) < delta) == 2
        with pytest.raises(fd.DegenerateOperatorError, match="found 2"):
            pseudo_det_ratio(prof, bc, 300, omega0=1.0)

    @pytest.mark.parametrize("case", ["sinpi-dirichlet", "free-periodic"])
    def test_zero_mode_window(self, case):
        """lattice_ratio refuses exactly when a dense eigenvalue lies within
        LATTICE_ZERO_TOL of zero, relative to the Gershgorin bound: the free
        periodic lattice has an exact zero mode; sinpi's lowest eigenvalue
        is -3.1e-9 at n = 32, outside the window (it shrinks like h^6, and
        is -4.8e-15 at n = 300)."""
        make, bc, omega0 = PSEUDO_CASES[case]
        profile = make()
        op = build_lattice(profile, bc, 32)
        delta = LATTICE_ZERO_TOL * (np.max(np.abs(op.diag)) + 2.0) / np.min(op.weight)
        eigs = dense_spectrum(op)
        if np.any((eigs >= -delta) & (eigs < delta)):
            with pytest.raises(fd.DegenerateOperatorError, match="pseudo-determinant"):
                lattice_ratio(profile, bc, omega0, 32)
        else:
            # a dense eigenvalue is off by up to about n eps ||A||, which is
            # a relative 1e-5 of sinpi's lowest one
            log_ratio, sign = dense_ratio(profile, bc, omega0, 32)
            noise = 32 * np.finfo(float).eps * 4.0 / np.min(np.abs(eigs))
            assert lattice_ratio(profile, bc, omega0, 32) == pytest.approx(
                sign * math.exp(log_ratio), rel=noise)


class TestDeterminantRecurrence:
    def test_matches_dense_determinant(self, rng):
        for bc, corner in (("dirichlet", 0.0), ("periodic", -1.0),
                           ("antiperiodic", 1.0)):
            diag = rng.uniform(1.5, 2.5, size=40)
            op = LatticeOperator(bc=bc, mesh_size=40, step=0.02, nodes=np.zeros(40),
                                 gap=2.0 - diag, weight=np.ones(40), corner=corner,
                                 boundary=1.0)
            direct = float(np.linalg.det(dense_matrix(op)))
            log_abs, sign, _, _ = _sweep(op)
            assert sign * math.exp(log_abs) == pytest.approx(direct, rel=1e-10)


class TestLatticeRatio:
    def test_converges_to_closed_form(self, const_profile):
        """Order h^4 under Dirichlet conditions, which holds to n = 800,
        where the error (1.7e-14) meets the sweep's rounding."""
        exact = math.sin(1.0)
        err = [abs(lattice_ratio(const_profile, "dirichlet", 0.0, n) - exact)
               for n in (32, 64)]
        assert err[0] / err[1] == pytest.approx(16.0, rel=0.1)

    @pytest.mark.parametrize("n", [800, 3200])
    def test_no_rounding_floor(self, const_profile, n):
        """A lattice over its own reference is 1 to rounding that does not
        grow like n^2 eps: the sweep runs on the pivot excess p_k - 1 with
        the gaps stored, and the reference takes the free lattice's
        determinant exactly.  Sweeping the pivots of a stored diagonal
        2 - g_k left 1.2e-11 at n = 800 and 1.7e-10 at n = 3200."""
        assert lattice_ratio(const_profile, "dirichlet", 1.0, n) == pytest.approx(
            1.0, rel=0.0, abs=1e-13)

    def test_wrapped_order_two_where_the_fold_does_not_close(self):
        """Omega^2(t_a) != Omega^2(t_b): the fold averages a jump, which
        keeps the wrapped conditions at order h^2."""
        profile = fd.make_modulated_profile(5.0, 0.1, 7.0, fd.Interval(-3.0, 7.0))
        exact = determinant(profile, bc="periodic", omega0=1.0).ratio
        err = [abs(lattice_ratio(profile, "periodic", 1.0, n) / exact - 1.0)
               for n in (2000, 4000)]
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.05)

    def test_negative_determinant(self):
        profile = fd.make_constant_profile(1.0, fd.Interval(0.0, 4.0))
        ratio = lattice_ratio(profile, "dirichlet", 0.0, 800)
        assert ratio == pytest.approx(math.sin(4.0) / 4.0, rel=1e-4)
        assert ratio < 0.0

    def test_eigen_and_recurrence_agree(self, modulated_profile):
        """The Dirichlet check the eigen path once ran internally: the sweep's
        ratio against a dense eigenvalue product."""
        log_ratio, sign = dense_ratio(modulated_profile, "dirichlet", 0.0, 300)
        rec = lattice_ratio(modulated_profile, "dirichlet", 0.0, 300)
        assert rec == pytest.approx(sign * math.exp(log_ratio), rel=1e-9)

    @pytest.mark.parametrize("bc,omega0", [("dirichlet", 0.0),
                                           ("periodic", 1.0),
                                           ("antiperiodic", 1.0)])
    def test_wrapped_against_endpoint_route(self, modulated_profile, bc, omega0):
        closed = determinant(modulated_profile, bc=bc, omega0=omega0).ratio
        lattice = lattice_ratio(modulated_profile, bc, omega0, 800)
        assert lattice == pytest.approx(closed, rel=2e-4)

    def test_richardson_beats_plain(self, modulated_profile):
        exact = det_dirichlet(make_basis(modulated_profile)).ratio
        plain = lattice_ratio(modulated_profile, "dirichlet", 0.0, 200)
        refined = lattice_ratio_richardson(modulated_profile, "dirichlet",
                                           0.0, 200)
        assert abs(refined - exact) < 0.01 * abs(plain - exact)
        assert refined == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("bc,gain", [("dirichlet", 16), ("periodic", 4)])
    def test_richardson_float_range_refused(self, monkeypatch, modulated_profile, bc, gain):
        """Two finite lattice ratios whose extrapolation overflows are refused
        by name, with the gain and both ratios."""
        monkeypatch.setattr(oracle, "lattice_ratio", lambda *args: 1e308)
        with pytest.raises(fd.IntegrationError,
                           match=rf"Richardson lattice ratio \({gain} 1e\+308 - 1e\+308\) / "
                                 rf"{gain - 1} exceeds the float range"):
            lattice_ratio_richardson(modulated_profile, bc, 1.0, 100)

    def test_zero_mode_rejected(self, sinpi_profile):
        # the discrete zero-mode eigenvalue shrinks like h^6 in scaled units;
        # from n=48 it sits below the degeneracy guard
        with pytest.raises(fd.DegenerateOperatorError,
                           match="pseudo-determinant"):
            lattice_ratio(sinpi_profile, "dirichlet", 0.0, 400)

    @pytest.mark.parametrize("bc,omega0", [("dirichlet", 0.0),
                                           ("periodic", 1.0),
                                           ("antiperiodic", 1.0)])
    def test_richardson_reuses_the_n_lattice(self, modulated_profile, monkeypatch,
                                             bc, omega0):
        """lattice_ratio and then lattice_ratio_richardson on one operator:
        the n-lattice's window (two counts) and determinant (one sweep) run
        once, as do the 2n-lattice's, and both values are bit for bit the
        ones read after the cache is cleared."""
        loops = []
        for name in ("_count", "_sweep"):
            def counted(op, *args, _fn=getattr(oracle, name), _name=name, **kwargs):
                loops.append((_name, op.mesh_size))
                return _fn(op, *args, **kwargs)
            monkeypatch.setattr(oracle, name, counted)
        oracle._verdict.cache_clear()
        plain = lattice_ratio(modulated_profile, bc, omega0, 200)
        refined = lattice_ratio_richardson(modulated_profile, bc, omega0, 200)
        assert sorted(loops) == [("_count", 200)] * 2 + [("_count", 400)] * 2 + [
            ("_sweep", 200), ("_sweep", 400)]
        oracle._verdict.cache_clear()
        assert lattice_ratio(modulated_profile, bc, omega0, 200).hex() == plain.hex()
        oracle._verdict.cache_clear()
        assert lattice_ratio_richardson(
            modulated_profile, bc, omega0, 200).hex() == refined.hex()

    def test_zero_mode_refused_on_every_call(self, sinpi_profile):
        """A refusal is raised, not cached: the repeated call refuses too."""
        oracle._verdict.cache_clear()
        for _ in range(2):
            with pytest.raises(fd.DegenerateOperatorError, match="pseudo-determinant"):
                lattice_ratio(sinpi_profile, "dirichlet", 0.0, 400)
        assert oracle._verdict.cache_info().currsize == 0


    @pytest.mark.parametrize("fn", [lattice_ratio, lattice_ratio_richardson])
    def test_degenerate_reference_rejected(self, modulated_profile, fn):
        """omega0 = 0 makes the periodic reference lattice singular (the
        constant vector); the ratio over it is refused, not rounding."""
        with pytest.raises(fd.DegenerateOperatorError, match="reference lattice"):
            fn(modulated_profile, "periodic", 0.0, 200)

    @pytest.mark.parametrize("bc", ["dirichlet", "antiperiodic"])
    @pytest.mark.parametrize("fn", [lattice_ratio, lattice_ratio_richardson])
    def test_ratio_beyond_float_range(self, bc, fn):
        """Omega^2 = -800^2 on [0, 1]: the ratio is about e^725, a named
        refusal, not an OverflowError or a NaN with overflow warnings."""
        with pytest.raises(fd.IntegrationError, match="float range"):
            fn(hyperbolic(800.0, span=1.0), bc, 1.0, 500)

    def test_large_ratio_within_float_range(self):
        """Omega^2 = -400^2 on [0, 1]: 2.37e173, as the dense pencil spectrum
        gives (h k = 0.8 is coarse; the continuum value is 1.69e173)."""
        profile = hyperbolic(400.0, span=1.0)
        log_ratio, sign = dense_ratio(profile, "antiperiodic", 1.0, 500)
        ratio = lattice_ratio(profile, "antiperiodic", 1.0, 500)
        assert ratio == pytest.approx(sign * math.exp(log_ratio), rel=1e-9)


class TestClosedFormReference:
    """The reference lattice's closed-form spectrum and log-determinant
    against the sweep of the same constant lattice built entry by entry.
    The lattice stores its gaps, not the diagonal 2 - g rounded to a float
    (which moved the log-determinant by up to eps |a| sum_j 1/|t_j|, 1.5e-8
    for omega0 T = 0.7 under periodic conditions at n = 4000), and the
    closed form takes the free lattice's determinant exactly, so both agree
    to 1e-10 (3e-11 at worst, antiperiodic n = 4000)."""

    # (span, omega0); the last has h^2 omega0^2 > 6 at every n below
    PAIRS = ((1.0, 0.7), (2.0, 5.3), (10.0, 31.7), (3.0, 411.0), (1.0, 3.0e4))

    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    @pytest.mark.parametrize("n", [100, 2000, 4000])
    def test_sign_count_and_log(self, bc, n):
        for span, omega0 in self.PAIRS:
            op = constant_lattice(bc, n, span, omega0)
            log_abs, sign, below, _ = _sweep(op)
            eigs, log_ref, bound, boundary = _reference_spectrum(bc, n, span, omega0)
            assert below == np.count_nonzero(eigs < 0.0)
            assert sign == (-1.0 if below % 2 else 1.0)
            assert log_ref == pytest.approx(float(np.sum(np.log(np.abs(eigs)))), abs=1e-10)
            assert log_abs == pytest.approx(log_ref, abs=1e-10)
            assert boundary == op.boundary
            assert bound == pytest.approx(_gershgorin(op) * op.weight[0], rel=1e-15)
            assert _over_reference(op, log_abs, sign, span, omega0) == pytest.approx(
                1.0, abs=1e-10)
        assert (op.step * omega0) ** 2 > 6.0


class TestHyperbolicRegressions:
    """The two green-crosscheck inputs that the second-order lattice missed
    at n = 2000 by 4e-4 against its 2e-4 tolerance."""

    def test_dirichlet(self):
        k, t_a, t_b = 18.34058586339663, 0.06178430362249099, 1.8482699107529899
        kt = k * (t_b - t_a)
        profile = hyperbolic(kt, span=t_b - t_a, t_a=t_a)
        exact = math.sinh(kt) / kt
        assert lattice_ratio(profile, "dirichlet", 0.0, 2000) == pytest.approx(exact, rel=1e-7)
        assert lattice_ratio_richardson(profile, "dirichlet", 0.0, 2000) == pytest.approx(
            exact, rel=1e-8)

    def test_antiperiodic(self):
        k, omega0 = 18.69531349949888, 0.9672627262439097
        t_a, t_b = -0.09587229261698127, 1.6429771449493493
        span = t_b - t_a
        profile = hyperbolic(k * span, span=span, t_a=t_a)
        exact = (2.0 + 2.0 * math.cosh(k * span)) / (4.0 * math.cos(0.5 * omega0 * span) ** 2)
        assert lattice_ratio(profile, "antiperiodic", omega0, 2000) == pytest.approx(
            exact, rel=1e-7)
        assert lattice_ratio_richardson(profile, "antiperiodic", omega0, 2000) == pytest.approx(
            exact, rel=1e-8)


class TestPseudoDeterminant:
    def test_sine_zero_mode(self, sinpi_profile):
        report = pseudo_det_ratio(sinpi_profile, "dirichlet", 800)
        assert report.zero_mode_index == 0
        assert report.num_nonpositive == 1
        assert report.mesh_size == 800
        # det' K = -dM12/dlambda = +1/(2 pi^2), minus the closed form
        assert report.aligned_pseudo_det == pytest.approx(
            1.0 / (2.0 * math.pi ** 2), rel=2e-4)

    def test_free_periodic_zero_mode(self):
        profile = fd.make_constant_profile(0.0, fd.Interval(0.0, 2.0))
        report = pseudo_det_ratio(profile, "periodic", 600, omega0=1.0)
        assert report.aligned_pseudo_det == pytest.approx(-4.0, rel=1e-4)
        assert report.num_nonpositive == 1

    def test_requires_zero_mode(self, const_profile):
        with pytest.raises(fd.DegenerateOperatorError, match="near-zero"):
            pseudo_det_ratio(const_profile, "dirichlet", 200)


class TestGaussLegendre:
    """The coupling flow's Gauss-Legendre rule, found by Newton's method."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 32, 64])
    def test_against_30_digit_references(self, n):
        """Each node refined by Newton's method on mpmath's Legendre
        polynomial at 30 digits, its weight 2 / ((1 - x^2) P_n'^2) with
        P_n' = n (P_{n-1} - x P_n) / (1 - x^2)."""
        import mpmath

        xs, ws = _gauss_legendre(n)
        assert not xs.flags.writeable and not ws.flags.writeable
        assert np.all(np.diff(xs) > 0.0)
        with mpmath.workdps(30):
            for x, w in zip(xs.tolist(), ws.tolist()):
                root = mpmath.mpf(x)
                for _ in range(4):
                    p, prev = mpmath.legendre(n, root), mpmath.legendre(n - 1, root)
                    slope = n * (prev - root * p) / (1 - root * root)
                    root -= p / slope
                weight = 2 / ((1 - root * root) * slope * slope)
                assert abs(x - root) <= 2e-16
                assert abs(w / weight - 1) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 32, 64])
    def test_exact_on_monomials(self, n):
        """The n-point rule integrates x^k over [-1, 1] exactly for k < 2n."""
        xs, ws = _gauss_legendre(n)
        for k in range(2 * n):
            assert float(ws @ xs ** k) == pytest.approx(
                0.0 if k % 2 else 2.0 / (k + 1), abs=1e-14)


class TestCouplingFlow:
    def test_dirichlet_constant(self, const_profile):
        ratio = gflow_ratio(const_profile, "dirichlet")
        assert ratio == pytest.approx(math.sin(1.0), rel=1e-5)

    def test_node_with_vanishing_m12(self):
        """Constant Omega^2 chosen so that the flow's node s_20 (of 32) has
        omega_s T = pi on [0, 2]: that member's M12 is zero to rounding, yet
        its periodic determinant is 4, and the flow keeps its digits."""
        nodes = (0.5 * (_gauss_legendre(32)[0] + 1.0)) ** 2
        omega_sq = 1.0 + ((0.5 * math.pi) ** 2 - 1.0) / nodes[20]
        profile = fd.make_constant_profile(math.sqrt(omega_sq), fd.Interval(0.0, 2.0))
        expected = (1.0 - math.cos(2.0 * math.sqrt(omega_sq))) / (1.0 - math.cos(2.0))
        assert gflow_ratio(profile, "periodic", omega0=1.0) == pytest.approx(
            expected, rel=1e-12)

    def test_fractional_g_steps_rejected(self, const_profile):
        """2.7 nodes is refused, not run as int(2.7) = 2."""
        with pytest.raises(ValueError, match="g_steps"):
            gflow_ratio(const_profile, "dirichlet", g_steps=2.7)

    def test_dirichlet_modulated(self, modulated_profile):
        expected = det_dirichlet(make_basis(modulated_profile)).ratio
        ratio = gflow_ratio(modulated_profile, "dirichlet")
        assert ratio == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("bc", ["periodic", "antiperiodic"])
    def test_wrapped_modulated(self, modulated_profile, bc):
        expected = determinant(modulated_profile, bc=bc, omega0=1.0).ratio
        ratio = gflow_ratio(modulated_profile, bc, omega0=1.0)
        assert ratio == pytest.approx(expected, rel=1e-5)

    def test_one_family_samples_omega_sq(self, modulated_profile):
        """The flow solves its nodes and ends as one Magnus family, so it
        samples Omega^2 once per level and dF/ds chunk of the family, in
        fewer calls than the g_steps + 2 bases it needs (one make_basis each
        made at least three)."""
        calls = []

        def omega_sq(t):
            calls.append(np.size(t))
            return modulated_profile.omega_sq(t)

        counted = fd.FrequencyProfile(omega_sq=omega_sq, interval=modulated_profile.interval)
        assert gflow_ratio(counted, "dirichlet", g_steps=32) == gflow_ratio(
            modulated_profile, "dirichlet", g_steps=32)
        assert len(calls) < 32 + 2

    def test_chunks_change_only_rounding(self, modulated_profile, monkeypatch):
        """At MAGNUS_CHUNK = 64 the family multiplies one step per array and
        reads dF/ds one member per frame; the flow changes only in rounding."""
        whole = gflow_ratio(modulated_profile, "periodic", omega0=1.0)
        monkeypatch.setattr(odesolve, "MAGNUS_CHUNK", 64)
        assert gflow_ratio(modulated_profile, "periodic", omega0=1.0) == pytest.approx(
            whole, rel=1e-13)

    def test_crossing_detected_and_located(self):
        profile = fd.make_constant_profile(1.0, fd.Interval(0.0, 4.0))
        with pytest.raises(fd.DegenerateOperatorError,
                           match="0.616850") as excinfo:
            gflow_ratio(profile, "dirichlet")
        assert "crosses a zero mode" in str(excinfo.value)

    def test_degenerate_reference_rejected(self, const_profile):
        with pytest.raises(fd.DegenerateOperatorError, match="omega0"):
            gflow_ratio(const_profile, "periodic", omega0=2.0 * math.pi)

    @pytest.mark.parametrize("omega,bc,omega0", [
        (math.pi, "dirichlet", 0.0),
        (2.0 * math.pi, "periodic", 1.0),
    ], ids=["dirichlet", "periodic"])
    def test_degenerate_target_refused(self, omega, bc, omega0):
        """Constant omega = pi (Dirichlet) or 2 pi (periodic) on [0, 1]: F_s
        touches zero at the target without changing sign, and the node
        monitor refuses s = 1 by the zero verdict of det."""
        profile = fd.make_constant_profile(omega, fd.Interval(0.0, 1.0))
        with pytest.raises(fd.DegenerateOperatorError,
                           match=r"degenerate at g' = 1\.000000 .*ENDPOINT_DEGENERACY_TOL"):
            gflow_ratio(profile, bc, omega0=omega0)

    def test_ratio_beyond_float_range(self):
        """Omega^2 = -k^2 with kT = 709.5 against the antiperiodic reference
        at omega0 T = pi - 1e-3: every basis on the flow is finite, but the
        ratio is about e^723, beyond the float range.  The flow must refuse
        it with a named error rather than a bare OverflowError."""
        span, kt = 1000.0, 709.5
        k_sq = (kt / span) ** 2
        profile = fd.FrequencyProfile(
            omega_sq=lambda t: np.full(np.shape(t), -k_sq),
            interval=fd.Interval(0.0, span))
        with pytest.raises(fd.IntegrationError, match="float range"):
            gflow_ratio(profile, "antiperiodic", omega0=(math.pi - 1e-3) / span,
                        g_steps=192)


class TestCouplingFlowLevels:
    """The flow reads F_s on each group's accepted level n and dF_s/ds on
    its coarsest level that meets the Magnus target on steps of at most 1/4
    radian: the last comparison's coarse level c where every member's error
    (n/c)^8 meets the tolerance and c is at least twice the work estimate."""

    @staticmethod
    def slope_levels(monkeypatch, profile, bc) -> tuple:
        """(the step counts of the _MagnusGrid.slope calls, the accepted
        steps of the flow's groups) of one gflow_ratio, and its ratio."""
        levels, accepted = [], []
        slope, family = odesolve._MagnusGrid.slope, oracle._family

        def spy_slope(grid, weight=None):
            levels.append(grid.n)
            return slope(grid, weight)

        def spy_family(*args):
            groups = family(*args)
            accepted.extend(grid.n for _, grid, _, _ in groups)
            return groups

        monkeypatch.setattr(odesolve._MagnusGrid, "slope", spy_slope)
        monkeypatch.setattr(oracle, "_family", spy_family)
        ratio = gflow_ratio(profile, bc)
        return levels, accepted, ratio

    def test_small_modulated_takes_half(self, monkeypatch, modulated_profile):
        """Omega^2 = 1 + 0.2 sin(3t) on [0, 2]: one group, accepted at 64
        steps from the pair (32, 64), whose 32 steps already meet the target;
        the flow keeps its tolerance against the determinant."""
        levels, accepted, ratio = self.slope_levels(monkeypatch, modulated_profile,
                                                    "dirichlet")
        assert accepted == [64] and levels == [32]
        assert ratio == pytest.approx(det_dirichlet(make_basis(modulated_profile)).ratio,
                                      rel=1e-5)

    @pytest.mark.parametrize("kt,level", [(6.0, 32), (12.0, 64)])
    def test_hyperbolic_keeps_the_quarter_radian(self, monkeypatch, kt, level):
        """Omega^2 = -k^2 on [0, 2] is integrated exactly on every step, so
        32 steps always meet the target; at kT = 12 (work estimate 24 steps)
        they are 0.375 radian each, where the Gauss rule misses, and dF_s/ds
        stays on the accepted 64; at kT = 6 (0.19 radian) it takes 32."""
        levels, accepted, ratio = self.slope_levels(monkeypatch, hyperbolic(kt), "dirichlet")
        assert accepted == [64] and levels == [level]
        assert ratio == pytest.approx(math.sinh(kt) / kt, rel=1e-12)

    def test_coarse_level_missing_the_target_is_not_read(self, monkeypatch):
        """Omega^2 = 1 + 0.3 sin(5t) on [0, 2]: accepted at 64 steps from the
        pair (32, 64) on steps well under 1/4 radian (work estimate 4.6
        steps), but 32 steps alone miss the target, so dF_s/ds stays on 64."""
        profile = fd.make_modulated_profile(1.0, 0.3, 5.0, fd.Interval(0.0, 2.0))
        a0 = odesolve._MagnusGrid(profile.omega_sq, 0.0, 1.0, profile.interval,
                                  odesolve.MAGNUS_MIN_STEPS).samples()
        assert 2.0 * odesolve._work_estimate(a0, profile.interval)[0] <= 32
        levels, accepted, ratio = self.slope_levels(monkeypatch, profile, "dirichlet")
        assert accepted == [64] and levels == [64]
        assert ratio == pytest.approx(det_dirichlet(make_basis(profile)).ratio, rel=1e-5)


class TestCouplingFlowHyperbolic:
    """Omega^2 = -k^2 on [0, 2] with kT = 33: near g' = 0 the integrand
    grows like kT / (2 sqrt(g')), which the rule in sqrt(g') absorbs."""

    def test_dirichlet(self):
        ratio = gflow_ratio(hyperbolic(33.0), "dirichlet")
        assert ratio == pytest.approx(math.sinh(33.0) / 33.0, rel=1e-9)

    def test_antiperiodic(self):
        expected = (2.0 + 2.0 * math.cosh(33.0)) / (4.0 * math.cos(1.0) ** 2)
        ratio = gflow_ratio(hyperbolic(33.0), "antiperiodic", omega0=1.0)
        assert ratio == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("kt", [32.0125, 64.05])
    def test_end_member_alone_in_its_group(self, kt):
        """At kT = 32.0125 the target s = 1 (work estimate 64.03) needs the
        128-step level and the last node s = 0.99726 (63.94) the 64-step one,
        so s = 1 is the only member of its group and none of its members
        needs a dF/ds; the same holds above 64.  The flow is unchanged."""
        ratio = gflow_ratio(hyperbolic(kt, span=1.0), "dirichlet", g_steps=32)
        assert ratio == pytest.approx(math.sinh(kt) / kt, rel=1e-8)

    def test_found_input_beyond_float_range(self):
        """kT = 700, antiperiodic, omega0 T = pi - 1e-4: the ratio is about
        1e312, which the flow must refuse rather than return as 1e300."""
        with pytest.raises(fd.IntegrationError, match="float range"):
            gflow_ratio(hyperbolic(700.0, span=1.0), "antiperiodic",
                        omega0=math.pi - 1e-4)


class TestCouplingFlowDoubleZero:
    """Periodic Omega^2 about 4.8^2 on [-1, 1.5] against omega0 = 1.1: the
    flow takes the degenerate pair of wrapped modes k = +-1 through zero
    together, so the determinant keeps its sign.  The lattice counts one
    negative eigenvalue at the reference and three at the target."""

    @pytest.mark.parametrize("profile", [
        fd.make_constant_profile(4.8, fd.Interval(-1.0, 1.5)),
        fd.make_modulated_profile(4.8, 0.05, 2.0 * math.pi / 2.5,
                                  fd.Interval(-1.0, 1.5)),
    ], ids=["constant", "modulated"])
    def test_refused(self, profile):
        with pytest.raises(fd.DegenerateOperatorError,
                           match="counts 1 negative eigenvalues at the reference and 3"):
            gflow_ratio(profile, "periodic", omega0=1.1)


class TestNoEigensolve:
    def test_lattice_oracles_and_verify_without_eigensolvers(
            self, monkeypatch, capsys, modulated_profile, sinpi_profile):
        """The lattice oracle and every verify suite run with the dense and
        tridiagonal eigensolvers disabled, the coupling flow's Gauss rule
        included: Newton's method finds its nodes, no eigensolver."""
        import scipy.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver called")

        _gauss_legendre.cache_clear()
        for name in ("eigvalsh", "eigh", "eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for name in ("eigvalsh_tridiagonal", "eigh_tridiagonal"):
            monkeypatch.setattr(scipy.linalg, name, refuse)
        for bc, omega0 in (("dirichlet", 0.0), ("periodic", 1.0),
                           ("antiperiodic", 1.0)):
            assert math.isfinite(lattice_ratio(modulated_profile, bc, omega0, 2000))
            assert math.isfinite(lattice_ratio_richardson(
                modulated_profile, bc, omega0, 2000))
        report = pseudo_det_ratio(sinpi_profile, "dirichlet", 2000)
        assert report.aligned_pseudo_det == pytest.approx(
            1.0 / (2.0 * math.pi ** 2), rel=1e-4)
        assert cli.main(["verify", "--suite", "all"]) == 0
        assert "26/26 checks within tolerance" in capsys.readouterr().err
