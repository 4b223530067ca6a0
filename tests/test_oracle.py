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
    _LatticeOperator,
    _build_lattice,
    _gauss_legendre,
    _gershgorin,
    _over_reference,
    _reference_spectrum,
    _sweep,
    gflow_ratio,
    lattice_ratio,
    lattice_ratio_richardson,
    pseudo_det_ratio,
)


def dense_matrix(op: _LatticeOperator) -> np.ndarray:
    """T' as a dense matrix."""
    mat = np.diag(op.diag)
    idx = np.arange(op.mesh_size - 1)
    mat[idx, idx + 1] = -1.0
    mat[idx + 1, idx] = -1.0
    if op.corner != 0.0:
        mat[0, -1] = op.corner
        mat[-1, 0] = op.corner
    return mat


def dense_spectrum(op: _LatticeOperator) -> np.ndarray:
    """Ascending eigenvalues of the pencil (T', W), those of C T' C with C =
    W^-1/2, from a dense eigensolve: the test-only check of the O(n) sweep."""
    assert op.mesh_size <= 500
    c = 1.0 / np.sqrt(op.weight)
    return np.linalg.eigvalsh(c[:, None] * dense_matrix(op) * c[None, :])


def dense_log_det(op: _LatticeOperator) -> tuple:
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


def constant_lattice(bc: str, n: int, span: float, omega0: float) -> _LatticeOperator:
    """The constant-omega0 Numerov lattice built explicitly, entry by entry."""
    h = span / (n + 1) if bc == "dirichlet" else span / n
    gap, weight = numerov(omega0 ** 2, h)
    return _LatticeOperator(bc=bc, mesh_size=n, step=h, gap=np.full(n, gap),
                           weight=np.full(n, weight),
                           corner={"dirichlet": 0.0, "periodic": -1.0}.get(bc, 1.0),
                           boundary=1.0 - (h * omega0) ** 2 / 6.0 if bc == "dirichlet" else 1.0)


def random_pencil(rng, bc: str, corner: float, n: int = 60) -> _LatticeOperator:
    """A pencil with a random diagonal in [-3, 3] and random weights in
    [0.5, 2]: eigenvalues of both signs."""
    diag = rng.uniform(-3.0, 3.0, size=n)
    weight = rng.uniform(0.5, 2.0, size=n)
    return _LatticeOperator(bc=bc, mesh_size=n, step=0.1, gap=2.0 - diag, weight=weight,
                           corner=corner, boundary=1.0)


def shifted(op: _LatticeOperator, mu: float) -> _LatticeOperator:
    """The pencil (T' - mu W, W), whose eigenvalues are op's less mu."""
    return _LatticeOperator(bc=op.bc, mesh_size=op.mesh_size, step=op.step,
                           gap=op.gap + mu * op.weight, weight=op.weight, corner=op.corner,
                           boundary=op.boundary)


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


def recording(profile: fd.FrequencyProfile) -> tuple:
    """profile with an Omega^2 that records the times it is sampled at, and
    the list they are recorded in, one array per call."""
    calls = []

    def omega_sq(t):
        calls.append(np.array(t, dtype=float))
        return profile.omega_sq(t)

    return fd.FrequencyProfile(omega_sq=omega_sq, interval=profile.interval), calls


class TestLatticeAssembly:
    def test_dirichlet_mesh(self, const_profile):
        """The n interior nodes of an (n+1)-step mesh, and both ends for the
        boundary factor, in one sample call."""
        profile, calls = recording(const_profile)
        op = _build_lattice(profile, "dirichlet", 20)
        assert op.mesh_size == 20
        assert op.step == pytest.approx(1.0 / 21.0)
        (times,) = calls
        assert times.size == 22 and times[0] == 0.0 and times[-1] == 1.0
        assert times[1] == pytest.approx(op.step)
        assert times[-2] == pytest.approx(1.0 - op.step)
        assert op.corner == 0.0
        gap, weight = numerov(1.0, op.step)
        assert np.allclose(op.gap, gap, rtol=1e-15, atol=0.0)
        assert np.allclose(op.weight, weight, rtol=1e-15)
        # c_1 (1 - (q_0 + q_1) / 12) / c_{n+1} with q = h^2 throughout
        assert op.boundary == pytest.approx(1.0 - op.step ** 2 / 6.0, rel=1e-15)

    def test_wrapped_mesh_and_corners(self, const_profile):
        """n nodes from t_a, and t_b for the fold's average."""
        profile, calls = recording(const_profile)
        per = _build_lattice(profile, "periodic", 20)
        anti = _build_lattice(const_profile, "antiperiodic", 20)
        assert per.step == pytest.approx(0.05)
        (times,) = calls
        assert times.size == 21 and times[0] == pytest.approx(0.0) and times[-1] == 1.0
        assert times[-2] == pytest.approx(1.0 - per.step)
        assert per.corner == -1.0 and anti.corner == 1.0

    def test_seam_average(self, modulated_profile):
        op = _build_lattice(modulated_profile, "periodic", 32)
        iv = modulated_profile.interval
        expected = 0.5 * (modulated_profile(iv.t_a) + modulated_profile(iv.t_b))
        # the gap is q / c and c = w^-1/2
        recovered = op.gap[0] / np.sqrt(op.weight[0]) / op.step ** 2
        assert recovered == pytest.approx(expected, rel=1e-12)

    def test_coupling_scales_diagonal(self, const_profile):
        """Coupling g = 4 on omega = 1: the lattice of frequency omega sqrt(g) = 2."""
        op = _build_lattice(fd.make_constant_profile(2.0, const_profile.interval), "dirichlet", 20)
        gap, weight = numerov(4.0, op.step)
        assert np.allclose(op.gap, gap, rtol=1e-15, atol=0.0)
        assert np.allclose(op.weight, weight, rtol=1e-15)

    def test_minimum_size(self, const_profile):
        with pytest.raises(ValueError, match="at least 16"):
            _build_lattice(const_profile, "dirichlet", 8)

    def test_bad_bc(self, const_profile):
        with pytest.raises(ValueError):
            _build_lattice(const_profile, "robin", 32)


class TestEigenvalues:
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_reference_spectra_match_dense(self, bc):
        """A constant lattice's dense pencil spectrum, eig(C T' C), against
        the closed-form eigenvalues; its determinant with the boundary factor
        against the closed-form reference's, by sweep and densely."""
        profile = fd.make_constant_profile(2.0, fd.Interval(0.0, 1.0))
        op = _build_lattice(profile, bc, 32)
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
        counts = [_sweep(_build_lattice(fd.make_constant_profile(4.0 * root_g, interval),
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
            op = random_pencil(rng, bc, corner)
            eigs = dense_spectrum(op)
            for mu in (-4.5, -1.3, 0.0, 0.4, 2.2, 4.5):
                log_abs, sign, below, slope = _sweep(op, mu, slope=True)
                assert below == np.count_nonzero(eigs < mu)
                dense_log, dense_sign = log_product(eigs - mu)
                dense_log += float(np.sum(np.log(op.weight)))
                assert log_abs == pytest.approx(dense_log, abs=1e-9)
                assert sign == dense_sign
                trace = float(np.sum(1.0 / (eigs - mu)))
                assert slope == pytest.approx(-trace, rel=1e-8, abs=1e-10)

    def test_exact_zero_pivot_is_nudged(self):
        """d = 1 makes the second pivot 1 - 1/1 = 0 exactly; the matrix is
        regular for n = 22 (its eigenvalues are 1 - 2 cos(k pi / 23))."""
        op = _LatticeOperator(bc="dirichlet", mesh_size=22, step=0.1,
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
        op = _LatticeOperator(bc="dirichlet", mesh_size=22, step=0.1,
                             gap=np.ones(22), weight=np.full(22, 8.0), corner=0.0,
                             boundary=1.0)
        eigs = dense_spectrum(op)
        log_abs, sign, below, _ = _sweep(op)
        assert below == np.count_nonzero(eigs < 0.0)
        assert sign * math.exp(log_abs) == pytest.approx(np.prod(8.0 * eigs), abs=1e-12)

    @pytest.mark.parametrize("bc,corner", [("dirichlet", 0.0),
                                           ("periodic", -1.0),
                                           ("antiperiodic", 1.0)])
    def test_count_where_the_nudge_fires(self, bc, corner):
        """The lattice of test_exact_zero_pivot_is_nudged, whose second pivot
        1 - 1/1 is zero at mu = 0 and, at the other shifts below, -2/3, +2/3
        and +1/3 of the floor eps * bound: _sweep nudges it to a negative
        pivot and counts it, and its count and _window's, at 0 and at
        -+1/4 of the floor, are the dense spectrum's."""
        op = _LatticeOperator(bc=bc, mesh_size=22, step=0.1,
                             gap=np.ones(22), weight=np.ones(22), corner=corner,
                             boundary=1.0)
        eigs = dense_spectrum(op)
        eps = np.finfo(float).eps
        floor = eps * _gershgorin(op)
        for mu in (0.0, 0.25 * floor, -0.25 * floor, -0.1 * floor):
            assert _sweep(op, mu)[2] == np.count_nonzero(eigs < mu)
        for tol in (0.0, 0.25 * eps):
            delta = tol * _gershgorin(op)
            assert oracle._window(op, tol) == (np.count_nonzero(eigs < -delta),
                                               np.count_nonzero(eigs < delta))

    @pytest.mark.parametrize("case", ["sinpi_bump-antiperiodic", "free-periodic"])
    def test_wrapped_count_at_the_pseudo_window(self, case):
        """The wrapped counts at n = 4000, at both ends of the
        pseudo-determinant's zero window, differ by the one zero mode it
        holds."""
        make, bc, _ = PSEUDO_CASES[case]
        counts = oracle._window(_build_lattice(make(), bc, 4000), PSEUDO_ZERO_TOL)
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
    op = _build_lattice(profile, bc, n)
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
        op = _build_lattice(profile, bc, n)
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
        op = _build_lattice(prof, bc, 300)
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
        op = _build_lattice(profile, bc, 32)
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


def spy(monkeypatch) -> list:
    """Record (name, mesh size) of every _build_lattice and _pivots call
    from here on."""
    loops = []
    for name in ("_build_lattice", "_pivots"):
        def counted(first, *args, _fn=getattr(oracle, name), _name=name, **kwargs):
            result = _fn(first, *args, **kwargs)
            size = result if _name == "_build_lattice" else first
            loops.append((_name, size.mesh_size))
            return result
        monkeypatch.setattr(oracle, name, counted)
    return loops


def forget_read() -> None:
    """Forget lattice_ratio's kept read."""
    oracle._last_read[0] = None


def constant_angles(bc: str, n: int) -> np.ndarray:
    """theta_j of the constant lattice's eigenvalues 4 sin^2(theta_j / 2) - g."""
    if bc == "dirichlet":
        return math.pi / (n + 1) * np.arange(1, n + 1)
    return math.pi / n * (2.0 * np.arange(n) + (bc == "antiperiodic"))


def certified(op: _LatticeOperator, tol: float) -> bool:
    """_verdict's test: un-nudged pivots that _certified passes."""
    piv, logs, _, nudged = oracle._pivots(op)
    return not nudged and oracle._certified(op, piv, logs, tol)


CORNERS = {"dirichlet": 0.0, "periodic": -1.0, "antiperiodic": 1.0}
# relative offsets of a lattice from a zero mode, both signs
OFFSETS = [sign * 10.0 ** -e for e in range(1, 17) for sign in (1.0, -1.0)]


class TestZeroCertificate:
    """_verdict's certificate: a few numpy passes over the pivots of the one
    sweep that reads the determinant, which prove that no eigenvalue lies
    within delta of zero, or leave the verdict to _window's Sturm counts."""

    @pytest.mark.parametrize("bc", list(CORNERS))
    def test_random_pencils_near_zero(self, rng, bc):
        """The random pencils of test_random_diagonals_of_both_signs, shifted
        so that one eigenvalue (the smallest, the largest or one between)
        sits at a relative offset of 1e-1 to 1e-16 from zero: a passed
        certificate always goes with a dense spectrum that has no eigenvalue
        in [-delta, delta], at both zero tolerances."""
        passed = 0
        for _ in range(5):
            op = random_pencil(rng, bc, CORNERS[bc])
            eigs = dense_spectrum(op)
            for lam in eigs[[0, 29, -1]]:
                for offset in OFFSETS:
                    near = shifted(op, lam * (1.0 + offset))
                    moved = dense_spectrum(near)
                    for tol in (LATTICE_ZERO_TOL, PSEUDO_ZERO_TOL):
                        if certified(near, tol):
                            passed += 1
                            delta = tol * _gershgorin(near)
                            assert not np.any(np.abs(moved) <= delta), (lam, offset, tol)
        assert passed >= 30

    @pytest.mark.parametrize("bc", list(CORNERS))
    def test_constant_lattices_near_zero(self, bc):
        """Constant lattices of gap g = s_j (1 + offset) near their zero modes
        s_j - g = 0 (the lowest and a middle one; periodic's lowest is s_0 =
        0, approached by g = offset), n = 16 to 4000, at both tolerances:
        a passed certificate always goes with a closed-form spectrum (s -
        g) / w that has no eigenvalue in [-delta, delta], and with Sturm
        counts at -+delta that agree.  The certificate does pass a share of
        them, so the check is not empty."""
        passed = 0
        for n in (16, 64, 250, 1000, 4000):
            free = 4.0 * np.sin(0.5 * constant_angles(bc, n)) ** 2
            for j in (0, n // 3):
                for offset in OFFSETS:
                    g = free[j] * (1.0 + offset) if free[j] > 0.0 else offset
                    w = (1.0 - g / 12.0) ** 2  # 1/c^2 with g = q/c, c = 1 + q/12
                    op = _LatticeOperator(bc=bc, mesh_size=n, step=1.0,
                                         gap=np.full(n, g), weight=np.full(n, w),
                                         corner=CORNERS[bc], boundary=1.0)
                    eigs = (free - g) / w
                    for tol in (LATTICE_ZERO_TOL, PSEUDO_ZERO_TOL):
                        if certified(op, tol):
                            passed += 1
                            delta = tol * _gershgorin(op)
                            assert not np.any(np.abs(eigs) <= delta), (n, j, offset, tol)
                            below, nonpositive = oracle._window(op, tol)
                            assert below == nonpositive
        assert passed >= 100

    @pytest.mark.parametrize("case", ["random-dirichlet", "random-periodic",
                                      "random-antiperiodic", "near-free-periodic",
                                      "near-lowest-antiperiodic", "modulated-periodic"])
    def test_pivots_move_within_the_certified_margin(self, rng, case):
        """At the largest tol the certificate passes (bisected), the pivots
        swept at mu = -+delta, the ends of the window (each pivot is
        monotone in mu), are within r |p_k(0)| of their values at 0, r =
        1/n, and a wrapped Schur complement within |s(0)| / 2: what the
        proof in _certified's docstring claims, where the window is as wide
        as the certificate allows."""
        kind, bc = case.rsplit("-", 1)
        if kind == "random":
            op = random_pencil(rng, bc, CORNERS[bc])
        elif kind == "modulated":
            make, bc, _ = RATIO_CASES["modulated-periodic"]
            op = _build_lattice(make(), bc, 400)
        else:
            n = 200
            s = 0.0 if kind == "near-free" else 4.0 * math.sin(0.5 * math.pi / n) ** 2
            g = s + 1e-7
            op = _LatticeOperator(bc=bc, mesh_size=n, step=1.0,
                                 gap=np.full(n, g), weight=np.full(n, (1.0 - g / 12.0) ** 2),
                                 corner=CORNERS[bc], boundary=1.0)
        piv, logs, _, nudged = oracle._pivots(op)
        assert not nudged
        lo, hi = -30.0, 2.0  # log10 of tol
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if oracle._certified(op, piv, logs, 10.0 ** mid) else (lo, mid)
        assert lo > -20.0
        delta = 10.0 ** lo * _gershgorin(op)
        m = op.mesh_size - (op.corner != 0.0)
        for mu in (-delta, delta):
            moved = oracle._pivots(op, mu)[0]
            shift = np.abs(moved - piv)
            assert np.all(shift[:m] <= np.abs(piv[:m]) / op.mesh_size * (1.0 + 1e-9) + 1e-14)
            if op.corner != 0.0:
                assert shift[-1] <= 0.5 * abs(piv[-1]) * (1.0 + 1e-9) + 1e-14


class TestDeterminantRecurrence:
    def test_matches_dense_determinant(self, rng):
        for bc, corner in (("dirichlet", 0.0), ("periodic", -1.0),
                           ("antiperiodic", 1.0)):
            diag = rng.uniform(1.5, 2.5, size=40)
            op = _LatticeOperator(bc=bc, mesh_size=40, step=0.02,
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
        the n-lattice is built (one Omega^2 sampling) and its pivots swept
        once, as are the 2n-lattice's; both verdicts are certified, so no
        Sturm count runs; and both values are bit for bit the ones read
        after the kept read is forgotten."""
        loops = spy(monkeypatch)
        forget_read()
        plain = lattice_ratio(modulated_profile, bc, omega0, 200)
        refined = lattice_ratio_richardson(modulated_profile, bc, omega0, 200)
        assert sorted(loops) == [("_build_lattice", 200), ("_build_lattice", 400),
                                 ("_pivots", 200), ("_pivots", 400)]
        forget_read()
        assert lattice_ratio(modulated_profile, bc, omega0, 200).hex() == plain.hex()
        forget_read()
        assert lattice_ratio_richardson(
            modulated_profile, bc, omega0, 200).hex() == refined.hex()

    def test_lattice_kept_per_profile_object(self, monkeypatch):
        """The kept lattice matches only the very profile object it was built
        from: a new profile, equal or not, is built afresh, even where the
        one before it is gone and the new one may take its id."""
        loops = spy(monkeypatch)
        forget_read()
        for omega in (1.1, 1.2, 1.2, 1.3):
            profile = constant(omega, 2.0)
            op = _build_lattice(profile, "dirichlet", 100)
            expected = _over_reference(op, *_sweep(op)[:2], 2.0, 0.0)
            assert lattice_ratio(profile, "dirichlet", 0.0, 100) == expected
            del profile
        assert loops.count(("_build_lattice", 100)) == 4

    @pytest.mark.parametrize("case", ["constant-dirichlet", "constant-periodic",
                                      "constant-antiperiodic", "modulated-dirichlet",
                                      "hyperbolic60-dirichlet", "hyperbolic60-periodic",
                                      "hyperbolic60-antiperiodic"])
    def test_certified_verdict_counts_nothing(self, monkeypatch, case):
        """A lattice far from any zero mode: the one pivot sweep certifies
        the verdict, and no Sturm count runs."""
        make, bc, omega0 = RATIO_CASES[case]
        loops = spy(monkeypatch)
        forget_read()
        lattice_ratio(make(), bc, omega0, 400)
        assert sorted(loops) == [("_build_lattice", 400), ("_pivots", 400)]

    @pytest.mark.parametrize("case", list(PSEUDO_CASES) + ["sinpi-periodic"])
    def test_uncertified_verdict_falls_back(self, monkeypatch, case):
        """A lattice with an eigenvalue inside the window falls back to the
        two Sturm counts, each one more pivot sweep, and is refused.  sinpi
        under periodic conditions has none there, but its Dirichlet block
        (the first n-1 rows) is nearly singular, so a pivot nears zero and
        the certificate fails: it falls back too, and the counts let it
        through."""
        make, bc, omega0 = {**PSEUDO_CASES, **RATIO_CASES}[case]
        loops = spy(monkeypatch)
        forget_read()
        if case in PSEUDO_CASES:
            with pytest.raises(fd.DegenerateOperatorError, match="LATTICE_ZERO_TOL = 1e-10"):
                lattice_ratio(make(), bc, omega0, 400)
        else:
            lattice_ratio(make(), bc, omega0, 400)
        assert sorted(loops) == [("_build_lattice", 400)] + [("_pivots", 400)] * 3

    def test_refusals_name_their_tolerance(self, sinpi_profile, const_profile):
        """Each lattice refusal names the tolerance that caused it."""
        with pytest.raises(fd.DegenerateOperatorError,
                           match=r"zero mode on lattice \(Sturm counts 0 and 1 differ within "
                                 r"LATTICE_ZERO_TOL = 1e-10 .*\); use the pseudo-determinant path"):
            lattice_ratio(sinpi_profile, "dirichlet", 0.0, 400)
        with pytest.raises(fd.DegenerateOperatorError,
                           match=r"expected exactly one near-zero lattice eigenvalue .*"
                                 r"PSEUDO_ZERO_TOL = 1e-08 .*found 0"):
            pseudo_det_ratio(const_profile, "dirichlet", 200)

    def test_zero_mode_refused_on_every_call(self, monkeypatch, sinpi_profile):
        """A refusal is raised, not kept: the repeated call builds and sweeps
        its lattice again (the verdict's sweep and the window's two) and
        refuses too."""
        loops = spy(monkeypatch)
        forget_read()
        for _ in range(2):
            with pytest.raises(fd.DegenerateOperatorError, match="pseudo-determinant"):
                lattice_ratio(sinpi_profile, "dirichlet", 0.0, 400)
            assert oracle._last_read[0] is None
        assert sorted(loops) == [("_build_lattice", 400)] * 2 + [("_pivots", 400)] * 6

    @pytest.mark.parametrize("n", [100.5, math.nan, math.inf])
    @pytest.mark.parametrize("read", [
        lambda n: lattice_ratio(constant(1.0, 1.0), "dirichlet", 0.0, n),
        lambda n: lattice_ratio(constant(1.0, 1.0), "periodic", 2.0, n),
        lambda n: lattice_ratio_richardson(constant(1.0, 1.0), "dirichlet", 0.0, n),
        lambda n: pseudo_det_ratio(zero_mode("sinpi"), "dirichlet", n),
    ], ids=["lattice-dirichlet", "lattice-periodic", "richardson", "pseudo"])
    def test_non_integer_mesh_size_refused(self, read, n):
        """A mesh size that is not a finite integer is refused by name: 100.5
        read 0.844122 (sin 1 = 0.841471) under Dirichlet conditions, and NaN
        failed in numpy."""
        with pytest.raises(ValueError, match="mesh size n must be a finite integer"):
            read(n)

    def test_integral_float_mesh_size(self, modulated_profile, sinpi_profile):
        """An integral float mesh size reads what the integer reads, bit for bit."""
        for bc, omega0 in (("dirichlet", 0.0), ("periodic", 1.0)):
            values = []
            for n in (200, 200.0):
                forget_read()
                values.append(lattice_ratio(modulated_profile, bc, omega0, n).hex())
                values.append(lattice_ratio_richardson(modulated_profile, bc, omega0, n).hex())
            assert values[:2] == values[2:]
        reports = [pseudo_det_ratio(sinpi_profile, "dirichlet", n) for n in (400, 400.0)]
        assert reports[0] == reports[1] and type(reports[1].mesh_size) is int

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
            accepted.extend(grid.n for _, grid, _, _, _ in groups)
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
        assert 2.0 * max(odesolve._work_estimate(a0, profile.interval)[0]) <= 32
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
