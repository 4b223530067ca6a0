"""Lattice, recurrence, pseudo-determinant, and coupling-flow oracles."""

import math

import numpy as np
import pytest

import flucdet as fd
from flucdet.determinants import det_dirichlet, det_periodic, determinant
from flucdet.odesolve import make_basis
from flucdet.oracle import (
    LatticeOperator,
    build_lattice,
    count_nonpositive,
    gflow_ratio,
    lattice_determinant_scaled,
    lattice_eigenvalues_scaled,
    lattice_ratio,
    lattice_ratio_richardson,
    pseudo_det_ratio,
    reference_eigenvalues_scaled,
)


def dense_matrix(op: LatticeOperator) -> np.ndarray:
    mat = np.diag(op.diag)
    idx = np.arange(op.mesh_size - 1)
    mat[idx, idx + 1] = -1.0
    mat[idx + 1, idx] = -1.0
    if op.corner != 0.0:
        mat[0, -1] = op.corner
        mat[-1, 0] = op.corner
    return mat


class TestLatticeAssembly:
    def test_dirichlet_mesh(self, const_profile):
        op = build_lattice(const_profile, "dirichlet", 20)
        assert op.mesh_size == 20
        assert op.step == pytest.approx(1.0 / 21.0)
        assert op.nodes[0] == pytest.approx(op.step)
        assert op.nodes[-1] == pytest.approx(1.0 - op.step)
        assert op.corner == 0.0
        assert np.allclose(op.diag, 2.0 - op.step ** 2)

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
        recovered = (2.0 - op.diag[0]) / op.step ** 2
        assert recovered == pytest.approx(expected, rel=1e-12)

    def test_coupling_scales_diagonal(self, const_profile):
        op = build_lattice(const_profile, "dirichlet", 20, g=3.0)
        assert np.allclose(op.diag, 2.0 - 3.0 * op.step ** 2)

    def test_minimum_size(self, const_profile):
        with pytest.raises(ValueError, match="at least 16"):
            build_lattice(const_profile, "dirichlet", 8)

    def test_bad_bc(self, const_profile):
        with pytest.raises(ValueError):
            build_lattice(const_profile, "robin", 32)


class TestEigenvalues:
    @pytest.mark.parametrize("bc", ["dirichlet", "periodic", "antiperiodic"])
    def test_reference_spectra_match_dense(self, bc):
        profile = fd.make_constant_profile(2.0, fd.Interval(0.0, 1.0))
        op = build_lattice(profile, bc, 32)
        computed = lattice_eigenvalues_scaled(op)
        analytic = reference_eigenvalues_scaled(bc, 32, op.step, 2.0)
        assert np.allclose(computed, analytic, atol=1e-12)

    def test_count_nonpositive_monotone(self, const_profile):
        profile = fd.make_constant_profile(4.0, fd.Interval(0.0, 2.0))
        counts = [count_nonpositive(profile, "dirichlet", 200, g=g)
                  for g in (0.1, 0.5, 1.0, 2.0)]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]


class TestDeterminantRecurrence:
    def test_matches_dense_determinant(self, rng):
        for bc, corner in (("dirichlet", 0.0), ("periodic", -1.0),
                           ("antiperiodic", 1.0)):
            diag = rng.uniform(1.5, 2.5, size=40)
            op = LatticeOperator(bc=bc, g=1.0, mesh_size=40, step=0.02,
                                 nodes=np.zeros(40), diag=diag, corner=corner)
            direct = float(np.linalg.det(dense_matrix(op)))
            assert lattice_determinant_scaled(op) == pytest.approx(
                direct, rel=1e-10)


class TestLatticeRatio:
    def test_converges_to_closed_form(self, const_profile):
        exact = math.sin(1.0)
        err = [abs(lattice_ratio(const_profile, "dirichlet", 0.0, n) - exact)
               for n in (400, 800)]
        assert err[0] / err[1] == pytest.approx(4.0, rel=0.1)

    def test_negative_determinant(self):
        profile = fd.make_constant_profile(1.0, fd.Interval(0.0, 4.0))
        ratio = lattice_ratio(profile, "dirichlet", 0.0, 800)
        assert ratio == pytest.approx(math.sin(4.0) / 4.0, rel=1e-4)
        assert ratio < 0.0

    def test_eigen_and_recurrence_agree(self, modulated_profile):
        eig = lattice_ratio(modulated_profile, "dirichlet", 0.0, 300)
        rec = lattice_ratio(modulated_profile, "dirichlet", 0.0, 300,
                            method="recurrence")
        assert rec == pytest.approx(eig, rel=1e-9)

    @pytest.mark.parametrize("bc,omega0", [("dirichlet", 0.0),
                                           ("periodic", 1.0),
                                           ("antiperiodic", 1.0)])
    def test_wrapped_against_endpoint_route(self, modulated_profile, bc, omega0):
        closed = determinant(modulated_profile, bc=bc, omega0=omega0).ratio
        lattice = lattice_ratio(modulated_profile, bc, omega0, 800)
        assert lattice == pytest.approx(closed, rel=2e-4)

    def test_richardson_beats_plain(self, modulated_profile):
        exact = det_dirichlet(make_basis(modulated_profile)).ratio
        plain = lattice_ratio(modulated_profile, "dirichlet", 0.0, 200,
                              method="recurrence")
        refined = lattice_ratio_richardson(modulated_profile, "dirichlet",
                                           0.0, 200)
        assert abs(refined - exact) < 0.01 * abs(plain - exact)
        assert refined == pytest.approx(exact, rel=1e-6)

    def test_zero_mode_rejected(self, sinpi_profile):
        # the discrete zero-mode eigenvalue shrinks like h^4 in scaled units;
        # from n=400 it sits below the degeneracy guard
        with pytest.raises(fd.DegenerateOperatorError,
                           match="pseudo-determinant"):
            lattice_ratio(sinpi_profile, "dirichlet", 0.0, 400)

    def test_bad_method(self, const_profile):
        with pytest.raises(ValueError, match="method"):
            lattice_ratio(const_profile, "dirichlet", 0.0, 100, method="qr")


class TestPseudoDeterminant:
    def test_sine_zero_mode(self, sinpi_profile):
        report = pseudo_det_ratio(sinpi_profile, "dirichlet", 800)
        assert report.zero_mode_index == 0
        assert report.num_nonpositive == 1
        assert report.mesh_size == 800
        # magnitude matches 1/(2 pi^2); the removed-mode sign convention
        # differs from the regularized closed form, so compare magnitudes
        assert abs(report.aligned_pseudo_det) == pytest.approx(
            1.0 / (2.0 * math.pi ** 2), rel=2e-4)

    def test_free_periodic_zero_mode(self):
        profile = fd.make_constant_profile(0.0, fd.Interval(0.0, 2.0))
        report = pseudo_det_ratio(profile, "periodic", 600, omega0=1.0)
        assert report.aligned_pseudo_det == pytest.approx(-4.0, rel=1e-4)
        assert report.num_nonpositive == 1

    def test_requires_zero_mode(self, const_profile):
        with pytest.raises(fd.DegenerateOperatorError, match="near-zero"):
            pseudo_det_ratio(const_profile, "dirichlet", 200)


class TestCouplingFlow:
    def test_dirichlet_constant(self, const_profile):
        ratio = gflow_ratio(const_profile, "dirichlet")
        assert ratio == pytest.approx(math.sin(1.0), rel=1e-5)

    def test_dirichlet_modulated(self, modulated_profile):
        expected = det_dirichlet(make_basis(modulated_profile)).ratio
        ratio = gflow_ratio(modulated_profile, "dirichlet")
        assert ratio == pytest.approx(expected, rel=1e-5)

    @pytest.mark.parametrize("bc", ["periodic", "antiperiodic"])
    def test_wrapped_modulated(self, modulated_profile, bc):
        expected = determinant(modulated_profile, bc=bc, omega0=1.0).ratio
        ratio = gflow_ratio(modulated_profile, bc, omega0=1.0)
        assert ratio == pytest.approx(expected, rel=1e-5)

    def test_crossing_detected_and_located(self):
        profile = fd.make_constant_profile(1.0, fd.Interval(0.0, 4.0))
        with pytest.raises(fd.DegenerateOperatorError,
                           match="0.616850") as excinfo:
            gflow_ratio(profile, "dirichlet")
        assert "crosses a zero mode" in str(excinfo.value)

    def test_degenerate_reference_rejected(self, const_profile):
        with pytest.raises(fd.DegenerateOperatorError, match="omega0"):
            gflow_ratio(const_profile, "periodic", omega0=2.0 * math.pi)

    def test_ratio_beyond_float_range(self):
        """Omega^2 = -k^2 with kT = 709.5 against the antiperiodic reference
        at omega0 T = pi - 1e-3: every basis on the flow is finite, but the
        ratio is about e^723.  The flow, whose 192 nodes resolve its
        sqrt-type integrand near g' = 0 only to about e^710, must refuse it
        with a named error rather than a bare OverflowError."""
        span, kt = 1000.0, 709.5
        k_sq = (kt / span) ** 2
        profile = fd.FrequencyProfile(
            omega_sq=lambda t: np.full(np.shape(t), -k_sq),
            interval=fd.Interval(0.0, span))
        with pytest.raises(fd.IntegrationError, match="float range"):
            gflow_ratio(profile, "antiperiodic", omega0=(math.pi - 1e-3) / span,
                        g_steps=192)
