"""Shared fixtures: reference profiles and a seeded random generator."""

import math

import numpy as np
import pytest

import flucdet as fd


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture(scope="session")
def unit_interval():
    return fd.Interval(0.0, 1.0)


@pytest.fixture(scope="session")
def const_profile():
    """Constant omega = 1 on [0, 1]."""
    return fd.make_constant_profile(1.0, fd.Interval(0.0, 1.0))


@pytest.fixture(scope="session")
def const2_profile():
    """Constant omega = 2 on [0, 1]."""
    return fd.make_constant_profile(2.0, fd.Interval(0.0, 1.0))


@pytest.fixture(scope="session")
def soft_profile():
    """Constant omega = 0.5 on [0, 1.5]."""
    return fd.make_constant_profile(0.5, fd.Interval(0.0, 1.5))


@pytest.fixture(scope="session")
def free_profile():
    """Vanishing frequency on [0, 1]."""
    return fd.make_constant_profile(0.0, fd.Interval(0.0, 1.0))


@pytest.fixture(scope="session")
def modulated_profile():
    """Omega^2 = 1 + 0.2 sin(3t) on [0, 2]."""
    return fd.make_modulated_profile(1.0, 0.2, 3.0, fd.Interval(0.0, 2.0))


@pytest.fixture(scope="session")
def seam_profile():
    """Omega^2 = 1 + 0.3 sin(pi t) on [0, 2]; the modulation period equals the span."""
    return fd.make_modulated_profile(1.0, 0.3, math.pi, fd.Interval(0.0, 2.0))


@pytest.fixture(scope="session")
def shifted_profile():
    """Omega^2 = 6.5^2 (1 + 0.36 sin(4t)) on [1.88, 2.62], a det-sweep-like
    modulated case: tr M = 0.61, so a periodic amplitude exists."""
    return fd.make_modulated_profile(6.5, 0.36, 4.0, fd.Interval(1.88, 2.62))


@pytest.fixture(scope="session")
def sinpi_profile():
    """Synthetic profile whose Dirichlet operator annihilates sin(pi t) on [0, 1]."""
    return fd.make_zero_mode_profile(
        fd.builtin_zero_mode_spec("sinpi", fd.Interval(0.0, 1.0)))


@pytest.fixture(scope="session")
def sinpi_bump_profile():
    """Synthetic zero-mode profile with a non-constant Omega^2 on [0, 1]."""
    return fd.make_zero_mode_profile(
        fd.builtin_zero_mode_spec("sinpi_bump", fd.Interval(0.0, 1.0)))
