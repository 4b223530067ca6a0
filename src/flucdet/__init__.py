"""Functional determinants of one-dimensional fluctuation operators.

The package computes determinants of K = -d^2/dt^2 - Omega^2(t) on a finite
interval under Dirichlet, periodic, and antiperiodic boundary conditions.
The closed-form route reads every determinant from the transfer matrix
M = Phi(t_b, t_a) of one integrated fundamental matrix; independent oracles
(lattice determinant recurrences, a coupling flow driven by Green-function
traces, and an amplitude-phase route) cross check every result.
"""

import importlib

from .errors import (
    ConfigError,
    DegenerateOperatorError,
    FlucdetError,
    IntegrationError,
    ProfileError,
    ShootingError,
    VerificationError,
)
from .profiles import (
    FrequencyProfile,
    Interval,
    SyntheticZeroModeSpec,
    builtin_zero_mode_spec,
    make_constant_profile,
    make_modulated_profile,
    make_user_profile,
    make_zero_mode_profile,
    profile_from_config,
)
from .odesolve import HomogeneousBasis, make_basis
from .green import (
    GreenKernel,
    free_reference,
    trace_omega_sq,
)
from .determinants import (
    DetResult,
    ZeroModeReport,
    det_antiperiodic,
    det_dirichlet,
    det_dirichlet_regularized,
    det_periodic,
    det_periodic_regularized,
    determinant,
    van_vleck_check,
)

# the amplitude-phase route and the oracles load on first use (PEP 562), so
# that a determinant compiles neither
_LAZY = {name: module for module, names in (
    ("ermakov", ("ErmakovSolution", "basis_from_pq", "det_ratio_dirichlet_pq",
                 "det_ratio_periodic_pq", "solve_ermakov")),
    ("oracle", ("SpectrumReport", "gflow_ratio", "lattice_ratio", "lattice_ratio_richardson",
                "pseudo_det_ratio")))
    for name in names}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateOperatorError",
    "DetResult",
    "ErmakovSolution",
    "FlucdetError",
    "FrequencyProfile",
    "GreenKernel",
    "HomogeneousBasis",
    "IntegrationError",
    "Interval",
    "ProfileError",
    "ShootingError",
    "SpectrumReport",
    "SyntheticZeroModeSpec",
    "VerificationError",
    "ZeroModeReport",
    "basis_from_pq",
    "builtin_zero_mode_spec",
    "det_antiperiodic",
    "det_dirichlet",
    "det_dirichlet_regularized",
    "det_periodic",
    "det_periodic_regularized",
    "det_ratio_dirichlet_pq",
    "det_ratio_periodic_pq",
    "determinant",
    "free_reference",
    "gflow_ratio",
    "lattice_ratio",
    "lattice_ratio_richardson",
    "make_basis",
    "make_constant_profile",
    "make_modulated_profile",
    "make_user_profile",
    "make_zero_mode_profile",
    "profile_from_config",
    "pseudo_det_ratio",
    "solve_ermakov",
    "trace_omega_sq",
    "van_vleck_check",
]
