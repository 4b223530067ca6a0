"""Exception types shared across the package."""


class FlucdetError(Exception):
    """Base class for all package-specific errors."""


class ProfileError(FlucdetError):
    """Invalid frequency profile (discontinuity, singular endpoint, bad zero-mode shape)."""


class ConfigError(FlucdetError):
    """Malformed or unrecognized configuration input."""


class IntegrationError(FlucdetError):
    """ODE integration or quadrature failed to reach the requested accuracy
    within its work bound, or its result lies outside the float range."""


class DegenerateOperatorError(FlucdetError):
    """The operator (or a reference operator) is singular for the requested boundary condition."""


class ShootingError(FlucdetError):
    """A solve for a periodic amplitude or a shifted eigenvalue failed: the
    profile is at a parametric resonance (|tr M| >= 2, no periodic amplitude
    exists), the corrected amplitude misses SHOOTING_TOL, or the secant solve
    of determinants._eigenvalue_shift did not converge."""


class VerificationError(FlucdetError):
    """An internal cross-check between two independent computation paths failed."""
