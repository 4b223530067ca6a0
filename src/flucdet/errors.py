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
    """Newton shooting for a periodic amplitude solution did not converge."""


class VerificationError(FlucdetError):
    """An internal cross-check between two independent computation paths failed."""
