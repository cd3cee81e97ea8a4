"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, accuracy/convergence failures with 3, and instability-domain
errors with 4.
"""

__all__ = [
    "IonBridgeError",
    "ConfigError",
    "SingularGeometryError",
    "AccuracyError",
    "InstabilityError",
    "NotBracketedError",
]


class IonBridgeError(Exception):
    """Base class for all package errors."""


class ConfigError(IonBridgeError):
    """Invalid configuration, malformed input file, or bad CLI arguments."""


class SingularGeometryError(IonBridgeError):
    """Coordinates coincide or touch the interaction singularity."""


class AccuracyError(IonBridgeError):
    """A numerical result failed its stated accuracy or convergence gate."""


class InstabilityError(IonBridgeError):
    """Requested quantity is undefined in the unstable / collisional domain."""


class NotBracketedError(IonBridgeError):
    """A root search found no sign change inside its bracket."""

    def __init__(self, message: str, f_lo: float | None = None, f_hi: float | None = None):
        super().__init__(message)
        self.f_lo = f_lo
        self.f_hi = f_hi
