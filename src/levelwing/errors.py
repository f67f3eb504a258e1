"""Exception hierarchy shared by all simulator modules.

Every error carries a short category string used by the CLI to pick an
exit code, so failures stay distinguishable in scripts.
"""

import dataclasses
import math


class SimulatorError(Exception):
    """Base class for everything raised on purpose by this package."""

    category = "error"


class ConfigError(SimulatorError):
    """Invalid configuration: bad file, missing key, or unphysical value."""

    category = "config"


class AirDataError(SimulatorError):
    """Air-data quantities requested outside their valid domain."""

    category = "airdata"


class DynamicsFaultError(SimulatorError):
    """In-flight fault of the rigid-body integration; carries the state."""

    category = "dynamics"

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class SingularityError(DynamicsFaultError):
    """Pitch approached +/-90 deg where Euler kinematics blow up."""


class IntegrationFaultError(DynamicsFaultError):
    """Non-finite state produced by the integrator."""


class TrimFailureError(SimulatorError):
    """Trim solver failed to converge or converged outside limits."""

    category = "trim"

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class UncontrollablePlantError(SimulatorError):
    """Gain synthesis requested for a plant with zero control effectiveness."""

    category = "control"


class UndefinedBearingError(SimulatorError):
    """Bearing from an orbit center requested at the center itself."""

    category = "guidance"


class InsufficientDataError(SimulatorError):
    """Statistics requested over a series too short to be meaningful."""

    category = "metrics"


def require_finite(settings) -> None:
    """Raise ConfigError naming the first nan or inf number field of a
    settings dataclass."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name, None)
        try:
            finite = math.isfinite(value)
        except TypeError:  # not a number
            continue
        if not finite:
            raise ConfigError(f"{type(settings).__name__}.{f.name} must be "
                              f"finite, got {value}")
