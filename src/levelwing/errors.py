"""Exception hierarchy and the settings field check shared by all modules.

Every error carries a short category string used by the CLI to pick an
exit code, so failures stay distinguishable in scripts.
"""

import dataclasses
import functools
import math
import numbers
import operator
import sys
import typing


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


# Kinds that admit more than their own type, the commonest type first.
_KINDS = {float: (float, int, numbers.Real), int: (int, numbers.Integral),
          tuple: (tuple, list)}
_OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def bounded(default=dataclasses.MISSING, *, gt=None, ge=None, le=None,
            squared=False):
    """A settings field: its default (none if left out) and its bounds.
    squared marks a field that a check or the gain design squares, so its
    square must be finite."""
    bounds = {">": gt, ">=": ge, "<=": le}
    metadata = {op: bound for op, bound in bounds.items() if bound is not None}
    if squared:
        metadata["squared"] = True
    return dataclasses.field(default=default, metadata=metadata)


def finite_number(value) -> bool:
    """Whether value is a real number, not a bool, and finite as a float."""
    return (isinstance(value, _KINDS[float]) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@functools.cache
def _field_kinds(cls: type) -> tuple:
    """(field, Class.field, kinds admitted, bounds, squared) for each init
    field."""
    hints = typing.get_type_hints(cls)
    return tuple((f, f"{cls.__name__}.{f.name}",
                  _KINDS.get(typing.get_origin(hint) or hint, hint),
                  [(op, _OPS[op], bound) for op, bound in f.metadata.items()
                   if op in _OPS],
                  "squared" in f.metadata)
                 for f in dataclasses.fields(cls) if f.init
                 for hint in (hints[f.name],))


def check_fields(settings) -> None:
    """Raise ConfigError naming the first init field of settings whose
    value is of the wrong kind, not finite, outside its field's bounds or,
    for a squared field, of a square that overflows."""
    for f, name, kind, bounds, squared in _field_kinds(type(settings)):
        value = getattr(settings, f.name)
        if (not isinstance(value, kind)
                or isinstance(value, bool) and kind is not bool):
            raise ConfigError(f"{name} must be {f.type}, got {value!r}")
        if kind is _KINDS[float] and not finite_number(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        for op, holds, b in bounds:
            if not holds(value, b):
                raise ConfigError(f"{name} must be {op} {b:g}, got {value}")
        if squared:
            try:
                value**2
            except OverflowError:
                raise ConfigError(f"{name} must have a finite square, got "
                                  f"{value}") from None
