"""Exception types shared across the package, and the field-type check
every config dataclass runs when it validates.

The CLI maps these onto exit codes: ConfigError -> 2, NumericError and its
subclasses -> 3.
"""

import functools
import sys
import typing
from numbers import Integral

import numpy as np


class DeeplinError(Exception):
    """Base class for package-specific failures."""


class ConfigError(DeeplinError, ValueError):
    """Invalid configuration, CLI argument, or file format."""


class NumericError(DeeplinError, RuntimeError):
    """A numeric routine failed beyond recoverable tolerance."""


class SingularInputError(NumericError):
    """Input is singular (or nearly so) where an invertible matrix is required."""


class NoRealRootError(NumericError):
    """An orthogonal factor has an eigenvalue at -1, so no real principal root exists."""


# the field types of each config dataclass, evaluated once: the string
# annotations would otherwise be evaluated again on every check
_type_hints = functools.cache(typing.get_type_hints)


def _conforms(value, kind) -> bool:
    """Whether a value fits a declared config field type: a value of that
    exact type does, an ``int`` is an integer but not a boolean, a ``float``
    a float or an ``int`` that converts to one; a tuple type holds
    conforming entries; a union admits any of its members."""
    if type(value) is kind:
        return True
    if kind is int:
        return isinstance(value, Integral) and not isinstance(value, bool)
    if kind is float:
        return isinstance(value, (float, np.floating)) or (
            _conforms(value, int) and abs(value) <= sys.float_info.max
        )
    args = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        return isinstance(value, tuple) and all(_conforms(v, args[0]) for v in value)
    if args:
        return any(_conforms(value, member) for member in args)
    return isinstance(value, kind)


def _check_fields(config, context: str):
    """ConfigError for the first field of ``config`` that does not conform."""
    for name, kind in _type_hints(type(config)).items():
        if not _conforms(value := getattr(config, name), kind):
            shown = kind.__name__ if isinstance(kind, type) else str(kind)
            raise ConfigError(f"{context} field {name!r} must be {shown}, got {value!r}")
