"""Exception types and the integer check shared across the package."""

import numbers


class ConfigError(ValueError):
    """Invalid experiment, learner, or adversary configuration."""


class ProtocolError(RuntimeError):
    """Online game protocol violated: wrong act/observe order or horizon overrun."""


def is_int(value) -> bool:
    """True for an integer config value; booleans and integral floats do not count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
