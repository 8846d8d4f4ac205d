"""Exception types and the number checks shared across the package."""

import numbers

import numpy as np


class ConfigError(ValueError):
    """Invalid experiment, learner, or adversary configuration."""


class ProtocolError(RuntimeError):
    """Online game protocol violated: wrong act/observe order or horizon overrun."""


def is_int(value) -> bool:
    """True for an integer config value; booleans and integral floats do not count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def real(value, name: str) -> float:
    """A real number config value as a float; raise TypeError for anything else, a boolean or a string included."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def real_array(value, name: str) -> np.ndarray:
    """A new float array of ``value``; raise TypeError unless every entry is a real number."""
    for entry in {type(e): e for e in np.asarray(value, dtype=object).flat}.values():  # one entry of each type
        real(entry, f"each entry of {name}")
    return np.array(value, dtype=float)
