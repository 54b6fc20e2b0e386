"""Exception types shared across the package, and the rules that read every
public number: ``integer`` and ``integers`` for integers, ``reals`` for reals."""

import numbers
import operator

import numpy as np


class InputError(ValueError):
    """Malformed or out-of-contract input (bad file, bad partition, bad range)."""


class CapacityError(RuntimeError):
    """Instance too large for an exhaustive routine's hard guard."""


class NumericError(ArithmeticError):
    """A numeric routine failed to reach its accuracy target."""


def integer(name: str, value, low: int = 0, cap: int | None = None) -> int:
    """``value`` as a Python int, read by ``operator.index``: a numpy integer
    is taken (so no exact arithmetic wraps in int64 later) and a float, even
    3.0, refused.  ``InputError`` below ``low``, ``CapacityError`` past ``cap``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    if cap is not None and value > cap:
        raise CapacityError(f"{name} = {value} exceeds the capacity {cap}")
    return value


def integers(name: str, values, low: int, high: int) -> np.ndarray:
    """``values`` as an int64 array of integers in [low, high), else ``InputError``.
    An array of bool or signed integer dtype, or unsigned below 2^63, given or
    inferred from a list, is cast whole; any other is read entry by entry, as
    given, by ``operator.index``: a float, even 2.0, a string or a value past
    int64 is refused, not truncated, parsed or wrapped."""
    try:
        a = np.asarray(values)
        if not (a.dtype.kind in "bi" or a.dtype.kind == "u" and a.max(initial=0) < 2**63):
            if not isinstance(values, np.ndarray):  # a set, or ints numpy reads as float64
                a = np.array(list(values), dtype=object)
            a = np.fromiter(map(operator.index, a.ravel()), np.int64, a.size).reshape(a.shape)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be integers in [{low}, {high}): {exc}") from None
    a = a.astype(np.int64, copy=False)
    if a.size and (a.min() < low or a.max() >= high):
        raise InputError(f"{name} {a.min()}..{a.max()} leave the range [{low}, {high})")
    return a


def reals(name: str, values) -> np.ndarray:
    """``values``, a number or an array of numbers, as a new float64 array,
    else ``InputError``: each must be a real number (a bool, an int, a float
    or a numpy real), so that a string or None is refused, not parsed."""
    a = np.asarray(values)
    for value in a.flat if a.dtype.kind not in "biuf" else ():
        if not isinstance(value, (numbers.Real, np.bool_)):
            raise InputError(f"{name} must be real numbers, got {value!r}")
    return a.astype(float)
