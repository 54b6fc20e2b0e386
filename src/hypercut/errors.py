"""Exception types shared across the package, and ``integer``, the one check
of every public integer argument."""

import operator


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
