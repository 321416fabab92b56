"""Exception types shared across the package, and the integer check that
turns a non-integral argument into InputError."""

import operator


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured budget; never truncated silently."""


def as_int(value: object, name: str) -> int:
    """value as an int through operator.index: a float, a string or anything
    else without __index__ raises InputError naming the argument.  The
    constructors call it to refuse such a value and keep the one given."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, not {value!r}") from None
