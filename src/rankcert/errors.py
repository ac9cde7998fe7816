"""Exception types shared across the package, and the int check of public sizes.

The CLI maps these onto exit codes: ParseError -> 2,
PreconditionError -> 3, BoundExceededError -> 4.
"""


class RankcertError(Exception):
    pass


class ParseError(RankcertError, ValueError):
    """Malformed ring spec, entry literal, matrix or request payload."""


class PreconditionError(RankcertError, ValueError):
    """An operation was called outside its stated preconditions."""


class BoundExceededError(RankcertError, RuntimeError):
    """An enumeration finished without producing a required relation."""


class SearchBudgetError(RankcertError, RuntimeError):
    """A search exceeded a bound that termination arguments guarantee.

    Raised only when an internal invariant is broken; never a valid outcome.
    """


def check_int(value, name: str) -> int:
    """A public size, bound, index or coefficient: an int, never a bool or a float."""
    if type(value) is not int:
        raise PreconditionError(f"{name} must be an int, not {value!r}")
    return value
