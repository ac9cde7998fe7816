"""Exception types shared across the package, and the int check of public sizes.

RankcertError is the base of the three the package raises, and the CLI
maps each onto an exit code: ParseError -> 2, PreconditionError -> 3,
BoundExceededError -> 4.
"""


class RankcertError(Exception):
    pass


class ParseError(RankcertError, ValueError):
    """Malformed ring spec, entry literal, matrix or request payload."""


class PreconditionError(RankcertError, ValueError):
    """An operation was called outside its stated preconditions."""


class BoundExceededError(RankcertError, RuntimeError):
    """An enumeration finished without producing a required relation."""


def check_int(value, name: str) -> int:
    """A public size, bound, index or coefficient: an int, never a bool or a float."""
    if type(value) is not int:
        raise PreconditionError(f"{name} must be an int, not {value!r}")
    return value
