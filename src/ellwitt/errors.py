"""Exception types shared across the package."""


class ValidationError(Exception):
    """Two independent computations of the same quantity disagree, or a
    mathematically guaranteed assertion failed.  Always names the check."""


class PrecisionError(ValueError):
    """A series coefficient beyond the known absolute precision was read:
    a bug in the caller, which the CLI reports as an internal error."""
