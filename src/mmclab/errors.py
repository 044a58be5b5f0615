"""Exception types raised across the package, one per CLI exit code:
invalid input data or configuration exits with 2, a numerical failure with 3.
"""


class MMCLabError(Exception):
    """Base class for all package errors."""


class InputError(MMCLabError):
    """Invalid input data or configuration (CLI exit code 2)."""


class NumericalError(MMCLabError):
    """A numerical routine failed to produce a usable result (CLI exit code 3)."""
