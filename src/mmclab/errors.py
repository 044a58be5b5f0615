"""Exception types raised across the package.

Grouped by failure mode so the CLI can map them onto exit codes:
configuration/input errors exit with 2, numerical failures with 3.
"""


class MMCLabError(Exception):
    """Base class for all package errors."""


class InputError(MMCLabError):
    """Invalid input data or configuration (CLI exit code 2)."""


class NumericalError(MMCLabError):
    """A numerical routine failed to produce a usable result (CLI exit code 3)."""


# --- chain validation and eigensolves (stage 1's included) ---

class DimensionMismatch(InputError):
    pass


class RowNotStochastic(InputError):
    pass


class NotIrreducible(InputError):
    pass


class Periodic(InputError):
    pass


class SingularSystem(NumericalError):
    pass


class EigenFailure(NumericalError):
    pass


class NotMixedWithinTMax(NumericalError):
    pass


# --- instance generation / sampling ---

class EmptyClusterAfterRounding(InputError):
    pass


class StateSpaceMismatch(InputError):
    pass


class StateOutOfRange(InputError):
    pass


# --- spectral stage ---

class EmptyInput(InputError):
    pass


class NonpositiveLogArgument(InputError):
    pass


# --- likelihood stage ---

class EmptyCluster(InputError):
    pass


class ZeroProbabilityTransition(NumericalError):
    pass


# --- metrics / bounds ---

class LengthMismatch(InputError):
    pass


class InvalidRange(InputError):
    pass


# --- CLI ---

class InvalidSpec(InputError):
    pass
