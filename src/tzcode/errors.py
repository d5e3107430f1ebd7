"""Exception types raised across the package.

Decoding failures are not exceptions; the decoder reports them as values
(see decoder.DecodeOutcome).  Exceptions here signal contract violations
or impossible requests.
"""


class TZError(Exception):
    """Base class for all package errors."""


class DivisionByZero(TZError, ZeroDivisionError):
    """Division by the zero field element."""


class SingularMatrix(TZError):
    """Matrix inversion requested for a singular matrix."""


class NoSolution(TZError):
    """Linear system is inconsistent."""


class UnsupportedCharacteristic(TZError):
    """Construction requires odd q; even characteristic has no valid twist."""


class InvalidParameter(TZError):
    """A supplied code parameter violates one of its invariants."""


def _check_integers(**values):
    """InvalidParameter naming the first of values that is not a Python int (a bool is not one)."""
    for name, value in values.items():
        if type(value) is not int:
            raise InvalidParameter(f"{name} must be an integer, got {value!r}")


class MessageNotInSubfield(TZError):
    """Message entry does not lie in the subfield of linearity."""


class NotACodeword(TZError):
    """Vector passed as a codeword fails the membership test."""


class LimitCaseInapplicable(TZError):
    """Trace-augmented system only exists for even k."""


class OracleBudgetExceeded(TZError):
    """Brute-force enumeration would exceed the configured budget."""


class LocatorSystemInconsistent(TZError):
    """The reference locator system (solve_locators) has no solution; decode never raises it."""
