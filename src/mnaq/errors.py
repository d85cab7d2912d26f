"""Exception types shared across the package."""


class MnaqError(Exception):
    """Base class for all package errors."""


class NotOddPrimePower(MnaqError, ValueError):
    """q is even, smaller than 3, or not a prime power."""


class TooLarge(MnaqError, ValueError):
    """Requested object exceeds a size guard (field ceiling or method limit)."""


class DivisionByZero(MnaqError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class NotInSigma(MnaqError, ValueError):
    """(a, b) is not a valid parameter pair."""


class NotInS(MnaqError, ValueError):
    """(x, y) is not a valid square pair."""


class IrregularPair(MnaqError, ValueError):
    """(x, y) fails the regularity condition required by the class tests."""


class BadSliceParam(MnaqError, ValueError):
    """Slice parameter c does not meet the slice-counter preconditions."""


class ZeroPolynomial(MnaqError, ValueError):
    """The zero polynomial was passed where a nonzero one is required."""


class SearchExhausted(MnaqError, RuntimeError):
    """Random search hit the attempt limit without finding a witness."""


class VerificationFailure(MnaqError, RuntimeError):
    """A verification suite or a runtime cross-check failed.

    The cross-checks (search's method C confirmation, exact polynomial
    division, method C's witnesses, the solution classifier) raise this rather
    than assert, so they also run under python -O."""
