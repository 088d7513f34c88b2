"""Exception types raised by the padefit library.

Every error raised on a contract violation derives from PadefitError so
callers (and the command line front end) can catch the whole family.
"""


class PadefitError(Exception):
    """Base class for all padefit errors."""


class DenominatorZero(PadefitError):
    """The denominator polynomial vanishes at a requested evaluation point."""

    def __init__(self, x):
        self.x = x
        super().__init__(f"denominator vanishes at x = {x!r}")

    def __reduce__(self):  # pickle and copy rebuild from x, not from the message
        return type(self), (self.x,)


class UnsupportedSubstitution(PadefitError):
    """Operation requires the plain coordinate (x_power == 1)."""


class InsufficientData(PadefitError):
    """Fewer data points than free coefficients."""


class SingularSystem(PadefitError):
    """The least-squares system is numerically rank deficient or cannot be factored."""


class CountMismatch(PadefitError):
    """Reference point count does not match the number of free coefficients."""


class DuplicateAbscissa(PadefitError):
    """Two reference points share the same abscissa."""


class LengthMismatch(PadefitError):
    """Paired sequences have different lengths."""


class EmptyInput(PadefitError):
    """An operation received an empty sequence."""


class DegenerateAbscissae(PadefitError):
    """All abscissae coincide; no spread to fit."""


class NegativeAbscissa(PadefitError):
    """Negative abscissa with a non-integer substitution power."""


class EvaluationOverflow(PadefitError):
    """A model value at x, or a step on the way to it, is not finite: the
    arithmetic overflows the float range, or x itself is not finite."""


class SingularDerivative(PadefitError):
    """dR/dx requested at x = 0 with a substitution power below 1, where the
    chain-rule factor x_power * x**(x_power - 1) is infinite."""


class NoFeasibleModel(PadefitError):
    """Every candidate in a model search failed."""


class EmptySweep(PadefitError):
    """A penalty sweep needs at least two rows."""


class NoBracket(PadefitError):
    """Root bracketing failed for the likelihood profile equation."""


class NonconvergentTail(PadefitError):
    """A model CDF never approaches 1 within the search cap."""


class NonconvergentQuadrature(PadefitError):
    """The MTTF quadrature met a non-finite integrand value, or missed its
    tolerance after its last round of panel halving."""


class PoleOnRange(PadefitError):
    """A pole lies inside an integration or evaluation range."""
