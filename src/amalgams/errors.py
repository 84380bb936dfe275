"""Exception hierarchy shared by all modules."""


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class ZeroInverse(AlgebraError):
    """Attempted to invert 0 in a prime field."""


class InvalidRing(AlgebraError):
    """Variable names or weights do not define a polynomial ring."""


class ContextMismatch(AlgebraError):
    """Operands live in different ambient polynomial rings."""


class NotPrime(AlgebraError):
    """Field modulus is not a prime number."""


class DegreeCapExceeded(AlgebraError):
    """An intermediate polynomial exceeded the configured degree cap, or a
    monomial the degree bound of the packed exponent layout
    (`poly.PACKED_DEGREE_BOUND`).

    Signals an infeasible computation, not a wrong answer.
    """


class UnitIdeal(AlgebraError):
    """The defining ideal of a presented ring contains 1."""


class JUnit(AlgebraError):
    """The listed generators of J generate the unit ideal of B."""


class NotHomogeneous(AlgebraError):
    """A generator or matrix entry mixes weighted degrees."""


class NotWellDefined(AlgebraError):
    """A ring homomorphism does not kill the defining ideal of its source."""


class DegreeMismatch(AlgebraError):
    """A ring homomorphism violates the weighted grading."""


class ResolutionTooLong(AlgebraError):
    """A free resolution ran past Hilbert's syzygy bound (#variables).

    Signals a fault in the computation, never a property of the input.
    """


class SeriesMismatch(AlgebraError):
    """A ring's free resolution disagrees with its Hilbert series: the
    alternating sum of the twists is not the series' numerator.

    Signals a fault in the computation, never a property of the input.
    """


class ZeroModule(AlgebraError):
    """Operation requires a nonzero module."""


class NotARing(AlgebraError):
    """Hand-entered finite ring tables fail the ring axioms."""


class NotAHom(AlgebraError):
    """A finite-ring map is not a unital ring homomorphism."""


class SizeCap(AlgebraError):
    """A finite-ring computation exceeds the exhaustive-search size cap."""


class ParseError(AlgebraError):
    """Declaration input failed to parse."""


class UnknownReference(AlgebraError):
    """A declaration refers to a name that was never declared."""
