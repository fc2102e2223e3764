"""Exception types shared across the package."""


class ParseError(ValueError):
    """A text form (monoid, ideal, domain, or element) could not be parsed."""


class CapabilityError(ValueError):
    """The requested operation is not supported for this kind of object."""


class MismatchError(ValueError):
    """Operands live over different monoids or coefficient domains."""


class ExtractionError(ValueError):
    """A homogeneous ideal is not the split product of its two parts."""


class ExponentCapError(RuntimeError):
    """The content-exponent search ran past its guaranteed cap.

    Reaching this signals an implementation bug, not a mathematical
    possibility, so it is a RuntimeError rather than a ValueError.
    """
