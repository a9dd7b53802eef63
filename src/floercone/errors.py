"""Exception hierarchy shared by all floercone modules."""


class FloerconeError(Exception):
    """Base class for everything raised deliberately by this package."""


class DomainError(FloerconeError):
    """Input is well-formed but outside an operation's domain (CLI exit 1)."""


class ParseError(FloerconeError):
    """Malformed file or JSON payload (CLI exit 2)."""


class InternalError(FloerconeError):
    """An internal invariant failed: a fault in this package, not in the input (CLI exit 3)."""


class BadParameter(DomainError):
    pass


class NoUnitEntry(DomainError):
    pass


class BadCoefficient(DomainError):
    pass


class BadFraming(DomainError):
    pass


class UnsupportedModel(DomainError):
    pass


class NoSuchVertex(DomainError):
    pass


class NormalFormMismatch(DomainError):
    pass


class ExcludedCoefficient(DomainError):
    pass


class ParityError(DomainError):
    pass


class NonIntegral(DomainError):
    pass


class NotCycles(DomainError):
    pass
