"""Exception hierarchy shared by all floercone modules, and the rule for
integers past the interpreter's int-to-string digit limit."""

import sys


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


class TooManyDigits(DomainError):
    """A result past the int-to-string digit limit, which no output can print."""

    def __init__(self):
        limit = sys.get_int_max_str_digits()
        super().__init__(f"the result has more than {limit} decimal digits "
                         f"(int_max_str_digits = {limit})")


def past_digit_limit(x: int) -> bool:
    """Whether str(x) would pass the interpreter's int-to-string digit limit;
    8^limit < 10^limit, so the bit length settles most x without a power."""
    limit = sys.get_int_max_str_digits()
    return bool(limit) and x.bit_length() > 3 * limit and abs(x) >= 10 ** limit


def count_text(n: int) -> str:
    """n in decimal for a message, or "at least 10^limit" past that limit."""
    return f"at least 10^{sys.get_int_max_str_digits()}" if past_digit_limit(n) else str(n)
