"""Exception types shared across the package, and the two helpers that keep
an identifier, token or value in their messages short."""

from __future__ import annotations


def clipped(text: str, show=str, width: int = 40) -> str:
    """``show(text)``; over ``width`` characters, ``show`` of the first ``width``
    plus the length, so that an error message naming any input stays one short line."""
    return show(text) if len(text) <= width else f"{show(text[:width])}... ({len(text)} characters)"


def shown(value) -> str:
    """``repr(value)`` clipped at 24 characters.  An int beyond 64 bits, whose digits
    may be too many to print, shows as its sign and bit length instead, and a value
    whose repr fails on such an int (a list holding one) as its type name."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"
    if isinstance(value, str):
        return clipped(value, repr, 24)
    try:
        return clipped(repr(value), width=24)
    except ValueError:  # past the interpreter's limit on int-to-str digits
        return f"<{type(value).__name__}>"


class FlexqError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FlexqError):
    """An instance, matching, or parameter violates a structural invariant."""


class NonMutualEdge(ValidationError):
    """One side of the market lists a partner that does not list it back."""


class DuplicateInList(ValidationError):
    """A preference list mentions the same identifier twice."""


class EmptyAgentList(ValidationError):
    """An agent finds no program acceptable, so no full assignment can exist."""


class NegativeCost(ValidationError):
    """A program cost is negative or not an integer."""


class ZeroQuota(ValidationError):
    """A quota is missing, zero, or not a positive integer."""


class QuotaViolated(ValidationError):
    """A matching places more agents at a program than its quota allows."""


class NotStable(ValidationError):
    """An operation that requires a stable input matching received an unstable one."""


class BudgetExceeded(FlexqError):
    """An exhaustive search needed more nodes than its budget allows."""


class ParseError(FlexqError):
    """A text input does not follow the documented file grammar."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)
