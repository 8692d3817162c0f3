"""Exception types shared across the package, and the one helper that keeps
an identifier or token in their messages short."""

from __future__ import annotations


def clipped(text: str, show=str) -> str:
    """``show(text)``; over 40 characters, ``show`` of the first 40 plus the
    length, so that an error message naming any input stays one short line."""
    return show(text) if len(text) <= 40 else f"{show(text[:40])}... ({len(text)} characters)"


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
