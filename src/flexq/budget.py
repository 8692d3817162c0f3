"""Work budget shared by the exhaustive solver and the enumeration oracle.

Exhaustive routines refuse to start when the number of candidates they would
visit exceeds the budget, unless the caller forces them.  The default can be
overridden globally through the ``FLEXQ_BUDGET`` environment variable.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded

DEFAULT_BUDGET = 10_000_000
ENV_VAR = "FLEXQ_BUDGET"


def resolve_budget(budget: int | None = None) -> int:
    """Pick the effective budget: explicit argument, then environment, then
    default.  A negative budget from either source raises ValueError."""
    if budget is None:
        raw = os.environ.get(ENV_VAR)
        if raw is None:
            return DEFAULT_BUDGET
        try:
            budget = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    limit = int(budget)
    if limit < 0:
        raise ValueError(f"the budget must be non-negative, got {limit}")
    return limit


def check_budget(count: int, budget: int | None, force: bool, what: str) -> None:
    """Raise :class:`BudgetExceeded` when ``count`` candidates (``what``, e.g.
    "cost tuples") top the effective budget, unless ``force`` is set."""
    limit = resolve_budget(budget)
    if count > limit and not force:
        raise BudgetExceeded(f"{count} {what} exceed the budget of {limit}")
