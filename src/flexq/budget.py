"""Work budget shared by the exhaustive solver and the enumeration oracle.

Exhaustive routines refuse to start when the number of candidates they would
visit exceeds the budget, unless the caller forces them.  A budget of None
means :data:`DEFAULT_BUDGET`.
"""

from __future__ import annotations

from .errors import BudgetExceeded

DEFAULT_BUDGET = 10_000_000


def check_budget(count: int, budget: int | None, force: bool, what: str) -> None:
    """Raise :class:`BudgetExceeded` when ``count`` candidates (``what``, e.g.
    "cost tuples") top ``budget``, unless ``force`` is set.  A negative budget
    raises ValueError."""
    limit = DEFAULT_BUDGET if budget is None else int(budget)
    if limit < 0:
        raise ValueError(f"the budget must be non-negative, got {limit}")
    if count > limit and not force:
        raise BudgetExceeded(f"{count} {what} exceed the budget of {limit}")
