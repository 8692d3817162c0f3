"""Work budget shared by the exhaustive solver and the enumeration oracle.

An exhaustive routine counts the search nodes it expands and raises
:class:`BudgetExceeded` as soon as the count passes the budget.  A budget
of None means :data:`DEFAULT_BUDGET`.
"""

from __future__ import annotations

from .errors import BudgetExceeded

DEFAULT_BUDGET = 10_000_000


def node_budget(budget: int | None) -> tuple[int, BudgetExceeded]:
    """The most nodes a search may expand and the error to raise on one more.
    A negative budget raises ValueError."""
    limit = DEFAULT_BUDGET if budget is None else int(budget)
    if limit < 0:
        raise ValueError(f"the budget must be non-negative, got {limit}")
    return limit, BudgetExceeded(f"the search needs more than the budget of {limit} nodes")
