"""Minimize the largest per-program spend, exactly and in polynomial time.

For a threshold t, give each program the quota it can afford under t
(``t // cost``, unlimited for cost-0 programs) and ask whether deferred
acceptance matches everyone.  Feasibility is monotone in t, so the optimum is
found by binary search over [0, |agents| * max_cost].
"""

from __future__ import annotations

from .hr import gale_shapley_a_optimal
from .model import HrInstance, Matching, SmfqInstance, SolveReport, is_a_perfect, max_cost


def build_quota_instance(instance: SmfqInstance, t: int) -> HrInstance:
    """The quota market induced by spending threshold t.

    Program p gets the largest roster it may hold without its spend
    exceeding t, ``t // cost``; cost-0 programs get quota |agents|
    (effectively unbounded).  Programs whose quota lands at 0 are dropped
    together with their edges; agents whose whole list is priced out keep an
    empty list and simply stay unmatched under deferred acceptance.
    """
    if t < 0:
        raise ValueError("threshold must be non-negative")
    n = len(instance.agents)
    quota = {p: (n if instance.cost[p] == 0 else t // instance.cost[p]) for p in instance.programs}
    kept = [p for p in instance.programs if quota[p] >= 1]
    kept_set = set(kept)
    return HrInstance(
        agents=list(instance.agents),
        programs=kept,
        agent_pref={a: [p for p in instance.agent_pref[a] if p in kept_set] for a in instance.agents},
        program_pref={p: list(instance.program_pref[p]) for p in kept},
        cost={p: instance.cost[p] for p in kept},
        quota={p: quota[p] for p in kept},
    )


def feasible_at(instance: SmfqInstance, t: int) -> bool:
    """Can every agent be matched while no program spends more than t?"""
    hr = build_quota_instance(instance, t)
    return is_a_perfect(instance, gale_shapley_a_optimal(hr))


def solve_minmax(instance: SmfqInstance) -> SolveReport:
    """Find the smallest feasible threshold and a full stable matching for it.

    The top of the search range is always feasible (every quota is at least
    |agents| there), so the binary search needs no probe of the endpoints.
    The returned matching is the agent-optimal one for the optimal threshold.
    """
    lo, hi = 0, len(instance.agents) * max(instance.cost.values(), default=0)
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible_at(instance, mid):
            hi = mid
        else:
            lo = mid + 1
    t_star = lo

    matching: Matching = gale_shapley_a_optimal(build_quota_instance(instance, t_star))
    if not is_a_perfect(instance, matching):
        raise AssertionError(f"the matching at the optimal threshold {t_star} leaves an agent out")
    if max_cost(instance, matching) != t_star:
        raise AssertionError(f"the matching at the optimal threshold {t_star} spends a different maximum")
    return SolveReport(matching, t_star, "max_cost", "minmax", certified_optimal=True)
