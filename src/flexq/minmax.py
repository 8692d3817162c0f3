"""Minimize the largest per-program spend, exactly and in polynomial time.

For a threshold t, give each program the seats it can afford under t
(``t // cost``, unlimited for cost-0 programs) and ask whether deferred
acceptance matches everyone.  Feasibility is monotone in t, so the optimum is
found by binary search over [0, |agents| * max_cost].

The search keeps the deferred-acceptance state of the smallest threshold
known feasible and starts every probe below it from a copy of that state:
seats only shrink, so each roster is cut to its new quota, the evicted
agents propose on from where they stopped, and the result is the
deferred-acceptance outcome for the probe's threshold.  A rejected agent is
never taken back, so a probe is infeasible the moment one agent's list runs
out.
"""

from __future__ import annotations

from .hr import deferred_acceptance_state, gale_shapley_a_optimal, resume_with_fewer_seats
from .model import SmfqInstance, SolveReport, is_a_perfect, max_cost


def build_quota_instance(instance: SmfqInstance, t: int) -> dict[str, int]:
    """The seat map induced by spending threshold t.

    Program p gets the largest roster it may hold without its spend
    exceeding t, ``t // cost``; cost-0 programs get |agents| seats
    (effectively unbounded).  Programs priced out (0 seats) are left out of
    the map, so deferred acceptance skips them; agents whose whole list is
    priced out simply stay unmatched.
    """
    if t < 0:
        raise ValueError("threshold must be non-negative")
    n = len(instance.agents)
    quota = {p: (n if c == 0 else t // c) for p, c in instance.cost.items()}
    return {p: q for p, q in quota.items() if q >= 1}


def feasible_at(instance: SmfqInstance, t: int) -> bool:
    """Can every agent be matched while no program spends more than t?"""
    quota = build_quota_instance(instance, t)
    return is_a_perfect(instance, gale_shapley_a_optimal(instance, quota=quota))


def solve_minmax(instance: SmfqInstance) -> SolveReport:
    """Find the smallest feasible threshold and a full stable matching for it.

    The top of the search range is always feasible (every quota is at least
    |agents| there), so the binary search needs no probe of the endpoints.
    The returned matching is the agent-optimal one for the optimal threshold.
    ``stats`` holds ``probes`` (binary-search steps) and ``proposals`` (list
    entries passed over all deferred-acceptance steps, counting the run at
    the top of the range).
    """
    lo, hi = 0, len(instance.agents) * max(instance.cost.values(), default=0)
    # the state at hi, the smallest threshold known feasible; at the top of
    # the range it is every agent at its top choice
    state = deferred_acceptance_state(instance, build_quota_instance(instance, hi))
    proposals = state.proposals
    probes = 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        probe, stuck = resume_with_fewer_seats(instance, state, build_quota_instance(instance, mid))
        proposals += probe.proposals - state.proposals
        if stuck is None:
            hi, state = mid, probe
        else:
            lo = mid + 1
    t_star = hi

    matching = state.matching(instance)
    if not is_a_perfect(instance, matching):
        raise AssertionError(f"the matching at the optimal threshold {t_star} leaves an agent out")
    if max_cost(instance, matching) != t_star:
        raise AssertionError(f"the matching at the optimal threshold {t_star} spends a different maximum")
    return SolveReport(matching, t_star, "minmax", certified_optimal=True,
                       stats={"probes": probes, "proposals": proposals})
