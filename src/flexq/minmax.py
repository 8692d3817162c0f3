"""Minimize the largest per-program spend, exactly and in polynomial time.

For a threshold t, give each program the seats it can afford under t
(``t // cost``, unlimited for cost-0 programs) and ask whether deferred
acceptance matches everyone.  Feasibility is monotone in t, so the optimum is
found by binary search over [0, t_top], t_top being the largest spend with
every agent at its top choice (see :func:`solve_minmax`).

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
    return {p: q for p, c in instance.cost.items() if (q := t // c if c else n)}


def feasible_at(instance: SmfqInstance, t: int) -> bool:
    """Can every agent be matched while no program spends more than t?"""
    quota = build_quota_instance(instance, t)
    return is_a_perfect(instance, gale_shapley_a_optimal(instance, quota=quota))


def solve_minmax(instance: SmfqInstance) -> SolveReport:
    """Find the smallest feasible threshold and a full stable matching for it.

    The run with |agents| seats everywhere puts every agent at its top
    choice, and that matching is also the outcome at its own largest spend
    t_top; so the search range is [0, t_top], with no probe of the endpoints.
    The returned matching is the agent-optimal one for the optimal threshold.
    ``stats`` holds ``probes`` (binary-search steps) and ``proposals`` (list
    entries passed over all deferred-acceptance steps, counting the first
    run with |agents| seats everywhere).
    """
    # every agent at its top choice; its matching is the outcome at t_top,
    # the smallest threshold known feasible
    state = deferred_acceptance_state(instance, build_quota_instance(
        instance, len(instance.agents) * max(instance.cost.values(), default=0)))
    lo, hi = 0, max((len(h) * instance.cost[p] for p, (h, *_) in state.slots.items()), default=0)
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
    return SolveReport(matching, t_star, "minmax", stats={"probes": probes, "proposals": proposals})
