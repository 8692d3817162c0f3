"""Exact minimization of total spend via per-agent cost-level enumeration.

Fix, for every agent, the cost of the program it will end up at.  For one
such cost tuple, keep only the edges matching each agent's chosen cost level
and prune away edges that would create envy; if nobody loses their whole
list, matching every agent to its best surviving program is stable.  The
cheapest surviving tuple is the global optimum.  The number of tuples is the
product of per-agent distinct cost counts, so a budget guard refuses
oversized inputs unless forced.
"""

from __future__ import annotations

import itertools
import math

from .budget import check_budget
from .model import Matching, SmfqInstance, SolveReport, is_envy_free


def distinct_costs_per_agent(instance: SmfqInstance) -> list[list[int]]:
    """For each agent (instance order), the deduplicated costs on its list,
    ascending."""
    return [
        sorted({instance.cost[p] for p in instance.agent_pref[a]})
        for a in instance.agents
    ]


def prune(instance: SmfqInstance, adjsets: dict[str, set[str]], agent_order: list[str] | None = None) -> str | None:
    """Envy pruning to a fixed point, mutating ``adjsets`` in place.

    ``adjsets[a]`` holds the programs still available to agent a.  Sweep the
    agents: where an agent a currently tops out at program p, no agent ranked
    below a may sit at any program a prefers to p, so those edges go.
    Deletions are applied eagerly; the sweep repeats until stable.  Returns
    the first agent left with no edges, or None if all survive.  The fixed
    point does not depend on the sweep order ``agent_order`` (default:
    instance order).
    """
    order = instance.agents if agent_order is None else agent_order
    pref = instance.agent_pref
    ppref = instance.program_pref
    prank = instance.prank
    changed = True
    while changed:
        changed = False
        for a in order:
            rem = adjsets[a]
            if not rem:
                return a
            lst = pref[a]
            ti = 0
            while lst[ti] not in rem:
                ti += 1
            for p2 in lst[:ti]:
                plist = ppref[p2]
                for x in plist[prank[p2][a] + 1:]:
                    rx = adjsets[x]
                    if p2 in rx:
                        rx.discard(p2)
                        changed = True
                        if not rx:
                            return x
    return None


def solve_minsum_exact(
    instance: SmfqInstance,
    budget: int | None = None,
    force: bool = False,
    agent_order: list[str] | None = None,
) -> SolveReport:
    """Optimal total spend by enumerating per-agent cost tuples.

    Tuples are visited in ascending lexicographic order and ties keep the
    first optimum found, so the result is deterministic.  Raises
    :class:`BudgetExceeded` when the tuple count tops the budget, unless
    ``force`` is set.
    """
    cost_sets = distinct_costs_per_agent(instance)
    check_budget(math.prod(len(s) for s in cost_sets), budget, force, "cost tuples")

    agents = instance.agents
    pref = instance.agent_pref
    cost = instance.cost

    # group each agent's list by cost level once, keeping preference order
    by_cost: dict[str, dict[int, list[str]]] = {}
    for a in agents:
        groups: dict[int, list[str]] = {}
        for p in pref[a]:
            groups.setdefault(cost[p], []).append(p)
        by_cost[a] = groups

    best: dict[str, str] | None = None
    best_cost = 0
    for choice in itertools.product(*cost_sets):
        adjsets = {a: set(by_cost[a][c]) for a, c in zip(agents, choice)}
        if prune(instance, adjsets, agent_order) is not None:
            continue
        assignment = {}
        for a in agents:
            rem = adjsets[a]
            assignment[a] = next(p for p in pref[a] if p in rem)
        if not is_envy_free(instance, Matching(assignment)).ok:
            raise AssertionError("a surviving cost tuple yielded an envious matching")
        c = sum(cost[p] for p in assignment.values())
        if best is None or c < best_cost:
            best, best_cost = assignment, c

    if best is None:
        raise AssertionError("the tuple of top-choice costs always survives pruning")
    return SolveReport(Matching(best), best_cost, "total_cost", "minsum-exact", certified_optimal=True)
