"""Exact minimization of total spend by branch-and-bound over cost levels.

Fix, for every agent, the cost of the program it will end up at.  For one
such cost tuple, keep only the edges matching each agent's chosen cost level
and prune away edges that would create envy; if nobody loses their whole
list, matching every agent to its best surviving program is stable.  The
cheapest surviving tuple is the global optimum.

The search fixes the levels of agents with two or more of them one agent at
a time, depth first, and re-prunes each child from its parent's pruned sets.
Pruning is monotone (fixing a level only removes edges), so a partial choice
that isolates an agent isolates every completion, and its subtree is cut.
A node's lower bound is the sum of each agent's cheapest surviving edge; the
search keeps only nodes that can beat the best spend known so far, starting
from the cheaper of the two approximations; ties keep the first optimal
tuple in ascending lexicographic order.  The number of tuples is the
product of per-agent distinct cost counts, so a budget guard refuses
oversized inputs unless forced; the search itself visits far fewer.
"""

from __future__ import annotations

import math

from .approx import approx_promote, approx_restrict
from .budget import check_budget
from .model import Matching, SmfqInstance, SolveReport, is_envy_free


def distinct_costs_per_agent(instance: SmfqInstance) -> list[list[int]]:
    """For each agent (instance order), the deduplicated costs on its list,
    ascending."""
    return [
        sorted({instance.cost[p] for p in instance.agent_pref[a]})
        for a in instance.agents
    ]


def prune(instance: SmfqInstance, adjsets: dict[str, set[str]]) -> str | None:
    """Envy pruning to a fixed point, mutating ``adjsets`` in place.

    ``adjsets[a]`` holds the programs still available to agent a.  Sweep the
    agents in instance order: where an agent a currently tops out at program
    p, no agent ranked below a may sit at any program a prefers to p, so those
    edges go.  Deletions are applied eagerly; the sweep repeats until stable.
    Returns the first agent left with no edges, or None if all survive.  The
    fixed point does not depend on the declared agent order.
    """
    pref = instance.agent_pref
    ppref = instance.program_pref
    prank = instance.prank
    changed = True
    while changed:
        changed = False
        for a in instance.agents:
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
) -> SolveReport:
    """Optimal total spend by depth-first branch-and-bound over cost tuples.

    Only agents with two or more cost levels are branched on, in instance
    order, levels ascending; the others keep their whole list.  A child
    narrows the branching agent to one level of its parent's pruned sets and
    runs :func:`prune` on the result; an isolated agent cuts it.  Its bound
    is the sum over all agents of the cheapest cost left in their set, which
    is exact at a leaf.  The limit starts one above the spend of the cheaper
    of :func:`approx_promote` and :func:`approx_restrict`; nodes whose bound
    reaches the limit are cut, and an accepted leaf lowers the limit to its
    spend.  Leaves are met in ascending lexicographic tuple order and must be
    strictly cheaper than the limit, so the first optimal tuple wins and the
    result is deterministic.  Raises :class:`BudgetExceeded` when the tuple
    count tops the budget, unless ``force`` is set.  ``stats`` holds
    ``tuples`` (the product), ``nodes`` (search nodes expanded, leaves
    included) and ``leaves`` (leaves checked for envy).
    """
    cost_sets = distinct_costs_per_agent(instance)
    tuples = math.prod(len(s) for s in cost_sets)
    check_budget(tuples, budget, force, "cost tuples")

    agents = instance.agents
    pref = instance.agent_pref
    cost = instance.cost
    branch = [(a, levels) for a, levels in zip(agents, cost_sets) if len(levels) > 1]

    # group each branching agent's programs by cost level once
    by_cost: dict[str, dict[int, set[str]]] = {}
    for a, _ in branch:
        groups: dict[int, set[str]] = {}
        for p in pref[a]:
            groups.setdefault(cost[p], set()).add(p)
        by_cost[a] = groups

    def bound(adjsets: dict[str, set[str]]) -> int:
        return sum(min(cost[p] for p in adjsets[a]) for a in agents)

    limit = min(approx_promote(instance).objective, approx_restrict(instance).objective) + 1
    best: dict[str, str] | None = None
    nodes = leaves = 0
    root = {a: set(pref[a]) for a in agents}
    stack = [] if prune(instance, root) is not None else [(0, root, bound(root))]
    while stack:
        depth, adjsets, lb = stack.pop()
        if lb >= limit:
            continue
        nodes += 1
        if depth == len(branch):
            leaves += 1
            assignment = {}
            for a in agents:
                rem = adjsets[a]
                assignment[a] = next(p for p in pref[a] if p in rem)
            if not is_envy_free(instance, Matching(assignment)).ok:
                raise AssertionError("a surviving cost tuple yielded an envious matching")
            best, limit = assignment, lb
            continue
        a, levels = branch[depth]
        for c in reversed(levels):  # popped in ascending order
            child = {x: set(s) for x, s in adjsets.items()}
            child[a] &= by_cost[a][c]
            if prune(instance, child) is None:
                stack.append((depth + 1, child, bound(child)))

    if best is None:
        raise AssertionError("no cost tuple beats the approximations' spend")
    return SolveReport(Matching(best), limit, "total_cost", "minsum-exact", certified_optimal=True,
                       stats={"tuples": tuples, "nodes": nodes, "leaves": leaves})
