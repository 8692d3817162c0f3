"""Exact minimization of total spend by branch-and-bound over cost levels.

Fix, for every agent, the cost of the program it will end up at.  For one
such cost tuple, keep only the edges matching each agent's chosen cost level
and prune away edges that would create envy; if nobody loses their whole
list, matching every agent to its best surviving program is stable.  The
cheapest surviving tuple is the global optimum.

A search node is one int per agent, a mask over positions on the agent's
own list (bit j set while its j-th program is still available); the search
fixes one agent's level per step, depth first.  Fixing a level only removes
edges, so an agent isolated by a partial choice cuts its whole subtree.  A
child re-prunes only from the agents whose top choice moved, and a node
carries every agent's cheapest level, so a child recomputes it and its
bound only over the agents whose masks changed: a node costs what changed
rather than the whole market.  A level already priced out by the bound is
not expanded at all.  The nodes expanded are budget-guarded.
"""

from __future__ import annotations

from .approx import approx_promote, approx_restrict
from .budget import node_budget
from .model import Matching, SmfqInstance, SolveReport, is_envy_free


def distinct_costs_per_agent(instance: SmfqInstance) -> list[list[int]]:
    """For each agent (instance order), the deduplicated costs on its list,
    ascending."""
    return [
        sorted({instance.cost[p] for p in instance.agent_pref[a]})
        for a in instance.agents
    ]


def _prune(masks: list[int], ahead: list[list[tuple[list[tuple[int, int]], int]]],
           queue: list[int]) -> set[int] | None:
    """Envy pruning to a fixed point from a worklist, clearing ``masks`` bits in place.

    ``ahead[i][j]`` holds, for the j-th program on agent i's list, that
    program's (agent index, bit) pairs in its rank order and the position
    just below agent i in them.  ``queue`` holds the agents whose top choice
    moved since the last fixed point.  Where queued agent i tops out at its
    j-th program, agents ranked below i lose every program i prefers to it;
    one that loses its top choice is queued in turn.  Returns the agents
    whose masks changed, or None as soon as one is empty.
    """
    touched = set()
    while queue:
        m = masks[i := queue.pop()]
        for pairs, below in ahead[i][:(m & -m).bit_length() - 1]:
            for x, bit in pairs[below:]:
                if masks[x] & bit:
                    masks[x] ^= bit
                    if not masks[x]:
                        return None
                    touched.add(x)
                    if bit < masks[x] & -masks[x]:  # it was x's top choice
                        queue.append(x)
    return touched


def solve_minsum_exact(
    instance: SmfqInstance,
    budget: int | None = None,
) -> SolveReport:
    """Optimal total spend by depth-first branch-and-bound over cost tuples.

    A node holds one list-position mask per agent, all ones at the root.
    Only agents with two or more cost levels are branched on, in instance
    order, levels ascending; the others keep their whole list.  A child ANDs
    the branching agent's mask with one level's mask and re-prunes from that
    agent if its top choice moved; an isolated agent cuts the child.  Its
    bound, the sum over all agents of the cheapest level left in their mask,
    is the parent's plus the change over the masks that changed, and it is
    exact at a leaf, where every agent takes its lowest set bit.  A level
    whose cost plus the other agents' cheapest levels already reaches the
    limit is skipped before its mask is copied: pruning only raises levels,
    so that child would be cut anyway.  When some agent branches, the limit
    starts one above the spend of the cheaper of :func:`approx_promote` and
    :func:`approx_restrict`; when none does, the root is the one leaf and
    there is no limit to start from, so neither runs.  Nodes whose bound
    reaches the limit are cut, and an accepted leaf lowers the limit to its
    spend.  Leaves are met in ascending lexicographic tuple order and must
    be strictly cheaper than the limit, so the first optimal tuple wins and
    the result is deterministic.  ``stats`` holds ``nodes`` (search nodes
    expanded, leaves included), the count the budget bounds: expanding one
    node more than the budget raises :class:`BudgetExceeded`.  ``leaves``
    counts the leaves checked for envy.
    """
    max_nodes, over_budget = node_budget(budget)
    agents = instance.agents
    pref, arank, prank, cost = instance.agent_pref, instance.arank, instance.prank, instance.cost
    # per agent, each cost level ascending with the mask of its list positions
    levels = []
    for a in agents:
        level_masks: dict[int, int] = {}
        for j, p in enumerate(pref[a]):
            level_masks[cost[p]] = level_masks.get(cost[p], 0) | 1 << j
        levels.append(sorted(level_masks.items()))
    # the branching agents, each with its levels descending: children are pushed in that
    # order, so they are popped in ascending order
    branch = [(i, lv[::-1]) for i, lv in enumerate(levels) if len(lv) > 1]
    if branch:
        index = {a: i for i, a in enumerate(agents)}
        pairs = {p: [(index[x], 1 << arank[x][p]) for x in lst]
                 for p, lst in instance.program_pref.items()}
        ahead = [[(pairs[p], prank[p][a] + 1) for p in pref[a]] for a in agents]
        limit = min(approx_promote(instance).objective, approx_restrict(instance).objective) + 1
    else:  # the root is the one leaf: nothing to prune, and nothing can be cut
        limit = float("inf")

    best: dict[str, str] | None = None
    nodes = leaves = 0
    # at the all-ones root every agent tops out at its first program, which prunes
    # nothing, so each agent's cheapest level is its lowest
    floor = [lv[0][0] for lv in levels]
    stack = [(0, [(1 << len(pref[a])) - 1 for a in agents], floor, sum(floor))]
    while stack:
        depth, masks, floor, lb = stack.pop()
        if lb >= limit:
            continue
        nodes += 1
        if nodes > max_nodes:
            raise over_budget
        if depth == len(branch):
            leaves += 1
            assignment = {a: pref[a][(m & -m).bit_length() - 1] for a, m in zip(agents, masks)}
            if not is_envy_free(instance, Matching(assignment)).ok:
                raise AssertionError("a surviving cost tuple yielded an envious matching")
            best, limit = assignment, lb
            continue
        i, lv = branch[depth]
        m = masks[i]
        top = m & -m
        rest = lb - floor[i]  # a child's bound is at least rest plus its level's cost
        for c, lm in lv:  # no leaf is met while a node's children are pushed: limit holds
            if not m & lm or rest + c >= limit:
                continue
            child = masks[:]
            child[i] = m & lm
            touched = () if child[i] & top else _prune(child, ahead, [i])  # re-prune if the top moved
            if touched is not None:
                low = floor[:]
                low[i] = c
                bound = rest + c
                for x in touched:  # each one's cheapest level, and its change to the bound
                    mx = child[x]
                    for cx, lmx in levels[x]:
                        if mx & lmx:
                            break
                    bound += cx - low[x]
                    low[x] = cx
                stack.append((depth + 1, child, low, bound))

    if best is None:
        raise AssertionError("no cost tuple survived the search")
    return SolveReport(Matching(best), limit, "minsum-exact", stats={"nodes": nodes, "leaves": leaves})
