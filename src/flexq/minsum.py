"""Exact minimization of total spend by branch-and-bound over cost levels.

Fix, for every agent, the cost of the program it will end up at.  For one
such cost tuple, keep only the edges matching each agent's chosen cost level
and prune away edges that would create envy; if nobody loses their whole
list, matching every agent to its best surviving program is stable.  The
cheapest surviving tuple is the global optimum.

A search node is one int per agent, a mask over positions on the agent's
own list (bit j set while its j-th program is still available), and the
search fixes one agent's level per step, depth first.  Pruning is monotone
(fixing a level only removes edges), so a partial choice that isolates an
agent isolates every completion, and its subtree is cut.  The number of
tuples is the product of per-agent distinct cost counts, so a budget guard
refuses oversized inputs unless forced; the search itself visits far fewer.
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


def _prune(masks: list[int], ahead: list[list[tuple[list[tuple[int, int]], int]]]) -> int | None:
    """Envy pruning to a fixed point, clearing bits of ``masks`` in place.

    ``ahead[i][j]`` holds, for the j-th program on agent i's list, that
    program's (agent index, bit) pairs in its rank order and the position
    just below agent i in them.  Sweep the agents in instance order: where
    agent i tops out at its j-th program, no agent ranked below i may sit at
    any program i prefers to that one, so those bits go.  Deletions are
    applied eagerly; the sweep repeats until stable.  Returns the index of
    the first agent left with an empty mask, or None if all survive.
    """
    changed = True
    while changed:
        changed = False
        for i, m in enumerate(masks):
            if m & 1:  # at its top choice: it prefers no program to this one
                continue
            if not m:
                return i
            for pairs, below in ahead[i][:(m & -m).bit_length() - 1]:
                for x, bit in pairs[below:]:
                    if masks[x] & bit:
                        masks[x] ^= bit
                        changed = True
                        if not masks[x]:
                            return x
    return None


def solve_minsum_exact(
    instance: SmfqInstance,
    budget: int | None = None,
    force: bool = False,
) -> SolveReport:
    """Optimal total spend by depth-first branch-and-bound over cost tuples.

    A node holds one list-position mask per agent, all ones at the root.
    Only agents with two or more cost levels are branched on, in instance
    order, levels ascending; the others keep their whole list.  A child ANDs
    the branching agent's mask with one level's mask and runs envy pruning
    on the result; an isolated agent cuts it.  Its bound is the sum over all
    agents of the cheapest level left in their mask, which is exact at a
    leaf, where every agent takes its lowest set bit.  The limit starts one
    above the spend of the cheaper of :func:`approx_promote` and
    :func:`approx_restrict`; nodes whose bound reaches the limit are cut, and
    an accepted leaf lowers the limit to its spend.  Leaves are met in
    ascending lexicographic tuple order and must be strictly cheaper than
    the limit, so the first optimal tuple wins and the result is
    deterministic.  Raises :class:`BudgetExceeded` when the tuple count tops
    the budget, unless ``force`` is set.  ``stats`` holds ``tuples`` (the
    product), ``nodes`` (search nodes expanded, leaves included) and
    ``leaves`` (leaves checked for envy).
    """
    cost_sets = distinct_costs_per_agent(instance)
    tuples = math.prod(len(s) for s in cost_sets)
    check_budget(tuples, budget, force, "cost tuples")

    agents = instance.agents
    pref = instance.agent_pref
    index = {a: i for i, a in enumerate(agents)}
    pairs = {p: [(index[x], 1 << instance.arank[x][p]) for x in lst]
             for p, lst in instance.program_pref.items()}
    ahead = [[(pairs[p], instance.prank[p][a] + 1) for p in pref[a]] for a in agents]
    # per agent, each cost level ascending with the mask of its list positions
    levels = []
    for a, costs in zip(agents, cost_sets):
        level_masks = dict.fromkeys(costs, 0)
        for j, p in enumerate(pref[a]):
            level_masks[instance.cost[p]] |= 1 << j
        levels.append(list(level_masks.items()))
    branch = [(i, lv) for i, lv in enumerate(levels) if len(lv) > 1]

    def bound(masks: list[int]) -> int:
        return sum(next(c for c, lm in lv if m & lm) for m, lv in zip(masks, levels))

    limit = min(approx_promote(instance).objective, approx_restrict(instance).objective) + 1
    best: dict[str, str] | None = None
    nodes = leaves = 0
    root = [(1 << len(pref[a])) - 1 for a in agents]
    stack = [] if _prune(root, ahead) is not None else [(0, root, bound(root))]
    while stack:
        depth, masks, lb = stack.pop()
        if lb >= limit:
            continue
        nodes += 1
        if depth == len(branch):
            leaves += 1
            assignment = {a: pref[a][(m & -m).bit_length() - 1] for a, m in zip(agents, masks)}
            if not is_envy_free(instance, Matching(assignment)).ok:
                raise AssertionError("a surviving cost tuple yielded an envious matching")
            best, limit = assignment, lb
            continue
        i, lv = branch[depth]
        for _, lm in reversed(lv):  # popped in ascending order
            child = masks[:]
            child[i] &= lm
            if _prune(child, ahead) is None:
                stack.append((depth + 1, child, bound(child)))

    if best is None:
        raise AssertionError("no cost tuple beats the approximations' spend")
    return SolveReport(Matching(best), limit, "total_cost", "minsum-exact", certified_optimal=True,
                       stats={"tuples": tuples, "nodes": nodes, "leaves": leaves})
