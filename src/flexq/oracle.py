"""Brute-force reference solvers.

These enumerate candidate assignments outright and keep only the stable
ones.  They are the ground truth the clever solvers are tested against, so
they stay deliberately independent of the solver code paths: all they share
with the solvers is the instance accessors.

One function, :func:`_best`, checks the budget, walks every envy-free
assignment depth-first and scores each full one as the walk reaches it.

The walk prunes on envy already created by a partial assignment.  That is
sound because an envy pair never goes away as more agents are placed: the
envied roster only grows and the envious agent's assignment is already
fixed.  Each test reads one running extreme per program: the worst rank
placed there, or the best rank of a placed agent who prefers it.  Both are
stacks pushed on placement, popped on backtrack; the spend moves with them.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable

from .budget import check_budget
from .model import Matching, SmfqInstance, SolveReport


def _best(instance: SmfqInstance, fold: Callable[[Iterable[int]], int],
          kind: str, method: str, budget: int | None, force: bool) -> SolveReport:
    """The first full stable assignment whose program spends ``fold`` smallest.

    Checks the budget on the full assignment product before any work, walks
    agents in instance order, each over its list in preference order, and
    scores every full assignment inline as ``fold`` of a per-program spend
    kept up to date on each move.  Only a strict improvement is copied, so
    the lexicographically first optimum wins.
    """
    agents = instance.agents
    n = len(agents)
    check_budget(math.prod(len(instance.agent_pref[a]) for a in agents), budget, force, "assignments")
    # depth-first with an explicit stack, so deep markets cannot exhaust the
    # recursion limit.  choices[i]: agent i's (program, its rank of i, the
    # pairs above it); cands[i] iterates what is left, watched[i] the pairs
    # i envies; members and enviers stack running maxima and minima of ranks
    choices = []
    for a in agents:
        pairs = [(p, instance.prank[p][a]) for p in instance.agent_pref[a]]
        choices.append([(p, rp, pairs[:k]) for k, (p, rp) in enumerate(pairs)])
    assignment: dict[str, str] = {}
    members: dict[str, list[int]] = {p: [] for p in instance.programs}
    enviers: dict[str, list[int]] = {p: [] for p in instance.programs}
    spend = dict.fromkeys(instance.programs, 0)
    cands = [iter(c) for c in choices]
    watched: list[list[tuple[str, int]]] = [[] for _ in range(n)]
    best, best_cost = None, 0
    nodes = leaves = 0
    i = 0
    while i >= 0:
        if i == n:
            leaves += 1
            c = fold(spend.values())
            if best is None or c < best_cost:
                best, best_cost = Matching(dict(assignment)), c
            i -= 1
            continue
        a = agents[i]
        p = assignment.pop(a, None)
        if p is not None:  # back from the subtree below a's last placement
            members[p].pop()
            spend[p] -= instance.cost[p]
            for q, _ in watched[i]:
                enviers[q].pop()
        for p, rp, above in cands[i]:
            env = enviers[p]
            # someone already placed prefers p and outranks a there
            if env and env[-1] < rp:
                continue
            for q, rq in above:
                mq = members[q]
                if mq and mq[-1] > rq:
                    break  # a would envy a worse agent already at q
            else:
                nodes += 1
                assignment[a] = p
                members[p].append(members[p][-1] if members[p] and members[p][-1] > rp else rp)
                spend[p] += instance.cost[p]
                for q, rq in above:
                    enviers[q].append(enviers[q][-1] if enviers[q] and enviers[q][-1] < rq else rq)
                watched[i] = above
                i += 1
                if i < n:
                    cands[i] = iter(choices[i])
                break
        else:
            i -= 1
    if best is None:
        raise AssertionError("a validated instance always admits the top-choice matching")
    return SolveReport(best, best_cost, kind, method, certified_optimal=True,
                       stats={"nodes": nodes, "leaves": leaves})


def oracle_minsum(instance: SmfqInstance, budget: int | None = None, force: bool = False) -> SolveReport:
    """Minimum total spend over all full stable assignments, by enumeration."""
    return _best(instance, sum, "total_cost", "oracle-minsum", budget, force)


def oracle_minmax(instance: SmfqInstance, budget: int | None = None, force: bool = False) -> SolveReport:
    """Minimum max spend over all full stable assignments, by enumeration."""
    return _best(instance, partial(max, default=0), "max_cost", "oracle-minmax", budget, force)
