"""Brute-force reference solvers.

These enumerate candidate assignments outright and keep only the stable
ones.  They are the ground truth the clever solvers are tested against, so
they stay deliberately independent of the solver code paths: all they share
with the solvers is the instance accessors.

The search prunes on envy already created by a partial assignment.  That is
sound because an envy pair never goes away as more agents are placed: the
envied roster only grows and the envious agent's assignment is already
fixed.

Each full assignment is scored from the walk's own rosters (cost times
roster size, summed or maximised over programs) and copied out only when it
strictly beats the best so far, so the lexicographically first optimum wins.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Iterable, Iterator

from .budget import check_budget
from .model import Matching, SmfqInstance, SolveReport


def enumerate_a_perfect_stable(
    instance: SmfqInstance, budget: int | None = None, force: bool = False
) -> Iterator[Matching]:
    """Yield every full envy-free assignment, in lexicographic order.

    Agents are placed in instance order and each agent's candidates run in
    its preference order.  Raises :class:`BudgetExceeded` upfront when the
    full assignment space tops the budget, unless forced.
    """
    return (Matching(dict(assignment)) for assignment, _ in _checked_walk(instance, budget, force, {}))


def _checked_walk(instance: SmfqInstance, budget: int | None, force: bool, stats: dict) -> Iterator:
    space = math.prod(len(instance.agent_pref[a]) for a in instance.agents)
    check_budget(space, budget, force, "assignments")
    return _walk(instance, stats)


def _walk(instance: SmfqInstance, stats: dict[str, int]) -> Iterator[tuple[dict, dict]]:
    # depth-first with an explicit stack, so deep markets cannot exhaust the
    # recursion limit; yields the live assignment and rosters (members' ranks)
    # at each leaf.  choices[i]: agent i's (program, its rank of i, the pairs
    # above it); cands[i] iterates what is left, watched[i] the pairs i envies
    agents = instance.agents
    n = len(agents)
    choices = []
    for a in agents:
        pairs = [(p, instance.prank[p][a]) for p in instance.agent_pref[a]]
        choices.append([(p, rp, pairs[:k]) for k, (p, rp) in enumerate(pairs)])
    assignment: dict[str, str] = {}
    members: dict[str, list[int]] = {p: [] for p in instance.programs}
    enviers: dict[str, list[int]] = {p: [] for p in instance.programs}
    cands = [iter(c) for c in choices]
    watched: list[list[tuple[str, int]]] = [[] for _ in range(n)]
    nodes = leaves = 0
    i = 0
    while i >= 0:
        if i == n:
            leaves += 1
            yield assignment, members
            i -= 1
            continue
        a = agents[i]
        p = assignment.pop(a, None)
        if p is not None:  # back from the subtree below a's last placement
            members[p].pop()
            for q, _ in watched[i]:
                enviers[q].pop()
        for p, rp, above in cands[i]:
            env = enviers[p]
            # someone already placed prefers p and outranks a there
            if env and min(env) < rp:
                continue
            for q, rq in above:
                mq = members[q]
                if mq and max(mq) > rq:
                    break  # a would envy a worse agent already at q
            else:
                nodes += 1
                assignment[a] = p
                members[p].append(rp)
                for q, rq in above:
                    enviers[q].append(rq)
                watched[i] = above
                i += 1
                if i < n:
                    cands[i] = iter(choices[i])
                break
        else:
            i -= 1
    stats.update(nodes=nodes, leaves=leaves)


def _best(instance: SmfqInstance, fold: Callable[[Iterable[int]], int],
          kind: str, method: str, budget: int | None, force: bool) -> SolveReport:
    """The first full stable assignment whose program spends ``fold`` smallest."""
    stats: dict[str, int] = {}
    best, best_cost = None, 0
    for assignment, members in _checked_walk(instance, budget, force, stats):
        c = fold(instance.cost[p] * len(m) for p, m in members.items())
        if best is None or c < best_cost:
            best, best_cost = Matching(dict(assignment)), c
    if best is None:
        raise AssertionError("a validated instance always admits the top-choice matching")
    return SolveReport(best, best_cost, kind, method, certified_optimal=True, stats=stats)


def oracle_minsum(instance: SmfqInstance, budget: int | None = None, force: bool = False) -> SolveReport:
    """Minimum total spend over all full stable assignments, by enumeration."""
    return _best(instance, sum, "total_cost", "oracle-minsum", budget, force)


def oracle_minmax(instance: SmfqInstance, budget: int | None = None, force: bool = False) -> SolveReport:
    """Minimum max spend over all full stable assignments, by enumeration."""
    return _best(instance, partial(max, default=0), "max_cost", "oracle-minmax", budget, force)
