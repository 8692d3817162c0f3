"""Brute-force reference solvers.

These enumerate candidate assignments outright and keep only the stable
ones.  They are the ground truth the clever solvers are tested against, so
they stay deliberately independent of the solver code paths: all they share
with the solvers is the instance accessors.

The search prunes on envy already created by a partial assignment.  That is
sound because an envy pair never goes away as more agents are placed: the
envied roster only grows and the envious agent's assignment is already
fixed.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

from .budget import check_budget
from .model import Matching, SmfqInstance, SolveReport, max_cost, total_cost


def enumerate_a_perfect_stable(
    instance: SmfqInstance, budget: int | None = None, force: bool = False
) -> Iterator[Matching]:
    """Yield every full envy-free assignment, in lexicographic order.

    Agents are placed in instance order and each agent's candidates run in
    its preference order.  Raises :class:`BudgetExceeded` upfront when the
    full assignment space tops the budget, unless forced.
    """
    space = math.prod(len(instance.agent_pref[a]) for a in instance.agents)
    check_budget(space, budget, force, "assignments")
    return _stable_assignments(instance)


def _stable_assignments(instance: SmfqInstance) -> Iterator[Matching]:
    # depth-first over agents with an explicit stack, so deep markets cannot
    # exhaust the interpreter's recursion limit; cands[i] iterates agent i's
    # remaining candidates, watched[i] holds the rosters agent i envies into
    agents = instance.agents
    n = len(agents)
    pref = instance.agent_pref
    arank, prank = instance.arank, instance.prank
    assignment: dict[str, str] = {}
    members: dict[str, list[int]] = {p: [] for p in instance.programs}
    enviers: dict[str, list[int]] = {p: [] for p in instance.programs}
    cands: list[Iterator[str] | None] = [None] * n
    watched: list[list[tuple[str, int]]] = [[] for _ in range(n)]
    if n:
        cands[0] = iter(pref[agents[0]])
    i = 0
    while i >= 0:
        if i == n:
            yield Matching(dict(assignment))
            i -= 1
            continue
        a = agents[i]
        p = assignment.pop(a, None)
        if p is not None:  # back from the subtree below a's last placement
            members[p].pop()
            for q, _ in watched[i]:
                enviers[q].pop()
        lst = pref[a]
        for p in cands[i]:
            rp = prank[p][a]
            env = enviers[p]
            # someone already placed prefers p and outranks a there
            if env and min(env) < rp:
                continue
            w: list[tuple[str, int]] = []
            ok = True
            for q in lst[: arank[a][p]]:
                rq = prank[q][a]
                mq = members[q]
                if mq and max(mq) > rq:
                    ok = False  # a would envy a worse agent already at q
                    break
                w.append((q, rq))
            if not ok:
                continue
            assignment[a] = p
            members[p].append(rp)
            for q, rq in w:
                enviers[q].append(rq)
            watched[i] = w
            i += 1
            if i < n:
                cands[i] = iter(pref[agents[i]])
            break
        else:
            i -= 1


def _best(instance: SmfqInstance, score: Callable[[SmfqInstance, Matching], int],
          kind: str, method: str, budget: int | None, force: bool) -> SolveReport:
    """The first full stable assignment with the smallest ``score``."""
    best: Matching | None = None
    best_cost = 0
    for m in enumerate_a_perfect_stable(instance, budget=budget, force=force):
        c = score(instance, m)
        if best is None or c < best_cost:
            best, best_cost = m, c
    if best is None:
        raise AssertionError("a validated instance always admits the top-choice matching")
    return SolveReport(best, best_cost, kind, method, certified_optimal=True)


def oracle_minsum(instance: SmfqInstance, budget: int | None = None, force: bool = False) -> SolveReport:
    """Minimum total spend over all full stable assignments, by enumeration."""
    return _best(instance, total_cost, "total_cost", "oracle-minsum", budget, force)


def oracle_minmax(instance: SmfqInstance, budget: int | None = None, force: bool = False) -> SolveReport:
    """Minimum max spend over all full stable assignments, by enumeration."""
    return _best(instance, max_cost, "max_cost", "oracle-minmax", budget, force)

