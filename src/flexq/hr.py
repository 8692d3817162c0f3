"""Deferred acceptance for markets with rigid quotas.

Agents propose down their lists; a full program keeps its best tentative
roster and bounces the rest.  The outcome is the agent-optimal stable
matching, and it does not depend on the order in which free agents propose.

Each program holds its tentative roster in a max-heap keyed by its own rank
of the agent, so the worst held agent is on top and a trade costs
O(log q).  A run over preference lists of total length L takes
O(L log q) time, where q is the largest quota.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush, heapreplace

from .model import HrInstance, Matching, SmfqInstance


def gale_shapley_a_optimal(instance: SmfqInstance, quota: dict[str, int] | None = None) -> Matching:
    """Run agent-proposing deferred acceptance.

    ``quota`` maps programs to seats and defaults to ``instance.quota``
    (an :class:`HrInstance`).  A program missing from the map, or given no
    seats, takes nobody: proposals to it are skipped, exactly as if it were
    cut from the market together with its edges.  This lets one cost
    market serve every threshold of the max-spend search without a copy.

    Agents propose in instance order; the returned matching is the same for
    every declared order.  Agents whose lists run out stay unmatched.
    """
    if quota is None:
        quota = instance.quota
    pref = instance.agent_pref
    prank = instance.prank
    # program -> (tentative roster, seats, ranks); the roster is a heap of
    # (-rank, agent), so the worst tentative agent sits on top
    slots = {p: ([], quota[p], prank[p]) for p in instance.programs if quota.get(p, 0) >= 1}

    nxt = dict.fromkeys(instance.agents, 0)
    match: dict[str, str] = {}
    free = deque(instance.agents)

    while free:
        a = free.popleft()
        lst = pref[a]
        i = nxt[a]
        while i < len(lst):
            p = lst[i]
            i += 1
            slot = slots.get(p)
            if slot is None:
                continue  # p has no seats
            heap, seats, ranks = slot
            r = ranks[a]
            if len(heap) < seats:
                heappush(heap, (-r, a))
                match[a] = p
                break
            if r < -heap[0][0]:
                # p trades its worst tentative agent for the proposer
                w = heapreplace(heap, (-r, a))[1]
                del match[w]
                free.append(w)
                match[a] = p
                break
        nxt[a] = i
        # list exhausted: a stays unmatched

    return Matching({a: match[a] for a in instance.agents if a in match})


def unmatched_agents(instance: HrInstance, matching: Matching) -> list[str]:
    """Agents without an assignment, in instance order.

    For stable matchings this set is an invariant of the instance: every
    stable matching leaves exactly the same agents unmatched.
    """
    return [a for a in instance.agents if a not in matching.assignment]
