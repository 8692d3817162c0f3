"""Deferred acceptance for markets with rigid quotas.

Agents propose down their lists; a full program keeps its best tentative
roster and bounces the rest.  The outcome is the agent-optimal stable
matching, and it does not depend on the order in which free agents propose.

Each program holds its tentative roster as a max-heap of its own ranks of
the held agents, negated ints that its preference list maps back to
agents, so the worst held agent is on top and a trade costs O(log q) int
comparisons and builds no object.  A run over preference lists of total
length L takes O(L log q) time, where q is the largest quota.

A finished run can be carried on to smaller quotas
(:func:`resume_with_fewer_seats`): each roster is cut to its new seats and
the evicted agents propose on from where they stopped.  That reaches the
outcome of a fresh run under the smaller quotas.  Every rejection made under
the larger quotas is one the program makes under the smaller ones too, and
the outcome does not depend on the order of proposals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace

from .model import HrInstance, Matching, SmfqInstance


@dataclass
class DaState:
    """Where a deferred-acceptance run stands.

    ``slots`` maps each program with seats to ``(roster heap, seats, rank
    table, preference list)``; the heap holds ``-rank`` for each held agent,
    so the worst tentative agent sits on top, and the agent at rank r is
    entry r of the list.  ``nxt`` maps each agent to the index of its next
    proposal, and ``proposals`` is their sum.  The rosters are the one
    record of who holds whom; :meth:`matching` reads the matching off them.
    """

    slots: dict[str, tuple[list[int], int, dict[str, int], list[str]]]
    nxt: dict[str, int]
    proposals: int = 0

    def matching(self, instance: SmfqInstance) -> Matching:
        held = {lst[-r]: p for p, (heap, _, _, lst) in self.slots.items() for r in heap}
        return Matching({a: held[a] for a in instance.agents if a in held})


def gale_shapley_a_optimal(instance: SmfqInstance, quota: dict[str, int] | None = None) -> Matching:
    """Run agent-proposing deferred acceptance.

    ``quota`` maps programs to seats and defaults to ``instance.quota``
    (an :class:`HrInstance`).  A program missing from the map, or given no
    seats, takes nobody: proposals to it are skipped, exactly as if it were
    cut from the market together with its edges.  Only ``feasible_at``
    passes a map; ``solve_minmax`` resumes ``deferred_acceptance_state``.

    Agents propose in instance order; the returned matching is the same for
    every declared order.  Agents whose lists run out stay unmatched.
    """
    if quota is None:
        quota = instance.quota
    return deferred_acceptance_state(instance, quota).matching(instance)


def deferred_acceptance_state(instance: SmfqInstance, quota: dict[str, int]) -> DaState:
    """Run deferred acceptance from scratch under the seat map ``quota`` and
    return its final state, which :func:`resume_with_fewer_seats` can carry on."""
    prank, ppref = instance.prank, instance.program_pref
    state = DaState({p: ([], quota[p], prank[p], ppref[p])
                     for p in instance.programs if quota.get(p, 0) >= 1},
                    dict.fromkeys(instance.agents, 0))
    free = deque(instance.agents)
    while _propose(instance.agent_pref, state, free) is not None:
        pass  # that agent's list ran out: it stays unmatched
    return state


def resume_with_fewer_seats(instance: SmfqInstance, state: DaState,
                            quota: dict[str, int]) -> tuple[DaState, str | None]:
    """Carry a finished run on to a seat map that gives no program more seats.

    Works on a copy and leaves ``state`` as it was.  Each roster is cut to
    its new seats by evicting its worst held agents (all of them where a
    program is left out of ``quota``), and the evicted agents propose on.
    Returns the new state and None when everyone evicted found a place
    again; otherwise stops at the first agent whose list runs out and
    returns that agent with a partial state.
    """
    slots = {}
    free: deque[str] = deque()
    for p, (heap, _, ranks, lst) in state.slots.items():
        seats = quota.get(p, 0)
        if seats == 0:  # left out: everyone it holds leaves
            free.extend(lst[-r] for r in heap)
            continue
        heap = heap[:]
        while len(heap) > seats:
            free.append(lst[-heappop(heap)])
        slots[p] = (heap, seats, ranks, lst)
    out = DaState(slots, dict(state.nxt), state.proposals)
    return out, _propose(instance.agent_pref, out, free)


def _propose(pref: dict[str, list[str]], state: DaState, free: deque[str]) -> str | None:
    """Let the free agents propose on from ``state.nxt`` until nobody is free.

    This is the package's one proposal loop.  An acceptance pushes the
    proposer's rank onto the program's roster heap and an eviction sends the
    agent at the rank popped off its top back to ``free``; nothing else is
    updated.  Returns None once ``free`` is empty.  If an agent's list runs out first, the run
    stops and returns that agent, now unmatched and out of ``free``; a
    further call carries on with the rest.  Every list entry an agent passes
    advances its ``nxt`` and ``state.proposals``, including entries skipped
    because the program has no seats.
    """
    slots, nxt = state.slots, state.nxt
    while free:
        a = free.popleft()
        lst = pref[a]
        i = start = nxt[a]
        while i < len(lst):
            p = lst[i]
            i += 1
            slot = slots.get(p)
            if slot is None:
                continue  # p has no seats
            heap, seats, ranks, by_rank = slot
            r = ranks[a]
            if len(heap) < seats:
                heappush(heap, -r)
                break
            if r < -heap[0]:
                # p trades its worst tentative agent for the proposer
                free.append(by_rank[-heapreplace(heap, -r)])
                break
        else:
            nxt[a] = i
            state.proposals += i - start
            return a
        nxt[a] = i
        state.proposals += i - start
    return None


def unmatched_agents(instance: HrInstance, matching: Matching) -> list[str]:
    """Agents without an assignment, in instance order.

    For stable matchings this set is an invariant of the instance: every
    stable matching leaves exactly the same agents unmatched.
    """
    return [a for a in instance.agents if a not in matching.assignment]
