"""Brute-force reference solvers.

These enumerate candidate assignments outright and keep only the stable
ones.  They are the ground truth the clever solvers are tested against, so
they stay deliberately independent of the solver code paths: all they share
with the solvers is the instance accessors.

One function, :func:`oracle_optima`, checks the budget and walks every
envy-free assignment depth-first once, scoring each full one for total and
for largest spend.  The walk prunes on envy already created by a partial
assignment, which is sound because an envy pair never goes away as more
agents are placed: the envied roster only grows and the envious agent's
assignment is already fixed.  Each test reads one running extreme per
program (the worst rank placed there, or the best rank of a placed agent who
prefers it).  These and the running spends are stacks pushed on placement
and popped on backtrack, so a full assignment is scored in O(1).
"""

from __future__ import annotations

import math

from .budget import check_budget
from .model import Matching, SmfqInstance, SolveReport


def oracle_optima(instance: SmfqInstance, budget: int | None = None,
                  force: bool = False) -> tuple[SolveReport, SolveReport]:
    """The first full stable assignments of least total and of least largest
    spend, as the (minsum, minmax) reports of one walk.

    Checks the budget on the full assignment product before any work, then
    walks agents in instance order, each over its list in preference order.
    Only a strict improvement is copied, so the first optimum of each wins.
    """
    agents = instance.agents
    n = len(agents)
    check_budget(math.prod(len(instance.agent_pref[a]) for a in agents), budget, force, "assignments")
    # depth-first with an explicit stack, so deep markets cannot exhaust the
    # recursion limit.  choices[i]: agent i's (program, its rank of i, cost,
    # members and enviers there, and (members, enviers, rank of i) of each
    # program above it), so the walk looks nothing up by program id
    members, enviers = {p: [] for p in instance.programs}, {p: [] for p in instance.programs}
    choices = []
    for a in agents:
        pairs = [(p, instance.prank[p][a]) for p in instance.agent_pref[a]]
        choices.append([(p, rp, instance.cost[p], members[p], enviers[p],
                         [(members[q], enviers[q], rq) for q, rq in pairs[:k]])
                        for k, (p, rp) in enumerate(pairs)])
    cands = [iter(c) for c in choices]
    placed, total, top = [], [0], [0]  # agents 0..i-1's choices; the spends after each
    nodes = sum_best = max_best = 0
    leaves, sum_at, max_at = (0, None, None) if n else (1, [], [])  # the root is a leaf
    i, last = (0 if n else -1), n - 1
    while i >= 0:
        if len(placed) > i:  # back from the subtree below agent i's placement
            _, _, _, mem, _, above = placed.pop()
            mem.pop()
            for _, eq, _ in above:
                eq.pop()
            del total[-1], top[-1]
        for ch in cands[i]:
            _, rp, c, mem, env, above = ch
            # someone already placed prefers this program and outranks i there
            if env and env[-1] < rp:
                continue
            for mq, _, rq in above:
                if mq and mq[-1] > rq:
                    break  # i would envy a worse agent already placed above
            else:
                if i == last:  # a full assignment: score it without placing i
                    leaves += 1
                    if sum_at is None or total[-1] + c < sum_best:
                        sum_best, sum_at = total[-1] + c, placed + [ch]
                    x = c * (len(mem) + 1)
                    if x < top[-1]:
                        x = top[-1]
                    if max_at is None or x < max_best:
                        max_best, max_at = x, placed + [ch]
                    continue
                nodes += 1
                mem.append(mem[-1] if mem and mem[-1] > rp else rp)
                for _, eq, rq in above:
                    eq.append(eq[-1] if eq and eq[-1] < rq else rq)
                placed.append(ch)
                total.append(total[-1] + c)
                x = c * len(mem)
                top.append(x if x > top[-1] else top[-1])
                i += 1
                cands[i] = iter(choices[i])
                break
        else:
            i -= 1
    if sum_at is None:
        raise AssertionError("a validated instance always admits the top-choice matching")
    stats = {"nodes": nodes + leaves if n else 0, "leaves": leaves}
    return tuple(SolveReport(Matching(dict(zip(agents, [ch[0] for ch in at]))), best, method,
                             certified_optimal=True, stats=dict(stats))
                 for at, best, method in ((sum_at, sum_best, "oracle-minsum"),
                                          (max_at, max_best, "oracle-minmax")))


def oracle_minsum(instance: SmfqInstance, budget: int | None = None, force: bool = False) -> SolveReport:
    """Minimum total spend over all full stable assignments, by enumeration."""
    return oracle_optima(instance, budget, force)[0]


def oracle_minmax(instance: SmfqInstance, budget: int | None = None, force: bool = False) -> SolveReport:
    """Minimum max spend over all full stable assignments, by enumeration."""
    return oracle_optima(instance, budget, force)[1]
