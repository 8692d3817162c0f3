"""Brute-force reference solvers.

These enumerate candidate assignments outright and keep only the stable
ones.  They are the ground truth the clever solvers are tested against, so
they stay deliberately independent of the solver code paths: all they share
with the solvers is the instance accessors.

One function, :func:`oracle_optima`, walks every envy-free assignment
depth-first once, within the budget, scoring each full one for total and
for largest spend.  Each seat (an agent at one program on its list) has a
bit and a precomputed conflict mask: the seats of other agents that would be
in envy with it.  Envy is a relation between two placed agents, and a placed
agent's seat never changes as more agents are placed, so one AND of the
candidate's mask with the placed seats' bits is the whole envy test, and
pruning on it is sound.  The placed bits, per-program counts and running
spends are undone on backtrack, so a full assignment is scored in O(1).
"""

from __future__ import annotations

from .budget import node_budget
from .model import Matching, SmfqInstance, SolveReport


def oracle_optima(instance: SmfqInstance,
                  budget: int | None = None) -> tuple[SolveReport, SolveReport]:
    """The first full stable assignments of least total and of least largest
    spend, as the (minsum, minmax) reports of one walk.

    Walks agents in instance order, each over its list in preference order.
    Only a strict improvement is copied, so the first optimum of each wins.
    The budget counts the ``nodes`` stat: every candidate that passes the
    envy test, the last agent's (scored without being placed) included; one
    more raises :class:`BudgetExceeded`.  ``leaves`` counts the full
    assignments scored.
    """
    max_nodes, over_budget = node_budget(budget)
    agents, pref, arank = instance.agents, instance.agent_pref, instance.arank
    # agent a's k-th seat is bit base[a] + k.  For seat (a, p), a running OR
    # down p's list gives over: the seats of agents ranked above a at p that
    # they like less than p (from there they would envy a).  One up gives
    # under: the p-seats of agents ranked below a, whom a envies from any seat
    # it likes less than p.  Under is kept only for a seat with later seats on
    # its agent's list (they read it), and a mask is only ever tested against
    # agents placed before its own agent, so the OR up takes a seat only when
    # its bit lies below the base of some such agent above it on p's list
    base, nbits = {}, 0
    for a in agents:
        base[a], nbits = nbits, nbits + len(pref[a])
    over, under = [0] * nbits, [0] * nbits
    for p, roster in instance.program_pref.items():
        run = cap = 0
        caps = []  # per roster entry: the largest base of such an agent above it
        for b in roster:
            s, end = base[b] + arank[b][p], base[b] + len(pref[b])
            over[s] = run
            caps.append(cap)
            if s + 1 < end:
                run |= (1 << end) - (1 << s + 1)
                cap = max(cap, base[b])
        run = 0
        for b, cap in zip(reversed(roster), reversed(caps)):
            s = base[b] + arank[b][p]
            if s + 1 < base[b] + len(pref[b]):
                under[s] = run
            if s < cap:
                run |= 1 << s
    # choices[i]: agent i's (program, its index, cost, seat, over | the unders of the
    # seats above it); an OR that would add nothing keeps the one object
    index = {p: j for j, p in enumerate(instance.programs)}
    choices = []
    for a in agents:
        row, seen = [], 0
        for s, p in enumerate(pref[a], base[a]):
            c, u = over[s], under[s]
            row.append((p, index[p], instance.cost[p], s, seen | c if seen and c else seen or c))
            seen = seen | u if seen and u else seen or u
        choices.append(row)
    cands = [iter(c) for c in choices]
    count = [0] * len(index)  # agents placed at each program
    placed, tops = [], []  # agents 0..i-1's choices; the largest spend before each
    mask = total = top = nodes = sum_best = max_best = 0  # mask: the placed agents' seat bits
    leaves, sum_at, max_at = (0, None, None) if agents else (1, [], [])  # the root is a leaf
    i, last = (0 if agents else -1), len(agents) - 1
    while i >= 0:  # depth-first with explicit stacks, so no market is too deep
        for ch in cands[i]:
            if ch[4] & mask:
                continue  # in envy with an agent already placed
            nodes += 1
            if nodes > max_nodes:
                raise over_budget
            _, j, c, s, _ = ch
            if i == last:  # a full assignment: score it without placing i
                leaves += 1
                if sum_at is None or total + c < sum_best:
                    sum_best, sum_at = total + c, placed + [ch]
                x = c * (count[j] + 1)
                x = top if x < top else x
                if max_at is None or x < max_best:
                    max_best, max_at = x, placed + [ch]
                continue
            mask |= 1 << s
            count[j] += 1
            placed.append(ch)
            total += c
            tops.append(top)
            x = c * count[j]
            top = x if x > top else top
            i += 1
            cands[i] = iter(choices[i])
            break
        else:  # agent i has no choice left: take back agent i-1's
            i -= 1
            if placed:
                _, j, c, s, _ = placed.pop()
                mask ^= 1 << s
                count[j] -= 1
                total -= c
                top = tops.pop()
    if sum_at is None:
        raise AssertionError("a validated instance always admits the top-choice matching")
    stats = {"nodes": nodes, "leaves": leaves}
    return tuple(SolveReport(Matching(dict(zip(agents, [ch[0] for ch in at]))), best, method,
                             stats=dict(stats))
                 for at, best, method in ((sum_at, sum_best, "oracle-minsum"),
                                          (max_at, max_best, "oracle-minmax")))


def oracle_minsum(instance: SmfqInstance, budget: int | None = None) -> SolveReport:
    """Minimum total spend over all full stable assignments, by enumeration."""
    return oracle_optima(instance, budget)[0]


def oracle_minmax(instance: SmfqInstance, budget: int | None = None) -> SolveReport:
    """Minimum max spend over all full stable assignments, by enumeration."""
    return oracle_optima(instance, budget)[1]
