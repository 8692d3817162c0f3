"""Shared test utilities.

Everything here is written independently of the package internals — naive
list scans and brute-force enumeration only — so agreement between these
helpers and the library is meaningful evidence, not circularity.
"""

from __future__ import annotations

import itertools
import random

from flexq import HrInstance, Matching, SmfqInstance, distinct_costs_per_agent


# ---------------------------------------------------------------------------
# fixed markets


def unextendable_market() -> HrInstance:
    """a2 sits below the barrier on the only program it lists."""
    return HrInstance(
        agents=["a0", "a1", "a2"],
        programs=["p1", "p2"],
        agent_pref={"a0": ["p2"], "a1": ["p2", "p1"], "a2": ["p2"]},
        program_pref={"p1": ["a1"], "p2": ["a0", "a1", "a2"]},
        cost={"p1": 0, "p2": 0},
        quota={"p1": 1, "p2": 1},
    )


# ---------------------------------------------------------------------------
# naive preference and stability predicates


def prefers(instance: SmfqInstance, agent: str, p: str, q: str | None) -> bool:
    """True when ``agent`` ranks ``p`` strictly above ``q`` (``q=None``: any listed p)."""
    lst = instance.agent_pref[agent]
    if p not in lst:
        return False
    return q is None or lst.index(p) < lst.index(q)


def program_prefers(instance: SmfqInstance, program: str, a: str, b: str) -> bool:
    lst = instance.program_pref[program]
    return lst.index(a) < lst.index(b)


def envy_free_naive(instance: SmfqInstance, assignment: dict[str, str]) -> bool:
    """No agent prefers a program holding someone that program likes less."""
    rosters: dict[str, list[str]] = {}
    for a, p in assignment.items():
        rosters.setdefault(p, []).append(a)
    for a in instance.agents:
        cur = assignment.get(a)
        for p in instance.agent_pref[a]:
            if not prefers(instance, a, p, cur):
                continue
            for member in rosters.get(p, ()):
                if program_prefers(instance, p, a, member):
                    return False
    return True


def hr_stable_naive(instance: HrInstance, assignment: dict[str, str]) -> bool:
    """Quota-respecting and free of blocking pairs (under-subscription included)."""
    rosters: dict[str, list[str]] = {}
    for a, p in assignment.items():
        rosters.setdefault(p, []).append(a)
    for p, members in rosters.items():
        if len(members) > instance.quota[p]:
            return False
    for a in instance.agents:
        cur = assignment.get(a)
        for p in instance.agent_pref[a]:
            if not prefers(instance, a, p, cur):
                continue
            members = rosters.get(p, [])
            if len(members) < instance.quota[p]:
                return False
            if any(program_prefers(instance, p, a, member) for member in members):
                return False
    return True


def extension_graph_naive(round1: HrInstance, assignment: dict[str, str]) -> dict[str, list[str]]:
    """Each unmatched agent's programs, in its own order, that no matched agent
    ranked above it there and preferring it to its own program blocks."""
    return {
        a: [p for p in round1.agent_pref[a]
            if not any(prefers(round1, b, p, cur) and program_prefers(round1, p, b, a)
                       for b, cur in assignment.items())]
        for a in round1.agents if a not in assignment
    }


def deferred_acceptance_naive(instance: HrInstance) -> dict[str, str]:
    """Agent-proposing deferred acceptance with list scans for every choice.

    Free agents propose in instance order; a full program drops the member
    that sits latest on its list.  The outcome is the agent-optimal stable
    matching, so any correct implementation must agree with it.
    """
    pos = {a: 0 for a in instance.agents}
    rosters: dict[str, list[str]] = {p: [] for p in instance.programs}
    free = list(instance.agents)
    while free:
        a = free.pop(0)
        lst = instance.agent_pref[a]
        while pos[a] < len(lst):
            p = lst[pos[a]]
            pos[a] += 1
            members = rosters[p]
            members.append(a)
            if len(members) <= instance.quota[p]:
                break
            worst = max(members, key=instance.program_pref[p].index)
            members.remove(worst)
            if worst != a:
                free.append(worst)
                break
    return {a: p for p in instance.programs for a in rosters[p]}


def promote_naive(instance: SmfqInstance) -> dict[str, str]:
    """The promotion heuristic by list scans.

    Every agent starts at its cheapest program, ties to the one it lists
    first.  Then each program in instance order walks its list from the
    bottom up and takes in every agent that prefers it to where that agent
    sits, provided the program currently houses someone it ranks below
    that agent.
    """
    match = {}
    for a in instance.agents:
        lst = instance.agent_pref[a]
        match[a] = min(lst, key=lambda p: (instance.cost[p], lst.index(p)))
    for p in instance.programs:
        for a in reversed(instance.program_pref[p]):
            members = [x for x in instance.agents if match[x] == p]
            if (prefers(instance, a, p, match[a])
                    and any(program_prefers(instance, p, a, x) for x in members)):
                match[a] = p
    return match


def threshold_market(instance: SmfqInstance, t: int) -> HrInstance:
    """The quota market of spending threshold t, built as a separate market.

    Each program gets ``t // cost`` seats (all agents for cost 0); programs
    left with no seat are removed together with every edge to them.
    """
    n = len(instance.agents)
    seats = {p: n if instance.cost[p] == 0 else t // instance.cost[p] for p in instance.programs}
    kept = [p for p in instance.programs if seats[p] >= 1]
    return HrInstance(
        agents=list(instance.agents),
        programs=kept,
        agent_pref={a: [p for p in instance.agent_pref[a] if p in kept] for a in instance.agents},
        program_pref={p: list(instance.program_pref[p]) for p in kept},
        cost={p: instance.cost[p] for p in kept},
        quota={p: seats[p] for p in kept},
    )


# ---------------------------------------------------------------------------
# brute-force enumeration


def all_stable_assignments(instance: SmfqInstance) -> list[dict[str, str]]:
    """Every full assignment (each agent placed on its list) free of envy."""
    lists = [instance.agent_pref[a] for a in instance.agents]
    out = []
    for combo in itertools.product(*lists):
        assignment = dict(zip(instance.agents, combo))
        if envy_free_naive(instance, assignment):
            out.append(assignment)
    return out


def envy_free_prefix_counts(instance: SmfqInstance) -> list[int]:
    """For k = 0 … |agents|, the number of ways to place the first k agents,
    each on its own list, so that no placed agent envies another placed one."""
    counts = []
    for k in range(len(instance.agents) + 1):
        placed = instance.agents[:k]
        count = 0
        for combo in itertools.product(*(instance.agent_pref[a] for a in placed)):
            assignment = dict(zip(placed, combo))
            if not any(prefers(instance, a, q, p) and program_prefers(instance, q, a, b)
                       for a, p in assignment.items() for b, q in assignment.items()):
                count += 1
        counts.append(count)
    return counts


def all_hr_stable_assignments(instance: HrInstance) -> list[dict[str, str]]:
    """Every stable partial assignment under quotas."""
    lists = [instance.agent_pref[a] + [None] for a in instance.agents]
    out = []
    for combo in itertools.product(*lists):
        assignment = {a: p for a, p in zip(instance.agents, combo) if p is not None}
        if hr_stable_naive(instance, assignment):
            out.append(assignment)
    return out


def brute_min_total(instance: SmfqInstance) -> int:
    return min(sum(instance.cost[p] for p in m.values())
               for m in all_stable_assignments(instance))


def brute_min_max(instance: SmfqInstance) -> int:
    best = None
    for m in all_stable_assignments(instance):
        per: dict[str, int] = {}
        for p in m.values():
            per[p] = per.get(p, 0) + instance.cost[p]
        worst = max(per.values(), default=0)
        best = worst if best is None else min(best, worst)
    if best is None:
        raise AssertionError("the market has no envy-free a-perfect matching")
    return best


def brute_min_cover(sets: dict[str, list[str]], elements: list[str]) -> int:
    """Smallest number of sets whose union is all elements."""
    ids = list(sets)
    for k in range(len(ids) + 1):
        for combo in itertools.combinations(ids, k):
            covered = set()
            for s in combo:
                covered.update(sets[s])
            if covered >= set(elements):
                return k
    raise ValueError("the sets do not cover the elements")


def brute_min_vertex_cover(vertices: list[str], edges: list[tuple[str, str]]) -> int:
    """Smallest number of vertices touching every edge."""
    for k in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, k):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edges):
                return k
    raise AssertionError("unreachable: all vertices always cover")


def branching_min_vertex_cover(edges: list[tuple[str, str]]) -> int:
    """Smallest number of vertices touching every edge, by branching on a
    vertex v of largest degree d: either v is in the cover, or all of its
    neighbours are.  A branch is cut once its size plus ceil(m / d), a lower
    bound for covering the m edges left, cannot beat the best cover found."""
    best = len({v for e in edges for v in e})

    def branch(left: list[tuple[str, str]], size: int) -> None:
        nonlocal best
        if not left:
            best = min(best, size)
            return
        degree: dict[str, int] = {}
        for e in left:
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        v = max(degree, key=degree.__getitem__)
        if size + -(-len(left) // degree[v]) >= best:
            return
        branch([e for e in left if v not in e], size + 1)
        nbrs = {u for e in left if v in e for u in e if u != v}
        branch([e for e in left if not nbrs.intersection(e)], size + len(nbrs))

    branch(list(edges), 0)
    return best


def tuple_graph(instance: SmfqInstance, choice: tuple[int, ...]) -> dict[str, set[str]]:
    """Each agent's programs at exactly the cost level chosen for it."""
    return {a: {p for p in instance.agent_pref[a] if instance.cost[p] == c}
            for a, c in zip(instance.agents, choice)}


def prune_naive(instance: SmfqInstance, adjsets: dict[str, set[str]]) -> str | None:
    """Envy pruning to a fixed point by list scans, mutating ``adjsets`` in place.

    While some agent a prefers a program q to every program it has left, no
    agent that q ranks below a may keep q.  Returns the first agent, in
    instance order, left with nothing, or None if all keep a program.
    """
    changed = True
    while changed:
        changed = False
        for a in instance.agents:
            lst = instance.agent_pref[a]
            top = min((lst.index(p) for p in adjsets[a]), default=0)
            for q in lst[:top]:
                for x in instance.agents:
                    if q in adjsets[x] and program_prefers(instance, q, a, x):
                        adjsets[x].discard(q)
                        changed = True
    return next((a for a in instance.agents if not adjsets[a]), None)


def surviving_cost_tuples(instance: SmfqInstance):
    """Yield ``(spend, assignment)`` for every cost tuple that survives envy
    pruning, in ascending lexicographic tuple order; each tuple is pruned
    from scratch and every agent takes its best surviving program."""
    for choice in itertools.product(*distinct_costs_per_agent(instance)):
        adjsets = tuple_graph(instance, choice)
        if prune_naive(instance, adjsets) is not None:
            continue
        assignment = {a: next(p for p in instance.agent_pref[a] if p in adjsets[a])
                      for a in instance.agents}
        yield sum(instance.cost[p] for p in assignment.values()), assignment


def minsum_by_enumeration(instance: SmfqInstance) -> tuple[int, Matching]:
    """Exact total spend over the whole product of per-agent cost levels;
    ties keep the first optimal tuple."""
    spend, assignment = min(surviving_cost_tuples(instance), key=lambda t: t[0])
    return spend, Matching(assignment)


# ---------------------------------------------------------------------------
# structure helpers


def order_consistent(lists: list[list[str]]) -> bool:
    """Every pair of lists ranks its common entries in the same relative order."""
    for l1, l2 in itertools.combinations(lists, 2):
        common = [x for x in l1 if x in l2]
        for x, y in itertools.combinations(common, 2):
            if (l1.index(x) < l1.index(y)) != (l2.index(x) < l2.index(y)):
                return False
    return True


def relabel(instance: SmfqInstance, agent_map: dict[str, str],
            program_map: dict[str, str]) -> SmfqInstance:
    """Rename everything; structure, costs, and quotas carry over."""
    agents = [agent_map[a] for a in instance.agents]
    programs = [program_map[p] for p in instance.programs]
    agent_pref = {agent_map[a]: [program_map[p] for p in lst]
                  for a, lst in instance.agent_pref.items()}
    program_pref = {program_map[p]: [agent_map[a] for a in lst]
                    for p, lst in instance.program_pref.items()}
    cost = {program_map[p]: c for p, c in instance.cost.items()}
    if isinstance(instance, HrInstance):
        quota = {program_map[p]: q for p, q in instance.quota.items()}
        return HrInstance(agents, programs, agent_pref, program_pref, cost, quota=quota)
    return SmfqInstance(agents, programs, agent_pref, program_pref, cost)


def remove_agent(instance: SmfqInstance, agent: str) -> SmfqInstance:
    """Drop one agent from the market entirely."""
    agents = [a for a in instance.agents if a != agent]
    agent_pref = {a: list(instance.agent_pref[a]) for a in agents}
    program_pref = {p: [a for a in lst if a != agent]
                    for p, lst in instance.program_pref.items()}
    cost = dict(instance.cost)
    if isinstance(instance, HrInstance):
        return HrInstance(agents, list(instance.programs), agent_pref,
                          program_pref, cost, quota=dict(instance.quota))
    return SmfqInstance(agents, list(instance.programs), agent_pref,
                        program_pref, cost)


# ---------------------------------------------------------------------------
# reference generators


def master_list_reference(n_agents: int, n_programs: int, list_len: int, cost_max: int,
                          seed: int) -> SmfqInstance:
    """``gen_master_list`` by its definition, from ``random.Random(seed)``'s own methods.

    Draw the master orders with ``shuffle``, each agent's programs with ``sample``
    and the costs with ``randrange``, the draws the generator repeats; then sort
    every agent's picks by the program order and every program's listers by the
    agent order.
    """
    rng = random.Random(seed)
    agents = [f"a{i}" for i in range(1, n_agents + 1)]
    programs = [f"p{j}" for j in range(1, n_programs + 1)]
    master_a, master_p = list(agents), list(programs)
    rng.shuffle(master_a)
    rng.shuffle(master_p)
    agent_pref = {a: sorted(rng.sample(programs, list_len), key=master_p.index) for a in agents}
    program_pref = {p: sorted((a for a in agents if p in agent_pref[a]), key=master_a.index)
                    for p in programs}
    cost = {p: rng.randrange(cost_max + 1) for p in programs}
    return SmfqInstance(agents, programs, agent_pref, program_pref, cost)
