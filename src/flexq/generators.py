"""Instance generators: worked examples, random markets, and reductions.

The fixed generators reproduce the small markets used throughout the test
suite.  ``reduce_set_cover`` and ``reduce_vertex_cover`` embed covering
problems into cost markets so that the optimal total spend encodes the
optimal cover size; they back the hardness-oriented test suites.  The random
generators are fully seeded and deterministic.
"""

from __future__ import annotations

import random

from .model import HrInstance, Record, SmfqInstance


def gen_fig1() -> tuple[HrInstance, SmfqInstance]:
    """The canonical five-agent, two-program market, in both flavors.

    Returns ``(G, H)``: G carries quotas (2 and 1), H carries costs (1 and
    2); both share the same preference structure edge for edge.  G's stable
    matching leaves two agents out, while H admits a full stable matching of
    total cost 7 and max spend 4.
    """
    agents = ["a1", "a2", "a3", "a4", "a5"]
    programs = ["p1", "p2"]
    agent_pref = {
        "a1": ["p1", "p2"],
        "a2": ["p2", "p1"],
        "a3": ["p2", "p1"],
        "a4": ["p2", "p1"],
        "a5": ["p2"],
    }
    program_pref = {
        "p1": ["a2", "a4", "a1", "a3"],
        "p2": ["a1", "a2", "a5", "a3", "a4"],
    }
    cost = {"p1": 1, "p2": 2}
    h = SmfqInstance(list(agents), list(programs), {a: list(v) for a, v in agent_pref.items()},
                     {p: list(v) for p, v in program_pref.items()}, dict(cost))
    g = HrInstance(list(agents), list(programs), {a: list(v) for a, v in agent_pref.items()},
                   {p: list(v) for p, v in program_pref.items()}, dict(cost),
                   quota={"p1": 2, "p2": 1})
    return g, h


def gen_fig2(n: int) -> SmfqInstance:
    """A family where the cheap-seat lower bound is maximally loose.

    One free program p0 for the first n-1 agents, a unit-cost program p1 on
    everyone's list, and a private program p2 of cost n for the last agent.
    The lower bound is 1 while the optimal total spend is n, realizing the
    worst possible ratio (p1's list length).
    """
    if n < 2:
        raise ValueError("the family needs at least 2 agents")
    agents = [f"a{i}" for i in range(1, n + 1)]
    last = agents[-1]
    agent_pref = {a: ["p1", "p0"] for a in agents[:-1]}
    agent_pref[last] = ["p1", "p2"]
    program_pref = {"p0": agents[:-1], "p1": list(agents), "p2": [last]}
    return SmfqInstance(agents, ["p0", "p1", "p2"], agent_pref, program_pref,
                        {"p0": 0, "p1": 1, "p2": n})


def gen_example1(n: int = 5, alpha: int = 100) -> SmfqInstance:
    """A market where promotion wins: restriction crowds the pricey program.

    Agents a1..a(n-1) rank the expensive p2 over the unit-cost p1; the last
    agent accepts only p2 and sits atop p2's list, shielding it.  Promotion
    keeps everyone else on p1 (total n-1+alpha, optimal); restriction sends
    everyone to p2 (total n*alpha).
    """
    if n < 3 or alpha < 3:
        raise ValueError("requires n >= 3 and alpha >= 3")
    agents = [f"a{i}" for i in range(1, n + 1)]
    last = agents[-1]
    agent_pref = {a: ["p2", "p1"] for a in agents[:-1]}
    agent_pref[last] = ["p2"]
    program_pref = {"p1": agents[:-1], "p2": list(reversed(agents))}
    return SmfqInstance(agents, ["p1", "p2"], agent_pref, program_pref,
                        {"p1": 1, "p2": alpha})


def gen_example2(n: int = 5, alpha: int = 100) -> SmfqInstance:
    """A market where restriction wins: promotion cascades into the pricey program.

    The bulk of the agents rank p2 (cost 2) over p3 (cost alpha) over p1
    (cost 1); one agent accepts only p2, one only p3.  Restriction lands the
    bulk on p2 (total 2(n-1)+alpha, optimal); promotion pulls them all onto
    p3 (total 2+(n-1)*alpha).
    """
    if n < 3 or alpha < 3:
        raise ValueError("requires n >= 3 and alpha >= 3")
    agents = [f"a{i}" for i in range(1, n + 1)]
    bulk, second_last, last = agents[:-2], agents[-2], agents[-1]
    agent_pref = {a: ["p2", "p3", "p1"] for a in bulk}
    agent_pref[second_last] = ["p2"]
    agent_pref[last] = ["p3"]
    program_pref = {"p1": list(bulk), "p2": [second_last] + bulk, "p3": bulk + [last]}
    return SmfqInstance(agents, ["p1", "p2", "p3"], agent_pref, program_pref,
                        {"p1": 1, "p2": 2, "p3": alpha})


class SetCoverInstance(Record):
    """A covering problem where every element lies in exactly ``f`` sets."""

    _fields = ("sets", "elements", "f")

    def __init__(self, sets: dict[str, list[str]], elements: list[str], f: int):
        self.sets, self.elements, self.f = sets, elements, f
        known = set(elements)
        counts = {e: 0 for e in elements}
        for sid, members in sets.items():
            if len(set(members)) != len(members):
                raise ValueError(f"set {sid} repeats an element")
            for e in members:
                if e not in known:
                    raise ValueError(f"set {sid} mentions unknown element {e}")
                counts[e] += 1
        for e, c in counts.items():
            if c != f:
                raise ValueError(f"element {e} occurs in {c} sets, expected {f}")


class GraphInstance(Record):
    """A simple undirected graph with named vertices."""

    _fields = ("vertices", "edges")

    def __init__(self, vertices: list[str], edges: list[tuple[str, str]]):
        self.vertices, self.edges = vertices, edges
        known = set(vertices)
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in known or v not in known:
                raise ValueError(f"edge ({u}, {v}) uses an undeclared vertex")
            key = frozenset((u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)


def reduce_set_cover(sc: SetCoverInstance) -> SmfqInstance:
    """Embed a covering problem so min total spend equals |elements| + cover size.

    One agent and one unit-cost program per set, one agent per element, a
    shared free program, and f-2 unit-cost filler programs.  Element agents
    accept exactly the programs of the sets containing them, so each used set
    forces its own agent onto its program; everything else parks for free.
    """
    if sc.f < 2:
        raise ValueError("the reduction needs every element in at least 2 sets")
    set_ids = list(sc.sets)
    set_agents = {s: f"a_{s}" for s in set_ids}
    elem_agents = {e: f"b_{e}" for e in sc.elements}
    set_progs = {s: f"p_{s}" for s in set_ids}
    fillers = [f"q{t}" for t in range(1, sc.f - 1)]

    agents = [set_agents[s] for s in set_ids] + [elem_agents[e] for e in sc.elements]
    programs = [set_progs[s] for s in set_ids] + ["p"] + fillers

    agent_pref = {set_agents[s]: [set_progs[s], "p"] + fillers for s in set_ids}
    for e in sc.elements:
        agent_pref[elem_agents[e]] = [set_progs[s] for s in set_ids if e in sc.sets[s]]

    member_sets = {s: set(sc.sets[s]) for s in set_ids}
    program_pref = {
        set_progs[s]: [set_agents[s]] + [elem_agents[e] for e in sc.elements if e in member_sets[s]]
        for s in set_ids
    }
    program_pref["p"] = [set_agents[s] for s in set_ids]
    for q in fillers:
        program_pref[q] = [set_agents[s] for s in set_ids]

    cost = {set_progs[s]: 1 for s in set_ids}
    cost["p"] = 0
    cost.update({q: 1 for q in fillers})
    return SmfqInstance(agents, programs, agent_pref, program_pref, cost)


def reduce_vertex_cover(g: GraphInstance) -> SmfqInstance:
    """Embed vertex cover so min total spend equals 2mn + 3m * cover size.

    With m edges and n vertices: every vertex gets m clone agents, a cost-3
    program and a cost-2n program; every edge gets one agent accepting only
    the cost-2n programs of its endpoints.  Housing an edge agent at a vertex
    forces all m clones of that vertex off the free program.
    """
    n = len(g.vertices)
    m = len(g.edges)
    vindex = {v: i for i, v in enumerate(g.vertices)}
    clones = {v: [f"a_{v}_{t}" for t in range(1, m + 1)] for v in g.vertices}
    edge_agents = [f"e{j}" for j in range(1, m + 1)]
    cheap = {v: f"p_{v}" for v in g.vertices}
    dear = {v: f"r_{v}" for v in g.vertices}

    agents = [a for v in g.vertices for a in clones[v]] + edge_agents
    programs = [cheap[v] for v in g.vertices] + [dear[v] for v in g.vertices] + ["p"]

    agent_pref = {a: [cheap[v], dear[v], "p"] for v in g.vertices for a in clones[v]}
    incident: dict[str, list[str]] = {v: [] for v in g.vertices}
    for j, (u, v) in enumerate(g.edges):
        ea = edge_agents[j]
        ends = sorted((u, v), key=vindex.__getitem__)
        agent_pref[ea] = [dear[w] for w in ends]
        incident[u].append(ea)
        incident[v].append(ea)

    program_pref = {cheap[v]: list(clones[v]) for v in g.vertices}
    program_pref.update({dear[v]: clones[v] + incident[v] for v in g.vertices})
    program_pref["p"] = [a for v in g.vertices for a in clones[v]]

    cost = {cheap[v]: 3 for v in g.vertices}
    cost.update({dear[v]: 2 * n for v in g.vertices})
    cost["p"] = 0
    return SmfqInstance(agents, programs, agent_pref, program_pref, cost)


def _random_ids(n_agents: int, n_programs: int, list_len: int, cost_max: int) -> tuple[list[str], list[str]]:
    """A random market's agent and program ids, once its sizes and cost bound pass."""
    if n_agents < 1 or n_programs < 1 or list_len < 1:
        raise ValueError("sizes must be positive")
    if list_len > n_programs:
        raise ValueError("list_len cannot exceed n_programs")
    if cost_max < 0:
        raise ValueError("cost_max must be non-negative")
    return [f"a{i}" for i in range(1, n_agents + 1)], [f"p{j}" for j in range(1, n_programs + 1)]


def _listers(agents: list[str], programs: list[str],
             agent_pref: dict[str, list[str]]) -> dict[str, list[str]]:
    """Each program's listing agents, in agent order."""
    listers: dict[str, list[str]] = {p: [] for p in programs}
    for a in agents:
        for p in agent_pref[a]:
            listers[p].append(a)
    return listers


def gen_random(n_agents: int, n_programs: int, list_len: int, cost_max: int, seed: int) -> SmfqInstance:
    """A seeded random market: every agent samples ``list_len`` programs.

    Program lists hold exactly the agents that listed them, in seeded random
    order, so acceptability is mutual by construction.  With
    ``list_len == n_programs`` all agent lists are complete.  Identical
    arguments always produce identical instances.
    """
    agents, programs = _random_ids(n_agents, n_programs, list_len, cost_max)
    rng = random.Random(seed)
    agent_pref = {a: rng.sample(programs, list_len) for a in agents}
    listers = _listers(agents, programs, agent_pref)
    for p in programs:
        rng.shuffle(listers[p])
    cost = {p: rng.randint(0, cost_max) for p in programs}
    return SmfqInstance(agents, programs, agent_pref, listers, cost)


def gen_master_list(n_agents: int, n_programs: int, list_len: int, cost_max: int, seed: int) -> SmfqInstance:
    """A seeded random market where all lists follow two global orders.

    One master order over agents and one over programs are drawn; every
    preference list is the induced sublist, so any two lists on the same side
    rank their common entries identically.
    """
    agents, programs = _random_ids(n_agents, n_programs, list_len, cost_max)
    rng = random.Random(seed)
    master_a = list(agents)
    rng.shuffle(master_a)
    master_p = list(programs)
    rng.shuffle(master_p)
    apos = {a: i for i, a in enumerate(master_a)}
    ppos = {p: i for i, p in enumerate(master_p)}
    agent_pref = {a: sorted(rng.sample(programs, list_len), key=ppos.__getitem__) for a in agents}
    listers = _listers(agents, programs, agent_pref)
    program_pref = {p: sorted(listers[p], key=apos.__getitem__) for p in programs}
    cost = {p: rng.randint(0, cost_max) for p in programs}
    return SmfqInstance(agents, programs, agent_pref, program_pref, cost)


def gen_random_hr(n_agents: int, n_programs: int, list_len: int, cost_max: int,
                  quota_max: int, seed: int) -> HrInstance:
    """A seeded random quota market built on top of :func:`gen_random`."""
    if quota_max < 1:
        raise ValueError("quota_max must be positive")
    base = gen_random(n_agents, n_programs, list_len, cost_max, seed)
    rng = random.Random(seed ^ 0x5EED)
    quota = {p: rng.randint(1, quota_max) for p in base.programs}
    return HrInstance(base.agents, base.programs, base.agent_pref, base.program_pref,
                      base.cost, quota=quota)


# Shared sweep parameters: the bench command and the end-to-end test suite
# draw their random instances from these two helpers so both see the same
# markets for the same seed.

def bench_instance(seed: int) -> SmfqInstance:
    """Small random cost market for the cross-check sweeps (seeded)."""
    rng = random.Random(seed)
    n_agents = rng.randint(1, 6)
    n_programs = rng.randint(1, 5)
    list_len = rng.randint(1, min(4, n_programs))
    cost_max = rng.randint(0, 9)
    return gen_random(n_agents, n_programs, list_len, cost_max, seed=rng.randrange(1 << 30))


def bench_hr_instance(seed: int) -> HrInstance:
    """Small random quota market for the two-round sweeps (seeded)."""
    rng = random.Random(seed)
    n_agents = rng.randint(1, 6)
    n_programs = rng.randint(1, 5)
    list_len = rng.randint(1, min(4, n_programs))
    quota_max = rng.randint(1, 3)
    return gen_random_hr(n_agents, n_programs, list_len, cost_max=9,
                         quota_max=quota_max, seed=rng.randrange(1 << 30))
