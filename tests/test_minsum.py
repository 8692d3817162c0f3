"""Exact total-spend minimization: branch-and-bound over cost levels with envy pruning."""

from __future__ import annotations

import itertools
import math
import random

import pytest

import helpers
from flexq import (
    BudgetExceeded,
    SetCoverInstance,
    SmfqInstance,
    approx_promote,
    approx_restrict,
    bench_hr_instance,
    bench_instance,
    compute_extendable,
    distinct_costs_per_agent,
    gale_shapley_a_optimal,
    gen_fig1,
    gen_fig2,
    gen_master_list,
    gen_random,
    is_a_perfect,
    is_envy_free,
    min_cost_extension,
    oracle_optima,
    reduce_set_cover,
    solve_minsum_exact,
    total_cost,
)


def test_distinct_cost_levels_per_agent():
    _, h = gen_fig1()
    assert distinct_costs_per_agent(h) == [[1, 2], [1, 2], [1, 2], [1, 2], [2]]


def test_pruning_isolates_the_overpriced_agent():
    # everyone else camps on the cheap program, so a5 cannot keep its seat:
    # a2 would envy anyone below it sitting at p2
    _, h = gen_fig1()
    assert helpers.prune_naive(h, helpers.tuple_graph(h, (1, 1, 1, 1, 2))) == "a5"


def test_pruning_fixed_point_for_the_optimal_tuple():
    _, h = gen_fig1()
    adjsets = helpers.tuple_graph(h, (1, 2, 1, 1, 2))
    assert helpers.prune_naive(h, adjsets) is None
    assert adjsets == {"a1": {"p1"}, "a2": {"p2"}, "a3": {"p1"},
                       "a4": {"p1"}, "a5": {"p2"}}


def test_pruned_fixed_point_is_order_independent():
    _, h = gen_fig1()
    base = helpers.tuple_graph(h, (1, 2, 1, 1, 2))
    helpers.prune_naive(h, base)
    for order in itertools.permutations(h.agents):
        adjsets = helpers.tuple_graph(h, (1, 2, 1, 1, 2))
        assert helpers.prune_naive(SmfqInstance(list(order), h.programs, h.agent_pref,
                                                h.program_pref, h.cost), adjsets) is None
        assert adjsets == base


def test_exact_solution_on_the_canonical_market():
    _, h = gen_fig1()
    report = solve_minsum_exact(h)
    assert report.objective == 7
    assert report.method == "minsum-exact"
    assert report.certified_optimal
    assert report.matching.assignment == {
        "a1": "p1", "a2": "p2", "a3": "p1", "a4": "p1", "a5": "p2"}
    assert report.stats == {"nodes": 5, "leaves": 1}


def test_exact_solution_is_deterministic():
    """Same input, same report; a reordered market keeps the optimum.

    The declared order breaks ties between optimal tuples, so a permuted
    market may pick another optimal matching, never a worse one.
    """
    _, h = gen_fig1()
    assert solve_minsum_exact(h) == solve_minsum_exact(h)
    markets = [(h, list(order)) for order in itertools.permutations(h.agents)]
    for seed in range(200):
        inst = bench_instance(seed)
        order = list(inst.agents)
        random.Random(seed).shuffle(order)
        markets.append((inst, order))
    for inst, order in markets:
        shuffled = SmfqInstance(order, inst.programs, inst.agent_pref, inst.program_pref, inst.cost)
        report = solve_minsum_exact(shuffled)
        assert report.objective == solve_minsum_exact(inst).objective, order
        assert is_a_perfect(shuffled, report.matching)
        assert is_envy_free(shuffled, report.matching).ok


def test_tight_family_solved_quickly():
    inst = gen_fig2(9)
    report = solve_minsum_exact(inst)
    assert report.objective == 9


def test_matches_brute_force_on_random_markets():
    for seed in range(80):
        inst = bench_instance(seed)
        report = solve_minsum_exact(inst)
        assert report.objective == helpers.brute_min_total(inst), seed
        assert is_a_perfect(inst, report.matching)
        assert is_envy_free(inst, report.matching).ok
        assert total_cost(inst, report.matching) == report.objective


def test_returns_the_first_optimal_tuple_in_ascending_order():
    """Walk the whole tuple product and confirm the tie-breaking rule."""
    for seed in range(500):
        inst = bench_instance(seed)
        report = solve_minsum_exact(inst)
        assert (report.objective, report.matching) == helpers.minsum_by_enumeration(inst), seed


def test_agrees_with_enumeration_on_twelve_agent_markets():
    for seed in range(10):
        for gen in (gen_random, gen_master_list):
            inst = gen(12, 5, 2, 4, seed)
            report = solve_minsum_exact(inst)
            assert (report.objective, report.matching) == helpers.minsum_by_enumeration(inst), (gen, seed)


def test_agrees_with_enumeration_on_set_cover_reductions():
    for m in range(2, 5):
        set_ids = [f"s{i}" for i in range(1, m + 1)]
        pairs = list(itertools.combinations(range(m), 2))
        for n in range(1, 4):
            for combo in itertools.combinations_with_replacement(pairs, n):
                sets: dict[str, list[str]] = {s: [] for s in set_ids}
                for j, (x, y) in enumerate(combo, start=1):
                    sets[set_ids[x]].append(f"e{j}")
                    sets[set_ids[y]].append(f"e{j}")
                elements = [f"e{j}" for j in range(1, n + 1)]
                inst = reduce_set_cover(SetCoverInstance(sets=sets, elements=elements, f=2))
                report = solve_minsum_exact(inst)
                assert (report.objective, report.matching) == helpers.minsum_by_enumeration(inst), sets


def test_agrees_with_enumeration_on_lists_longer_than_a_machine_word():
    for seed in range(10):
        inst = gen_random(4, 70, 70, 3, seed)
        assert min(map(len, inst.agent_pref.values())) > 64
        report = solve_minsum_exact(inst)
        assert math.prod(map(len, distinct_costs_per_agent(inst))) <= 256  # cheap to enumerate
        assert (report.objective, report.matching) == helpers.minsum_by_enumeration(inst), seed


# (search nodes expanded, leaves checked) per rung
LADDER_WORK = {(16, 0): (376, 2), (16, 1): (1_704, 2), (16, 2): (1_760, 2), (20, 0): (7_753, 2),
               (28, 0): (236_416, 1)}


@pytest.mark.parametrize("n, seed", list(LADDER_WORK))
def test_solves_the_first_vertex_cover_ladder_rungs(n, seed):
    # the set-cover reduction of a graph on v0..v{n-1} with the first 1.5n shuffled pairs as edges
    vertices = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(vertices, 2))
    random.Random(seed).shuffle(pairs)
    edges = pairs[:3 * n // 2]
    sets: dict[str, list[str]] = {v: [] for v in vertices}
    for k, (u, v) in enumerate(edges):
        sets[u].append(f"e{k}")
        sets[v].append(f"e{k}")
    inst = reduce_set_cover(SetCoverInstance(sets=sets, elements=[f"e{k}" for k in range(len(edges))], f=2))
    tau = helpers.branching_min_vertex_cover(edges)
    if n <= 20:  # the subset enumeration takes minutes at 28 vertices
        assert tau == helpers.brute_min_vertex_cover(vertices, edges)
    report = solve_minsum_exact(inst)
    assert report.objective == len(edges) + tau
    assert (report.stats["nodes"], report.stats["leaves"]) == LADDER_WORK[n, seed]
    assert is_a_perfect(inst, report.matching)
    assert is_envy_free(inst, report.matching).ok


@pytest.mark.parametrize("gen, seed, objective, nodes, leaves", [
    (gen_random, 0, 97, 10_997, 3),
    (gen_master_list, 1, 86, 14_570, 2),
])
def test_solves_48_agent_random_rungs(gen, seed, objective, nodes, leaves):
    inst = gen(48, 24, 4, 9, seed)
    report = solve_minsum_exact(inst)
    assert report.objective == objective
    assert (report.stats["nodes"], report.stats["leaves"]) == (nodes, leaves)
    assert report.objective == total_cost(inst, report.matching)
    assert is_a_perfect(inst, report.matching)
    assert is_envy_free(inst, report.matching).ok


def test_first_optimal_tuple_wins_when_the_seed_equals_the_optimum():
    # tuples (a1, a2) by level: (1, 2) is envious, (1, 3) and (2, 2) both
    # spend 4, and the approximations find (2, 2), so the seed is the optimum
    inst = SmfqInstance(
        agents=["a1", "a2"],
        programs=["p1", "p2", "p3"],
        agent_pref={"a1": ["p2", "p3"], "a2": ["p2", "p1"]},
        program_pref={"p1": ["a2"], "p2": ["a1", "a2"], "p3": ["a1"]},
        cost={"p1": 3, "p2": 2, "p3": 1},
    )
    for approx in (approx_promote, approx_restrict):
        rep = approx(inst)
        assert (rep.objective, rep.matching.assignment) == (4, {"a1": "p2", "a2": "p2"})
    report = solve_minsum_exact(inst)
    assert report.objective == 4
    assert report.matching.assignment == {"a1": "p3", "a2": "p1"}
    assert (report.objective, report.matching) == helpers.minsum_by_enumeration(inst)


def test_search_visits_a_sliver_of_a_large_product():
    inst = gen_random(16, 8, 3, 9, 3)
    report = solve_minsum_exact(inst)
    assert report.objective == 10  # recorded by full enumeration of 2,519,424 cost tuples
    assert report.stats == {"nodes": 19, "leaves": 1}
    assert approx_promote(inst).stats == {}


def test_deep_single_level_market_solves_without_recursion():
    # one cost level per agent: a single tuple, far deeper than the recursion limit
    n = 3000
    agents = [f"a{i}" for i in range(n)]
    inst = SmfqInstance(
        agents=agents,
        programs=["p1", "p2"],
        agent_pref={a: ["p1", "p2"] for a in agents},
        program_pref={"p1": list(agents), "p2": list(agents)},
        cost={"p1": 1, "p2": 1},
    )
    report = solve_minsum_exact(inst)
    assert report.objective == n
    assert report.stats == {"nodes": 1, "leaves": 1}
    assert set(report.matching.assignment.values()) == {"p1"}


# ---------------------------------------------------------------------------
# search budget


def two_level_market() -> SmfqInstance:
    return SmfqInstance(
        agents=["a1", "a2"],
        programs=["p1", "p2"],
        agent_pref={"a1": ["p1", "p2"], "a2": ["p2", "p1"]},
        program_pref={"p1": ["a1", "a2"], "p2": ["a2", "a1"]},
        cost={"p1": 1, "p2": 2},
    )


def test_budget_refuses_oversized_enumerations():
    inst = two_level_market()  # 4 cost tuples, but the search expands 3 nodes
    assert solve_minsum_exact(inst).stats == {"nodes": 3, "leaves": 1}
    with pytest.raises(BudgetExceeded, match="budget of 2 nodes"):
        solve_minsum_exact(inst, budget=2)
    assert solve_minsum_exact(inst, budget=3).objective == 2
    assert solve_minsum_exact(inst, budget=10**15).objective == 2  # no search is that long


def test_budget_counts_search_nodes_not_list_lengths():
    # four programs on every list, but a single cost level: the root is the only node
    agents = [f"a{i}" for i in range(1, 7)]
    programs = [f"p{j}" for j in range(1, 5)]
    inst = SmfqInstance(
        agents=agents,
        programs=programs,
        agent_pref={a: list(programs) for a in agents},
        program_pref={p: list(agents) for p in programs},
        cost={p: 5 for p in programs},
    )
    assert solve_minsum_exact(inst, budget=1).objective == 30
    with pytest.raises(BudgetExceeded):
        solve_minsum_exact(inst, budget=0)


def test_budget_bounds_the_nodes_expanded_not_the_tuple_product():
    inst = gen_random(24, 12, 4, 9, 1)
    assert math.prod(map(len, distinct_costs_per_agent(inst))) == 705_277_476_864
    report = solve_minsum_exact(inst)  # the default budget, not forced
    assert (report.objective, report.stats) == (73, {"nodes": 921, "leaves": 1})
    with pytest.raises(BudgetExceeded):
        solve_minsum_exact(inst, budget=920)


def test_every_search_refuses_exactly_one_node_below_its_nodes_stat():
    # the budget meters the nodes stat itself: that many nodes return the same
    # report and counters, one fewer is refused
    _, h = gen_fig1()
    searches = []
    for inst in [h, *map(bench_instance, range(300))]:
        searches.append(lambda b, inst=inst: oracle_optima(inst, budget=b))
        searches.append(lambda b, inst=inst: (solve_minsum_exact(inst, budget=b),))
    for g in map(bench_hr_instance, range(300)):
        ctx = compute_extendable(g, gale_shapley_a_optimal(g))
        searches.append(lambda b, g=g, ctx=ctx: (min_cost_extension(ctx, dict(g.cost), budget=b),))
    checked = 0
    for search in searches:
        reports = search(None)
        if not reports[0].stats:
            continue  # min_cost_extension with no leftover to place searches nothing
        nodes = reports[0].stats["nodes"]
        again = search(nodes)
        assert again == reports and [r.stats for r in again] == [r.stats for r in reports]
        with pytest.raises(BudgetExceeded):
            search(nodes - 1)
        checked += 1
    assert checked == 2 * 301 + 130  # 130 of the quota markets have leftovers to place


def test_budget_argument_overrides_the_default():
    inst = two_level_market()
    with pytest.raises(BudgetExceeded):
        solve_minsum_exact(inst, budget=2)
    assert solve_minsum_exact(inst, budget=100).objective == 2
    assert solve_minsum_exact(inst).objective == 2  # budget=None: DEFAULT_BUDGET
    with pytest.raises(ValueError, match="non-negative"):
        solve_minsum_exact(inst, budget=-1)
