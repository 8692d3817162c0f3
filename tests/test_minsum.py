"""Exact total-spend minimization: branch-and-bound over cost levels with envy pruning."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

import helpers
from flexq import (
    BudgetExceeded,
    SetCoverInstance,
    SmfqInstance,
    approx_promote,
    approx_restrict,
    bench_instance,
    distinct_costs_per_agent,
    gen_fig1,
    gen_fig2,
    gen_master_list,
    gen_random,
    is_a_perfect,
    is_envy_free,
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
        assert helpers.prune_naive(dataclasses.replace(h, agents=list(order)), adjsets) is None
        assert adjsets == base


def test_exact_solution_on_the_canonical_market():
    _, h = gen_fig1()
    report = solve_minsum_exact(h)
    assert report.objective == 7
    assert report.objective_kind == "total_cost"
    assert report.method == "minsum-exact"
    assert report.certified_optimal
    assert report.matching.assignment == {
        "a1": "p1", "a2": "p2", "a3": "p1", "a4": "p1", "a5": "p2"}
    assert report.stats == {"tuples": 16, "nodes": 5, "leaves": 1}


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
        shuffled = dataclasses.replace(inst, agents=order)
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
        assert report.stats["tuples"] <= 256
        assert (report.objective, report.matching) == helpers.minsum_by_enumeration(inst), seed


# search nodes expanded per rung; each rung checks two leaves
LADDER_NODES = {(16, 0): 376, (16, 1): 1_704, (16, 2): 1_760, (20, 0): 7_753}


@pytest.mark.parametrize("n, seed", [(16, 0), (16, 1), (16, 2), (20, 0)])
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
    report = solve_minsum_exact(inst)
    assert report.objective == len(edges) + helpers.brute_min_vertex_cover(vertices, edges)
    assert (report.stats["nodes"], report.stats["leaves"]) == (LADDER_NODES[n, seed], 2)
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
    assert report.objective == 10  # recorded by full enumeration
    assert report.stats == {"tuples": 2_519_424, "nodes": 19, "leaves": 1}
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
    assert report.stats == {"tuples": 1, "nodes": 1, "leaves": 1}
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
    inst = two_level_market()  # 2 * 2 = 4 cost tuples
    with pytest.raises(BudgetExceeded):
        solve_minsum_exact(inst, budget=3)
    assert solve_minsum_exact(inst, budget=4).objective == 2
    assert solve_minsum_exact(inst, budget=3, force=True).objective == 2


def test_budget_counts_cost_tuples_not_list_lengths():
    # four programs on every list, but a single cost level: one tuple total
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


def test_budget_env_var_and_override(monkeypatch):
    inst = two_level_market()
    monkeypatch.setenv("FLEXQ_BUDGET", "2")
    with pytest.raises(BudgetExceeded):
        solve_minsum_exact(inst)
    assert solve_minsum_exact(inst, budget=100).objective == 2  # arg wins
    monkeypatch.setenv("FLEXQ_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        solve_minsum_exact(inst)
