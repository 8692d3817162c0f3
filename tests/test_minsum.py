"""Exact total-spend minimization: cost-tuple enumeration with envy pruning."""

from __future__ import annotations

import itertools

import pytest

import helpers
from flexq import (
    BudgetExceeded,
    SmfqInstance,
    bench_instance,
    distinct_costs_per_agent,
    gen_fig1,
    gen_fig2,
    is_a_perfect,
    is_envy_free,
    prune,
    solve_minsum_exact,
    total_cost,
)


def test_distinct_cost_levels_per_agent():
    _, h = gen_fig1()
    assert distinct_costs_per_agent(h) == [[1, 2], [1, 2], [1, 2], [1, 2], [2]]


def tuple_graph(instance: SmfqInstance, choice: tuple[int, ...]) -> dict[str, set[str]]:
    """Each agent's programs at exactly the cost level chosen for it."""
    return {a: {p for p in instance.agent_pref[a] if instance.cost[p] == c}
            for a, c in zip(instance.agents, choice)}


def test_pruning_isolates_the_overpriced_agent():
    # everyone else camps on the cheap program, so a5 cannot keep its seat:
    # a2 would envy anyone below it sitting at p2
    _, h = gen_fig1()
    assert prune(h, tuple_graph(h, (1, 1, 1, 1, 2))) == "a5"


def test_pruning_fixed_point_for_the_optimal_tuple():
    _, h = gen_fig1()
    adjsets = tuple_graph(h, (1, 2, 1, 1, 2))
    assert prune(h, adjsets) is None
    assert adjsets == {"a1": {"p1"}, "a2": {"p2"}, "a3": {"p1"},
                       "a4": {"p1"}, "a5": {"p2"}}


def test_pruned_fixed_point_is_order_independent():
    _, h = gen_fig1()
    base = tuple_graph(h, (1, 2, 1, 1, 2))
    prune(h, base)
    for order in itertools.permutations(h.agents):
        adjsets = tuple_graph(h, (1, 2, 1, 1, 2))
        assert prune(h, adjsets, agent_order=list(order)) is None
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


def test_exact_solution_is_deterministic():
    _, h = gen_fig1()
    assert solve_minsum_exact(h) == solve_minsum_exact(h)
    for order in itertools.permutations(h.agents):
        assert solve_minsum_exact(h, agent_order=list(order)).matching == \
            solve_minsum_exact(h).matching


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
    """Re-run the enumeration by hand and confirm the tie-breaking rule."""
    for seed in range(25):
        inst = bench_instance(seed)
        expected = None
        expected_cost = None
        for choice in itertools.product(*distinct_costs_per_agent(inst)):
            adjsets = tuple_graph(inst, choice)
            if prune(inst, adjsets) is not None:
                continue
            assignment = {a: next(p for p in inst.agent_pref[a] if p in adjsets[a])
                          for a in inst.agents}
            c = sum(inst.cost[p] for p in assignment.values())
            if expected_cost is None or c < expected_cost:
                expected, expected_cost = assignment, c
        report = solve_minsum_exact(inst)
        assert report.matching.assignment == expected, seed
        assert report.objective == expected_cost, seed


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
