"""Brute-force enumeration: the ground truth everything else is checked against."""

from __future__ import annotations

import pytest

import helpers
from flexq import (
    BudgetExceeded,
    HrInstance,
    bench_hr_instance,
    bench_instance,
    enumerate_a_perfect_stable,
    enumerate_hr_stable,
    gen_fig1,
    oracle_minmax,
    oracle_minsum,
)


def test_optimal_objectives_on_the_canonical_market():
    _, h = gen_fig1()
    rs = oracle_minsum(h)
    rm = oracle_minmax(h)
    assert rs.objective == 7
    assert rm.objective == 4
    assert rs.method == "oracle-minsum"
    assert rm.method == "oracle-minmax"
    assert rs.certified_optimal and rm.certified_optimal
    assert rs.objective_kind == "total_cost"
    assert rm.objective_kind == "max_cost"


def test_enumeration_agrees_with_the_unpruned_filter():
    """The pruned search must find exactly the naive product-filter set."""
    for seed in range(100):
        inst = bench_instance(seed)
        got = {frozenset(m.assignment.items()) for m in enumerate_a_perfect_stable(inst)}
        want = {frozenset(m.items())
                for m in helpers.all_stable_assignments(inst)}
        assert got == want, seed


def test_every_market_has_a_full_stable_matching():
    # matching everyone to their top choice can never create envy
    for seed in range(100):
        inst = bench_instance(seed)
        assert next(iter(enumerate_a_perfect_stable(inst)), None) is not None


def test_quota_enumeration_agrees_with_the_unpruned_filter():
    for seed in range(60):
        inst = bench_hr_instance(seed)
        got = {frozenset(m.assignment.items()) for m in enumerate_hr_stable(inst)}
        want = {frozenset(m.items())
                for m in helpers.all_hr_stable_assignments(inst)}
        assert got == want, seed


def test_quota_stable_matchings_share_their_matched_set():
    for seed in range(60):
        inst = bench_hr_instance(seed)
        matched = {frozenset(m.assignment) for m in enumerate_hr_stable(inst)}
        assert len(matched) == 1, seed


def test_budget_guards_the_enumeration():
    _, h = gen_fig1()  # list lengths 2,2,2,2,1: 16 candidate assignments
    with pytest.raises(BudgetExceeded):
        oracle_minsum(h, budget=15)
    assert oracle_minsum(h, budget=16).objective == 7
    assert oracle_minsum(h, budget=1, force=True).objective == 7
    with pytest.raises(BudgetExceeded):
        oracle_minmax(h, budget=15)
    assert oracle_minmax(h, budget=16).objective == 4


def test_hr_budget_counts_the_stay_unmatched_branch():
    g, _ = gen_fig1()  # (2+1)(2+1)(2+1)(2+1)(1+1) = 162 candidates
    with pytest.raises(BudgetExceeded):
        list(enumerate_hr_stable(g, budget=161))
    assert len(list(enumerate_hr_stable(g, budget=162))) >= 1


def test_quota_enumeration_handles_markets_deeper_than_the_recursion_limit():
    agents = [f"a{i}" for i in range(3000)]
    inst = HrInstance(agents, ["p1"], {a: ["p1"] for a in agents},
                      {"p1": list(agents)}, {"p1": 0}, {"p1": 1})
    first = next(enumerate_hr_stable(inst, force=True))
    assert first.assignment == {"a0": "p1"}


def test_oracle_minimum_is_a_true_minimum():
    for seed in range(60):
        inst = bench_instance(seed)
        best = oracle_minsum(inst)
        costs = [sum(inst.cost[p] for p in m.assignment.values())
                 for m in enumerate_a_perfect_stable(inst)]
        assert best.objective == min(costs), seed
