"""Brute-force enumeration: the ground truth everything else is checked against."""

from __future__ import annotations

import pytest

import helpers
from flexq import (
    BudgetExceeded,
    bench_hr_instance,
    bench_instance,
    enumerate_a_perfect_stable,
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


def test_quota_stable_matchings_share_their_matched_set():
    """Rural hospitals: every quota-stable matching matches the same agents,
    fills each program to the same count, and gives an under-filled program
    the same roster."""
    for seed in range(60):
        inst = bench_hr_instance(seed)
        stable = helpers.all_hr_stable_assignments(inst)
        assert stable, seed
        assert len({frozenset(m) for m in stable}) == 1, seed
        for p in inst.programs:
            rosters = {frozenset(a for a, q in m.items() if q == p) for m in stable}
            assert len({len(r) for r in rosters}) == 1, (seed, p)
            if len(next(iter(rosters))) < inst.quota[p]:
                assert len(rosters) == 1, (seed, p)


def test_budget_guards_the_enumeration():
    _, h = gen_fig1()  # list lengths 2,2,2,2,1: 16 candidate assignments
    with pytest.raises(BudgetExceeded):
        oracle_minsum(h, budget=15)
    assert oracle_minsum(h, budget=16).objective == 7
    assert oracle_minsum(h, budget=1, force=True).objective == 7
    with pytest.raises(BudgetExceeded):
        oracle_minmax(h, budget=15)
    assert oracle_minmax(h, budget=16).objective == 4


def test_oracle_minimum_is_a_true_minimum():
    for seed in range(60):
        inst = bench_instance(seed)
        best = oracle_minsum(inst)
        costs = [sum(inst.cost[p] for p in m.assignment.values())
                 for m in enumerate_a_perfect_stable(inst)]
        assert best.objective == min(costs), seed
