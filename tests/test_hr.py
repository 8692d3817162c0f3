"""Deferred acceptance under quotas: the agent-proposing algorithm."""

from __future__ import annotations

import itertools
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flexq import (
    HrInstance,
    bench_hr_instance,
    gale_shapley_a_optimal,
    gen_fig1,
    is_hr_stable,
    unmatched_agents,
)


def test_canonical_market_outcome():
    g, _ = gen_fig1()
    m = gale_shapley_a_optimal(g)
    assert m.assignment == {"a1": "p1", "a2": "p2", "a4": "p1"}
    assert is_hr_stable(g, m).ok
    assert unmatched_agents(g, m) == ["a3", "a5"]


def test_output_respects_quotas_and_lists():
    for seed in range(60):
        inst = bench_hr_instance(seed)
        m = gale_shapley_a_optimal(inst)
        for a, p in m.assignment.items():
            assert inst.is_acceptable(a, p)
        for p, size in Counter(m.assignment.values()).items():
            assert size <= inst.quota[p]
        assert is_hr_stable(inst, m).ok


def test_proposal_order_does_not_change_the_outcome():
    g, _ = gen_fig1()
    base = gale_shapley_a_optimal(g)
    for order in itertools.permutations(g.agents):
        assert gale_shapley_a_optimal(HrInstance(list(order), g.programs, g.agent_pref,
                                                 g.program_pref, g.cost, g.quota)) == base


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=50, deadline=None)
def test_proposal_order_invariance_on_random_markets(seed):
    inst = bench_hr_instance(seed)
    base = gale_shapley_a_optimal(inst)
    rng = random.Random(seed * 31 + 7)
    for _ in range(3):
        order = list(inst.agents)
        rng.shuffle(order)
        assert gale_shapley_a_optimal(HrInstance(order, inst.programs, inst.agent_pref,
                                                 inst.program_pref, inst.cost, inst.quota)) == base


def test_agent_optimality_among_all_stable_matchings():
    """Every agent does at least as well as in any other stable matching."""
    for seed in range(40):
        inst = bench_hr_instance(seed)
        m = gale_shapley_a_optimal(inst).assignment
        for other in helpers.all_hr_stable_assignments(inst):
            for a in inst.agents:
                mine, theirs = m.get(a), other.get(a)
                if theirs is None:
                    continue
                assert mine is not None, (seed, a)
                assert inst.arank[a][mine] <= inst.arank[a][theirs], (seed, a)


def test_same_agents_matched_in_every_stable_matching():
    """The set of matched agents is an invariant of the instance."""
    for seed in range(40):
        inst = bench_hr_instance(seed)
        matched_sets = {frozenset(m) for m in helpers.all_hr_stable_assignments(inst)}
        gs_matched = frozenset(gale_shapley_a_optimal(inst).assignment)
        assert gs_matched in matched_sets
        assert len(matched_sets) == 1


def test_programs_missing_from_the_seat_map_take_nobody():
    for seed in range(40):
        inst = bench_hr_instance(seed)
        gone = inst.programs[-1]
        kept = inst.programs[:-1]
        seats = {p: inst.quota[p] for p in kept}
        m = gale_shapley_a_optimal(inst, quota=seats).assignment
        assert gone not in m.values(), seed
        assert gale_shapley_a_optimal(inst, quota={**seats, gone: 0}).assignment == m
        # the same as cutting the program and its edges out of the market
        cut = HrInstance(list(inst.agents), kept,
                         {a: [p for p in inst.agent_pref[a] if p != gone] for a in inst.agents},
                         {p: list(inst.program_pref[p]) for p in kept},
                         {p: inst.cost[p] for p in kept}, quota=seats)
        assert m == helpers.deferred_acceptance_naive(cut), seed

