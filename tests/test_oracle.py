"""Brute-force enumeration: the ground truth everything else is checked against."""

from __future__ import annotations

import pytest

import helpers
from flexq import (
    BudgetExceeded,
    Matching,
    bench_hr_instance,
    bench_instance,
    gen_fig1,
    gen_master_list,
    gen_random,
    max_cost,
    oracle_minmax,
    oracle_minsum,
    oracle_optima,
    parse_instance,
    total_cost,
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


def test_every_market_has_a_full_stable_matching():
    # matching everyone to their top choice can never create envy
    for seed in range(100):
        inst = bench_instance(seed)
        assignment = oracle_minsum(inst).matching.assignment
        assert list(assignment) == list(inst.agents), seed
        assert helpers.envy_free_naive(inst, assignment), seed


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
    _, h = gen_fig1()  # 21 nodes: 16 placements plus 5 scored leaves
    with pytest.raises(BudgetExceeded):
        oracle_minsum(h, budget=20)
    assert oracle_minsum(h, budget=21).objective == 7
    with pytest.raises(BudgetExceeded):
        oracle_minmax(h, budget=20)
    assert oracle_minmax(h, budget=21).objective == 4
    with pytest.raises(BudgetExceeded):
        oracle_optima(h, budget=20)
    assert [r.objective for r in oracle_optima(h, budget=21)] == [7, 4]


def test_oracle_minimum_is_a_true_minimum():
    for seed in range(60):
        inst = bench_instance(seed)
        best = oracle_minsum(inst)
        costs = [sum(inst.cost[p] for p in m.values())
                 for m in helpers.all_stable_assignments(inst)]
        assert best.objective == min(costs), seed


def _spends(instance, assignment):
    per: dict[str, int] = {}
    for p in assignment.values():
        per[p] = per.get(p, 0) + instance.cost[p]
    return per


# one agent is both the first and the last: its leaves are scored in place
ONE_AGENT = [parse_instance("smfq 1\n[agents]\na1: p1 p2 p3\n[programs]\n"
                            "p1 cost=3: a1\np2 cost=1: a1\np3 cost=1: a1\n"),
             parse_instance("smfq 1\n[agents]\na1: p1\n[programs]\np1 cost=2: a1\n")]

# complete lists and master lists, where one placement conflicts with seats
# at several programs above it
CROSSING = ([gen_random(7, 3, 3, 2, s) for s in range(20)]
            + [gen_master_list(7, 4, 3, 2, s) for s in range(20)])


def test_oracles_return_the_first_optimum_in_product_order():
    """Checked against the naive product filter, whose order is the same
    lexicographic order, on markets where many assignments tie.  Both
    reports of the one walk are checked, and each single-objective oracle
    must return the same report."""
    markets = [bench_instance(s) for s in range(300)]
    markets += [gen_random(8, 4, 3, 2, s) for s in range(20)] + ONE_AGENT
    markets += CROSSING
    for k, inst in enumerate(markets):
        stable = helpers.all_stable_assignments(inst)
        for r, oracle, score, brute, recheck in zip(
            oracle_optima(inst), (oracle_minsum, oracle_minmax),
            (lambda m: sum(_spends(inst, m).values()),
             lambda m: max(_spends(inst, m).values(), default=0)),
            (helpers.brute_min_total, helpers.brute_min_max), (total_cost, max_cost),
        ):
            single = oracle(inst)
            assert list(single.matching.assignment.items()) == list(r.matching.assignment.items()), k
            assert (single, single.stats) == (r, r.stats), (k, r.method)
            assert r.objective == brute(inst), (k, r.method)
            first = next(m for m in stable if score(m) == r.objective)
            assert list(r.matching.assignment.items()) == list(first.items()), (k, r.method)
            assert recheck(inst, r.matching) == r.objective, (k, r.method)


def test_work_counters():
    for seed in range(100):
        inst = bench_instance(seed)
        rs, rm = oracle_minsum(inst), oracle_minmax(inst)
        assert rs.stats["leaves"] == len(helpers.all_stable_assignments(inst)), seed
        assert rs.stats["nodes"] >= rs.stats["leaves"], seed
        # both oracles walk the same tree, and the counts repeat
        assert rs.stats == rm.stats == oracle_minsum(inst).stats, seed
    _, h = gen_fig1()
    assert oracle_minsum(h).stats == oracle_minmax(h).stats == {"nodes": 21, "leaves": 5}


def test_work_counters_equal_an_independent_count_of_envy_free_prefixes():
    """Every envy-free placement of a prefix of the agents is one node, and
    every envy-free placement of all of them one leaf: the walk must prune
    nothing else and miss nothing."""
    markets = [bench_instance(s) for s in range(300)]
    markets += [gen_random(8, 4, 3, 2, s) for s in range(20)]
    markets += ONE_AGENT + CROSSING
    markets += [gen_fig1()[1], parse_instance("smfq 1\n[agents]\n[programs]\n")]
    wants = []
    for k, inst in enumerate(markets):
        counts = helpers.envy_free_prefix_counts(inst)
        wants.append({"nodes": sum(counts[1:]), "leaves": counts[-1]})
        assert oracle_minsum(inst).stats == oracle_minmax(inst).stats == wants[-1], k
    assert wants[-2:] == [{"nodes": 21, "leaves": 5}, {"nodes": 0, "leaves": 1}]


def test_empty_market():
    inst = parse_instance("smfq 1\n[agents]\n[programs]\n")
    for oracle in (oracle_minsum, oracle_minmax):
        r = oracle(inst)
        assert (r.objective, r.matching) == (0, Matching({})), r.method
        assert r.stats == {"nodes": 0, "leaves": 1}


def test_one_agent_markets():
    many, one = (oracle_optima(inst) for inst in ONE_AGENT)
    # the first of the two cheapest seats wins both objectives
    assert [(r.objective, r.matching) for r in many] == [(1, Matching({"a1": "p2"}))] * 2
    assert [r.stats for r in many] == [{"nodes": 3, "leaves": 3}] * 2
    assert [(r.objective, r.stats) for r in one] == [(2, {"nodes": 1, "leaves": 1})] * 2


# (seed, minsum, minmax, nodes, leaves) on gen_random(12, 6, 3, 9, seed), where
# the independent prefix count is too slow; recorded from the two-walk oracle
RANDOM_12_WORK = [(1, 53, 12, 3836, 1485), (2, 36, 16, 2354, 719), (3, 15, 6, 2416, 708)]


@pytest.mark.parametrize("seed, minsum, minmax, nodes, leaves", RANDOM_12_WORK)
def test_pinned_objectives_and_work_on_12_agent_markets(seed, minsum, minmax, nodes, leaves):
    inst = gen_random(12, 6, 3, 9, seed)
    rs, rm = oracle_optima(inst)
    assert (rs.objective, rm.objective) == (minsum, minmax)
    assert rs.stats == rm.stats == {"nodes": nodes, "leaves": leaves}
    assert total_cost(inst, rs.matching) == minsum and max_cost(inst, rm.matching) == minmax
