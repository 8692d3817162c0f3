"""Minimizing the largest single-program spend by parametric search."""

from __future__ import annotations

from collections import Counter

import pytest

import helpers
from flexq import (
    EmptyAgentList,
    SmfqInstance,
    bench_instance,
    build_quota_instance,
    feasible_at,
    gale_shapley_a_optimal,
    gen_fig1,
    gen_fig2,
    gen_master_list,
    gen_random,
    is_a_perfect,
    is_envy_free,
    max_cost,
    solve_minmax,
)
from flexq.hr import deferred_acceptance_state, resume_with_fewer_seats


def test_canonical_market_threshold_and_matching():
    _, h = gen_fig1()
    report = solve_minmax(h)
    assert report.objective == 4
    assert report.method == "minmax"
    assert report.certified_optimal
    assert report.matching.assignment == {
        "a1": "p1", "a2": "p2", "a3": "p1", "a4": "p1", "a5": "p2"}
    assert max_cost(h, report.matching) == 4


def test_feasibility_flips_exactly_at_the_threshold():
    _, h = gen_fig1()
    assert not feasible_at(h, 3)  # budgeted seats: 3 at p1, 1 at p2 — one short
    assert feasible_at(h, 4)


def test_budgeted_quotas_derived_from_the_threshold():
    _, h = gen_fig1()
    assert build_quota_instance(h, 4) == {"p1": 4, "p2": 2}
    # at t=1 p2 is priced out: the seat map leaves it out
    q1 = build_quota_instance(h, 1)
    assert q1 == {"p1": 1}
    assert "a5" not in gale_shapley_a_optimal(h, quota=q1).assignment  # a5 only wanted p2


def test_free_programs_get_unbounded_seats():
    inst = gen_fig2(4)  # p0 costs nothing
    assert build_quota_instance(inst, 0) == {"p0": len(inst.agents)}  # every priced program is out


def test_zero_threshold_when_everything_is_free():
    inst = SmfqInstance(["a1", "a2"], ["p1"],
                        {"a1": ["p1"], "a2": ["p1"]}, {"p1": ["a1", "a2"]},
                        {"p1": 0})
    report = solve_minmax(inst)
    assert report.objective == 0
    assert is_a_perfect(inst, report.matching)


def test_negative_threshold_rejected():
    _, h = gen_fig1()
    with pytest.raises(ValueError):
        build_quota_instance(h, -1)


def test_fig2_threshold_forces_the_priciest_seat():
    # a4 must sit somewhere: p1 alone is too small below n-1, so t* = ...
    inst = gen_fig2(4)
    report = solve_minmax(inst)
    assert report.objective == helpers.brute_min_max(inst)


def test_threshold_is_tight_on_random_markets():
    """t* is feasible, t*-1 is not, and the matching meets t* exactly."""
    for seed in range(80):
        inst = bench_instance(seed)
        report = solve_minmax(inst)
        t = report.objective
        assert is_a_perfect(inst, report.matching)
        assert is_envy_free(inst, report.matching).ok
        assert max_cost(inst, report.matching) == t
        assert feasible_at(inst, t)
        if t > 0:
            assert not feasible_at(inst, t - 1)


def test_matches_brute_force_on_random_markets():
    for seed in range(80):
        inst = bench_instance(seed)
        assert solve_minmax(inst).objective == helpers.brute_min_max(inst), seed


def test_seat_maps_agree_with_rebuilt_threshold_markets():
    """Deferred acceptance under a seat map equals deferred acceptance on a
    market rebuilt without the priced-out programs, at every threshold."""
    for seed in range(80):
        inst = bench_instance(seed)
        for t in range(len(inst.agents) * max(inst.cost.values()) + 1):
            got = gale_shapley_a_optimal(inst, quota=build_quota_instance(inst, t)).assignment
            market = helpers.threshold_market(inst, t)
            if all(market.agent_pref.values()):
                assert got == gale_shapley_a_optimal(market).assignment, (seed, t)
            else:  # a priced-out agent list leaves a market the package refuses
                with pytest.raises(EmptyAgentList):
                    gale_shapley_a_optimal(market)
            assert got == helpers.deferred_acceptance_naive(market), (seed, t)


def test_seat_maps_agree_on_larger_markets():
    """Rosters of dozens of agents put real weight on the per-program heaps."""
    for seed in range(4):
        inst = gen_random(200, 12, 4, 9, seed)
        for t in range(0, len(inst.agents) * 9 + 1, 97):
            got = gale_shapley_a_optimal(inst, quota=build_quota_instance(inst, t)).assignment
            assert got == helpers.deferred_acceptance_naive(helpers.threshold_market(inst, t)), (seed, t)


def _crowding_market(n):
    """Everyone ranks the paid p1 first, but only the free p0 can seat them all."""
    agents = [f"a{i}" for i in range(n)]
    return SmfqInstance(agents, ["p0", "p1"], {a: ["p1", "p0"] for a in agents},
                        {"p0": list(agents), "p1": agents[::-1]}, {"p0": 0, "p1": 1})


def test_crowding_market_settles_on_the_free_program():
    inst = _crowding_market(2000)
    report = solve_minmax(inst)
    assert report.objective == 0
    assert report.matching.assignment == {a: "p0" for a in inst.agents}


def _warm_start_markets():
    for seed in range(600):
        yield f"bench {seed}", bench_instance(seed)
    for seed in range(6):
        n = 50 + 50 * seed
        yield f"random {n}", gen_random(n, 4 + seed, 1 + seed % 4, 9, seed)
        yield f"master {n}", gen_master_list(n, 4 + seed, 1 + seed % 4, 9, seed)
    free = gen_random(40, 5, 3, 9, 1)
    yield "all free", SmfqInstance(free.agents, free.programs, free.agent_pref,
                                   free.program_pref, dict.fromkeys(free.programs, 0))
    agents = [f"a{i}" for i in range(30)]
    yield "one program", SmfqInstance(agents, ["p1"], {a: ["p1"] for a in agents},
                                      {"p1": agents[::-1]}, {"p1": 3})
    yield "crowding", _crowding_market(2000)


def test_warm_started_search_equals_naive_deferred_acceptance_at_the_optimum():
    """Each probe resumes from the last feasible state; the kept state must be
    exactly what deferred acceptance on the rebuilt optimal market gives."""
    for label, inst in _warm_start_markets():
        report = solve_minmax(inst)
        market = helpers.threshold_market(inst, report.objective)
        assert report.matching.assignment == helpers.deferred_acceptance_naive(market), label


def _resume_markets():
    for seed in range(600):
        yield f"bench {seed}", bench_instance(seed)
    for seed, n in enumerate((100, 200, 300)):
        yield f"random {n}", gen_random(n, 12, 4, 3, seed)
        yield f"master {n}", gen_master_list(n, 12, 4, 3, seed)


def test_resume_from_the_top_equals_naive_deferred_acceptance_at_every_threshold():
    """Resuming the top-of-range state at any smaller threshold is stuck
    exactly when deferred acceptance on the rebuilt market leaves someone
    out, reaches that market's matching otherwise, and leaves the state
    it started from as it was."""
    for label, inst in _resume_markets():
        top = len(inst.agents) * max(inst.cost.values())
        state = deferred_acceptance_state(inst, build_quota_instance(inst, top))
        before, nxt = state.matching(inst).assignment, dict(state.nxt)
        for t in range(top):
            probe, stuck = resume_with_fewer_seats(inst, state, build_quota_instance(inst, t))
            naive = helpers.deferred_acceptance_naive(helpers.threshold_market(inst, t))
            assert (stuck is None) == (len(naive) == len(inst.agents)), (label, t)
            if stuck is None:
                assert probe.matching(inst).assignment == naive, (label, t)
        assert state.matching(inst).assignment == before and state.nxt == nxt, label


def test_search_counters_are_deterministic_and_count_the_probes():
    for seed in range(200):
        inst = bench_instance(seed)
        # the search starts at the largest spend with every agent at its top choice
        tops = Counter(inst.agent_pref[a][0] for a in inst.agents)
        lo, hi, steps = 0, max(k * inst.cost[p] for p, k in tops.items()), 0
        while lo < hi:
            mid = (lo + hi) // 2
            steps += 1
            if feasible_at(inst, mid):
                hi = mid
            else:
                lo = mid + 1
        report = solve_minmax(inst)
        assert report.stats["probes"] == steps, seed
        # never more than the old range [0, n * max cost] allowed: ceil(log2(n * max cost + 1))
        assert report.stats["probes"] <= (len(inst.agents) * max(inst.cost.values())).bit_length(), seed
        assert report.stats == solve_minmax(inst).stats, seed
    assert solve_minmax(gen_random(300, 12, 4, 3, 0)).stats == {"probes": 7, "proposals": 494}
    assert solve_minmax(gen_master_list(300, 12, 4, 3, 0)).stats == {"probes": 8, "proposals": 526}
    # the crowding market: the run at the top puts all 2,000 agents at p1,
    # every probe below t=2000 evicts the excess to p0, so the 2,000
    # proposals at p1 and 2,000 at p0 are all the work done
    report = solve_minmax(_crowding_market(2000))
    assert report.stats == {"probes": 11, "proposals": 4000}
