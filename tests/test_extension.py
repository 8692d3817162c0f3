"""Two-round pipeline: extend a quota-stable matching without creating envy."""

from __future__ import annotations

from collections import Counter

import pytest

import helpers
from flexq import (
    BudgetExceeded,
    HrInstance,
    Matching,
    NegativeCost,
    NotStable,
    QuotaViolated,
    ValidationError,
    bench_hr_instance,
    compute_extendable,
    gale_shapley_a_optimal,
    gen_fig1,
    is_envy_free,
    largest_extension,
    min_cost_extension,
    min_deviation_extension,
)


def canonical_context():
    g, _ = gen_fig1()
    m1 = gale_shapley_a_optimal(g)
    return g, m1, compute_extendable(g, m1)


def overflow(m1: Matching, ext) -> Counter:
    """How many leftover agents each program takes on in round two."""
    return Counter(ext.m2.assignment.values()) - Counter(m1.assignment.values())


def test_extension_graph_prunes_below_the_barrier():
    _, _, ctx = canonical_context()
    assert ctx.a_u == ["a3", "a5"]
    assert ctx.g_m == {"a3": ["p2", "p1"], "a5": ["p2"]}
    assert ctx.a_u_matchable == ["a3", "a5"]
    assert ctx.unextendable == []


def test_requires_a_stable_first_round():
    g, _, _ = canonical_context()
    with pytest.raises(NotStable):
        compute_extendable(g, Matching({}))  # empty leaves seats blocking
    with pytest.raises(QuotaViolated):
        compute_extendable(g, Matching({"a1": "p2", "a2": "p2"}))


def test_largest_extension_matches_everyone_to_their_top():
    g, m1, ctx = canonical_context()
    ext = largest_extension(ctx)
    assert ext.m2.assignment == {"a1": "p1", "a2": "p2", "a4": "p1",
                                 "a3": "p2", "a5": "p2"}
    assert overflow(m1, ext) == {"p2": 2}
    assert ext.d_star == 2
    assert is_envy_free(g, ext.m2).ok


def test_min_deviation_extension_balances_the_overflow():
    g, m1, ctx = canonical_context()
    ext = min_deviation_extension(ctx)
    assert ext.m2.assignment == {"a1": "p1", "a2": "p2", "a4": "p1",
                                 "a3": "p1", "a5": "p2"}
    assert overflow(m1, ext) == {"p1": 1, "p2": 1}
    assert ext.d_star == 1
    assert ext.round2_cost is None
    assert is_envy_free(g, ext.m2).ok


def test_min_cost_extension_prices_the_second_round():
    g, _, ctx = canonical_context()
    ext = min_cost_extension(ctx, {"p1": 1, "p2": 2})
    assert ext.round2_cost == 3  # a3 at p1 for 1, a5 at p2 for 2
    assert ext.m2.assignment == {"a1": "p1", "a2": "p2", "a4": "p1",
                                 "a3": "p1", "a5": "p2"}
    assert ext.d_star == 1
    # different prices steer the same agents elsewhere
    ext2 = min_cost_extension(ctx, {"p1": 5, "p2": 1})
    assert ext2.round2_cost == 2
    assert ext2.m2.assignment["a3"] == "p2"


def test_min_cost_extension_forwards_the_budget():
    _, _, ctx = canonical_context()
    with pytest.raises(BudgetExceeded):
        min_cost_extension(ctx, {"p1": 1, "p2": 2}, budget=1)  # two cost tuples
    ext = min_cost_extension(ctx, {"p1": 1, "p2": 2}, budget=1, force=True)
    assert ext.round2_cost == 3


def test_min_cost_extension_validates_its_price_table():
    _, _, ctx = canonical_context()
    with pytest.raises(ValidationError) as err:
        min_cost_extension(ctx, {"p1": 1})
    assert "p2" in str(err.value)
    with pytest.raises(ValidationError):
        min_cost_extension(ctx, {"p1": 1, "p2": -2})
    # with several bad prices, the first program in instance order is named
    with pytest.raises(NegativeCost, match="program p1 "):
        min_cost_extension(ctx, {"p1": -1, "p2": -2})


def two_leftover_programs_market() -> HrInstance:
    """u is left over and may join p3 or p2; nobody can join p1."""
    return HrInstance(
        agents=["x1", "x2", "x3", "u"],
        programs=["p1", "p2", "p3"],
        agent_pref={"x1": ["p1"], "x2": ["p2"], "x3": ["p3"], "u": ["p3", "p2"]},
        program_pref={"p1": ["x1"], "p2": ["x2", "u"], "p3": ["x3", "u"]},
        cost={"p1": 0, "p2": 0, "p3": 0},
        quota={"p1": 1, "p2": 1, "p3": 1},
    )


def test_missing_round_two_prices_name_the_first_program_in_round_one_order():
    g = two_leftover_programs_market()
    ctx = compute_extendable(g, gale_shapley_a_optimal(g))
    assert ctx.g_m == {"u": ["p3", "p2"]}
    # u lists p3 first, but the round-one market lists p2 first
    with pytest.raises(ValidationError, match="missing round-two cost for program p2$"):
        min_cost_extension(ctx, {"p1": 1})


def test_programs_outside_the_extension_graph_need_no_price():
    g = two_leftover_programs_market()
    ctx = compute_extendable(g, gale_shapley_a_optimal(g))
    ext = min_cost_extension(ctx, {"p2": 1, "p3": 2})
    assert ext.m2.assignment["u"] == "p2"
    assert ext.round2_cost == 1


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


def test_unmatchable_agents_are_reported_not_matched():
    g = unextendable_market()
    m1 = gale_shapley_a_optimal(g)
    assert m1.assignment == {"a0": "p2", "a1": "p1"}
    ctx = compute_extendable(g, m1)
    assert ctx.a_u_matchable == []
    assert ctx.unextendable == ["a2"]
    ext = min_deviation_extension(ctx)
    assert ext.m2 == m1
    assert ext.d_star == 0
    ext = min_cost_extension(ctx, {"p1": 4, "p2": 4})
    assert ext.m2 == m1
    assert ext.round2_cost == 0
    # nothing to search, so even a zero budget is enough
    assert min_cost_extension(ctx, {"p1": 4, "p2": 4}, budget=0).round2_cost == 0
    # and with no leftover to place, no program needs a price
    assert min_cost_extension(ctx, {}).round2_cost == 0
    # and indeed placing a2 at p2 would make a1 envious
    forced = Matching(dict(m1.assignment) | {"a2": "p2"})
    assert not is_envy_free(g, forced).ok


def test_extension_graph_matches_the_naive_scan():
    """Every stable round one, not only deferred acceptance's, on small markets."""
    for seed in range(80):
        inst = bench_hr_instance(seed)
        rounds = [gale_shapley_a_optimal(inst).assignment, *helpers.all_hr_stable_assignments(inst)]
        for assignment in rounds:
            ctx = compute_extendable(inst, Matching(assignment))
            assert ctx.g_m == helpers.extension_graph_naive(inst, assignment), (seed, assignment)


def test_every_extension_is_envy_free_on_the_full_market():
    for seed in range(80):
        inst = bench_hr_instance(seed)
        m1 = gale_shapley_a_optimal(inst)
        ctx = compute_extendable(inst, m1)
        for build in (largest_extension, min_deviation_extension):
            ext = build(ctx)
            assert is_envy_free(inst, ext.m2).ok, (seed, build.__name__)
            # round one assignments are never disturbed
            for a, p in m1.assignment.items():
                assert ext.m2.assignment[a] == p
            # every matchable agent is matched, unextendable ones are not
            matched = set(ext.m2.assignment)
            assert matched == set(m1.assignment) | set(ctx.a_u_matchable)


def test_min_deviation_never_exceeds_the_largest_extension():
    for seed in range(80):
        inst = bench_hr_instance(seed)
        ctx = compute_extendable(inst, gale_shapley_a_optimal(inst))
        assert min_deviation_extension(ctx).d_star <= largest_extension(ctx).d_star


def test_matchable_sets_shrink_against_the_deferred_acceptance_round():
    """Whoever extends some stable matching also extends the agent-optimal one."""
    for seed in range(60):
        inst = bench_hr_instance(seed)
        best = set(compute_extendable(
            inst, gale_shapley_a_optimal(inst)).a_u_matchable)
        for m in map(Matching, helpers.all_hr_stable_assignments(inst)):
            other = set(compute_extendable(inst, m).a_u_matchable)
            assert other <= best, seed
