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
    gen_random_hr,
    is_envy_free,
    largest_extension,
    min_cost_extension,
    min_deviation_extension,
)


def canonical_context():
    g, _ = gen_fig1()
    m1 = gale_shapley_a_optimal(g)
    return g, m1, compute_extendable(g, m1)


def overflow(m1: Matching, m2: Matching) -> Counter:
    """How many leftover agents each program takes on in round two."""
    return Counter(m2.assignment.values()) - Counter(m1.assignment.values())


def test_extension_graph_prunes_below_the_barrier():
    _, _, ctx = canonical_context()
    assert ctx.a_u == ["a3", "a5"]
    assert ctx.g_m == {"a3": ["p2", "p1"], "a5": ["p2"]}
    assert ctx.a_u_matchable == ["a3", "a5"]
    assert [a for a in ctx.a_u if not ctx.g_m[a]] == []


def test_requires_a_stable_first_round():
    g, _, _ = canonical_context()
    with pytest.raises(NotStable):
        compute_extendable(g, Matching({}))  # empty leaves seats blocking
    with pytest.raises(QuotaViolated):
        compute_extendable(g, Matching({"a1": "p2", "a2": "p2"}))


def test_largest_extension_matches_everyone_to_their_top():
    g, m1, ctx = canonical_context()
    m2 = largest_extension(ctx)
    assert m2.assignment == {"a1": "p1", "a2": "p2", "a4": "p1",
                             "a3": "p2", "a5": "p2"}
    assert overflow(m1, m2) == {"p2": 2}
    assert max(overflow(m1, m2).values()) == 2
    assert is_envy_free(g, m2).ok


def test_min_deviation_extension_balances_the_overflow():
    g, m1, ctx = canonical_context()
    ext = min_deviation_extension(ctx)
    assert ext.matching.assignment == {"a1": "p1", "a2": "p2", "a4": "p1",
                                       "a3": "p1", "a5": "p2"}
    assert overflow(m1, ext.matching) == {"p1": 1, "p2": 1}
    assert ext.objective == 1
    assert is_envy_free(g, ext.matching).ok


def test_min_cost_extension_prices_the_second_round():
    g, m1, ctx = canonical_context()
    ext = min_cost_extension(ctx, {"p1": 1, "p2": 2})
    assert ext.objective == 3  # a3 at p1 for 1, a5 at p2 for 2
    assert ext.matching.assignment == {"a1": "p1", "a2": "p2", "a4": "p1",
                                       "a3": "p1", "a5": "p2"}
    assert max(overflow(m1, ext.matching).values()) == 1
    # different prices steer the same agents elsewhere
    ext2 = min_cost_extension(ctx, {"p1": 5, "p2": 1})
    assert ext2.objective == 2
    assert ext2.matching.assignment["a3"] == "p2"


def test_min_cost_extension_forwards_the_budget():
    _, _, ctx = canonical_context()
    with pytest.raises(BudgetExceeded):
        min_cost_extension(ctx, {"p1": 1, "p2": 2}, budget=1)  # two search nodes
    assert min_cost_extension(ctx, {"p1": 1, "p2": 2}, budget=2).objective == 3
    assert min_cost_extension(ctx, {"p1": 1, "p2": 2}, budget=10**15).objective == 3


def test_min_cost_extension_budgets_the_nodes_not_the_tuple_product():
    # both restricted markets have 75,497,472 cost tuples, far over the default budget
    for seed, spend, nodes in ((1, 495, 372), (3, 598, 86)):
        g = gen_random_hr(500, 30, 6, 9, 10, seed)
        ctx = compute_extendable(g, gale_shapley_a_optimal(g))
        ext = min_cost_extension(ctx, dict(g.cost))
        assert (ext.objective, ext.stats) == (spend, {"nodes": nodes, "leaves": 1}), seed
        with pytest.raises(BudgetExceeded):
            min_cost_extension(ctx, dict(g.cost), budget=nodes - 1)


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
    # a price too long to print whole is still named in one short line
    for price in (-10**5000, "c" * 10_000):
        with pytest.raises(NegativeCost, match="program p1 ") as err:
            min_cost_extension(ctx, {"p1": price, "p2": 1})
        assert len(str(err.value)) < 120


def test_a_missing_price_names_a_long_program_id_cut():
    g, _, _ = canonical_context()
    long_p = "p" * 10_000
    ren = {"p2": long_p}.get
    g2 = HrInstance(g.agents, [ren(p, p) for p in g.programs],
                    {a: [ren(p, p) for p in lst] for a, lst in g.agent_pref.items()},
                    {ren(p, p): lst for p, lst in g.program_pref.items()},
                    {ren(p, p): c for p, c in g.cost.items()},
                    quota={ren(p, p): q for p, q in g.quota.items()})
    ctx = compute_extendable(g2, gale_shapley_a_optimal(g2))
    with pytest.raises(ValidationError) as err:
        min_cost_extension(ctx, {"p1": 1})
    assert str(err.value) == f"missing round-two cost for program {'p' * 40}... (10000 characters)"


def test_round_two_solvers_report_their_method_and_counters():
    _, _, ctx = canonical_context()
    assert isinstance(largest_extension(ctx), Matching)
    dev = min_deviation_extension(ctx)
    assert (dev.method, dev.certified_optimal) == ("extend-deviation", True)
    assert set(dev.stats) == {"probes", "proposals"}
    cost = min_cost_extension(ctx, {"p1": 1, "p2": 2})
    assert (cost.method, cost.certified_optimal) == ("extend-cost", True)
    assert set(cost.stats) == {"nodes", "leaves"}
    # with no matchable leftover, no search runs and no counter is reported
    g = helpers.unextendable_market()
    empty = min_cost_extension(compute_extendable(g, gale_shapley_a_optimal(g)), {})
    assert (empty.method, empty.objective, empty.stats) == ("extend-cost", 0, {})


def test_min_cost_extension_refuses_a_negative_budget():
    _, _, ctx = canonical_context()
    with pytest.raises(ValueError, match="non-negative"):
        min_cost_extension(ctx, {"p1": 1, "p2": 2}, budget=-1)
    # also when there is nothing to search
    g = helpers.unextendable_market()
    ctx = compute_extendable(g, gale_shapley_a_optimal(g))
    with pytest.raises(ValueError, match="non-negative"):
        min_cost_extension(ctx, {}, budget=-1)


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
    assert ext.matching.assignment["u"] == "p2"
    assert ext.objective == 1


def test_unmatchable_agents_are_reported_not_matched():
    g = helpers.unextendable_market()
    m1 = gale_shapley_a_optimal(g)
    assert m1.assignment == {"a0": "p2", "a1": "p1"}
    ctx = compute_extendable(g, m1)
    assert ctx.a_u_matchable == []
    assert [a for a in ctx.a_u if not ctx.g_m[a]] == ["a2"]
    ext = min_deviation_extension(ctx)
    assert ext.matching == m1
    assert ext.objective == 0
    ext = min_cost_extension(ctx, {"p1": 4, "p2": 4})
    assert ext.matching == m1
    assert ext.objective == 0
    # nothing to search, so even a zero budget is enough
    assert min_cost_extension(ctx, {"p1": 4, "p2": 4}, budget=0).objective == 0
    # and with no leftover to place, no program needs a price
    assert min_cost_extension(ctx, {}).objective == 0
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
        for m2, name in ((largest_extension(ctx), "largest"),
                         (min_deviation_extension(ctx).matching, "deviation")):
            assert is_envy_free(inst, m2).ok, (seed, name)
            # round one assignments are never disturbed
            for a, p in m1.assignment.items():
                assert m2.assignment[a] == p
            # every matchable agent is matched, unextendable ones are not
            matched = set(m2.assignment)
            assert matched == set(m1.assignment) | set(ctx.a_u_matchable)


def test_min_deviation_never_exceeds_the_largest_extension():
    for seed in range(80):
        inst = bench_hr_instance(seed)
        m1 = gale_shapley_a_optimal(inst)
        ctx = compute_extendable(inst, m1)
        largest = max(overflow(m1, largest_extension(ctx)).values(), default=0)
        assert min_deviation_extension(ctx).objective <= largest


def test_matchable_sets_shrink_against_the_deferred_acceptance_round():
    """Whoever extends some stable matching also extends the agent-optimal one."""
    for seed in range(60):
        inst = bench_hr_instance(seed)
        best = set(compute_extendable(
            inst, gale_shapley_a_optimal(inst)).a_u_matchable)
        for m in map(Matching, helpers.all_hr_stable_assignments(inst)):
            other = set(compute_extendable(inst, m).a_u_matchable)
            assert other <= best, seed
