"""Fast heuristics for total spend, and the bounds they are sold under."""

from __future__ import annotations

import pytest

import helpers
from flexq import (
    SmfqInstance,
    approx_promote,
    approx_restrict,
    approx_via_minmax,
    bench_instance,
    gen_example1,
    gen_example2,
    gen_fig1,
    gen_fig2,
    gen_master_list,
    gen_random,
    is_a_perfect,
    is_envy_free,
    lower_bound_sum,
    min_cost_program,
    oracle_minsum,
    solve_minmax,
    total_cost,
)
from flexq.cli import cli


def test_cheapest_program_breaks_cost_ties_by_preference():
    inst = SmfqInstance(
        agents=["a1"], programs=["p1", "p2"],
        agent_pref={"a1": ["p2", "p1"]},
        program_pref={"p1": ["a1"], "p2": ["a1"]},
        cost={"p1": 3, "p2": 3})
    assert min_cost_program(inst, "a1") == "p2"


def test_choice_summary_on_the_canonical_market():
    _, h = gen_fig1()
    p_star = {a: min_cost_program(h, a) for a in h.agents}
    assert p_star == {"a1": "p1", "a2": "p1", "a3": "p1",
                      "a4": "p1", "a5": "p2"}
    assert max(map(len, h.program_pref.values()), default=0) == 5  # p2 ranks five agents
    assert lower_bound_sum(h) == 1 + 1 + 1 + 1 + 2


def test_promotion_wins_where_restriction_crowds_the_pricey_program():
    inst = gen_example1(5, 100)
    assert approx_promote(inst).objective == 104   # n-1 + alpha
    assert approx_restrict(inst).objective == 500  # n * alpha
    assert oracle_minsum(inst).objective == 104


def test_restriction_wins_where_promotion_cascades():
    inst = gen_example2(5, 100)
    assert approx_promote(inst).objective == 402   # 2 + (n-1) * alpha
    assert approx_restrict(inst).objective == 108  # 2(n-1) + alpha
    assert oracle_minsum(inst).objective == 108


@pytest.mark.parametrize("n", [4, 6, 9])
def test_tight_family_pins_both_heuristics_at_n(n):
    inst = gen_fig2(n)
    assert lower_bound_sum(inst) == 1
    assert approx_promote(inst).objective == n
    assert approx_restrict(inst).objective == n


def test_via_minmax_on_the_canonical_market():
    _, h = gen_fig1()
    report = approx_via_minmax(h)
    assert report.objective == 7  # happens to be optimal here
    assert report.method == "via-minmax"
    assert not report.certified_optimal
    assert report.stats == solve_minmax(h).stats != {}


def test_reports_are_marked_uncertified():
    inst = gen_example1(5, 100)
    for solver in (approx_promote, approx_restrict, approx_via_minmax):
        report = solver(inst)
        assert not report.certified_optimal
        assert report.objective == total_cost(inst, report.matching)


def test_examples_scale_with_their_parameters():
    for n, alpha in [(3, 3), (4, 10), (7, 13), (10, 1000)]:
        e1 = gen_example1(n, alpha)
        assert approx_promote(e1).objective == n - 1 + alpha
        assert approx_restrict(e1).objective == n * alpha
        e2 = gen_example2(n, alpha)
        assert approx_promote(e2).objective == 2 + (n - 1) * alpha
        assert approx_restrict(e2).objective == 2 * (n - 1) + alpha


def test_heuristic_outputs_are_stable_and_bounded():
    for seed in range(120):
        inst = bench_instance(seed)
        ell_p = max(map(len, inst.program_pref.values()), default=0)
        lb = lower_bound_sum(inst)
        opt = oracle_minsum(inst).objective
        assert lb <= opt
        for solver in (approx_promote, approx_restrict, approx_via_minmax):
            report = solver(inst)
            assert is_a_perfect(inst, report.matching), (seed, report.method)
            assert is_envy_free(inst, report.matching).ok, (seed, report.method)
            assert report.objective >= opt
        assert approx_promote(inst).objective <= ell_p * lb
        assert approx_restrict(inst).objective <= ell_p * lb
        assert approx_via_minmax(inst).objective <= len(inst.programs) * opt


def test_bench_scores_its_max_spend_report_as_the_via_minmax_approximation(capsys):
    # the sweep's viamax column is the total spend of its own solve_minmax
    # matching, which is the matching approx_via_minmax reports
    assert cli(["bench", "--suite", "small", "--seeds", "600"]) == 0
    header, *rows, _ = capsys.readouterr().out.splitlines()
    col = header[2:].split("\t").index("viamax")
    assert len(rows) == 600
    for seed, row in enumerate(rows):
        inst = bench_instance(seed)
        mm, via = solve_minmax(inst), approx_via_minmax(inst)
        assert (via.matching, via.stats) == (mm.matching, mm.stats), seed
        assert int(row.split("\t")[col]) == via.objective == total_cost(inst, mm.matching), seed


def test_promotion_only_ever_fills_cheapest_seats():
    for seed in range(120):
        inst = bench_instance(seed)
        report = approx_promote(inst)
        allowed = {min_cost_program(inst, a) for a in inst.agents}
        assert set(report.matching.assignment.values()) <= allowed, seed


def test_promotion_equals_the_naive_list_scan():
    markets = [(f"bench {seed}", bench_instance(seed)) for seed in range(3000)]
    for seed in range(10):
        n = 100 + 20 * seed
        markets += [(f"random {n}", gen_random(n, 15, 4, 9, seed)),
                    (f"master {n}", gen_master_list(n, 15, 4, 9, seed))]
    for label, inst in markets:
        got = approx_promote(inst).matching.assignment
        assert list(got.items()) == list(helpers.promote_naive(inst).items()), label
