"""Acceptance gate: ten end-to-end checks with one visible PASS/FAIL line each.

Criteria 5 and 6 deliberately share one 500-market sweep (the bounds are
checked on the same instances the oracle equivalence ran on), so the sweep is
computed once and cached.
"""

from __future__ import annotations

import functools
import itertools
import time

import helpers
from flexq import (
    GraphInstance,
    Matching,
    SetCoverInstance,
    approx_promote,
    approx_restrict,
    approx_via_minmax,
    bench_hr_instance,
    bench_instance,
    compute_extendable,
    gale_shapley_a_optimal,
    gen_example1,
    gen_example2,
    gen_fig1,
    gen_fig2,
    is_a_perfect,
    is_envy_free,
    largest_extension,
    lower_bound_sum,
    min_cost_extension,
    min_deviation_extension,
    oracle_minmax,
    oracle_minsum,
    reduce_set_cover,
    reduce_vertex_cover,
    serialize_instance,
    solve_minmax,
    solve_minsum_exact,
)
from flexq.cli import cli


def _run(capsys, num: int, limit: float | None, fn) -> None:
    t0 = time.perf_counter()
    try:
        msg = fn()
        ok = True
    except Exception as exc:  # the status line must appear either way
        ok, msg = False, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if ok and limit is not None and elapsed > limit:
        ok, msg = False, f"took {elapsed:.2f}s, over the {limit:.0f}s limit"
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} "
              f"{elapsed:8.2f}s  {msg}")
    assert ok, msg


# ---------------------------------------------------------------------------


def test_criterion_1_canonical_market_via_cli(capsys, tmp_path):
    def check():
        path = tmp_path / "fig1H.smfq"
        path.write_text(serialize_instance(gen_fig1()[1]))
        assert cli(["solve", "minsum", "--method", "exact", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# objective=7" in out, out
        assert cli(["solve", "minmax", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# objective=4" in out, out
        return "canonical market: total 7, largest spend 4 (via the CLI)"
    _run(capsys, 1, 1.0, check)


def test_criterion_2_promotion_example(capsys):
    def check():
        inst = gen_example1(5, 100)
        pro = approx_promote(inst).objective
        res = approx_restrict(inst).objective
        opt = oracle_minsum(inst).objective
        assert pro == 104, pro
        assert res == 500, res
        assert opt == 104, opt
        return "promote 104 = optimum, restrict 500 (n=5, alpha=100)"
    _run(capsys, 2, 1.0, check)


def test_criterion_3_restriction_example(capsys):
    def check():
        inst = gen_example2(5, 100)
        pro = approx_promote(inst).objective
        res = approx_restrict(inst).objective
        opt = oracle_minsum(inst).objective
        assert res == 108, res
        assert pro == 402, pro
        assert opt == 108, opt
        return "restrict 108 = optimum, promote 402 (n=5, alpha=100)"
    _run(capsys, 3, 1.0, check)


def test_criterion_4_lower_bound_gap_is_tight(capsys):
    def check():
        for n in (4, 6, 9):
            inst = gen_fig2(n)
            lb = lower_bound_sum(inst)
            assert lb == 1, (n, lb)
            assert oracle_minsum(inst).objective == n
            assert solve_minsum_exact(inst).objective == n
            assert max(map(len, inst.program_pref.values()), default=0) == n  # the ratio is exactly ell_p
        return "cheap-seat bound 1 vs optimum n for n=4,6,9 (ratio = ell_p)"
    _run(capsys, 4, 5.0, check)


# ---------------------------------------------------------------------------
# the shared 500-market sweep


@functools.lru_cache(maxsize=1)
def _sweep():
    records = []
    for seed in range(500):
        inst = bench_instance(seed)
        records.append((
            inst,
            solve_minsum_exact(inst),
            oracle_minsum(inst),
            solve_minmax(inst),
            oracle_minmax(inst),
            approx_promote(inst),
            approx_restrict(inst),
            approx_via_minmax(inst),
        ))
    return records


def test_criterion_5_solvers_match_the_oracle(capsys):
    def check():
        for inst, exact, osum, mm, omax, pro, res, via in _sweep():
            assert exact.objective == osum.objective
            assert mm.objective == omax.objective
            for rep in (exact, osum, mm, omax, pro, res, via):
                assert is_a_perfect(inst, rep.matching), rep.method
                assert is_envy_free(inst, rep.matching).ok, rep.method
        return "500 seeded markets: exact = oracle on both objectives, all outputs stable and full"
    _run(capsys, 5, 600.0, check)


def test_criterion_6_ratio_bounds_hold(capsys):
    def check():
        for inst, _, osum, _, _, pro, res, via in _sweep():
            ell_p = max(map(len, inst.program_pref.values()), default=0)
            lb = lower_bound_sum(inst)
            assert pro.objective <= ell_p * lb
            assert res.objective <= ell_p * lb
            assert via.objective <= len(inst.programs) * osum.objective
        return "500 seeded markets: promote/restrict within ell_p * bound, threshold route within |B| * optimum"
    _run(capsys, 6, 600.0, check)


def test_criterion_7_matchable_sets_nest_under_deferred_acceptance(capsys):
    def check():
        matchings = 0
        for seed in range(200):
            inst = bench_hr_instance(seed)
            best = set(compute_extendable(
                inst, gale_shapley_a_optimal(inst)).a_u_matchable)
            for m in map(Matching, helpers.all_hr_stable_assignments(inst)):
                other = set(compute_extendable(inst, m).a_u_matchable)
                assert other <= best, seed
                matchings += 1
        return (f"200 quota markets, {matchings} stable matchings: "
                "extendable agents always nest inside the agent-optimal round")
    _run(capsys, 7, 600.0, check)


def test_criterion_8_extension_worked_example(capsys):
    def check():
        g, _ = gen_fig1()
        ctx = compute_extendable(g, gale_shapley_a_optimal(g))
        assert ctx.a_u_matchable == ["a3", "a5"]
        big = largest_extension(ctx)
        assert big.assignment == {"a1": "p1", "a2": "p2", "a4": "p1",
                                     "a3": "p2", "a5": "p2"}
        assert min_deviation_extension(ctx).objective == 1
        assert min_cost_extension(ctx, {"p1": 1, "p2": 2}).objective == 3
        return "matchable {a3,a5}; largest fills p2, min deviation 1, min round-two cost 3"
    _run(capsys, 8, 1.0, check)


def test_criterion_9_reduction_soundness(capsys):
    def check():
        count = 0
        for m in range(2, 6):
            set_ids = [f"s{i}" for i in range(1, m + 1)]
            pairs = list(itertools.combinations(range(m), 2))
            for n in range(1, 6):
                for combo in itertools.combinations_with_replacement(pairs, n):
                    sets: dict[str, list[str]] = {s: [] for s in set_ids}
                    elements = []
                    for j, (x, y) in enumerate(combo, start=1):
                        e = f"e{j}"
                        elements.append(e)
                        sets[set_ids[x]].append(e)
                        sets[set_ids[y]].append(e)
                    sc = SetCoverInstance(sets=sets, elements=elements, f=2)
                    tau = helpers.brute_min_cover(sets, elements)
                    got = oracle_minsum(reduce_set_cover(sc)).objective
                    assert got == n + tau, (sets, got, n + tau)
                    count += 1
        triangle = GraphInstance(
            vertices=["v1", "v2", "v3"],
            edges=[("v1", "v2"), ("v2", "v3"), ("v1", "v3")])
        tau = helpers.brute_min_vertex_cover(triangle.vertices, triangle.edges)
        got = oracle_minsum(reduce_vertex_cover(triangle)).objective
        assert tau == 2 and got == 36, (tau, got)
        return (f"{count} covering instances (<=5 sets, <=5 elements, "
                "every element in 2 sets, up to renaming) plus the 3-cycle: "
                "optimum = size + cover everywhere")
    _run(capsys, 9, 300.0, check)


def test_criterion_10_asymptotic_results_are_proof_level(capsys):
    def check():
        return ("hardness and inapproximability factors have no finite runtime "
                "witness; their constructive content is exercised by the "
                "reduction family (criterion 9) and the ratio sweep (criterion 6)")
    _run(capsys, 10, None, check)
