"""The command-line workbench: output contracts and exit codes."""

from __future__ import annotations

import ast
import gc
import hashlib
import importlib.util
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import flexq
import helpers
from flexq import (
    Matching,
    SmfqInstance,
    SolveReport,
    gen_example1,
    gen_fig1,
    gen_fig2,
    gen_master_list,
    gen_random_hr,
    parse_instance,
    parse_set_cover,
    reduce_set_cover,
    serialize_instance,
)
from flexq.cli import cli, main


@pytest.fixture()
def fig1_h(tmp_path):
    _, h = gen_fig1()
    path = tmp_path / "fig1H.smfq"
    path.write_text(serialize_instance(h))
    return str(path)


@pytest.fixture()
def fig1_g(tmp_path):
    g, _ = gen_fig1()
    path = tmp_path / "fig1G.hr"
    path.write_text(serialize_instance(g))
    return str(path)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solving


def test_solve_minsum_exact(capsys, fig1_h):
    code, out, _ = run(capsys, "solve", "minsum", "--method", "exact", fig1_h)
    assert code == 0
    assert "# objective=7" in out
    assert "# method=minsum-exact" in out
    assert "# certified=true" in out
    assert out.splitlines()[0] == "a1 -> p1"


def test_solve_minmax(capsys, fig1_h):
    code, out, _ = run(capsys, "solve", "minmax", fig1_h)
    assert code == 0
    assert "# objective=4" in out
    assert "# method=minmax" in out


def test_solve_heuristics(capsys, tmp_path):
    path = tmp_path / "ex1.smfq"
    path.write_text(serialize_instance(gen_example1(5, 100)))
    code, out, _ = run(capsys, "solve", "minsum", "--method", "promote", str(path))
    assert code == 0 and "# objective=104" in out and "# certified=false" in out
    code, out, _ = run(capsys, "solve", "minsum", "--method", "restrict", str(path))
    assert code == 0 and "# objective=500" in out
    code, out, _ = run(capsys, "solve", "minsum", "--method", "minmax", str(path))
    assert code == 0 and "# method=via-minmax" in out


def test_solve_output_passes_its_own_audit(capsys, fig1_h, tmp_path):
    _, out, _ = run(capsys, "solve", "minsum", "--method", "exact", fig1_h)
    mfile = tmp_path / "m.txt"
    mfile.write_text(out)
    code, out, _ = run(capsys, "check", fig1_h, "--matching", str(mfile))
    assert code == 0
    assert out == "a_perfect=true\nenvy_free=true\ntotal_cost=7\nmax_cost=4\n"


def test_check_flags_envy(capsys, fig1_h, tmp_path):
    mfile = tmp_path / "m.txt"
    mfile.write_text("a1 -> -\na2 -> p1\na3 -> p2\na4 -> -\na5 -> -\n")
    code, out, _ = run(capsys, "check", fig1_h, "--matching", str(mfile))
    assert code == 0
    assert "a_perfect=false" in out
    assert "envy_free=false" in out


# ---------------------------------------------------------------------------
# oracle and budgets


def test_oracle_subcommand(capsys, fig1_h):
    code, out, _ = run(capsys, "oracle", "minsum", fig1_h)
    assert code == 0 and "# objective=7" in out and "# method=oracle-minsum" in out
    code, out, _ = run(capsys, "oracle", "minmax", fig1_h)
    assert code == 0 and "# objective=4" in out


def test_oracle_on_the_empty_market(capsys, tmp_path):
    path = tmp_path / "empty.smfq"
    path.write_text("smfq 1\n[agents]\n[programs]\n")
    for objective in ("minsum", "minmax"):
        code, out, _ = run(capsys, "oracle", objective, str(path))
        assert code == 0
        assert out == f"# objective=0\n# method=oracle-{objective}\n# certified=true\n"


def test_oracle_handles_markets_deeper_than_the_recursion_limit(capsys, tmp_path):
    # one shared program, so the search space has at most two assignments, but
    # the enumeration descends once per agent.  In the wide market a0 also
    # lists a private p2 and is ranked first on p1, so its seat at p2 conflicts
    # with every other seat: a conflict-mask build quadratic in the agents
    # shows up here in --durations
    for n, wide in ((3000, False), (20000, False), (20000, True)):
        agents = [f"a{i}" for i in range(n)]
        prefs = {a: ["p1"] for a in agents}
        rosters, costs = {"p1": list(agents)}, {"p1": 1}
        if wide:
            prefs["a0"], rosters["p2"], costs["p2"] = ["p1", "p2"], ["a0"], 1
        inst = SmfqInstance(agents, list(rosters), prefs, rosters, costs)
        path = tmp_path / "deep.smfq"
        path.write_text(serialize_instance(inst))
        for objective in ("minsum", "minmax"):
            code, out, _ = run(capsys, "oracle", objective, str(path))
            assert code == 0, (n, wide)
            assert f"# objective={n}\n" in out and out.startswith("a0 -> p1\n"), (n, wide)


def test_extend_deviation_refuses_a_budget(capsys, fig1_g):
    # the deviation objective runs no budgeted search, so no budget may be given
    for budget in ("0", "5"):
        code, out, err = run(capsys, "extend", fig1_g, "--objective", "deviation", "--budget", budget)
        assert (code, out) == (2, ""), budget
        assert err.count("error:") == 1 and "--budget" in err, budget


def test_extend_deviation_refuses_a_cost_file(capsys, fig1_g, tmp_path):
    # the deviation objective prices nothing, so a cost file is refused unread
    prices = tmp_path / "round2.costs"
    prices.write_text("p1 5\np2 1\n")
    for path in (str(prices), "/nonexistent/round2.costs"):
        code, out, err = run(capsys, "extend", fig1_g, "--objective", "deviation", "--costs", path)
        assert (code, out) == (2, ""), path
        assert err.count("error:") == 1 and "--costs" in err, path
    # the budget checks come first and keep their messages
    code, _, err = run(capsys, "extend", fig1_g, "--objective", "deviation",
                       "--costs", str(prices), "--budget", "-1")
    assert code == 2 and "non-negative" in err and err.count("error:") == 1
    code, _, err = run(capsys, "extend", fig1_g, "--objective", "deviation",
                       "--costs", str(prices), "--budget", "5")
    assert code == 2 and "--budget" in err and "--costs" not in err


def test_polynomial_methods_refuse_a_budget(capsys, fig1_h):
    # only the exact method runs a budgeted search
    for method in ("promote", "restrict", "minmax"):
        for budget in ("0", "5"):
            code, out, err = run(capsys, "solve", "minsum", "--method", method, "--budget", budget, fig1_h)
            assert (code, out) == (2, ""), (method, budget)
            assert err.count("error:") == 1 and "--budget" in err, (method, budget)
    code, out, _ = run(capsys, "solve", "minsum", "--method", "exact", "--budget", "5", fig1_h)
    assert code == 0 and "# objective=7" in out


def test_budget_exit_code(capsys, fig1_h):
    code, _, err = run(capsys, "oracle", "minsum", "--budget", "3", fig1_h)
    assert code == 3
    assert "budget" in err
    # the oracle's fig1 walk takes 21 nodes, its nodes stat: 20 is one short
    code, _, err = run(capsys, "oracle", "minsum", "--budget", "20", fig1_h)
    assert code == 3 and "budget of 20 nodes" in err
    code, out, _ = run(capsys, "oracle", "minsum", "--budget", "21", fig1_h)
    assert code == 0 and "# objective=7" in out


def test_force_is_not_an_option(capsys, fig1_g, fig1_h):
    # the budget is the one limit: a larger --budget lifts it
    for argv in (("solve", "minsum", "--force", fig1_h), ("oracle", "minsum", "--force", fig1_h),
                 ("extend", fig1_g, "--objective", "cost", "--force")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "--force" in err, argv
    code, out, _ = run(capsys, "solve", "minsum", "--budget", str(10**15), fig1_h)
    assert code == 0 and "# objective=7" in out


# ---------------------------------------------------------------------------
# the two-round pipeline


def test_extend_deviation(capsys, fig1_g):
    code, out, _ = run(capsys, "extend", fig1_g, "--objective", "deviation")
    assert code == 0
    assert "a3 -> p1" in out and "a5 -> p2" in out
    assert "# objective=1" in out
    assert "# method=extend-deviation" in out


def test_extend_cost_uses_instance_prices_by_default(capsys, fig1_g):
    code, out, _ = run(capsys, "extend", fig1_g, "--objective", "cost")
    assert code == 0 and "# objective=3" in out


def test_extend_cost_with_a_price_file(capsys, fig1_g, tmp_path):
    prices = tmp_path / "round2.costs"
    prices.write_text("p1 5\np2 1\n")
    code, out, _ = run(capsys, "extend", fig1_g, "--objective", "cost",
                       "--costs", str(prices))
    assert code == 0
    assert "# objective=2" in out
    assert "a3 -> p2" in out
    # an empty path names no file; it does not fall back to the instance's prices
    code, out, err = run(capsys, "extend", fig1_g, "--objective", "cost", "--costs", "")
    assert (code, out) == (2, "") and err.count("error:") == 1


def test_extend_cost_honours_the_budget_flags(capsys, fig1_g):
    # the search on the restricted market expands two nodes: the root and one leaf
    code, _, err = run(capsys, "extend", fig1_g, "--objective", "cost", "--budget", "1")
    assert code == 3
    assert "budget" in err
    code, out, _ = run(capsys, "extend", fig1_g, "--objective", "cost", "--budget", "2")
    assert code == 0 and "# objective=3" in out


def test_extend_deviation_on_a_5000_agent_market_is_pinned(capsys, tmp_path):
    # round one, the extension graph and the max-spend search at the benchmark's size;
    # its stdout must not move with speedups
    path = tmp_path / "big.hr"
    path.write_text(serialize_instance(gen_random_hr(5000, 150, 10, 9, 40, 1)))
    code, out, _ = run(capsys, "extend", str(path), "--objective", "deviation")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "cce47a5041b4cde72e7ad8c1b2515cf0fc8ccbe826baddb05d5e6d2827fedc33")


def test_extend_requires_a_quota_instance(capsys, fig1_h):
    code, _, err = run(capsys, "extend", fig1_h, "--objective", "deviation")
    assert code == 2
    assert "hr 1" in err


# ---------------------------------------------------------------------------
# generation


def test_gen_writes_parsable_instances(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "fig2", "--n", "4")
    assert code == 0
    assert parse_instance(out) == gen_fig2(4)
    code, out, _ = run(capsys, "gen", "fig1")
    assert parse_instance(out) == gen_fig1()[1]
    code, out, _ = run(capsys, "gen", "fig1", "--variant", "hr")
    assert parse_instance(out) == gen_fig1()[0]
    code, out, _ = run(capsys, "gen", "masterlist", "--agents", "6", "--programs", "5",
                       "--list-len", "3", "--cost-max", "9", "--seed", "3")
    assert (code, out) == (0, serialize_instance(gen_master_list(6, 5, 3, 9, 3)))


def test_gen_random_is_deterministic(capsys):
    args = ("gen", "random", "--agents", "5", "--programs", "4",
            "--list-len", "3", "--cost-max", "6", "--seed", "42")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert parse_instance(first).agents == [f"a{i}" for i in range(1, 6)]


def test_gen_reductions_from_input_files(capsys, tmp_path):
    scfile = tmp_path / "cover.txt"
    scfile.write_text("elements 2\nset s1: e1\nset s2: e1 e2\nset s3: e2\n")
    code, out, _ = run(capsys, "gen", "setcover", str(scfile))
    assert code == 0
    expected = reduce_set_cover(parse_set_cover(scfile.read_text()))
    assert parse_instance(out) == expected

    gfile = tmp_path / "graph.txt"
    gfile.write_text("edge u v\n")
    code, out, _ = run(capsys, "gen", "vertexcover", str(gfile))
    assert code == 0
    assert "p_u cost=3" in out


def test_negative_counts_exit_2(capsys, fig1_h, fig1_g, tmp_path):
    code, _, err = run(capsys, "oracle", "minsum", "--budget", "-1", fig1_h)
    assert code == 2 and "non-negative" in err
    # extend refuses it too, where the objective runs no budgeted search
    code, _, err = run(capsys, "extend", fig1_g, "--objective", "deviation", "--budget", "-1")
    assert code == 2 and "non-negative" in err and err.count("error:") == 1
    path = tmp_path / "unextendable.hr"  # no leftover can be placed, so nothing is searched
    path.write_text(serialize_instance(helpers.unextendable_market()))
    code, _, err = run(capsys, "extend", str(path), "--objective", "cost", "--budget", "-1")
    assert code == 2 and "non-negative" in err and err.count("error:") == 1
    code, _, err = run(capsys, "bench", "--suite", "small", "--seeds", "-5")
    assert code == 2 and "non-negative" in err
    # the polynomial methods search nothing, but refuse a negative budget with the same message
    for method in ("promote", "restrict", "minmax"):
        code, out, err = run(capsys, "solve", "minsum", "--method", method, "--budget", "-1", fig1_h)
        assert (code, out) == (2, "") and "non-negative" in err and err.count("error:") == 1, method


def test_gen_parameter_errors_exit_2(capsys):
    code, _, err = run(capsys, "gen", "fig2", "--n", "1")
    assert code == 2 and err


# ---------------------------------------------------------------------------
# bench


def test_bench_reports_zero_violations(capsys):
    code, out, _ = run(capsys, "bench", "--suite", "small", "--seeds", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# seed")
    assert lines[-1] == "# violations=0"
    assert len(lines) == 8  # header + 6 rows + trailer
    _, again, _ = run(capsys, "bench", "--suite", "small", "--seeds", "6")
    assert out == again


def test_bench_sweep_output_is_pinned(capsys):
    # the benchmark's own sweep request; its stdout must not move with speedups
    code, out, _ = run(capsys, "bench", "--suite", "small", "--seeds", "600")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "88310909319db09dddea711b87176df2e6bfe00207b42b7641648508be7edb96")


def _break_exact_and_promote(monkeypatch):
    """Make every bench row flag two disagreements."""
    real_exact, real_promote = flexq.cli.solve_minsum_exact, flexq.cli.approx_promote

    def exact_one_over(instance, budget=None):
        rep = real_exact(instance, budget)
        return SolveReport(rep.matching, rep.objective + 1, rep.method, rep.stats)

    def promote_one_short(instance):
        rep = real_promote(instance)  # the first agent is left out
        return SolveReport(Matching(dict(list(rep.matching.assignment.items())[1:])),
                           rep.objective, rep.method, rep.stats)
    monkeypatch.setattr("flexq.cli.solve_minsum_exact", exact_one_over)
    monkeypatch.setattr("flexq.cli.approx_promote", promote_one_short)


def test_bench_flags_each_disagreement_and_exits_4(capsys, monkeypatch):
    _break_exact_and_promote(monkeypatch)
    code, out, _ = run(capsys, "bench", "--suite", "small", "--seeds", "3")
    _, *rows, trailer = out.splitlines()
    assert [row.split("\t")[-1] for row in rows] == ["exact!=oracle,promote:not-a-perfect"] * 3
    assert (code, trailer) == (4, "# violations=6")


def test_bench_counts_the_disagreements_found_in_a_forked_range(capsys, monkeypatch):
    # seeds 3..5 are the child's; a cut promote matching there may also show envy
    _break_exact_and_promote(monkeypatch)
    want = _sequential_bench(capsys, monkeypatch, 6)
    _, *rows, trailer = want[1].splitlines()
    flags = [row.split("\t")[-1].split(",") for row in rows]
    assert all(f[:2] == ["exact!=oracle", "promote:not-a-perfect"] for f in flags)
    assert (want[0], trailer) == (4, f"# violations={sum(map(len, flags))}")
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr("flexq.cli._workers", lambda seeds: 2)
    assert run(capsys, "bench", "--suite", "small", "--seeds", "6") == want
    assert len(forks) == 1 and _no_child_left()


def _count_forks(monkeypatch) -> list:
    """Record each os.fork call in the returned list."""
    forks, real_fork = [], os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _forbid_forks(monkeypatch):
    def no_fork():
        raise AssertionError("the sweep forked")
    monkeypatch.setattr(os, "fork", no_fork)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _sequential_bench(capsys, monkeypatch, seeds: int) -> tuple[int, str, str]:
    """The sweep as one in-process range, with every fork refused."""
    with monkeypatch.context() as m:
        m.setattr("flexq.cli._workers", lambda seeds: 1)
        _forbid_forks(m)
        return run(capsys, "bench", "--suite", "small", "--seeds", str(seeds))


# above the per-range minimum, and a multiple of neither 2 nor 3
UNEVEN_SEEDS = 203


@pytest.mark.parametrize("seeds", [0, 1, 7, UNEVEN_SEEDS])
def test_bench_output_does_not_depend_on_the_worker_count(capsys, monkeypatch, seeds):
    assert UNEVEN_SEEDS > flexq.cli._MIN_RANGE and UNEVEN_SEEDS % 2 and UNEVEN_SEEDS % 3
    want = _sequential_bench(capsys, monkeypatch, seeds)
    assert want[0] == 0 and want[1].endswith("# violations=0\n")
    for workers in (2, 3):
        forks = _count_forks(monkeypatch)
        monkeypatch.setattr("flexq.cli._workers", lambda seeds: workers)
        assert run(capsys, "bench", "--suite", "small", "--seeds", str(seeds)) == want, workers
        assert len(forks) == workers - 1 and _no_child_left()


@pytest.mark.parametrize("bad", [7, 2])  # in the child's range 5..9, then in the process's own
def test_bench_failure_in_any_range_reads_as_the_sequential_run(capsys, monkeypatch, bad):
    seeds, real_instance, real_minmax = [], flexq.cli.bench_instance, flexq.cli.solve_minmax

    def recorded_instance(seed):
        seeds.append(seed)
        return real_instance(seed)

    def failing_minmax(instance):
        if seeds[-1] == bad:
            raise AssertionError(f"synthetic failure at seed {bad}")
        return real_minmax(instance)
    monkeypatch.setattr("flexq.cli.bench_instance", recorded_instance)
    monkeypatch.setattr("flexq.cli.solve_minmax", failing_minmax)
    want = _sequential_bench(capsys, monkeypatch, 10)
    assert want[0] == 4 and want[2] == f"internal invariant violated: synthetic failure at seed {bad}\n"
    assert want[1].splitlines()[-1].startswith(f"{bad - 1}\t")
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr("flexq.cli._workers", lambda seeds: 2)
    assert run(capsys, "bench", "--suite", "small", "--seeds", "10") == want
    assert len(forks) == 1 and _no_child_left()


def test_bench_stops_its_children_when_interrupted(capsys, monkeypatch):
    # the children stall, so only a kill ends them before the interrupt propagates
    parent = os.getpid()

    def interrupted(instance):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyboardInterrupt
    monkeypatch.setattr("flexq.cli.solve_minmax", interrupted)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr("flexq.cli._workers", lambda seeds: 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli(["bench", "--suite", "small", "--seeds", "30"])
    capsys.readouterr()
    assert time.monotonic() - start < 30
    assert len(forks) == 2 and _no_child_left()


def test_bench_worker_count_follows_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    workers, least = flexq.cli._workers, flexq.cli._MIN_RANGE
    assert [workers(k) for k in (0, 20, least, 2 * least - 1, 2 * least, 3 * least + 1)] == [
        1, 1, 1, 1, 2, 3]
    assert workers(100 * least) == 8
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one range
    assert workers(100 * least) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert workers(100 * least) == 4
    monkeypatch.delattr(os, "fork")
    assert workers(100 * least) == 1


def test_bench_does_not_fork_beside_another_thread(capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    seeds = 3 * flexq.cli._MIN_RANGE
    assert flexq.cli._workers(seeds) == 3
    want = _sequential_bench(capsys, monkeypatch, seeds)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert flexq.cli._workers(seeds) == 1
        _forbid_forks(monkeypatch)
        got = run(capsys, "bench", "--suite", "small", "--seeds", str(seeds))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert got == want and not thread.is_alive()


def test_bench_sweeps_a_range_in_process_when_it_cannot_fork(capsys, monkeypatch):
    want = _sequential_bench(capsys, monkeypatch, 9)

    def out_of_processes():
        raise BlockingIOError(11, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", out_of_processes)
    monkeypatch.setattr("flexq.cli._workers", lambda seeds: 3)
    assert run(capsys, "bench", "--suite", "small", "--seeds", "9") == want


# ---------------------------------------------------------------------------
# exit codes and entry point


def test_parse_and_usage_failures_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.smfq"
    bad.write_text("smfq 1\n[agents]\noops\n")
    assert run(capsys, "solve", "minmax", str(bad))[0] == 2
    assert run(capsys, "solve", "minmax", str(tmp_path / "absent.smfq"))[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2


def test_internal_invariant_violations_exit_4(capsys, fig1_h, monkeypatch):
    def boom(instance):
        raise AssertionError("synthetic failure")
    monkeypatch.setattr("flexq.cli.solve_minmax", boom)
    code, _, err = run(capsys, "solve", "minmax", fig1_h)
    assert code == 4
    assert "invariant" in err


def test_commands_look_solvers_up_at_call_time(capsys, fig1_h, monkeypatch):
    # the parser is built once; a failed parse must not leave it stale, and a
    # solver swapped in afterwards (as the benchmark tracer does) must run
    assert run(capsys, "solve", "minmax", "--no-such-flag", fig1_h)[0] == 2
    calls = []
    real = flexq.cli.solve_minmax

    def spy(instance):
        calls.append(instance)
        return real(instance)
    monkeypatch.setattr("flexq.cli.solve_minmax", spy)
    code, out, _ = run(capsys, "solve", "minmax", fig1_h)
    assert code == 0
    assert "# objective=4" in out
    assert len(calls) == 1


@pytest.fixture()
def collector():
    """Leave the cyclic collector as the test found it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def test_commands_run_with_the_collector_off_and_restore_its_state(capsys, fig1_h, tmp_path,
                                                                   monkeypatch, collector):
    seen = []
    real = flexq.cli.solve_minmax

    def spy(instance):
        seen.append(gc.isenabled())
        return real(instance)
    monkeypatch.setattr("flexq.cli.solve_minmax", spy)
    absent = str(tmp_path / "absent.smfq")
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        for path, code in ((fig1_h, 0), (absent, 2)):
            assert run(capsys, "solve", "minmax", path)[0] == code
            assert gc.isenabled() is enabled, (enabled, path)
    assert seen == [False, False]


def test_no_command_leaves_cyclic_garbage(capsys, fig1_h, fig1_g, tmp_path, collector,
                                          monkeypatch):
    # with the collector off a reference cycle would outlive its command, so none may be made;
    # the 60-seed sweep is cut into two ranges, one of them swept by a forked child
    monkeypatch.setattr("flexq.cli._workers", lambda seeds: 2 if seeds == 60 else 1)
    matching = tmp_path / "fig1H.out"
    cover = tmp_path / "cover.sc"
    cover.write_text("elements 3\nset s1: e1 e2\nset s2: e2 e3\nset s3: e1 e3\n")
    commands = [("solve", "minmax", fig1_h)]
    commands += [("solve", "minsum", f"--method={m}", fig1_h)
                 for m in ("exact", "promote", "restrict", "minmax")]
    commands += [("check", fig1_h, "--matching", str(matching)),
                 ("oracle", "minsum", fig1_h), ("oracle", "minmax", fig1_h),
                 ("extend", fig1_g, "--objective", "deviation"),
                 ("extend", fig1_g, "--objective", "cost"),
                 ("gen", "fig1", "--variant", "hr"), ("gen", "fig2", "--n", "4"),
                 ("gen", "random", "--agents", "30", "--programs", "6", "--list-len", "3",
                  "--cost-max", "9", "--seed", "1"),
                 ("gen", "setcover", str(cover)),
                 ("bench", "--suite", "small", "--seeds", "50"),
                 ("bench", "--suite", "small", "--seeds", "60")]
    gc.collect()
    gc.disable()
    for argv in commands:
        code = cli(list(argv))
        found = gc.collect()
        out = capsys.readouterr().out
        if argv[:2] == ("solve", "minmax"):
            matching.write_text(out)
        assert (code, found) == (0, 0), argv


def test_every_exported_name_resolves():
    assert [name for name in flexq.__all__ if getattr(flexq, name, None) is None] == []


def test_every_traced_benchmark_site_resolves():
    # the benchmark tracer swaps these module attributes; a renamed one breaks its runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, _ in spans.SITES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert spans.SITES and missing == []


@pytest.mark.parametrize("exc, code", [(MemoryError, 3), (RecursionError, 4)])
def test_resource_errors_exit_without_a_traceback(capsys, fig1_h, monkeypatch, exc, code):
    def boom(instance, budget=None):
        raise exc
    monkeypatch.setattr("flexq.cli.solve_minsum_exact", boom)
    got, out, err = run(capsys, "solve", "minsum", "--method=exact", fig1_h)
    assert got == code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_internal_invariants_survive_optimized_mode(fig1_h):
    # python -O strips assert statements; a broken invariant must still exit 4
    script = ("import sys\n"
              "import flexq.minmax\n"
              "flexq.minmax.max_cost = lambda instance, matching: -1\n"
              "from flexq.cli import cli\n"
              f"sys.exit(cli(['solve', 'minmax', {fig1_h!r}]))\n")
    src = str(Path(flexq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert "invariant" in proc.stderr
    assert "# certified=true" not in proc.stdout


def test_package_has_no_assert_statements():
    # python -O strips them, so every invariant in the package must raise
    pkg = Path(flexq.__file__).resolve().parent
    found = [f"{path.relative_to(pkg)}:{node.lineno}"
             for path in sorted(pkg.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    # the runtime stays stdlib-only; relative imports stay inside the package
    pkg = Path(flexq.__file__).resolve().parent
    outside = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_oracle_imports_only_instance_accessors_from_the_package():
    # the oracle is the independent ground truth: no solver module may feed it
    path = Path(flexq.__file__).resolve().parent / "oracle.py"
    sources = [node.module for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert sources and set(sources) <= {"model", "budget", "errors"}, sources


def test_package_reads_no_environment_variable():
    # every setting comes in through an argument or a CLI flag
    pkg = Path(flexq.__file__).resolve().parent
    banned = {"environ", "environb", "getenv"}
    found = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in banned]
    assert found == []


def test_every_public_name_is_used_outside_the_tests():
    # a public name must be read by the package itself (its def/class line
    # does not count), by the benchmark, or documented in the README.
    # bench_hr_instance is the quota twin of the sweep's bench_instance and
    # is what the acceptance sweeps import
    exempt = {"bench_hr_instance"}
    root = Path(flexq.__file__).resolve().parents[2]
    read = set()
    for path in (root / "src" / "flexq").glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    text = (root / "README.md").read_text(encoding="utf-8") + "".join(
        path.read_text(encoding="utf-8") for path in sorted((root / "perfbench").glob("*.py")))
    read |= set(re.findall(r"\w+", text))
    assert [name for name in flexq.__all__ if name not in read | exempt] == []


def test_no_module_imports_a_private_name_from_another():
    # a name that starts with an underscore stays inside its module
    pkg = Path(flexq.__file__).resolve().parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("flexq")):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def _loaded_by_importing_the_cli(names: set[str]) -> tuple[int, str, str]:
    """Which of ``names`` a fresh ``python -S`` has loaded after ``import flexq.cli``."""
    # -S keeps site hooks, such as .pth files that preload typing, from hiding a regression
    src = str(Path(flexq.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import flexq.cli; "
            f"print(sorted(set({sorted(names)!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    assert _loaded_by_importing_the_cli({"dataclasses", "inspect", "typing"}) == (0, "[]\n", "")


def test_importing_the_cli_loads_no_process_or_thread_module():
    # bench forks with os alone, and imports signal only to stop a child of a sweep cut short
    names = {"concurrent", "multiprocessing", "pickle", "signal", "subprocess", "threading"}
    assert _loaded_by_importing_the_cli(names) == (0, "[]\n", "")


def test_console_entry_point(capsys, fig1_h, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["flexq", "solve", "minmax", fig1_h])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    assert "# objective=4" in capsys.readouterr().out


def test_module_entry_point(capsys, fig1_h, tmp_path):
    # python -m flexq.cli runs the same command as the console script
    src = str(Path(flexq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def module(*argv: str):
        return subprocess.run([sys.executable, "-m", "flexq.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    proc = module("solve", "minmax", fig1_h)
    code, out, _ = run(capsys, "solve", "minmax", fig1_h)
    assert (proc.returncode, proc.stdout) == (code, out) == (0, out)
    bad = tmp_path / "bad.smfq"
    bad.write_text("smfq 1\n[agents]\na1: p-1\n")
    proc = module("solve", "minmax", str(bad))
    assert proc.returncode == 2
    assert proc.stderr == "error: line 3: bad identifier 'p-1'\n"


def test_integer_fields_read_the_same_under_any_int_string_limit(tmp_path):
    # integers have at most 600 digits, and Python sets no int/str limit below 640
    src = str(Path(flexq.__file__).resolve().parent.parent)
    market = "smfq 1\n[agents]\na1: p1\n[programs]\np1 cost={}: a1\n"
    at_cap, over = tmp_path / "cap.smfq", tmp_path / "over.smfq"
    at_cap.write_text(market.format("9" * 600))
    over.write_text(market.format("9" * 601))
    seen = set()
    for limit in ("0", "640"):
        env = dict(os.environ, PYTHONINTMAXSTRDIGITS=limit, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        seen.add(tuple((proc.returncode, proc.stdout, proc.stderr) for proc in (
            subprocess.run([sys.executable, "-m", "flexq.cli", "solve", "minmax", str(path)],
                           env=env, capture_output=True, text=True, timeout=60)
            for path in (at_cap, over))))
    assert seen == {((0, f"a1 -> p1\n# objective={'9' * 600}\n# method=minmax\n# certified=true\n", ""),
                     (2, "", f"error: line 5: cost must be an integer, got '{'9' * 40}'... (601 characters)\n"))}
