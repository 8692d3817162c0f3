"""Command-line workbench tying the solvers, oracle, and generators together.

Subcommands::

    solve minmax <file>
    solve minsum [--method exact|promote|restrict|minmax] [--budget N] <file>
    check <file> --matching <mfile>
    oracle minsum|minmax <file> [--budget N]
    extend <hr-file> --objective deviation | --objective cost [--costs <file>] [--budget N]
    gen fig1|fig2|ex1|ex2|random|masterlist|setcover|vertexcover ...
    bench --suite small --seeds K

Solver output is a matching file (one ``agent -> program`` line per agent,
in instance order) followed by ``# objective=``, ``# method=``, and
``# certified=`` trailers.  Exit codes: 0 success, 2 parse or validation
error, 3 resources exhausted (search node budget exceeded or ``MemoryError``), 4
internal invariant violation (including ``RecursionError``: no code path
recurses with the input size).  Failures print one ``error:`` line to stderr,
never a traceback.  Identical argv and file contents produce byte-identical
stdout.

``bench`` cuts its seeds ``0..K-1`` into W contiguous ranges: W is the number
of CPUs the process may run on (``os.sched_getaffinity``, else
``os.cpu_count``), capped so that each range holds at least ``_MIN_RANGE``
seeds, and 1 where ``os.fork`` is missing or another thread is running.  The
process sweeps the first range itself while a forked child sweeps each other
one and sends its rows back through a pipe; the rows are written in seed
order.  A child that fails has its range swept again in-process, so stdout,
stderr and the exit code are those of one sequential sweep on any number of
CPUs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import os
import sys

from .approx import approx_promote, approx_restrict, approx_via_minmax, lower_bound_sum
from .budget import node_budget
from .errors import BudgetExceeded, ParseError, ValidationError
from .extension import compute_extendable, min_cost_extension, min_deviation_extension
from .fileio import (format_matching, format_value, parse_cost_file, parse_graph,
                     parse_instance, parse_matching, parse_set_cover,
                     serialize_instance)
from .generators import (bench_instance, gen_example1, gen_example2, gen_fig1,
                         gen_fig2, gen_master_list, gen_random,
                         reduce_set_cover, reduce_vertex_cover)
from .hr import gale_shapley_a_optimal
from .minmax import solve_minmax
from .minsum import solve_minsum_exact
from .model import (HrInstance, SolveReport, is_a_perfect, is_envy_free,
                    max_cost, total_cost)
from .oracle import oracle_minmax, oracle_minsum, oracle_optima


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _emit_report(instance, report: SolveReport) -> int:
    sys.stdout.write(format_matching(instance, report.matching, notes=[
        ("objective", report.objective),
        ("method", report.method),
        ("certified", report.certified_optimal),
    ]))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.file))
    if args.objective == "minmax":
        report = solve_minmax(instance)
    elif args.method == "exact":
        report = solve_minsum_exact(instance, budget=args.budget)
    elif args.budget is not None:
        node_budget(args.budget)  # a negative budget is refused as anywhere
        raise ValueError(f"--budget bounds no search with --method {args.method}")
    elif args.method == "promote":
        report = approx_promote(instance)
    elif args.method == "restrict":
        report = approx_restrict(instance)
    else:
        report = approx_via_minmax(instance)
    return _emit_report(instance, report)


def _cmd_check(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.file))
    matching = parse_matching(_read(args.matching), instance)
    verdict = is_envy_free(instance, matching)
    sys.stdout.write(
        f"a_perfect={format_value(is_a_perfect(instance, matching))}\n"
        f"envy_free={format_value(verdict.ok)}\n"
        f"total_cost={total_cost(instance, matching)}\n"
        f"max_cost={max_cost(instance, matching)}\n")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.file))
    solver = oracle_minsum if args.objective == "minsum" else oracle_minmax
    report = solver(instance, budget=args.budget)
    return _emit_report(instance, report)


def _cmd_extend(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.file))
    if not isinstance(instance, HrInstance):
        raise ParseError("extend needs an 'hr 1' instance (the first round runs under quotas)")
    round1 = gale_shapley_a_optimal(instance)
    ctx = compute_extendable(instance, round1)
    if args.objective == "deviation":
        if args.budget is not None:
            node_budget(args.budget)  # a negative budget is refused as anywhere
            raise ValueError("--budget bounds no search with --objective deviation")
        if args.costs is not None:
            raise ValueError("--costs prices round two only with --objective cost")
        report = min_deviation_extension(ctx)
    else:
        costs = parse_cost_file(_read(args.costs)) if args.costs is not None else instance.cost
        report = min_cost_extension(ctx, costs, budget=args.budget)
    return _emit_report(instance, report)


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "fig1":
        g, h = gen_fig1()
        instance = g if args.variant == "hr" else h
    elif args.family == "fig2":
        instance = gen_fig2(args.n)
    elif args.family == "ex1":
        instance = gen_example1(args.n, args.alpha)
    elif args.family == "ex2":
        instance = gen_example2(args.n, args.alpha)
    elif args.family == "random":
        instance = gen_random(args.agents, args.programs, args.list_len,
                              args.cost_max, args.seed)
    elif args.family == "masterlist":
        instance = gen_master_list(args.agents, args.programs, args.list_len,
                                   args.cost_max, args.seed)
    elif args.family == "setcover":
        instance = reduce_set_cover(parse_set_cover(_read(args.file)))
    else:
        instance = reduce_vertex_cover(parse_graph(_read(args.file)))
    sys.stdout.write(serialize_instance(instance))
    return 0


def _ratio(value: int, base: int) -> str:
    return f"{value / base:.3f}" if base else "-"


# Fewest seeds per forked range.  A fork plus its pipe costs about as much as
# ten seeds (1.7 ms against about 0.17 ms a seed, on a 2-core x86 host), so a
# range of 100 keeps that under a tenth of the range's own work.
_MIN_RANGE = 100


def _workers(seeds: int) -> int:
    """How many contiguous ranges a sweep of ``seeds`` seeds is cut into."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1  # a child forked beside another thread can deadlock on that thread's locks
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(cpus, seeds // _MIN_RANGE))


def _sweep(out, lo: int, hi: int) -> int:
    """Write the rows of seeds ``lo..hi-1`` to ``out``; returns their violation count."""
    violations = 0
    for seed in range(lo, hi):
        inst = bench_instance(seed)
        ell_p = max(map(len, inst.program_pref.values()), default=0)
        lb = lower_bound_sum(inst)
        exact = solve_minsum_exact(inst)
        osum, omax = oracle_optima(inst)
        mm = solve_minmax(inst)
        pro = approx_promote(inst)
        res = approx_restrict(inst)
        via = total_cost(inst, mm.matching)  # the max-spend matching scored as an approximation

        bad: list[str] = []
        if exact.objective != osum.objective:
            bad.append("exact!=oracle")
        if mm.objective != omax.objective:
            bad.append("minmax!=oracle")
        for rep in (exact, mm, pro, res):
            if not is_a_perfect(inst, rep.matching):
                bad.append(f"{rep.method}:not-a-perfect")
            if not is_envy_free(inst, rep.matching).ok:
                bad.append(f"{rep.method}:envy")
        if pro.objective > ell_p * lb:
            bad.append("promote-bound")
        if res.objective > ell_p * lb:
            bad.append("restrict-bound")
        if via > len(inst.programs) * osum.objective:
            bad.append("viamax-bound")
        violations += len(bad)

        out.write("\t".join(map(str, [
            seed, len(inst.agents), len(inst.programs),
            exact.objective, osum.objective, mm.objective, omax.objective,
            pro.objective, res.objective, via, lb,
            _ratio(pro.objective, osum.objective),
            _ratio(res.objective, osum.objective),
            _ratio(via, osum.objective),
            ",".join(bad) if bad else "ok",
        ])) + "\n")
    return violations


def _fork_sweep(lo: int, hi: int) -> list:
    """Sweep seeds ``lo..hi-1`` in a child that sends its violation count and
    rows through a pipe; returns ``[lo, hi, pid, read end]``, with pid and
    read end None when no pipe or process could be had."""
    fds: tuple[int, ...] = ()
    try:
        fds = os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return [lo, hi, None, None]
    if pid == 0:
        # the child never returns into its caller: it flushes no inherited
        # buffer, runs no handler of cli() and exits non-zero on any failure
        code = 1
        try:
            os.close(fds[0])
            rows = io.StringIO()
            violations = _sweep(rows, lo, hi)
            with open(fds[1], "w", encoding="utf-8") as pipe:
                pipe.write(f"{violations}\n{rows.getvalue()}")
            code = 0
        finally:
            os._exit(code)
    os.close(fds[1])
    return [lo, hi, pid, fds[0]]


def _cmd_bench(args: argparse.Namespace) -> int:
    """Cross-check every solver against the oracle on a seeded sweep."""
    if args.seeds < 0:
        raise ValueError(f"--seeds must be non-negative, got {args.seeds}")
    out = sys.stdout
    out.write("# seed\tagents\tprograms\texact\toracle\tminmax\toraclemax"
              "\tpromote\trestrict\tviamax\tlb\tpromote_ratio\trestrict_ratio"
              "\tviamax_ratio\tflags\n")
    workers = _workers(args.seeds)
    cuts = [args.seeds * i // workers for i in range(workers + 1)]
    children = []  # a pid or read end is set to None once it is reaped or closed
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            children.append(_fork_sweep(lo, hi))
        violations = _sweep(out, cuts[0], cuts[1])
        for child in children:
            lo, hi, pid, fd = child
            status = 1
            if pid is not None:
                child[3] = None  # closed by the with below, even when the read fails
                with open(fd, encoding="utf-8") as pipe:
                    count, _, rows = pipe.read().partition("\n")
                status = os.waitpid(pid, 0)[1]
                child[2] = None
            if status == 0:
                out.write(rows)
                violations += int(count)
            else:
                # a failed child's range runs again here, so its rows, error and
                # exit code are those of a sweep that never forked
                violations += _sweep(out, lo, hi)
    finally:
        for _, _, pid, fd in children:
            if fd is not None:
                os.close(fd)
            if pid is not None:
                import signal  # only a sweep cut short has a child left to stop
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    out.write(f"# violations={violations}\n")
    return 0 if violations == 0 else 4


@functools.cache  # built on first use; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexq",
        description="Solvers and tools for envy-free matching with per-program costs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", type=int, default=None,
                       help="most search nodes to expand (default 10^7); "
                            "a larger N lets a longer search finish")

    p_solve = sub.add_parser("solve", help="compute a matching for one objective")
    solve_sub = p_solve.add_subparsers(dest="objective", required=True)
    p_min = solve_sub.add_parser("minsum", help="minimize total cost")
    p_min.add_argument("--method", choices=("exact", "promote", "restrict", "minmax"),
                       default="exact")
    add_budget(p_min)
    p_min.add_argument("file")
    p_min.set_defaults(fn=_cmd_solve)
    p_max = solve_sub.add_parser("minmax", help="minimize the largest program spend")
    p_max.add_argument("file")
    p_max.set_defaults(fn=_cmd_solve)

    p_check = sub.add_parser("check", help="audit a matching file against its instance")
    p_check.add_argument("file")
    p_check.add_argument("--matching", required=True)
    p_check.set_defaults(fn=_cmd_check)

    p_oracle = sub.add_parser("oracle", help="brute-force optimum by enumeration")
    oracle_sub = p_oracle.add_subparsers(dest="objective", required=True)
    for name in ("minsum", "minmax"):
        p = oracle_sub.add_parser(name)
        add_budget(p)
        p.add_argument("file")
        p.set_defaults(fn=_cmd_oracle)

    p_ext = sub.add_parser(
        "extend", help="run the quota round, then optimally extend it without envy")
    p_ext.add_argument("file")
    p_ext.add_argument("--objective", choices=("deviation", "cost"), required=True)
    p_ext.add_argument("--costs", default=None,
                       help="per-program second-round cost file (defaults to instance costs)")
    add_budget(p_ext)
    p_ext.set_defaults(fn=_cmd_extend)

    p_gen = sub.add_parser("gen", help="emit a generated instance file")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g = gen_sub.add_parser("fig1")
    g.add_argument("--variant", choices=("smfq", "hr"), default="smfq")
    g.set_defaults(fn=_cmd_gen)
    g = gen_sub.add_parser("fig2")
    g.add_argument("--n", type=int, required=True)
    g.set_defaults(fn=_cmd_gen)
    for name in ("ex1", "ex2"):
        g = gen_sub.add_parser(name)
        g.add_argument("--n", type=int, default=5)
        g.add_argument("--alpha", type=int, default=100)
        g.set_defaults(fn=_cmd_gen)
    for name in ("random", "masterlist"):
        g = gen_sub.add_parser(name)
        g.add_argument("--agents", type=int, required=True)
        g.add_argument("--programs", type=int, required=True)
        g.add_argument("--list-len", type=int, required=True)
        g.add_argument("--cost-max", type=int, required=True)
        g.add_argument("--seed", type=int, required=True)
        g.set_defaults(fn=_cmd_gen)
    for name in ("setcover", "vertexcover"):
        g = gen_sub.add_parser(name)
        g.add_argument("file")
        g.set_defaults(fn=_cmd_gen)

    p_bench = sub.add_parser("bench", help="solver-vs-oracle sweep with ratio table")
    p_bench.add_argument("--suite", choices=("small",), default="small")
    p_bench.add_argument("--seeds", type=int, required=True)
    p_bench.set_defaults(fn=_cmd_bench)

    return parser


def cli(argv: list[str] | None = None) -> int:
    """Run one command; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # A command builds and holds a cycle-free market, so the cyclic
    # collector's passes, triggered by container allocations alone, would
    # find nothing; reference counting frees everything as before.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except (ParseError, ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except RecursionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
