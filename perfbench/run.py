"""flexq benchmark: one workload, one run.

    python3 perfbench/run.py --workload large-markets --seed 1 --seconds 40 --trace 0

Run from the root of a flexq checkout.  The run sets the workload up in fresh
child processes, then measures it in one more child for ``--seconds``.
``setup_s`` is the median of SETUPS set-ups before the measurement and SETUPS
after it, so that it samples the host's speed at both ends of the run.  The
measuring child times calibration chunks (``speed.py``) between requests, and
every time in the end-to-end metrics is scaled to the reference machine speed
those chunks define; the raw times are printed as ``#`` lines.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` the
per-layer ones, from passes that wrap flexq's functions in spans.  Every
output is checked here, after the child has exited.  The last line of stdout
is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it print each metric with its unit and the
run's environment.  The exit code is 1 when a check fails and 2 when the
run cannot be made at all.  See perfbench/README.md for the workloads and
what each metric should respond to.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import checks
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 4
CHILD_TIMEOUT_S = 150
WORK_ROOT = ".bench_work"
COUNT_METRICS = ("minmax.probes", "hr.da_calls", "minsum.tuples", "oracle.space",
                 "extension.matchable_frac")


def environment(root: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for base in (os.path.join(root, "src", "flexq"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "source_digest": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed}


def child(args: list[str], root: str, timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args], cwd=root,
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its level."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 1.0
    return ordered[-11], 1 - 10 / len(ordered)


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[list], pass_no: int) -> dict[str, float]:
    """Per-layer totals of one traced pass; self time excludes child spans."""
    mine = [i for i, s in enumerate(spans) if s[5] == pass_no]
    dur = {i: spans[i][2] - spans[i][1] for i in mine}
    in_children: Counter = Counter()
    for i in mine:
        if spans[i][3] is not None:
            in_children[spans[i][3]] += dur[i]
    total: defaultdict = defaultdict(float)
    own: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    attrs: Counter = Counter()
    for i in mine:
        name = spans[i][0]
        total[name] += dur[i]
        own[name] += dur[i] - in_children[i]
        calls[name] += 1
        attrs.update(spans[i][6] or {})

    def t(*names: str) -> float:
        return sum(total[n] for n in names)

    minmax_s = t("cli.solve_minmax", "approx.solve_minmax", "extension.solve_minmax")
    build_s = t("minmax.build_quota_instance")
    minsum_s = t("cli.solve_minsum_exact", "extension.solve_minsum_exact")
    parse_s = own["cli.parse_instance"]
    sweep_s = sum(dur[i] for i in mine if spans[i][0] == "request" and spans[i][4] == "bench")
    da = ("minmax.gale_shapley_a_optimal", "cli.gale_shapley_a_optimal")
    return {
        "fileio.parse_s": parse_s,
        "fileio.parse_mb_per_s": attrs["bytes"] / 1e6 / parse_s if parse_s else 0.0,
        "model.validate_s": t("fileio.validate"),
        "cli.format_s": t("cli.format_matching"),
        "minmax.solve_s": minmax_s,
        "minmax.threshold_build_s": build_s,
        "minmax.build_share": build_s / minmax_s if minmax_s else 0.0,
        "minmax.probes": calls["minmax.feasible_at"],
        "hr.da_s": t(*da),
        "hr.da_calls": sum(calls[n] for n in da),
        "minsum.solve_s": minsum_s,
        "minsum.tuples": attrs["tuples"],
        "minsum.us_per_tuple": minsum_s / attrs["tuples"] * 1e6 if attrs["tuples"] else 0.0,
        "oracle.minsum_s": t("cli.oracle_minsum"),
        "oracle.minmax_s": t("cli.oracle_minmax"),
        "oracle.space": attrs["space"],
        "approx.promote_s": t("cli.approx_promote"),
        "approx.restrict_s": t("cli.approx_restrict"),
        "model.envy_scan_s": t("cli.is_envy_free"),
        "model.hr_scan_s": t("extension.is_hr_stable"),
        "extension.extendable_s": t("cli.compute_extendable"),
        "extension.min_deviation_s": t("cli.min_deviation_extension"),
        "extension.matchable_frac": (attrs["matchable"] / attrs["leftover"]
                                     if attrs["leftover"] else 0.0),
        "cli.self_s": own["request"],
        "xcheck.us_per_instance": sweep_s / workloads.SWEEP_SEEDS * 1e6,
    }


def compare_counts(path: str, counts: dict) -> str | None:
    """Counts must repeat across runs of the same inputs and source; the first
    run in a checkout records them, later runs compare."""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
        if before != counts:
            return f"count metrics {counts} differ from an earlier run's {before}"
        return None
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(counts, fh)
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flexq", "cli.py")):
        print("error: run from the root of a flexq checkout (src/flexq/cli.py not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    t_run = time.monotonic()
    env = environment(root, args.seed)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    def set_up() -> tuple[float, float]:
        """One set-up's raw time and its time at reference speed."""
        proc = child(["setup", args.workload, str(args.seed), workdir], root, CHILD_TIMEOUT_S)
        out = json.loads(proc.stdout.splitlines()[-1])
        return out["setup_s"], speed.scaled(out["setup_s"], *out["chunks"])

    setups = [set_up() for _ in range(SETUPS)]
    child(["run", args.workload, workdir, str(args.seconds), str(args.trace)], root,
          max(30.0, CHILD_TIMEOUT_S - (time.monotonic() - t_run)))
    # the inputs are rewritten byte for byte, so the outputs stay checkable
    setups += [set_up() for _ in range(SETUPS)]

    with open(os.path.join(workdir, "run.json"), encoding="utf-8") as fh:
        run = json.load(fh)
    with open(os.path.join(workdir, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))
    reqs = workloads.requests(args.workload, workdir)
    verdict, objectives, ratios = checks.check_outputs(reqs, workdir, meta)

    # a request fails if it raised, exited non-zero, failed its check, or
    # printed anything other than what the checked warm-up pass printed
    first = {s["rid"]: s["sha"] for s in run["passes"][0]["samples"]}
    problems = []
    attempted = failed = 0
    for p in run["passes"]:
        for s in p["samples"]:
            attempted += 1
            why = (s["error"] or (s["rc"] != 0 and f"exit {s['rc']}: {s['stderr']}")
                   or verdict[s["rid"]] or (s["sha"] != first[s["rid"]] and "output changed"))
            if why:
                failed += 1
                problems.append(f"pass {p['pass']} {s['rid']}: {why}")

    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    if args.seed == golden["seed"]:
        for rid, want in golden["objectives"][args.workload].items():
            if objectives.get(rid) != want:
                problems.append(f"golden: {rid} gave {objectives.get(rid)}, recorded {want}")

    for p in run["passes"]:
        for s in p["samples"]:
            s["scaled"] = speed.scaled(s["latency"], *p["chunks"][s["chunk"]:s["chunk"] + 2])
        p["wall"] = sum(s["latency"] for s in p["samples"])
        p["scaled"] = sum(s["scaled"] for s in p["samples"])
    measured = run["passes"][1:]
    chunks = [c for p in run["passes"] for c in p["chunks"]]
    metrics: dict[str, float] = {}
    if args.trace == 0:
        scaled = [s["scaled"] for p in measured for s in p["samples"]]
        raw = [s["latency"] for p in measured for s in p["samples"]]
        pool = measured[:workloads.MIN_PASSES]
        tail_s, tail_q = tail([s["scaled"] for p in pool for s in p["samples"]])
        metrics = {
            "wall_s": statistics.median(p["scaled"] for p in measured),
            "request_p50_s": statistics.median(scaled),
            "request_tail_s": tail_s,
            "peak_rss_mb": run["peak_rss_mb"],
            # only small-exact holds certified optima to compare heuristics with
            "approx_ratio": math.exp(statistics.fmean(map(math.log, ratios))) if ratios else 1.0,
            "setup_s": statistics.median(scaled_s for _, scaled_s in setups),
        }
        raw_pool = [s["latency"] for p in pool for s in p["samples"]]
        notes = [f"request_tail_s is p{100 * tail_q:.1f} of the n={len(raw_pool)} requests "
                 f"of the first {len(pool)} measured passes",
                 f"raw (unscaled): wall_s = {statistics.median(p['wall'] for p in measured):.6g} s,"
                 f" request_tail_s = {tail(raw_pool)[0]:.6g} s,"
                 f" request_p50_s = {statistics.median(raw):.6g} s,"
                 f" setup_s = {statistics.median(raw_s for raw_s, _ in setups):.6g} s",
                 f"failed_frac = {failed / attempted:.6f} ({failed} of {attempted})"]
    else:
        spans = load_spans(os.path.join(workdir, "spans.jsonl"))
        traced = [p for p in measured if p["traced"]]
        per_pass = [layer_metrics(spans, p["pass"]) for p in traced]
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            if name in COUNT_METRICS:
                if len(set(values)) != 1:
                    problems.append(f"count {name} changed between passes: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = (statistics.median(p["scaled"] for p in traced)
                                       - statistics.median(p["scaled"] for p in measured
                                                           if not p["traced"]))
        metrics["machine.calib_s"] = statistics.median(chunks)
        count_file = os.path.join(WORK_ROOT, "counts",
                                  f"{args.workload}-s{args.seed}-{env['source_digest']}.json")
        mismatch = compare_counts(count_file, {k: metrics[k] for k in COUNT_METRICS})
        if mismatch:
            problems.append(mismatch)
        notes = [f"traced passes = {len(traced)}, untraced = {len(measured) - len(traced)}"]

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(wanted) != sorted(metrics):
        print(f"error: BENCHMARK.json lists {wanted}, the run measured {list(metrics)}",
              file=sys.stderr)
        return 2
    correct = failed == 0 and not problems
    result = {"workload": args.workload, "env": env, "chunks_s": chunks, "setups_s": setups,
              "objectives": objectives, "problems": problems, "metrics": metrics,
              "notes": notes}
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(measured)} "
          + " ".join(f"{k}={v}" for k, v in env.items() if k != "seed"))
    print(f"# calibration chunk: median {statistics.median(chunks):.4f} s, "
          f"range {min(chunks):.4f}-{max(chunks):.4f} s over {len(chunks)} chunks, "
          f"reference {speed.REF_S} s")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for note in notes:
        print(f"# {note}")
    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
