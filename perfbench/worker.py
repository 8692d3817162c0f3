"""Child process of the benchmark: one set-up, or one measured run.

    python3 perfbench/worker.py setup <workload> <seed> <workdir>
    python3 perfbench/worker.py run <workload> <workdir> <seconds> <trace>

``setup`` times importing flexq plus generating and writing the inputs and
prints ``{"setup_s": ..., "chunks": [...]}``, with two calibration chunks
(``speed.py``) timed after the set-up.  ``run`` is a closed loop with one
client: it sends the workload's requests one at a time as in-process
``flexq.cli.cli`` calls with stdout captured.  Pass 0 is a warm-up whose
outputs are kept for the parent to check; later passes are measured until
``seconds`` have passed and at least ``workloads.MIN_PASSES`` have run.
With trace 1, traced and untraced passes alternate and the spans are written
to ``<workdir>/spans.jsonl``.  Every pass records each request's latency,
exit code and output digest in ``<workdir>/run.json``, with the calibration
chunks timed between requests and the index of the chunk before each one.
"""

from __future__ import annotations

import time

import speed  # its import is not part of set-up

T_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def do_setup(name: str, seed: int, workdir: str) -> None:
    import flexq  # noqa: F401  (timed: import is part of set-up)

    workloads.setup(name, seed, workdir)
    setup_s = time.perf_counter() - T_START
    print(json.dumps({"setup_s": setup_s, "chunks": [speed.chunk(), speed.chunk()]}))


def run_pass(cli, reqs, pass_no: int, workdir: str, tracer) -> dict:
    samples = []
    chunks = [speed.chunk()]
    t_chunk = time.perf_counter()
    for req in reqs:
        if time.perf_counter() - t_chunk >= speed.GAP_S:
            chunks.append(speed.chunk())
            t_chunk = time.perf_counter()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.rid, tracer.pass_no = req.rid, pass_no
            span = tracer.begin("request")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli(list(req.argv))
            error = None
        except Exception as exc:  # a raising request is a failed request, not a crash
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
        text = out.getvalue()
        if pass_no == 0:
            with open(workloads.out_path(workdir, req.rid), "w", encoding="utf-8") as fh:
                fh.write(text)
        samples.append({"rid": req.rid, "latency": latency, "chunk": len(chunks) - 1, "rc": rc,
                        "error": error, "stderr": err.getvalue()[-500:],
                        "sha": hashlib.sha256(text.encode("utf-8")).hexdigest()})
    chunks.append(speed.chunk())
    return {"pass": pass_no, "traced": tracer is not None, "chunks": chunks, "samples": samples}


def do_run(name: str, workdir: str, seconds: float, trace: bool) -> None:
    from flexq.cli import cli
    from spans import Tracer

    reqs = workloads.requests(name, workdir)
    tracer = Tracer() if trace else None
    passes = [run_pass(cli, reqs, 0, workdir, None)]
    t_end = time.perf_counter() + seconds
    # a traced run alternates traced and untraced passes, starting traced
    while time.perf_counter() < t_end or len(passes) <= workloads.MIN_PASSES:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            passes.append(run_pass(cli, reqs, len(passes), workdir, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if trace:
        with open(os.path.join(workdir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    with open(os.path.join(workdir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "peak_rss_mb": peak_kb / 1024}, fh)


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        do_setup(argv[1], int(argv[2]), argv[3])
    elif argv[0] == "run":
        do_run(argv[1], argv[2], float(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
