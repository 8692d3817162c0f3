"""The two workloads: seeded input files and the request list one pass runs.

``setup`` is the only code here that calls into flexq (its generators and
serializer); it runs in the set-up child and is what ``setup_s`` times.
``requests`` only names files, so the measuring child can build its list
without touching the package.  Sizes are chosen so one pass takes a few
seconds on a 2-core x86 box, which gives every run several passes and more
than ten samples of its slowest request.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import NamedTuple

NAMES = ("large-markets", "small-exact")

# Every run measures at least this many passes, even past ``--seconds`` on a
# slow host, and ``request_tail_s`` pools exactly the first this many.  A
# pass's requests fall into classes of very different latency, one sample
# per class and pass, so a tail pooled over a varying number of passes would
# jump between classes as the count changed.
MIN_PASSES = 6

# large-markets sizes
BIG_AGENTS = 5000
BIG_PROGRAMS = 150
LIST_LEN = 10
COST_MAX = 9
QUOTA_MAX = 40
MASTER_HR_PROGRAMS = 100
MASTER_HR_QUOTA_MAX = 100
CROWD_AGENTS = 4000

# small-exact sizes.  The random markets are the same for every seed: the
# first EXACT_MARKETS draws of a fixed stream that have exactly EXACT_TUPLES
# cost tuples.  Between draws of this shape the exact solver's time varies
# fivefold unless the tuple count is fixed, and the oracle's still varies
# twofold (9-21 ms), so seeded markets would let the seed move the request
# mix.  The seed picks the set-cover graphs, whose solve time varies by
# about 13% (IQR/median over twelve seeds at 14 vertices).  They are kept
# small enough that each solves faster than the slowest fixed markets, so
# that request_tail_s falls among fixed requests, not seeded ones.
EXACT_MARKETS = 8
EXACT_STREAM = 0
EXACT_SHAPE = (12, 6, 3, 9)          # agents, programs, list length, cost_max
EXACT_TUPLES = 2 ** 7 * 3 ** 5       # 31104
COVER_GRAPHS = ((12, 24), (13, 26))  # (vertices, edges) of the set-cover inputs
SWEEP_SEEDS = 600


class Request(NamedTuple):
    """One CLI call.  ``kind`` picks its check; ``file`` is the instance it
    reads; ``ref`` names the request whose output it reads or is judged by."""

    rid: str
    kind: str
    argv: tuple[str, ...]
    file: str | None = None
    ref: str | None = None


def _path(workdir: str, name: str) -> str:
    return os.path.join(workdir, name)


def out_path(workdir: str, rid: str) -> str:
    """Where the first pass leaves a request's stdout."""
    return os.path.join(workdir, "out", rid.replace(":", "_") + ".txt")


def setup(name: str, seed: int, workdir: str) -> None:
    """Generate the workload's inputs from ``seed`` and write them to ``workdir``."""
    from flexq.fileio import serialize_instance

    os.makedirs(_path(workdir, "out"), exist_ok=True)
    files, meta = {"large-markets": _large_markets, "small-exact": _small_exact}[name](seed)
    for fname, instance in files.items():
        with open(_path(workdir, fname), "w", encoding="utf-8") as fh:
            fh.write(serialize_instance(instance))
    with open(_path(workdir, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def _small_exact(seed: int):
    from flexq.generators import SetCoverInstance, gen_random, reduce_set_cover
    from flexq.minsum import distinct_costs_per_agent

    stream = random.Random(EXACT_STREAM)
    files = {}
    for i in range(EXACT_MARKETS):
        while True:
            inst = gen_random(*EXACT_SHAPE, stream.randrange(1 << 30))
            if math.prod(map(len, distinct_costs_per_agent(inst))) == EXACT_TUPLES:
                break
        files[f"rand{i}.smfq"] = inst
    rng = random.Random(seed)
    graphs = {}
    for n, m in COVER_GRAPHS:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, m)
        sets = {f"v{u}": [] for u in range(n)}
        for k, (u, v) in enumerate(edges):
            sets[f"v{u}"].append(f"e{k}")
            sets[f"v{v}"].append(f"e{k}")
        cover = SetCoverInstance(sets=sets, elements=[f"e{k}" for k in range(m)], f=2)
        files[f"cover{n}.smfq"] = reduce_set_cover(cover)
        graphs[f"cover{n}.smfq"] = {"vertices": n, "edges": edges}
    return files, {"graphs": graphs}


def _large_markets(seed: int):
    from flexq.generators import gen_master_list, gen_random, gen_random_hr
    from flexq.model import HrInstance, SmfqInstance

    rng = random.Random(seed)
    shape = (BIG_AGENTS, BIG_PROGRAMS, LIST_LEN, COST_MAX, seed)
    base = gen_master_list(BIG_AGENTS, MASTER_HR_PROGRAMS, LIST_LEN, COST_MAX, seed)
    master_hr = HrInstance(base.agents, base.programs, base.agent_pref, base.program_pref,
                           base.cost, quota={p: rng.randint(1, MASTER_HR_QUOTA_MAX)
                                             for p in base.programs})
    # zero-cost crowding: everyone ranks the cost-1 p1 above the free p0, so
    # every threshold probe runs deferred acceptance with p1 full
    agents = [f"a{i}" for i in range(1, CROWD_AGENTS + 1)]
    p1_order = list(agents)
    rng.shuffle(p1_order)
    crowd = SmfqInstance(agents, ["p0", "p1"], {a: ["p1", "p0"] for a in agents},
                         {"p0": list(agents), "p1": p1_order}, {"p0": 0, "p1": 1})
    return {
        "random.smfq": gen_random(*shape),
        "master.smfq": gen_master_list(*shape),
        "random.hr": gen_random_hr(BIG_AGENTS, BIG_PROGRAMS, LIST_LEN, COST_MAX, QUOTA_MAX, seed),
        "master.hr": master_hr,
        "crowd.smfq": crowd,
    }, {}


def requests(name: str, workdir: str) -> list[Request]:
    """The fixed request list of one pass, in the order the client sends it."""
    reqs: list[Request] = []
    if name == "large-markets":
        for m in ("random", "master"):
            path = _path(workdir, f"{m}.smfq")
            reqs += [
                Request(f"minmax:{m}", "solve", ("solve", "minmax", path), path),
                Request(f"check:{m}", "check",
                        ("check", path, "--matching", out_path(workdir, f"minmax:{m}")),
                        path, ref=f"minmax:{m}"),
                Request(f"promote:{m}", "solve",
                        ("solve", "minsum", "--method=promote", path), path),
            ]
        for m in ("random", "master"):
            path = _path(workdir, f"{m}.hr")
            reqs.append(Request(f"extend:{m}", "extend",
                                ("extend", path, "--objective", "deviation"), path))
        path = _path(workdir, "crowd.smfq")
        reqs.append(Request("minmax:crowd", "solve", ("solve", "minmax", path), path))
    elif name == "small-exact":
        for i in range(EXACT_MARKETS):
            path = _path(workdir, f"rand{i}.smfq")
            reqs += [
                Request(f"exact:rand{i}", "solve",
                        ("solve", "minsum", "--method=exact", path), path,
                        ref=f"oracle-minsum:rand{i}"),
                Request(f"oracle-minsum:rand{i}", "solve", ("oracle", "minsum", path), path),
                Request(f"oracle-minmax:rand{i}", "solve", ("oracle", "minmax", path), path,
                        ref=f"viamax:rand{i}"),
            ]
            for method, rid in (("promote", "promote"), ("restrict", "restrict"),
                                ("minmax", "viamax")):
                reqs.append(Request(f"{rid}:rand{i}", "solve",
                                    ("solve", "minsum", f"--method={method}", path), path,
                                    ref=f"exact:rand{i}"))
        for n, _ in COVER_GRAPHS:
            path = _path(workdir, f"cover{n}.smfq")
            reqs.append(Request(f"exact:cover{n}", "cover",
                                ("solve", "minsum", "--method=exact", path), path))
        reqs.append(Request("bench", "bench",
                            ("bench", "--suite", "small", "--seeds", str(SWEEP_SEEDS))))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return reqs
