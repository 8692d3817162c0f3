"""Independent checks of the outputs a run's warm-up pass left on disk.

Every matching must cover all agents, be envy-free, and report an objective
equal to its own total or max spend.  On top of that:

* exact total spend equals the oracle's on the random markets, and the
  oracle's max spend equals that of the via-minmax matching;
* on the set-cover reductions, exact total spend equals |elements| + the
  minimum cover, which this module finds by brute force;
* heuristic answers are never below the certified optimum;
* ``check`` reports what this module computes for the matching it audited;
* the ``bench`` sweep prints one row per seed and ends with
  ``# violations=0``;
* ``extend`` keeps every round-one seat (round one is recomputed here with a
  separate deferred-acceptance implementation), places every leftover agent
  that some program's barrier lets in, at such a program, leaves the rest
  unmatched, and reports the largest overflow as its objective.

``check_outputs`` also returns the per-request objectives and, behind
``approx_ratio``, the ratios of ``promote`` and ``restrict`` answers to the
certified optimum, on the random markets and in the sweep.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter

import workloads


class CheckFailed(Exception):
    pass


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _trailers(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            out[key] = value
    return out


def _min_vertex_cover(n: int, edges: list) -> int:
    masks = [(1 << u) | (1 << v) for u, v in edges]
    best = n
    for s in range(1 << n):
        k = s.bit_count()
        if k < best and all(s & e for e in masks):
            best = k
    return best


def _ranks(inst) -> dict[str, dict[str, int]]:
    return {p: {a: i for i, a in enumerate(inst.program_pref[p])} for p in inst.programs}


def _round_one(inst, prank) -> dict[str, str]:
    """Agent-optimal stable matching under quotas, with a heap per program."""
    nxt = dict.fromkeys(inst.agents, 0)
    held: dict[str, list] = {p: [] for p in inst.programs}
    match: dict[str, str] = {}
    free = list(reversed(inst.agents))
    while free:
        a = free.pop()
        lst = inst.agent_pref[a]
        while nxt[a] < len(lst):
            p = lst[nxt[a]]
            nxt[a] += 1
            r, h = prank[p][a], held[p]
            if len(h) < inst.quota[p]:
                heapq.heappush(h, (-r, a))
                match[a] = p
                break
            if -h[0][0] > r:
                _, w = heapq.heapreplace(h, (-r, a))
                del match[w]
                free.append(w)
                match[a] = p
                break
    return match


class _Checker:
    def __init__(self, meta: dict):
        from flexq import fileio, model

        self.fileio, self.model = fileio, model
        self.meta = meta
        self.instances: dict = {}
        self.objective: dict[str, int] = {}
        self.matching: dict = {}
        self.ratios: list[float] = []

    def instance(self, path: str):
        if path not in self.instances:
            with open(path, encoding="utf-8") as fh:
                self.instances[path] = self.fileio.parse_instance(fh.read())
        return self.instances[path]

    def solve(self, req, text: str) -> None:
        model = self.model
        inst = self.instance(req.file)
        m = self.fileio.parse_matching(text, inst)
        tr = _trailers(text)
        obj = int(tr["objective"])
        kind_max = tr["method"] in ("minmax", "oracle-minmax")
        spend = model.max_cost(inst, m) if kind_max else model.total_cost(inst, m)
        _expect(model.is_a_perfect(inst, m), "matching leaves an agent out")
        _expect(model.is_envy_free(inst, m).ok, "matching has an envy pair")
        _expect(obj == spend, f"reported objective {obj} but the matching spends {spend}")
        self.objective[req.rid], self.matching[req.rid] = obj, m

    def cover(self, req, text: str) -> None:
        self.solve(req, text)
        graph = self.meta["graphs"][req.file.rsplit("/", 1)[-1]]
        want = len(graph["edges"]) + _min_vertex_cover(graph["vertices"], graph["edges"])
        _expect(self.objective[req.rid] == want, f"objective {self.objective[req.rid]} != {want}")

    def check(self, req, text: str) -> None:
        inst = self.instance(req.file)
        m, obj = self.matching[req.ref], self.objective[req.ref]
        want = (f"a_perfect=true\nenvy_free=true\n"
                f"total_cost={self.model.total_cost(inst, m)}\nmax_cost={obj}\n")
        _expect(text == want, f"check printed {text!r}, expected {want!r}")

    def bench(self, req, text: str) -> None:
        lines = text.splitlines()
        rows = [ln.split("\t") for ln in lines if ln and not ln.startswith("#")]
        _expect(len(rows) == workloads.SWEEP_SEEDS, f"{len(rows)} sweep rows")
        _expect(lines[-1] == "# violations=0", f"sweep ended with {lines[-1]!r}")
        for row in rows:
            exact, oracle, mm, oracle_mm, promote, restrict, via = map(int, row[3:10])
            _expect(exact == oracle and mm == oracle_mm and row[-1] == "ok",
                    f"sweep row {row[0]} disagrees with its oracle: {row}")
            _expect(min(promote, restrict, via) >= oracle, f"sweep row {row[0]} beats the oracle")
            self.ratios += [promote / oracle, restrict / oracle] if oracle else [1.0, 1.0]

    def extend(self, req, text: str) -> None:
        inst = self.instance(req.file)
        m = self.fileio.parse_matching(text, inst).assignment
        obj = int(_trailers(text)["objective"])
        prank = _ranks(inst)
        m1 = _round_one(inst, prank)
        for a, p in m1.items():
            _expect(m.get(a) == p, f"round-one agent {a} moved from {p}")
        barrier: dict[str, int] = {}
        for a, cur in m1.items():
            for p in inst.agent_pref[a]:
                if p == cur:
                    break
                barrier[p] = min(barrier.get(p, math.inf), prank[p][a])
        for a in inst.agents:
            if a in m1:
                continue
            allowed = [p for p in inst.agent_pref[a] if prank[p][a] < barrier.get(p, math.inf)]
            if allowed:
                _expect(m.get(a) in allowed, f"matchable leftover {a} placed at {m.get(a)}")
            else:
                _expect(a not in m, f"unextendable leftover {a} was placed")
        s1, s2 = Counter(m1.values()), Counter(m.values())
        d_star = max((s2[p] - s1[p] for p in inst.programs), default=0)
        _expect(obj == d_star, f"reported deviation {obj}, matching overflows by {d_star}")
        self.objective[req.rid] = obj

    def relate(self, req) -> None:
        """Checks between two requests' answers; run once all are parsed."""
        kind = req.rid.split(":")[0]
        if req.ref is None or req.kind != "solve":
            return
        mine, ref = self.objective[req.rid], self.objective[req.ref]
        if kind == "exact":
            _expect(mine == ref, f"exact {mine} != oracle {ref}")
        elif kind == "oracle-minmax":
            inst = self.instance(req.file)
            via = self.model.max_cost(inst, self.matching[req.ref])
            _expect(mine == via, f"oracle max spend {mine} != solve_minmax's {via}")
        else:
            _expect(mine >= ref, f"{kind} {mine} beats the optimum {ref}")
            if kind in ("promote", "restrict"):
                self.ratios.append(mine / ref if ref else 1.0)


def check_outputs(reqs, workdir: str, meta: dict):
    """Returns ({rid: failure reason or None}, {rid: objective}, ratios)."""
    checker = _Checker(meta)
    verdict: dict[str, str | None] = {}
    for req in reqs:
        with open(workloads.out_path(workdir, req.rid), encoding="utf-8") as fh:
            text = fh.read()
        try:
            getattr(checker, req.kind)(req, text)
            verdict[req.rid] = None
        except Exception as exc:  # any error in an output is that request's failure
            verdict[req.rid] = f"{type(exc).__name__}: {exc}"
    for req in reqs:
        if verdict[req.rid] is None and (req.ref is None or verdict.get(req.ref) is None):
            try:
                checker.relate(req)
            except Exception as exc:
                verdict[req.rid] = f"{type(exc).__name__}: {exc}"
    return verdict, checker.objective, checker.ratios
