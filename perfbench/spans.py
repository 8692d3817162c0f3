"""Span recorder that wraps flexq's public functions where they are imported.

Nothing in the package is edited: ``Tracer.install`` swaps each site's
module attribute for a wrapper and ``uninstall`` puts the original back, so
traced and untraced passes can alternate in one process.  Spans stay in
memory as ``[name, start, end, parent, rid, pass, attrs]`` lists until the
run writes them out.  No wrapped function runs once per cost tuple or per
candidate assignment; the finest grain is one deferred-acceptance run.
"""

from __future__ import annotations

import functools
import importlib
import math
import time


def _tuples(args, result):
    inst = args[0]
    return {"tuples": math.prod(len({inst.cost[p] for p in inst.agent_pref[a]})
                                for a in inst.agents)}


def _space(args, result):
    inst = args[0]
    return {"space": math.prod(len(inst.agent_pref[a]) for a in inst.agents)}


def _matchable(args, result):
    return {"leftover": len(result.a_u), "matchable": len(result.a_u_matchable)}


def _bytes(args, result):
    return {"bytes": len(args[0].encode("utf-8"))}


# (module, attribute, counter); the span is named "<module tail>.<attribute>"
SITES = (
    ("flexq.cli", "parse_instance", _bytes),
    ("flexq.fileio", "validate", None),
    ("flexq.cli", "format_matching", None),
    ("flexq.cli", "solve_minmax", None),
    ("flexq.approx", "solve_minmax", None),
    ("flexq.extension", "solve_minmax", None),
    ("flexq.minmax", "feasible_at", None),
    ("flexq.minmax", "build_quota_instance", None),
    ("flexq.minmax", "gale_shapley_a_optimal", None),
    ("flexq.cli", "gale_shapley_a_optimal", None),
    ("flexq.cli", "solve_minsum_exact", _tuples),
    ("flexq.extension", "solve_minsum_exact", _tuples),
    ("flexq.cli", "approx_promote", None),
    ("flexq.cli", "approx_restrict", None),
    ("flexq.cli", "approx_via_minmax", None),
    ("flexq.cli", "oracle_minsum", _space),
    ("flexq.cli", "oracle_minmax", _space),
    ("flexq.cli", "is_envy_free", None),
    ("flexq.extension", "is_hr_stable", None),
    ("flexq.cli", "compute_extendable", _matchable),
    ("flexq.cli", "min_deviation_extension", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.rid: str | None = None
        self.pass_no = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.rid, self.pass_no, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counter is not None:
                self.spans[idx][6] = counter(args, result)
            return result
        return traced

    def install(self) -> None:
        for modname, attr, counter in SITES:
            module = importlib.import_module(modname)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{modname.split('.')[-1]}.{attr}", fn, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
