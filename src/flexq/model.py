"""Core domain types and stability primitives.

The market has agents on one side and programs on the other, both with strict
preference lists over acceptable partners.  Programs carry a non-negative
integer cost per assigned agent; a program with no rigid quota absorbs any
number of agents, its cost controlling how expensive crowding becomes.  The
quota-based variant adds a hard per-program capacity on top.

A matching of the flexible market is *envy-free* when no agent prefers a
program that currently holds a strictly worse agent; an unmatched agent
prefers every program on its list.  Envy-freeness is the stability notion for
all solvers in this package.
"""

from __future__ import annotations

from collections import Counter

from .errors import (
    DuplicateInList,
    EmptyAgentList,
    NegativeCost,
    NonMutualEdge,
    QuotaViolated,
    ZeroQuota,
    clipped,
    shown,
)


class _RankTable:
    """A rank table built on first read and then kept as a plain attribute.

    The built table is stored with ``setattr``; this descriptor defines no
    ``__set__``, so later reads find the instance attribute and never call it.
    ``functools.cached_property`` does the same through ``instance.__dict__``
    and, before Python 3.12, a lock; on the small-market benchmark's requests
    that was slower than building both tables eagerly, and this is not.
    """

    def __init__(self, build):
        self.build = build

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        table = self.build(instance)
        setattr(instance, self.name, table)
        return table


class Record:
    """A record: ``==`` compares the ``_fields`` in order, only against the same
    class, and ``repr`` is ``Name(field=value, ...)``; unhashable.  Not a
    dataclass, so importing flexq loads neither ``dataclasses`` nor ``inspect``."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class SmfqInstance(Record):
    """A two-sided market with per-program costs and no quotas.

    ``agents`` and ``programs`` fix identifier order; every deterministic
    iteration in the package follows them.  ``agent_pref[a]`` and
    ``program_pref[p]`` are strict preference lists, most preferred first.
    Construction keeps one list and one cost per declared id, in order: a
    missing list is ``()``, a missing cost 0, undeclared keys are dropped.
    The id and preference lists are stored as tuples, copied once from the
    caller's sequences, so no list is shared with the caller and none can
    change after construction; only rebinding a dict entry still can, and
    is left to convention.  The rank tables ``arank[a][p]`` and
    ``prank[p][a]`` give a name's position on the other side's list (0 =
    most preferred; absent = not listed).  Each is built from the normalized
    lists on first read and kept on the instance; :func:`validate` reads
    both, while generating, serializing and building a copy with the
    constructor read neither, so they build none.  Equality and ``repr``
    ignore them.
    """

    _fields = ("agents", "programs", "agent_pref", "program_pref", "cost")

    def __init__(self, agents: list[str], programs: list[str], agent_pref: dict[str, list[str]],
                 program_pref: dict[str, list[str]], cost: dict[str, int] | None = None):
        cost = cost or {}
        agents, programs = tuple(agents), tuple(programs)
        self.agents, self.programs = agents, programs
        self.agent_pref = {a: tuple(agent_pref.get(a, ())) for a in agents}
        self.program_pref = {p: tuple(program_pref.get(p, ())) for p in programs}
        self.cost = {p: cost.get(p, 0) for p in programs}

    @_RankTable
    def arank(self) -> dict[str, dict[str, int]]:
        return {a: {p: i for i, p in enumerate(lst)} for a, lst in self.agent_pref.items()}

    @_RankTable
    def prank(self) -> dict[str, dict[str, int]]:
        return {p: {a: i for i, a in enumerate(lst)} for p, lst in self.program_pref.items()}

    def is_acceptable(self, agent: str, program: str) -> bool:
        return program in self.arank.get(agent, ())


class HrInstance(SmfqInstance):
    """SmfqInstance, tuples and normalization alike, plus a rigid per-program quota.

    Costs are optional here (default 0), so quota-only markets round-trip
    cleanly; quotas missing from the dict normalize to 0 and fail validation.
    """

    _fields = SmfqInstance._fields + ("quota",)

    def __init__(self, agents: list[str], programs: list[str], agent_pref: dict[str, list[str]],
                 program_pref: dict[str, list[str]], cost: dict[str, int] | None = None,
                 quota: dict[str, int] | None = None):
        super().__init__(agents, programs, agent_pref, program_pref, cost)
        quota = quota or {}
        self.quota = {p: quota.get(p, 0) for p in programs}


class Matching(Record):
    """A partial assignment of agents to programs.

    ``assignment`` maps each matched agent to its program; unmatched agents
    are simply absent.  Equality ignores insertion order.
    """

    _fields = ("assignment",)

    def __init__(self, assignment: dict[str, str] | None = None):
        self.assignment = {} if assignment is None else assignment


class SolveReport(Record):
    """A solver result: the matching, its objective value and the method.

    ``method`` also names the objective: total spend (``minsum-exact``,
    ``promote``, ``restrict``, ``via-minmax``, ``oracle-minsum``), largest
    spend (``minmax``, ``oracle-minmax``), largest deviation
    (``extend-deviation``) or round-two cost (``extend-cost``).

    ``stats`` holds deterministic work counters where a solver reports them
    (``solve_minsum_exact``, ``min_cost_extension`` and the oracles:
    ``nodes``, the count the budget bounds, and ``leaves``, none from
    ``min_cost_extension`` when no leftover is matchable; ``solve_minmax``,
    ``approx_via_minmax`` and ``min_deviation_extension``: ``probes``,
    ``proposals``); equality ignores it.
    """

    _fields = ("matching", "objective", "method", "stats")

    def __init__(self, matching: Matching, objective: int, method: str,
                 stats: dict[str, int] | None = None):
        self.matching, self.objective, self.method = matching, objective, method
        self.stats = {} if stats is None else stats

    def _key(self) -> tuple:
        return self.matching, self.objective, self.method

    @property
    def certified_optimal(self) -> bool:
        """False only for the three approximations, which carry a ratio bound instead."""
        return self.method not in ("promote", "restrict", "via-minmax")


class StabilityCheck(Record):
    """Result of a stability scan: every violating pair; ``ok`` when there is none."""

    _fields = ("violations",)

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(instance: SmfqInstance) -> None:
    """Check every structural invariant, raising on the first violation found.

    Checks run in a fixed order (mutual acceptability, strictness, non-empty
    agent lists, costs, then quotas for the quota variant) and the error
    message names the offending identifier.  The program side of the mutual
    check is scanned only when its rank tables hold a different number of
    edges from the agent side's.  Returns None when well formed.
    """
    if len(set(instance.agents)) != len(instance.agents):
        raise DuplicateInList("instance declares a duplicate agent identifier")
    if len(set(instance.programs)) != len(instance.programs):
        raise DuplicateInList("instance declares a duplicate program identifier")

    arank, prank = instance.arank, instance.prank
    # a list may name an undeclared id, which has no rank table
    for a, lst in instance.agent_pref.items():
        for p in lst:
            if a not in prank.get(p, ()):
                a, p = clipped(a), clipped(p)
                raise NonMutualEdge(f"agent {a} lists {p}, but {p} does not list {a}")
    # every agent-side edge is now on the program side, so equal counts mean equal edge sets
    if sum(map(len, arank.values())) != sum(map(len, prank.values())):
        for p, lst in instance.program_pref.items():
            for a in lst:
                if p not in arank.get(a, ()):
                    a, p = clipped(a), clipped(p)
                    raise NonMutualEdge(f"program {p} lists {a}, but {a} does not list {p}")

    # a rank table keeps one entry per distinct name
    for a, lst in instance.agent_pref.items():
        if len(arank[a]) != len(lst):
            raise DuplicateInList(f"agent {clipped(a)} repeats an entry in its preference list")
    for p, lst in instance.program_pref.items():
        if len(prank[p]) != len(lst):
            raise DuplicateInList(f"program {clipped(p)} repeats an entry in its preference list")

    for a, lst in instance.agent_pref.items():
        if not lst:
            raise EmptyAgentList(f"agent {clipped(a)} has an empty preference list")

    for p in instance.programs:
        c = instance.cost[p]
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            raise NegativeCost(f"program {clipped(p)} has cost {shown(c)}; costs must be non-negative integers")

    if isinstance(instance, HrInstance):
        for p in instance.programs:
            q = instance.quota[p]
            if isinstance(q, bool) or not isinstance(q, int) or q < 1:
                raise ZeroQuota(f"program {clipped(p)} has quota {shown(q)}; quotas must be positive integers")


def _check_assigned_acceptable(instance: SmfqInstance, matching: Matching) -> None:
    for a, p in matching.assignment.items():
        if not instance.is_acceptable(a, p):
            raise ValueError(f"matching assigns {clipped(a)} to {clipped(p)}, which is not on its list")


def _roster_worst(instance: SmfqInstance, assignment: dict[str, str]) -> dict[str, int]:
    """For each program with a non-empty roster, the rank of its worst member."""
    worst: dict[str, int] = {}
    prank = instance.prank
    for a, p in assignment.items():
        r = prank[p][a]
        if worst.get(p, -1) < r:
            worst[p] = r
    return worst


def _scan(instance: SmfqInstance, assignment: dict[str, str], worst: dict[str, int]) -> StabilityCheck:
    """Every pair (a, p) where a prefers p to its assignment and
    ``worst[p]`` exceeds a's rank at p, ordered by (agent position, program
    position) in the instance."""
    arank, prank = instance.arank, instance.prank
    violations: list[tuple[str, str]] = []
    for a, lst in instance.agent_pref.items():
        cur = assignment.get(a)
        limit = arank[a][cur] if cur is not None else len(lst)
        for p in lst[:limit]:
            if worst.get(p, -1) > prank[p][a]:
                violations.append((a, p))
    if violations:
        aindex = {a: i for i, a in enumerate(instance.agents)}
        pindex = {p: i for i, p in enumerate(instance.programs)}
        violations.sort(key=lambda v: (aindex[v[0]], pindex[v[1]]))
    return StabilityCheck(violations)


def is_envy_free(instance: SmfqInstance, matching: Matching) -> StabilityCheck:
    """Scan for envy pairs: an agent preferring a program whose roster holds a
    strictly worse agent.  Unmatched agents prefer every acceptable program.

    Returns the verdict together with the exhaustive list of envy pairs,
    ordered by (agent position, program position) in the instance.
    """
    _check_assigned_acceptable(instance, matching)
    return _scan(instance, matching.assignment, _roster_worst(instance, matching.assignment))


def is_hr_stable(instance: HrInstance, matching: Matching) -> StabilityCheck:
    """Scan for classical blocking pairs under rigid quotas.

    A pair (a, p) off the matching blocks when a prefers p to its current
    assignment (or is unmatched) and p is under-subscribed or holds an agent
    it likes less than a.  The matching must respect quotas.  This is the
    envy scan with one extra rule: an open seat blocks for everyone.
    """
    _check_assigned_acceptable(instance, matching)
    assignment = matching.assignment
    sizes = Counter(assignment.values())
    for p in instance.programs:
        if sizes.get(p, 0) > instance.quota[p]:
            raise QuotaViolated(f"program {clipped(p)} holds {sizes[p]} agents "
                                f"but has quota {instance.quota[p]}")
    worst = _roster_worst(instance, assignment)
    for p in instance.programs:
        if sizes.get(p, 0) < instance.quota[p]:
            worst[p] = len(instance.program_pref[p])
    return _scan(instance, assignment, worst)


def total_cost(instance: SmfqInstance, matching: Matching) -> int:
    """Sum over programs of roster size times program cost."""
    return sum(instance.cost[p] for p in matching.assignment.values())


def max_cost(instance: SmfqInstance, matching: Matching) -> int:
    """Largest roster size times cost over all programs; 0 for the empty matching."""
    sizes = Counter(matching.assignment.values())
    return max((n * instance.cost[p] for p, n in sizes.items()), default=0)


def is_a_perfect(instance: SmfqInstance, matching: Matching) -> bool:
    """True when every agent of the instance is assigned."""
    return all(a in matching.assignment for a in instance.agents)
