"""Two-round pipeline: extend a stable quota matching without creating envy.

Round one fixes a stable matching under rigid quotas.  Round two may assign
the leftover agents beyond the quotas, as long as the combined matching
stays envy-free with respect to the original preferences.  Which programs an
unmatched agent may still join is governed by each program's *barrier*: the
best rank, on the program's list, of a matched agent that would rather be
there.  That is one rank per program, found in one pass over the matched
agents' list prefixes.  Unmatched agents ranked below a barrier are out; what
survives is the extension graph.

Within that graph, round two can chase different goals: match as many
leftover agents as possible, minimize the largest per-program overflow, or
minimize the total round-two cost under fresh per-program prices.
"""

from __future__ import annotations

from collections import Counter

from .budget import node_budget
from .errors import NotStable, ValidationError, clipped
from .minmax import solve_minmax
from .minsum import solve_minsum_exact
from .model import (
    HrInstance,
    Matching,
    Record,
    SmfqInstance,
    SolveReport,
    is_hr_stable,
    validate,
)
from .hr import unmatched_agents


class ExtensionContext(Record):
    """Everything round two needs: the pruned extension graph and who can use it.

    ``g_m[a]`` lists, in a's preference order, the programs unmatched agent
    a may still join without creating envy.
    """

    _fields = ("round1", "m1", "g_m")

    def __init__(self, round1: HrInstance, m1: Matching, g_m: dict[str, list[str]]):
        self.round1, self.m1, self.g_m = round1, m1, g_m

    @property
    def a_u(self) -> list[str]:
        """Agents round one left unmatched, in instance order."""
        return list(self.g_m)

    @property
    def a_u_matchable(self) -> list[str]:
        """Unmatched agents some stable extension can match."""
        return [a for a, ps in self.g_m.items() if ps]


def compute_extendable(round1: HrInstance, m1: Matching) -> ExtensionContext:
    """Build the extension graph for a stable round-one matching.

    Each program's barrier is the best rank among matched agents that list
    it above their own program, found in one pass over those list prefixes;
    each unmatched agent keeps the programs that rank it above their barrier.
    Raises :class:`NotStable` when ``m1`` is not stable in
    ``round1`` (quota violations surface as :class:`QuotaViolated`).
    An unmatched agent stripped of every edge keeps an empty list (no stable
    extension can match it) rather than failing the computation.
    """
    if not is_hr_stable(round1, m1).ok:
        raise NotStable("the round-one matching admits a blocking pair")

    agent_pref, arank, prank = round1.agent_pref, round1.arank, round1.prank
    # a program nobody envies keeps a barrier past the end of its list
    bar = {p: len(lst) for p, lst in round1.program_pref.items()}
    for a, cur in m1.assignment.items():
        for p in agent_pref[a][:arank[a][cur]]:
            r = prank[p][a]
            if r < bar[p]:
                bar[p] = r
    # below the barrier, joining p would make the barrier agent envious
    g_m = {a: [p for p in agent_pref[a] if prank[p][a] < bar[p]] for a in unmatched_agents(round1, m1)}
    return ExtensionContext(round1=round1, m1=m1, g_m=g_m)


def _merge(ctx: ExtensionContext, extra: dict[str, str]) -> Matching:
    """Round one plus the leftover agents placed by ``extra``, in instance order."""
    merged = ctx.m1.assignment | extra
    return Matching({a: merged[a] for a in ctx.round1.agents if a in merged})


def _restricted_market(ctx: ExtensionContext, cost: dict[str, int]) -> SmfqInstance:
    """The extension graph as a standalone cost market for the round-two solvers.

    Each program lists the agents whose graph edges reach it, in its round-one
    order.  Its first program in round-one order without a price raises
    :class:`ValidationError`."""
    adj, prank = ctx.g_m, ctx.round1.prank
    agents = ctx.a_u_matchable
    takers: dict[str, list[str]] = {}  # each program's agents in the graph
    for a in agents:
        for p in adj[a]:
            takers.setdefault(p, []).append(a)
    programs = [p for p in ctx.round1.programs if p in takers]
    for p in programs:
        if p not in cost:
            raise ValidationError(f"missing round-two cost for program {clipped(p)}")
    # the constructor keeps only the matchable agents' lists and these programs' costs
    inst = SmfqInstance(agents, programs, adj,
                        {p: sorted(takers[p], key=prank[p].__getitem__) for p in programs}, cost)
    validate(inst)
    return inst


def largest_extension(ctx: ExtensionContext) -> Matching:
    """Match every matchable leftover agent to its best surviving program.

    This extends the matching to the full matchable set; no stable extension
    can match an agent outside it.
    """
    return _merge(ctx, {a: ctx.g_m[a][0] for a in ctx.a_u_matchable})


def min_deviation_extension(ctx: ExtensionContext) -> SolveReport:
    """Match all matchable leftovers, minimizing the largest overflow (the objective).

    Runs the exact max-spend solver on the extension graph with unit costs,
    so a program's spend there is exactly how many new agents it takes on.
    """
    rep = solve_minmax(_restricted_market(ctx, {p: 1 for p in ctx.round1.programs}))
    d_star = max(Counter(rep.matching.assignment.values()).values(), default=0)
    if d_star != rep.objective:
        raise AssertionError(f"largest overflow {d_star} differs from the solver's optimum {rep.objective}")
    return SolveReport(_merge(ctx, rep.matching.assignment), d_star, "extend-deviation",
                       stats=rep.stats)


def min_cost_extension(ctx: ExtensionContext, prices: dict[str, int],
                       budget: int | None = None) -> SolveReport:
    """Match all matchable leftovers, minimizing round-two spend (the objective).

    ``prices`` gives each program its price for the second round.  Every program
    left in the extension graph needs a price: the restricted market raises
    :class:`ValidationError` at the first one missing and its validation
    :class:`NegativeCost` at the first bad one.
    ``budget`` goes to the exact total-spend solver, which raises
    :class:`BudgetExceeded` once its ``nodes`` stat would pass it; a negative
    budget raises ValueError even with nothing to place.
    """
    if not ctx.a_u_matchable:
        # skip the solver (its root is one node, which budget 0 refuses), not the sign check
        node_budget(budget)
        return SolveReport(_merge(ctx, {}), 0, "extend-cost")
    rep = solve_minsum_exact(_restricted_market(ctx, prices), budget=budget)
    return SolveReport(_merge(ctx, rep.matching.assignment), rep.objective, "extend-cost",
                       stats=rep.stats)
