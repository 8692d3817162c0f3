"""Polynomial-time approximations for the total-spend objective.

All three stay within a provable factor of the optimum:

* ``approx_promote`` starts everyone at their cheapest program and repairs
  envy by promotions only; its total spend is at most the longest program
  list times the cheap-seat lower bound.
* ``approx_restrict`` matches agents only within the set of cheapest
  programs; same factor, incomparable in practice with promotion.
* ``approx_via_minmax`` reuses the exact max-spend solver; its total spend is
  at most the number of programs times the optimal total.
"""

from __future__ import annotations

from .minmax import solve_minmax
from .model import Matching, SmfqInstance, SolveReport, total_cost, validate


def min_cost_program(instance: SmfqInstance, agent: str) -> str:
    """Cheapest program on the agent's list; ties go to the most preferred."""
    best = None
    best_cost = None
    for p in instance.agent_pref[agent]:
        c = instance.cost[p]
        if best_cost is None or c < best_cost:
            best, best_cost = p, c
    return best


def _p_star(instance: SmfqInstance) -> dict[str, str]:
    validate(instance)  # it reads lists and costs before any rank table
    return {a: min_cost_program(instance, a) for a in instance.agents}


def lower_bound_sum(instance: SmfqInstance) -> int:
    """Sum of each agent's cheapest list entry: no full matching spends less."""
    validate(instance)
    return sum(instance.cost[min_cost_program(instance, a)] for a in instance.agents)


def approx_promote(instance: SmfqInstance) -> SolveReport:
    """Start all agents at their cheapest program, then repair envy upward.

    Programs are processed in instance order; each scans its list from worst
    to best and pulls in any agent that prefers it while it houses somebody
    worse.  The first agent met that already sits at the program is its
    worst member, and everyone pulled in ranks above it, so one flag per
    program tells whether somebody worse is housed.  Agents only ever move
    to programs they like strictly better, and a program never gains its
    first agent this way, so only cheapest-choice programs are ever occupied.
    """
    p_star = _p_star(instance)
    match = dict(p_star)
    arank = instance.arank

    for p in instance.programs:
        houses_worse = False
        for a in reversed(instance.program_pref[p]):
            cur = match[a]
            if cur == p:
                houses_worse = True  # p's worst member; everyone above it may move in
            elif houses_worse and arank[a][p] < arank[a][cur]:
                match[a] = p

    if not set(match.values()) <= set(p_star.values()):
        raise AssertionError("promotion occupied a program no agent chose as its cheapest")
    m = Matching(match)
    return SolveReport(m, total_cost(instance, m), "promote")


def approx_restrict(instance: SmfqInstance) -> SolveReport:
    """Match every agent to its most preferred cheapest-choice program.

    Restricting the market to the cheapest-choice programs makes top choices
    envy-free, at the price of possibly crowding an expensive program.
    """
    allowed = set(_p_star(instance).values())
    match = {}
    for a in instance.agents:
        for p in instance.agent_pref[a]:
            if p in allowed:
                match[a] = p
                break
    m = Matching(match)
    return SolveReport(m, total_cost(instance, m), "restrict")


def approx_via_minmax(instance: SmfqInstance) -> SolveReport:
    """Report the exact max-spend matching under the total-spend objective.

    ``stats`` are the max-spend solver's counters.
    """
    rep = solve_minmax(instance)
    return SolveReport(rep.matching, total_cost(instance, rep.matching), "via-minmax",
                       stats=rep.stats)
