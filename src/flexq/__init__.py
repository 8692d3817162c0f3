"""Envy-free many-to-one matching with per-program costs instead of quotas.

Agents and programs rank each other with strict preference lists.  Without
quotas, a matching is stable exactly when no unmatched agent is envied — no
agent prefers a program that currently holds someone it ranks below that
agent.  Every agent can always be placed; the interesting question is how
cheaply, when each program charges a fixed cost per seat it fills.

The package provides:

- exact and approximate minimization of the total spend (``solve_minsum_exact``,
  ``approx_promote``, ``approx_restrict``, ``approx_via_minmax``),
- exact minimization of the largest single-program spend (``solve_minmax``),
- a two-round pipeline that first runs classical deferred acceptance under
  quotas and then optimally matches the leftover agents without creating envy
  (``compute_extendable``, ``largest_extension``, ``min_deviation_extension``,
  ``min_cost_extension``),
- a brute-force oracle for cross-checking (``oracle_minsum``, ``oracle_minmax``),
- instance generators, including embeddings of covering problems that make
  the solvers answer Set-Cover and Vertex-Cover questions,
- text file formats and a command-line workbench (``flexq``).
"""

from __future__ import annotations

from .approx import (approx_promote, approx_restrict, approx_via_minmax,
                     lower_bound_sum, min_cost_choice, min_cost_program)
from .budget import DEFAULT_BUDGET
from .errors import (BudgetExceeded, DuplicateInList, EmptyAgentList,
                     FlexqError, NegativeCost, NonMutualEdge, NotStable,
                     ParseError, QuotaViolated, ValidationError, ZeroQuota)
from .extension import (Extension, ExtensionContext, compute_extendable,
                        largest_extension, min_cost_extension,
                        min_deviation_extension)
from .fileio import (format_matching, parse_cost_file, parse_graph,
                     parse_instance, parse_matching, parse_set_cover,
                     serialize_instance)
from .generators import (GraphInstance, SetCoverInstance, bench_hr_instance,
                         bench_instance, gen_example1, gen_example2, gen_fig1,
                         gen_fig2, gen_master_list, gen_random, gen_random_hr,
                         reduce_set_cover, reduce_vertex_cover)
from .hr import gale_shapley_a_optimal, unmatched_agents
from .minmax import build_quota_instance, feasible_at, solve_minmax
from .minsum import distinct_costs_per_agent, solve_minsum_exact
from .model import (HrInstance, Matching, SmfqInstance, SolveReport,
                    is_a_perfect, is_envy_free, is_hr_stable, max_cost,
                    total_cost, validate)
from .oracle import enumerate_a_perfect_stable, oracle_minmax, oracle_minsum

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "DuplicateInList",
    "EmptyAgentList",
    "Extension",
    "ExtensionContext",
    "FlexqError",
    "GraphInstance",
    "HrInstance",
    "Matching",
    "NegativeCost",
    "NonMutualEdge",
    "NotStable",
    "ParseError",
    "QuotaViolated",
    "SetCoverInstance",
    "SmfqInstance",
    "SolveReport",
    "ValidationError",
    "ZeroQuota",
    "approx_promote",
    "approx_restrict",
    "approx_via_minmax",
    "bench_hr_instance",
    "bench_instance",
    "build_quota_instance",
    "compute_extendable",
    "distinct_costs_per_agent",
    "enumerate_a_perfect_stable",
    "feasible_at",
    "format_matching",
    "gale_shapley_a_optimal",
    "gen_example1",
    "gen_example2",
    "gen_fig1",
    "gen_fig2",
    "gen_master_list",
    "gen_random",
    "gen_random_hr",
    "is_a_perfect",
    "is_envy_free",
    "is_hr_stable",
    "largest_extension",
    "lower_bound_sum",
    "max_cost",
    "min_cost_choice",
    "min_cost_extension",
    "min_cost_program",
    "min_deviation_extension",
    "oracle_minmax",
    "oracle_minsum",
    "parse_cost_file",
    "parse_graph",
    "parse_instance",
    "parse_matching",
    "parse_set_cover",
    "reduce_set_cover",
    "reduce_vertex_cover",
    "serialize_instance",
    "solve_minmax",
    "solve_minsum_exact",
    "total_cost",
    "unmatched_agents",
    "validate",
]
