"""Core data model: validation, ranks, stability checks, objectives."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from flexq import (
    DuplicateInList,
    EmptyAgentList,
    ExtensionContext,
    GraphInstance,
    HrInstance,
    Matching,
    NegativeCost,
    NonMutualEdge,
    QuotaViolated,
    SetCoverInstance,
    SmfqInstance,
    SolveReport,
    ZeroQuota,
    bench_hr_instance,
    bench_instance,
    compute_extendable,
    gale_shapley_a_optimal,
    gen_example1,
    gen_example2,
    gen_fig1,
    gen_fig2,
    gen_master_list,
    gen_random,
    gen_random_hr,
    is_a_perfect,
    is_envy_free,
    is_hr_stable,
    max_cost,
    parse_instance,
    reduce_set_cover,
    reduce_vertex_cover,
    serialize_instance,
    solve_minsum_exact,
    total_cost,
    validate,
)
from flexq.extension import _restricted_market
from flexq.model import StabilityCheck


def tiny() -> SmfqInstance:
    return SmfqInstance(
        agents=["a1", "a2"],
        programs=["p1", "p2"],
        agent_pref={"a1": ["p1", "p2"], "a2": ["p2"]},
        program_pref={"p1": ["a1"], "p2": ["a2", "a1"]},
        cost={"p1": 1, "p2": 3},
    )


# ---------------------------------------------------------------------------
# construction and validation


def test_cost_normalization_fills_missing_with_zero():
    inst = SmfqInstance(["a1"], ["p1"], {"a1": ["p1"]}, {"p1": ["a1"]}, cost={})
    assert inst.cost == {"p1": 0}
    validate(inst)
    # lists normalize the same way: a missing list is empty, and a list
    # keyed by an undeclared id is dropped
    inst = SmfqInstance(["a1", "a2"], ["p1"], {"a1": ["p1"], "zz": ["p1"]}, {"p1": ["a1"]})
    assert inst.agent_pref == {"a1": ("p1",), "a2": ()}
    assert inst.arank["a2"] == {}
    with pytest.raises(EmptyAgentList, match="agent a2"):
        validate(inst)


def test_validate_accepts_canonical_instances():
    g, h = gen_fig1()
    validate(g)
    validate(h)
    validate(tiny())


def test_validate_rejects_duplicate_agent_id():
    inst = SmfqInstance(["a1", "a1"], ["p1"],
                        {"a1": ["p1"]}, {"p1": ["a1"]}, {"p1": 0})
    with pytest.raises(DuplicateInList):
        validate(inst)


def test_validate_rejects_duplicate_program_id():
    inst = SmfqInstance(["a1"], ["p1", "p1"],
                        {"a1": ["p1"]}, {"p1": ["a1"]}, {"p1": 0})
    with pytest.raises(DuplicateInList, match="duplicate program identifier"):
        validate(inst)


def test_validate_rejects_duplicate_in_preference_list():
    inst = SmfqInstance(["a1"], ["p1"],
                        {"a1": ["p1", "p1"]}, {"p1": ["a1"]}, {"p1": 0})
    with pytest.raises(DuplicateInList):
        validate(inst)
    inst = SmfqInstance(["a1"], ["p1"],
                        {"a1": ["p1"]}, {"p1": ["a1", "a1"]}, {"p1": 0})
    with pytest.raises(DuplicateInList, match="program p1 repeats"):
        validate(inst)


def test_validate_rejects_non_mutual_edges_both_directions():
    # agent lists a program that does not list it back
    inst = SmfqInstance(["a1"], ["p1", "p2"],
                        {"a1": ["p1", "p2"]}, {"p1": ["a1"], "p2": []}, {})
    with pytest.raises(NonMutualEdge):
        validate(inst)
    # program lists an agent that does not list it back
    inst = SmfqInstance(["a1", "a2"], ["p1"],
                        {"a1": ["p1"], "a2": []}, {"p1": ["a1", "a2"]}, {})
    with pytest.raises(NonMutualEdge):
        validate(inst)
    # a list naming an undeclared partner, which has no rank table
    inst = SmfqInstance(["a1"], ["p1"], {"a1": ["p1"]}, {"p1": ["a1", "zz"]}, {})
    with pytest.raises(NonMutualEdge, match="program p1 lists zz"):
        validate(inst)
    inst = SmfqInstance(["a1"], ["p1"], {"a1": ["p1", "p9"]}, {"p1": ["a1"]}, {})
    with pytest.raises(NonMutualEdge, match="agent a1 lists p9"):
        validate(inst)


@pytest.mark.parametrize("agent_pref, program_pref, error", [
    # a non-mutual edge (a2 -> p2) is reported before a1's duplicate
    ({"a1": ["p1", "p1"], "a2": ["p1", "p2"]}, {"p1": ["a1", "a2"], "p2": []}, NonMutualEdge),
    # a duplicate (a2 repeats p1) is reported before a1's empty list
    ({"a1": [], "a2": ["p1", "p1"]}, {"p1": ["a2"], "p2": []}, DuplicateInList),
    # only the program side sees p2 -> a1; its lists hold 3 entries like the
    # agents', but their rank tables 3 edges against 2, so the scan still runs
    # and reports it before a1's duplicate
    ({"a1": ["p1", "p1"], "a2": ["p1"]}, {"p1": ["a1", "a2"], "p2": ["a1"]}, NonMutualEdge),
])
def test_validate_reports_the_first_check_in_documented_order(agent_pref, program_pref, error):
    inst = SmfqInstance(["a1", "a2"], ["p1", "p2"], agent_pref, program_pref, {})
    with pytest.raises(error):
        validate(inst)


def test_validate_rejects_empty_agent_list():
    inst = SmfqInstance(["a1", "a2"], ["p1"],
                        {"a1": ["p1"], "a2": []}, {"p1": ["a1"]}, {})
    with pytest.raises(EmptyAgentList):
        validate(inst)


# a value too long to print whole (an int past Python's 4,300-digit str limit, a
# 10,000-character string) still raises the right class, in one line under 120 characters
@pytest.mark.parametrize("bad", [-1, True, 1.5, pytest.param(-10**5000, id="huge"),
                                 pytest.param("c" * 10_000, id="long-str"),
                                 pytest.param([-10**5000], id="holds-huge")])
def test_validate_rejects_non_natural_costs(bad):
    inst = SmfqInstance(["a1"], ["p1"], {"a1": ["p1"]}, {"p1": ["a1"]},
                        {"p1": bad})
    with pytest.raises(NegativeCost) as err:
        validate(inst)
    assert len(str(err.value)) < 120 and "\n" not in str(err.value)


@pytest.mark.parametrize("quota", [{}, {"p1": 0}, {"p1": -2}, pytest.param({"p1": -10**5000}, id="huge"),
                                   pytest.param({"p1": "q" * 10_000}, id="long-str")])
def test_validate_rejects_missing_or_nonpositive_quota(quota):
    inst = HrInstance(["a1"], ["p1"], {"a1": ["p1"]}, {"p1": ["a1"]},
                      {"p1": 1}, quota=quota)
    with pytest.raises(ZeroQuota) as err:
        validate(inst)
    assert len(str(err.value)) < 120 and "\n" not in str(err.value)


# 10,000-character ids: every message that names an id shows its first 40
# characters and its length, so it stays one short line
A, P = "a" * 10_000, "p" * 10_000
CUT_A, CUT_P = "a" * 40 + "... (10000 characters)", "p" * 40 + "... (10000 characters)"


@pytest.mark.parametrize("check, error, message", [
    (lambda: validate(SmfqInstance([A], ["p1"], {A: ["p1"]}, {"p1": []})),
     NonMutualEdge, f"agent {CUT_A} lists p1, but p1 does not list {CUT_A}"),
    (lambda: validate(SmfqInstance(["a1"], [P], {"a1": []}, {P: ["a1"]})),
     NonMutualEdge, f"program {CUT_P} lists a1, but a1 does not list {CUT_P}"),
    (lambda: validate(SmfqInstance([A], ["p1"], {A: ["p1", "p1"]}, {"p1": [A]})),
     DuplicateInList, f"agent {CUT_A} repeats an entry in its preference list"),
    (lambda: validate(SmfqInstance(["a1", "a2"], [P], {"a1": [P], "a2": [P]}, {P: ["a1", "a2", "a1"]})),
     DuplicateInList, f"program {CUT_P} repeats an entry in its preference list"),
    (lambda: validate(SmfqInstance([A], ["p1"], {A: []}, {"p1": []})),
     EmptyAgentList, f"agent {CUT_A} has an empty preference list"),
    (lambda: validate(SmfqInstance(["a1"], [P], {"a1": [P]}, {P: ["a1"]}, {P: -1})),
     NegativeCost, f"program {CUT_P} has cost -1; costs must be non-negative integers"),
    (lambda: validate(HrInstance(["a1"], [P], {"a1": [P]}, {P: ["a1"]}, quota={P: 0})),
     ZeroQuota, f"program {CUT_P} has quota 0; quotas must be positive integers"),
    (lambda: is_envy_free(SmfqInstance([A], ["p1", P], {A: ["p1"]}, {"p1": [A], P: []}),
                          Matching({A: P})),
     ValueError, f"matching assigns {CUT_A} to {CUT_P}, which is not on its list"),
    (lambda: is_hr_stable(HrInstance(["a1", "a2"], [P], {"a1": [P], "a2": [P]}, {P: ["a1", "a2"]},
                                     quota={P: 1}), Matching({"a1": P, "a2": P})),
     QuotaViolated, f"program {CUT_P} holds 2 agents but has quota 1"),
    (lambda: SetCoverInstance(sets={A: ["e1", P]}, elements=["e1"], f=1),
     ValueError, f"set {CUT_A} mentions unknown element {CUT_P}"),
    (lambda: GraphInstance(vertices=["v1"], edges=[("v1", P)]),
     ValueError, f"edge (v1, {CUT_P}) uses an undeclared vertex"),
], ids=["agent-side-edge", "program-side-edge", "agent-repeats", "program-repeats", "empty-list",
        "negative-cost", "zero-quota", "unacceptable-assignment", "over-quota", "unknown-element",
        "undeclared-vertex"])
def test_a_long_id_is_cut_in_every_message_that_names_it(check, error, message):
    assert str(pytest.raises(error, check).value) == message


# ---------------------------------------------------------------------------
# ranks and acceptability


def test_rank_lookups_follow_list_positions():
    inst = tiny()
    assert inst.arank["a1"] == {"p1": 0, "p2": 1}
    assert inst.prank["p2"] == {"a2": 0, "a1": 1}
    assert inst.is_acceptable("a1", "p2")
    assert not inst.is_acceptable("a2", "p1")


def _enumerated(lists: dict[str, list[str]]) -> dict[str, dict[str, int]]:
    """The rank tables built independently, one entry at a time."""
    out: dict[str, dict[str, int]] = {}
    for key, lst in lists.items():
        out[key] = {}
        for i, name in enumerate(lst):
            out[key][name] = i
    return out


def _fresh_instances():
    cover = SetCoverInstance(sets={"s1": ["e1"], "s2": ["e1", "e2"], "s3": ["e2"]},
                             elements=["e1", "e2"], f=2)
    return [
        tiny(),
        *gen_fig1(),  # an HrInstance and an SmfqInstance
        gen_random(40, 8, 3, 9, 1),
        gen_random_hr(40, 8, 3, 9, 4, 1),
        reduce_set_cover(cover),
    ]


def test_rank_tables_are_built_on_first_read_and_kept():
    for inst in _fresh_instances():
        assert "arank" not in vars(inst) and "prank" not in vars(inst), type(inst)
        arank, prank = inst.arank, inst.prank
        assert arank == _enumerated(inst.agent_pref)
        assert prank == _enumerated(inst.program_pref)
        assert inst.arank is arank and inst.prank is prank


def test_equality_and_repr_ignore_the_rank_tables():
    for make in (tiny, lambda: gen_fig1()[0]):
        built, fresh = make(), make()
        text = repr(fresh)
        validate(built)
        assert "arank" in vars(built) and "arank" not in vars(fresh)
        assert built == fresh and repr(built) == text
        assert "arank" not in text and "prank" not in text


def test_a_replaced_copy_gets_fresh_rank_tables():
    inst = tiny()
    validate(inst)
    swapped = SmfqInstance(["a2", "a1"], inst.programs, inst.agent_pref,
                           {"p1": ["a1"], "p2": ["a1", "a2"]}, inst.cost)
    assert "arank" not in vars(swapped) and "prank" not in vars(swapped)
    assert swapped.prank["p2"] == {"a1": 0, "a2": 1} != inst.prank["p2"]
    assert list(swapped.arank) == ["a2", "a1"]
    assert inst.prank["p2"] == {"a2": 0, "a1": 1}


def test_a_parsed_instance_carries_both_rank_tables():
    for inst in (tiny(), gen_fig1()[0]):
        parsed = parse_instance(serialize_instance(inst))
        assert "arank" in vars(parsed) and "prank" in vars(parsed)
        assert parsed.arank == _enumerated(parsed.agent_pref)
        assert parsed.prank == _enumerated(parsed.program_pref)


def _fig1_cost_lists():
    """Fig. 1's cost market as fresh lists and dicts a caller holds on to."""
    agents, programs = ["a1", "a2", "a3", "a4", "a5"], ["p1", "p2"]
    agent_pref = {"a1": ["p1", "p2"], "a2": ["p2", "p1"], "a3": ["p2", "p1"],
                  "a4": ["p2", "p1"], "a5": ["p2"]}
    program_pref = {"p1": ["a2", "a4", "a1", "a3"], "p2": ["a1", "a2", "a5", "a3", "a4"]}
    return agents, programs, agent_pref, program_pref, {"p1": 1, "p2": 2}


def test_a_caller_editing_its_own_lists_leaves_the_instance_unchanged():
    agents, programs, agent_pref, program_pref, cost = _fig1_cost_lists()
    inst = SmfqInstance(agents, programs, agent_pref, program_pref, cost)
    assert solve_minsum_exact(inst).objective == 7  # builds and keeps both rank tables
    agent_pref["a1"].reverse()
    assert solve_minsum_exact(inst).objective == 7
    program_pref["p2"].pop()
    agents.append("a6")
    assert solve_minsum_exact(inst).objective == 7
    assert inst == SmfqInstance(*_fig1_cost_lists())


def test_an_instance_list_cannot_be_edited_in_place():
    inst = SmfqInstance(*_fig1_cost_lists())
    with pytest.raises(AttributeError):
        inst.agent_pref["a1"].reverse()
    with pytest.raises(TypeError):
        inst.program_pref["p1"][0] = "a5"
    with pytest.raises(AttributeError):
        inst.agents.append("a6")


def _holds_tuples(inst: SmfqInstance) -> bool:
    lists = [inst.agents, inst.programs, *inst.agent_pref.values(), *inst.program_pref.values()]
    return all(type(lst) is tuple for lst in lists)


def test_every_instance_the_package_builds_holds_tuples():
    sparse = SmfqInstance(["a1", "a2"], ["p1"], {"a1": ["p1"]}, {"p1": ["a1"]})
    assert sparse.agent_pref["a2"] == ()  # a missing list
    g, _ = gen_fig1()
    ctx = compute_extendable(g, gale_shapley_a_optimal(g))
    assert ctx.a_u_matchable  # the restricted market is not empty
    built = [
        sparse, *_fresh_instances(),
        gen_fig2(4), gen_example1(), gen_example2(),
        reduce_vertex_cover(GraphInstance(vertices=["u", "v"], edges=[("u", "v")])),
        gen_master_list(40, 8, 3, 9, 1), bench_instance(0), bench_hr_instance(0),
        _restricted_market(ctx, g.cost),
        *(parse_instance(serialize_instance(inst)) for inst in (tiny(), *gen_fig1())),
    ]
    for inst in built:
        assert _holds_tuples(inst), inst


_ONE = {"agents": ("a1",), "programs": ("p1",), "agent_pref": {"a1": ("p1",)},
        "program_pref": {"p1": ("a1",)}, "cost": {"p1": 2}}
_HR_ONE = HrInstance(**_ONE, quota={"p1": 1})


# each public record: its fields, one field to change and a value it does not hold
_RECORDS = [
    (SmfqInstance, _ONE, "cost", {"p1": 3}),
    (HrInstance, {**_ONE, "quota": {"p1": 1}}, "quota", {"p1": 2}),
    (Matching, {"assignment": {"a1": "p1"}}, "assignment", {}),
    (SolveReport, {"matching": Matching({"a1": "p1"}), "objective": 2, "method": "minmax",
                   "stats": {"probes": 1}}, "objective", 3),
    (StabilityCheck, {"violations": [("a1", "p1")]}, "violations", []),
    (ExtensionContext, {"round1": _HR_ONE, "m1": Matching(), "g_m": {"a1": ["p1"]}}, "g_m", {"a1": []}),
    (SetCoverInstance, {"sets": {"s1": ["e1"], "s2": ["e1"]}, "elements": ["e1"], "f": 2},
     "sets", {"s1": ["e1"], "s3": ["e1"]}),
    (GraphInstance, {"vertices": ["u", "v"], "edges": [("u", "v")]}, "edges", []),
]


@pytest.mark.parametrize("cls, fields, name, other", _RECORDS, ids=[r[0].__name__ for r in _RECORDS])
def test_records_compare_and_print_field_by_field(cls, fields, name, other):
    rec = cls(**fields)
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert rec == cls(**fields) and rec != cls(**{**fields, name: other})
    assert rec.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError):
        hash(rec)


def test_record_equality_is_per_class_ignores_stats_and_defaults_fresh_dicts():
    smfq = SmfqInstance(**_ONE)
    assert smfq != _HR_ONE and _HR_ONE != smfq
    assert smfq.__eq__(_HR_ONE) is NotImplemented and _HR_ONE.__eq__(smfq) is NotImplemented
    m = Matching({"a1": "p1", "a2": "p1"})
    assert m == Matching({"a2": "p1", "a1": "p1"})
    assert SolveReport(m, 2, "minmax", {"probes": 1}) == SolveReport(m, 2, "minmax")
    assert SolveReport(m, 2, "minmax") != SolveReport(m, 2, "minmax-exact")
    assert Matching().assignment is not Matching().assignment
    assert SolveReport(m, 2, "minmax").stats is not SolveReport(m, 2, "minmax").stats


# ---------------------------------------------------------------------------
# matchings and objectives


def test_objectives_on_the_canonical_market():
    _, h = gen_fig1()
    n_prime = Matching({"a1": "p1", "a2": "p2", "a3": "p1", "a4": "p1", "a5": "p2"})
    assert total_cost(h, n_prime) == 7
    assert max_cost(h, n_prime) == 4
    assert is_a_perfect(h, n_prime)
    partial = Matching({"a1": "p1"})
    assert not is_a_perfect(h, partial)
    assert total_cost(h, partial) == 1
    assert max_cost(h, Matching({})) == 0


def test_top_choice_matching_is_a_perfect_and_envy_free():
    # every agent at the top of its own list prefers nothing over its seat
    _, h = gen_fig1()
    m = Matching({a: h.agent_pref[a][0] for a in h.agents})
    assert m.assignment == {"a1": "p1", "a2": "p2", "a3": "p2",
                            "a4": "p2", "a5": "p2"}
    assert is_a_perfect(h, m)
    assert is_envy_free(h, m).ok


# ---------------------------------------------------------------------------
# envy-freeness


def test_envy_violations_exact_list_on_partial_matching():
    _, h = gen_fig1()
    check = is_envy_free(h, Matching({"a2": "p1", "a3": "p2"}))
    assert not check.ok
    assert check.violations == [("a1", "p2"), ("a2", "p2"), ("a5", "p2")]


def test_envy_free_on_the_optimal_matching():
    _, h = gen_fig1()
    n_prime = Matching({"a1": "p1", "a2": "p2", "a3": "p1", "a4": "p1", "a5": "p2"})
    check = is_envy_free(h, n_prime)
    assert check.ok
    assert check.violations == []


def test_envy_check_rejects_unacceptable_assignment():
    inst = tiny()
    with pytest.raises(ValueError):
        is_envy_free(inst, Matching({"a2": "p1"}))


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_envy_check_matches_naive_scan(seed):
    rng = random.Random(seed)
    n_programs = rng.randint(1, 5)
    inst = gen_random(rng.randint(1, 6), n_programs,
                      rng.randint(1, min(4, n_programs)), rng.randint(0, 9),
                      seed=rng.randrange(1 << 30))
    # random partial assignment along acceptable pairs
    assignment = {a: rng.choice(inst.agent_pref[a])
                  for a in inst.agents if rng.random() < 0.8}
    got = is_envy_free(inst, Matching(assignment))
    assert got.ok == helpers.envy_free_naive(inst, assignment)
    # every pair, in (agent position, program position) order
    assert got.violations == [
        (a, p) for a in inst.agents for p in inst.programs
        if helpers.prefers(inst, a, p, assignment.get(a))
        and any(q == p and helpers.program_prefers(inst, p, a, b) for b, q in assignment.items())]


def test_removing_an_agent_preserves_envy_freeness():
    for seed in range(40):
        inst = bench_instance(seed)
        m = solve_minsum_exact(inst).matching
        for a in inst.agents:
            rest = helpers.remove_agent(inst, a)
            kept = {x: p for x, p in m.assignment.items() if x != a}
            assert is_envy_free(rest, Matching(kept)).ok


# ---------------------------------------------------------------------------
# quota-world stability


def test_hr_violations_exact_list_on_undersubscribed_matching():
    g, _ = gen_fig1()
    check = is_hr_stable(g, Matching({"a1": "p1", "a2": "p2"}))
    assert not check.ok
    assert check.violations == [("a3", "p1"), ("a4", "p1")]


def test_hr_stable_on_the_deferred_acceptance_outcome():
    g, _ = gen_fig1()
    n = Matching({"a1": "p1", "a2": "p2", "a4": "p1"})
    check = is_hr_stable(g, n)
    assert check.ok


def test_hr_check_raises_on_quota_overflow():
    g, _ = gen_fig1()
    overfull = Matching({"a1": "p2", "a2": "p2"})  # quota(p2) = 1
    with pytest.raises(QuotaViolated):
        is_hr_stable(g, overfull)


@given(st.integers(min_value=0, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_hr_check_matches_naive_scan(seed):
    rng = random.Random(seed)
    from flexq import gen_random_hr
    n_programs = rng.randint(1, 4)
    inst = gen_random_hr(rng.randint(1, 5), n_programs,
                         rng.randint(1, min(3, n_programs)), 5, quota_max=2,
                         seed=rng.randrange(1 << 30))
    assignment = {}
    load = {p: 0 for p in inst.programs}
    for a in inst.agents:
        if rng.random() < 0.75:
            p = rng.choice(inst.agent_pref[a])
            if load[p] < inst.quota[p]:  # keep quotas respected
                assignment[a] = p
                load[p] += 1
    got = is_hr_stable(inst, Matching(assignment))
    assert got.ok == helpers.hr_stable_naive(inst, assignment)
