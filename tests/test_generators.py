"""Instance generators, worked-example families, and the covering reductions."""

from __future__ import annotations

import hashlib
import random

import pytest

import helpers
from flexq import (
    GraphInstance,
    SetCoverInstance,
    bench_hr_instance,
    bench_instance,
    gen_example1,
    gen_example2,
    gen_fig1,
    gen_fig2,
    gen_master_list,
    gen_random,
    gen_random_hr,
    oracle_minsum,
    reduce_set_cover,
    reduce_vertex_cover,
    serialize_instance,
    validate,
)
from flexq.generators import _Draws

# ---------------------------------------------------------------------------
# the worked examples


def test_canonical_pair_structure():
    g, h = gen_fig1()
    assert h.agents == ("a1", "a2", "a3", "a4", "a5")
    assert h.programs == ("p1", "p2")
    assert h.agent_pref == {"a1": ("p1", "p2"), "a2": ("p2", "p1"),
                            "a3": ("p2", "p1"), "a4": ("p2", "p1"),
                            "a5": ("p2",)}
    assert h.program_pref == {"p1": ("a2", "a4", "a1", "a3"),
                              "p2": ("a1", "a2", "a5", "a3", "a4")}
    assert h.cost == {"p1": 1, "p2": 2}
    assert g.quota == {"p1": 2, "p2": 1}
    assert g.cost == h.cost
    assert (g.agents, g.programs, g.agent_pref, g.program_pref) == \
        (h.agents, h.programs, h.agent_pref, h.program_pref)
    validate(g)
    validate(h)


def test_tight_family_structure():
    inst = gen_fig2(4)
    assert inst.agent_pref == {"a1": ("p1", "p0"), "a2": ("p1", "p0"),
                               "a3": ("p1", "p0"), "a4": ("p1", "p2")}
    assert inst.program_pref == {"p0": ("a1", "a2", "a3"),
                                 "p1": ("a1", "a2", "a3", "a4"),
                                 "p2": ("a4",)}
    assert inst.cost == {"p0": 0, "p1": 1, "p2": 4}
    validate(inst)
    with pytest.raises(ValueError):
        gen_fig2(1)


def test_promotion_example_structure():
    inst = gen_example1(5, 100)
    assert inst.agent_pref == {"a1": ("p2", "p1"), "a2": ("p2", "p1"),
                               "a3": ("p2", "p1"), "a4": ("p2", "p1"),
                               "a5": ("p2",)}
    assert inst.program_pref == {"p1": ("a1", "a2", "a3", "a4"),
                                 "p2": ("a5", "a4", "a3", "a2", "a1")}
    assert inst.cost == {"p1": 1, "p2": 100}
    validate(inst)
    for n, alpha in [(2, 100), (5, 2)]:
        with pytest.raises(ValueError):
            gen_example1(n, alpha)


def test_restriction_example_structure():
    inst = gen_example2(5, 100)
    assert inst.agent_pref == {"a1": ("p2", "p3", "p1"),
                               "a2": ("p2", "p3", "p1"),
                               "a3": ("p2", "p3", "p1"),
                               "a4": ("p2",), "a5": ("p3",)}
    assert inst.program_pref == {"p1": ("a1", "a2", "a3"),
                                 "p2": ("a4", "a1", "a2", "a3"),
                                 "p3": ("a1", "a2", "a3", "a5")}
    assert inst.cost == {"p1": 1, "p2": 2, "p3": 100}
    validate(inst)
    for n, alpha in [(2, 100), (5, 2)]:
        with pytest.raises(ValueError):
            gen_example2(n, alpha)


# ---------------------------------------------------------------------------
# covering reductions


def small_cover() -> SetCoverInstance:
    return SetCoverInstance(sets={"s1": ["e1"], "s2": ["e1", "e2"], "s3": ["e2"]},
                            elements=["e1", "e2"], f=2)


def test_cover_embedding_structure():
    inst = reduce_set_cover(small_cover())
    assert inst.agents == ("a_s1", "a_s2", "a_s3", "b_e1", "b_e2")
    assert inst.programs == ("p_s1", "p_s2", "p_s3", "p")
    assert inst.agent_pref["a_s1"] == ("p_s1", "p")
    assert inst.agent_pref["b_e1"] == ("p_s1", "p_s2")
    assert inst.agent_pref["b_e2"] == ("p_s2", "p_s3")
    assert inst.program_pref["p_s2"] == ("a_s2", "b_e1", "b_e2")
    assert inst.program_pref["p"] == ("a_s1", "a_s2", "a_s3")
    assert inst.cost == {"p_s1": 1, "p_s2": 1, "p_s3": 1, "p": 0}
    validate(inst)


def test_cover_embedding_objective_counts_the_cover():
    assert oracle_minsum(reduce_set_cover(small_cover())).objective == 2 + 1


def test_cover_embedding_with_three_occurrences_uses_fillers():
    sc = SetCoverInstance(sets={"s1": ["e1"], "s2": ["e1"], "s3": ["e1"]},
                          elements=["e1"], f=3)
    inst = reduce_set_cover(sc)
    assert inst.programs == ("p_s1", "p_s2", "p_s3", "p", "q1")
    assert inst.agent_pref["a_s1"] == ("p_s1", "p", "q1")
    assert inst.cost["q1"] == 1
    validate(inst)
    assert oracle_minsum(inst).objective == 1 + 1


def test_cover_embedding_requires_two_occurrences():
    sc = SetCoverInstance(sets={"s1": ["e1"]}, elements=["e1"], f=1)
    with pytest.raises(ValueError):
        reduce_set_cover(sc)


def test_cover_embedding_lists_follow_master_orders():
    inst = reduce_set_cover(small_cover())
    assert helpers.order_consistent(list(inst.agent_pref.values()))
    assert helpers.order_consistent(list(inst.program_pref.values()))


def test_cover_instance_validation():
    with pytest.raises(ValueError):
        SetCoverInstance(sets={"s1": ["e1", "e1"]}, elements=["e1"], f=2)
    with pytest.raises(ValueError):
        SetCoverInstance(sets={"s1": ["zz"]}, elements=["e1"], f=1)
    with pytest.raises(ValueError):
        SetCoverInstance(sets={"s1": ["e1"], "s2": []}, elements=["e1"], f=2)


def test_cover_embedding_matches_brute_force_on_random_instances():
    rng = random.Random(20260819)
    for _ in range(25):
        m = rng.randint(2, 4)
        n = rng.randint(1, 4)
        set_ids = [f"s{i}" for i in range(1, m + 1)]
        sets: dict[str, list[str]] = {s: [] for s in set_ids}
        elements = [f"e{j}" for j in range(1, n + 1)]
        for e in elements:
            for s in rng.sample(set_ids, 2):
                sets[s].append(e)
        sc = SetCoverInstance(sets=sets, elements=elements, f=2)
        tau = helpers.brute_min_cover(sets, elements)
        assert oracle_minsum(reduce_set_cover(sc)).objective == n + tau


def test_vertex_embedding_structure_and_objective():
    # one edge: 2 vertices, 1 edge, cover size 1 -> 2*1*2 + 3*1*1 = 7
    g = GraphInstance(vertices=["u", "v"], edges=[("u", "v")])
    inst = reduce_vertex_cover(g)
    assert inst.programs == ("p_u", "p_v", "r_u", "r_v", "p")
    assert inst.cost == {"p_u": 3, "p_v": 3, "r_u": 4, "r_v": 4, "p": 0}
    assert inst.agent_pref["a_u_1"] == ("p_u", "r_u", "p")
    assert inst.agent_pref["e1"] == ("r_u", "r_v")
    validate(inst)
    assert oracle_minsum(inst).objective == 7


def test_vertex_embedding_matches_brute_force_on_a_path():
    # path u - v - w: cover {v} -> 2*2*3 + 3*2*1 = 18
    g = GraphInstance(vertices=["u", "v", "w"], edges=[("u", "v"), ("v", "w")])
    tau = helpers.brute_min_vertex_cover(g.vertices, g.edges)
    assert tau == 1
    assert oracle_minsum(reduce_vertex_cover(g)).objective == \
        2 * 2 * 3 + 3 * 2 * tau


def test_graph_instance_validation():
    with pytest.raises(ValueError):
        GraphInstance(vertices=["u"], edges=[("u", "u")])
    with pytest.raises(ValueError):
        GraphInstance(vertices=["u", "v"], edges=[("u", "z")])
    with pytest.raises(ValueError):
        GraphInstance(vertices=["u", "v"], edges=[("u", "v"), ("v", "u")])


# ---------------------------------------------------------------------------
# random families


def test_random_markets_are_valid_and_reproducible():
    for seed in range(40):
        inst = gen_random(5, 4, 3, 7, seed=seed)
        validate(inst)
        assert gen_random(5, 4, 3, 7, seed=seed) == inst
    assert gen_random(5, 4, 3, 7, seed=1) != gen_random(5, 4, 3, 7, seed=2)


def test_random_market_parameter_validation():
    with pytest.raises(ValueError):
        gen_random(0, 3, 1, 5, seed=0)
    with pytest.raises(ValueError):
        gen_random(3, 2, 3, 5, seed=0)  # lists longer than the market
    with pytest.raises(ValueError):
        gen_random(3, 2, 1, -1, seed=0)
    with pytest.raises(ValueError, match="quota_max"):
        gen_random_hr(3, 2, 1, 5, quota_max=0, seed=0)


def test_master_list_markets_follow_two_global_orders():
    for seed in range(40):
        inst = gen_master_list(6, 5, 3, 9, seed=seed)
        validate(inst)
        assert helpers.order_consistent(list(inst.agent_pref.values())), seed
        assert helpers.order_consistent(list(inst.program_pref.values())), seed
    assert gen_master_list(6, 5, 3, 9, seed=3) == gen_master_list(6, 5, 3, 9, seed=3)


def test_master_list_markets_match_their_sorted_definition():
    # the generator transposes the lists in master order; the reference draws the same stream
    # from random.Random and sorts, on both sides of sample's pool/index-set switch (85/86
    # programs for lists of 10), complete lists, one agent and one program
    for shape in ((40, 85, 10, 9), (40, 86, 10, 9), (12, 7, 7, 9), (1, 9, 4, 9), (15, 1, 1, 9)):
        for seed in range(200):
            assert gen_master_list(*shape, seed) == helpers.master_list_reference(*shape, seed), \
                (shape, seed)


def test_random_quota_markets_are_valid():
    for seed in range(40):
        inst = gen_random_hr(5, 4, 3, 7, quota_max=3, seed=seed)
        validate(inst)
        assert all(1 <= q <= 3 for q in inst.quota.values())
    assert gen_random_hr(5, 4, 3, 7, quota_max=3, seed=11) == \
        gen_random_hr(5, 4, 3, 7, quota_max=3, seed=11)


def test_generated_bytes_are_pinned():
    # the serialized markets must not move when construction gets cheaper; the
    # graph is the Petersen graph, outer cycle v0..v4 and inner star v5..v9
    outer = [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"v{i}", f"v{i + 5}") for i in range(5)]
    inner = [(f"v{5 + i}", f"v{5 + (i + 2) % 5}") for i in (0, 2, 4, 1, 3)]
    petersen = GraphInstance(vertices=[f"v{i}" for i in range(10)], edges=outer + spokes + inner)
    for inst, digest in (
        (gen_random(500, 30, 6, 9, 1),
         "150532d091dd54788b6eb4f57e3ef3df2c5a3c0c3ac43599604967a400f275f8"),
        (gen_master_list(500, 30, 6, 9, 1),
         "41fe8b4f6194d0748e2d7b0e414e5bc77ee44d514cb024915beab06d279b89e8"),
        (gen_random_hr(500, 30, 6, 9, 10, 1),
         "f9975e20dec7900d4bc6e54ff43593582c0730508db51cd711e684ff48192531"),
        # lists of 10 drawn from 85 programs take sample's pool branch, from 86 its set branch
        (gen_random(200, 85, 10, 9, 1),
         "ae188c8c6f134bcfff9f0a0d86881f0d9ed6c84d04b1a2380ad81e873b8bc639"),
        (gen_random(200, 86, 10, 9, 1),
         "e2e6cee920bb5ea7f250b2075aba1e2baecdcfafdbf7435da34e4763568d0839"),
        # the benchmark's 5,000-agent quota market and its 100-program master-list shape
        (gen_random_hr(5000, 150, 10, 9, 40, 1),
         "3699c8890aabadf8b2c0d332a57d94c212b21e298c7322a12096b905db4e1529"),
        (gen_master_list(5000, 100, 10, 9, 1),
         "27550c79fbbff19ae709f2d906097c5a5473b16227c10ca2d4beded76a462dcc"),
        (reduce_vertex_cover(petersen),
         "f0f0d6b68ad1928581bc448f249c0c3a1d2e30505034f89f87c2d37aa698f63c"),
    ):
        assert hashlib.sha256(serialize_instance(inst).encode("utf-8")).hexdigest() == digest


def test_draws_repeat_the_standard_library_streams():
    # the generators' draw helper must consume getrandbits exactly as random.Random's own
    # methods do on the running interpreter; each case ends with one more draw on both sides,
    # so a helper that draws the same values but a different number of bits also fails.
    # sample switches from its pool to its index set above n = 21 for k <= 5, 85 for
    # k = 6..21 and 277 for k = 22..85; the shapes sit on both sides of each switch
    def same_stream(seed, draw_std, draw_ours):
        std, ours = random.Random(seed), _Draws(seed)
        assert draw_ours(ours) == draw_std(std), seed
        assert ours.below(1 << 30) == std.randrange(1 << 30), seed

    def shuffled(shuffle, n):
        x = list(range(n))
        shuffle(x)
        return x

    for k, edge in ((1, 21), (2, 21), (5, 21), (6, 85), (10, 85), (21, 85), (22, 277)):
        for n in (max(k, edge - 1), edge, edge + 1, edge + 2):
            population = [f"p{j}" for j in range(n)]
            for seed in range(12):
                same_stream(seed, lambda r: [r.sample(population, k) for _ in range(3)],
                            lambda d: d.samples(population, k, 3))
    # on the index-set branch, samples keeps a table of all n.bit_length()-bit values, with those
    # >= n taken from the start: one value is past the end at n = 2**b - 1, half of them at 2**b
    for k, sizes in ((10, (127, 128, 129, 255, 256, 257)), (22, (511, 512, 513))):
        for n in sizes:
            population = [f"p{j}" for j in range(n)]
            for seed in range(12):
                same_stream(seed, lambda r: [r.sample(population, k) for _ in range(3)],
                            lambda d: d.samples(population, k, 3))
    for n in range(401):
        same_stream(n, lambda r: shuffled(r.shuffle, n), lambda d: shuffled(d.shuffle, n))
    widths = [1] + [w for j in range(1, 41) for w in (1 << j, (1 << j) + 1)]
    for seed in range(3):
        same_stream(seed, lambda r: [r.randrange(w) for w in widths for _ in range(4)],
                    lambda d: [d.below(w) for w in widths for _ in range(4)])


def test_sweep_families_stay_inside_their_advertised_bounds():
    for seed in range(150):
        inst = bench_instance(seed)
        assert 1 <= len(inst.agents) <= 6
        assert 1 <= len(inst.programs) <= 5
        assert all(len(lst) <= 4 for lst in inst.agent_pref.values())
        assert all(0 <= c <= 9 for c in inst.cost.values())
        assert bench_instance(seed) == inst
        hr = bench_hr_instance(seed)
        assert 1 <= len(hr.agents) <= 6
        assert all(1 <= q <= 3 for q in hr.quota.values())
        assert bench_hr_instance(seed) == hr


def test_objectives_survive_renaming():
    for seed in range(25):
        inst = bench_instance(seed)
        amap = {a: f"x_{a}" for a in inst.agents}
        pmap = {p: f"y_{p}" for p in inst.programs}
        renamed = helpers.relabel(inst, amap, pmap)
        validate(renamed)
        assert oracle_minsum(renamed).objective == oracle_minsum(inst).objective
