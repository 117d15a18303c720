import random

import pytest

import stablecount.reductions
from conftest import (
    GRAPH_3X4,
    GRAPH_4X5,
    all_small_bipartite,
    brute_force_stable_matchings,
    eliminated_pairs,
    explicitly_precedes,
    independent_sets_oracle,
    random_bipartite,
    suitor,
    truncated_lists,
)
from stablecount import (
    enumerate_stable_matchings,
    BipartiteGraph,
    Instance,
    Matching,
    RotationPoset,
    Side,
    build_instance,
    count_independent_sets,
    count_stable_matchings,
    edge_cycles,
    find_all_rotations,
    gen_2euclidean,
    gen_3attribute,
    gen_partial_lists,
    induced_instance,
    propose_optimal,
    read_tau,
    rotation_poset,
    verify_reduction,
)


SINGLE_EDGE = BipartiteGraph(1, 1, ((1, 1),))


def test_edge_cycles_single_edge():
    cp = edge_cycles(SINGLE_EDGE)
    assert cp.rho == (1,)
    assert cp.sigma == (1,)
    assert cp.rho_cycles == ((1,),)
    assert cp.sigma_cycles == ((1,),)


def test_edge_cycles_fixed_graph():
    cp = edge_cycles(GRAPH_3X4)
    assert cp.rho_cycles == ((1, 2, 3), (4, 5, 6), (7, 8))
    assert cp.sigma_cycles == ((1, 7), (2, 4), (5,), (3, 6, 8))


def test_rho_cycles_are_consecutive_intervals():
    rng = random.Random(83)
    for _ in range(40):
        g = random_bipartite(rng, 10)
        for cyc in edge_cycles(g).rho_cycles:
            assert list(cyc) == list(range(cyc[0], cyc[0] + len(cyc)))


def test_rho_sigma_cycles_share_at_most_one_edge():
    rng = random.Random(89)
    for _ in range(40):
        g = random_bipartite(rng, 10)
        cp = edge_cycles(g)
        for rho in cp.rho_cycles:
            for sigma in cp.sigma_cycles:
                assert len(set(rho) & set(sigma)) <= 1


def test_single_edge_lists_instance():
    inst = gen_partial_lists(SINGLE_EDGE)
    assert inst.n == 3
    assert len(brute_force_stable_matchings(inst)) == 3


def test_optima_closed_forms():
    rng = random.Random(97)
    graphs = [SINGLE_EDGE, GRAPH_3X4] + [random_bipartite(rng, 10) for _ in range(10)]
    for g in graphs:
        cp = edge_cycles(g)
        n = cp.n
        inst = gen_partial_lists(g)
        assert propose_optimal(inst, Side.MAN) == Matching(tuple(range(1, 3 * n + 1)))
        wives = [0] * (3 * n)
        for x in range(1, n + 1):
            wives[x - 1] = n + cp.rho[x - 1]
            wives[n + x - 1] = 2 * n + x
            wives[2 * n + x - 1] = cp.sigma[x - 1]
        assert propose_optimal(inst, Side.WOMAN) == Matching(tuple(wives))


def test_suitor_closed_forms_at_man_optimal():
    rng = random.Random(101)
    for g in [GRAPH_3X4] + [random_bipartite(rng, 8) for _ in range(10)]:
        cp = edge_cycles(g)
        n = cp.n
        inst = gen_partial_lists(g)
        mopt = propose_optimal(inst, Side.MAN)
        for x in range(1, n + 1):
            assert suitor(inst, mopt, x) == n + cp.rho[x - 1]  # A_x -> b_{rho x}
            assert suitor(inst, mopt, n + x) == x  # B_x -> a_x
            assert suitor(inst, mopt, 2 * n + x) == cp.sigma[x - 1]  # C_x -> a_{sigma x}


def test_rotation_forms_partition_vertices():
    rng = random.Random(103)
    for g in [SINGLE_EDGE, GRAPH_3X4] + [random_bipartite(rng, 8) for _ in range(10)]:
        cp = edge_cycles(g)
        n = cp.n
        rots = find_all_rotations(gen_partial_lists(g))[0]
        assert len(rots) == len(cp.rho_cycles) + len(cp.sigma_cycles)
        rho_sets = {
            frozenset((x, x) for x in cyc) | frozenset((n + x, n + x) for x in cyc)
            for cyc in cp.rho_cycles
        }
        sigma_sets = {
            frozenset((n + x, x) for x in cyc)
            | frozenset((2 * n + x, 2 * n + x) for x in cyc)
            for cyc in cp.sigma_cycles
        }
        assert {frozenset(r.pairs) for r in rots} == rho_sets | sigma_sets


def test_fixed_graph_rotation_tally():
    rots = find_all_rotations(gen_partial_lists(GRAPH_3X4))[0]
    cp = edge_cycles(GRAPH_3X4)
    n = cp.n
    rho_count = sum(1 for r in rots if all(m <= 2 * n for m, _ in r.pairs))
    assert rho_count == 3
    assert len(rots) - rho_count == 4


def test_rho_rotation_eliminates_only_own_b_partner():
    g = GRAPH_3X4
    cp = edge_cycles(g)
    n = cp.n
    inst = gen_partial_lists(g)
    rots = find_all_rotations(inst)[0]
    for rot in rots:
        if not all(m <= 2 * n for m, _ in rot.pairs):
            continue  # sigma-shaped
        elim = eliminated_pairs(inst, rot)
        for x, _ in rot.pairs:
            if x > n:  # man B_x holds woman b_x inside the rotation
                pairs_for_b = [(m, w) for m, w in elim if w == n + (x - n)]
                assert pairs_for_b == [(x, n + (x - n))]


def test_precedence_structure_of_generated_instances():
    rng = random.Random(107)
    for g in [GRAPH_3X4] + [random_bipartite(rng, 8) for _ in range(8)]:
        cp = edge_cycles(g)
        n = cp.n
        inst = gen_partial_lists(g)
        rots = find_all_rotations(inst)[0]
        rho_rots = [r for r in rots if all(m <= 2 * n for m, _ in r.pairs)]
        sigma_rots = [r for r in rots if r not in rho_rots]
        for r in rho_rots:
            for s in sigma_rots:
                shares_man = bool({m for m, _ in r.pairs} & {m for m, _ in s.pairs})
                assert explicitly_precedes(inst, r, s) == shares_man
        for r in rots:
            for rho in rho_rots:
                assert not explicitly_precedes(inst, r, rho)
        for s in sigma_rots:
            for r in rots:
                assert not explicitly_precedes(inst, s, r)


def test_single_edge_poset_is_two_chain():
    rposet = rotation_poset(gen_partial_lists(SINGLE_EDGE))
    assert len(rposet) == 2
    assert rposet.below == (0, 1)  # 0 precedes 1


def test_stable_pairs_closed_form():
    rng = random.Random(109)
    for g in [SINGLE_EDGE] + [random_bipartite(rng, 6) for _ in range(6)]:
        cp = edge_cycles(g)
        n = cp.n
        inst = gen_partial_lists(g)
        expect = set()
        for x in range(1, n + 1):
            expect |= {(x, x), (x, n + cp.rho[x - 1])}
            expect |= {(n + x, n + x), (n + x, x), (n + x, 2 * n + x)}
            expect |= {(2 * n + x, 2 * n + x), (2 * n + x, cp.sigma[x - 1])}
        stable_pairs = {
            pair
            for matching in enumerate_stable_matchings(inst)
            for pair in matching.pairs()
        }
        assert stable_pairs == expect


def test_truncated_a_list_is_own_then_rho():
    rng = random.Random(113)
    for g in [GRAPH_3X4] + [random_bipartite(rng, 8) for _ in range(6)]:
        cp = edge_cycles(g)
        n = cp.n
        men_lists, _ = truncated_lists(gen_partial_lists(g))
        for x in range(1, n + 1):
            assert men_lists[x - 1] == (x, n + cp.rho[x - 1])


def test_count_equals_independent_sets():
    rng = random.Random(127)
    for g in [SINGLE_EDGE, GRAPH_3X4, GRAPH_4X5] + [
        random_bipartite(rng, 9) for _ in range(10)
    ]:
        want = count_independent_sets(g)
        assert want == independent_sets_oracle(g)
        assert count_stable_matchings(gen_partial_lists(g)) == want


def test_count_independent_of_tau():
    rng = random.Random(131)
    g = GRAPH_3X4
    n = edge_cycles(g).n
    want = count_independent_sets(g)
    assert want == independent_sets_oracle(g)
    for _ in range(10):
        tau = tuple(rng.sample(range(1, n + 1), n))
        inst = gen_partial_lists(g, tau=tau)
        assert count_stable_matchings(inst) == want
        assert read_tau(inst) == tau
    with pytest.raises(ValueError) as err:
        gen_partial_lists(g, tau=(1,) * n)
    assert str(err.value) == "tau must be a permutation of 1..n"
    with pytest.raises(ValueError) as err:
        read_tau(Instance(3, ((1, 2, 3),) * 3, ((1, 2, 3),) * 3))
    assert str(err.value) == "instance does not start with a b-block"


def test_read_tau_refuses_sizes_no_generator_makes():
    # every generated instance is 3n by 3n, so any other size is refused,
    # even where its first lists would read as a b-block
    for size in (1, 2, 4, 5):
        lists = ((*range(2, size + 1), 1),) * size  # B_1 would rank b_1 first
        with pytest.raises(ValueError) as err:
            read_tau(Instance(size, lists, lists))
        assert str(err.value) == f"instance size {size} is not a multiple of 3"


def test_b_list_starts_with_reversed_b_block():
    # every B-man ranks the b-women first, in one order: b_tau(n) .. b_tau(1)
    g = GRAPH_3X4
    n = edge_cycles(g).n
    inst = induced_instance(gen_3attribute(g))
    block = tuple(n + t for t in reversed(read_tau(inst)))
    for x in range(1, n + 1):
        assert inst.men_prefs[n + x - 1][:n] == block
        assert inst.men_prefs[n + x - 1][n] == x


def test_attribute_route_matches_lists_route():
    g = GRAPH_3X4
    inst = induced_instance(gen_3attribute(g))
    base = gen_partial_lists(g, tau=read_tau(inst))
    assert truncated_lists(inst) == truncated_lists(base)


def test_euclidean_women_lists_match_lists_route():
    g = GRAPH_3X4
    inst = induced_instance(gen_2euclidean(g))
    base = gen_partial_lists(g, tau=read_tau(inst))
    _, women_got = truncated_lists(inst)
    _, women_want = truncated_lists(base)
    assert women_got == women_want


def test_euclidean_c_list_starts_with_own_then_sigma():
    g = GRAPH_3X4
    cp = edge_cycles(g)
    n = cp.n
    inst = induced_instance(gen_2euclidean(g))
    for x in range(1, n + 1):
        assert inst.men_prefs[2 * n + x - 1][0] == 2 * n + x
        assert inst.men_prefs[2 * n + x - 1][1] == cp.sigma[x - 1]


def test_euclidean_counts_on_small_graphs():
    rng = random.Random(137)
    for g in [SINGLE_EDGE] + [random_bipartite(rng, 6) for _ in range(5)]:
        inst = induced_instance(gen_2euclidean(g))
        want = count_independent_sets(g)
        assert want == independent_sets_oracle(g)
        assert count_stable_matchings(inst) == want


def test_verify_single_edge():
    for model in ("lists", "attr3", "euclid2"):
        report = verify_reduction(SINGLE_EDGE, model)
        assert report.all_ok, str(report)
        assert report.is_count == report.sm_count == 3


def test_verify_two_edge_path_all_models():
    path = BipartiteGraph(2, 1, ((1, 1), (2, 1)))
    for model in ("lists", "attr3", "euclid2"):
        report = verify_reduction(path, model)
        assert report.all_ok, str(report)
        assert report.is_count == independent_sets_oracle(path)


def test_verify_fixed_graphs():
    report = verify_reduction(GRAPH_4X5, "lists")
    assert report.all_ok, str(report)
    assert report.is_count == independent_sets_oracle(GRAPH_4X5)
    report = verify_reduction(GRAPH_3X4, "attr3")
    assert report.all_ok, str(report)
    assert report.sm_count == 29


def test_attr3_mirror_tie_repro():
    # 16 edges: with only the tilted preferences nudged, woman b_5 scored
    # A_2 and C_11 exactly alike, as mirror images about her preference
    g = BipartiteGraph(7, 8, (
        (1, 1), (1, 6), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7),
        (2, 8), (3, 5), (3, 6), (3, 7), (4, 5), (5, 1), (6, 6), (7, 8),
    ))
    report = verify_reduction(g, "attr3")
    assert report.all_ok, str(report)
    assert report.is_count == independent_sets_oracle(g)


def test_attr3_never_ties_on_random_graphs():
    rng = random.Random(2027)
    for _ in range(20):
        g = random_bipartite(rng, 25, min_edges=10)
        assert 10 <= len(g.edges) <= 25
        report = verify_reduction(g, "attr3")  # raises TieDetected on a tie
        assert report.all_ok, str(report)


@pytest.mark.parametrize("model", ["attr3", "euclid2"])
def test_geometric_routes_on_every_small_graph(model):
    # all 225 labelled graphs of 1 to 4 edges; the two models induce one
    # instance, as attr3 is the paraboloid lift of euclid2
    graphs = all_small_bipartite(4)
    assert len(graphs) == 225
    for g in graphs:
        report = verify_reduction(g, model)  # raises TieDetected on a tie
        assert report.all_ok, (g, str(report))
        assert report.is_count == independent_sets_oracle(g)
        assert build_instance(g, "attr3") == build_instance(g, "euclid2")


def test_build_instance_rejects_unknown_model():
    with pytest.raises(ValueError):
        build_instance(SINGLE_EDGE, "nonsense")


TWO_EDGE_PATH = BipartiteGraph(2, 1, ((1, 1), (2, 1)))


def _flags(report):
    return {
        "male_optimal": report.male_optimal_ok,
        "female_optimal": report.female_optimal_ok,
        "rotation_forms": report.rotation_forms_ok,
        "poset_isomorphic": report.poset_isomorphic_ok,
        "counts_equal": report.counts_equal,
    }


def _assert_fails_exactly(report, failing):
    flags = _flags(report)
    assert {name for name, ok in flags.items() if not ok} == set(failing)
    assert not report.all_ok
    lines = str(report).splitlines()
    for name in flags:
        mark = "FAIL" if name in failing else "pass"
        assert f"{name + ':':<18}{mark}" in lines
    assert report.details  # every failure says why


def test_report_string_marks_failures(monkeypatch):
    report = verify_reduction(SINGLE_EDGE, "lists")
    text = str(report)
    assert "pass" in text and "FAIL" not in text
    # the instance of another graph with as many edges: same 3n people
    monkeypatch.setattr(
        stablecount.reductions, "build_instance",
        lambda graph, model: gen_partial_lists(GRAPH_4X5),
    )
    report = verify_reduction(GRAPH_3X4, "lists")
    _assert_fails_exactly(
        report, ("female_optimal", "rotation_forms", "poset_isomorphic", "counts_equal")
    )
    assert (report.is_count, report.sm_count) == (29, 93)
    assert "counts differ: #IS=29 #SM=93" in report.details.splitlines()


def test_verifier_fails_transposed_instance(monkeypatch):
    build = stablecount.reductions.build_instance
    monkeypatch.setattr(
        stablecount.reductions, "build_instance",
        lambda graph, model: build(graph, model).transposed(),
    )
    for g in (GRAPH_3X4, TWO_EDGE_PATH):
        report = verify_reduction(g, "lists")
        # the same lattice upside down: equal counts, every shape wrong
        _assert_fails_exactly(
            report, ("male_optimal", "female_optimal", "rotation_forms", "poset_isomorphic")
        )
        assert report.is_count == report.sm_count == independent_sets_oracle(g)
        assert report.details.startswith("male-optimal differs: ")


def test_verifier_fails_wrong_order(monkeypatch):
    # the right rotations with every relation between them dropped
    def unordered(inst):
        rposet = rotation_poset(inst)
        return RotationPoset(
            (0,) * rposet.size,
            rotations=rposet.rotations,
            man_optimal=rposet.man_optimal,
            woman_optimal=rposet.woman_optimal,
        )

    monkeypatch.setattr(stablecount.reductions, "rotation_poset", unordered)
    report = verify_reduction(GRAPH_3X4, "lists")
    _assert_fails_exactly(report, ("poset_isomorphic", "counts_equal"))
    assert report.sm_count == 2**7


def test_verifier_fails_missing_rotation(monkeypatch):
    def short(inst):
        rposet = rotation_poset(inst)
        return RotationPoset(
            rposet.below[:-1],
            rotations=rposet.rotations[:-1],
            man_optimal=rposet.man_optimal,
            woman_optimal=rposet.woman_optimal,
        )

    monkeypatch.setattr(stablecount.reductions, "rotation_poset", short)
    report = verify_reduction(GRAPH_3X4, "lists")
    _assert_fails_exactly(report, ("rotation_forms", "poset_isomorphic", "counts_equal"))
    assert report.details.splitlines()[0] == (
        "rotation multiset does not cover every vertex exactly once"
    )


def test_verifier_labels_rotations_by_pairs_not_position(monkeypatch):
    # another elimination order lists the rotations in another linear
    # extension; the verifier must still match each to its vertex
    def reversed_walk(inst):
        return rotation_poset(inst, tuple(range(inst.n, 0, -1)))

    monkeypatch.setattr(stablecount.reductions, "rotation_poset", reversed_walk)
    for g in (GRAPH_3X4, GRAPH_4X5):
        inst = gen_partial_lists(g)
        assert [r.pairs for r in reversed_walk(inst).rotations] != [
            r.pairs for r in rotation_poset(inst).rotations
        ]
        report = verify_reduction(g, "lists")
        assert report.all_ok, str(report)


def test_verifier_counts_a_second_poset_only_when_they_differ(monkeypatch):
    counted = []
    plain = stablecount.reductions.count_downsets

    def counted_count(poset):
        counted.append(poset.size)
        return plain(poset)

    monkeypatch.setattr(stablecount.reductions, "count_downsets", counted_count)
    report = verify_reduction(GRAPH_3X4, "lists")
    assert report.all_ok and report.sm_count == 29
    assert counted == [GRAPH_3X4.size]

    def unordered(inst):  # as in test_verifier_fails_wrong_order
        rposet = rotation_poset(inst)
        return RotationPoset(
            (0,) * rposet.size,
            rotations=rposet.rotations,
            man_optimal=rposet.man_optimal,
            woman_optimal=rposet.woman_optimal,
        )

    counted.clear()
    monkeypatch.setattr(stablecount.reductions, "rotation_poset", unordered)
    report = verify_reduction(GRAPH_3X4, "lists")
    assert not report.poset_isomorphic_ok and report.sm_count == 2**7
    assert counted == [GRAPH_3X4.size] * 2
