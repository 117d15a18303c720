"""End-to-end acceptance suite.

Each test pins one headline guarantee of the package against an
independent oracle (brute force over permutations or subsets, closed-form
fixtures, or cross-route agreement) at desk scale, inside an explicit
time budget.  ``test_6_structural_invariants`` re-checks the lattice and
poset invariants on every instance the earlier tests touched, so it must
run after them (pytest's default file order does this).
"""

import random
import time
from fractions import Fraction

import pytest

from conftest import (
    GRAPH_3X4,
    GRAPH_4X5,
    all_small_bipartite,
    brute_force_stable_matchings,
    check_structure,
    independent_sets_oracle,
    random_1attribute,
    random_bipartite,
    random_instance,
    truncated_lists,
)
from stablecount import (
    AttributeSpec,
    Matching,
    Side,
    TieDetected,
    count_1attribute,
    count_independent_sets,
    count_stable_matchings,
    edge_cycles,
    enumerate_stable_matchings,
    find_all_rotations,
    gen_2euclidean,
    gen_3attribute,
    gen_partial_lists,
    induced_instance,
    instance_from_1attribute,
    instance_from_dot,
    instance_from_euclidean,
    propose_optimal,
    read_tau,
    rotation_poset,
    verify_reduction,
)
from stablecount.cli import run


TOUCHED = []  # instances accumulated for the structural-invariant sweep


def touch(inst):
    TOUCHED.append(inst)
    return inst


def test_1_counting_matches_brute_force():
    rng = random.Random(20260801)
    start = time.monotonic()
    for _ in range(500):
        inst = touch(random_instance(rng, rng.randint(1, 7)))
        oracle = brute_force_stable_matchings(inst)
        assert count_stable_matchings(inst) == len(oracle)
        assert set(enumerate_stable_matchings(inst)) == set(oracle)
    assert time.monotonic() - start < 60


def test_2_lists_reduction_preserves_the_count():
    rng = random.Random(20260802)
    start = time.monotonic()
    graphs = all_small_bipartite(5)
    assert len(graphs) > 1000  # exhaustive sweep, not a sample
    graphs += [random_bipartite(rng, 12) for _ in range(100)]
    for g in graphs:
        inst = touch(gen_partial_lists(g))
        want = count_independent_sets(g)
        assert want == independent_sets_oracle(g)
        assert count_stable_matchings(inst) == want
    assert time.monotonic() - start < 300


def test_3_geometric_routes_match():
    rng = random.Random(20260803)
    start = time.monotonic()
    for _ in range(50):
        g = random_bipartite(rng, 8, min_edges=2)
        want = count_independent_sets(g)
        assert want == independent_sets_oracle(g)
        for build in (
            lambda: instance_from_dot(gen_3attribute(g)),
            lambda: instance_from_euclidean(gen_2euclidean(g)),
        ):
            inst = touch(build())
            assert count_stable_matchings(inst) == want
            base = gen_partial_lists(g, tau=read_tau(inst))
            assert truncated_lists(inst) == truncated_lists(base)
    assert time.monotonic() - start < 600


def test_4_fixed_graph_fixtures_and_closed_forms():
    cp = edge_cycles(GRAPH_3X4)
    assert cp.rho_cycles == ((1, 2, 3), (4, 5, 6), (7, 8))
    assert cp.sigma_cycles == ((1, 7), (2, 4), (5,), (3, 6, 8))

    report = verify_reduction(GRAPH_4X5, "lists")
    assert report.all_ok, str(report)
    assert report.is_count == independent_sets_oracle(GRAPH_4X5)
    touch(gen_partial_lists(GRAPH_4X5))

    rng = random.Random(20260804)
    for _ in range(20):
        g = random_bipartite(rng, 10)
        cp = edge_cycles(g)
        n = cp.n
        inst = touch(gen_partial_lists(g))
        assert propose_optimal(inst, Side.MAN) == Matching(tuple(range(1, 3 * n + 1)))
        wives = [0] * (3 * n)
        for x in range(1, n + 1):
            wives[x - 1] = n + cp.rho[x - 1]
            wives[n + x - 1] = 2 * n + x
            wives[2 * n + x - 1] = cp.sigma[x - 1]
        assert propose_optimal(inst, Side.WOMAN) == Matching(tuple(wives))


def test_5_one_attribute_counter():
    rng = random.Random(20260805)
    for _ in range(500):
        spec = random_1attribute(rng, rng.randint(1, 7))
        inst = touch(instance_from_1attribute(spec))
        assert count_1attribute(spec) == len(brute_force_stable_matchings(inst))
        rots = find_all_rotations(inst)[0]
        people = set()
        for rot in rots:
            assert len(rot) == 2
            for m, w in rot.pairs:
                assert ("m", m) not in people
                people.add(("m", m))
                assert ("w", w) not in people
                people.add(("w", w))
        rposet = rotation_poset(inst)
        for i in range(len(rposet)):
            for j in range(i + 1, len(rposet)):
                assert (rposet.below[j] | rposet.above[j]) >> i & 1

    for _ in range(20):
        spec = random_1attribute(rng, 1000)
        start = time.monotonic()
        count_1attribute(spec)
        assert time.monotonic() - start < 5


def test_6_structural_invariants():
    assert TOUCHED, "must run after the tests that populate the pool"
    rng = random.Random(20260806)
    for inst in TOUCHED:
        check_structure(inst, rng)


def test_7_tie_detection(tmp_path, capsys):
    one, two = Fraction(1), Fraction(2)
    spec_args = dict(
        men_pos=((one, two), (two, one)),
        men_pref=((one, one), (one, two)),
        women_pos=((two, one), (two, one)),  # identical position vectors
        women_pref=((one, two), (two, one)),
    )
    with pytest.raises(TieDetected):
        instance_from_dot(AttributeSpec(2, 2, **spec_args))

    text = (
        "model dot 2 2\n"
        "mpos 1: 1 2\nmpos 2: 2 1\n"
        "mpref 1: 1 1\nmpref 2: 1 2\n"
        "wpos 1: 2 1\nwpos 2: 2 1\n"
        "wpref 1: 1 2\nwpref 2: 2 1\n"
    )
    path = tmp_path / "tied.txt"
    path.write_text(text)
    assert run(["count", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no instance emitted
    assert "error:" in captured.err
