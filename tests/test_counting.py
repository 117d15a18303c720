import itertools
import random
import sys

import pytest

from conftest import (
    GRAPH_3X4,
    GRAPH_4X5,
    brute_force_independent_sets,
    brute_force_stable_matchings,
    independent_sets_oracle,
    random_bipartite,
    random_instance,
)
from stablecount import (
    MEMO_BUDGET,
    BipartiteGraph,
    Instance,
    ParseError,
    Poset,
    Side,
    SizeLimitError,
    count_downsets,
    count_independent_sets,
    count_stable_matchings,
    edge_cycles,
    enumerate_downsets,
    enumerate_stable_matchings,
    format_bipartite,
    gen_partial_lists,
    matching_from_downset,
    parse_bipartite,
    poset_from_bipartite,
    propose_optimal,
    rotation_poset,
    verify_reduction,
)
from stablecount import counting, gale_shapley


def chain(k):
    below = tuple((1 << i) - 1 for i in range(k))
    return Poset(below)


def antichain(k):
    return Poset((0,) * k)


def random_poset(rng, k, density=0.4):
    below = [0] * k
    for j in range(k):
        for i in range(j):
            if rng.random() < density:
                below[j] |= 1 << i | below[i]  # keep transitively closed
    return Poset(tuple(below))


def relabelled(poset, perm):
    # element x becomes perm[x], so the indices need not be a linear extension
    below = [0] * poset.size
    for x in range(poset.size):
        below[perm[x]] = sum(1 << perm[y] for y in range(poset.size) if poset.below[x] >> y & 1)
    return Poset(tuple(below))


def oracle_downsets(poset):
    # filter all subsets for downward closure
    out = []
    for bits in range(1 << poset.size):
        if all(
            poset.below[x] & bits == poset.below[x]
            for x in range(poset.size)
            if bits >> x & 1
        ):
            out.append(bits)
    return out


def test_count_empty_poset():
    assert count_downsets(Poset(())) == 1


def test_poset_refuses_masks_that_are_not_transitively_closed():
    # 0 < 1 < 2 without 0 < 2 was once counted as 5 downsets, with {1, 2}
    # among them; the chain 0 < 1 < 2 has 4, and {1, 2} is not one
    with pytest.raises(ValueError) as err:
        Poset((0, 0b001, 0b010))
    assert str(err.value) == "below[2] holds 1 but not all of below[1]"
    assert len(oracle_downsets(chain(3))) == count_downsets(chain(3)) == 4
    assert 0b110 not in oracle_downsets(chain(3))  # {1, 2}
    with pytest.raises(ValueError, match=r"not all of below\[1\]"):
        Poset((0b10, 0b01))  # a cycle: 0 < 1 < 0


def test_poset_refuses_an_element_outside_its_range_or_below_itself():
    with pytest.raises(ValueError) as err:
        Poset((0b100,))  # once an IndexError
    assert str(err.value) == "below[0] holds an element outside 0..0"
    with pytest.raises(ValueError) as err:
        Poset((0b1,))
    assert str(err.value) == "below[0] holds 0 itself"


def test_count_chain_and_antichain():
    for k in (*range(1, 8), 1200):  # no element cap, no recursion per element
        assert count_downsets(chain(k)) == k + 1
        assert count_downsets(antichain(k)) == 2**k


def fence(k):
    # 0 < 1 > 2 < 3 > ...: each odd element is above its two neighbours
    below = [0] * k
    for i in range(1, k, 2):
        below[i] = 1 << (i - 1) | (1 << (i + 1) if i + 1 < k else 0)
    return Poset(tuple(below))


def fibonacci(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_count_fence_is_fibonacci():
    for k in range(1, 9):
        assert count_downsets(fence(k)) == fibonacci(k + 2)


def test_count_recursion_stays_shallow():
    # the count recurses only into pieces at most half the size of the one
    # it loops on, so a few dozen frames above the caller suffice for a
    # chain, a fence and a sparse poset (its count is from the benchmark's
    # reference counter, perfbench/inputs.py::downsets)
    sparse = random_poset(random.Random(1), 150, 0.05)
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        assert count_downsets(chain(1200)) == 1201
        assert count_downsets(fence(2001)) == fibonacci(2003)
        assert count_downsets(sparse) == 2338452739040
    finally:
        sys.setrecursionlimit(limit)


def test_count_40_by_40_graph_under_relabelling():
    # the count is pinned from the benchmark's independent reference
    # counter, perfbench/inputs.py::downsets
    rng = random.Random(100)
    edges = {(u, rng.randint(1, 40)) for u in range(1, 41)}
    edges |= {(rng.randint(1, 40), v) for v in range(1, 41)}
    while len(edges) < 100:
        edges.add((rng.randint(1, 40), rng.randint(1, 40)))
    graph = BipartiteGraph(40, 40, tuple(edges))
    assert count_independent_sets(graph) == 47031666399706112
    left, right = rng.sample(range(1, 41), 40), rng.sample(range(1, 41), 40)
    shuffled = BipartiteGraph(40, 40, tuple((left[u - 1], right[v - 1]) for u, v in edges))
    swapped = BipartiteGraph(40, 40, tuple((v, u) for u, v in edges))
    assert count_independent_sets(shuffled) == count_independent_sets(swapped) == 47031666399706112


def over_budget_poset() -> Poset:
    # a random 40+40 height-one poset; the lowest-bit split once used up
    # the whole memo budget on it
    rng = random.Random(0)
    below = [0] * 40 + [
        sum(1 << u for u in range(40) if rng.random() < 0.1) for _ in range(40)
    ]
    return Poset(tuple(below))


def test_memo_budget_defaults_to_2_20():
    assert MEMO_BUDGET == counting.MEMO_BUDGET == 2**20


def test_count_rejects_oversized(monkeypatch):
    monkeypatch.setattr(counting, "MEMO_BUDGET", 1000)
    message = (
        "size bound exceeded: memo budget of 1000 entries "
        "used up on a poset of 80 elements"
    )
    with pytest.raises(SizeLimitError, match=message):
        count_downsets(over_budget_poset())


def test_size_limit_error_names_budget_and_size(monkeypatch):
    monkeypatch.setattr(counting, "MEMO_BUDGET", 1000)
    with pytest.raises(SizeLimitError) as err:
        count_downsets(over_budget_poset())
    assert (err.value.budget, err.value.size) == (1000, 80)
    assert str(err.value) == (
        "size bound exceeded: memo budget of 1000 entries "
        "used up on a poset of 80 elements"
    )
    bare = SizeLimitError("size bound exceeded")
    assert (str(bare), bare.budget, bare.size) == ("size bound exceeded", None, None)


def test_count_answers_the_once_refused_poset():
    assert count_downsets(over_budget_poset()) == 1162091146702848


@pytest.mark.parametrize(
    "seed, want", [(0, 608), (1, 393), (2, 1071), (3, 443), (4, 235)]
)
def test_count_stable_matchings_past_64_rotations(seed, want):
    inst = random_instance(random.Random(seed), 400)
    reversed_order = tuple(range(inst.n, 0, -1))
    rposet = rotation_poset(inst, man_order=reversed_order)
    assert len(rposet) > 64
    assert count_stable_matchings(inst) == want
    assert count_downsets(rposet) == want


def test_enumerate_chain():
    got = list(enumerate_downsets(chain(2)))
    assert sorted(got) == [0b00, 0b01, 0b11]  # {}, {0}, {0, 1}
    assert len(list(enumerate_downsets(chain(1200)))) == 1201


def test_enumerate_respects_limit():
    assert len(list(itertools.islice(enumerate_downsets(antichain(5)), 3))) == 3


def test_enumerate_islice_zero_is_empty():
    assert list(itertools.islice(enumerate_downsets(antichain(3)), 0)) == []


def test_enumerate_counts_nothing_first(monkeypatch):
    # counting this poset uses up a budget of 1000 memo entries, so an
    # enumeration that counted first could not give these three downsets
    monkeypatch.setattr(counting, "MEMO_BUDGET", 1000)
    poset = over_budget_poset()
    got = list(itertools.islice(enumerate_downsets(poset), 3))
    assert len(set(got)) == 3
    for mask in got:
        for x in range(poset.size):
            if mask >> x & 1:
                assert all(mask >> y & 1 for y in range(poset.size) if poset.below[x] >> y & 1)
    got = list(itertools.islice(enumerate_downsets(antichain(21)), 3))
    assert got == [0, 1 << 20, 1 << 19]  # {}, {20}, {19}


def test_enumerate_matches_count_on_random_posets():
    rng = random.Random(41)
    labels = random.Random(42)
    for _ in range(100):
        poset = random_poset(rng, rng.randint(0, 12))
        shuffled = relabelled(poset, labels.sample(range(poset.size), poset.size))
        for poset in (poset, shuffled):
            for x in range(poset.size):
                ys = [y for y in range(poset.size) if poset.below[y] >> x & 1]
                assert poset.above[x] == sum(1 << y for y in ys)
            got = list(enumerate_downsets(poset))
            assert len(got) == count_downsets(poset)
            assert len(set(got)) == len(got)
            assert sorted(got) == oracle_downsets(poset)


def test_known_downset_of_height_one_poset():
    # GRAPH_4X5: left vertices are poset elements 0..3, right 4..8; taking
    # right elements f=4, g=5 forces left a=0 and b=1 below them, and d=3
    # joins freely
    poset = poset_from_bipartite(GRAPH_4X5)
    assert sum(1 << x for x in (0, 1, 3, 4, 5)) in set(enumerate_downsets(poset))


def test_count_stable_trivial():
    assert count_stable_matchings(Instance(1, ((1,),), ((1,),))) == 1


def test_count_stable_two_by_two():
    inst = Instance(2, ((1, 2), (2, 1)), ((2, 1), (1, 2)))
    assert count_stable_matchings(inst) == 2


def test_count_matches_brute_force():
    rng = random.Random(43)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 7))
        assert count_stable_matchings(inst) == len(brute_force_stable_matchings(inst))


def test_downset_extremes_map_to_optima():
    rng = random.Random(47)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(1, 6))
        rposet = rotation_poset(inst)
        full = (1 << len(rposet)) - 1
        mopt = propose_optimal(inst, Side.MAN)
        wopt = propose_optimal(inst, Side.WOMAN)
        assert (rposet.man_optimal, rposet.woman_optimal) == (mopt, wopt)
        assert matching_from_downset(rposet, 0) == mopt
        assert matching_from_downset(rposet, full) == wopt


def test_matching_from_downset_rejects_non_downsets():
    # 2x2 with two stable matchings: one rotation, index 0
    inst = Instance(2, ((1, 2), (2, 1)), ((2, 1), (1, 2)))
    rposet = rotation_poset(inst)
    for bad in (-1, -(1 << 70), 1 << 5, 0b11):  # two negatives, {5}, {0, 1}
        with pytest.raises(ValueError) as err:
            matching_from_downset(rposet, bad)
        assert str(err.value) == "not a downset of the rotation poset"
    with pytest.raises(TypeError):
        matching_from_downset(rposet, frozenset({0}))  # the removed set form
    rng = random.Random(59)
    for _ in range(30):
        rposet = rotation_poset(random_instance(rng, rng.randint(2, 7)))
        downsets = set(enumerate_downsets(rposet))
        for mask in range(1 << len(rposet)):
            if mask in downsets:
                matching_from_downset(rposet, mask)
            else:
                with pytest.raises(ValueError, match="not a downset"):
                    matching_from_downset(rposet, mask)


def test_enumerate_stable_equals_brute_force():
    rng = random.Random(53)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 6))
        got = set(enumerate_stable_matchings(inst))
        assert got == set(brute_force_stable_matchings(inst))
        assert propose_optimal(inst, Side.MAN) in got
        assert propose_optimal(inst, Side.WOMAN) in got


def test_enumerate_stable_follows_the_downset_walk():
    # each matching moves from the last by the rotations that change, and
    # equals the one rebuilt from the man-optimal matching, in walk order
    rng = random.Random(61)
    insts = [random_instance(rng, rng.randint(1, 9)) for _ in range(20)]
    insts += [gen_partial_lists(random_bipartite(rng, 7)) for _ in range(20)]
    for inst in insts:
        rposet = rotation_poset(inst)
        want = [matching_from_downset(rposet, mask) for mask in enumerate_downsets(rposet)]
        assert list(enumerate_stable_matchings(inst)) == want


def test_pipeline_solves_each_side_once(monkeypatch):
    original = gale_shapley.propose_optimal
    solves = []

    def counted(inst, side=Side.MAN):
        solves.append(side)
        return original(inst, side)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stablecount" and getattr(module, "propose_optimal", None) is original:
            monkeypatch.setattr(module, "propose_optimal", counted)
    inst = random_instance(random.Random(60), 7)
    for run in (
        lambda: list(enumerate_stable_matchings(inst)),
        lambda: count_stable_matchings(inst),
        lambda: verify_reduction(GRAPH_3X4),
    ):
        solves.clear()
        run()
        assert sorted(solves, key=lambda side: side.value) == [Side.MAN, Side.WOMAN]


def test_brute_force_rejects_large_n():
    inst = random_instance(random.Random(0), 9)
    with pytest.raises(SizeLimitError):
        brute_force_stable_matchings(inst)


def test_graph_rejects_isolated_vertex():
    # the graph is counted; only the reductions need every vertex on a cycle
    graph = BipartiteGraph(2, 1, ((1, 1),))
    assert count_independent_sets(graph) == brute_force_independent_sets(graph) == 6
    with pytest.raises(ValueError) as err:
        edge_cycles(graph)
    assert str(err.value) == (
        "graph has 1 isolated vertices; remove them and "
        "multiply the independent-set count by 2**1"
    )


def test_graph_rejects_empty_side():
    with pytest.raises(ValueError) as err:
        BipartiteGraph(0, 1, ())
    assert str(err.value) == "both sides must be nonempty"


def test_graph_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        BipartiteGraph(1, 1, ((1, 1), (1, 1)))


def test_independent_sets_single_edge():
    g = BipartiteGraph(1, 1, ((1, 1),))
    assert count_independent_sets(g) == independent_sets_oracle(g) == 3


def test_independent_sets_star():
    for k in range(1, 7):
        star = BipartiteGraph(1, k, tuple((1, j) for j in range(1, k + 1)))
        assert count_independent_sets(star) == independent_sets_oracle(star) == 2**k + 1


def test_independent_sets_fixed_graphs():
    assert count_independent_sets(GRAPH_3X4) == independent_sets_oracle(GRAPH_3X4) == 29
    assert count_independent_sets(GRAPH_4X5) == brute_force_independent_sets(
        GRAPH_4X5
    )


def test_independent_sets_match_oracle_up_to_40_vertices():
    rng = random.Random(61)
    for _ in range(40):
        g = random_bipartite(rng, 30)
        assert count_independent_sets(g) == independent_sets_oracle(g)
    for n1, n2 in ((20, 20), (17, 23), (10, 30)):
        # one edge at every vertex of each side, then n1 more at random
        edges = {(u, rng.randint(1, n2)) for u in range(1, n1 + 1)}
        edges |= {(rng.randint(1, n1), v) for v in range(1, n2 + 1)}
        edges |= {(rng.randint(1, n1), rng.randint(1, n2)) for _ in range(n1)}
        g = BipartiteGraph(n1, n2, tuple(edges))
        assert count_independent_sets(g) == independent_sets_oracle(g)


def test_independent_sets_match_subset_oracle():
    rng = random.Random(59)
    for _ in range(40):
        n1 = rng.randint(1, 4)
        n2 = rng.randint(1, 4)
        pool = list(itertools.product(range(1, n1 + 1), range(1, n2 + 1)))
        edges = tuple(rng.sample(pool, rng.randint(1, len(pool))))
        g = BipartiteGraph(n1, n2, edges)  # isolated vertices included
        assert count_independent_sets(g) == brute_force_independent_sets(g)


def test_bipartite_text_round_trip():
    text = format_bipartite(GRAPH_3X4)
    assert text == (
        "bis 3 4\ne 1 1\ne 1 2\ne 1 4\ne 2 2\ne 2 3\ne 2 4\ne 3 1\ne 3 4\n"
    )
    assert parse_bipartite(text) == GRAPH_3X4


def test_bipartite_parse_errors():
    for text, message in (
        ("bis 1\ne 1 1\n", "line 1: expected header 'bis n1 n2'"),
        ("bis 1 x\ne 1 1\n", "line 1: n2 must be a positive integer"),
        ("bis +1 1\ne 1 1\n", "line 1: n1 must be a positive integer"),
        ("bis 1 1\nedge 1 1\n", "line 2: expected 'e u v'"),
        ("bis 1 1\ne 1 y\n", "line 2: indices must be integers"),
        ("bis 1 1\ne +1 1\n", "line 2: indices must be integers"),
        ("bis 1 1\n# c\ne 1 -1\n", "line 3: indices must be integers"),
        ("bis 0 1\n", "line 1: n1 must be a positive integer"),
        ("bis 1 1\ne 1 2\n", "line 2: edge (1,2) out of range"),
        ("bis 2 1\ne 1 1\n# c\ne 2 1\ne 1 1\n", "line 5: duplicate edge (1,1)"),
    ):
        with pytest.raises(ParseError) as err:
            parse_bipartite(text)
        assert str(err.value) == message
