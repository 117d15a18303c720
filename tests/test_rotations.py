import random
import sys

import networkx as nx
import pytest

from conftest import (
    apply_rotation,
    brute_force_stable_matchings,
    eliminated_pairs,
    explicitly_precedes,
    exposed_rotation_from,
    pairwise_hasse,
    pairwise_rotation_poset,
    random_instance,
    suitor,
    truncated_lists,
)
from stablecount import (
    Instance,
    Matching,
    ParseError,
    Poset,
    Rotation,
    Side,
    blocking_pairs,
    core,
    find_all_rotations,
    format_rotations,
    hasse_diagram,
    hasse_dot,
    parse_rotation,
    propose_optimal,
    rotation_poset,
)


def test_rotation_canonicalized():
    r1 = Rotation(((2, 2), (1, 1)))
    r2 = Rotation(((1, 1), (2, 2)))
    assert r1 == r2
    assert r1.pairs[0][0] == 1


def test_rotation_rejects_repeated_man():
    with pytest.raises(ValueError):
        Rotation(((1, 1), (1, 2)))


def test_rotation_rejects_repeated_woman():
    with pytest.raises(ValueError, match="rotation repeats a woman"):
        Rotation(((1, 1), (2, 1)))
    with pytest.raises(ParseError) as err:
        parse_rotation("rot 1: (1,2) (2,1)\nrot 2: (1,1) (2,1)\n")
    assert str(err.value) == "line 2: rotation repeats a woman"
    assert err.value.line == 2


def test_rotation_rejects_indices_below_one():
    for pairs in (((0, -3), (-1, 5)), ((1, 2), (2, 0)), ((0, 1), (2, 2))):
        with pytest.raises(ValueError, match="rotation indices must be at least 1"):
            Rotation(pairs)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("rotten: (0,-3) (-1,5)\n", 1, "expected 'rot i: ...'"),
        ("rot 1: (0,-3) (-1,5)\n", 1, "bad pair token '(0,-3)'"),
        ("rot 1: (1,2) (2,1)\nrot 2: (1,1) (2,0)\n", 2,
         "rotation indices must be at least 1"),
        ("rot 0: (1,2) (2,1)\n", 1, "index 0 out of range 1..1"),
        ("rot -1: (1,2) (2,1)\n", 1, "index must be an integer"),
        ("rot: (1,2) (2,1)\n", 1, "expected 'rot i: ...'"),
        ("rot 1 2: (1,2) (2,1)\n", 1, "expected 'rot i: ...'"),
        ("rot x: (1,2) (2,1)\n", 1, "index must be an integer"),
        ("# c\nrot 1: (1,2) (2,1)\nrotation 2: (1,1) (2,2)\n", 3,
         "expected 'rot i: ...'"),
        ("rot 1: (1,2) (2,1)\nrot 1: (1,1) (2,2)\n", 2, "duplicate rot 1"),
        ("rot 1: (1,2) (2,1)\nrot 3: (1,1) (2,2)\n", 2, "index 3 out of range 1..2"),
        ("rot 1: (1,2) 2,1\n", 1, "bad pair token '2,1'"),
        ("rot 1: (1,2) (2,x)\n", 1, "bad pair token '(2,x)'"),
        ("rot 1: (1,2) (2,1,3)\n", 1, "bad pair token '(2,1,3)'"),
        ("rot +1: (1,2) (2,1)\n", 1, "index must be an integer"),
        ("rot 1: (1,2) (2,1)\nrot 2: (+1,1) (2,2)\n", 2, "bad pair token '(+1,1)'"),
    ],
)
def test_parse_rotation_rejects_bad_heads_and_indices(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_rotation(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


def test_steps_follow_the_cycle():
    r = Rotation(((2, 5), (3, 4), (1, 6)))
    assert r.steps == ((1, 6, 5), (2, 5, 4), (3, 4, 6))


def test_rotation_rejects_singleton():
    with pytest.raises(ValueError):
        Rotation(((1, 1),))


def test_suitor_absent_at_woman_optimal():
    rng = random.Random(3)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(1, 6))
        wopt = propose_optimal(inst, Side.WOMAN)
        for m in range(1, inst.n + 1):
            assert suitor(inst, wopt, m) is None


def test_apply_size_two_swaps_wives():
    matching = Matching((1, 2, 3))
    out = apply_rotation(matching, Rotation(((1, 1), (2, 2))))
    assert out == Matching((2, 1, 3))


def test_apply_preserves_stability_and_moves_ranks():
    rng = random.Random(5)
    seen = 0
    while seen < 25:
        inst = random_instance(rng, rng.randint(2, 6))
        matching = propose_optimal(inst, Side.MAN)
        m = next(
            (m for m in range(1, inst.n + 1) if suitor(inst, matching, m)), None
        )
        if m is None:
            continue
        seen += 1
        rot = exposed_rotation_from(inst, matching, m)
        out = apply_rotation(matching, rot)
        assert blocking_pairs(inst, out) == []
        for man_, w in rot.pairs:
            assert inst.man_rank(man_, out.wives[man_ - 1]) > inst.man_rank(man_, w)
        new, old = out.husbands(), matching.husbands()
        for _, w in rot.pairs:
            assert inst.woman_rank(w, new[w - 1]) < inst.woman_rank(w, old[w - 1])


def test_exposed_rotation_suitor_links():
    rng = random.Random(9)
    seen = 0
    while seen < 25:
        inst = random_instance(rng, rng.randint(2, 6))
        matching = propose_optimal(inst, Side.MAN)
        start = next(
            (m for m in range(1, inst.n + 1) if suitor(inst, matching, m)), None
        )
        if start is None:
            continue
        seen += 1
        rot = exposed_rotation_from(inst, matching, start)
        for m, w, nw in rot.steps:
            assert matching.wives[m - 1] == w
            assert suitor(inst, matching, m) == nw


def test_unique_stable_matching_has_no_rotations():
    inst = Instance(1, ((1,),), ((1,),))
    assert find_all_rotations(inst) == ([], Matching((1,)), Matching((1,)))


def test_walk_ends_at_woman_optimal():
    rng = random.Random(15)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(1, 7))
        rots, mopt, wopt = find_all_rotations(inst)
        assert mopt == propose_optimal(inst, Side.MAN)
        assert wopt == propose_optimal(inst, Side.WOMAN)
        matching = mopt
        for rot in rots:
            matching = apply_rotation(matching, rot)  # rot must be exposed
        assert matching == wopt


def test_walk_builds_no_matching_per_rotation(monkeypatch):
    inst = random_instance(random.Random(1), 400)
    built = []
    check = core.Matching.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(core.Matching, "__post_init__", counted)
    rots, mopt, wopt = find_all_rotations(inst)
    assert len(rots) >= 50
    assert built == [mopt, wopt]


def test_rotation_set_independent_of_man_order():
    rng = random.Random(21)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(2, 6))
        base = find_all_rotations(inst)[0]
        order = tuple(rng.sample(range(1, inst.n + 1), inst.n))
        other = find_all_rotations(inst, man_order=order)[0]
        assert set(base) == set(other)
    with pytest.raises(ValueError) as err:
        find_all_rotations(inst, man_order=(1,) * inst.n)
    assert str(err.value) == "man_order must be a permutation of 1..n"


def test_eliminated_adjacent_interval():
    # woman 1's list (2, 1): swapping her from man 2 to man 1 eliminates
    # exactly the old partner
    inst = Instance(2, ((1, 2), (2, 1)), ((2, 1), (1, 2)))
    rots = find_all_rotations(inst)[0]
    assert len(rots) == 1
    elim = eliminated_pairs(inst, rots[0])
    for _, w in rots[0].pairs:
        pairs_for_w = [(m, x) for m, x in elim if x == w]
        assert len(pairs_for_w) == 1


def test_eliminated_pairs_unique_across_rotations():
    rng = random.Random(23)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 6))
        rots = find_all_rotations(inst)[0]
        seen = set()
        for rot in rots:
            for pair in eliminated_pairs(inst, rot):
                assert pair not in seen
                seen.add(pair)


def test_poset_closure_matches_networkx():
    rng = random.Random(27)
    for _ in range(30):
        inst = random_instance(rng, rng.randint(1, 7))
        rposet = rotation_poset(inst)
        k = len(rposet)
        g = nx.DiGraph()
        g.add_nodes_from(range(k))
        for i in range(k):
            for j in range(k):
                if i != j and explicitly_precedes(
                    inst, rposet.rotations[i], rposet.rotations[j]
                ):
                    g.add_edge(i, j)
        closure = nx.transitive_closure(g)
        got = set(rposet.relation_pairs())
        assert got == set(closure.edges())


def _orders(rng, n):
    return (None, tuple(range(n, 0, -1)), tuple(rng.sample(range(1, n + 1), n)))


@pytest.mark.parametrize(
    "sizes",
    [list(range(1, 8)) * 30, [30] * 8, [100, 100], [300]],
    ids=["n1-7", "n30", "n100", "n300"],
)
def test_rotation_poset_matches_pairwise_oracle(sizes):
    rng = random.Random(len(sizes) * 1000 + sizes[0])
    for n in sizes:
        inst = random_instance(rng, n)
        for order in _orders(rng, n):
            rots, path, below = pairwise_rotation_poset(inst, order)
            assert find_all_rotations(inst, order) == (rots, path[0], path[-1])
            rposet = rotation_poset(inst, order)
            assert list(rposet.rotations) == rots
            assert rposet.below == below
            assert rposet.man_optimal == path[0]
            assert rposet.woman_optimal == path[-1]
            assert hasse_diagram(rposet) == pairwise_hasse(below)


def test_rotation_poset_takes_no_pairwise_path():
    for name, module in sys.modules.items():
        if name.split(".")[0] == "stablecount":
            assert not hasattr(module, "explicitly_precedes"), name
            assert not hasattr(module, "eliminated_pairs"), name
    rposet = rotation_poset(random_instance(random.Random(300), 300))
    assert len(rposet) > 0


def test_poset_empty_when_no_rotations():
    inst = Instance(1, ((1,),), ((1,),))
    assert len(rotation_poset(inst)) == 0


def test_rotation_poset_is_a_poset():
    rposet = rotation_poset(random_instance(random.Random(35), 8))
    assert isinstance(rposet, Poset)
    assert len(rposet) == rposet.size == len(rposet.rotations) > 1
    for j, mask in enumerate(rposet.below):
        for i in range(len(rposet)):
            assert (rposet.above[i] >> j & 1) == (mask >> i & 1)


def test_hasse_chain_and_antichain():
    rng = random.Random(29)
    # build from real instances: verify hasse = closure minus shortcuts
    for _ in range(20):
        inst = random_instance(rng, rng.randint(1, 6))
        rposet = rotation_poset(inst)
        cover = set(hasse_diagram(rposet))
        relation = set(rposet.relation_pairs())
        assert cover <= relation
        g = nx.DiGraph(relation)
        g.add_nodes_from(range(len(rposet)))
        reduced = nx.transitive_reduction(g)
        assert cover == set(reduced.edges())


def test_hasse_dot_mentions_every_rotation():
    rng = random.Random(31)
    inst = random_instance(rng, 6)
    rposet = rotation_poset(inst)
    dot = hasse_dot(rposet)
    assert dot.startswith("digraph")
    for i in range(len(rposet)):
        assert f"r{i}" in dot


def test_truncated_singleton_for_fixed_person():
    inst = Instance(1, ((1,),), ((1,),))
    men, women = truncated_lists(inst)
    assert men == ((1,),)
    assert women == ((1,),)


def test_truncated_contains_all_stable_partners():
    rng = random.Random(33)
    for _ in range(25):
        inst = random_instance(rng, rng.randint(1, 6))
        men, women = truncated_lists(inst)
        for s in brute_force_stable_matchings(inst):
            for m in range(1, inst.n + 1):
                assert s.wives[m - 1] in men[m - 1]
            for w, m in enumerate(s.husbands(), start=1):
                assert m in women[w - 1]


def test_rotation_text_round_trip():
    rots = [Rotation(((1, 2), (2, 1))), Rotation(((1, 1), (2, 2), (3, 3)))]
    assert parse_rotation(format_rotations(rots)) == rots
    assert format_rotations(rots) == "rot 1: (1,2) (2,1)\nrot 2: (1,1) (2,2) (3,3)\n"
    assert format_rotations([]) == ""


def test_parse_rotation_orders_by_k():
    rots = parse_rotation("rot 2: (1,1) (2,2) (3,3)\nrot 1: (1,2) (2,1)\n")
    assert rots == [Rotation(((1, 2), (2, 1))), Rotation(((1, 1), (2, 2), (3, 3)))]
