"""Shared helpers: random generators and structural invariant checks."""

import functools
import random
from fractions import Fraction

from stablecount import (
    BipartiteGraph,
    Instance,
    Matching,
    OneAttributeSpec,
    Rotation,
    Side,
    TieDetected,
    apply_rotation,
    brute_force_independent_sets,
    compare_values,
    eliminated_pairs,
    enumerate_stable_matchings,
    explicitly_precedes,
    find_all_rotations,
    is_stable,
    lattice_meet_join,
    propose_optimal,
    rotation_poset,
)
from stablecount.geometry import Value


def random_instance(rng: random.Random, n: int) -> Instance:
    def perm():
        return tuple(rng.sample(range(1, n + 1), n))

    return Instance(
        n, tuple(perm() for _ in range(n)), tuple(perm() for _ in range(n))
    )


def random_bipartite(
    rng: random.Random, max_edges: int, min_edges: int = 1
) -> BipartiteGraph:
    """A random simple bipartite graph with no isolated vertices: sample
    edges on a grid, then compact the labels of the vertices actually hit."""
    while True:
        m = rng.randint(min_edges, max_edges)
        n1 = rng.randint(1, m)
        n2 = rng.randint(1, m)
        pool = [(u, v) for u in range(1, n1 + 1) for v in range(1, n2 + 1)]
        edges = rng.sample(pool, min(m, len(pool)))
        if len(edges) >= min_edges:
            break
    left = {u: i for i, u in enumerate(sorted({u for u, _ in edges}), 1)}
    right = {v: j for j, v in enumerate(sorted({v for _, v in edges}), 1)}
    return BipartiteGraph(
        len(left), len(right), tuple((left[u], right[v]) for u, v in edges)
    )


def random_1attribute(rng: random.Random, n: int) -> OneAttributeSpec:
    def side():
        attrs = rng.sample(range(-10 * n, 10 * n + 1), n)
        return tuple(
            (Fraction(a), Fraction(rng.choice([-1, 1]) * rng.randint(1, 9)))
            for a in attrs
        )

    return OneAttributeSpec(n, side(), side())


def all_small_bipartite(max_edges: int):
    """Every labelled simple bipartite graph with no isolated vertices and
    1..max_edges edges, with the vertex labels of each side compacted to
    1..n1 / 1..n2 (a superset of one representative per isomorphism class)."""
    import itertools

    out = []
    for m in range(1, max_edges + 1):
        for n1 in range(1, m + 1):
            for n2 in range(1, m + 1):
                pool = [
                    (u, v)
                    for u in range(1, n1 + 1)
                    for v in range(1, n2 + 1)
                ]
                if len(pool) < m:
                    continue
                for edges in itertools.combinations(pool, m):
                    if {u for u, _ in edges} != set(range(1, n1 + 1)):
                        continue
                    if {v for _, v in edges} != set(range(1, n2 + 1)):
                        continue
                    out.append(BipartiteGraph(n1, n2, edges))
    return out


def one_sided_independent_sets(graph: BipartiteGraph) -> int:
    """Count independent sets by enumerating subsets of the smaller side:
    the other side is free off the chosen vertices' neighbourhoods."""
    flip = graph.n1 > graph.n2
    if flip:
        small, large = graph.n2, graph.n1
        nbr = [0] * (small + 1)
        for u, v in graph.edges:
            nbr[v] |= 1 << (u - 1)
    else:
        small, large = graph.n1, graph.n2
        nbr = [0] * (small + 1)
        for u, v in graph.edges:
            nbr[u] |= 1 << (v - 1)
    total = 0
    for mask in range(1 << small):
        blocked = 0
        rest = mask
        while rest:
            x = (rest & -rest).bit_length()
            blocked |= nbr[x]
            rest &= rest - 1
        total += 1 << (large - bin(blocked).count("1"))
    return total


def independent_sets_oracle(graph: BipartiteGraph) -> int:
    """An independent-set count that does not go through poset downsets:
    every vertex subset up to 16 vertices, one side's subsets above."""
    if graph.size <= 16:
        return brute_force_independent_sets(graph)
    return one_sided_independent_sets(graph)


def pairwise_dot(u, v) -> Value:
    """A dot product summed coordinate by coordinate, one merge per step."""
    total = Value.ZERO
    for x, y in zip(u, v):
        total = total + x * y
    return total


def dot_instance_oracle(spec) -> Instance:
    """The instance a dot-product spec induces, with no enclosures: every
    list is sorted by certified pairwise comparison of its scores."""

    def ranking(pref, positions):
        scores = [pairwise_dot(pref, pos) for pos in positions]

        def cmp(a, b):
            c = compare_values(scores[a - 1], scores[b - 1])
            if c == 0:
                raise TieDetected(f"candidates {a} and {b} score exactly alike")
            return -c

        return tuple(
            sorted(range(1, len(scores) + 1), key=functools.cmp_to_key(cmp))
        )

    return Instance(
        spec.n,
        tuple(ranking(p, spec.women_pos) for p in spec.men_pref),
        tuple(ranking(p, spec.men_pos) for p in spec.women_pref),
    )


def _restarting_suitor(inst: Instance, wives, husbands, best, m: int):
    """m's suitor, scanned from just below his wife every time."""
    wife = wives[m - 1]
    if best[wife - 1] == m:
        return None
    for w in inst.men_prefs[m - 1][inst.man_rank(m, wife):]:
        r = inst.woman_rank(w, m)
        if inst.woman_rank(w, husbands[w - 1]) > r >= inst.woman_rank(w, best[w - 1]):
            return w
    return None


def pairwise_rotation_poset(inst: Instance, man_order=None):
    """The rotation poset built without any index: every step traces the
    rotation reachable from the first man in `man_order` who has a suitor,
    every suitor scan restarts just below the man's wife, and rotation i
    lies below j when it does in the transitive closure of
    `explicitly_precedes` over all pairs i < j of the discovery order.

    Returns (rotations, matchings along the walk, below masks)."""
    n = inst.n
    order = man_order if man_order is not None else tuple(range(1, n + 1))
    wives = list(propose_optimal(inst, Side.MAN).wives)
    best = propose_optimal(inst, Side.WOMAN).husbands()
    husbands = list(Matching(tuple(wives)).husbands())
    rotations, path = [], [Matching(tuple(wives))]
    while True:
        for m in order:
            w = _restarting_suitor(inst, wives, husbands, best, m)
            if w is not None:
                break
        else:
            break
        seq, seen = [(m, wives[m - 1])], {wives[m - 1]: 0}
        while w not in seen:
            seen[w] = len(seq)
            h = husbands[w - 1]
            seq.append((h, w))
            w = _restarting_suitor(inst, wives, husbands, best, h)
            assert w is not None, "suitor chain broke"
        rot = Rotation(tuple(seq[seen[w]:]))
        for m, _ in rot.pairs:
            nw = rot.next_woman(m)
            wives[m - 1] = nw
            husbands[nw - 1] = m
        rotations.append(rot)
        path.append(Matching(tuple(wives)))
    below = [0] * len(rotations)
    for j, second in enumerate(rotations):
        for i, first in enumerate(rotations[:j]):
            if explicitly_precedes(inst, first, second):
                below[j] |= 1 << i | below[i]
    return rotations, path, tuple(below)


def pairwise_hasse(below) -> list[tuple[int, int]]:
    """Covering pairs (i, j), i below j with nothing between, found by
    testing every middle element, in order of j and then of i."""
    k = len(below)
    return [
        (i, j)
        for j in range(k)
        for i in range(k)
        if below[j] >> i & 1
        and not any(below[j] >> c & 1 and below[c] >> i & 1 for c in range(k))
    ]


# Two fixed 8-edge graphs reused throughout the suite.  The 3x4 one has
# independent-set count 29; its left-vertex cycles partition the edge
# labels into (1,2,3)(4,5,6)(7,8) and the right-vertex cycles into
# (1,7)(2,4)(5)(3,6,8).
GRAPH_3X4 = BipartiteGraph(
    3, 4, ((1, 1), (1, 2), (1, 4), (2, 2), (2, 3), (2, 4), (3, 1), (3, 4))
)
GRAPH_4X5 = BipartiteGraph(
    4, 5, ((1, 1), (1, 3), (1, 4), (2, 1), (2, 2), (3, 3), (4, 4), (4, 5))
)


def check_structure(inst: Instance, rng: random.Random, pair_budget: int = 50):
    """Structural invariants every instance must satisfy:

    * the rotation walk visits each rotation exactly once, starts at the
      man-optimal matching, ends at the woman-optimal one, and each step
      applies the corresponding rotation to a stable matching;
    * the rotation order is irreflexive, antisymmetric, and transitive;
    * the lattice meet and join of stable matchings are stable;
    * no (man, woman) pair is eliminated by more than one rotation.
    """
    rotations, path = find_all_rotations(inst)
    mopt = propose_optimal(inst, Side.MAN)
    wopt = propose_optimal(inst, Side.WOMAN)

    assert len(path) == len(rotations) + 1
    assert path[0] == mopt
    assert path[-1] == wopt
    assert len(set(rotations)) == len(rotations)
    for t, rot in enumerate(rotations):
        assert is_stable(inst, path[t])
        assert apply_rotation(path[t], rot) == path[t + 1]
    assert is_stable(inst, path[-1])

    rposet = rotation_poset(inst)
    k = len(rposet)
    below = rposet.below
    for i in range(k):
        assert not below[i] >> i & 1  # irreflexive
        for j in range(k):
            if below[j] >> i & 1:
                assert not below[i] >> j & 1  # antisymmetric
                assert below[i] & ~below[j] == 0  # transitive
    seen: set[tuple[int, int]] = set()
    for rot in rotations:
        for pair in eliminated_pairs(inst, rot):
            assert pair not in seen, f"pair {pair} eliminated twice"
            seen.add(pair)

    sample = list(enumerate_stable_matchings(inst, limit=12))
    pairs = [(a, b) for i, a in enumerate(sample) for b in sample[i + 1:]]
    if len(pairs) > pair_budget:
        pairs = rng.sample(pairs, pair_budget)
    for a, b in pairs:
        hi, lo = lattice_meet_join(inst, a, b)
        assert is_stable(inst, hi)
        assert is_stable(inst, lo)
