"""Shared helpers: random generators, test oracles and structural
invariant checks.

The oracles restate a definition directly and share no helper with the
code they check: the brute-force counts, the pairwise rotation
constructions, the lattice operations and the geometric scores in
Fraction arithmetic live here, not in the package.
"""

import functools
import itertools
import random
from fractions import Fraction

from stablecount import (
    BipartiteGraph,
    Instance,
    Matching,
    OneAttributeSpec,
    Rotation,
    Side,
    SizeLimitError,
    TieDetected,
    blocking_pairs,
    enumerate_stable_matchings,
    find_all_rotations,
    is_stable,
    propose_optimal,
    rotation_poset,
)


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
        prefs = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in attrs]
        return tuple((Fraction(a),) for a in attrs), tuple((Fraction(p),) for p in prefs)

    return OneAttributeSpec(1, n, *side(), *side())


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


def brute_force_stable_matchings(inst: Instance) -> list[Matching]:
    """All stable matchings by checking every permutation.  Only viable
    for small n."""
    if inst.n > 8:
        raise SizeLimitError("size bound exceeded: brute force needs n <= 8")
    out = []
    for perm in itertools.permutations(range(1, inst.n + 1)):
        matching = Matching(perm)
        if is_stable(inst, matching):
            out.append(matching)
    return out


def brute_force_independent_sets(graph: BipartiteGraph) -> int:
    """Count independent sets by testing every vertex subset."""
    if graph.size > 24:
        raise SizeLimitError("size bound exceeded: subset oracle needs n1+n2 <= 24")
    adj = [0] * graph.size
    for u, v in graph.edges:
        a, b = u - 1, graph.n1 + v - 1
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    count = 0
    for mask in range(1 << graph.size):
        rest = mask
        ok = True
        while rest:
            x = (rest & -rest).bit_length() - 1
            if adj[x] & mask:
                ok = False
                break
            rest &= rest - 1
        if ok:
            count += 1
    return count


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


def pairwise_dot(u, v) -> Fraction:
    """A dot product in Fractions, summed coordinate by coordinate."""
    total = Fraction(0)
    for x, y in zip(u, v):
        total += x * y
    return total


def dot_instance_oracle(spec) -> Instance:
    """The instance a dot-product spec induces, with no scaling: every list
    is sorted by pairwise comparison of its Fraction scores."""

    def ranking(pref, positions, person):
        scores = [pairwise_dot(pref, pos) for pos in positions]

        def cmp(a, b):
            if scores[a - 1] == scores[b - 1]:
                raise TieDetected("score exactly alike", person, (a, b))
            return -1 if scores[a - 1] > scores[b - 1] else 1

        return tuple(
            sorted(range(1, len(scores) + 1), key=functools.cmp_to_key(cmp))
        )

    return Instance(
        spec.n,
        tuple(
            ranking(p, spec.women_pos, f"man {i}")
            for i, p in enumerate(spec.men_pref, 1)
        ),
        tuple(
            ranking(p, spec.men_pos, f"woman {j}")
            for j, p in enumerate(spec.women_pref, 1)
        ),
    )


def euclidean_instance_oracle(spec) -> Instance:
    """The instance a Euclidean spec induces, ranked by squared distances
    in Fractions; equal neighbours in a list raise TieDetected."""

    def ranking(ideal, positions, person):
        dists = [sum((a - b) ** 2 for a, b in zip(ideal, pos)) for pos in positions]
        order = sorted(range(1, len(dists) + 1), key=lambda i: dists[i - 1])
        for a, b in zip(order, order[1:]):
            if dists[a - 1] == dists[b - 1]:
                raise TieDetected("are exactly equidistant", person, (a, b))
        return tuple(order)

    return Instance(
        spec.n,
        tuple(
            ranking(p, spec.women_pos, f"man {i}")
            for i, p in enumerate(spec.men_pref, 1)
        ),
        tuple(
            ranking(p, spec.men_pos, f"woman {j}")
            for j, p in enumerate(spec.women_pref, 1)
        ),
    )


def lattice_meet_join(
    inst: Instance, a: Matching, b: Matching
) -> tuple[Matching, Matching]:
    """The (max, min) of two stable matchings in the matching lattice.

    Stable matchings form a distributive lattice whose minimum is the
    man-optimal matching.  The max pairs every man with the wife he likes
    less of his two (equivalently, every woman with the husband she
    prefers); the min pairs him with the other one.  Both outputs are
    stable; the inputs must be, and are checked.
    """
    if blocking_pairs(inst, a) or blocking_pairs(inst, b):
        raise ValueError("lattice operations require stable matchings")
    max_wives = []
    min_wives = []
    for m in range(1, inst.n + 1):
        wa, wb = a.wives[m - 1], b.wives[m - 1]
        if inst.man_rank(m, wa) <= inst.man_rank(m, wb):
            min_wives.append(wa)
            max_wives.append(wb)
        else:
            min_wives.append(wb)
            max_wives.append(wa)
    return Matching(tuple(max_wives)), Matching(tuple(min_wives))


def truncated_lists(inst: Instance):
    """Each person's preference list cut down to the span between their
    best and worst stable partners (inclusive), as (men_lists,
    women_lists).  Every stable pair lies inside these spans."""
    mopt = propose_optimal(inst, Side.MAN)
    wopt = propose_optimal(inst, Side.WOMAN)
    men = []
    for m in range(1, inst.n + 1):
        lo = inst.man_rank(m, mopt.wives[m - 1])
        hi = inst.man_rank(m, wopt.wives[m - 1])
        men.append(inst.men_prefs[m - 1][lo - 1 : hi])
    women = []
    m_husb, w_husb = mopt.husbands(), wopt.husbands()
    for w in range(1, inst.n + 1):
        lo = inst.woman_rank(w, w_husb[w - 1])
        hi = inst.woman_rank(w, m_husb[w - 1])
        women.append(inst.women_prefs[w - 1][lo - 1 : hi])
    return tuple(men), tuple(women)


def eliminated_pairs(inst: Instance, rotation: Rotation) -> list[tuple[int, int]]:
    """Pairs (m, w) ruled out of all later stable matchings by the
    rotation: w trades her partner m_old for m_new, the man before m_old
    in the cycle, and loses every man she ranks after m_new up to and
    including m_old."""
    out = []
    pairs = rotation.pairs
    for idx, (m_old, w) in enumerate(pairs):
        lo = inst.woman_rank(w, pairs[idx - 1][0])
        hi = inst.woman_rank(w, m_old)
        out.extend(
            (m, w) for m in inst.women_prefs[w - 1] if lo < inst.woman_rank(w, m) <= hi
        )
    return out


def explicitly_precedes(inst: Instance, first: Rotation, second: Rotation) -> bool:
    """True if `first` eliminates a pair (m, w) and `second` moves m to a
    woman he likes less than w, forcing first before second in every
    elimination order."""
    if first == second:
        return False
    moves = {m: nw for m, _, nw in second.steps}
    for m, w in eliminated_pairs(inst, first):
        if m in moves and inst.man_rank(m, moves[m]) > inst.man_rank(m, w):
            return True
    return False


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


def _restarting_trace(inst: Instance, wives, husbands, best, m: int) -> Rotation:
    """The rotation reached from m by following suitors and their
    husbands until a woman repeats, every scan restarted."""
    seq, seen = [(m, wives[m - 1])], {wives[m - 1]: 0}
    w = _restarting_suitor(inst, wives, husbands, best, m)
    while w not in seen:
        assert w is not None, "suitor chain broke"
        seen[w] = len(seq)
        h = husbands[w - 1]
        seq.append((h, w))
        w = _restarting_suitor(inst, wives, husbands, best, h)
    return Rotation(tuple(seq[seen[w]:]))


def suitor(inst: Instance, matching: Matching, m: int):
    """The first woman below m's wife on his list who prefers m to her
    husband and does not rank m above her worst stable partner, or None."""
    best = propose_optimal(inst, Side.WOMAN).husbands()
    return _restarting_suitor(inst, matching.wives, matching.husbands(), best, m)


def exposed_rotation_from(inst: Instance, matching: Matching, m: int) -> Rotation:
    """The rotation exposed in `matching` that the suitor path from man m
    runs into."""
    best = propose_optimal(inst, Side.WOMAN).husbands()
    return _restarting_trace(inst, matching.wives, matching.husbands(), best, m)


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
            if _restarting_suitor(inst, wives, husbands, best, m) is not None:
                break
        else:
            break
        rot = _restarting_trace(inst, wives, husbands, best, m)
        for m, _, nw in rot.steps:
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


def apply_rotation(matching: Matching, rotation: Rotation) -> Matching:
    """Shift every man in the rotation to the next woman in the cycle;
    every pair of the rotation must be matched."""
    wives = list(matching.wives)
    k = len(rotation.pairs)
    for idx, (m, w) in enumerate(rotation.pairs):
        if matching.wives[m - 1] != w:
            raise ValueError(f"rotation pair ({m},{w}) not matched")
        wives[m - 1] = rotation.pairs[(idx + 1) % k][1]
    return Matching(tuple(wives))


def check_structure(inst: Instance, rng: random.Random, pair_budget: int = 50):
    """Structural invariants every instance must satisfy:

    * the rotation walk visits each rotation exactly once, starts at the
      man-optimal matching, ends at the woman-optimal one, and each
      rotation, applied in discovery order, is exposed in a stable matching;
    * the rotation order is irreflexive, antisymmetric, and transitive;
    * the lattice meet and join of stable matchings are stable;
    * no (man, woman) pair is eliminated by more than one rotation.
    """
    rotations, mopt, wopt = find_all_rotations(inst)
    assert mopt == propose_optimal(inst, Side.MAN)
    assert wopt == propose_optimal(inst, Side.WOMAN)
    assert len(set(rotations)) == len(rotations)
    matching = mopt
    for rot in rotations:
        assert is_stable(inst, matching)
        matching = apply_rotation(matching, rot)  # checks rot is exposed
    assert matching == wopt
    assert is_stable(inst, matching)

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

    sample = list(itertools.islice(enumerate_stable_matchings(inst), 12))
    pairs = [(a, b) for i, a in enumerate(sample) for b in sample[i + 1:]]
    if len(pairs) > pair_budget:
        pairs = rng.sample(pairs, pair_budget)
    for a, b in pairs:
        hi, lo = lattice_meet_join(inst, a, b)
        assert is_stable(inst, hi)
        assert is_stable(inst, lo)
