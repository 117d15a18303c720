"""From bipartite graphs to stable marriage instances, count-preservingly.

Given a simple bipartite graph G with n edges and no isolated vertices,
three generators build a 3n-by-3n instance whose stable matchings are in
bijection with the independent sets of G:

* ``gen_partial_lists`` writes the preference lists directly;
* ``gen_2euclidean`` realizes them with 2-dimensional Euclidean distances;
* ``gen_3attribute`` realizes them with 3-dimensional dot products, as
  the paraboloid lift of the Euclidean realization.

The edges are labelled 1..n; walking each left vertex's incident labels
gives a permutation rho whose cycles are intervals of consecutive
integers, and each right vertex's labels give a permutation sigma.  The
instance has men A_x, B_x, C_x and women a_x, b_x, c_x per edge x; its
rotation poset has height at most one and is isomorphic to G, with one
minimal rotation per left vertex and one maximal rotation per right
vertex.  ``verify_reduction`` derives the rotation poset of the instance
built for a concrete graph, compares it with the graph's own poset
(`poset_from_bipartite`) and reports which structural claims hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Instance, Matching
from .counting import BipartiteGraph, count_downsets, poset_from_bipartite
from .geometry import AttributeSpec, EuclideanSpec, induced_instance
from .rotations import _bits, rotation_poset


@dataclass(frozen=True)
class CyclePair:
    """Edge labelling of a bipartite graph as two permutations.

    Label x names the edge ``graph.edges[x-1]``, so labels 1..n follow the
    lexicographic (left, right) order.  ``rho`` cycles the labels around
    each left vertex, ``sigma`` around each right vertex; cycles are
    listed in vertex order, each starting at its smallest label, so cycle
    i belongs to vertex i + 1.
    """

    n: int
    rho: tuple[int, ...]
    sigma: tuple[int, ...]
    rho_cycles: tuple[tuple[int, ...], ...]
    sigma_cycles: tuple[tuple[int, ...], ...]


def edge_cycles(graph: BipartiteGraph) -> CyclePair:
    """The edge labelling of the graph.  A vertex with no edge has no
    cycle, and no rotation stands for it, so it is a `ValueError`."""
    rho_cycles = [[] for _ in range(graph.n1)]
    sigma_cycles = [[] for _ in range(graph.n2)]
    for x, (u, v) in enumerate(graph.edges, start=1):  # sorted lexicographically
        rho_cycles[u - 1].append(x)
        sigma_cycles[v - 1].append(x)
    isolated = (rho_cycles + sigma_cycles).count([])
    if isolated:
        raise ValueError(
            f"graph has {isolated} isolated vertices; remove them and "
            f"multiply the independent-set count by 2**{isolated}"
        )
    n = len(graph.edges)
    rho, sigma = [0] * n, [0] * n
    for cycles, succ in ((rho_cycles, rho), (sigma_cycles, sigma)):
        for cycle in cycles:
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                succ[x - 1] = y
    return CyclePair(
        n, tuple(rho), tuple(sigma),
        tuple(map(tuple, rho_cycles)), tuple(map(tuple, sigma_cycles)),
    )


# Person numbering in the generated 3n-by-3n instances, per edge label x:
# men A_x = x, B_x = n+x, C_x = 2n+x; women a_x = x, b_x = n+x, c_x = 2n+x.


def _complete(prefix: list[int], total: int) -> tuple[int, ...]:
    seen = set(prefix)
    return tuple(prefix) + tuple(p for p in range(1, total + 1) if p not in seen)


def _cycle_prefixes(cycles, first, second):
    """Each label x of each cycle with its list prefix ``first(x),
    second(x)``; the last label of a cycle walks the cycle back between
    the two, ``second(y), first(y)`` for every earlier label y."""
    for cyc in cycles:
        *rest, last = cyc
        for x in rest:
            yield x, [first(x), second(x)]
        back = [p for y in reversed(rest) for p in (second(y), first(y))]
        yield last, [first(last), *back, second(last)]


def gen_partial_lists(
    graph: BipartiteGraph, tau: tuple[int, ...] | None = None
) -> Instance:
    """The direct list construction for G, as a complete instance.

    ``tau`` permutes the block of b-women that every B-man ranks first
    (identity by default); the stable structure is independent of it.
    Prefixes beyond each person's stable partners are completed with the
    remaining people in ascending index order.
    """
    cp = edge_cycles(graph)
    n = cp.n
    if tau is None:
        tau = tuple(range(1, n + 1))
    if sorted(tau) != list(range(1, n + 1)):
        raise ValueError("tau must be a permutation of 1..n")

    def a(x): return x
    def b(x): return n + x
    def c(x): return 2 * n + x
    A, B, C = a, b, c  # same numbering on the men's side

    men = [None] * (3 * n)
    women = [None] * (3 * n)
    bblock = [b(tau[j]) for j in range(n - 1, -1, -1)]  # b_tau(n) .. b_tau(1)
    cblock = [C(j) for j in range(n, 0, -1)]  # C_n .. C_1

    for x in range(1, n + 1):
        rx = cp.rho[x - 1]
        men[A(x) - 1] = [a(x), b(rx)]
        men[C(x) - 1] = [c(x), a(cp.sigma[x - 1])]
        women[b(rx) - 1] = [A(x), B(rx)]
        women[c(x) - 1] = [B(x), C(x)]
    for x, prefix in _cycle_prefixes(cp.sigma_cycles, a, c):
        men[B(x) - 1] = bblock + prefix
    for y, prefix in _cycle_prefixes(cp.rho_cycles, B, A):
        women[a(y) - 1] = cblock + prefix
    men, women = (tuple(_complete(p, 3 * n) for p in side) for side in (men, women))
    return Instance(3 * n, men, women)


def gen_2euclidean(graph: BipartiteGraph) -> EuclideanSpec:
    """Realize the construction with 2-dimensional Euclidean distances.

    Each side's cycles become runs of consecutive integers s, a cycle of
    l labels followed by a gap of l unused integers, so 0 < s < 2n.
    Label x of a cycle, prev the label before it, puts three people on
    the axes, at (s - 7/10, 0), (s, 0) and (0, s): c_prev, a_x and
    b_(rho x) on the sigma side, A_prev, B_x and C_x on the rho side.
    Its three ideal points, of C_prev, B_x and A_x or of b_x, a_x and
    c_x, sit at

        (s - 2/5 + eps, 0),   (s + eps, big),   (s + eps, s - eps),

    with big = 4n^2 and eps = 1/(1000n).  Each ranks as the list
    construction needs:

    * (s - 2/5 + eps, 0) ranks the candidate at s - 7/10 first, 3/10 + eps
      away, and the one at s second, 2/5 - eps away; every other
      candidate is more than 3/5 away.
    * (s + eps, big) ranks the y-axis first: for a height u >= 1,
      big^2 - (big - u)^2 >= 2 big - 1 > 4n^2 > (s + eps)^2.  It ranks
      the y-axis by descending height, one block for every such person,
      and then the x-axis by distance from s + eps: its own label's
      person at s, then the one the next label puts at s + 3/10, or, for
      the last label of a run, back along the run to the one at the run's
      start minus 7/10, l - 3/10 + eps away.  The gap keeps every other
      run l + 3/10 - eps or more away.
    * (s + eps, s - eps) ranks (s, 0) first and (0, s) second, their
      squared distances eps^2 + (s - eps)^2 and (s + eps)^2 + eps^2 being
      4s eps apart.  Any other candidate is farther than (0, s) by at
      least 1 - 2 eps on the y-axis, or (3/10 - eps)^2 - eps^2 - 4s eps
      > 9/100 - 1/1000 - 8/1000 on the x-axis.

    No two candidates are ever exactly equidistant.  Write an ideal
    point as I + d, with I in ((1/10)Z)^2 and d = (eps, 0) or
    (eps, -eps); every position lies on an axis, in (1/10)Z and in
    (0, 2n).  For candidates P and Q, |I + d - P|^2 - |I + d - Q|^2 is
    |I - P|^2 - |I - Q|^2, a multiple of 1/100, plus 2 d.(Q - P), which
    is less than 8n eps = 1/125 in size.  So a tie needs d.(Q - P) = 0.
    That fails for two x-axis candidates, whose positions differ, and
    across the axes, where d.(Q - P) = -eps p + d_y u < 0 for P = (p, 0)
    and Q = (0, u).  Two y-axis candidates at heights u and v pass it
    only with d = (eps, 0), and then tie only if I's height is
    (u + v)/2 < 2n; it is 0 or big.  The argument is by size, not by
    denominators, so it holds for every n.
    """
    cp = edge_cycles(graph)
    n = cp.n
    eps = Fraction(1, 1000 * n)
    big = 4 * n * n
    mpos, mpref, wpos, wpref = ([None] * (3 * n) for _ in range(4))
    for on_sigma, cycles in ((True, cp.sigma_cycles), (False, cp.rho_cycles)):
        pos, pref = (wpos, mpref) if on_sigma else (mpos, wpref)
        s = 0
        for cyc in cycles:
            for prev, x in zip(cyc[-1:] + cyc[:-1], cyc):
                s += 1
                if on_sigma:  # positions c_prev, a_x, b_{rho x}; ideal points C_prev, B_x, A_x
                    at, of = (2 * n + prev, x, n + cp.rho[x - 1]), (2 * n + prev, n + x, x)
                else:  # positions A_prev, B_x, C_x; ideal points b_x, a_x, c_x
                    at, of = (prev, n + x, 2 * n + x), (n + x, x, 2 * n + x)
                for person, value in zip(at, ((s - Fraction(7, 10), 0), (s, 0), (0, s))):
                    pos[person - 1] = value
                for person, value in zip(
                    of, ((s - Fraction(2, 5) + eps, 0), (s + eps, big), (s + eps, s - eps))
                ):
                    pref[person - 1] = value
            s += len(cyc)  # the gap after the run
    return EuclideanSpec(2, 3 * n, mpos, mpref, wpos, wpref)


def gen_3attribute(graph: BipartiteGraph) -> AttributeSpec:
    """Realize the construction with 3-dimensional dot products.

    This is the paraboloid lift of `gen_2euclidean` (Edelsbrunner and
    Seidel, *Voronoi diagrams and arrangements*, DCG 1, 1986): a position
    q becomes (q, |q|^2) and an ideal point p the preference vector
    (2p, -1).  Their dot product is 2 p.q - |q|^2 = |p|^2 - |p - q|^2,
    and |p|^2 is the same for all of one person's candidates, so the
    lift induces the same instance with the same exact ties: none, by
    `gen_2euclidean`'s argument.
    """
    spec = gen_2euclidean(graph)

    def lifted(q):
        return (*q, sum(x * x for x in q))

    def normal(p):
        return (*(2 * x for x in p), -1)

    return AttributeSpec(
        3, spec.n,
        map(lifted, spec.men_pos), map(normal, spec.men_pref),
        map(lifted, spec.women_pos), map(normal, spec.women_pref),
    )


# The three routes from a graph to its instance or geometric spec, by
# model name.  Each generator is looked up when called, so rebinding a
# module name (as perfbench's tracer does) reaches every route.
MODELS = {
    "lists": lambda graph: gen_partial_lists(graph),
    "attr3": lambda graph: gen_3attribute(graph),
    "euclid2": lambda graph: gen_2euclidean(graph),
}


def build_instance(graph: BipartiteGraph, model: str) -> Instance:
    """Build the instance for G via the route `MODELS` names `model`."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    built = MODELS[model](graph)
    return built if isinstance(built, Instance) else induced_instance(built)


def read_tau(inst: Instance) -> tuple[int, ...]:
    """Recover the b-block permutation from a generated instance: any
    B-man ranks the n b-women first, as b_tau(n) .. b_tau(1)."""
    n, rest = divmod(inst.n, 3)
    if rest:
        raise ValueError(f"instance size {inst.n} is not a multiple of 3")
    first = inst.men_prefs[n]  # man B_1
    block = [w - n for w in first[:n]]
    if sorted(block) != list(range(1, n + 1)):
        raise ValueError("instance does not start with a b-block")
    return tuple(reversed(block))


# -- the verifier ------------------------------------------------------


@dataclass(frozen=True)
class ReductionReport:
    male_optimal_ok: bool
    female_optimal_ok: bool
    rotation_forms_ok: bool
    poset_isomorphic_ok: bool
    counts_equal: bool
    is_count: int
    sm_count: int
    details: str

    @property
    def all_ok(self) -> bool:
        return (
            self.male_optimal_ok
            and self.female_optimal_ok
            and self.rotation_forms_ok
            and self.poset_isomorphic_ok
            and self.counts_equal
        )

    def __str__(self) -> str:
        def mark(ok: bool) -> str:
            return "pass" if ok else "FAIL"

        lines = [
            f"male_optimal:     {mark(self.male_optimal_ok)}",
            f"female_optimal:   {mark(self.female_optimal_ok)}",
            f"rotation_forms:   {mark(self.rotation_forms_ok)}",
            f"poset_isomorphic: {mark(self.poset_isomorphic_ok)}",
            f"counts_equal:     {mark(self.counts_equal)}",
            f"independent_sets: {self.is_count}",
            f"stable_matchings: {self.sm_count}",
        ]
        if self.details:
            lines.append(self.details)
        return "\n".join(lines)


def verify_reduction(graph: BipartiteGraph, model: str = "lists") -> ReductionReport:
    """Check every structural claim of the reduction on a concrete graph.

    Each rotation is labelled with the vertex whose expected pair set it
    has: rho-cycle u is element u and sigma-cycle v element n1 + v of
    `poset_from_bipartite(graph)`.  The rotation poset, relabelled so, must
    be that poset, whose downsets the independent sets are counted by.
    """
    cp = edge_cycles(graph)
    n = cp.n
    inst = build_instance(graph, model)
    problems = []
    rposet = rotation_poset(inst)

    mopt = rposet.man_optimal
    expect_m = Matching(tuple(range(1, 3 * n + 1)))  # everyone with their namesake
    male_ok = mopt == expect_m
    if not male_ok:
        problems.append(f"male-optimal differs: {mopt.pairs()}")

    wopt = rposet.woman_optimal
    wives = [0] * (3 * n)
    for x in range(1, n + 1):
        wives[x - 1] = n + cp.rho[x - 1]  # A_x with b_{rho x}
        wives[n + x - 1] = 2 * n + x  # B_x with c_x
        wives[2 * n + x - 1] = cp.sigma[x - 1]  # C_x with a_{sigma x}
    female_ok = wopt == Matching(tuple(wives))
    if not female_ok:
        problems.append(f"female-optimal differs: {wopt.pairs()}")

    vertex = {}  # the pair set of each expected rotation -> its element
    for u, cyc in enumerate(cp.rho_cycles):  # (A_x, a_x) and (B_x, b_x)
        vertex[frozenset([(x, x) for x in cyc] + [(n + x, n + x) for x in cyc])] = u
    for v, cyc in enumerate(cp.sigma_cycles, graph.n1):  # (B_x, a_x) and (C_x, c_x)
        vertex[frozenset(
            [(n + x, x) for x in cyc] + [(2 * n + x, 2 * n + x) for x in cyc]
        )] = v
    labels = [vertex.get(frozenset(rot.pairs)) for rot in rposet.rotations]
    problems += [
        f"unrecognized rotation {rot.pairs}"
        for rot, v in zip(rposet.rotations, labels)
        if v is None
    ]
    forms_ok = None not in labels
    if forms_ok and sorted(labels) != list(range(graph.size)):
        forms_ok = False
        problems.append("rotation multiset does not cover every vertex exactly once")

    gposet = poset_from_bipartite(graph)
    iso_ok = forms_ok
    if forms_ok:
        below = [0] * graph.size
        for v, mask in zip(labels, rposet.below):
            below[v] = sum(1 << labels[i] for i in _bits(mask))
        wrong = [v for v in range(graph.size) if below[v] != gposet.below[v]]
        iso_ok = not wrong
        if wrong:
            problems.append(
                f"rotation poset differs from the graph's below elements {wrong}"
            )

    is_count = count_downsets(gposet)
    # a rotation poset equal to the graph's has its count; count it only if not
    sm_count = is_count if iso_ok else count_downsets(rposet)
    counts_ok = is_count == sm_count
    if not counts_ok:
        problems.append(f"counts differ: #IS={is_count} #SM={sm_count}")

    return ReductionReport(
        male_ok, female_ok, forms_ok, iso_ok, counts_ok,
        is_count, sm_count, "\n".join(problems),
    )
