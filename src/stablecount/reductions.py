"""From bipartite graphs to stable marriage instances, count-preservingly.

Given a simple bipartite graph G with n edges and no isolated vertices,
three generators build a 3n-by-3n instance whose stable matchings are in
bijection with the independent sets of G:

* ``gen_partial_lists`` writes the preference lists directly;
* ``gen_3attribute`` realizes them with 3-dimensional dot products;
* ``gen_2euclidean`` realizes them with 2-dimensional Euclidean distances.

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

import functools
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


def _placed(cp: CyclePair, slot) -> tuple[tuple, tuple, tuple, tuple]:
    """The mpos, mpref, wpos and wpref of a geometric realization, placed
    label by label.  ``slot(cycles, i, m, key)`` gives the three positions
    and three preference vectors of label m of cycle i of one side's
    `cycles`, in the role order below; `key` is the label of the third
    position's person, rho x on the sigma side and x on the rho side."""
    n = cp.n
    mpos, mpref, wpos, wpref = ([None] * (3 * n) for _ in range(4))
    for on_sigma, cycles in ((True, cp.sigma_cycles), (False, cp.rho_cycles)):
        pos, pref = (wpos, mpref) if on_sigma else (mpos, wpref)
        for i, cyc in enumerate(cycles):
            for m, x in enumerate(cyc):
                prev = cyc[m - 1]
                if on_sigma:  # positions c_prev, a_x, b_{rho x}; preferences C_prev, B_x, A_x
                    key = cp.rho[x - 1]
                    at, of = (2 * n + prev, x, n + key), (2 * n + prev, n + x, x)
                else:  # positions A_prev, B_x, C_x; preferences b_x, a_x, c_x
                    key = x
                    at, of = (prev, n + x, 2 * n + x), (n + x, x, 2 * n + x)
                positions, prefs = slot(cycles, i, m, key)
                for person, value in zip(at, positions):
                    pos[person - 1] = value
                for person, value in zip(of, prefs):
                    pref[person - 1] = value
    return tuple(mpos), tuple(mpref), tuple(wpos), tuple(wpref)


@functools.lru_cache(maxsize=None)
def _pi_interval(bits: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= pi * 2**bits <= hi and hi - lo <= 2.

    Machin's pi = 16 arctan(1/5) - 4 arctan(1/239) at w = bits + 32: J
    floored terms of arctan(1/n) * 2**w and the alternating tail after the
    first zero term are off by less than J + 1, so the total by err << 2**31.
    """
    w = bits + 32
    total = err = 0
    for weight, n in ((16, 5), (-4, 239)):
        power, j = (1 << w) // n, 0
        while power:
            term = power // (2 * j + 1)
            total += -weight * term if j & 1 else weight * term
            power //= n * n
            j += 1
        err += abs(weight) * (j + 1)
    return (total - err) >> 32, -((-total - err) >> 32)


@functools.lru_cache(maxsize=None)
def _cos_interval(a: int, b: int, bits: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= cos(2*pi*a/b) * 2**bits <= hi and
    hi - lo <= 2, for 0 <= a/b < 1/4.

    At w = bits + 20, 2*pi*a/b lies in [x, x + d] / 2**w, s = x / 2**w
    < pi/2, y = floor(x**2 / 2**w).  The Taylor terms of cos(s) * 2**w are
    T_k = floor(T_(k-1) y / (2**w (2k-1) 2k)) from T_0 = 2**w: T_1 is short
    by less than 3/2, each later one by less than 1 + 1/9 plus 1/4 of the
    shortfall before, so by less than 2, as is the Lagrange remainder at
    the first zero term T_N.  So the sum is within 2N + d of the cosine at
    any bits, below 2**19 (so hi - lo <= 2) for bits up to about 10**5.
    """
    w = bits + 20
    pi_lo, pi_hi = _pi_interval(w)
    x = 2 * a * pi_lo // b
    d = -(-2 * a * pi_hi // b) - x
    y = x * x >> w
    term = total = 1 << w
    k = 0
    while term:
        k += 1
        term = (term * y >> w) // ((2 * k - 1) * 2 * k)
        total += -term if k & 1 else term
    err = 2 * k + d
    return (total - err) >> 20, -((-total - err) >> 20)


def _cos(turns: Fraction, bits: int) -> int:
    """An integer within 2 of cos(2*pi*turns) * 2**bits."""
    a, b = turns.numerator % turns.denominator, turns.denominator
    if 2 * a > b:
        a = b - a  # cos is even
    if 4 * a > b:
        return -_cos(Fraction(b - 2 * a, 2 * b), bits)  # cos(q) = -cos(1/2 - q)
    return _cos_interval(a, b, bits)[0] if 4 * a < b else 0


def gen_3attribute(graph: BipartiteGraph) -> AttributeSpec:
    """Realize the construction with 3-dimensional dot products.

    People sit on the unit circle in the x-y plane.  Each side's c cycles
    get arcs of 1/n^2 turns starting at i/c, and label m of a cycle of
    length l owns the angles from 7m theta on, theta = 1/(n^2 (7l - 1))
    turns (omega on the rho side).  Its three positions sit at offsets 0,
    4 theta and 6 theta, the last with z = 4^key; its preference vectors
    point at 8 theta/5, 14 theta/3 and, tilted phi = 1/100 turn out of the
    plane as (sin phi cos t, sin phi sin t, cos phi), at 4 theta.  Requires
    n >= 2: with a single edge an arc is the whole circle.

    The tilted vectors, held by B-men and a-women, rank candidates of
    different z by z: their z-terms differ by at least 3 cos phi > 2.9 and
    their plane terms by less than 4 sin phi < 0.3.  Every other order is
    by angle: a plane vector scores a candidate at angular distance d as
    cos(2 pi d), and for d1 < d2 <= 1/2,

        cos(2 pi d1) - cos(2 pi d2) = 2 sin(pi (d1 + d2)) sin(pi (d2 - d1))
                                    >= 2 sin(pi (d2 - d1))**2 >= 8 (d2 - d1)**2.

    Of every pair the construction orders, the distances differ by at
    least theta/5, which is a C-man's a-woman before the b-woman of the
    label before (12 theta/5 against 13 theta/5, and a b-woman's B-man
    before a C-man alike), by 2 theta/3 or more elsewhere, and by theta or
    more for a tilted vector's candidates of equal z.  So every needed
    score gap is at least 8 theta^2/25, or sin phi * 8 theta^2 > theta^2/2.

    Each coordinate is an integer over 2^b, within eps = 2^(r-b) of its
    real value, where 2^r > 3n: the cosines are rounded within 2^-(b-1)
    and then moved to a residue class mod 2^(r-b).  A product of two
    coordinates of magnitude at most 1 moves by at most 2 eps + eps^2, and
    a score by less than 5 eps (the z-terms of candidates of equal z are
    equal), so a needed order holds when 10 eps < 8 theta^2/25, that is
    2^(b-r) > 125/(4 theta^2).  As 1/theta < 7n^3 and 125 * 49/4 < 2^11,
    b = r + 11 + 6 bitlen(n) suffices.

    No two candidates score exactly alike for anyone.  Every preference
    vector's x is an odd multiple of 2^-b and its y and z are multiples
    of 2^(r-b); candidate j's x is j * 2^-b mod 2^(r-b).  So in units of
    2^-2b, two candidates' scores differ by an odd number times their
    index difference, mod 2^r, which is not zero as 0 < |j - j'| < 2^r.
    """
    cp = edge_cycles(graph)
    n = cp.n
    if n < 2:
        raise ValueError("the 3-attribute construction needs at least 2 edges")
    r = (3 * n).bit_length()
    bits = r + 11 + 6 * n.bit_length()
    w = bits + 4  # the tilted products are rounded from w bits
    phi = Fraction(1, 100)  # tilt of the z-heavy preference vectors, in turns
    sin_phi, cos_phi = _cos(Fraction(1, 4) - phi, w), _cos(phi, bits)

    def circle(turns: Fraction, z: int = 0) -> tuple[int, int, int]:
        return (_cos(turns, bits), _cos(Fraction(1, 4) - turns, bits), z << bits)

    def tilted(turns: Fraction) -> tuple[int, int, int]:
        return (
            sin_phi * _cos(turns, w) >> w + 4,
            sin_phi * _cos(Fraction(1, 4) - turns, w) >> w + 4,
            cos_phi,
        )

    def slot(cycles, i, m, key):
        turn = Fraction(1, n * n * (7 * len(cycles[i]) - 1))  # theta, or omega on the rho side
        base = Fraction(i, len(cycles))

        def angle(offset):
            return base + (7 * m + offset) * turn

        return (
            (circle(angle(0)), circle(angle(4)), circle(angle(6), 4**key)),
            (circle(angle(Fraction(8, 5))), tilted(angle(4)), circle(angle(Fraction(14, 3)))),
        )

    def near(x: int, modulus: int = 1, residue: int = 0) -> Fraction:
        # the integer nearest x in the residue class, over 2**bits
        y = x - (x - residue) % modulus
        return Fraction(y + modulus if 2 * (x - y) > modulus else y, 1 << bits)

    mpos, mpref, wpos, wpref = _placed(cp, slot)

    def positions(block):
        return [(near(x, 1 << r, j), near(y), near(z)) for j, (x, y, z) in enumerate(block, 1)]

    def preferences(block):
        return [(near(x, 2, 1), near(y, 1 << r), near(z, 1 << r)) for x, y, z in block]

    return AttributeSpec(
        3, 3 * n, positions(mpos), preferences(mpref), positions(wpos), preferences(wpref)
    )


def gen_2euclidean(graph: BipartiteGraph) -> EuclideanSpec:
    """Realize the construction with 2-dimensional Euclidean distances.

    All coordinates are rational: the a/c women and their suitors sit on
    the x-axis in per-vertex runs, b-women mirror the runs on the y-axis,
    B-men's ideal points sit 1000^n up so their ranking of b-women is by
    y-coordinate, and A-men's ideal points drop by eps = 1/100^n to break
    the a-versus-b symmetry the right way.

    Every ideal point lying on the x-axis additionally moves right by
    eps/7.  Those landing exactly on a grid point (A, B, a and c) would
    otherwise be equidistant from their two grid neighbours, and the
    off-grid ones (C and b) can hit a Pythagorean coincidence where an
    axis candidate at distance d and a y-axis candidate at height u
    satisfy (X - d)^2 = X^2 + u^2 exactly.  The shift is smaller than
    eps, far below every squared-distance margin in the analysis, and
    its denominator (7 against a base-10 grid and powers of 100) cannot
    produce a new exact tie: clearing denominators in any tie equation
    leaves a multiple of (7/5) * 100^n equal to a number bounded by 6n.
    """
    cp = edge_cycles(graph)
    n = cp.n
    eps = Fraction(1, 100**n)
    nudge = eps / 7
    big = Fraction(1000**n)
    zero = Fraction(0)

    def slot(cycles, i, m, key):
        s = 2 * sum(map(len, cycles[:i])) + m + 1
        return (
            ((s - Fraction(7, 10), zero), (Fraction(s), zero), (zero, Fraction(s))),
            ((s - Fraction(4, 10) + nudge, zero), (s + nudge, big), (s + nudge, s - eps)),
        )

    return EuclideanSpec(2, 3 * n, *_placed(cp, slot))


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
    n = inst.n // 3
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
