"""Counting stable matchings and independent sets via poset downsets.

The stable matchings of an instance correspond one-to-one with the
downsets (down-closed subsets) of its rotation poset, so counting and
enumeration reduce to the same operations on finite posets.  Independent
sets of a bipartite graph are likewise the downsets of a height-one poset
that puts each left vertex below its right neighbours, which is what makes
counting stable matchings as hard as counting bipartite independent sets.

`count_downsets` counts like the component-caching #SAT and #IS counters
(Sang, Bacchus, Beame, Kautz & Pitassi, SAT 2004; Dahllöf, Jonsson &
Wahlström, TCS 332, 2005): memoised on the set of live elements, it
multiplies the counts of the connected components of the comparability
graph and splits a component on its element of highest degree.  It loops
on the largest piece and recurses into the smaller ones, so chains and
fences stay far from the recursion limit.  Exact counting is #P-complete,
so the memo has a budget, `MEMO_BUDGET`, and a count that uses it up is a
`SizeLimitError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import Instance, Matching, _header, _ItemError, _pair_lines, _tagged_pairs
from .rotations import Poset, RotationPoset, _bits, rotation_poset


MEMO_BUDGET = 2**20  # memo entries a downset count may hold


class SizeLimitError(ValueError):
    """Input exceeds the size bound of an exact algorithm.  ``budget`` is
    the bound that was used up and ``size`` the size of the input that used
    it up, when given."""

    def __init__(self, message: str, budget=None, size=None) -> None:
        super().__init__(message)
        self.budget, self.size = budget, size


def count_downsets(poset: Poset) -> int:
    """The number of down-closed subsets of the poset.

    Works on a bitmask of live elements, memoised.  The live elements fall
    into connected components of the comparability graph, whose counts
    multiply; an isolated element counts 2.  A single component splits on
    its element x of highest live degree, the one nearest the middle of
    the live index range among ties: the downsets without x are those of
    the live elements outside x and above it, the downsets with x those of
    the live elements outside x and below it.  The count loops on the
    largest component or the larger branch and recurses only into the
    smaller ones, so the recursion is about log2 of the size deep.
    Refuses with `SizeLimitError` once the memo holds more than
    `MEMO_BUDGET` entries.
    """
    above = poset.above
    below = poset.below
    near = [a | b for a, b in zip(above, below)]
    memo = {0: 1}

    def count(live: int) -> int:
        # count(live) = add + mul * count(rest) for each step, so follow the
        # larger piece down to a memoised set and unwind the steps after
        steps = []
        while live not in memo:
            comps, mul = [], 1
            rest = live
            while rest:
                comp = frontier = rest & -rest
                while frontier:
                    grown = 0
                    for x in _bits(frontier):
                        grown |= near[x]
                    frontier = grown & rest & ~comp
                    comp |= frontier
                rest &= ~comp
                if comp & (comp - 1):
                    comps.append(comp)
                else:
                    mul *= 2
            if mul > 1 or len(comps) > 1:
                comps.sort(key=int.bit_count)
                rest = comps.pop() if comps else 0
                for comp in comps:
                    mul *= memo.get(comp) or count(comp)
                steps.append((live, 0, mul))
            else:
                mid = live.bit_length() + (live & -live).bit_length() - 2
                x = max(
                    _bits(live),
                    key=lambda i: ((near[i] & live).bit_count(), -abs(2 * i - mid)),
                )
                out = live & ~(1 << x | above[x])
                rest = live & ~(1 << x | below[x])
                if out.bit_count() > rest.bit_count():
                    out, rest = rest, out
                steps.append((live, memo.get(out) or count(out), 1))
            live = rest
        total = memo[live]
        for live, add, mul in reversed(steps):
            total = add + mul * total
            memo[live] = total
            if len(memo) > MEMO_BUDGET:
                raise SizeLimitError(
                    f"size bound exceeded: memo budget of {MEMO_BUDGET} "
                    f"entries used up on a poset of {poset.size} elements",
                    MEMO_BUDGET,
                    poset.size,
                )
        return total

    return count((1 << poset.size) - 1)


def enumerate_downsets(poset: Poset) -> Iterator[int]:
    """Yield the downsets one at a time, each as the bitmask of its
    elements, like ``poset.below``.

    Splits on the lowest live element x, depth first, the downsets without
    x before those with x: the same two branches that `count_downsets`
    takes, on a fixed element.  Each downset costs at most one split per
    element and nothing is counted first: `itertools.islice` takes a
    prefix for the cost of that prefix.
    """
    above = poset.above
    below = poset.below
    stack = [((1 << poset.size) - 1, 0)]
    while stack:
        live, chosen = stack.pop()
        if not live:
            yield chosen
            continue
        x = live & -live
        i = x.bit_length() - 1
        stack.append((live & ~(x | below[i]), chosen | x | below[i]))
        stack.append((live & ~(x | above[i]), chosen))


def matching_from_downset(rposet: RotationPoset, mask: int) -> Matching:
    """Apply the rotations of a downset, given as the bitmask of its
    elements, to the man-optimal matching.  Ascending index order is a
    linear extension, so they are applied lowest bit first.  A mask that
    is negative or holds a bit past ``rposet.size`` (either way, ``mask >>
    size`` is not 0) or is not down-closed is a `ValueError`."""
    if mask >> rposet.size or any(rposet.below[i] & ~mask for i in _bits(mask)):
        raise ValueError("not a downset of the rotation poset")
    wives = list(rposet.man_optimal.wives)
    for i in _bits(mask):
        for m, _, nw in rposet.rotations[i].steps:
            wives[m - 1] = nw
    return Matching(tuple(wives))


def _wives_along(rposet: RotationPoset, masks: Iterable[int]) -> Iterator[list[int]]:
    """Yield the wives of each downset in `masks`, in one list that is
    moved from one downset to the next: copy it to keep it.  The masks are
    not checked.

    From `prev` to `mask`, the rotations of ``prev & ~mask`` are undone
    highest index first, then those of ``mask & ~prev`` are applied lowest
    index first.  Every set passed through is a downset, since index order
    is a linear extension.  Undoing: if y is still held and x below y is
    not, x is in ``prev & ~mask``; y is not in `mask`, which is
    down-closed, so y is undone too, and before x, since its index is
    higher.  Applying: if y is held and x below y is not, x is in ``mask &
    ~prev``; y is not in ``prev & mask``, which is down-closed, so y was
    applied, and after x, since its index is higher.  Either way no such
    pair exists.  So each step adds or removes a
    rotation x that is maximal in the larger of the two downsets: x is
    exposed in the smaller one's matching, and eliminating it moves each of
    its men from w to nw (Irving & Leather), undoing it back.  Each step is
    exact, also where rotations share a man, and costs the size of its
    rotation (Gusfield, *Three fast algorithms for four problems in stable
    marriage*, SIAM J. Comput. 16, 1987).
    """
    rotations = rposet.rotations
    wives = list(rposet.man_optimal.wives)
    prev = 0
    for mask in masks:
        for i in reversed(list(_bits(prev & ~mask))):
            for m, w, _ in rotations[i].steps:
                wives[m - 1] = w
        for i in _bits(mask & ~prev):
            for m, _, nw in rotations[i].steps:
                wives[m - 1] = nw
        prev = mask
        yield wives


def count_stable_matchings(inst: Instance) -> int:
    return count_downsets(rotation_poset(inst))


def enumerate_stable_matchings(inst: Instance) -> Iterator[Matching]:
    """Yield the stable matchings in the order of `enumerate_downsets`,
    each moved from the last by its changed rotations only."""
    rposet = rotation_poset(inst)
    for wives in _wives_along(rposet, enumerate_downsets(rposet)):
        yield Matching(tuple(wives))


# -- bipartite graphs and independent sets -----------------------------


@dataclass(frozen=True)
class BipartiteGraph:
    """A bipartite graph on left vertices 1..n1 and right vertices 1..n2.

    A vertex may have no edge: it is in or out of an independent set
    independently of the rest, so it doubles the count.  The reductions
    refuse such a vertex (see `reductions.edge_cycles`).
    """

    n1: int
    n2: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("both sides must be nonempty")
        seen = set()
        for i, (u, v) in enumerate(self.edges):
            if not (1 <= u <= self.n1 and 1 <= v <= self.n2):
                raise _ItemError(f"edge ({u},{v}) out of range", i)
            if (u, v) in seen:
                raise _ItemError(f"duplicate edge ({u},{v})", i)
            seen.add((u, v))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @property
    def size(self) -> int:
        return self.n1 + self.n2


def poset_from_bipartite(graph: BipartiteGraph) -> Poset:
    """The height-one poset with each left vertex below its right
    neighbours.  Elements 0..n1-1 are the left side, n1..n1+n2-1 the
    right; its downsets biject with the independent sets of the graph (the
    maximal elements of a downset form the independent set)."""
    below = [0] * graph.size
    for u, v in graph.edges:
        below[graph.n1 + v - 1] |= 1 << (u - 1)
    return Poset(tuple(below))


def count_independent_sets(graph: BipartiteGraph) -> int:
    """Count independent sets of a bipartite graph via poset downsets."""
    return count_downsets(poset_from_bipartite(graph))


# -- textual format ----------------------------------------------------


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse a bipartite graph: header ``bis n1 n2`` then ``e u v`` lines."""
    _, (n1, n2), lines = _header(text, "bis n1 n2")
    return _tagged_pairs(lines, "e u v", lambda edges: BipartiteGraph(n1, n2, tuple(edges)))


def format_bipartite(graph: BipartiteGraph) -> str:
    return f"bis {graph.n1} {graph.n2}\n" + _pair_lines("e", graph.edges)
