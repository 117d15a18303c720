"""Counting stable matchings and independent sets via poset downsets.

The stable matchings of an instance correspond one-to-one with the
downsets (down-closed subsets) of its rotation poset, so counting and
enumeration reduce to the same operations on finite posets.  Independent
sets of a bipartite graph are likewise the downsets of a height-one poset
that puts each left vertex below its right neighbours, which is what makes
counting stable matchings as hard as counting bipartite independent sets.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import Instance, Matching, ParseError, _content_lines
from .gale_shapley import is_stable
from .rotations import RotationPoset, _bits, rotation_poset


class SizeLimitError(ValueError):
    """Input exceeds the size bound of an exact algorithm."""


@dataclass(frozen=True)
class Poset:
    """A finite poset on elements 0..size-1.

    ``above[x]`` / ``below[x]`` are bitmasks of the elements strictly
    greater / smaller than x (transitively closed).
    """

    size: int
    above: tuple[int, ...]
    below: tuple[int, ...]

    def __post_init__(self) -> None:
        for x in range(self.size):
            if self.above[x] >> x & 1 or self.below[x] >> x & 1:
                raise ValueError("order relation must be irreflexive")

    @classmethod
    def from_below(cls, below: tuple[int, ...]) -> "Poset":
        above = [0] * len(below)
        for y, mask in enumerate(below):
            for x in _bits(mask):
                above[x] |= 1 << y
        return cls(len(below), tuple(above), tuple(below))

    @classmethod
    def from_rotations(cls, rposet: RotationPoset) -> "Poset":
        return cls.from_below(rposet.below)

    @functools.cached_property
    def _downsets(self) -> int:
        """The number of downsets; see `count_downsets`."""
        above = self.above
        below = self.below
        memo: dict[int, int] = {}

        def count(mask: int) -> int:
            if mask == 0:
                return 1
            cached = memo.get(mask)
            if cached is not None:
                return cached
            m = mask
            x = (m & -m).bit_length() - 1
            while below[x] & mask:
                m &= m - 1  # not minimal within mask; try next element
                x = (m & -m).bit_length() - 1
            result = count(mask & ~(above[x] | 1 << x)) + count(mask & ~(1 << x))
            memo[mask] = result
            return result

        return count((1 << self.size) - 1)


def count_downsets(poset: Poset, max_elements: int = 64) -> int:
    """The number of down-closed subsets of the poset, refused above
    `max_elements` elements.

    Splits on a minimal element x: downsets avoiding x avoid everything
    above it, downsets containing x are free on the rest.  Memoised on the
    bitmask of elements still in play.  The count is kept on the poset, so
    `enumerate_downsets` on a counted poset does not count it again.
    """
    return _downset_count(poset, max_elements)


def _downset_count(poset: Poset, max_elements: int) -> int:
    if poset.size > max_elements:
        raise SizeLimitError(
            f"size bound exceeded: poset has {poset.size} > {max_elements} elements"
        )
    return poset._downsets


def enumerate_downsets(
    poset: Poset, limit: int | None = None, cap: int = 10**6
) -> Iterator[frozenset[int]]:
    """Yield every downset in a deterministic order (at most `limit` of
    them if given).  Refuses posets with more than `cap` downsets, and
    those `count_downsets` refuses by default."""
    if _downset_count(poset, 64) > cap:
        raise SizeLimitError(f"size bound exceeded: more than {cap} downsets")
    above = poset.above
    below = poset.below
    budget = [limit if limit is not None else -1]

    def walk(mask: int, chosen: int) -> Iterator[frozenset[int]]:
        if budget[0] == 0:
            return
        if mask == 0:
            budget[0] -= 1
            yield frozenset(i for i in range(poset.size) if chosen >> i & 1)
            return
        m = mask
        x = (m & -m).bit_length() - 1
        while below[x] & mask:
            m &= m - 1
            x = (m & -m).bit_length() - 1
        yield from walk(mask & ~(above[x] | 1 << x), chosen)  # downsets without x
        yield from walk(mask & ~(1 << x), chosen | 1 << x)  # downsets with x
    yield from walk((1 << poset.size) - 1, 0)


def matching_from_downset(rposet: RotationPoset, downset: frozenset[int]) -> Matching:
    """Apply the rotations of a downset (in discovery order) to the
    man-optimal matching."""
    wives = list(rposet.man_optimal.wives)
    for i in sorted(downset):
        rot = rposet.rotations[i]
        k = len(rot.pairs)
        for idx, (m, w) in enumerate(rot.pairs):
            if wives[m - 1] != w:
                raise ValueError("not a downset of the rotation poset")
            wives[m - 1] = rot.pairs[(idx + 1) % k][1]
    return Matching(tuple(wives))


def count_stable_matchings(inst: Instance) -> int:
    return count_downsets(Poset.from_rotations(rotation_poset(inst)))


def enumerate_stable_matchings(
    inst: Instance, limit: int | None = None
) -> Iterator[Matching]:
    rposet = rotation_poset(inst)
    poset = Poset.from_rotations(rposet)
    for downset in enumerate_downsets(poset, limit):
        yield matching_from_downset(rposet, downset)


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


# -- bipartite graphs and independent sets -----------------------------


@dataclass(frozen=True)
class BipartiteGraph:
    """A bipartite graph on left vertices 1..n1 and right vertices 1..n2.

    Every vertex must be covered by an edge: an isolated vertex sits in
    every independent set independently of the rest, so callers should
    drop it and multiply the count by 2 per isolated vertex.
    """

    n1: int
    n2: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("both sides must be nonempty")
        seen = set()
        covered1, covered2 = set(), set()
        for u, v in self.edges:
            if not (1 <= u <= self.n1 and 1 <= v <= self.n2):
                raise ValueError(f"edge ({u},{v}) out of range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            covered1.add(u)
            covered2.add(v)
        isolated = (self.n1 - len(covered1)) + (self.n2 - len(covered2))
        if isolated:
            raise ValueError(
                f"graph has {isolated} isolated vertices; remove them and "
                f"multiply the independent-set count by 2**{isolated}"
            )
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @property
    def size(self) -> int:
        return self.n1 + self.n2

    def left_neighbours(self, v: int) -> tuple[int, ...]:
        return tuple(u for u, x in self.edges if x == v)

    def right_neighbours(self, u: int) -> tuple[int, ...]:
        return tuple(v for x, v in self.edges if x == u)


def poset_from_bipartite(graph: BipartiteGraph) -> Poset:
    """The height-one poset with each left vertex below its right
    neighbours.  Elements 0..n1-1 are the left side, n1..n1+n2-1 the
    right; its downsets biject with the independent sets of the graph (the
    maximal elements of a downset form the independent set)."""
    above = [0] * graph.size
    below = [0] * graph.size
    for u, v in graph.edges:
        above[u - 1] |= 1 << (graph.n1 + v - 1)
        below[graph.n1 + v - 1] |= 1 << (u - 1)
    return Poset(graph.size, tuple(above), tuple(below))


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


def count_independent_sets(graph: BipartiteGraph) -> int:
    """Count independent sets of a bipartite graph via poset downsets."""
    if graph.size > 40:
        raise SizeLimitError("size bound exceeded: need n1 + n2 <= 40")
    return count_downsets(poset_from_bipartite(graph))


# -- textual format ----------------------------------------------------


def parse_bipartite(text: str) -> BipartiteGraph:
    """Parse a bipartite graph: header ``bis n1 n2`` then ``e u v`` lines."""
    lines = _content_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError("empty input") from None
    parts = header.split()
    if len(parts) != 3 or parts[0] != "bis":
        raise ParseError("expected header 'bis n1 n2'", lineno)
    try:
        n1, n2 = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError("sizes must be integers", lineno) from None
    edges = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise ParseError("expected 'e u v'", lineno)
        try:
            edges.append((int(parts[1]), int(parts[2])))
        except ValueError:
            raise ParseError("vertex ids must be integers", lineno) from None
    try:
        return BipartiteGraph(n1, n2, tuple(edges))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_bipartite(graph: BipartiteGraph) -> str:
    out = [f"bis {graph.n1} {graph.n2}"]
    out += [f"e {u} {v}" for u, v in graph.edges]
    return "\n".join(out) + "\n"
