"""Rotations of stable matchings and the rotation poset.

A rotation is a cyclic list of (man, woman) pairs exposed in some stable
matching: shifting every man to the next woman in the cycle gives another
stable matching in which the women are happier and the men worse off.
Repeatedly eliminating exposed rotations walks from the man-optimal
matching to the woman-optimal one, discovering every rotation exactly once
regardless of the order choices made along the way.  The rotations ordered
by "must be eliminated earlier" form a poset whose downsets correspond
one-to-one with the stable matchings.  `Poset` is the finite-poset type
that counting works on, and a `RotationPoset` is one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .core import (
    Instance, Matching, Side, _content_lines, _decimal, _indexed_lines, _indexed_rows
)
from .gale_shapley import propose_optimal


@dataclass(frozen=True)
class Rotation:
    """A cyclic sequence of matched pairs, stored with the smallest man first.

    ``steps`` views the same cycle as moves: ``(m, w, next_w)`` for each
    pair (m, w), where next_w is the woman of the next pair, whom m is
    matched to once the rotation is eliminated.
    """

    pairs: tuple[tuple[int, int], ...]
    steps: tuple[tuple[int, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.pairs) < 2:
            raise ValueError("a rotation involves at least two pairs")
        if min(min(pair) for pair in self.pairs) < 1:
            raise ValueError("rotation indices must be at least 1")
        men = [m for m, _ in self.pairs]
        if len(set(men)) != len(men):
            raise ValueError("rotation repeats a man")
        if len({w for _, w in self.pairs}) != len(men):
            raise ValueError("rotation repeats a woman")
        start = men.index(min(men))
        canon = self.pairs[start:] + self.pairs[:start]
        nexts = canon[1:] + canon[:1]
        object.__setattr__(self, "pairs", tuple(canon))
        object.__setattr__(
            self, "steps", tuple((m, w, nw) for (m, w), (_, nw) in zip(canon, nexts))
        )

    def __len__(self) -> int:
        return len(self.pairs)


def _suitor(
    inst: Instance, husbands: Sequence[int], best: Sequence[int], m: int, start: int
) -> int | None:
    """The 0-based position of m's suitor on his list, or None if he has
    none.  His suitor is the first woman below his wife who prefers m to
    her husband; the scan begins at position `start`, which lies below his
    wife.  ``husbands[w-1]`` describes the current matching and
    ``best[w-1]`` is w's partner in the woman-optimal matching.

    The scan skips women who rank m above their best stable partner: no
    rotation can ever form such a pair, and ignoring them guarantees that
    a man already holding his worst stable partner has no suitor (in
    particular nobody has one in the woman-optimal matching) and that a
    suitor's current husband has a suitor of his own.  Women only trade
    up while rotations are eliminated, so a woman the scan passes over is
    never m's suitor later; a walk resumes each man's scan where it
    stopped.
    """
    prefs = inst.men_prefs[m - 1]
    wrank = inst._women_rank
    for pos in range(start, inst.n):
        w = prefs[pos]
        row = wrank[w - 1]
        if row[husbands[w - 1] - 1] > row[m - 1] >= row[best[w - 1] - 1]:
            return pos
    return None


def _trace_rotation(
    inst: Instance, husbands: Sequence[int], best: Sequence[int],
    chain: dict[int, int], start: list[int],
) -> Rotation:
    """Extend the suitor path `chain` until it closes, cut the cycle off
    and return it as a rotation exposed in the current matching.

    ``chain`` maps each woman on the path to her husband, in path order:
    each man's suitor is the next woman.  From the last man, step to his
    suitor and her husband until the suitor is already on the path; the
    pairs from her onward form the rotation and leave the path, and what
    remains is still a suitor path once the rotation is eliminated.
    ``start[h-1]`` is where man h's suitor scan begins; each scan made here
    records where it stopped.
    """
    w, h = next(reversed(chain.items()))
    while True:
        pos = _suitor(inst, husbands, best, h, start[h - 1])
        if pos is None:
            raise ValueError(f"man {h} has no suitor; chain broke")
        start[h - 1] = pos
        w = inst.men_prefs[h - 1][pos]
        if w in chain:
            break
        h = husbands[w - 1]
        chain[w] = h
    cycle = []
    while True:
        v, x = chain.popitem()
        cycle.append((x, v))
        if v == w:
            return Rotation(tuple(reversed(cycle)))


def find_all_rotations(
    inst: Instance, man_order: tuple[int, ...] | None = None
) -> tuple[list[Rotation], Matching, Matching]:
    """Discover every rotation of the instance, in elimination order.

    Walks from the man-optimal to the woman-optimal matching, each step
    eliminating the rotation reachable from the first man (in `man_order`,
    default ascending) who currently has a suitor.  Returns the rotations
    and the two ends of the walk, the man-optimal and the woman-optimal
    matching.  The discovery order is a linear extension of the rotation
    poset.

    Each man's suitor scan resumes where it last stopped, and the suitor
    path left after a rotation is cut off is traced on from its end rather
    than from its first man again, which finds the same rotation; so the
    walk passes over each man's list once.
    """
    n = inst.n
    order = man_order if man_order is not None else tuple(range(1, n + 1))
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError("man_order must be a permutation of 1..n")
    mopt = propose_optimal(inst, Side.MAN)
    wopt = propose_optimal(inst, Side.WOMAN)
    wives = list(mopt.wives)
    husbands = list(mopt.husbands())
    best = wopt.husbands()
    men_rank = inst._men_rank
    # each man's suitor scan starts at the position just below his wife
    start = [rank[w - 1] for rank, w in zip(men_rank, wives)]
    rotations: list[Rotation] = []
    chain: dict[int, int] = {}
    first = 0  # every man before order[first] holds his worst stable partner
    while True:
        if not chain:
            # a man has a suitor exactly when he is not at his worst stable
            # partner, and once there he stays, so the search never backs up
            while first < n and best[wives[order[first] - 1] - 1] == order[first]:
                first += 1
            if first == n:
                break
            chain[wives[order[first] - 1]] = order[first]
        rot = _trace_rotation(inst, husbands, best, chain, start)
        for mi, _, nw in rot.steps:
            wives[mi - 1] = nw
            husbands[nw - 1] = mi
            start[mi - 1] = men_rank[mi - 1][nw - 1]
        rotations.append(rot)
    if tuple(wives) != wopt.wives:
        raise AssertionError("rotation elimination did not reach woman-optimal")
    return rotations, mopt, wopt


def _eliminated(inst: Instance, rotation: Rotation) -> Iterator[tuple[int, int]]:
    """Pairs (m, w) ruled out of all later stable matchings by this rotation.

    Each woman w in the rotation trades her partner for one she prefers,
    the man of the step before hers; every man she ranks between the two
    (new partner excluded, old partner included) loses any stable pair
    with her.
    """
    m_new = rotation.steps[-1][0]
    for m_old, w, _ in rotation.steps:
        row = inst._women_rank[w - 1]
        for m in inst.women_prefs[w - 1][row[m_new - 1] : row[m_old - 1]]:
            yield m, w
        m_new = m_old


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Poset:
    """A finite poset on elements 0..size-1, given by its strict down-sets.

    ``below[x]`` is the bitmask of the elements strictly smaller than x;
    a mask holding x, an element past size-1, or some y but not all of
    ``below[y]`` is a `ValueError`.  ``size`` and ``above[x]``, the mask of
    the elements strictly greater than x, are derived.
    """

    below: tuple[int, ...]
    size: int = field(init=False, repr=False, compare=False)
    above: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        below = self.below
        above = [0] * len(below)
        for x, mask in enumerate(below):
            if mask >> len(below):
                raise ValueError(f"below[{x}] holds an element outside 0..{len(below) - 1}")
            if mask >> x & 1:
                raise ValueError(f"below[{x}] holds {x} itself")
            for y in _bits(mask):
                if below[y] & ~mask:
                    raise ValueError(f"below[{x}] holds {y} but not all of below[{y}]")
                above[y] |= 1 << x
        object.__setattr__(self, "size", len(below))
        object.__setattr__(self, "above", tuple(above))

    def __len__(self) -> int:
        return self.size

    def relation_pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for j, mask in enumerate(self.below) for i in _bits(mask)]


@dataclass(frozen=True)
class RotationPoset(Poset):
    """The rotation poset: element i is ``rotations[i]``, listed in a
    linear extension.

    ``below[i]`` holds the rotations that must be eliminated before
    rotation i.  ``man_optimal`` and ``woman_optimal`` are the matchings
    in which no rotation and every rotation has been eliminated.
    """

    rotations: tuple[Rotation, ...]
    man_optimal: Matching
    woman_optimal: Matching


def rotation_poset(
    inst: Instance, man_order: tuple[int, ...] | None = None
) -> RotationPoset:
    """The rotations in discovery order and their partial order.

    Rotation i explicitly precedes j when i eliminates a pair (m, w) and
    j moves m to a woman he likes less than w.  Every eliminated pair is
    labelled once with the rotation that eliminates it, by man and by
    rank; a rotation then reads the labels of its own men above their
    next woman.  Only pairs up to a man's worst stable partner can be
    read, so only those are labelled.  Discovery order is a linear
    extension, so labels written before j is read are exactly those of
    the rotations i < j, and one pass in that order closes the relation
    transitively.
    """
    rots, mopt, wopt = find_all_rotations(inst, man_order)
    men_rank = inst._men_rank
    # label[m-1][r-1]: bit of the rotation eliminating (m, his r-th choice)
    label = [[0] * rank[w - 1] for rank, w in zip(men_rank, wopt.wives)]
    below: list[int] = []
    for j, rot in enumerate(rots):
        direct = 0
        for m, _, nxt in rot.steps:
            for bit in label[m - 1][: men_rank[m - 1][nxt - 1] - 1]:
                direct |= bit
        for i in _bits(direct):
            direct |= below[i]
        below.append(direct)
        bit = 1 << j
        for m, w in _eliminated(inst, rot):
            r = men_rank[m - 1][w - 1]
            labels = label[m - 1]
            if r <= len(labels):
                labels[r - 1] = bit
    return RotationPoset(tuple(below), tuple(rots), mopt, wopt)


def hasse_diagram(poset: Poset) -> list[tuple[int, int]]:
    """Covering pairs (i, j) of the order: i precedes j with no element
    strictly between, in order of j and then of i."""
    below = poset.below
    edges = []
    for j, mask in enumerate(below):
        shadow = 0  # everything below some element below j
        for i in _bits(mask):
            shadow |= below[i]
        edges.extend((i, j) for i in _bits(mask & ~shadow))
    return edges


def hasse_dot(poset: RotationPoset) -> str:
    """The Hasse diagram in DOT format, nodes labelled by their pairs."""
    lines = ["digraph rotations {"]
    for i, rot in enumerate(poset.rotations):
        label = " ".join(f"({m},{w})" for m, w in rot.pairs)
        lines.append(f'  r{i} [label="{label}"];')
    for i, j in hasse_diagram(poset):
        lines.append(f"  r{i} -> r{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- textual format ----------------------------------------------------


def parse_rotation(text: str) -> list[Rotation]:
    """Parse ``rot k: (m1,w1) (m2,w2) ...`` lines, one for each k in
    1..R, R the number of lines, and return the rotations in order of k."""
    lines = list(_content_lines(text))

    def row(tokens: list[str]) -> Rotation:
        pairs = []
        for tok in tokens:
            parts = tok[1:-1].split(",")
            if not (tok.startswith("(") and tok.endswith(")")) or len(parts) != 2:
                raise ValueError(f"bad pair token {tok!r}")
            pairs.append(tuple(_decimal(x, f"bad pair token {tok!r}") for x in parts))
        return Rotation(tuple(pairs))

    (rots,) = _indexed_rows(lines, ("rot",), len(lines), row)
    return list(rots)


def format_rotations(rots: list[Rotation]) -> str:
    rows = ([f"({m},{w})" for m, w in rot.pairs] for rot in rots)
    return _indexed_lines([("rot", rows)])
