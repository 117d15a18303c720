"""Deferred acceptance and stability checks."""

from __future__ import annotations

from collections import deque

from .core import Instance, Matching, Side


def propose_optimal(inst: Instance, side: Side = Side.MAN) -> Matching:
    """Run deferred acceptance with `side` proposing.

    Returns the matching that is optimal for the proposing side (and
    pessimal for the other).  The result is always indexed man -> woman.
    """
    if side is Side.MAN:
        prefs, rank = inst.men_prefs, inst._women_rank
    elif side is Side.WOMAN:
        prefs, rank = inst.women_prefs, inst._men_rank
    else:
        raise ValueError(f"side must be Side.MAN or Side.WOMAN, got {side!r}")
    n = inst.n
    next_choice = [0] * (n + 1)  # next position on each proposer's list to try
    held = [0] * (n + 1)  # held[r] = proposer receiver r holds, 0 if free
    free = deque(range(1, n + 1))
    while free:
        p = free.popleft()
        r = prefs[p - 1][next_choice[p]]
        next_choice[p] += 1
        current = held[r]
        if current == 0:
            held[r] = p
        elif rank[r - 1][p - 1] < rank[r - 1][current - 1]:
            held[r] = p
            free.append(current)
        else:
            free.append(p)
    if side is Side.WOMAN:
        return Matching(tuple(held[1:]))  # the receivers are the men
    wives = [0] * n
    for w in range(1, n + 1):
        wives[held[w] - 1] = w
    return Matching(tuple(wives))


def blocking_pairs(inst: Instance, matching: Matching) -> list[tuple[int, int]]:
    """All pairs (m, w) where both prefer each other to their partners."""
    husbands = matching.husbands()
    out = []
    for m in range(1, inst.n + 1):
        spouse_rank = inst.man_rank(m, matching.wives[m - 1])
        for w in inst.men_prefs[m - 1]:
            if inst.man_rank(m, w) >= spouse_rank:
                break
            if inst.woman_rank(w, m) < inst.woman_rank(w, husbands[w - 1]):
                out.append((m, w))
    return out


def is_stable(inst: Instance, matching: Matching) -> bool:
    return not blocking_pairs(inst, matching)
