"""Geometric preference models and exact instance construction.

Three models induce preference lists from coordinates.  They share one
spec type: every person has a position and a preference vector of k
rational coordinates, and each spec type carries its header name
``model``.  The two vector models share one loop that ranks both sides.

* ``dot`` (AttributeSpec): they rank the opposite side by descending
  inner product of their preference vector with the candidates' positions.
* ``euclid`` (EuclideanSpec): the preference vector is an ideal point;
  they rank the opposite side by ascending distance from it.
* ``1d`` (OneAttributeSpec): the dot model with k = 1 and nonzero
  preferences, ranked by one sort of each side's positions and its
  reverse.

Coordinates are Fractions; a coordinate token is a sum of products of
rationals and integer powers.  Both vector models scale every coordinate
once by the lcm of all coordinate denominators, which keeps every order
and every exact tie, and compare integers: dot products or squared
distances.  Two equal scores or distances raise TieDetected.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import Instance, ParseError, _header, _indexed_lines, _indexed_rows
from .rotations import find_all_rotations


class TieDetected(ValueError):
    """Two candidates are exactly tied for one person; the model does not
    induce strict preferences.  ``person`` (such as ``"man 3"``) and the
    two ``candidates`` open the message."""

    def __init__(self, message: str, person: str, candidates: tuple[int, int]) -> None:
        a, b = candidates = tuple(sorted(candidates))
        super().__init__(f"{person}: candidates {a} and {b} {message}")
        self.person, self.candidates = person, candidates


# -- coordinate token grammar ------------------------------------------

_RAT = r"-?\d+(?:/\d+)?"
_TOKEN_RE = re.compile(
    rf"^(?:(?P<rat>-?\d+\.\d+|{_RAT})|pow\((?P<base>{_RAT}),(?P<exp>-?\d+)\))$",
    re.ASCII,  # \d is 0-9 only, as for every number in the formats
)


def parse_value(token: str) -> Fraction:
    """Parse one coordinate token: a ``+``-separated sum of ``*``-separated
    products of rationals (``3``, ``-7/5``, ``0.3``) and ``pow(x,e)``."""
    total = Fraction(0)
    for summand in token.split("+"):
        out = Fraction(1)
        for part in summand.split("*"):
            m = _TOKEN_RE.match(part)
            if not m:
                raise ValueError(f"bad coordinate token {part or token!r}")
            try:
                if m["rat"] is not None:
                    out *= Fraction(m["rat"])
                else:
                    out *= Fraction(m["base"]) ** int(m["exp"])
            except ZeroDivisionError:
                raise ValueError(f"division by zero in coordinate token {part!r}") from None
        total += out
    return total


def compare_values(a: Fraction, b: Fraction) -> int:
    """Exact three-way comparison of two rationals: -1, 0 or +1."""
    return (a > b) - (a < b)


# -- model specifications ----------------------------------------------


@dataclass(frozen=True)
class _VectorSpec:
    """n positions and n preference vectors per side, each of k coordinates
    made Fractions; ``model`` names the spec type in headers."""

    k: int
    n: int
    men_pos: tuple[tuple[Fraction, ...], ...]
    men_pref: tuple[tuple[Fraction, ...], ...]
    women_pos: tuple[tuple[Fraction, ...], ...]
    women_pref: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.n < 1:
            raise ValueError("n must be positive")
        for name in ("men_pos", "men_pref", "women_pos", "women_pref"):
            try:
                vecs = tuple(tuple(map(Fraction, v)) for v in getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
            if len(vecs) != self.n or any(len(v) != self.k for v in vecs):
                raise ValueError(f"{name}: expected {self.n} vectors of {self.k} coordinates")
            object.__setattr__(self, name, vecs)


class AttributeSpec(_VectorSpec):
    """Dot-product model: positions and preference vectors in Q^k."""

    model = "dot"


class EuclideanSpec(_VectorSpec):
    """Euclidean model: positions and ideal points in Q^k."""

    model = "euclid"


class OneAttributeSpec(_VectorSpec):
    """One-attribute model: the dot model with k = 1, every preference
    nonzero."""

    model = "1d"

    def __post_init__(self) -> None:
        if self.k != 1:
            raise ValueError("the 1d model has k = 1")
        super().__post_init__()
        if any(p == 0 for (p,) in self.men_pref + self.women_pref):
            raise ValueError("preference scalar must be nonzero")


# -- inducing instances ------------------------------------------------


def _induced(spec: _VectorSpec, rank) -> Instance:
    # Every coordinate is scaled once by the lcm of all their denominators,
    # a positive scale that keeps every order and exact tie.  Man i's list
    # is rank(his preference, the women's positions, "man i") over those
    # ints, and woman j's list is made the same way.
    blocks = (spec.men_pos, spec.men_pref, spec.women_pos, spec.women_pref)
    d = lcm(*(x.denominator for block in blocks for vec in block for x in vec))
    men_pos, men_pref, women_pos, women_pref = (
        [[x.numerator * (d // x.denominator) for x in vec] for vec in block] for block in blocks
    )
    return Instance(
        spec.n,
        tuple(rank(p, women_pos, f"man {i}") for i, p in enumerate(men_pref, 1)),
        tuple(rank(p, men_pos, f"woman {j}") for j, p in enumerate(women_pref, 1)),
    )


def _ascending(keys: list, person: str, what: str) -> tuple[int, ...]:
    # candidates 1..len(keys) by ascending key; equal keys are a tie
    order = tuple(sorted(range(1, len(keys) + 1), key=lambda i: keys[i - 1]))
    for a, b in zip(order, order[1:]):
        if keys[a - 1] == keys[b - 1]:
            raise TieDetected(what, person, (a, b))
    return order


def instance_from_dot(spec: AttributeSpec) -> Instance:
    """Build the instance induced by a dot-product model, ranking by exact
    integer dot products of the scaled coordinates.  Raises TieDetected on
    two candidates that score exactly alike."""

    def ranking(pref: list[int], positions: list[list[int]], person: str) -> tuple[int, ...]:
        scores = [-sum(map(operator.mul, pref, pos)) for pos in positions]
        return _ascending(scores, person, "score exactly alike")

    return _induced(spec, ranking)


def instance_from_euclidean(spec: EuclideanSpec) -> Instance:
    """Build the instance induced by a Euclidean model, ranking by exact
    integer squared distances of the scaled coordinates.  Raises
    TieDetected on equidistant candidates."""

    def ranking(ideal: list[int], positions: list[list[int]], person: str) -> tuple[int, ...]:
        dists = [sum((a - b) ** 2 for a, b in zip(ideal, pos)) for pos in positions]
        return _ascending(dists, person, "are exactly equidistant")

    return _induced(spec, ranking)


def instance_from_1attribute(spec: OneAttributeSpec) -> Instance:
    """Build the instance induced by a one-attribute model.

    A person with positive preference scalar ranks the other side by
    descending attribute, with negative scalar by ascending attribute, so
    each side uses at most two lists and those two are reverses.  Two
    equal attributes tie for everyone on the other side; the error names
    its first person.
    """
    what = "have the same attribute"
    w_asc = _ascending([a for (a,) in spec.women_pos], "man 1", what)
    m_asc = _ascending([a for (a,) in spec.men_pos], "woman 1", what)
    w_desc, m_desc = w_asc[::-1], m_asc[::-1]
    men_lists = tuple(w_desc if p > 0 else w_asc for (p,) in spec.men_pref)
    women_lists = tuple(m_desc if p > 0 else m_asc for (p,) in spec.women_pref)
    return Instance(spec.n, men_lists, women_lists)


def count_1attribute(spec: OneAttributeSpec) -> int:
    """Count the stable matchings of a one-attribute model.

    The rotation poset of such an instance is a chain, every rotation
    swaps exactly two pairs, and no person appears in two rotations, so
    the count is simply the number of rotations plus one.
    """
    inst = instance_from_1attribute(spec)
    return len(find_all_rotations(inst)[0]) + 1


# -- textual format ----------------------------------------------------

_SPECS = {spec.model: spec for spec in (AttributeSpec, EuclideanSpec, OneAttributeSpec)}


def parse_geometric(text: str):
    """Parse a geometric model file.

    Header ``model dot|euclid|1d k n`` followed by ``mpos i: c1 .. ck``,
    ``mpref i: ...``, ``wpos j: ...``, ``wpref j: ...`` lines (``#``
    comments allowed).  Returns an AttributeSpec, EuclideanSpec, or
    OneAttributeSpec depending on the model.
    """
    lineno, (model, k, n), lines = _header(text, f"model {'|'.join(_SPECS)} k n")
    spec_type = _SPECS[model]
    if spec_type is OneAttributeSpec and k != 1:
        raise ParseError("the 1d model has k = 1", lineno)

    def row(tokens: list[str]) -> tuple[Fraction, ...]:
        vec = tuple(map(parse_value, tokens))
        if len(vec) != k:
            raise ValueError(f"expected {k} coordinates")
        return vec

    blocks = _indexed_rows(lines, ("mpos", "mpref", "wpos", "wpref"), n, row)
    try:
        return spec_type(k, n, *blocks)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_geometric(spec) -> str:
    """Write a spec in the format that parse_geometric reads."""
    if not isinstance(spec, _VectorSpec):
        raise TypeError(f"not a geometric spec: {spec!r}")
    blocks = (spec.men_pos, spec.men_pref, spec.women_pos, spec.women_pref)
    return f"model {spec.model} {spec.k} {spec.n}\n" + _indexed_lines(
        zip(("mpos", "mpref", "wpos", "wpref"), blocks)
    )


def induced_instance(spec) -> Instance:
    """Build the instance for any geometric spec."""
    if isinstance(spec, AttributeSpec):
        return instance_from_dot(spec)
    if isinstance(spec, EuclideanSpec):
        return instance_from_euclidean(spec)
    if isinstance(spec, OneAttributeSpec):
        return instance_from_1attribute(spec)
    raise TypeError(f"not a geometric spec: {spec!r}")
