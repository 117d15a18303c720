"""Geometric preference models and certified instance construction.

Three models induce preference lists from coordinates.  They share one
spec type: every person has a position and a preference vector of k
coordinates, and each spec type carries its header name ``model``.  The
two vector models share one loop that ranks both sides.

* ``dot`` (AttributeSpec): they rank the opposite side by descending
  inner product of their preference vector with the candidates' positions.
* ``euclid`` (EuclideanSpec): the preference vector is an ideal point;
  they rank the opposite side by ascending distance from it.
* ``1d`` (OneAttributeSpec): the dot model with k = 1, rational
  coordinates and nonzero preferences, ranked by one sort of each side's
  positions and its reverse.

Coordinates are exact: rationals, powers, and the values cos(2*pi*q) /
sin(2*pi*q) for rational q, closed under products and sums, kept as sums
of single cosines (see Value).  Comparisons are certified, and both
models compare integers after clearing denominators once.  Euclidean
squared distances are taken with every coordinate scaled by the lcm of
all coordinate denominators.  Dot-product scores are compared through
integer enclosures of value * 2**bits.  Each coordinate is enclosed once
to 128 bits after the binary point, and each score's enclosure is the
integer dot product of the coordinates' midpoints with a radius that
covers their errors (see instance_from_dot).  Only inside the runs of
overlapping score enclosures is a score built as an exact Value and
sorted by compare_values, which decides zero exactly in a cyclotomic
field and encloses a nonzero difference at doubling bits until it
separates.  Two equal scores raise TieDetected.
"""

from __future__ import annotations

import functools
import operator
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .core import Instance, ParseError, _header, _indexed_lines, _indexed_rows
from .rotations import find_all_rotations


DEFAULT_BITS = 128


class TieDetected(ValueError):
    """Two candidates are exactly tied for one person; the model does not
    induce strict preferences.  ``person`` (such as ``"man 3"``) and the
    two ``candidates`` open the message."""

    def __init__(self, message: str, person: str, candidates: tuple[int, int]) -> None:
        a, b = candidates = tuple(sorted(candidates))
        super().__init__(f"{person}: candidates {a} and {b} {message}")
        self.person, self.candidates = person, candidates


# -- exact values ------------------------------------------------------

Term = tuple[Fraction, int, int]


def _fold(a: int, b: int) -> tuple[int, int, int]:
    """(w, a', b') with cos(2*pi*a/b) = w/2 * cos(2*pi*a'/b'), a'/b' in
    lowest terms in [0, 1/4) and w in {-2, -1, 0, 1, 2}."""
    a %= b
    if 2 * a > b:
        a = b - a  # cos is even
    w = 2
    if 4 * a > b:
        a, b, w = b - 2 * a, 2 * b, -2  # cos(q) = -cos(1/2 - q)
    elif 4 * a == b:
        return 0, 0, 1  # cos(1/4) = 0
    g = gcd(a, b)
    if b == 6 * g:
        return w // 2, 0, 1  # cos(1/6) = 1/2
    return w, a // g, b // g


def _terms(acc: dict) -> tuple[Term, ...]:
    return tuple((c, a, b) for (a, b), c in sorted(acc.items()) if c)


@dataclass(frozen=True)
class Value:
    """An exact number in single-cosine normal form: nonzero terms (c, a, b)
    meaning c * cos(2*pi*a/b), sorted by (a, b), a/b in lowest terms in
    [0, 1/4), a = 0 for the rational part.  sin(q) is cos(1/4 - q) and
    products become sums, so an exact mirror tie shows up as equal terms."""

    terms: tuple[Term, ...]

    @classmethod
    def rational(cls, x: Fraction | int) -> "Value":
        x = Fraction(x)
        return cls(((x, 0, 1),) if x else ())

    @classmethod
    def trig(cls, kind: str, turns: Fraction) -> "Value":
        if kind not in ("cos", "sin"):
            raise ValueError(f"unknown trig kind {kind!r}")
        turns = Fraction(turns)
        a, b = turns.numerator, turns.denominator
        if kind == "sin":
            a, b = b - 4 * a, 4 * b  # sin(q) = cos(1/4 - q)
        w, a, b = _fold(a, b)
        return cls(((Fraction(w, 2), a, b),) if w else ())

    def __add__(self, other: "Value") -> "Value":
        acc = {(a, b): c for c, a, b in self.terms}
        for c, a, b in other.terms:
            acc[a, b] = acc.get((a, b), 0) + c
        return Value(_terms(acc))

    def __sub__(self, other: "Value") -> "Value":
        return self + (-other)

    def __neg__(self) -> "Value":
        return Value(tuple((-c, a, b) for c, a, b in self.terms))

    def __mul__(self, other: "Value") -> "Value":
        # 2 cos x cos y = cos(x - y) + cos(x + y); with each operand's terms
        # over its lcm denominator du or dv, each sum term is n / (4 du dv)
        du, dv = (lcm(*(c.denominator for c, _, _ in x.terms)) for x in (self, other))
        acc = {}
        for c1, a1, b1 in self.terms:
            n1 = c1.numerator * (du // c1.denominator)
            for c2, a2, b2 in other.terms:
                n = n1 * c2.numerator * (dv // c2.denominator)
                p, q, b = a1 * b2, a2 * b1, b1 * b2
                for w, a, b in (_fold(p - q, b), _fold(p + q, b)):
                    if w:
                        acc[a, b] = acc.get((a, b), 0) + w * n
        d = 4 * du * dv
        return Value(tuple((Fraction(c, d), a, b) for (a, b), c in sorted(acc.items()) if c))

    def is_rational(self) -> bool:
        return all(not a for _, a, _ in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_rational():
            return self.terms[0][0]
        raise ValueError("value is not rational")


Value.ZERO = Value(())
Value.ONE = Value.rational(1)


# -- integer enclosures ------------------------------------------------


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


def _value_interval(terms: tuple[Term, ...], bits: int) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= value * 2**bits <= hi and hi - lo <= 2.

    Cosines are enclosed g guard bits deeper, 2**(g-1) > 4 sum(floor|c| + 1),
    g a multiple of 32 so that similar values share them.  Scaled by c and
    rounded outward, each term is off by at most 2|c| + 2 units there.  The
    rational part (a = 0) is c * 2**w itself, rounded outward, so a rational
    multiple of 2**-bits is enclosed exactly, lo = hi.
    """
    weight = sum(abs(c.numerator) // c.denominator + 1 for c, _, _ in terms)
    g = 32 * (1 + (4 * weight).bit_length() // 32)
    w = bits + g
    lo = hi = 0
    for c, a, b in terms:
        p, q = c.numerator, c.denominator
        x_lo, x_hi = _cos_interval(a, b, w) if a else (1 << w, 1 << w)
        if p < 0:
            x_lo, x_hi = x_hi, x_lo
        lo += p * x_lo // q
        hi -= -p * x_hi // q
    return lo >> g, -(-hi >> g)


def _vanishes(coefs: dict[int, Fraction], n: int) -> bool:
    """Whether the sum of c * zeta**e over coefs {e: c} is zero, zeta =
    exp(2*pi*i/n).  Let p be n's least prime, q its full power in n and
    m = n/q; with u*m + v*q = 1 (mod n), zeta**e is zeta_q**(e*u) *
    zeta_m**(e*v), so exponent e goes to row e*u mod q, column e*v mod m.
    Over Q(zeta_m) the only relations among the powers of zeta_q are
    sum_t zeta_q**(r + t*q/p) = 0, so the sum is zero exactly when, for
    each r mod q/p, the p rows r + t*q/p are equal in Q(zeta_m), tested
    recursively on m; a missing row is zero.  If all of n's primes exceed
    len(coefs), no class holds p rows and every coefficient must vanish,
    so trial division stops there and takes n whole (p = q = n, m = 1)."""
    if n == 1:
        return not sum(coefs.values())
    p = q = next((d for d in range(2, min(isqrt(n), len(coefs)) + 1) if n % d == 0), n)
    while n % (q * p) == 0:
        q *= p
    m = n // q
    u, v = pow(m, -1, q), pow(q, -1, m)
    classes: dict[int, dict[int, Counter]] = {}
    for e, c in coefs.items():
        r = e * u % q
        classes.setdefault(r % (q // p), {}).setdefault(r, Counter())[e * v % m] += c
    for rows in classes.values():
        base = next(iter(rows.values())) if len(rows) == p else Counter()
        for row in rows.values():
            if not _vanishes({k: row[k] - base[k] for k in row.keys() | base.keys()}, m):
                return False
    return True


def compare_values(a: Value, b: Value) -> int:
    """Certified three-way comparison: -1, 0 (exact tie), or +1.  Only when
    the 128-bit enclosure of the difference holds zero is the difference
    tested for zero, as 2 c cos(2*pi*s/t) = c (zeta**k + zeta**-k) with
    zeta = exp(2*pi*i/N), N the lcm of the t and k = s*N/t (see _vanishes).
    A nonzero difference is enclosed at doubling bits until it separates."""
    diff = a - b
    bits = DEFAULT_BITS
    while True:
        lo, hi = _value_interval(diff.terms, bits)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        if bits == DEFAULT_BITS:
            n = lcm(*(t for _, _, t in diff.terms))
            coefs = Counter()
            for c, s, t in diff.terms:
                for e in (s * n // t, -s * n // t % n):
                    coefs[e] += c
            if _vanishes(coefs, n):
                return 0
        bits *= 2


# -- coordinate token grammar ------------------------------------------

_RAT = r"-?\d+(?:/\d+)?"
_TOKEN_RE = re.compile(
    rf"^(?:(?P<rat>-?\d+\.\d+|{_RAT})"
    rf"|(?P<trig>cos|sin)\((?P<arg>{_RAT})\)"
    rf"|pow\((?P<base>{_RAT}),(?P<exp>-?\d+)\))$",
    re.ASCII,  # \d is 0-9 only, as for every number in the formats
)


def parse_value(token: str) -> Value:
    """Parse one coordinate token: a ``+``-separated sum of ``*``-separated
    products of rationals (``3``, ``-7/5``, ``0.3``), ``cos(a/b)`` /
    ``sin(a/b)`` meaning cos/sin of 2*pi*a/b, and ``pow(x,e)``."""
    total = Value.ZERO
    for summand in token.split("+"):
        out = Value.ONE
        for part in summand.split("*"):
            m = _TOKEN_RE.match(part)
            if not m:
                raise ValueError(f"bad coordinate token {part or token!r}")
            try:
                if m["rat"] is not None:
                    val = Value.rational(Fraction(m["rat"]))
                elif m["trig"] is not None:
                    val = Value.trig(m["trig"], Fraction(m["arg"]))
                else:
                    val = Value.rational(Fraction(m["base"]) ** int(m["exp"]))
            except ZeroDivisionError:
                raise ValueError(f"division by zero in coordinate token {part!r}") from None
            out = out * val
        total = total + out
    return total


def format_value(value: Value) -> str:
    """Write a value as a ``+``-separated sum of ``c*cos(a/b)`` terms (c
    left out when it is 1, the rational part as plain ``c``)."""
    parts = []
    for c, a, b in value.terms:
        if not a:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"cos({a}/{b})")
        else:
            parts.append(f"{c}*cos({a}/{b})")
    return "+".join(parts) or "0"


Value.__str__ = format_value


# -- model specifications ----------------------------------------------


@dataclass(frozen=True)
class _VectorSpec:
    """n positions and n preference vectors per side, each of k coordinates
    made by the subclass's ``_coordinate``; ``model`` names it in headers."""

    k: int
    n: int
    men_pos: tuple[tuple, ...]
    men_pref: tuple[tuple, ...]
    women_pos: tuple[tuple, ...]
    women_pref: tuple[tuple, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.n < 1:
            raise ValueError("n must be positive")
        for name in ("men_pos", "men_pref", "women_pos", "women_pref"):
            try:
                vecs = tuple(tuple(map(self._coordinate, v)) for v in getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
            if len(vecs) != self.n or any(len(v) != self.k for v in vecs):
                raise ValueError(f"{name}: expected {self.n} vectors of {self.k} coordinates")
            object.__setattr__(self, name, vecs)


class AttributeSpec(_VectorSpec):
    """Dot-product model: positions and preference vectors in R^k."""

    model = "dot"

    @staticmethod
    def _coordinate(x) -> Value:
        return x if isinstance(x, Value) else Value.rational(x)


def _rational(spec: _VectorSpec, x) -> Fraction:
    # a rational model's coordinate: a rational Value becomes its Fraction
    if isinstance(x, Value) and not x.is_rational():
        raise ValueError(f"the {spec.model} model needs rational coordinates")
    return x.as_fraction() if isinstance(x, Value) else Fraction(x)


class EuclideanSpec(_VectorSpec):
    """Euclidean model: positions and ideal points in R^k, all rational."""

    model = "euclid"
    _coordinate = _rational


class OneAttributeSpec(_VectorSpec):
    """One-attribute model: the dot model with k = 1, all rational, every
    preference nonzero."""

    model = "1d"
    _coordinate = _rational

    def __post_init__(self) -> None:
        if self.k != 1:
            raise ValueError("the 1d model has k = 1")
        super().__post_init__()
        if any(p == 0 for (p,) in self.men_pref + self.women_pref):
            raise ValueError("preference scalar must be nonzero")


# -- inducing instances ------------------------------------------------


def _induced(n: int, men_pos, men_pref, women_pos, women_pref, rank) -> Instance:
    # man i's list is rank(his preference, the women's positions, "man i"),
    # and woman j's list is made the same way
    return Instance(
        n,
        tuple(rank(p, women_pos, f"man {i}") for i, p in enumerate(men_pref, 1)),
        tuple(rank(p, men_pos, f"woman {j}") for j, p in enumerate(women_pref, 1)),
    )


def _enclosed(vec: tuple[Value, ...]) -> tuple:
    # (vec, mid, mag, reach): each coordinate x enclosed as lo <= x * 2**b
    # <= hi at b = DEFAULT_BITS, kept as the midpoint m = lo + hi, |m| and
    # |m| + r for the radius r = hi - lo, so |x * 2**(b+1) - m| <= r
    mid, mag, reach = [], [], []
    for x in vec:
        lo, hi = _value_interval(x.terms, DEFAULT_BITS)
        mid.append(lo + hi)
        mag.append(abs(lo + hi))
        reach.append(mag[-1] + hi - lo)
    return vec, mid, mag, reach


def _sorted_by_score(pref, positions: list, person: str) -> tuple[int, ...]:
    # candidates 1..len(positions) by descending dot product with pref,
    # all of them made by _enclosed; see instance_from_dot for the radius
    vec, p_mid, p_mag, p_reach = pref
    boxes = []
    for _, x_mid, x_mag, x_reach in positions:
        centre = sum(map(operator.mul, p_mid, x_mid))
        radius = sum(map(operator.mul, p_reach, x_reach)) - sum(map(operator.mul, p_mag, x_mag))
        boxes.append((centre - radius, centre + radius))
    # Going down by upper endpoint, a candidate whose upper endpoint lies
    # below every lower endpoint seen so far is certified below all earlier
    # candidates and starts a new run; only the runs of overlapping
    # enclosures need exact comparisons.
    runs: list[list[int]] = []
    floor = None
    for c in sorted(range(1, len(boxes) + 1), key=lambda c: boxes[c - 1][1], reverse=True):
        lo, hi = boxes[c - 1]
        if floor is None or hi < floor:
            runs.append([])
        runs[-1].append(c)
        floor = lo if floor is None else min(floor, lo)

    @functools.cache
    def score(c: int) -> Value:
        return sum(map(operator.mul, vec, positions[c - 1][0]), Value.ZERO)

    def cmp(a: int, b: int) -> int:
        c = compare_values(score(a), score(b))
        if c == 0:
            raise TieDetected("score exactly alike", person, (a, b))
        return -c

    for run in runs:
        if len(run) > 1:
            run.sort(key=functools.cmp_to_key(cmp))
    return tuple(c for run in runs for c in run)


def instance_from_dot(spec: AttributeSpec) -> Instance:
    """Build the instance induced by a dot-product model.

    Each coordinate x is enclosed once, lo <= x * 2**b <= hi at b =
    DEFAULT_BITS, and kept as the midpoint m = lo + hi and the radius
    r = hi - lo, so x * 2**(b+1) = m + e with |e| <= r.  For a preference
    coordinate p and a position coordinate x,

        p * x * 2**(2b+2) - m_p * m_x = m_p * e_x + m_x * e_p + e_p * e_x,

    at most |m_p| r_x + |m_x| r_p + r_p r_x in absolute value, which is
    (|m_p| + r_p)(|m_x| + r_x) - |m_p| |m_x|.  Summed over the k
    coordinates, the interval of the integer dot product of the
    midpoints, plus or minus the sum of these radii, contains
    score * 2**(2b+2).  The scale is positive and the same for every
    candidate, so two disjoint intervals order their scores.  When two
    scores are equal, both intervals hold that value, so the sweep meets
    the second with its upper endpoint at or above the first one's lower
    endpoint, and neither it nor anything between them starts a new run.
    Only inside a run of more than one candidate are scores built as exact
    Values and sorted with compare_values.

    Raises TieDetected if any person's scores cannot be strictly ordered.
    """
    blocks = (spec.men_pos, spec.men_pref, spec.women_pos, spec.women_pref)
    enclosed = ([_enclosed(vec) for vec in block] for block in blocks)
    return _induced(spec.n, *enclosed, _sorted_by_score)


def _ascending(keys: list, person: str, what: str) -> tuple[int, ...]:
    # candidates 1..len(keys) by ascending key; equal keys are a tie
    order = tuple(sorted(range(1, len(keys) + 1), key=lambda i: keys[i - 1]))
    for a, b in zip(order, order[1:]):
        if keys[a - 1] == keys[b - 1]:
            raise TieDetected(what, person, (a, b))
    return order


def instance_from_euclidean(spec: EuclideanSpec) -> Instance:
    """Build the instance induced by a Euclidean model, comparing exact
    squared distances.  Every coordinate is scaled once by the lcm of all
    their denominators, which keeps every order and exact tie, so the
    distances compared are integers.  Raises TieDetected on equidistant
    candidates."""

    def ranking(ideal: list[int], positions: list[list[int]], person: str) -> tuple[int, ...]:
        dists = [sum((a - b) ** 2 for a, b in zip(ideal, pos)) for pos in positions]
        return _ascending(dists, person, "are exactly equidistant")

    blocks = (spec.men_pos, spec.men_pref, spec.women_pos, spec.women_pref)
    d = lcm(*(x.denominator for block in blocks for vec in block for x in vec))
    scaled = (
        [[x.numerator * (d // x.denominator) for x in vec] for vec in block] for block in blocks
    )
    return _induced(spec.n, *scaled, ranking)


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

    def row(tokens: list[str]) -> tuple[Value, ...]:
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
