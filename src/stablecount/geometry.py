"""Geometric preference models and certified instance construction.

Three models induce preference lists from coordinates:

* ``dot``: every person has a position vector and a preference vector in
  R^k; they rank the opposite side by descending inner product of their
  preference vector with the candidates' positions.
* ``euclid``: every person has a position and an ideal point; they rank
  the opposite side by ascending distance from their ideal point.
* ``1d``: the one-dimensional dot model (a single attribute per person
  and a signed preference scalar).

Coordinates are exact: rationals, powers, and the values cos(2*pi*q) /
sin(2*pi*q) for rational q, closed under products and sums.  Comparisons
are certified — Euclidean distances are compared through exact rational
arithmetic, and dot products through interval arithmetic.  Each dot-product
score is built once and enclosed once in a 128-bit interval; scores whose
enclosures do not overlap are ordered by them, and only the runs of
overlapping enclosures are sorted by exact pairwise comparison, which
doubles the precision up to the fixed cap MAX_BITS (4096 bits).  If two
scores cannot be separated the construction refuses to guess and raises
TieDetected.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from mpmath import iv

from .core import Instance, ParseError, _content_lines
from .rotations import find_all_rotations


DEFAULT_BITS = 128
MAX_BITS = 4096


class TieDetected(ValueError):
    """Two candidates score exactly alike (or could not be separated at
    the precision cap); the model does not induce strict preferences."""


# -- exact values ------------------------------------------------------

# A value is a sum of terms; each term is a rational coefficient times a
# product of cos/sin factors.  Factor ("cos", q) stands for cos(2*pi*q).
Factor = tuple[str, Fraction]
Term = tuple[Fraction, tuple[Factor, ...]]


def _expand(coeff: Fraction, factors: tuple[Factor, ...]) -> Iterator[Term]:
    # rewrite sin(q)^2 as 1 - cos(q)^2 so products of trig factors have a
    # canonical form and norms like cos^2 + sin^2 cancel symbolically
    for i in range(len(factors) - 1):
        if factors[i][0] == "sin" and factors[i] == factors[i + 1]:
            rest = factors[:i] + factors[i + 2:]
            yield from _expand(coeff, rest)
            cos2 = (("cos", factors[i][1]),) * 2
            yield from _expand(-coeff, tuple(sorted(rest + cos2)))
            return
    yield coeff, factors


def _merge(terms: Iterator[Term]) -> tuple[Term, ...]:
    acc: dict[tuple[Factor, ...], Fraction] = {}
    for coeff, factors in terms:
        for c, f in _expand(coeff, factors):
            acc[f] = acc.get(f, Fraction(0)) + c
    return tuple(
        sorted((c, f) for f, c in acc.items() if c != 0)
    )


@dataclass(frozen=True)
class Value:
    """An exact number: a rational combination of cos/sin at rational
    multiples of a full turn."""

    terms: tuple[Term, ...]

    @classmethod
    def rational(cls, x: Fraction | int) -> "Value":
        x = Fraction(x)
        return cls(((x, ()),) if x else ())

    @classmethod
    def trig(cls, kind: str, turns: Fraction) -> "Value":
        if kind not in ("cos", "sin"):
            raise ValueError(f"unknown trig kind {kind!r}")
        turns = Fraction(turns) % 1
        sign = Fraction(1)
        if turns > Fraction(1, 2):
            # reflect into [0, 1/2]: cos is even, sin is odd about a turn
            turns = 1 - turns
            if kind == "sin":
                sign = -sign
        folds = {
            ("cos", Fraction(0)): 1,
            ("cos", Fraction(1, 4)): 0,
            ("cos", Fraction(1, 2)): -1,
            ("sin", Fraction(0)): 0,
            ("sin", Fraction(1, 4)): 1,
            ("sin", Fraction(1, 2)): 0,
        }
        if (kind, turns) in folds:
            return cls.rational(sign * folds[kind, turns])
        return cls(((sign, ((kind, turns),)),))

    def __add__(self, other: "Value") -> "Value":
        return Value(_merge(iter(self.terms + other.terms)))

    def __sub__(self, other: "Value") -> "Value":
        return self + (-other)

    def __neg__(self) -> "Value":
        return Value(tuple((-c, f) for c, f in self.terms))

    def __mul__(self, other: "Value") -> "Value":
        return Value(_merge(_product_terms(self, other)))

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(not f for _, f in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_rational():
            return self.terms[0][0]
        raise ValueError("value is not rational")


Value.ZERO = Value(())
Value.ONE = Value.rational(1)


def _product_terms(a: Value, b: Value) -> Iterator[Term]:
    # the unmerged terms of a * b
    for c1, f1 in a.terms:
        for c2, f2 in b.terms:
            yield c1 * c2, tuple(sorted(f1 + f2))


def _dot(u: Sequence[Value], v: Sequence[Value]) -> Value:
    # one merge over every coordinate product gives the same terms as
    # summing the merged products coordinate by coordinate
    return Value(_merge(itertools.chain.from_iterable(map(_product_terms, u, v))))


@functools.lru_cache(maxsize=None)
def _factor_interval(kind: str, turns: Fraction, prec: int):
    iv.prec = prec
    angle = 2 * iv.pi * turns.numerator / turns.denominator
    return iv.cos(angle) if kind == "cos" else iv.sin(angle)


@functools.lru_cache(maxsize=None)
def _value_interval(terms: tuple[Term, ...], prec: int):
    iv.prec = prec
    total = iv.mpf(0)
    for coeff, factors in terms:
        part = iv.mpf(coeff.numerator) / coeff.denominator
        for kind, turns in factors:
            part = part * _factor_interval(kind, turns, prec)
        total = total + part
    return total


def compare_values(a: Value, b: Value) -> int:
    """Certified three-way comparison: -1, 0 (exact tie), or +1.

    Raises TieDetected when the difference is not symbolically zero but
    interval evaluation, doubling the precision from DEFAULT_BITS, cannot
    separate it from zero at MAX_BITS bits.
    """
    diff = a - b
    if diff.is_zero():
        return 0
    if diff.is_rational():
        return 1 if diff.as_fraction() > 0 else -1
    prec = DEFAULT_BITS
    while prec <= MAX_BITS:
        x = _value_interval(diff.terms, prec)
        if x.a > 0:
            return 1
        if x.b < 0:
            return -1
        prec *= 2
    raise TieDetected(
        f"could not separate two scores at {MAX_BITS} bits of precision"
    )


# -- coordinate token grammar ------------------------------------------

_RAT = r"-?\d+(?:/\d+)?"
_TOKEN_RE = re.compile(
    rf"^(?:(?P<dec>-?\d+\.\d+)|(?P<rat>{_RAT})"
    rf"|(?P<trig>cos|sin)\((?P<arg>{_RAT})\)"
    rf"|pow\((?P<base>{_RAT}),(?P<exp>-?\d+)\))$"
)


def parse_value(token: str) -> Value:
    """Parse one coordinate token: a rational (``3``, ``-7/5``, ``0.3``),
    ``cos(a/b)`` / ``sin(a/b)`` meaning cos/sin of 2*pi*a/b, ``pow(x,e)``,
    or a ``*``-separated product of these."""
    out = Value.ONE
    for part in token.split("*"):
        m = _TOKEN_RE.match(part)
        if not m:
            raise ValueError(f"bad coordinate token {part!r}")
        if m["dec"] is not None:
            val = Value.rational(Fraction(m["dec"]))
        elif m["rat"] is not None:
            val = Value.rational(Fraction(m["rat"]))
        elif m["trig"] is not None:
            val = Value.trig(m["trig"], Fraction(m["arg"]))
        else:
            val = Value.rational(Fraction(m["base"]) ** int(m["exp"]))
        out = out * val
    return out


def format_value(value: Value) -> str:
    parts = []
    for coeff, factors in value.terms:
        bits = []
        if coeff != 1 or not factors:
            bits.append(str(coeff))
        for kind, turns in factors:
            bits.append(f"{kind}({turns})")
        parts.append("*".join(bits))
    if not parts:
        return "0"
    if len(parts) > 1:
        raise ValueError("cannot format a sum as a single token")
    return parts[0]


# -- model specifications ----------------------------------------------


def _check_vectors(vectors, n: int, k: int, label: str) -> tuple[tuple[Value, ...], ...]:
    vecs = tuple(tuple(v) for v in vectors)
    if len(vecs) != n:
        raise ValueError(f"expected {n} {label} vectors, got {len(vecs)}")
    for vec in vecs:
        if len(vec) != k:
            raise ValueError(f"{label} vectors must have {k} coordinates")
    return vecs


@dataclass(frozen=True)
class AttributeSpec:
    """Dot-product model: positions and preference vectors in R^k."""

    k: int
    n: int
    men_pos: tuple[tuple[Value, ...], ...]
    men_pref: tuple[tuple[Value, ...], ...]
    women_pos: tuple[tuple[Value, ...], ...]
    women_pref: tuple[tuple[Value, ...], ...]

    def __post_init__(self) -> None:
        for name in ("men_pos", "men_pref", "women_pos", "women_pref"):
            object.__setattr__(
                self, name, _check_vectors(getattr(self, name), self.n, self.k, name)
            )


@dataclass(frozen=True)
class EuclideanSpec:
    """Euclidean model: positions and ideal points in R^k, all rational."""

    k: int
    n: int
    men_pos: tuple[tuple[Fraction, ...], ...]
    men_pref: tuple[tuple[Fraction, ...], ...]
    women_pos: tuple[tuple[Fraction, ...], ...]
    women_pref: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        for name in ("men_pos", "men_pref", "women_pos", "women_pref"):
            vecs = tuple(tuple(Fraction(x) for x in v) for v in getattr(self, name))
            if len(vecs) != self.n or any(len(v) != self.k for v in vecs):
                raise ValueError(f"{name}: expected {self.n} vectors of {self.k} rationals")
            object.__setattr__(self, name, vecs)


@dataclass(frozen=True)
class OneAttributeSpec:
    """One attribute per person plus a signed preference scalar."""

    n: int
    men: tuple[tuple[Fraction, Fraction], ...]
    women: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        for name in ("men", "women"):
            people = tuple(
                (Fraction(a), Fraction(p)) for a, p in getattr(self, name)
            )
            if len(people) != self.n:
                raise ValueError(f"expected {self.n} {name}")
            for _, pref in people:
                if pref == 0:
                    raise ValueError("preference scalar must be nonzero")
            object.__setattr__(self, name, people)


# -- inducing instances ------------------------------------------------


def _sorted_by_score(scores: list[Value]) -> tuple[int, ...]:
    # descending by score; candidates are 1-based indices into scores
    def cmp(a: int, b: int) -> int:
        c = compare_values(scores[a - 1], scores[b - 1])
        if c == 0:
            raise TieDetected(f"candidates {a} and {b} score exactly alike")
        return -c

    key = functools.cmp_to_key(cmp)
    candidates = range(1, len(scores) + 1)
    # Enclose each score once.  Going down by upper endpoint, a candidate
    # whose upper endpoint lies below every lower endpoint seen so far is
    # certified below all earlier candidates and starts a new run; only the
    # runs of overlapping enclosures need exact comparisons.  Equal scores
    # share a point, so an exact tie always falls inside one run.
    boxes = [_value_interval(score.terms, DEFAULT_BITS) for score in scores]
    runs: list[list[int]] = []
    floor = None
    for c in sorted(candidates, key=lambda c: boxes[c - 1].b, reverse=True):
        box = boxes[c - 1]
        if floor is None or box.b < floor:
            runs.append([])
        runs[-1].append(c)
        floor = box.a if floor is None else min(floor, box.a)
    return tuple(c for run in runs for c in sorted(run, key=key))


def instance_from_dot(spec: AttributeSpec) -> Instance:
    """Build the instance induced by a dot-product model.

    Raises TieDetected if any person's scores cannot be strictly ordered.
    """
    men_lists = []
    for pref in spec.men_pref:
        scores = [_dot(pref, pos) for pos in spec.women_pos]
        men_lists.append(_sorted_by_score(scores))
    women_lists = []
    for pref in spec.women_pref:
        scores = [_dot(pref, pos) for pos in spec.men_pos]
        women_lists.append(_sorted_by_score(scores))
    return Instance(spec.n, tuple(men_lists), tuple(women_lists))


def instance_from_euclidean(spec: EuclideanSpec) -> Instance:
    """Build the instance induced by a Euclidean model, comparing exact
    squared distances.  Raises TieDetected on equidistant candidates."""
    def ranking(ideal, positions) -> tuple[int, ...]:
        dists = [
            sum((a - b) ** 2 for a, b in zip(ideal, pos)) for pos in positions
        ]
        if len(set(dists)) != len(dists):
            raise TieDetected("two candidates are exactly equidistant")
        return tuple(sorted(range(1, len(dists) + 1), key=lambda i: dists[i - 1]))

    men_lists = tuple(ranking(p, spec.women_pos) for p in spec.men_pref)
    women_lists = tuple(ranking(p, spec.men_pos) for p in spec.women_pref)
    return Instance(spec.n, men_lists, women_lists)


def instance_from_1attribute(spec: OneAttributeSpec) -> Instance:
    """Build the instance induced by a one-attribute model.

    A person with positive preference scalar ranks the other side by
    descending attribute, with negative scalar by ascending attribute, so
    each side uses at most two lists and those two are reverses.
    """
    def orders(attrs: list[Fraction]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if len(set(attrs)) != len(attrs):
            raise TieDetected("two candidates have the same attribute")
        asc = tuple(sorted(range(1, len(attrs) + 1), key=lambda i: attrs[i - 1]))
        return asc, tuple(reversed(asc))

    w_asc, w_desc = orders([a for a, _ in spec.women])
    m_asc, m_desc = orders([a for a, _ in spec.men])
    men_lists = tuple(w_desc if p > 0 else w_asc for _, p in spec.men)
    women_lists = tuple(m_desc if p > 0 else m_asc for _, p in spec.women)
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

_MODELS = ("dot", "euclid", "1d")


def parse_geometric(text: str):
    """Parse a geometric model file.

    Header ``model dot|euclid|1d k n`` followed by ``mpos i: c1 .. ck``,
    ``mpref i: ...``, ``wpos j: ...``, ``wpref j: ...`` lines (``#``
    comments allowed).  Returns an AttributeSpec, EuclideanSpec, or
    OneAttributeSpec depending on the model.
    """
    lines = _content_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError("empty input") from None
    parts = header.split()
    if len(parts) != 4 or parts[0] != "model" or parts[1] not in _MODELS:
        raise ParseError("expected header 'model dot|euclid|1d k n'", lineno)
    model = parts[1]
    try:
        k, n = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError("k and n must be integers", lineno) from None
    if model == "1d" and k != 1:
        raise ParseError("the 1d model has k = 1", lineno)

    data: dict[str, dict[int, tuple[Value, ...]]] = {
        key: {} for key in ("mpos", "mpref", "wpos", "wpref")
    }
    for lineno, line in lines:
        head, sep, rest = line.partition(":")
        fields = head.split()
        if not sep or len(fields) != 2 or fields[0] not in data:
            raise ParseError("expected 'mpos|mpref|wpos|wpref i: ...'", lineno)
        try:
            idx = int(fields[1])
        except ValueError:
            raise ParseError("index must be an integer", lineno) from None
        if not 1 <= idx <= n:
            raise ParseError(f"index {idx} out of range 1..{n}", lineno)
        if idx in data[fields[0]]:
            raise ParseError(f"duplicate {fields[0]} {idx}", lineno)
        try:
            vec = tuple(parse_value(tok) for tok in rest.split())
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if len(vec) != k:
            raise ParseError(f"expected {k} coordinates", lineno)
        data[fields[0]][idx] = vec

    def rows(key: str):
        missing = [str(i) for i in range(1, n + 1) if i not in data[key]]
        if missing:
            raise ParseError(f"missing {key} lines: {', '.join(missing)}")
        return tuple(data[key][i] for i in range(1, n + 1))

    mpos, mpref, wpos, wpref = (rows(k_) for k_ in ("mpos", "mpref", "wpos", "wpref"))
    if model == "dot":
        return AttributeSpec(k, n, mpos, mpref, wpos, wpref)

    def fractions(vecs, label):
        try:
            return tuple(tuple(v.as_fraction() for v in vec) for vec in vecs)
        except ValueError:
            raise ParseError(f"{label}: the {model} model needs rational coordinates") from None

    mpos, mpref, wpos, wpref = (
        fractions(v, lbl)
        for v, lbl in ((mpos, "mpos"), (mpref, "mpref"), (wpos, "wpos"), (wpref, "wpref"))
    )
    if model == "euclid":
        return EuclideanSpec(k, n, mpos, mpref, wpos, wpref)
    men = tuple((pos[0], pref[0]) for pos, pref in zip(mpos, mpref))
    women = tuple((pos[0], pref[0]) for pos, pref in zip(wpos, wpref))
    return OneAttributeSpec(n, men, women)


def format_geometric(spec) -> str:
    if isinstance(spec, AttributeSpec):
        model, k = "dot", spec.k
        def fmt(x: Value) -> str:
            return format_value(x)
        blocks = (spec.men_pos, spec.men_pref, spec.women_pos, spec.women_pref)
    elif isinstance(spec, EuclideanSpec):
        model, k = "euclid", spec.k
        fmt = str
        blocks = (spec.men_pos, spec.men_pref, spec.women_pos, spec.women_pref)
    elif isinstance(spec, OneAttributeSpec):
        model, k = "1d", 1
        fmt = str
        blocks = (
            tuple((a,) for a, _ in spec.men),
            tuple((p,) for _, p in spec.men),
            tuple((a,) for a, _ in spec.women),
            tuple((p,) for _, p in spec.women),
        )
    else:
        raise TypeError(f"not a geometric spec: {spec!r}")
    out = [f"model {model} {k} {spec.n}"]
    for key, rows in zip(("mpos", "mpref", "wpos", "wpref"), blocks):
        for i, vec in enumerate(rows, start=1):
            out.append(f"{key} {i}: " + " ".join(fmt(x) for x in vec))
    return "\n".join(out) + "\n"


def induced_instance(spec) -> Instance:
    """Build the instance for any geometric spec."""
    if isinstance(spec, AttributeSpec):
        return instance_from_dot(spec)
    if isinstance(spec, EuclideanSpec):
        return instance_from_euclidean(spec)
    if isinstance(spec, OneAttributeSpec):
        return instance_from_1attribute(spec)
    raise TypeError(f"not a geometric spec: {spec!r}")
