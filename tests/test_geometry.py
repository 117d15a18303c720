import functools
import operator
import random
import time
from fractions import Fraction

import mpmath
import pytest

import stablecount.geometry
from conftest import (
    GRAPH_3X4,
    brute_force_stable_matchings,
    dot_instance_oracle,
    euclidean_instance_oracle,
    fraction_dot,
    pairwise_dot,
    random_1attribute,
    random_bipartite,
)
from stablecount import (
    AttributeSpec,
    EuclideanSpec,
    Instance,
    OneAttributeSpec,
    ParseError,
    TieDetected,
    compare_values,
    count_1attribute,
    find_all_rotations,
    format_geometric,
    gen_2euclidean,
    gen_3attribute,
    induced_instance,
    instance_from_1attribute,
    instance_from_dot,
    instance_from_euclidean,
    parse_geometric,
    rotation_poset,
)
from stablecount.geometry import (
    Value,
    _cos_interval,
    _pi_interval,
    _value_interval,
    format_value,
    parse_value,
)


F = Fraction


def test_value_rational_arithmetic():
    a = Value.rational(F(1, 3))
    b = Value.rational(F(2, 3))
    assert (a + b).as_fraction() == 1
    assert not (a - a).terms
    assert (a * b).as_fraction() == F(2, 9)


def test_trig_quarter_turn_folds():
    assert Value.trig("cos", F(0)).as_fraction() == 1
    assert not Value.trig("cos", F(1, 4)).terms
    assert Value.trig("cos", F(1, 2)).as_fraction() == -1
    assert not Value.trig("sin", F(0)).terms
    assert Value.trig("sin", F(1, 4)).as_fraction() == 1
    assert Value.trig("sin", F(3, 4)).as_fraction() == -1


def test_trig_reflection_identities():
    q = F(1, 7)
    assert not (Value.trig("cos", 1 - q) - Value.trig("cos", q)).terms
    assert not (Value.trig("sin", 1 - q) + Value.trig("sin", q)).terms


def test_unit_circle_norm_is_symbolically_one():
    for q in (F(1, 7), F(3, 11), F(5, 8), F(123, 997)):
        x, y = Value.trig("cos", q), Value.trig("sin", q)
        assert not (x * x + y * y - Value.ONE).terms


def test_tilted_sphere_point_norm_is_symbolically_one():
    phi, q = F(1, 100), F(17, 19)
    x = Value.trig("sin", phi) * Value.trig("cos", q)
    y = Value.trig("sin", phi) * Value.trig("sin", q)
    z = Value.trig("cos", phi)
    assert not (x * x + y * y + z * z - Value.ONE).terms


def test_compare_values_signs():
    assert compare_values(Value.rational(1), Value.rational(2)) == -1
    assert compare_values(Value.trig("cos", F(1, 8)), Value.rational(0)) == 1
    assert compare_values(Value.trig("cos", F(1, 7)), Value.trig("cos", F(1, 7))) == 0
    # sin(1/8) is cos(1/4 - 1/8) in normal form: an exact tie
    assert compare_values(Value.trig("cos", F(1, 8)), Value.trig("sin", F(1, 8))) == 0
    # cos(1/5) + cos(2/5) = -1/2 exactly, a relation the normal form does
    # not see; the zero test in Q(zeta_5) decides it
    hidden = Value.trig("cos", F(1, 5)) + Value.trig("cos", F(2, 5))
    assert compare_values(hidden, Value.rational(F(-1, 2))) == 0
    # differences below 2**-128 separate only at more bits
    tiny = Value.rational(F(1, 2**300)) * Value.trig("cos", F(1, 7))
    assert compare_values(hidden + tiny, Value.rational(F(-1, 2))) == 1
    assert compare_values(Value.rational(F(1, 3**200)), Value.ZERO) == 1


def test_compare_values_matches_mpmath_on_planted_zeros():
    # Sums of vanishing families sum_{j<p} cos(q + j/p) and
    # cos(1/9) + cos(2/9) + cos(4/9), some nudged by 2**-k cos(r) with k
    # up to 1000, against mpmath at 2500 bits, where a sum below 2**-2000
    # counts as zero.  The angles' denominators include 3 * 1009 and the
    # prime 1000003.
    rng = random.Random(2010)
    dens = (1, 2, 3, 4, 5, 7, 8, 9, 12, 30, 3 * 1009, 1000003)

    def cos(q):
        return Value.trig("cos", q)

    def angle():
        b = rng.choice(dens)
        return F(rng.randrange(b), b)

    def coefficient():
        return Value.rational(F(rng.randint(-9, 9), rng.randint(1, 5)))

    def family():
        if rng.random() < 0.1:
            return cos(F(1, 9)) + cos(F(2, 9)) + cos(F(4, 9))
        p, q = rng.randint(2, 11), angle()
        return sum((cos(q + F(j, p)) for j in range(p)), Value.ZERO)

    @functools.lru_cache(maxsize=None)
    def mp_cos(a, b):
        return mpmath.cos(2 * mpmath.pi * a / b)

    zeros = signs = 0
    for _ in range(3000):
        total = Value.ZERO
        for _ in range(rng.randint(1, 2)):
            total = total + coefficient() * family()
        if rng.random() < 0.5:
            nudge = Value.rational(F(rng.choice((-1, 1)), 2 ** rng.randint(100, 1000)))
            total = total + nudge * cos(angle())
        if rng.random() < 0.2:
            total = total + coefficient() * cos(angle())
        other = coefficient() * cos(angle()) + coefficient()
        with mpmath.workprec(2500):
            x = sum(mpmath.mpf(c.numerator) / c.denominator * mp_cos(a, b) for c, a, b in total.terms)
            want = 0 if abs(x) < mpmath.mpf(2) ** -2000 else (1 if x > 0 else -1)
        assert compare_values(total + other, other) == want, total
        zeros += want == 0
        signs += want != 0
    assert zeros > 500 and signs > 500


def test_difference_of_two_to_the_minus_5000_is_ordered():
    x = Value.trig("cos", F(1, 7))
    y = x * Value.rational(1 + F(1, 2**5000))
    assert compare_values(y, x) == 1
    assert compare_values(x, y) == -1
    # men rank the women by descending position: woman 2 by 2**-5000
    inst = instance_from_dot(_ranked_by_one_attribute([x, y]))
    assert inst.men_prefs == ((2, 1),) * 2


def test_huge_prime_denominator_is_decided_at_once():
    # the Mersenne prime P = 2**127 - 1 as a denominator: the zero test
    # stops trial division at the number of exponents, so neither the
    # 2**-200 nudge (which overlaps at 128 bits) nor the exact tie
    # cos(1/P) + cos(1/P + 1/3) = -cos(1/P + 2/3) factors P
    q = F(1, 2**127 - 1)
    x = Value.trig("cos", q)
    y = x + Value.rational(F(1, 2**200)) * x
    tie = (x + Value.trig("cos", q + F(1, 3)), -Value.trig("cos", q + F(2, 3)))
    start = time.perf_counter()
    assert compare_values(y, x) == 1
    assert compare_values(x, y) == -1
    assert compare_values(*tie) == 0
    inst = instance_from_dot(_ranked_by_one_attribute([x, y]))
    assert inst.men_prefs == ((2, 1),) * 2
    with pytest.raises(TieDetected, match="man 1: candidates 1 and 2 score exactly alike"):
        instance_from_dot(_ranked_by_one_attribute(list(tie)))
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("bits", [128, 256, 1024, 4096])
def test_enclosures_contain_mpmath_values(bits):
    # mpmath is the oracle, 64 bits beyond the enclosure's own
    rng = random.Random(bits)
    with mpmath.workprec(bits + 64):
        scale = mpmath.mpf(2) ** bits
        lo, hi = _pi_interval(bits)
        assert lo <= mpmath.pi * scale <= hi and hi - lo <= 4
        draws = 0
        while draws < 1000:
            b = rng.randint(5, 10**9)
            a = rng.randint(1, b // 4)
            if 4 * a == b:
                continue
            draws += 1
            lo, hi = _cos_interval(a, b, bits)
            assert lo <= mpmath.cos(2 * mpmath.pi * a / b) * scale <= hi, (a, b)
            assert hi - lo <= 4


def test_value_enclosures_contain_mpmath_values():
    # sums of large and small coefficients, each enclosed at 128 bits
    rng = random.Random(19)
    for _ in range(200):
        value = Value.ZERO
        for _ in range(rng.randint(1, 5)):
            c = F(rng.randint(-10**30, 10**30), rng.randint(1, 10**6))
            value = value + Value.rational(c) * Value.trig(
                rng.choice(("cos", "sin")), F(rng.randint(0, 999), rng.randint(1, 1000))
            )
        with mpmath.workprec(512):
            want = sum(
                mpmath.mpf(c.numerator) / c.denominator * mpmath.cos(2 * mpmath.pi * a / b)
                for c, a, b in value.terms
            ) * mpmath.mpf(2) ** 128
        lo, hi = _value_interval(value.terms, 128)
        assert lo <= want <= hi and hi - lo <= 4


def test_normal_form_folds_angles():
    q = F(3, 40)
    # cos(1/2 - q) = -cos(q), sin(q) = cos(1/4 - q), cos(1/6) = 1/2
    assert Value.trig("cos", F(1, 2) - q) == -Value.trig("cos", q)
    assert Value.trig("sin", q) == Value.trig("cos", F(1, 4) - q)
    assert Value.trig("cos", F(1, 6)).as_fraction() == F(1, 2)
    assert Value.trig("sin", F(7, 12)).as_fraction() == F(-1, 2)
    # a circle dot product collapses to the single cosine of the difference
    t, u = F(2, 7), F(5, 11)
    dot = Value.trig("cos", t) * Value.trig("cos", u) + Value.trig("sin", t) * Value.trig("sin", u)
    assert dot == Value.trig("cos", t - u)
    for value in (dot, Value.trig("sin", F(1, 100)) * Value.trig("cos", F(17, 19))):
        for c, a, b in value.terms:
            assert 0 <= F(a, b) < F(1, 4) and F(a, b).denominator == b


def test_exact_mirror_tie_is_found_without_enclosures(monkeypatch):
    # the man's preference at angle t sees women at t + 1/7 and t - 1/7
    # as mirror images; their scores are the same single cosine
    seen = []
    enclose = stablecount.geometry._value_interval

    def recorded(terms, bits):
        seen.append(bits)
        return enclose(terms, bits)

    monkeypatch.setattr(stablecount.geometry, "_value_interval", recorded)
    t = F(1, 10)

    def circle(q):
        return (Value.trig("cos", q), Value.trig("sin", q))

    one = (Value.ONE, Value.ZERO)
    spec = AttributeSpec(
        2,
        3,
        men_pos=(one,) * 3,
        men_pref=(circle(t), one, one),
        women_pos=(circle(t + F(1, 7)), circle(F(1, 3)), circle(t - F(1, 7))),
        women_pref=(one,) * 3,
    )
    with pytest.raises(TieDetected) as err:
        instance_from_dot(spec)
    assert str(err.value) == "man 1: candidates 1 and 3 score exactly alike"
    assert err.value.person == "man 1"
    assert err.value.candidates == (1, 3)
    assert seen and max(seen) == 128


def test_tie_messages_name_person_and_candidates():
    one, two = Value.rational(1), Value.rational(2)
    spec = AttributeSpec(
        1, 3,
        men_pos=((one,), (two,), (one,)),
        men_pref=((one,),) * 3,
        women_pos=((one,), (two,), (Value.rational(3),)),
        women_pref=((one,), (one,), (one,)),
    )
    with pytest.raises(TieDetected) as err:
        instance_from_dot(spec)
    assert str(err.value) == "woman 1: candidates 1 and 3 score exactly alike"

    # cos(1/5) + cos(2/5) = -1/2, a tie only the zero test sees
    hidden = Value.trig("cos", F(1, 5)) + Value.trig("cos", F(2, 5))
    spec = AttributeSpec(
        1, 2,
        men_pos=((one,), (two,)),
        men_pref=((one,), (-one,)),
        women_pos=((Value.rational(F(-1, 2)),), (hidden,)),
        women_pref=((one,), (one,)),
    )
    with pytest.raises(TieDetected) as err:
        instance_from_dot(spec)
    assert str(err.value) == "man 1: candidates 1 and 2 score exactly alike"
    assert (err.value.person, err.value.candidates) == ("man 1", (1, 2))

    spec = EuclideanSpec(
        1, 3,
        men_pos=((F(0),), (F(1),), (F(2),)),
        men_pref=((F(0),), (F(5),), (F(0),)),
        women_pos=((F(4),), (F(9),), (F(6),)),  # 4 and 6 are 1 from 5
        women_pref=((F(0),), (F(1),), (F(2),)),
    )
    with pytest.raises(TieDetected) as err:
        instance_from_euclidean(spec)
    assert str(err.value) == "man 2: candidates 1 and 3 are exactly equidistant"
    assert (err.value.person, err.value.candidates) == ("man 2", (1, 3))

    spec = OneAttributeSpec(
        1, 3,
        men_pos=((F(1),), (F(5),), (F(3),)),
        men_pref=((F(1),), (F(1),), (F(-1),)),
        women_pos=((F(1),), (F(2),), (F(2),)),
        women_pref=((F(1),), (F(1),), (F(1),)),
    )
    with pytest.raises(TieDetected) as err:
        instance_from_1attribute(spec)
    assert str(err.value) == "man 1: candidates 2 and 3 have the same attribute"
    spec = OneAttributeSpec(
        1, 2,
        men_pos=((F(7),), (F(7),)),
        men_pref=((F(1),), (F(1),)),
        women_pos=((F(1),), (F(2),)),
        women_pref=((F(1),), (F(1),)),
    )
    with pytest.raises(TieDetected) as err:
        instance_from_1attribute(spec)
    assert str(err.value) == "woman 1: candidates 1 and 2 have the same attribute"


def test_parse_value_tokens():
    assert parse_value("3").as_fraction() == 3
    assert parse_value("-7/5").as_fraction() == F(-7, 5)
    assert parse_value("0.3").as_fraction() == F(3, 10)
    assert parse_value("pow(10,-3)").as_fraction() == F(1, 1000)
    assert parse_value("cos(1/3)") == Value.trig("cos", F(1, 3))
    prod = parse_value("2*sin(1/5)")
    assert prod == Value.rational(2) * Value.trig("sin", F(1, 5))
    with pytest.raises(ValueError):
        parse_value("tan(1/3)")
    with pytest.raises(ValueError) as err:
        Value.trig("tan", F(1, 3))
    assert str(err.value) == "unknown trig kind 'tan'"
    with pytest.raises(ValueError) as err:
        parse_value("cos(1/5)").as_fraction()
    assert str(err.value) == "value is not rational"
    for token in ("1/0", "cos(1/0)", "2*pow(0,-1)"):
        with pytest.raises(ValueError, match="division by zero"):
            parse_value(token)


def test_format_value_round_trip():
    for tok in ("0", "5/2", "cos(1/9)", "sin(2/7)", "2*cos(1/9)*sin(1/100)+pow(2,-3)"):
        assert parse_value(format_value(parse_value(tok))) == parse_value(tok)
    value = Value.trig("sin", F(1, 100)) * Value.trig("cos", F(17, 19))
    value = value + Value.rational(3)
    assert format_value(value) == "3+1/2*cos(64/475)+-1/2*cos(147/950)"
    assert parse_value(format_value(value)) == value
    for token in ("1+", "+1", "1++1"):
        # an empty summand is named by the whole token, not by ''
        with pytest.raises(ValueError) as err:
            parse_value(token)
        assert str(err.value) == f"bad coordinate token {token!r}"
    with pytest.raises(ValueError) as err:
        parse_value("1+tan(1/3)")
    assert str(err.value) == "bad coordinate token 'tan(1/3)'"


def test_parse_value_reads_products_and_sin_as_sums():
    # tokens as older files wrote them, products of cos and sin factors
    t = F(7, 1476)
    want = Value.trig("sin", F(1, 100)) * Value.trig("cos", t)
    assert parse_value("cos(7/1476)*sin(1/100)") == want
    want = -Value.trig("sin", F(1, 100)) * Value.trig("sin", t)
    assert parse_value("-1*sin(7/1476)*sin(1/100)") == want
    assert parse_value("sin(1/8)") == parse_value("cos(1/8)")
    assert not parse_value("cos(1/3)+1/2").terms


def test_dot_model_single_attribute_monotone():
    # every man weights the single attribute positively, women sit at
    # 3 > 2 > 1: all men rank women by descending attribute
    spec = AttributeSpec(
        1,
        3,
        men_pos=((Value.rational(1),), (Value.rational(2),), (Value.rational(3),)),
        men_pref=(((Value.rational(1),),) * 3),
        women_pos=((Value.rational(3),), (Value.rational(2),), (Value.rational(1),)),
        women_pref=(((Value.rational(1),),) * 3),
    )
    inst = instance_from_dot(spec)
    assert inst.men_prefs == ((1, 2, 3),) * 3


def test_dot_model_detects_exact_tie():
    spec = AttributeSpec(
        2,
        2,
        men_pos=((Value.rational(1), Value.rational(0)),) * 2,
        men_pref=((Value.rational(1), Value.rational(1)),) * 2,
        women_pos=((Value.rational(2), Value.rational(3)),) * 2,  # identical
        women_pref=((Value.rational(1), Value.rational(2)), (Value.rational(2), Value.rational(1))),
    )
    with pytest.raises(TieDetected):
        instance_from_dot(spec)


def test_dot_sort_matches_pairwise_oracle():
    rng = random.Random(20261017)
    graphs = [GRAPH_3X4] + [random_bipartite(rng, 10, min_edges=2) for _ in range(6)]
    for g in graphs:
        spec = gen_3attribute(g)
        try:
            want = dot_instance_oracle(spec)
        except TieDetected:
            with pytest.raises(TieDetected):
                instance_from_dot(spec)
        else:
            assert instance_from_dot(spec) == want


def _value_dot(u, v):
    # the exact score that instance_from_dot builds inside a run
    return sum(map(operator.mul, u, v), Value.ZERO)


def test_single_merge_dot_matches_pairwise_sum():
    # values built by the Fraction oracle alone, with coefficient
    # denominators up to 6 and angles in twelfths and 24ths, whose sums and
    # differences fold onto cos(1/6) = 1/2 and cos(1/4) = 0
    rng = random.Random(7)

    def random_value():
        total = Value.ZERO
        for _ in range(rng.randint(0, 3)):
            c = F(rng.randint(-5, 5), rng.randint(1, 6))
            term = Value(((c, 0, 1),) if c else ())
            for _ in range(rng.randint(0, 3)):
                a, b = rng.randint(-30, 30), rng.choice((3, 5, 6, 7, 12, 24))
                term = fraction_dot((term,), (Value(((F(1), a, b),)),))
            total = total + term
        return total

    for _ in range(300):
        k = rng.randint(1, 4)
        u = [random_value() for _ in range(k)]
        v = [random_value() for _ in range(k)]
        assert _value_dot(u, v).terms == pairwise_dot(u, v).terms == fraction_dot(u, v).terms

    # cos(1/12)**2 = (cos(0) + cos(1/6)) / 2 = 3/4
    c12 = Value.trig("cos", F(1, 12))
    assert c12 * c12 == Value.rational(F(3, 4))


def test_dot_matches_fraction_oracle_on_3attribute_scores():
    rng = random.Random(8)
    graphs = [GRAPH_3X4] + [random_bipartite(rng, 8, min_edges=2) for _ in range(4)]
    for g in graphs:
        spec = gen_3attribute(g)
        for prefs, positions in (
            (spec.men_pref, spec.women_pos),
            (spec.women_pref, spec.men_pos),
        ):
            for pref in prefs:
                for pos in positions:
                    assert _value_dot(pref, pos) == fraction_dot(pref, pos)


def _ranked_by_one_attribute(women):
    # every man weights the single attribute by 1, so men rank the women by
    # descending position
    one = (Value.rational(1),)
    n = len(women)
    return AttributeSpec(
        1,
        n,
        men_pos=tuple((Value.rational(i),) for i in range(1, n + 1)),
        men_pref=(one,) * n,
        women_pos=tuple((w,) for w in women),
        women_pref=(one,) * n,
    )


def test_dot_sort_compares_inside_overlapping_enclosures(monkeypatch):
    calls = []
    exact = stablecount.geometry.compare_values

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(stablecount.geometry, "compare_values", counted)

    def cos(q):
        return Value.trig("cos", F(1, q))

    # 4**80 + cos(1/q) / 2**200: the scores differ by less than 2**-128,
    # so their 128-bit enclosures overlap and only exact comparisons, at
    # more bits, can order them
    big = Value.rational(4**80)
    tiny = Value.rational(F(1, 2**200))
    near = [big + tiny * cos(q) for q in (7, 5, 11, 9)]
    inst = instance_from_dot(_ranked_by_one_attribute(near))
    assert inst.men_prefs[0] == (3, 4, 1, 2)
    assert calls

    # this score is cos(1/5) ~ 0.31; its enclosure is widened to overlap
    # both points below it, so one run must take in all three
    wide = cos(5)
    enclose = stablecount.geometry._value_interval

    def widened(terms, bits):
        lo, hi = enclose(terms, bits)
        return (lo - 2**140, hi + 2**140) if terms == wide.terms else (lo, hi)

    monkeypatch.setattr(stablecount.geometry, "_value_interval", widened)
    inst = instance_from_dot(
        _ranked_by_one_attribute([wide, Value.rational(2), Value.rational(1)])
    )
    assert inst.men_prefs[0] == (2, 3, 1)

    with pytest.raises(TieDetected, match="score exactly alike"):
        instance_from_dot(_ranked_by_one_attribute(near[:3] + near[1:2]))


def _ranked_by(pref, women):
    # every man has the preference vector pref; the women rank the men by
    # their first coordinate
    k, n = len(pref), len(women)
    axis = (Value.ONE,) + (Value.ZERO,) * (k - 1)
    return AttributeSpec(
        k,
        n,
        men_pos=tuple((Value.rational(i),) + axis[1:] for i in range(1, n + 1)),
        men_pref=(pref,) * n,
        women_pos=tuple(women),
        women_pref=(axis,) * n,
    )


def test_dot_score_radius_covers_every_coordinate_error():
    # A coordinate x is enclosed in units of 2**-128 and kept as the
    # midpoint m and radius r of that enclosure, at 2**-129.  Each case
    # has a woman whose midpoint score lies above the other's although
    # her score is lower, so only the full radius puts both in one run.
    zero, one = Value.ZERO, Value.ONE

    # x = 4**80 + 2**-200 cos(1/q) has m odd, x above it by less than
    # 2**-129: woman 2 splits near(5) across two coordinates, so her
    # midpoint score is a whole 2**-129 above woman 1's near(7)
    def near(q):
        return Value.rational(4**80) + Value.rational(F(1, 2**200)) * Value.trig("cos", F(1, q))

    half = Value.rational(F(1, 2**201)) * Value.trig("cos", F(1, 5))
    split = (Value.rational(4**80) + half, half)
    assert split[0] + split[1] == near(5)
    inst = instance_from_dot(_ranked_by((one, one), [(near(7), zero), split]))
    assert inst.men_prefs == ((1, 2),) * 2

    # p * 2**128 = 1 - 2**-128 lies at the top of its enclosure [0, 1], so
    # m = r = 1 and the product p * p * 2**258 = 4 (1 - 2**-128)**2 exceeds
    # m * m + |m| r + r |m| = 3 by almost r * r = 1.  Woman 1 scores five
    # such products, just under 20 * 2**-258, woman 2 exactly 16 * 2**-258
    # from coordinates enclosed exactly; without the r * r terms woman 1's
    # interval would end at 15
    p = Value.rational(F(2**128 - 1, 2**256))
    e = Value.rational(F(1, 2**127))
    inst = instance_from_dot(
        _ranked_by((p,) * 5 + (e,), [(p,) * 5 + (zero,), (zero,) * 5 + (e,)])
    )
    assert inst.men_prefs == ((1, 2),) * 2


def test_3x4_dot_order_needs_no_exact_scores(monkeypatch):
    # every enclosure of gen_3attribute(GRAPH_3X4) stands apart, so no
    # exact score is built and no pair is compared
    spec = gen_3attribute(GRAPH_3X4)
    want = dot_instance_oracle(spec)
    calls = []
    for owner, name in ((stablecount.geometry, "compare_values"), (Value, "__mul__")):
        real = getattr(owner, name)

        def counted(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    assert instance_from_dot(spec) == want
    assert calls == []


def test_euclidean_collinear_by_absolute_difference():
    spec = EuclideanSpec(
        1,
        3,
        men_pos=((F(0),), (F(10),), (F(21),)),
        men_pref=((F(5),), (F(0),), (F(20),)),
        women_pos=((F(1),), (F(8),), (F(30),)),
        women_pref=((F(2),), (F(9),), (F(29),)),
    )
    inst = instance_from_euclidean(spec)
    assert inst.men_prefs[0] == (2, 1, 3)  # ideal 5: |8-5| < |1-5| < |30-5|
    assert inst.men_prefs[1] == (1, 2, 3)
    assert inst.men_prefs[2] == (3, 2, 1)


def test_euclidean_detects_equidistant():
    spec = EuclideanSpec(
        1,
        2,
        men_pos=((F(0),), (F(1),)),
        men_pref=((F(5),), (F(0),)),
        women_pos=((F(4),), (F(6),)),  # both at distance 1 from ideal 5
        women_pref=((F(0),), (F(1),)),
    )
    with pytest.raises(TieDetected):
        instance_from_euclidean(spec)


def _outcome(build, spec):
    try:
        return build(spec)
    except TieDetected as exc:
        return (str(exc), exc.person, exc.candidates)


def test_euclidean_matches_fraction_oracle():
    rng = random.Random(9)

    def coord():
        # mixed denominators: sevenths, powers of 100 and their products
        den = rng.choice((1, 2, 3, 7, 10, 100, 700, 10**6, 7 * 10**6))
        return F(rng.randint(-60, 60), den) + rng.choice((0, F(1, 100**3)))

    specs = [gen_2euclidean(random_bipartite(rng, 8, min_edges=2)) for _ in range(6)]
    planted = []
    for _ in range(60):
        k, n = rng.randint(1, 3), rng.randint(2, 6)
        mpos, mpref, wpos, wpref = (
            [tuple(coord() for _ in range(k)) for _ in range(n)] for _ in range(4)
        )
        specs.append(EuclideanSpec(k, n, mpos, mpref, wpos, wpref))
        # an exact tie: reflect one candidate through one person's ideal
        # point onto another candidate's place
        ideals, positions = rng.choice(((mpref, wpos), (wpref, mpos)))
        i, (a, b) = rng.randrange(n), rng.sample(range(n), 2)
        positions[b] = tuple(2 * x - y for x, y in zip(ideals[i], positions[a]))
        planted.append(EuclideanSpec(k, n, mpos, mpref, wpos, wpref))
    for spec in specs + planted:
        got = _outcome(instance_from_euclidean, spec)
        assert got == _outcome(euclidean_instance_oracle, spec)
        if spec in planted:
            assert isinstance(got, tuple) and got[0].endswith("are exactly equidistant")


def test_1attribute_lists_are_reverses():
    rng = random.Random(61)
    for _ in range(20):
        spec = random_1attribute(rng, rng.randint(2, 7))
        inst = instance_from_1attribute(spec)
        signs = [p > 0 for (p,) in spec.men_pref]
        for i in range(spec.n):
            for j in range(spec.n):
                if signs[i] != signs[j]:
                    assert inst.men_prefs[i] == inst.men_prefs[j][::-1]
                else:
                    assert inst.men_prefs[i] == inst.men_prefs[j]


def test_1attribute_rejects_zero_preference():
    with pytest.raises(ValueError, match="preference scalar must be nonzero"):
        OneAttributeSpec(1, 1, ((F(1),),), ((F(0),),), ((F(1),),), ((F(1),),))
    with pytest.raises(ValueError, match="preference scalar must be nonzero"):
        OneAttributeSpec(1, 1, ((F(1),),), ((F(1),),), ((F(1),),), ((F(0),),))


def test_1attribute_detects_duplicate_attribute():
    spec = OneAttributeSpec(
        1, 2, ((F(1),), (F(1),)), ((F(1),), (F(1),)), ((F(1),), (F(2),)), ((F(1),), (F(1),))
    )
    with pytest.raises(TieDetected):
        instance_from_1attribute(spec)


def test_count_1attribute_trivial():
    spec = OneAttributeSpec(1, 1, ((F(3),),), ((F(1),),), ((F(5),),), ((F(-2),),))
    assert count_1attribute(spec) == 1


def test_count_1attribute_aligned_signs_unique():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(1, 6)
        msign = rng.choice([-1, 1])
        wsign = rng.choice([-1, 1])
        spec = OneAttributeSpec(
            1, n,
            tuple((F(a),) for a in rng.sample(range(-50, 50), n)), ((F(msign),),) * n,
            tuple((F(a),) for a in rng.sample(range(-50, 50), n)), ((F(wsign),),) * n,
        )
        assert count_1attribute(spec) == 1
        assert len(brute_force_stable_matchings(instance_from_1attribute(spec))) == 1


def test_count_1attribute_matches_brute_force():
    rng = random.Random(71)
    for _ in range(200):
        spec = random_1attribute(rng, rng.randint(1, 7))
        inst = instance_from_1attribute(spec)
        assert count_1attribute(spec) == len(brute_force_stable_matchings(inst))


def test_1attribute_rotations_are_disjoint_transpositions_in_a_chain():
    rng = random.Random(73)
    for _ in range(60):
        spec = random_1attribute(rng, rng.randint(2, 7))
        inst = instance_from_1attribute(spec)
        rots = find_all_rotations(inst)[0]
        people: set[tuple[str, int]] = set()
        for rot in rots:
            assert len(rot) == 2
            for m, w in rot.pairs:
                assert ("m", m) not in people
                people.add(("m", m))
                assert ("w", w) not in people
                people.add(("w", w))
        rposet = rotation_poset(inst)
        k = len(rposet)
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert (rposet.below[j] | rposet.above[j]) >> i & 1


GEO_TEXT = """\
model dot 2 1
mpos 1: 1 0
mpref 1: cos(1/8) sin(1/8)
wpos 1: 1/2 0.5
wpref 1: pow(2,-1) 1
"""


def test_parse_geometric_dot():
    spec = parse_geometric(GEO_TEXT)
    assert isinstance(spec, AttributeSpec)
    assert spec.k == 2 and spec.n == 1
    assert spec.men_pref[0][0] == Value.trig("cos", F(1, 8))
    assert induced_instance(spec).n == 1


def test_parse_geometric_euclid_and_1d():
    spec = parse_geometric("model euclid 1 1\nmpos 1: 0\nmpref 1: 1\nwpos 1: 2\nwpref 1: 3\n")
    assert isinstance(spec, EuclideanSpec)
    spec = parse_geometric("model 1d 1 1\nmpos 1: 4\nmpref 1: 1\nwpos 1: 2\nwpref 1: -1\n")
    assert isinstance(spec, OneAttributeSpec)
    assert (spec.men_pos, spec.men_pref) == (((F(4),),), ((F(1),),))


def test_parse_geometric_rejects_trig_in_euclid():
    text = "model euclid 1 1\nmpos 1: cos(1/8)\nmpref 1: 1\nwpos 1: 2\nwpref 1: 3\n"
    with pytest.raises(ParseError) as err:
        parse_geometric(text)
    assert str(err.value) == "men_pos: the euclid model needs rational coordinates"


def test_rational_specs_refuse_trig_coordinates():
    trig = Value.trig("cos", F(1, 8))
    blocks = dict(men_pos=((1,),), men_pref=((2,),), women_pos=((3,),), women_pref=((trig,),))
    for spec_type in (EuclideanSpec, OneAttributeSpec):
        with pytest.raises(ValueError) as err:
            spec_type(1, 1, **blocks)
        assert str(err.value) == f"women_pref: the {spec_type.model} model needs rational coordinates"


def test_parse_geometric_errors():
    with pytest.raises(ParseError):
        parse_geometric("")
    with pytest.raises(ParseError):
        parse_geometric("model dot 1 1\nmpos 1: 1\n")  # missing rows
    with pytest.raises(ParseError):
        parse_geometric("model 1d 2 1\n")  # 1d must have k = 1
    zero = "model 1d 1 1\nmpos 1: 1\nmpref 1: 0\nwpos 1: 1\nwpref 1: 1\n"
    with pytest.raises(ParseError, match="preference scalar must be nonzero"):
        parse_geometric(zero)  # the spec type's own check
    for text, message in (
        ("model cube 1 1\n", "line 1: expected header 'model dot|euclid|1d k n'"),
        ("model dot one 1\n", "line 1: k must be a positive integer"),
        ("model dot \u00b3 1\n", "line 1: k must be a positive integer"),
        ("model dot 1 1\n# c\nmpos: 1\n", "line 3: expected 'mpos|mpref|wpos|wpref i: ...'"),
        ("model dot 1 1\nm 1: 1\n", "line 2: expected 'mpos|mpref|wpos|wpref i: ...'"),
        ("model dot 1 1\nmpos 1 1\n", "line 2: expected 'mpos|mpref|wpos|wpref i: ...'"),
        ("model dot 1 1\nmpos x: 1\n", "line 2: index must be an integer"),
        ("model dot 1 1\nmpos +1: 1\n", "line 2: index must be an integer"),
        ("model dot 1 1\nmpos 2: 1\n", "line 2: index 2 out of range 1..1"),
        ("model euclid 1 2\nwpref 0: 1\n", "line 2: index 0 out of range 1..2"),
        ("model dot 1 1\nmpos 1: 1\nmpos 1: 2\n", "line 3: duplicate mpos 1"),
        ("model dot 1 2\nwpos 2: 1\n\nmpref 1: 1\nwpos 2: x\n", "line 5: duplicate wpos 2"),
        ("model dot 2 1\nmpos 1: 1\n", "line 2: expected 2 coordinates"),
        ("model dot 1 1\nmpos 1: 1\nwpref 1: 1/0\n", "line 3: division by zero in coordinate token '1/0'"),
        # numbers are ASCII digits, though \d and Fraction take other scripts' digits
        ("model dot \u0661 1\n", "line 1: k must be a positive integer"),
        ("model dot 1 1\n# c\nmpos \u0661: 1\n", "line 3: index must be an integer"),
        ("model dot 1 1\nmpos 1: \u0663/\u0664\n", "line 2: bad coordinate token '\u0663/\u0664'"),
        ("model dot 1 1\nmpos 1: cos(\u0661/5)\n", "line 2: bad coordinate token 'cos(\u0661/5)'"),
        ("model dot 1 1\nmpos 1: pow(2,\u0663)\n", "line 2: bad coordinate token 'pow(2,\u0663)'"),
    ):
        with pytest.raises(ParseError) as err:
            parse_geometric(text)
        assert str(err.value) == message


def test_format_and_induced_instance_reject_non_specs():
    for call in (format_geometric, induced_instance):
        with pytest.raises(TypeError) as err:
            call(None)
        assert str(err.value) == "not a geometric spec: None"


def test_parse_geometric_huge_n_is_cheap():
    # nothing is sized by n before the lines arrive: the error names the
    # first missing line and the count only
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_geometric("model dot 1 100000000\nmpos 2: 1\n")
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == "missing mpos lines: 1 and 399999998 more"
    with pytest.raises(ParseError) as err:
        parse_geometric("model dot 1 2\nmpos 1: 1\nmpos 2: 1\nmpref 2: 1\n")
    assert str(err.value) == "missing mpref lines: 1 and 4 more"
    with pytest.raises(ParseError) as err:
        parse_geometric("model dot 1 1\nmpos 1: 1\nmpref 1: 1\nwpos 1: 1\n")
    assert str(err.value) == "missing wpref lines: 1"


def test_format_geometric_round_trip():
    rng = random.Random(79)
    spec = random_1attribute(rng, 4)
    assert parse_geometric(format_geometric(spec)) == spec
    dot = parse_geometric(GEO_TEXT)
    assert parse_geometric(format_geometric(dot)) == dot
    attr3 = gen_3attribute(GRAPH_3X4)  # coordinates that are sums of cosines
    assert parse_geometric(format_geometric(attr3)) == attr3
    euclid2 = gen_2euclidean(GRAPH_3X4)
    assert parse_geometric(format_geometric(euclid2)) == euclid2


def test_format_geometric_text_is_pinned():
    spec = EuclideanSpec(
        2, 2,
        men_pos=((F(1, 2), 0), (F(-3), F(7, 4))),
        men_pref=((1, 2), (0, F(5, 3))),
        women_pos=((F(2), F(0)), (F(1, 3), F(-1, 3))),
        women_pref=((F(9), F(1, 9)), (F(0), F(-2))),
    )
    assert format_geometric(spec) == (
        "model euclid 2 2\n"
        "mpos 1: 1/2 0\nmpos 2: -3 7/4\n"
        "mpref 1: 1 2\nmpref 2: 0 5/3\n"
        "wpos 1: 2 0\nwpos 2: 1/3 -1/3\n"
        "wpref 1: 9 1/9\nwpref 2: 0 -2\n"
    )
    spec = OneAttributeSpec(
        1, 2,
        men_pos=((F(3, 2),), (F(-1),)),
        men_pref=((F(1),), (F(-4, 5),)),
        women_pos=((F(0),), (F(7),)),
        women_pref=((F(2),), (F(-1),)),
    )
    assert format_geometric(spec) == (
        "model 1d 1 2\n"
        "mpos 1: 3/2\nmpos 2: -1\n"
        "mpref 1: 1\nmpref 2: -4/5\n"
        "wpos 1: 0\nwpos 2: 7\n"
        "wpref 1: 2\nwpref 2: -1\n"
    )


def test_value_str_is_format_value():
    value = Value.trig("sin", F(1, 100)) * Value.trig("cos", F(17, 19)) + Value.rational(3)
    assert str(value) == format_value(value) == "3+1/2*cos(64/475)+-1/2*cos(147/950)"
    assert str(Value.ZERO) == "0"


@pytest.mark.parametrize("spec_type", [AttributeSpec, EuclideanSpec, OneAttributeSpec])
def test_vector_spec_shape_errors_name_the_block(spec_type):
    one = Value.ONE if spec_type is AttributeSpec else F(1)
    k = 1 if spec_type is OneAttributeSpec else 2
    vec = (one,) * k
    good = (vec,) * 2
    blocks = dict(men_pos=good, men_pref=good, women_pos=good, women_pref=good)
    spec_type(k, 2, **blocks)
    for block in blocks:
        for bad in (good[:1], good + good[:1], (vec[1:], vec)):
            with pytest.raises(ValueError, match=rf"\b{block}\b"):
                spec_type(k, 2, **dict(blocks, **{block: bad}))
    if spec_type is OneAttributeSpec:
        wide = ((one, one),) * 2
        with pytest.raises(ValueError, match="the 1d model has k = 1"):
            spec_type(2, 2, wide, wide, wide, wide)


@pytest.mark.parametrize("spec_type", [AttributeSpec, EuclideanSpec, OneAttributeSpec])
@pytest.mark.parametrize("value", [0, -1])
def test_vector_spec_rejects_nonpositive_k(spec_type, value):
    # `value` is tried as k and then as n; the 1d model refuses any k but 1
    empty = ((),)
    k_message = "the 1d model has k = 1" if spec_type is OneAttributeSpec else "k must be positive"
    with pytest.raises(ValueError, match=k_message):
        spec_type(value, 1, empty, empty, empty, empty)
    with pytest.raises(ValueError, match="n must be positive"):
        spec_type(1, value, (), (), (), ())


def test_attribute_spec_makes_rational_coordinates_values():
    # products read the terms of a Value, so an int coordinate becomes one
    spec = AttributeSpec(1, 1, ((1,),), ((1,),), ((1,),), ((1,),))
    assert spec.men_pos == ((Value.ONE,),)
    assert instance_from_dot(spec) == Instance(1, ((1,),), ((1,),))


def test_attribute_spec_of_ints_equals_its_value_twin():
    # and a rational spec of rational Values equals its Fraction twin
    ints = dict(
        men_pos=((1, 0), (0, 1)),
        men_pref=((2, F(1, 3)), (-1, 4)),
        women_pos=((3, 1), (1, 3)),
        women_pref=((1, 2), (F(-5, 2), 1)),
    )
    fractions = dict(
        men_pos=((F(1, 2),), (F(3),)),
        men_pref=((F(1),), (F(-2),)),
        women_pos=((F(0),), (F(7, 3),)),
        women_pref=((F(-1, 4),), (F(5),)),
    )
    for spec_type, build, k, blocks in (
        (AttributeSpec, instance_from_dot, 2, ints),
        (EuclideanSpec, instance_from_euclidean, 1, fractions),
        (OneAttributeSpec, instance_from_1attribute, 1, fractions),
    ):
        values = {
            name: tuple(tuple(Value.rational(x) for x in vec) for vec in block)
            for name, block in blocks.items()
        }
        spec = spec_type(k, 2, **blocks)
        twin = spec_type(k, 2, **values)
        assert spec == twin
        assert build(spec) == build(twin)
