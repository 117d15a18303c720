import random
from fractions import Fraction

import pytest

import stablecount.geometry
from conftest import (
    GRAPH_3X4,
    brute_force_stable_matchings,
    dot_instance_oracle,
    pairwise_dot,
    random_1attribute,
    random_bipartite,
)
from stablecount import (
    AttributeSpec,
    EuclideanSpec,
    OneAttributeSpec,
    ParseError,
    TieDetected,
    compare_values,
    count_1attribute,
    find_all_rotations,
    format_geometric,
    gen_3attribute,
    induced_instance,
    instance_from_1attribute,
    instance_from_dot,
    instance_from_euclidean,
    parse_geometric,
    rotation_poset,
)
from stablecount.geometry import Value, _dot, format_value, parse_value


F = Fraction


def test_value_rational_arithmetic():
    a = Value.rational(F(1, 3))
    b = Value.rational(F(2, 3))
    assert (a + b).as_fraction() == 1
    assert (a - a).is_zero()
    assert (a * b).as_fraction() == F(2, 9)


def test_trig_quarter_turn_folds():
    assert Value.trig("cos", F(0)).as_fraction() == 1
    assert Value.trig("cos", F(1, 4)).is_zero()
    assert Value.trig("cos", F(1, 2)).as_fraction() == -1
    assert Value.trig("sin", F(0)).is_zero()
    assert Value.trig("sin", F(1, 4)).as_fraction() == 1
    assert Value.trig("sin", F(3, 4)).as_fraction() == -1


def test_trig_reflection_identities():
    q = F(1, 7)
    assert (Value.trig("cos", 1 - q) - Value.trig("cos", q)).is_zero()
    assert (Value.trig("sin", 1 - q) + Value.trig("sin", q)).is_zero()


def test_unit_circle_norm_is_symbolically_one():
    for q in (F(1, 7), F(3, 11), F(5, 8), F(123, 997)):
        x, y = Value.trig("cos", q), Value.trig("sin", q)
        assert (x * x + y * y - Value.ONE).is_zero()


def test_tilted_sphere_point_norm_is_symbolically_one():
    phi, q = F(1, 100), F(17, 19)
    x = Value.trig("sin", phi) * Value.trig("cos", q)
    y = Value.trig("sin", phi) * Value.trig("sin", q)
    z = Value.trig("cos", phi)
    assert (x * x + y * y + z * z - Value.ONE).is_zero()


def test_compare_values_signs():
    assert compare_values(Value.rational(1), Value.rational(2)) == -1
    assert compare_values(Value.trig("cos", F(1, 8)), Value.rational(0)) == 1
    assert compare_values(Value.trig("cos", F(1, 7)), Value.trig("cos", F(1, 7))) == 0
    # cos(1/8) = sin(1/8) exactly but the representations differ; the
    # interval loop must give up rather than guess
    with pytest.raises(TieDetected):
        compare_values(Value.trig("cos", F(1, 8)), Value.trig("sin", F(1, 8)))


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


def test_format_value_round_trip():
    for tok in ("0", "5/2", "cos(1/9)", "sin(2/7)"):
        assert parse_value(format_value(parse_value(tok))) == parse_value(tok)


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


def test_single_merge_dot_matches_pairwise_sum():
    rng = random.Random(7)

    def random_value():
        total = Value.ZERO
        for _ in range(rng.randint(0, 3)):
            term = Value.rational(F(rng.randint(-5, 5), rng.randint(1, 4)))
            for _ in range(rng.randint(0, 3)):
                kind = rng.choice(("cos", "sin"))
                term = term * Value.trig(kind, F(rng.randint(1, 6), 7))
            total = total + term
        return total

    for _ in range(200):
        k = rng.randint(1, 4)
        u = [random_value() for _ in range(k)]
        v = [random_value() for _ in range(k)]
        assert _dot(u, v).terms == pairwise_dot(u, v).terms


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

    # 4**80 + cos(1/q): at 128 bits every enclosure is wider than the gaps
    # between the scores, so only exact comparisons can order them
    big = Value.rational(4**80)
    near = [big + cos(q) for q in (7, 5, 11, 9)]
    inst = instance_from_dot(_ranked_by_one_attribute(near))
    assert inst.men_prefs[0] == (3, 4, 1, 2)
    assert calls

    # this score is cos(1/5) ~ 0.31, but at 128 bits its enclosure spans
    # more than 10**22 on each side, so it overlaps both points below it
    wide = (
        Value.rational(2**200) * (cos(7) + Value.trig("cos", F(2, 7)) + Value.trig("cos", F(3, 7)))
        + Value.rational(2**199)
        + cos(5)
    )
    inst = instance_from_dot(
        _ranked_by_one_attribute([wide, Value.rational(2), Value.rational(1)])
    )
    assert inst.men_prefs[0] == (2, 3, 1)

    with pytest.raises(TieDetected, match="score exactly alike"):
        instance_from_dot(_ranked_by_one_attribute(near[:3] + near[1:2]))


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


def test_1attribute_lists_are_reverses():
    rng = random.Random(61)
    for _ in range(20):
        spec = random_1attribute(rng, rng.randint(2, 7))
        inst = instance_from_1attribute(spec)
        signs = [p > 0 for _, p in spec.men]
        for i in range(spec.n):
            for j in range(spec.n):
                if signs[i] != signs[j]:
                    assert inst.men_prefs[i] == inst.men_prefs[j][::-1]
                else:
                    assert inst.men_prefs[i] == inst.men_prefs[j]


def test_1attribute_rejects_zero_preference():
    with pytest.raises(ValueError):
        OneAttributeSpec(1, ((F(1), F(0)),), ((F(1), F(1)),))


def test_1attribute_detects_duplicate_attribute():
    spec = OneAttributeSpec(
        2, ((F(1), F(1)), (F(1), F(1))), ((F(1), F(1)), (F(2), F(1)))
    )
    with pytest.raises(TieDetected):
        instance_from_1attribute(spec)


def test_count_1attribute_trivial():
    assert count_1attribute(OneAttributeSpec(1, ((F(3), F(1)),), ((F(5), F(-2)),))) == 1


def test_count_1attribute_aligned_signs_unique():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(1, 6)
        msign = rng.choice([-1, 1])
        wsign = rng.choice([-1, 1])
        spec = OneAttributeSpec(
            n,
            tuple((F(a), F(msign)) for a in rng.sample(range(-50, 50), n)),
            tuple((F(a), F(wsign)) for a in rng.sample(range(-50, 50), n)),
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
            for m in rot.men():
                assert ("m", m) not in people
                people.add(("m", m))
            for w in rot.women():
                assert ("w", w) not in people
                people.add(("w", w))
        rposet = rotation_poset(inst)
        k = len(rposet)
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert rposet.precedes(i, j) or rposet.precedes(j, i)


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
    assert spec.men == ((F(4), F(1)),)


def test_parse_geometric_rejects_trig_in_euclid():
    text = "model euclid 1 1\nmpos 1: cos(1/8)\nmpref 1: 1\nwpos 1: 2\nwpref 1: 3\n"
    with pytest.raises(ParseError):
        parse_geometric(text)


def test_parse_geometric_errors():
    with pytest.raises(ParseError):
        parse_geometric("")
    with pytest.raises(ParseError):
        parse_geometric("model dot 1 1\nmpos 1: 1\n")  # missing rows
    with pytest.raises(ParseError):
        parse_geometric("model 1d 2 1\n")  # 1d must have k = 1


def test_format_geometric_round_trip():
    rng = random.Random(79)
    spec = random_1attribute(rng, 4)
    assert parse_geometric(format_geometric(spec)) == spec
    dot = parse_geometric(GEO_TEXT)
    assert parse_geometric(format_geometric(dot)) == dot
