import random
import time
from fractions import Fraction

import pytest

from conftest import (
    GRAPH_3X4,
    brute_force_stable_matchings,
    dot_instance_oracle,
    euclidean_instance_oracle,
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
from stablecount.geometry import compare_values, parse_value


F = Fraction


def test_value_rational_arithmetic():
    # a coordinate token is a sum of products, evaluated in Fractions
    assert parse_value("1/3+2/3") == 1
    assert parse_value("1/3+-1/3") == 0
    assert parse_value("1/3*2/3") == F(2, 9)
    assert parse_value("2*0.5+pow(3,-1)*3") == 2


def test_compare_values_signs():
    assert compare_values(F(1), F(2)) == -1
    assert compare_values(F(2), F(1)) == 1
    assert compare_values(F(1, 3), F(2, 6)) == 0
    assert compare_values(F(1, 3**200), F(0)) == 1
    assert compare_values(parse_value("-1/4+-1/4"), F(-1, 2)) == 0


def test_difference_of_two_to_the_minus_5000_is_ordered():
    x = F(1, 7)
    y = x * (1 + F(1, 2**5000))
    assert compare_values(y, x) == 1
    assert compare_values(x, y) == -1
    # men rank the women by descending position: woman 2 by 2**-5000
    inst = instance_from_dot(_ranked_by_one_attribute([x, y]))
    assert inst.men_prefs == ((2, 1),) * 2


def test_huge_prime_denominator_is_decided_at_once():
    # the Mersenne prime P = 2**127 - 1 as a denominator beside 2**200:
    # scaled by their lcm, a 2**-200 relative nudge is ordered and an
    # exact tie of two different positions is found
    q = F(1, 2**127 - 1)
    start = time.perf_counter()
    inst = instance_from_dot(_ranked_by((F(1), F(1)), [(q, F(0)), (q, q / 2**200)]))
    assert inst.men_prefs == ((2, 1),) * 2
    with pytest.raises(TieDetected, match="man 1: candidates 1 and 2 score exactly alike"):
        instance_from_dot(_ranked_by((F(1), F(1)), [(q, F(1, 3)), (2 * q, F(1, 3) - q)]))
    assert time.perf_counter() - start < 1.0


def test_exact_mirror_tie_is_found_without_enclosures():
    # the man's preference (3/5, 4/5) sees women at (1, 0) and
    # (-7/25, 24/25), mirror images on the unit circle: both score 3/5
    one = (F(1), F(0))
    spec = AttributeSpec(
        2,
        3,
        men_pos=(one,) * 3,
        men_pref=((F(3, 5), F(4, 5)), one, one),
        women_pos=(one, (F(0), F(1)), (F(-7, 25), F(24, 25))),
        women_pref=(one,) * 3,
    )
    with pytest.raises(TieDetected) as err:
        instance_from_dot(spec)
    assert str(err.value) == "man 1: candidates 1 and 3 score exactly alike"
    assert err.value.person == "man 1"
    assert err.value.candidates == (1, 3)


def test_tie_messages_name_person_and_candidates():
    one, two = F(1), F(2)
    spec = AttributeSpec(
        1, 3,
        men_pos=((one,), (two,), (one,)),
        men_pref=((one,),) * 3,
        women_pos=((one,), (two,), (F(3),)),
        women_pref=((one,), (one,), (one,)),
    )
    with pytest.raises(TieDetected) as err:
        instance_from_dot(spec)
    assert str(err.value) == "woman 1: candidates 1 and 3 score exactly alike"

    # -1/4 + -1/4 = -1/2, a tie between a sum token and a plain rational
    spec = AttributeSpec(
        1, 2,
        men_pos=((one,), (two,)),
        men_pref=((one,), (-one,)),
        women_pos=((F(-1, 2),), (parse_value("-1/4+-1/4"),)),
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
    assert parse_value("3") == 3
    assert parse_value("-7/5") == F(-7, 5)
    assert parse_value("0.3") == F(3, 10)
    assert parse_value("pow(10,-3)") == F(1, 1000)
    assert parse_value("2*pow(2,-1)+1/2") == F(3, 2)
    for token in ("tan(1/3)", "cos(1/3)", "sin(1/5)", "2*cos(1/5)"):
        with pytest.raises(ValueError) as err:
            parse_value(token)
        assert str(err.value) == f"bad coordinate token {token.split('*')[-1]!r}"
    for token in ("1/0", "2*pow(0,-1)"):
        with pytest.raises(ValueError, match="division by zero"):
            parse_value(token)


def test_format_value_round_trip():
    # a coordinate is written as the str of its Fraction, read back as itself
    for tok in ("0", "5/2", "-0.25", "2*3/7*pow(2,-3)+pow(2,-3)"):
        value = parse_value(tok)
        assert parse_value(str(value)) == value
    assert str(parse_value("2*pow(2,-3)+1/2")) == "3/4"
    for token in ("1+", "+1", "1++1"):
        # an empty summand is named by the whole token, not by ''
        with pytest.raises(ValueError) as err:
            parse_value(token)
        assert str(err.value) == f"bad coordinate token {token!r}"
    with pytest.raises(ValueError) as err:
        parse_value("1+tan(1/3)")
    assert str(err.value) == "bad coordinate token 'tan(1/3)'"


def test_dot_model_single_attribute_monotone():
    # every man weights the single attribute positively, women sit at
    # 3 > 2 > 1: all men rank women by descending attribute
    spec = AttributeSpec(
        1,
        3,
        men_pos=((F(1),), (F(2),), (F(3),)),
        men_pref=(((F(1),),) * 3),
        women_pos=((F(3),), (F(2),), (F(1),)),
        women_pref=(((F(1),),) * 3),
    )
    inst = instance_from_dot(spec)
    assert inst.men_prefs == ((1, 2, 3),) * 3


def test_dot_model_detects_exact_tie():
    spec = AttributeSpec(
        2,
        2,
        men_pos=((F(1), F(0)),) * 2,
        men_pref=((F(1), F(1)),) * 2,
        women_pos=((F(2), F(3)),) * 2,  # identical
        women_pref=((F(1), F(2)), (F(2), F(1))),
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


def test_dot_matches_fraction_oracle_on_3attribute_scores():
    # no person's list holds two equal Fraction scores, and the integer
    # ranking is the oracle's
    rng = random.Random(8)
    graphs = [GRAPH_3X4] + [random_bipartite(rng, 8, min_edges=2) for _ in range(4)]
    for g in graphs:
        spec = gen_3attribute(g)
        for prefs, positions in (
            (spec.men_pref, spec.women_pos),
            (spec.women_pref, spec.men_pos),
        ):
            for pref in prefs:
                scores = {pairwise_dot(pref, pos) for pos in positions}
                assert len(scores) == len(positions)
        assert instance_from_dot(spec) == dot_instance_oracle(spec)


def _ranked_by_one_attribute(women):
    # every man weights the single attribute by 1, so men rank the women by
    # descending position
    one = (F(1),)
    n = len(women)
    return AttributeSpec(
        1,
        n,
        men_pos=tuple((F(i),) for i in range(1, n + 1)),
        men_pref=(one,) * n,
        women_pos=tuple((w,) for w in women),
        women_pref=(one,) * n,
    )


def _ranked_by(pref, women):
    # every man has the preference vector pref; the women rank the men by
    # their first coordinate
    k, n = len(pref), len(women)
    axis = (F(1),) + (F(0),) * (k - 1)
    return AttributeSpec(
        k,
        n,
        men_pos=tuple((F(i),) + axis[1:] for i in range(1, n + 1)),
        men_pref=(pref,) * n,
        women_pos=tuple(women),
        women_pref=(axis,) * n,
    )


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


def _lifted(spec: EuclideanSpec) -> AttributeSpec:
    # the paraboloid lift: a position q becomes (q, |q|^2) and an ideal
    # point p the preference vector (2p, -1)
    def position(q):
        return (*q, sum(x * x for x in q))

    def preference(p):
        return (*(2 * x for x in p), -1)

    return AttributeSpec(
        spec.k + 1, spec.n,
        [position(q) for q in spec.men_pos], [preference(p) for p in spec.men_pref],
        [position(q) for q in spec.women_pos], [preference(p) for p in spec.women_pref],
    )


def test_paraboloid_lift_keeps_instance_and_ties():
    # 2 p.q - |q|^2 = |p|^2 - |p - q|^2: the dot model ranks the lift as
    # the Euclidean model ranks the spec, and ties on the same pair first
    rng = random.Random(41)
    ties = 0
    for _ in range(300):
        k, n = rng.randint(1, 3), rng.randint(1, 5)
        blocks = (
            [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(n)] for _ in range(4)
        )
        spec = EuclideanSpec(k, n, *blocks)
        try:
            want = instance_from_euclidean(spec)
        except TieDetected as exc:
            ties += 1
            with pytest.raises(TieDetected) as err:
                instance_from_dot(_lifted(spec))
            assert (err.value.person, err.value.candidates) == (exc.person, exc.candidates)
        else:
            assert instance_from_dot(_lifted(spec)) == want
    assert 30 <= ties <= 270  # both outcomes occur
    # the 3-attribute generator is exactly this lift of the Euclidean one
    assert gen_3attribute(GRAPH_3X4) == _lifted(gen_2euclidean(GRAPH_3X4))


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
mpref 1: 3/5 4/5
wpos 1: 1/2 0.5
wpref 1: pow(2,-1) 1
"""


def test_parse_geometric_dot():
    spec = parse_geometric(GEO_TEXT)
    assert isinstance(spec, AttributeSpec)
    assert spec.k == 2 and spec.n == 1
    assert spec.men_pref[0] == (F(3, 5), F(4, 5))
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
    assert str(err.value) == "line 2: bad coordinate token 'cos(1/8)'"


def test_rational_specs_refuse_trig_coordinates():
    # every coordinate is a Fraction, and the text of a cosine is none
    blocks = dict(men_pos=((1,),), men_pref=((2,),), women_pos=((3,),), women_pref=(("cos(1/8)",),))
    for spec_type in (AttributeSpec, EuclideanSpec, OneAttributeSpec):
        with pytest.raises(ValueError, match=r"^women_pref: .*'cos\(1/8\)'"):
            spec_type(1, 1, **blocks)


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
        ("model dot 1 1\nmpos 1: cos(1/5)\n", "line 2: bad coordinate token 'cos(1/5)'"),
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
    attr3 = gen_3attribute(GRAPH_3X4)  # decimal fractions and their squares
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


@pytest.mark.parametrize("spec_type", [AttributeSpec, EuclideanSpec, OneAttributeSpec])
def test_vector_spec_shape_errors_name_the_block(spec_type):
    one = F(1)
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
    # an int coordinate becomes a Fraction, in every spec type
    spec = AttributeSpec(1, 1, ((1,),), ((1,),), ((1,),), ((1,),))
    assert spec.men_pos == ((F(1),),) and type(spec.men_pos[0][0]) is F
    assert instance_from_dot(spec) == Instance(1, ((1,),), ((1,),))


def test_attribute_spec_of_ints_equals_its_value_twin():
    # a spec of ints and Fractions equals its twin of Fractions only
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
            name: tuple(tuple(F(x) for x in vec) for vec in block)
            for name, block in blocks.items()
        }
        spec = spec_type(k, 2, **blocks)
        twin = spec_type(k, 2, **values)
        assert spec == twin
        assert build(spec) == build(twin)
