import random

from hypothesis import given, settings, strategies as st

from conftest import brute_force_stable_matchings, lattice_meet_join, random_instance
from stablecount import (
    Instance,
    Matching,
    Side,
    blocking_pairs,
    is_stable,
    propose_optimal,
)


TWO_STABLE = Instance(2, ((1, 2), (2, 1)), ((2, 1), (1, 2)))


def definitional_blocking(inst, matching):
    # straight from the definition: both strictly prefer each other
    out = []
    husbands = matching.husbands()
    for m in range(1, inst.n + 1):
        for w in range(1, inst.n + 1):
            if matching.wives[m - 1] == w:
                continue
            man_wants = inst.man_rank(m, w) < inst.man_rank(m, matching.wives[m - 1])
            woman_wants = inst.woman_rank(w, m) < inst.woman_rank(w, husbands[w - 1])
            if man_wants and woman_wants:
                out.append((m, w))
    return out


def test_trivial_instance():
    inst = Instance(1, ((1,),), ((1,),))
    assert propose_optimal(inst, Side.MAN) == Matching((1,))
    assert propose_optimal(inst, Side.WOMAN) == Matching((1,))
    assert blocking_pairs(inst, Matching((1,))) == []


def test_two_by_two_optima_differ():
    assert propose_optimal(TWO_STABLE, Side.MAN) == Matching((1, 2))
    assert propose_optimal(TWO_STABLE, Side.WOMAN) == Matching((2, 1))


def test_propose_optimal_rejects_a_side_that_is_not_a_side():
    import pytest

    with pytest.raises(ValueError, match="got 'm'"):
        propose_optimal(TWO_STABLE, "m")


def test_woman_side_equals_transposed_man_side():
    rng = random.Random(11)
    corpus = [random_instance(rng, n) for n in range(1, 8) for _ in range(20)]
    corpus += [random_instance(rng, 60) for _ in range(4)]
    for inst in corpus:
        old_route = Matching(propose_optimal(inst.transposed(), Side.MAN).husbands())
        assert propose_optimal(inst, Side.WOMAN) == old_route


def test_blocking_matches_definitional_oracle():
    rng = random.Random(7)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(1, 5))
        perm = tuple(rng.sample(range(1, inst.n + 1), inst.n))
        matching = Matching(perm)
        got = sorted(blocking_pairs(inst, matching))
        assert got == sorted(definitional_blocking(inst, matching))


def test_identity_matching_blocking_two_by_two():
    inst = TWO_STABLE
    matching = Matching((1, 2))
    assert blocking_pairs(inst, matching) == definitional_blocking(inst, matching)


def test_gs_output_is_stable():
    rng = random.Random(11)
    for _ in range(40):
        inst = random_instance(rng, rng.randint(1, 7))
        for side in (Side.MAN, Side.WOMAN):
            assert blocking_pairs(inst, propose_optimal(inst, side)) == []


def test_optima_are_extreme():
    rng = random.Random(13)
    for _ in range(20):
        inst = random_instance(rng, rng.randint(1, 6))
        mopt = propose_optimal(inst, Side.MAN)
        wopt = propose_optimal(inst, Side.WOMAN)
        for s in brute_force_stable_matchings(inst):
            for m in range(1, inst.n + 1):
                lo, mid, hi = mopt.wives[m - 1], s.wives[m - 1], wopt.wives[m - 1]
                assert inst.man_rank(m, lo) <= inst.man_rank(m, mid) <= inst.man_rank(m, hi)


def test_meet_join_idempotent():
    m = propose_optimal(TWO_STABLE, Side.MAN)
    assert lattice_meet_join(TWO_STABLE, m, m) == (m, m)


def test_meet_join_rejects_unstable_input():
    import pytest

    unstable = Matching((2, 1))  # both men and women prefer the identity
    stable = propose_optimal(TWO_STABLE, Side.MAN)
    inst = Instance(2, ((1, 2), (2, 1)), ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        lattice_meet_join(inst, stable, unstable)


def test_meet_join_with_bottom():
    rng = random.Random(17)
    for _ in range(10):
        inst = random_instance(rng, rng.randint(1, 6))
        bottom = propose_optimal(inst, Side.MAN)
        top = propose_optimal(inst, Side.WOMAN)
        for x in brute_force_stable_matchings(inst):
            assert lattice_meet_join(inst, bottom, x) == (x, bottom)
            assert lattice_meet_join(inst, top, x) == (top, x)


def test_meet_join_closed_under_stability():
    rng = random.Random(19)
    for _ in range(15):
        inst = random_instance(rng, rng.randint(1, 6))
        stable = brute_force_stable_matchings(inst)
        for x in stable:
            for y in stable:
                hi, lo = lattice_meet_join(inst, x, y)
                assert hi in stable
                assert lo in stable


@st.composite
def instances(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    perm = st.permutations(range(1, n + 1))
    men = tuple(tuple(draw(perm)) for _ in range(n))
    women = tuple(tuple(draw(perm)) for _ in range(n))
    return Instance(n, men, women)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_property_gs_stable_both_sides(inst):
    assert is_stable(inst, propose_optimal(inst, Side.MAN))
    assert is_stable(inst, propose_optimal(inst, Side.WOMAN))


@settings(max_examples=40, deadline=None)
@given(instances(max_n=4))
def test_property_every_stable_dominated(inst):
    mopt = propose_optimal(inst, Side.MAN)
    for s in brute_force_stable_matchings(inst):
        _, lo = lattice_meet_join(inst, mopt, s)
        assert lo == mopt
