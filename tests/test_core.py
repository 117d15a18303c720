import random
import sys
import time

import pytest

import stablecount
from conftest import random_instance
from stablecount import (
    Instance,
    Matching,
    ParseError,
    format_instance,
    format_matching,
    parse_bipartite,
    parse_geometric,
    parse_instance,
    parse_matching,
    parse_rotation,
)


SMALL = """\
n 2
m 1: 1 2
m 2: 2 1
w 1: 2 1
w 2: 1 2
"""


def test_parse_smallest():
    inst = parse_instance("n 1\nm 1: 1\nw 1: 1\n")
    assert inst.n == 1
    assert inst.men_prefs == ((1,),)
    assert inst.women_prefs == ((1,),)


def test_parse_two_by_two():
    inst = parse_instance(SMALL)
    assert inst.n == 2
    assert inst.men_prefs == ((1, 2), (2, 1))
    assert inst.women_prefs == ((2, 1), (1, 2))


def test_parse_rejects_duplicate_entry():
    with pytest.raises(ParseError, match="permutation"):
        parse_instance("n 2\nm 1: 1 1\nm 2: 2 1\nw 1: 2 1\nw 2: 1 2\n")


def test_parse_rejects_missing_line():
    with pytest.raises(ParseError):
        parse_instance("n 2\nm 1: 1 2\nw 1: 2 1\nw 2: 1 2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 100000000\n", "missing m lines: 1 and 199999999 more"),
        ("n 100000000\nm 1: 2 1\n", "line 2: preference list must be a permutation of 1..100000000"),
        ("n 100000000\nm 1: x\n", "line 2: indices must be integers"),
        ("n 2\nm 1: 1 2\nm 2: 2 1\nw 2: 1 2\n", "missing w lines: 1"),
        ("n 3\nm 2: 1 2 3\nw 3: 1 2 3\n", "missing m lines: 1 and 3 more"),
        ("n 2\nm 1: 1 2\nw 2: 1 2\n", "missing m lines: 2 and 1 more"),
        ("n 0\n", "line 1: N must be a positive integer"),
        ("n 100000000\nx 1: 1\n", "line 2: expected 'm|w i: ...'"),
        ("n 100000000\n# c\nm 1 1 2\n", "line 3: expected 'm|w i: ...'"),
        ("n 100000000\nm: 1\n", "line 2: expected 'm|w i: ...'"),
        ("n 100000000\nw x: 1\n", "line 2: index must be an integer"),
        ("n 100000000\nw 100000001: 1\n", "line 2: index 100000001 out of range 1..100000000"),
        ("n 100000000\nm 0: 1\n", "line 2: index 0 out of range 1..100000000"),
        ("n 100000000\nm +1: 1\n", "line 2: index must be an integer"),
        ("n 100000000\n# c\nw 1_0: 1\n", "line 3: index must be an integer"),
        ("n 1\nw 1: 1\n# c\nw 1: 1\n", "line 4: duplicate w 1"),
        ("n 2\nm 1: 1 2\nm 2: 2 1\nw 1: 2 1\nm 2: 1 2\n", "line 5: duplicate m 2"),
    ],
)
def test_parse_huge_n_is_cheap(text, message):
    # nothing is sized by n before a list of n entries arrives, and the
    # error names the first missing list and the count only
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == message


@pytest.mark.parametrize("size", ["\u00b3", "x", "-1", "2.0", ""])
def test_parse_pins_bad_header_message(size):
    # a superscript digit passes str.isdigit but not int(), so the header
    # check must use isdecimal; an empty size leaves a one-word header
    with pytest.raises(ParseError) as err:
        parse_instance(f"n {size}\nm 1: 1\nw 1: 1\n")
    message = "N must be a positive integer" if size else "expected header 'n N'"
    assert str(err.value) == f"line 1: {message}"
    assert err.value.line == 1


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_instance, "n \u0662\n", "line 1: N must be a positive integer"),
        (parse_instance, "n 3\n# c\nm 1: 1 2 \u0663\n", "line 3: indices must be integers"),
        (parse_instance, "n 3\nw \u0661: 1 2 3\n", "line 2: index must be an integer"),
        (parse_bipartite, "bis \uff12 1\n", "line 1: n1 must be a positive integer"),
        (parse_bipartite, "bis 1 1\ne \u0968 1\n", "line 2: indices must be integers"),
        (parse_rotation, "# c\nrot \u0661: (1,2) (2,1)\n", "line 2: index must be an integer"),
        (parse_rotation, "rot 1: (\u0661,2) (2,1)\n", "line 1: bad pair token '(\u0661,2)'"),
        (parse_matching, "pair 1 1\npair \u0661 2\n", "line 2: indices must be integers"),
    ],
    ids=["n", "entry", "index", "bis", "e", "rot", "rot-pair", "pair"],
)
def test_numbers_are_ascii_digits(parse, text, message):
    # other scripts' decimal digits pass str.isdecimal and int(), and are refused
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGITS, reason="the interpreter reads numerals of any length")
@pytest.mark.parametrize(
    "parse, header",
    [(parse_instance, "n {}"), (parse_bipartite, "bis 1 {}"), (parse_geometric, "model dot 1 {}")],
    ids=["n", "bis", "model"],
)
def test_header_size_past_the_int_string_limit(parse, header):
    # isdecimal() passes and int() refuses: the size's line stays on the error
    digits = _INT_DIGITS + 1
    with pytest.raises(ParseError) as err:
        parse("# c\n" + header.format("1" * digits) + "\n")
    assert str(err.value) == f"line 2: a number of {digits} digits is too long"
    assert err.value.line == 2


def test_parse_rejects_out_of_range():
    with pytest.raises(ParseError):
        parse_instance("n 1\nm 1: 2\nw 1: 1\n")


def _instance_text(n, men, women):
    return f"n {n}\n" + "".join(
        f"{side} {i}: " + " ".join(lst) + "\n"
        for side, lists in (("m", men), ("w", women))
        for i, lst in enumerate(lists, start=1)
    )


def _lists_500():
    ident = [str(i) for i in range(1, 501)]
    return [list(ident) for _ in range(500)], [list(ident) for _ in range(500)]


@pytest.mark.parametrize(
    "head, message",
    [
        (["0"], "preference list must be a permutation of 1..500"),
        (["501"], "preference list must be a permutation of 1..500"),
        (["-1"], "indices must be integers"),
        (["x"], "indices must be integers"),
        (["2"], "preference list must be a permutation of 1..500"),  # 2 twice
        ([], "preference list must be a permutation of 1..500"),  # 1 missing
        (["+1"], "indices must be integers"),
        (["1_0"], "indices must be integers"),
    ],
)
def test_parse_pins_bad_token_message_and_line(head, message):
    men, women = _lists_500()
    women[6][:1] = head  # line 1 is the header, so w 7 is line 508
    with pytest.raises(ParseError) as err:
        parse_instance(_instance_text(500, men, women))
    assert str(err.value) == f"line 508: {message}"
    assert err.value.line == 508


def test_parse_reads_non_canonical_numerals():
    men, women = _lists_500()
    men[1][2] = "03"
    women[4][2] = "003"
    inst = parse_instance(_instance_text(500, men, women))
    assert inst.men_prefs[1][2] == inst.women_prefs[4][2] == 3
    assert inst == Instance(500, (tuple(range(1, 501)),) * 500, (tuple(range(1, 501)),) * 500)


def _ranks(inst):
    return inst._men_rank, inst._women_rank


def test_parsed_rank_tables_match_constructor():
    # Instance equality ignores the rank tables, so compare them directly
    rng = random.Random(7)
    for n in (1, 2, 3, 5, 8, 13, 40):
        inst = random_instance(rng, n)
        parsed = parse_instance(format_instance(inst))
        assert parsed == inst
        assert _ranks(parsed) == _ranks(Instance(n, inst.men_prefs, inst.women_prefs))
    men, women = [["2", "1", "3"], ["1", "2", "3"], ["3", "2", "1"]], [["1", "3", "2"]] * 3
    men[0][2], women[1][1] = "03", "003"
    parsed = parse_instance(_instance_text(3, men, women))
    lists = [tuple(map(int, lst)) for lst in men], [tuple(map(int, lst)) for lst in women]
    assert _ranks(parsed) == _ranks(Instance(3, *lists))


def test_parse_reports_permutation_error_before_later_duplicate():
    text = "n 2\nm 1: 1 2\nw 1: 1 1\nm 1: 2 1\nw 2: 1 2\nm 2: 1 2\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == "line 3: preference list must be a permutation of 1..2"
    # the same lists in the other order report the duplicate first
    text = "n 2\nm 1: 1 2\nm 1: 2 1\nw 1: 1 1\nw 2: 1 2\nm 2: 1 2\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == "line 3: duplicate m 1"


def test_parse_ignores_comments_and_blanks():
    text = "# a comment\n\nn 1\nm 1: 1  # trailing\nw 1: 1\n"
    assert parse_instance(text).n == 1


# every character other than \n and \r at which str.splitlines ends a line
SPLITLINES_ONLY = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", SPLITLINES_ONLY)
def test_lines_end_only_at_newline_or_return(sep):
    # the rest of a comment after the character is still comment
    text = f"n 1\nm 1: 1\n# note{sep}w 1: 2\nw 1: 1\n"
    assert parse_instance(text) == Instance(1, ((1,),), ((1,),))
    # and the character starts no line, so line numbers match an editor's
    text = f"# head{sep}er\nbis 2 2\n\ne 1 1\n\ne 1 x\n"
    with pytest.raises(ParseError) as err:
        parse_bipartite(text)
    assert str(err.value) == "line 6: indices must be integers"


# whitespace that str.split() separates tokens at, besides space and tab
OTHER_SPACES = ["\u3000", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f", "\v", "\f", "\x85"]


@pytest.mark.parametrize("space", OTHER_SPACES)
def test_tokens_split_only_at_space_and_tab(space):
    # inside a comment the character is free, outside it is a bad token
    text = f"n 2\nm 1:\t2 1 # a{space}note\nm 2: 1{space}2\nw 1: 1 2\nw 2: 2 1\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == f"line 3: bad token {'1' + space + '2'!r}"
    with pytest.raises(ParseError) as err:
        parse_bipartite(f"bis 1 1\ne 1{space}1\n")
    assert str(err.value) == f"line 2: bad token {'1' + space + '1'!r}"
    # at the end of a line too, where strip() would drop it
    with pytest.raises(ParseError) as err:
        parse_instance(f"n 1{space}\nm 1: 1\nw 1: 1\n")
    assert str(err.value) == f"line 1: bad token {'1' + space!r}"
    assert parse_instance(text.replace(f"1{space}2", "1 \t2")).n == 2


def test_lines_end_at_each_newline_convention():
    for eol in ("\n", "\r\n", "\r"):
        text = eol.join(["n 1", "m 1: 1 # c", "", "w 1: x", ""])
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == "line 4: indices must be integers"


def test_format_round_trip():
    inst = parse_instance(SMALL)
    assert parse_instance(format_instance(inst)) == inst


def test_rank_reads_off_list():
    inst = Instance(2, ((1, 2), (2, 1)), ((2, 1), (1, 2)))
    assert inst.man_rank(1, 2) == 2
    assert inst.man_rank(1, 1) == 1
    assert inst.woman_rank(1, 2) == 1
    assert inst.man_rank(2, 2) == 1
    assert inst.woman_rank(2, 1) == 1


def test_prefers_follows_list_order():
    inst = Instance(3, ((3, 1, 2),) * 3, ((1, 2, 3),) * 3)
    assert inst.man_rank(1, 3) < inst.man_rank(1, 1)
    assert not inst.man_rank(1, 2) < inst.man_rank(1, 3)


def test_prefers_antisymmetry():
    inst = Instance(3, ((3, 1, 2),) * 3, ((2, 3, 1),) * 3)
    for rank in (inst.man_rank, inst.woman_rank):
        for p in range(1, 4):
            for a in range(1, 4):
                for b in range(1, 4):
                    if a != b:
                        assert (rank(p, a) < rank(p, b)) != (rank(p, b) < rank(p, a))


def test_transposed_swaps_sides():
    inst = parse_instance(SMALL)
    t = inst.transposed()
    assert t.men_prefs == inst.women_prefs
    assert t.transposed() == inst
    rebuilt = Instance(inst.n, inst.women_prefs, inst.men_prefs)
    assert t == rebuilt
    assert (t._men_rank, t._women_rank) == (rebuilt._men_rank, rebuilt._women_rank)
    assert t._men_rank is inst._women_rank  # swapped, not rebuilt


@pytest.mark.parametrize(
    "lists, message",
    [
        (((1, 2),), "expected 2 man preference lists, got 1"),
        (((1, 2), (2, 1), (1, 2)), "expected 2 man preference lists, got 3"),
        (((1, 2, 3), (1, 2)), "man 1: preference list must be a permutation of 1..2"),
        (((1, 2), (1,)), "man 2: preference list must be a permutation of 1..2"),
        (((1, 3), (2, 1)), "man 1: preference list must be a permutation of 1..2"),
        (((1, 1), (2, 1)), "man 1: preference list must be a permutation of 1..2"),
        # 0 lands in the unused first slot of the row and -1 in its last
        # one, so neither leaves a slot empty: the lower bound rejects them
        (((0, 1), (2, 1)), "man 1: preference list must be a permutation of 1..2"),
        (((1, 2), (1, -1)), "man 2: preference list must be a permutation of 1..2"),
        ((("a", 2), (2, 1)), "man 1: preference list must be a permutation of 1..2"),
    ],
)
def test_instance_rejects_non_permutations(lists, message):
    with pytest.raises(ValueError) as err:
        Instance(2, lists, ((1, 2), (2, 1)))
    assert str(err.value) == message


def test_matching_accessors():
    m = Matching((2, 1))
    assert m.husbands() == (2, 1)
    assert m.pairs() == ((1, 2), (2, 1))
    assert Matching.from_pairs(2, [(2, 1), (1, 2)]) == m


def test_matching_rejects_non_bijection():
    with pytest.raises(ValueError):
        Matching((1, 1))


def test_matching_parse_format():
    m = parse_matching("pair 1 2\npair 2 1\n", n=2)
    assert m == Matching((2, 1))
    assert parse_matching(format_matching(m)) == m


def test_matching_parse_rejects_incomplete():
    with pytest.raises(ParseError):
        parse_matching("pair 1 2\n", n=2)


@pytest.mark.parametrize(
    "text, message",
    [
        ("pair 1 2\npair 2\n", "line 2: expected 'pair m w'"),
        ("# c\npear 1 2\n", "line 2: expected 'pair m w'"),
        ("pair 1 x\n", "line 1: indices must be integers"),
        ("pair 1 3\npair 2 1\n", "line 1: pair (1,3) out of range 1..2"),
        ("pair 1 1\npair 1 2\n", "line 2: man 1 matched twice"),
        ("pair 1 2\n\n# c\npair 2 3\n", "line 4: pair (2,3) out of range 1..2"),
        ("pair 1 1\npair 2 1\n", "matching must pair every man with a distinct woman"),
        ("pair 1 1\npair +2 2\n", "line 2: indices must be integers"),
        ("pair 1 -1\n", "line 1: indices must be integers"),
    ],
)
def test_parse_matching_pins_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_matching(text, n=2)
    assert str(err.value) == message


def test_instance_needs_a_person():
    with pytest.raises(ValueError) as err:
        Instance(0, (), ())
    assert str(err.value) == "instance needs at least one person per side"


def test_public_names_are_pinned():
    # a removal must show here and in README's "Removed API"
    assert set(stablecount.__all__) == {
        "AttributeSpec", "BipartiteGraph", "CyclePair", "EuclideanSpec",
        "Instance", "MEMO_BUDGET", "Matching", "OneAttributeSpec",
        "ParseError", "Poset", "ReductionReport", "Rotation", "RotationPoset",
        "Side", "SizeLimitError", "TieDetected",
        "blocking_pairs", "build_instance",
        "count_1attribute", "count_downsets", "count_independent_sets",
        "count_stable_matchings", "edge_cycles", "enumerate_downsets",
        "enumerate_stable_matchings", "find_all_rotations",
        "format_bipartite", "format_geometric", "format_instance",
        "format_matching", "format_rotations", "gen_2euclidean",
        "gen_3attribute", "gen_partial_lists", "hasse_diagram", "hasse_dot",
        "induced_instance", "instance_from_1attribute", "instance_from_dot",
        "instance_from_euclidean", "is_stable", "matching_from_downset",
        "parse_bipartite", "parse_geometric", "parse_instance",
        "parse_matching", "parse_rotation", "poset_from_bipartite",
        "propose_optimal", "read_tau", "rotation_poset", "verify_reduction",
        # the submodules, which the package imports
        "core", "counting", "gale_shapley", "geometry", "reductions",
        "rotations",
    }
