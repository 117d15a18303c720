import hashlib
import io
import itertools
import os
import random
import subprocess
import sys

import pytest

from conftest import (
    GRAPH_3X4,
    GRAPH_4X5,
    independent_sets_oracle,
    random_1attribute,
    random_bipartite,
    random_instance,
)
from stablecount import (
    BipartiteGraph,
    Matching,
    counting,
    format_bipartite,
    format_geometric,
    format_instance,
    gen_partial_lists,
    is_stable,
    parse_bipartite,
    parse_instance,
    reductions,
    rotation_poset,
)
from stablecount.cli import run


SINGLE_EDGE_BIS = "bis 1 1\ne 1 1\n"
TRIVIAL_INSTANCE = "n 1\nm 1: 1\nw 1: 1\n"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def test_solve_trivial(write, capsys):
    path = write("inst.txt", TRIVIAL_INSTANCE)
    assert run(["solve", "--side", "men", path]) == 0
    assert capsys.readouterr().out == "pair 1 1\n"


def test_solve_women_side(write, capsys):
    text = "n 2\nm 1: 1 2\nm 2: 2 1\nw 1: 2 1\nw 2: 1 2\n"
    path = write("inst.txt", text)
    assert run(["solve", "--side", "women", path]) == 0
    assert capsys.readouterr().out == "pair 1 2\npair 2 1\n"


def test_blocking_lists_pairs(write, capsys):
    inst = write("inst.txt", "n 2\nm 1: 1 2\nm 2: 2 1\nw 1: 2 1\nw 2: 1 2\n")
    matching = write("match.txt", "pair 1 1\npair 2 2\n")
    assert run(["blocking", inst, matching]) == 0
    assert capsys.readouterr().out == ""  # stable: nothing to report


def test_blocking_prints_each_pair(write, capsys):
    # both men and both women rank 1 first, so man 1 and woman 1 block
    # the matching that pairs each of them with a 2
    inst = write("inst.txt", "n 2\nm 1: 1 2\nm 2: 1 2\nw 1: 1 2\nw 2: 1 2\n")
    matching = write("match.txt", "pair 1 2\npair 2 1\n")
    assert run(["blocking", inst, matching]) == 0
    assert capsys.readouterr().out == "block 1 1\n"


def test_dash_reads_stdin(capsys, monkeypatch):
    text = "n 2\nm 1: 1 2\nm 2: 2 1\nw 1: 2 1\nw 2: 1 2\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(["enumerate", "-"]) == 0
    assert capsys.readouterr().out == "total 2\n1 2\n2 1\n"


def test_broken_pipe_exits_zero(write, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    path = write("inst.txt", TRIVIAL_INSTANCE)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run(["count", path]) == 0


def test_count_single_edge_instance(write, capsys):
    path = write("inst.txt", format_instance(gen_partial_lists(parse_bipartite(SINGLE_EDGE_BIS))))
    assert run(["count", path]) == 0
    assert capsys.readouterr().out == "3\n"


# three matchings by two rotations that share man 1
THREE_BY_THREE = (
    "n 3\nm 1: 3 1 2\nm 2: 2 1 3\nm 3: 1 3 2\nw 1: 2 1 3\nw 2: 1 3 2\nw 3: 2 3 1\n"
)


def test_rotations_and_poset(write, capsys):
    path = write("inst.txt", format_instance(gen_partial_lists(parse_bipartite(SINGLE_EDGE_BIS))))
    rots = "rot 1: (1,1) (2,2)\nrot 2: (2,1) (3,3)\n"
    assert run(["rotations", path]) == 0
    assert capsys.readouterr().out == rots
    assert run(["poset", path]) == 0
    assert capsys.readouterr().out == rots + "prec 1 2\n"
    path = write("three.txt", THREE_BY_THREE)
    rots = "rot 1: (1,3) (3,1)\nrot 2: (1,1) (2,2)\n"
    assert run(["rotations", path]) == 0
    assert capsys.readouterr().out == rots
    assert run(["poset", path]) == 0
    assert capsys.readouterr().out == rots + "prec 1 2\n"


def test_comment_ends_only_at_a_newline(capsys, monkeypatch):
    # a form feed inside a comment does not turn the rest of it into an edge
    text = "bis 2 2\ne 1 1\ne 2 2\n# dropped:\fe 1 2\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(["isets", "-"]) == 0
    assert capsys.readouterr().out == "9\n"


def test_gen_then_poset_dot_node_count(write, capsys):
    bis = write("g.bis", format_bipartite(GRAPH_3X4))
    assert run(["gen", "--model", "lists", bis]) == 0
    inst_text = capsys.readouterr().out
    inst = write("inst.txt", inst_text)
    assert run(["poset", "--dot", inst]) == 0
    dot = capsys.readouterr().out
    nodes = [line for line in dot.splitlines() if "label" in line]
    assert len(nodes) == GRAPH_3X4.n1 + GRAPH_3X4.n2


def test_enumerate_lists_matchings(write, capsys):
    path = write("inst.txt", format_instance(gen_partial_lists(parse_bipartite(SINGLE_EDGE_BIS))))
    assert run(["enumerate", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("total 3\n")


def test_enumerate_counts_downsets_once(write, capsys, monkeypatch):
    counted = []
    plain = counting.count_downsets

    def counted_count(poset):
        counted.append(poset.size)
        return plain(poset)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stablecount" and getattr(module, "count_downsets", None) is plain:
            monkeypatch.setattr(module, "count_downsets", counted_count)
    path = write("inst.txt", format_instance(gen_partial_lists(GRAPH_3X4)))
    assert run(["enumerate", "--limit", "5", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "total 29" and len(out) == 6
    assert counted == [GRAPH_3X4.size]


def test_enumerate_rejects_negative_limit(write, capsys):
    path = write("inst.txt", format_instance(gen_partial_lists(GRAPH_3X4)))
    assert run(["enumerate", "--limit", "-1", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --limit: must be non-negative, got -1" in captured.err
    assert run(["enumerate", "--limit", "0", path]) == 0
    assert capsys.readouterr().out == "total 29\n"
    # the number rule of the file formats, not int()'s
    for limit in ("x", "1_0", " 1", "+1", "\u0661", "\uff11"):
        assert run(["enumerate", "--limit", limit, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --limit: invalid int value: {limit!r}" in captured.err


def _old_enumerate_output(text, limit):
    # the walk before consecutive downsets shared one wives array: each
    # line rebuilt from the man-optimal matching by matching_from_downset
    rposet = rotation_poset(parse_instance(text))
    lines = [f"total {counting.count_downsets(rposet)}"]
    for mask in itertools.islice(counting.enumerate_downsets(rposet), limit):
        lines.append(" ".join(map(str, counting.matching_from_downset(rposet, mask).wives)))
    return "\n".join(lines) + "\n"


def _shares_a_man(rposet):
    men = [{m for m, _ in rot.pairs} for rot in rposet.rotations]
    return any(a & b for a, b in itertools.combinations(men, 2))


def test_enumerate_prints_the_downset_walk(write, capsys):
    rng = random.Random(71)
    texts = [TRIVIAL_INSTANCE, format_instance(gen_partial_lists(GRAPH_3X4))]
    texts += [format_instance(random_instance(rng, rng.randint(2, 12))) for _ in range(30)]
    texts += [format_instance(gen_partial_lists(random_bipartite(rng, 6))) for _ in range(15)]
    shared = 0
    for text in texts:
        rposet = rotation_poset(parse_instance(text))
        shared += _shares_a_man(rposet)
        total = counting.count_downsets(rposet)
        path = write("inst.txt", text)
        for limit in (0, 1, total + 3):
            assert run(["enumerate", "--limit", str(limit), path]) == 0
            assert capsys.readouterr().out == _old_enumerate_output(text, limit)
    assert shared >= 15  # undo order matters only when rotations share a man


def test_count_past_64_rotations(write, capsys):
    path = write("inst.txt", format_instance(random_instance(random.Random(1), 400)))
    assert run(["count", path]) == 0
    assert capsys.readouterr().out == "393\n"


def _graph_without_isolated_vertices(rng, n1, n2, m):
    pool = [(u, v) for u in range(1, n1 + 1) for v in range(1, n2 + 1)]
    while True:
        edges = rng.sample(pool, m)
        if len({u for u, _ in edges}) == n1 and len({v for _, v in edges}) == n2:
            return BipartiteGraph(n1, n2, tuple(edges))


def test_enumerate_past_a_million_matchings(write, capsys):
    graph = _graph_without_isolated_vertices(random.Random(3), 15, 15, 35)
    total = independent_sets_oracle(graph)
    assert total > 10**6
    text = format_instance(gen_partial_lists(graph))
    assert run(["enumerate", write("inst.txt", text)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"total {total}"
    assert len(out) == 1001 and len(set(out[1:])) == 1000
    inst = parse_instance(text)
    for line in out[1::111]:
        assert is_stable(inst, Matching(tuple(map(int, line.split()))))


def test_isets_past_40_vertices(write, capsys):
    graph = _graph_without_isolated_vertices(random.Random(4), 8, 33, 50)
    assert graph.size == 41
    bis = write("g.bis", format_bipartite(graph))
    assert run(["isets", bis]) == 0
    assert capsys.readouterr().out == f"{independent_sets_oracle(graph)}\n"


MATCHING_20 = "bis 20 20\n" + "".join(f"e {i} {i}\n" for i in range(1, 21))


def test_20_by_20_matching_through_the_cli(write, capsys):
    # each command once refused this graph after using up the memo budget
    bis = write("g.bis", MATCHING_20)
    assert run(["isets", bis]) == 0
    assert capsys.readouterr().out == f"{3**20}\n"
    assert run(["verify", "--model", "lists", bis]) == 0
    assert capsys.readouterr().out == VERIFY_PASSED.format(count=3**20)
    assert run(["gen", "--model", "lists", bis]) == 0
    inst = write("inst.txt", capsys.readouterr().out)
    assert run(["count", inst]) == 0
    assert capsys.readouterr().out == f"{3**20}\n"


def test_isets(write, capsys):
    bis = write("g.bis", format_bipartite(GRAPH_3X4))
    assert run(["isets", bis]) == 0
    assert capsys.readouterr().out == "29\n"


def test_isolated_vertex_counts_but_does_not_reduce(write, capsys):
    # an isolated vertex doubles the count; only the reductions refuse it
    bis = write("g.bis", "bis 2 1\ne 1 1\n")
    assert run(["isets", bis]) == 0
    assert capsys.readouterr().out == "6\n"
    for command in ("verify", "gen"):
        assert run([command, bis]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: graph has 1 isolated vertices; remove them and "
            "multiply the independent-set count by 2**1\n"
        )


def test_count_1d(write, capsys):
    text = (
        "model 1d 1 2\n"
        "mpos 1: 1\nmpos 2: 2\nmpref 1: 1\nmpref 2: -1\n"
        "wpos 1: 1\nwpos 2: 2\nwpref 1: 1\nwpref 2: -1\n"
    )
    path = write("spec.txt", text)
    assert run(["count-1d", path]) == 0
    out = capsys.readouterr().out
    assert out.strip().isdigit()


def test_count_1d_rejects_other_models(write, capsys):
    path = write("spec.txt", "model euclid 1 1\nmpos 1: 0\nmpref 1: 1\nwpos 1: 2\nwpref 1: 3\n")
    assert run(["count-1d", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: count-1d expects a 'model 1d' spec\n"


def test_1d_counts_agree_across_commands(write, capsys):
    # count and enumerate build the 1d instance through induced_instance,
    # count-1d counts the rotations of the chain
    rng = random.Random(71)
    for _ in range(10):
        path = write("spec.txt", format_geometric(random_1attribute(rng, rng.randint(1, 12))))
        assert run(["count-1d", path]) == 0
        want = capsys.readouterr().out
        assert run(["count", path]) == 0
        assert capsys.readouterr().out == want
        assert run(["enumerate", "--limit", "0", path]) == 0
        assert capsys.readouterr().out == f"total {want}"


def test_count_accepts_geometric_input(write, capsys):
    text = (
        "model euclid 1 1\n"
        "mpos 1: 0\nmpref 1: 1\nwpos 1: 2\nwpref 1: 3\n"
    )
    path = write("spec.txt", text)
    assert run(["count", path]) == 0
    assert capsys.readouterr().out == "1\n"


def test_verify_graph_file(write, capsys):
    bis = write("g.bis", SINGLE_EDGE_BIS)
    assert run(["verify", "--model", "lists", bis]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


@pytest.mark.parametrize("model", ["attr3", "euclid2"])
@pytest.mark.parametrize("tau", ["garbage", "2,1"])
def test_gen_tau_needs_lists_model(write, capsys, model, tau):
    bis = write("g.bis", "bis 2 1\ne 1 1\ne 2 1\n")
    assert run(["gen", "--model", model, "--tau", tau, bis]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --tau applies only to --model lists, not {model}\n"
    )


def test_gen_tau_permutes_lists_b_block(write, capsys):
    bis = write("g.bis", "bis 2 1\ne 1 1\ne 2 1\n")
    assert run(["gen", "--model", "lists", "--tau", "2,1", bis]) == 0
    inst = parse_instance(capsys.readouterr().out)
    assert inst.men_prefs[2][:2] == (3, 4)  # B_1 ranks b_tau(2), b_tau(1) first
    for tau in ("garbage", " 2,+1", "2,1 ", "+2,1", "2,1_0", "\u0662,1"):
        assert run(["gen", "--model", "lists", "--tau", tau, bis]) == 1
        assert capsys.readouterr().err == (
            f"error: bad permutation {tau!r}; expected e.g. 2,1,3\n"
        )


# sha256 of the full `gen --model lists --tau 3,1,4,8,5,2,7,6` stdout on GRAPH_3X4
GEN_TAU_3X4_SHA256 = "d5748428e140a3f07a2629d9bd9b9a6af9720be1d7884d0074209bd830832781"


def test_gen_tau_pins_the_whole_instance(write, capsys):
    bis = write("g.bis", format_bipartite(GRAPH_3X4))
    assert run(["gen", "--model", "lists", "--tau", "3,1,4,8,5,2,7,6", bis]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_TAU_3X4_SHA256


# sha256 of the full `gen` stdout on GRAPH_3X4 (49, 97 and 97 lines)
GEN_3X4_SHA256 = {
    "lists": "dab745ba71d006d01ad28e3af1f316676b0ae520d8cf5075d6c414ddd4eacb8b",
    "attr3": "51e90df24050e92ba8b197b266e60b59e1889ce7a91482ea188147154b8ea7b3",
    "euclid2": "8c3e55918df144d1156b152b925d14c7ed8e8f5b90e37bd4f3c1033e5a397116",
}
# sha256 of the concatenated `gen` stdout on six random graphs (seed 0, 2 to
# 7 edges) whose rho cycles have lengths 1 to 3 and sigma cycles 1, 2, 4, 5
GEN_SWEEP_SHA256 = {
    "lists": "0f3b6cdf19819a9b5ad29efada75391f53305cc5f083b9eef1a7519040460232",
    "attr3": "f6c040c00245b8601ab818256a3f4810830b84a0f15052e1e4134ee1f7df4a64",
    "euclid2": "bdf5ea2ea96aa3180c9c4be9332f6ccf2c241fe924c119098356f4aca94f2210",
}
GEN_PATH = {
    "lists": (
        "n 6\n"
        "m 1: 1 3 2 4 5 6\n"
        "m 2: 2 4 1 3 5 6\n"
        "m 3: 4 3 1 5 2 6\n"
        "m 4: 4 3 2 5 1 6\n"
        "m 5: 5 2 1 3 4 6\n"
        "m 6: 6 1 2 3 4 5\n"
        "w 1: 6 5 3 1 2 4\n"
        "w 2: 6 5 4 2 1 3\n"
        "w 3: 1 3 2 4 5 6\n"
        "w 4: 2 4 1 3 5 6\n"
        "w 5: 3 5 1 2 4 6\n"
        "w 6: 4 6 1 2 3 5\n"
    ),
    "attr3": (
        "model dot 3 6\n"
        "mpos 1: 3/10 0 9/100\n"
        "mpos 2: 23/10 0 529/100\n"
        "mpos 3: 1 0 1\n"
        "mpos 4: 3 0 9\n"
        "mpos 5: 0 1 1\n"
        "mpos 6: 0 3 9\n"
        "mpref 1: 2001/1000 1999/1000 -1\n"
        "mpref 2: 4001/1000 3999/1000 -1\n"
        "mpref 3: 2001/1000 32 -1\n"
        "mpref 4: 4001/1000 32 -1\n"
        "mpref 5: 3201/1000 0 -1\n"
        "mpref 6: 1201/1000 0 -1\n"
        "wpos 1: 1 0 1\n"
        "wpos 2: 2 0 4\n"
        "wpos 3: 0 1 1\n"
        "wpos 4: 0 2 4\n"
        "wpos 5: 13/10 0 169/100\n"
        "wpos 6: 3/10 0 9/100\n"
        "wpref 1: 2001/1000 32 -1\n"
        "wpref 2: 6001/1000 32 -1\n"
        "wpref 3: 1201/1000 0 -1\n"
        "wpref 4: 5201/1000 0 -1\n"
        "wpref 5: 2001/1000 1999/1000 -1\n"
        "wpref 6: 6001/1000 5999/1000 -1\n"
    ),
    "euclid2": (
        "model euclid 2 6\n"
        "mpos 1: 3/10 0\n"
        "mpos 2: 23/10 0\n"
        "mpos 3: 1 0\n"
        "mpos 4: 3 0\n"
        "mpos 5: 0 1\n"
        "mpos 6: 0 3\n"
        "mpref 1: 2001/2000 1999/2000\n"
        "mpref 2: 4001/2000 3999/2000\n"
        "mpref 3: 2001/2000 16\n"
        "mpref 4: 4001/2000 16\n"
        "mpref 5: 3201/2000 0\n"
        "mpref 6: 1201/2000 0\n"
        "wpos 1: 1 0\n"
        "wpos 2: 2 0\n"
        "wpos 3: 0 1\n"
        "wpos 4: 0 2\n"
        "wpos 5: 13/10 0\n"
        "wpos 6: 3/10 0\n"
        "wpref 1: 2001/2000 16\n"
        "wpref 2: 6001/2000 16\n"
        "wpref 3: 1201/2000 0\n"
        "wpref 4: 5201/2000 0\n"
        "wpref 5: 2001/2000 1999/2000\n"
        "wpref 6: 6001/2000 5999/2000\n"
    ),
}


@pytest.mark.parametrize("model", ["lists", "attr3", "euclid2"])
def test_gen_output_is_pinned(write, capsys, model):
    bis = write("g.bis", format_bipartite(GRAPH_3X4))
    assert run(["gen", "--model", model, bis]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GEN_3X4_SHA256[model]
    assert captured.err == ""
    bis = write("path.bis", "bis 2 1\ne 1 1\ne 2 1\n")
    assert run(["gen", "--model", model, bis]) == 0
    assert capsys.readouterr().out == GEN_PATH[model]
    sweep = hashlib.sha256()
    rng = random.Random(0)
    for _ in range(6):
        bis = write("g.bis", format_bipartite(random_bipartite(rng, 7, 2)))
        assert run(["gen", "--model", model, bis]) == 0
        sweep.update(capsys.readouterr().out.encode())
    assert sweep.hexdigest() == GEN_SWEEP_SHA256[model]


VERIFY_PASSED = (
    "male_optimal:     pass\n"
    "female_optimal:   pass\n"
    "rotation_forms:   pass\n"
    "poset_isomorphic: pass\n"
    "counts_equal:     pass\n"
    "independent_sets: {count}\n"
    "stable_matchings: {count}\n"
)


@pytest.mark.parametrize("model", ["lists", "attr3", "euclid2"])
@pytest.mark.parametrize(
    "graph, count",
    [(GRAPH_3X4, 29), (GRAPH_4X5, 93), (BipartiteGraph(2, 1, ((1, 1), (2, 1))), 5)],
    ids=["3x4", "4x5", "path"],
)
def test_verify_output_is_pinned(write, capsys, graph, count, model):
    bis = write("g.bis", format_bipartite(graph))
    assert run(["verify", "--model", model, bis]) == 0
    captured = capsys.readouterr()
    assert captured.out == VERIFY_PASSED.format(count=count)
    assert captured.err == ""


def test_verify_failure_exits_three(write, capsys, monkeypatch):
    monkeypatch.setattr(
        reductions, "build_instance",
        lambda graph, model: gen_partial_lists(GRAPH_4X5),
    )
    bis = write("g.bis", format_bipartite(GRAPH_3X4))
    assert run(["verify", "--model", "lists", bis]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[:7] == [
        "male_optimal:     pass",
        "female_optimal:   FAIL",
        "rotation_forms:   FAIL",
        "poset_isomorphic: FAIL",
        "counts_equal:     FAIL",
        "independent_sets: 29",
        "stable_matchings: 93",
    ]
    assert lines[-1] == "counts differ: #IS=29 #SM=93"


def test_verify_directory(tmp_path, capsys):
    for i in range(2):
        (tmp_path / f"g{i}.bis").write_text(SINGLE_EDGE_BIS)
    assert run(["verify", "--model", "lists", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    report = VERIFY_PASSED.format(count=3)
    assert captured.out == f"== {tmp_path}/g0.bis\n{report}== {tmp_path}/g1.bis\n{report}"
    assert captured.err == ""


def test_verify_directory_stops_at_a_malformed_graph(tmp_path, capsys):
    # the good graph's report prints before the error; the .txt file is skipped
    (tmp_path / "a.bis").write_text(SINGLE_EDGE_BIS)
    (tmp_path / "b.bis").write_text("bis 2 1\ne 9 1\n")
    (tmp_path / "c.txt").write_text(SINGLE_EDGE_BIS)
    assert run(["verify", "--model", "lists", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"== {tmp_path}/a.bis\n" + VERIFY_PASSED.format(count=3)
    assert captured.err == f"error: {tmp_path}/b.bis: line 2: edge (9,1) out of range\n"


def test_verify_directory_without_graphs_is_an_error(tmp_path, capsys):
    (tmp_path / "c.txt").write_text(SINGLE_EDGE_BIS)
    assert run(["verify", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no .bis files in {tmp_path}\n"


def test_missing_file_is_an_error(capsys):
    assert run(["count", "/nonexistent/inst.txt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_malformed_instance_is_an_error(write, capsys):
    path = write("inst.txt", "n 2\nm 1: 1 1\nm 2: 2 1\nw 1: 2 1\nw 2: 1 2\n")
    assert run(["count", path]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["dot", "euclid"])
@pytest.mark.parametrize("token", ["cos(1/0)", "1/0", "pow(0,-1)"])
def test_zero_denominator_is_an_error(write, capsys, model, token):
    text = f"model {model} 1 1\nmpos 1: 1\nmpref 1: {token}\nwpos 1: 2\nwpref 1: 3\n"
    path = write("spec.txt", text)
    assert run(["count", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # a cosine is no coordinate token, whatever its argument
    problem = "bad" if token.startswith("cos") else "division by zero in"
    assert captured.err == f"error: line 3: {problem} coordinate token '{token}'\n"


@pytest.mark.parametrize("command", ["count", "count-1d"])
@pytest.mark.parametrize(
    "header", ["model dot 1 -2", "model euclid 1 -2", "model dot 1 0", "model 1d 1 0"]
)
def test_geometric_header_rejects_nonpositive_n(write, capsys, command, header):
    path = write("spec.txt", header + "\n")
    assert run([command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: n must be a positive integer\n"


@pytest.mark.parametrize(
    "text",
    [
        "model dot -1 1\nmpos 1: 1\n",
        "model dot 0 1\nmpos 1:\nmpref 1:\nwpos 1:\nwpref 1:\n",
        "model euclid 0 2\n",
    ],
)
def test_geometric_header_rejects_nonpositive_k(write, capsys, text):
    path = write("spec.txt", text)
    assert run(["count", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: k must be a positive integer\n"


def test_usage_error_exits_two(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


USAGE = {
    "solve": "[-h] [--side {men,women}] file",
    "blocking": "[-h] file matching",
    "rotations": "[-h] file",
    "poset": "[-h] [--dot] file",
    "count": "[-h] file",
    "enumerate": "[-h] [--limit LIMIT] file",
    "count-1d": "[-h] file",
    "isets": "[-h] file",
    "gen": "[-h] [--model {lists,attr3,euclid2}] [--tau TAU] file",
    "verify": "[-h] [--model {lists,attr3,euclid2}] file",
}


@pytest.mark.parametrize("command", USAGE)
def test_usage_line_of_each_subcommand(command, capsys):
    assert run([command, "--help"]) == 0
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage == f"usage: stablecount {command} {USAGE[command]}"


def test_tie_detection_exits_one(write, capsys):
    text = (
        "model dot 2 2\n"
        "mpos 1: 1 0\nmpos 2: 0 1\n"
        "mpref 1: 1 1\nmpref 2: 1 2\n"
        "wpos 1: 2 3\nwpos 2: 2 3\n"  # identical positions: exact tie
        "wpref 1: 1 2\nwpref 2: 2 1\n"
    )
    path = write("spec.txt", text)
    assert run(["count", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: man 1: candidates 1 and 2 score exactly alike\n"


@pytest.mark.parametrize("module", ["mpmath", "concurrent.futures", "multiprocessing"])
def test_cli_imports_without(module):
    code = f"import sys, stablecount.cli; print({module!r} in sys.modules)"
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"
