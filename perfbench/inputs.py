"""Seeded inputs and reference answers for the benchmark workloads.

Everything here runs in the orchestrating process, never in the measured
one: input files are written before the client starts, so the client's
peak memory counts the program and not the generator.  The reference
answers are computed by code of the benchmark's own (a one-side subset
count for graphs, a branching downset count for posets), not by the
routine being timed.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stablecount import (
    BipartiteGraph,
    Matching,
    format_instance,
    gen_partial_lists,
    is_stable,
    parse_instance,
    rotation_poset,
)


@dataclass(frozen=True)
class Workload:
    name: str
    params: str  # printed with every result; BENCHMARK.json says why
    rate_cap: float  # inputs generated per measured second; about 2x today's op rate


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lists_count", "uniformly random complete instances, n = 500", 4.0),
        Workload(
            "bis_verify",
            "uniformly random bipartite graphs, 18+18 vertices, 45 edges, "
            "no isolated vertex",
            6.0,
        ),
        Workload(
            "geom_verify",
            "random graphs with exactly 6 edges (sides drawn as in the tests' "
            "random_bipartite), attr3 then euclid2 per graph",
            6.0,
        ),
        Workload(
            "enumerate",
            "gen_partial_lists instances of uniformly random 14+14 graphs with "
            "33-37 edges; every fifth graph is 15+15 (over 10^6 stable matchings)",
            10.0,
        ),
    )
}


def pool_size(workload: str, seconds: float) -> int:
    """How many distinct inputs a run of `seconds` gets; a run that uses
    them all before its time is up stops early."""
    return max(12, math.ceil(seconds * WORKLOADS[workload].rate_cap))


# -- generators --------------------------------------------------------


def _instance_bytes(gen: np.random.Generator, n: int) -> bytes:
    rows = gen.permuted(np.tile(np.arange(1, n + 1), (2 * n, 1)), axis=1)
    numerals = np.array([str(i).encode() for i in range(n + 1)], dtype=object)
    out = [f"n {n}".encode()]
    for idx, row in enumerate(rows):
        side, person = ("m", idx + 1) if idx < n else ("w", idx - n + 1)
        out.append(f"{side} {person}: ".encode() + b" ".join(numerals[row].tolist()))
    return b"\n".join(out) + b"\n"


def _graph(rng: random.Random, n1: int, n2: int, m: int) -> BipartiteGraph:
    """Uniform among graphs on n1+n2 vertices with m edges and no isolated
    vertex (rejection sampling)."""
    pool = [(u, v) for u in range(1, n1 + 1) for v in range(1, n2 + 1)]
    while True:
        edges = rng.sample(pool, m)
        if len({u for u, _ in edges}) == n1 and len({v for _, v in edges}) == n2:
            return BipartiteGraph(n1, n2, tuple(edges))


def _graph_with_edges(rng: random.Random, m: int) -> BipartiteGraph:
    """m edges on random side sizes, relabelled to drop unused vertices
    (the distribution of the tests' random_bipartite, with m fixed)."""
    while True:
        n1, n2 = rng.randint(1, m), rng.randint(1, m)
        if n1 * n2 >= m:
            break
    edges = rng.sample([(u, v) for u in range(1, n1 + 1) for v in range(1, n2 + 1)], m)
    left = {u: i for i, u in enumerate(sorted({u for u, _ in edges}), 1)}
    right = {v: j for j, v in enumerate(sorted({v for _, v in edges}), 1)}
    return BipartiteGraph(
        len(left), len(right), tuple((left[u], right[v]) for u, v in edges)
    )


def _graph_text(g: BipartiteGraph) -> str:
    return "\n".join([f"bis {g.n1} {g.n2}"] + [f"e {u} {v}" for u, v in g.edges]) + "\n"


def generate(workload: str, seed: int, count: int, directory: Path) -> list[dict]:
    """Write `count` distinct inputs for the workload and return one op
    record per input: the CLI argument lists of the op, the input file and
    the reference answer (None where it is computed only when needed)."""
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    for i in range(count):
        path = directory / f"{i:04d}"
        if workload == "lists_count":
            gen = np.random.default_rng(rng.getrandbits(64))
            path.write_bytes(_instance_bytes(gen, 500))
            ops.append({"cmds": [["count", str(path)]], "file": str(path), "expect": None})
            continue
        if workload == "bis_verify":
            g = _graph(rng, 18, 18, 45)
            path.write_text(_graph_text(g))
            cmds = [["verify", "--model", "lists", str(path)]]
        elif workload == "geom_verify":
            g = _graph_with_edges(rng, 6)
            path.write_text(_graph_text(g))
            cmds = [
                ["verify", "--model", "attr3", str(path)],
                ["verify", "--model", "euclid2", str(path)],
            ]
        elif workload == "enumerate":
            side = 15 if i % 5 == 4 else 14
            g = _graph(rng, side, side, rng.randint(33, 37))
            path.write_text(format_instance(gen_partial_lists(g)))
            cmds = [["enumerate", str(path)]]
        else:
            raise ValueError(f"unknown workload {workload!r}")
        ops.append({"cmds": cmds, "file": str(path), "expect": independent_sets(g)})
    return ops


# -- reference answers -------------------------------------------------


def independent_sets(g: BipartiteGraph) -> int:
    """Independent sets of g: sum over subsets S of the smaller side of
    2^(vertices of the other side not adjacent to S)."""
    small_is_left = g.n1 <= g.n2
    small, large = (g.n1, g.n2) if small_is_left else (g.n2, g.n1)
    if large > 62:
        raise ValueError("reference count needs the larger side to fit 62 bits")
    nbr = [0] * small
    for u, v in g.edges:
        s, t = (u, v) if small_is_left else (v, u)
        nbr[s - 1] |= 1 << (t - 1)
    blocked = np.zeros(1, dtype=np.int64)
    for mask in nbr:  # blocked[S] = neighbourhood of S, built by doubling
        blocked = np.concatenate([blocked, blocked | mask])
    hist = np.bincount(np.bitwise_count(blocked), minlength=large + 1)
    return sum(int(c) << (large - k) for k, c in enumerate(hist.tolist()))


def downsets(below: tuple[int, ...]) -> int:
    """Number of downsets of a poset given by strict down-set bitmasks.

    Branches on any element x of the live set (x out: drop x and all above
    it; x in: drop x and all below it), splits the live set into connected
    components first, and memoises on the live mask.
    """
    size = len(below)
    above = [0] * size
    for y, mask in enumerate(below):
        for x in _bits(mask):
            above[x] |= 1 << y
    near = [above[x] | below[x] for x in range(size)]
    memo: dict[int, int] = {0: 1}

    def count(live: int) -> int:
        if live in memo:
            return memo[live]
        total = 1
        rest = live
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                grown = 0
                for x in _bits(frontier):
                    grown |= near[x]
                frontier = grown & live & ~comp
                comp |= frontier
            rest &= ~comp
            total *= branch(comp)
        memo[live] = total
        return total

    def branch(comp: int) -> int:
        if comp & (comp - 1) == 0:
            return 2
        x = max(_bits(comp), key=lambda e: bin(near[e] & comp).count("1"))
        drop_out = comp & ~(above[x] | 1 << x)
        drop_in = comp & ~(below[x] | 1 << x)
        return count(drop_out) + count(drop_in)

    return count((1 << size) - 1)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rotation_count(path: str) -> int:
    """Rotations of an instance file, from a poset built with the men
    scanned in reverse order."""
    inst = parse_instance(Path(path).read_text())
    return len(rotation_poset(inst, man_order=tuple(range(inst.n, 0, -1))).below)


def reference_count(path: str) -> int:
    """Stable matchings of an instance file, through a poset built with
    the men scanned in reverse order and counted by `downsets`."""
    inst = parse_instance(Path(path).read_text())
    order = tuple(range(inst.n, 0, -1))
    return downsets(rotation_poset(inst, man_order=order).below)


# -- checking one op ---------------------------------------------------

_TIE = re.compile(r"could not separate|score exactly alike|exactly equidistant")
_POSET_CAP = re.compile(r"size bound exceeded: poset has (\d+) > 64 elements")
_DOWNSET_CAP = "size bound exceeded: more than 1000000 downsets"
_VERIFY_CHECKS = (
    "male_optimal", "female_optimal", "rotation_forms", "poset_isomorphic", "counts_equal",
)
FAILURE_KINDS = ("refused", "tie", "wrong", "crash")
# a refusal that the checks confirm is the program's documented answer for an
# input over its counting cap: tallied and counted in fail_share, but not a
# failed op in the result line
DECLINED_KINDS = ("refused",)


def check(workload: str, op: dict, results: list[dict], seed: int, index: int,
          deep: bool = True) -> str | None:
    """None if every command of the op gave a correct answer, otherwise
    the failure kind: refused, tie, wrong or crash.  "refused" means a
    refusal the reference confirms (the input is over the cap); a refusal
    of an input under the cap is "wrong".  `deep` also recomputes the
    rotation count behind a `count` refusal, which costs about 0.5 s."""
    for res in results:
        if res["exc"] is not None or res["code"] not in (0, 1, 3):
            return "crash"
        if res["code"] == 1:
            if "size bound exceeded" in res["err"]:
                return "refused" if _refusal_ok(workload, op, res, deep) else "wrong"
            return "tie" if _TIE.search(res["err"]) else "crash"
        if not _answer_ok(workload, op, res, seed, index):
            return "wrong"
    return None


def _refusal_ok(workload: str, op: dict, res: dict, deep: bool) -> bool:
    if workload == "lists_count":
        found = _POSET_CAP.search(res["err"])
        if not found or int(found.group(1)) <= 64:
            return False
        return not deep or int(found.group(1)) == rotation_count(op["file"])
    if workload == "enumerate":
        return _DOWNSET_CAP in res["err"] and op["expect"] > 10**6
    return False  # no other workload has an input over a cap


def _answer_ok(workload: str, op: dict, res: dict, seed: int, index: int) -> bool:
    out = res["out"]
    if workload == "lists_count":
        return res["code"] == 0 and out.strip() == str(reference_count(op["file"]))
    if workload in ("bis_verify", "geom_verify"):
        pairs = (line.split(":", 1) for line in out.splitlines() if ":" in line)
        fields = {key.strip(): value.strip() for key, value in pairs}
        expect = str(op["expect"])
        return (
            res["code"] == 0
            and all(fields.get(name) == "pass" for name in _VERIFY_CHECKS)
            and fields.get("independent_sets") == expect
            and fields.get("stable_matchings") == expect
        )
    if workload == "enumerate":
        lines = out.splitlines()
        total = op["expect"]
        if res["code"] != 0 or not lines or lines[0] != f"total {total}":
            return False
        body = lines[1:]
        if len(body) != min(total, 1000) or len(set(body)) != len(body):
            return False
        inst = parse_instance(Path(op["file"]).read_text())
        sample = random.Random(f"sample:{seed}:{index}").sample(body, min(5, len(body)))
        try:
            matchings = [Matching(tuple(int(t) for t in line.split())) for line in sample]
        except ValueError:
            return False
        return all(m.n == inst.n and is_stable(inst, m) for m in matchings)
    raise ValueError(f"unknown workload {workload!r}")
