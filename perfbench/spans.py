"""Spans around the calls into stablecount's public functions.

The library has no tracing of its own, so the benchmark rebinds each
traced function, from outside, in every ``stablecount.*`` namespace that
holds it.  A call made through any of those names then records a span:
op index, span id, parent span id, name, start, end, the type of an
exception that passed through, and for a few functions one extra value
(the instance and side of a solve, the size of a rotation set).  Nested
calls become child spans, e.g. find_all_rotations -> propose_optimal ->
Instance.transposed.  Each ``next()`` of a traced generator is one span.
Per-element methods such as ``woman_rank`` run millions of times per op
and are never wrapped.

Spans stay in memory and are written out as JSON lines at the end.
``layer_metrics`` turns a span file into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

FUNCTIONS = (
    ("cli", "run"),
    ("core", "parse_instance"),
    ("gale_shapley", "propose_optimal"),
    ("rotations", "find_all_rotations"),
    ("rotations", "rotation_poset"),
    ("rotations", "hasse_diagram"),
    ("counting", "count_downsets"),
    ("counting", "count_independent_sets"),
    ("counting", "matching_from_downset"),
    ("geometry", "instance_from_dot"),
    ("geometry", "compare_values"),
    ("geometry", "instance_from_euclidean"),
    ("reductions", "gen_partial_lists"),
    ("reductions", "gen_3attribute"),
    ("reductions", "gen_2euclidean"),
    ("reductions", "verify_reduction"),
)
GENERATORS = (
    ("counting", "enumerate_downsets"),
    ("counting", "enumerate_stable_matchings"),
)
METHODS = (("core", "Instance", "transposed"),)


def _solve_key(tracer: "Tracer", args, kwargs, result):
    inst = args[0] if args else kwargs["inst"]
    side = args[1] if len(args) > 1 else kwargs.get("side")
    return [tracer.instance_index(inst), getattr(side, "value", "m")]


def _rotation_count(tracer, args, kwargs, result):
    return len(result[0])


def _relation_count(tracer, args, kwargs, result):
    return sum(bin(mask).count("1") for mask in result.below)


OBSERVERS = {
    "gale_shapley.propose_optimal": _solve_key,
    "rotations.find_all_rotations": _rotation_count,
    "rotations.rotation_poset": _relation_count,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._op = -1
        self._instances: list = []  # kept alive so ids stay unique within an op

    def begin_op(self, op: int) -> None:
        self._op = op
        self._instances.clear()

    def instance_index(self, inst) -> int:
        for idx, known in enumerate(self._instances):
            if known is inst:
                return idx
        self._instances.append(inst)
        return len(self._instances) - 1

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, t1, exc=None, info=None) -> None:
        self._stack.pop()
        self.spans.append((self._op, sid, parent, name, t0, t1, exc, info))

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self._close(sid, parent, name, t0, time.perf_counter(), type(err).__name__)
                raise
            t1 = time.perf_counter()  # the observer's work stays out of the span
            info = observe(self, args, kwargs, result) if observe else None
            self._close(sid, parent, name, t0, t1, info=info)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                sid, parent = self._open()
                t0 = time.perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    self._close(sid, parent, name, t0, time.perf_counter())
                    return
                except BaseException as err:
                    self._close(sid, parent, name, t0, time.perf_counter(), type(err).__name__)
                    raise
                self._close(sid, parent, name, t0, time.perf_counter())
                yield item

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded stablecount module."""
        import stablecount.cli  # noqa: F401  (the package imports every submodule)

        modules = [
            mod for key, mod in sys.modules.items() if key.split(".")[0] == "stablecount"
        ]
        targets = [(m, f, self._wrap) for m, f in FUNCTIONS]
        targets += [(m, f, self._wrap_generator) for m, f in GENERATORS]
        for short, attr, wrap in targets:
            original = getattr(sys.modules[f"stablecount.{short}"], attr)
            traced = wrap(f"{short}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        for short, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"stablecount.{short}"], cls_name)
            setattr(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", getattr(cls, attr)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- per-layer metrics -------------------------------------------------

SELF_TIMES = (
    "cli.run",
    "core.parse_instance",
    "core.Instance.transposed",
    "gale_shapley.propose_optimal",
    "rotations.find_all_rotations",
    "rotations.rotation_poset",
    "rotations.hasse_diagram",
    "counting.count_downsets",
    "counting.count_independent_sets",
    "counting.enumerate_downsets",
    "counting.matching_from_downset",
    "geometry.instance_from_dot",
    "geometry.compare_values",
    "geometry.instance_from_euclidean",
    "reductions.gen_partial_lists",
    "reductions.gen_3attribute",
    "reductions.gen_2euclidean",
    "reductions.verify_reduction",
)
CALLS = (
    "core.Instance.transposed",
    "gale_shapley.propose_optimal",
    "rotations.find_all_rotations",
    "counting.count_downsets",
    "counting.matching_from_downset",
    "geometry.compare_values",
)


def layer_metrics(spans_path: str, ops: int) -> dict[str, float]:
    """Per-op means over `ops` ops: each traced function's self time (its
    spans minus their child spans) and calls, and the counters that
    perfbench/README.md defines."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_s: dict[int, float] = defaultdict(float)
    names: dict[int, str] = {}
    solves = []
    rotations = relations = 0
    refused, ties = set(), set()
    with open(spans_path, encoding="utf-8") as fh:
        for line in fh:
            op, sid, parent, name, t0, t1, exc, info = json.loads(line)
            names[sid] = name
            self_s[name] += t1 - t0
            calls[name] += 1
            if parent is not None:
                child_s[parent] += t1 - t0
            if name == "gale_shapley.propose_optimal" and info is not None:
                solves.append((parent, op, *info))
            elif name == "rotations.find_all_rotations" and info is not None:
                rotations += info
            elif name == "rotations.rotation_poset" and info is not None:
                relations += info
            if exc == "SizeLimitError" and name.startswith("counting."):
                refused.add(op)
            if exc == "TieDetected" and name.startswith("geometry."):
                ties.add(op)
    for sid, total in child_s.items():
        self_s[names[sid]] -= total
    asked = [s[1:] for s in solves if names.get(s[0]) != "gale_shapley.propose_optimal"]
    per_op = max(ops, 1)
    out = {f"{name}.self_s": self_s[name] / per_op for name in SELF_TIMES}
    out.update({f"{name}.calls": calls[name] / per_op for name in CALLS})
    out["gale_shapley.solves_per_answer"] = len(asked) / len(set(asked)) if asked else 0.0
    out["rotations.count"] = rotations / per_op
    out["rotations.relations"] = relations / per_op
    out["counting.refused"] = len(refused) / per_op
    out["geometry.ties"] = len(ties) / per_op
    return out
