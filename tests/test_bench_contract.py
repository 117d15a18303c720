"""The benchmark tracer's contract with the package.

``perfbench/spans.py`` rebinds package functions by module and name and
reads counts off their results.  A rename, or a change of return shape,
would silently corrupt its per-layer metrics, so this file pins both.
The tracer uses only the standard library; it is loaded from its path
without writing a bytecode cache next to it.
"""

import importlib
import importlib.util
import inspect
import random
import sys
from pathlib import Path

import pytest

from conftest import random_instance
from stablecount import Instance, find_all_rotations, rotation_poset

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _module(short):
    return importlib.import_module(f"stablecount.{short}")


def test_every_traced_name_resolves(spans):
    for short, attr in spans.FUNCTIONS:
        assert callable(getattr(_module(short), attr)), f"{short}.{attr}"
    for short, attr in spans.GENERATORS:
        assert inspect.isgeneratorfunction(getattr(_module(short), attr)), f"{short}.{attr}"
    for short, cls_name, attr in spans.METHODS:
        assert callable(getattr(getattr(_module(short), cls_name), attr))


@pytest.mark.parametrize(
    "inst",
    [random_instance(random.Random(7), 40), Instance(1, ((1,),), ((1,),))],
    ids=["n40", "n1"],
)
def test_observers_read_rotation_and_relation_counts(spans, inst):
    rposet = rotation_poset(inst)
    tracer = spans.Tracer()
    tracer._wrap("rotations.find_all_rotations", find_all_rotations)(inst)
    tracer._wrap("rotations.rotation_poset", rotation_poset)(inst)
    infos = {span[3]: span[7] for span in tracer.spans}
    assert infos["rotations.find_all_rotations"] == len(rposet)
    assert infos["rotations.rotation_poset"] == len(rposet.relation_pairs())
    if inst.n > 1:
        assert len(rposet) > 0 and rposet.relation_pairs()
