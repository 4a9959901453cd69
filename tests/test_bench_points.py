"""The names the benchmark's tracer patches must exist where it looks.

perfbench/spans.install wraps every (module, attribute) pair of its
_POINTS table by reading owner.__dict__[attribute], where the owner is
gainsparse.<module>, or the ColoredGraph class for "graphs.ColoredGraph".
A refactor that drops one of those names passes every other test but
makes each traced benchmark run fail with KeyError, so this test reads
the table and checks every pair.  spans.py is loaded from its file and
nothing in it is run but its module body.
"""

import importlib.util
import os

import pytest

import gainsparse
import gainsparse.cli   # the benchmark's worker imports it too

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")


def _points():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(modname, attr) for modname, attr, _, _ in module._POINTS]


POINTS = _points()


def test_points_table_is_read():
    assert len(POINTS) > 30
    assert ("henneberg", "tight_in_family") in POINTS


@pytest.mark.parametrize("modname, attr", POINTS,
                         ids=["%s.%s" % p for p in POINTS])
def test_patch_point_resolves(modname, attr):
    if modname == "graphs.ColoredGraph":
        owner = gainsparse.graphs.ColoredGraph
    else:
        owner = getattr(gainsparse, modname)
    assert attr in owner.__dict__, "%s has no %s" % (modname, attr)
    assert callable(owner.__dict__[attr])
