"""The names the benchmark's tracer patches must exist where it looks.

perfbench/spans.install wraps every (module, attribute) pair of its
_POINTS table by reading owner.__dict__[attribute], where the owner is
gainsparse.<module>, or the ColoredGraph class for "graphs.ColoredGraph".
A refactor that drops one of those names passes every other test but
makes each traced benchmark run fail with KeyError, so this test reads
the table and checks every pair.  spans.py is loaded from its file and
nothing in it is run but its module body.

The same table is the only reason a module may import a name it does
not use: every other unused import is dead code, so a test reads each
module's imports with ast.
"""

import ast
import importlib.util
import os

import pytest

import gainsparse
import gainsparse.cli   # the benchmark's worker imports it too

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")
SRC = os.path.join(ROOT, "src", "gainsparse")
MODULES = sorted(name[:-3] for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


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


def _unused_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("modname", MODULES)
def test_every_import_is_used_or_patched(modname):
    unused = _unused_imports(os.path.join(SRC, modname + ".py"))
    assert sorted(n for n in unused if (modname, n) not in POINTS) == []
