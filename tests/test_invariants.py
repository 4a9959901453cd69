"""Verdict invariants of the lift route above the brute-force budget.

The brute-force count cannot run past 24 edges, so these tests check the
lift route (check(..., method="lift")) against itself: its verdict must
not change when the graph is relabelled, renumbered, reoriented,
gauge-shifted or mapped by a group automorphism, since none of these
changes any subgraph's counts.  The witness, carried through the same
transformation, must be a minimal violating edge set of the new graph,
though the route may report a different one.

Inputs are certificate graphs (random_construct, replayed) with one
plain edge rewired or recoloured, so m = 2n - 1 still holds: cone over
Z/3, Z/5 and Z/7 at n = 50-300 and cylinder over Z at n = 20-60.
Cylinder stays small because its cover grows with m(n + m).
"""

import random
from functools import lru_cache

import pytest

from gainsparse import (ColoredGraph, GroupSpec, Subgraph, apply_move, check,
                        family_bound, random_construct, subgraph_counts)

# (family, modulus or None for Z, n, seed, edit).  Most recolours and
# some rewires stay tight, so the cases mix both verdicts.  A violation
# costs 11 witness shrinks or minimality checks, each quadratic in the
# witness; at n = 300 (a 322-edge witness) that is about 10 s, so the
# violations here stop at n = 200.
CASES = [
    ("cone", 3, 300, 2, "recolour"),
    ("cone", 3, 150, 3, "rewire"),
    ("cone", 5, 250, 2, "rewire"),
    ("cone", 5, 100, 1, "rewire"),
    ("cone", 7, 200, 1, "rewire"),
    ("cone", 7, 200, 1, "recolour"),
    ("cone", 7, 60, 1, "rewire"),
    ("cylinder", None, 20, 1, "rewire"),
    ("cylinder", None, 40, 1, "recolour"),
    ("cylinder", None, 60, 2, "rewire"),
]


def _raw(g):
    return [(e.id, e.tail, e.head, e.color.coords[0]) for e in sorted(g.edges)]


def _graph(spec, vertices, raw):
    return ColoredGraph(spec, vertices,
                        [(i, u, v, (c,)) for i, u, v, c in raw])


@lru_cache(maxsize=None)
def _input(case):
    """The edited certificate graph of a case and its lift verdict."""
    family, p, n, seed, edit = case
    spec = GroupSpec.cyclic(p) if p else GroupSpec.free()
    cert = random_construct(family, n - 1, seed, group=spec)
    g = cert.base
    for mv in cert.moves:
        g = apply_move(g, mv)
    assert g.n == n and g.m == 2 * n - 1
    rng = random.Random(seed)
    raw = _raw(g)
    i = rng.choice([i for i, (_, u, v, _) in enumerate(raw) if u != v])
    eid, u, v, c = raw[i]
    if edit == "rewire":
        u, v = rng.sample(g.vertices, 2)
    else:
        c = rng.choice([x for x in (range(p) if p else range(-2, 3))
                        if x != c])
    raw[i] = (eid, u, v, c)
    h = _graph(spec, g.vertices, raw)
    return h, check(h, family, method="lift")


# Each transformation maps (graph, rng) to (new graph, old edge id ->
# new edge id).


def _relabel(g, rng):
    new = dict(zip(g.vertices, rng.sample(range(10 * g.n), g.n)))
    verts = [new[x] for x in g.vertices]
    rng.shuffle(verts)
    raw = [(i, new[u], new[v], c) for i, u, v, c in _raw(g)]
    return _graph(g.spec, verts, raw), {i: i for i in g.edge_ids()}


def _shuffle_edges(g, rng):
    ids = sorted(g.edge_ids())
    emap = dict(zip(ids, rng.sample(range(3 * len(ids)), len(ids))))
    raw = [(emap[i], u, v, c) for i, u, v, c in _raw(g)]
    return _graph(g.spec, g.vertices, raw), emap


def _reverse(g, rng):
    raw = _raw(g)
    k = rng.randrange(len(raw))
    i, u, v, c = raw[k]
    raw[k] = (i, v, u, -c)
    return _graph(g.spec, g.vertices, raw), {i: i for i in g.edge_ids()}


def _gauge(g, rng):
    # add gamma to the out-edges of x and subtract it from its in-edges;
    # a loop at x gets both and keeps its colour
    x, gamma = rng.choice(g.vertices), rng.choice([-2, -1, 1, 2])
    raw = [(i, u, v, c + gamma * ((u == x) - (v == x)))
           for i, u, v, c in _raw(g)]
    return _graph(g.spec, g.vertices, raw), {i: i for i in g.edge_ids()}


def _automorphism(g, rng):
    # x -> a x for a unit a of Z/p; x -> -x on Z
    a = rng.randrange(2, g.spec.moduli[0]) if g.spec.finite else -1
    raw = [(i, u, v, a * c) for i, u, v, c in _raw(g)]
    return _graph(g.spec, g.vertices, raw), {i: i for i in g.edge_ids()}


TRANSFORMS = [_relabel, _shuffle_edges, _reverse, _gauge, _automorphism]


def _violates(g, family, ids):
    counts = subgraph_counts(Subgraph(g, ids))
    return counts.m_prime > family_bound(family, counts)


def test_inputs_include_violations_and_tight_graphs():
    verdicts = [_input(case)[1].sparse for case in CASES]
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("transform", TRANSFORMS,
                         ids=[t.__name__.strip("_") for t in TRANSFORMS])
@pytest.mark.parametrize("case", CASES, ids=["%s-%s-n%d-s%d-%s" % c
                                             for c in CASES])
def test_lift_verdict_is_invariant(case, transform):
    family = case[0]
    g, v = _input(case)
    h, emap = transform(g, random.Random(case[3]))
    assert h.m == g.m and h.n == g.n
    w = check(h, family, method="lift")
    assert (w.sparse, w.tight) == (v.sparse, v.tight)
    if v.sparse:
        return
    mapped = frozenset(emap[e] for e in v.witness)
    assert _violates(h, family, mapped)
    for e in mapped:
        assert not _violates(h, family, mapped - {e}), \
            "edge %d is not needed" % e
