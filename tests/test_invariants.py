"""Verdict invariants of both routes, and two theorems on the brute route.

A verdict must not change when the graph is relabelled, renumbered,
reoriented, gauge-shifted or mapped by a group automorphism, since none
of these changes any subgraph's counts.  The witness, carried through
the same transformation, must be a minimal violating edge set of the
new graph, though the route may report a different one.

The lift route (check(..., method="lift")) is checked against itself
above the brute-force budget of 24 edges.  Its inputs are certificate
graphs (as random_construct builds them) with one plain edge rewired or
recoloured, or overwritten by a copy of another edge, so m = 2n - 1
still holds: cone over Z/3, Z/5 and Z/7 at n = 50-300 and cylinder over
Z at n = 20-300.  A cylinder graph is lifted over a prime above three
times its largest colour, so its cover grows with n + m, as a cone
graph's does; the safe prime, whose cover grows with m(n + m), is needed
only when a cycle's value vanishes mod that prime.

The brute route (method="brute") is checked on Ross certificate graphs
over Z^2 with one plain edge rewired, recoloured or overwritten by a
copy of another edge, at n = 9-11 (16-20 edges).  Each is checked for
Ross over Z^2, for Ross with its colours reduced into Z/3xZ/5, and for
the colored count over Z^2.

The theorems: adding any edge between the vertices of a certificate
graph gives a VIOLATION, and dropping any edge never does.
"""

import random
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest

from gainsparse import (ColoredGraph, GroupSpec, Subgraph, check,
                        family_bound, subgraph_counts)
from gainsparse.groups import CYCLIC, CYCLIC_PQ, FREE2
from helpers import certificate_graph, edited

# (family, modulus or None for Z, n, seed, edit).  Most recolours and
# some rewires stay tight, so the cases mix both verdicts.  A violation
# costs 11 witness shrinks or minimality checks, each quadratic in the
# witness; at n = 300 (a 322-edge witness) that is about 10 s, so the
# rewired violations here stop at n = 200.  A copy leaves a parallel
# pair of one colour, a two-edge witness, so the copies reach n = 300,
# where the cylinder cover over the safe prime is above MAX_COVER.
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
    ("cylinder", None, 150, 1, "copy"),
    ("cylinder", None, 300, 2, "copy"),
]


def _raw(g):
    return [(e.id, e.tail, e.head, e.color.coords) for e in sorted(g.edges)]


@lru_cache(maxsize=None)
def _input(case):
    """The edited certificate graph of a case and its lift verdict."""
    family, p, n, seed, edit = case
    spec = GroupSpec.cyclic(p) if p else GroupSpec.free()
    g = certificate_graph(family, n - 1, seed, spec)
    assert g.n == n and g.m == 2 * n - 1
    colours = [(x,) for x in (range(p) if p else range(-2, 3))]
    h = ColoredGraph(spec, g.vertices, edited(g, seed, edit, colours))
    return h, check(h, family, method="lift")


# (family, group, n, seed, edit) on the brute route.  Ross rewires and
# copies break the count and recolours keep it tight; the colored count
# is looser, so only the copies break it.
BRUTE_CASES = [
    (family, group, n, seed, edit)
    for family, group in (("ross", "Z^2"), ("ross", "Z/3xZ/5"),
                          ("colored", "Z^2"))
    for n, seed, edit in ((10, 1, "recolour"), (10, 4, "rewire"),
                          (9, 2, "copy"), (11, 3, "rewire"))
]


@lru_cache(maxsize=None)
def _brute_input(case):
    """The edited Ross certificate graph of a case and its brute verdict."""
    family, group, n, seed, edit = case
    g = certificate_graph("ross", n - 2, seed, GroupSpec.free2())
    assert g.n == n and g.m == 2 * n - 2 <= 24
    colours = [(a, b) for a in range(-1, 2) for b in range(-1, 2)]
    h = ColoredGraph(GroupSpec.parse(group), g.vertices,
                     edited(g, seed, edit, colours))
    return h, check(h, family, method="brute")


# Each transformation maps (graph, rng) to (new graph, old edge id ->
# new edge id).


def _relabel(g, rng):
    new = dict(zip(g.vertices, rng.sample(range(10 * g.n), g.n)))
    verts = [new[x] for x in g.vertices]
    rng.shuffle(verts)
    raw = [(i, new[u], new[v], c) for i, u, v, c in _raw(g)]
    return ColoredGraph(g.spec, verts, raw), {i: i for i in g.edge_ids()}


def _shuffle_edges(g, rng):
    ids = sorted(g.edge_ids())
    emap = dict(zip(ids, rng.sample(range(3 * len(ids)), len(ids))))
    raw = [(emap[i], u, v, c) for i, u, v, c in _raw(g)]
    return ColoredGraph(g.spec, g.vertices, raw), emap


def _reverse(g, rng):
    raw = _raw(g)
    k = rng.randrange(len(raw))
    i, u, v, c = raw[k]
    raw[k] = (i, v, u, tuple(-x for x in c))
    return ColoredGraph(g.spec, g.vertices, raw), {i: i for i in g.edge_ids()}


def _gauge(g, rng):
    # add gamma to the out-edges of x and subtract it from its in-edges;
    # a loop at x gets both and keeps its colour
    x = rng.choice(g.vertices)
    gamma = [rng.choice([-2, -1, 1, 2]) for _ in range(g.spec.ncoords)]
    raw = [(i, u, v, tuple(a + b * ((u == x) - (v == x))
                           for a, b in zip(c, gamma)))
           for i, u, v, c in _raw(g)]
    return ColoredGraph(g.spec, g.vertices, raw), {i: i for i in g.edge_ids()}


def _automorphism(g, rng):
    # x -> a x for a unit a of Z/p; x -> -x on Z; (a, b) -> (u a, v b)
    # for units u, v of Z/p x Z/q; (a, b) -> (b, a) or (a + b, b) on Z^2
    if g.spec.variant == CYCLIC:
        a = rng.randrange(2, g.spec.moduli[0])
        f = lambda c: (a * c[0],)
    elif g.spec.variant == CYCLIC_PQ:
        u, v = (rng.randrange(2, k) for k in g.spec.moduli)
        f = lambda c: (u * c[0], v * c[1])
    elif g.spec.variant == FREE2:
        if rng.random() < 0.5:
            f = lambda c: (c[1], c[0])
        else:
            f = lambda c: (c[0] + c[1], c[1])
    else:
        f = lambda c: (-c[0],)
    raw = [(i, u, v, f(c)) for i, u, v, c in _raw(g)]
    return ColoredGraph(g.spec, g.vertices, raw), {i: i for i in g.edge_ids()}


TRANSFORMS = [_relabel, _shuffle_edges, _reverse, _gauge, _automorphism]


def _violates(g, family, ids):
    counts = subgraph_counts(Subgraph(g, ids))
    return counts.m_prime > family_bound(family, counts)


def test_inputs_include_violations_and_tight_graphs():
    verdicts = [_input(case)[1].sparse for case in CASES]
    assert any(verdicts) and not all(verdicts)


def test_brute_inputs_include_each_verdict_per_family():
    for family in ("ross", "colored"):
        verdicts = {_brute_input(case)[1][:2] for case in BRUTE_CASES
                    if case[0] == family}
        assert (False, False) in verdicts and len(verdicts) > 1


def _check_invariant(family, method, g, v, transform, seed):
    h, emap = transform(g, random.Random(seed))
    assert h.m == g.m and h.n == g.n
    w = check(h, family, method=method)
    assert (w.sparse, w.tight) == (v.sparse, v.tight)
    if v.sparse:
        return
    mapped = frozenset(emap[e] for e in v.witness)
    assert _violates(h, family, mapped)
    for e in mapped:
        assert not _violates(h, family, mapped - {e}), \
            "edge %d is not needed" % e


@pytest.mark.parametrize("transform", TRANSFORMS,
                         ids=[t.__name__.strip("_") for t in TRANSFORMS])
@pytest.mark.parametrize("case", CASES, ids=["%s-%s-n%d-s%d-%s" % c
                                             for c in CASES])
def test_lift_verdict_is_invariant(case, transform):
    _check_invariant(case[0], "lift", *_input(case), transform, case[3])


@pytest.mark.parametrize("transform", TRANSFORMS,
                         ids=[t.__name__.strip("_") for t in TRANSFORMS])
@pytest.mark.parametrize("case", BRUTE_CASES,
                         ids=["%s-%s-n%d-s%d-%s" % c for c in BRUTE_CASES])
def test_brute_verdict_is_invariant(case, transform):
    _check_invariant(case[0], "brute", *_brute_input(case), transform,
                     case[3])


# (family, group, n, seed): certificate graphs of 15-16 edges, so that
# one more edge stays within the brute-force budget
THEOREM_CASES = [("ross", "Z^2", 9, 1), ("cone", "Z/3", 8, 1),
                 ("cone", "Z/5", 8, 2), ("cylinder", "Z", 8, 3)]
_THEOREM_IDS = ["%s-%s-n%d-s%d" % c for c in THEOREM_CASES]


def _certificate_graph(case):
    family, group, n, seed = case
    g = certificate_graph(family, n - (2 if family == "ross" else 1), seed,
                          GroupSpec.parse(group))
    assert g.n == n and g.m <= 23
    return g


@pytest.mark.parametrize("case", THEOREM_CASES, ids=_THEOREM_IDS)
def test_adding_any_edge_gives_a_violation(case):
    g = _certificate_graph(case)
    # a zero and a nonzero colour on every pair of vertices and loop
    colours = {"Z^2": [(0, 0), (1, -1)], "Z": [(0,), (2,)]}.get(
        case[1], [(0,), (1,)])
    for u, v in combinations_with_replacement(sorted(g.vertices), 2):
        for c in colours:
            h = g.with_edges([(u, v, c)])
            assert not check(h, case[0], method="brute").sparse, (u, v, c)


@pytest.mark.parametrize("case", THEOREM_CASES, ids=_THEOREM_IDS)
def test_dropping_any_edge_gives_no_violation(case):
    g = _certificate_graph(case)
    for eid in sorted(g.edge_ids()):
        assert check(g.without_edge(eid), case[0], method="brute").sparse, eid
