"""Symmetric covers: construction, recognition through the lift, color
reduction, and orbit-circuit elimination."""

import random
import tracemalloc
from unittest import mock

import networkx as nx
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

import gainsparse.henneberg
import gainsparse.lifts
import gainsparse.sparsity
import oracles
from helpers import certificate_graph, edited, is_circuit_23
from gainsparse import (
    ColoredGraph,
    GroupSpec,
    Subgraph,
    PreconditionError,
    SparsityParams,
    UncoloredMultigraph,
    UnsupportedGroupError,
    UsageError,
    build_lift,
    check,
    check_colored_sparsity,
    cone_laman_via_lift,
    eliminate_orbit_circuit,
    family_bound,
    fundamental_circuit,
    gauge_normalize,
    is_kl_sparse,
    kl_basis,
    lift_component_count,
    lift_to_dot,
    lift_to_text,
    path_color_sum,
    reduce_colors,
    rho_rank,
    subgraph_counts,
    tight_in_family,
)
from gainsparse.lifts import MAX_COVER, lift_witness
from gainsparse.sparsity import _subset_violates

P23 = SparsityParams(2, 3)
Z = GroupSpec.parse("Z")
Z3 = GroupSpec.parse("Z/3")
Z5 = GroupSpec.parse("Z/5")
Z7 = GroupSpec.parse("Z/7")
Z2 = GroupSpec.parse("Z^2")
Z3x5 = GroupSpec.parse("Z/3xZ/5")


def _nx_multigraph(sg):
    mg = nx.MultiGraph()
    mg.add_nodes_from(range(sg.n))
    for e in sg.edges:
        mg.add_edge(e.x, e.y)
    return mg


def test_lift_of_a_loop_is_a_cycle():
    g = ColoredGraph(Z3, [0], [(0, 0, 0, (1,))])
    sg = build_lift(g)
    assert (sg.n, sg.m) == (3, 3)
    assert nx.is_isomorphic(_nx_multigraph(sg), nx.cycle_graph(3))


def test_lift_of_zero_colors_is_disjoint_copies():
    g = ColoredGraph(Z3, [0, 1], [(0, 0, 1, (0,))])
    sg = build_lift(g)
    assert (sg.n, sg.m) == (6, 3)
    mg = _nx_multigraph(sg)
    assert nx.number_connected_components(mg) == 3
    assert all(d <= 1 for _, d in mg.degree())


def test_lift_of_cone_base_is_laman_sparse_cycle():
    g = ColoredGraph(Z5, [0], [(0, 0, 0, (1,))])
    sg = build_lift(g)
    assert nx.is_isomorphic(_nx_multigraph(sg), nx.cycle_graph(5))
    assert is_kl_sparse(sg.multigraph(), P23)


@pytest.mark.parametrize("spec, colors", [
    (Z5, [(2,), (1,), (3,), (0,)]),
    (Z3x5, [(2, 1), (1, 0), (0, 4), (0, 0)]),
], ids=["Z5", "Z3xZ5"])
def test_fiber_counts_and_free_action(spec, colors):
    # base vertex ids out of order, so ids and names must not be confused
    names = [4, 2, 7]
    ends = [(0, 0), (0, 1), (1, 2), (2, 0)]
    g = ColoredGraph(spec, names, [(i, names[u], names[v], c) for i, ((u, v), c)
                                   in enumerate(zip(ends, colors))])
    sg = build_lift(g)
    N = spec.order
    assert sg.n == N * g.n and sg.m == N * g.m
    for eid in range(sg.m):
        orbit = sg.orbit_of_edge(eid)
        assert len(orbit) == N
        assert {sg.edges[f].base_eid for f in orbit} == {sg.edges[eid].base_eid}
    for gamma in spec.elements():
        mapped_v = [sg.act_on_vertex(gamma, v) for v in range(sg.n)]
        mapped_e = [sg.act_on_edge(gamma, e) for e in range(sg.m)]
        assert sorted(mapped_v) == list(range(sg.n))
        assert sorted(mapped_e) == list(range(sg.m))
        if not gamma.is_zero():
            assert all(mv != v for v, mv in enumerate(mapped_v))
        # the action by definition: gamma . (i, delta) = (i, delta + gamma)
        for v, mv in enumerate(mapped_v):
            i, gi = sg.vertices[v]
            j, gj = sg.vertices[mv]
            assert j == i and sg.group[gj] == sg.group[gi] + gamma
        # an edge goes to the edge over the same base edge whose
        # endpoints are its endpoints acted on
        for e, me in zip(sg.edges, mapped_e):
            f = sg.edges[me]
            assert f.base_eid == e.base_eid
            assert (f.x, f.y) == (mapped_v[e.x], mapped_v[e.y])


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([Z3, Z5, Z7, Z3x5, GroupSpec.parse("Z/5xZ/3")]),
       st.lists(st.integers(0, 20), min_size=1, max_size=6, unique=True),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                          st.integers(0, 40), st.integers(0, 40)),
                max_size=8),
       st.randoms(use_true_random=False))
def test_arcs_follow_the_id_rule(spec, names, ends, rng):
    # loops and parallel edges allowed, vertex and edge ids out of order
    ids = list(range(len(ends)))
    rng.shuffle(ids)
    edges = [(3 * eid + 1, names[u % len(names)], names[v % len(names)],
              (a % spec.moduli[0],) if spec.ncoords == 1
              else (a % spec.moduli[0], b % spec.moduli[1]))
             for eid, (u, v, a, b) in zip(ids, ends)]
    g = ColoredGraph(spec, names, edges)
    sg = build_lift(g)
    arcs = list(sg.arcs())
    assert arcs == oracles.lift_arcs(g)
    assert sg.m == len(arcs) and list(sg.arcs()) == arcs
    assert [(e.id, e.x, e.y) for e in sg.edges] == arcs


def _z3_attachment(n, seed):
    """A loop at 0, then each vertex v joined to two random earlier
    vertices, random Z/3 colors: cone-tight by vertex additions."""
    rng = random.Random(seed)
    edges = [(0, 0, 0, (1,))]
    for v in range(1, n):
        a, b = rng.randrange(v), rng.randrange(v)
        ca, cb = rng.randrange(3), rng.randrange(3)
        if a == b and ca == cb:
            cb = (cb + 1) % 3
        edges.append((len(edges), v, a, (ca,)))
        edges.append((len(edges), v, b, (cb,)))
    return ColoredGraph(Z3, range(n), edges)


def test_lift_check_holds_no_per_edge_copies():
    # the cover is generated, not stored, and the game keeps pebbles and
    # arcs only: on this 6,000-vertex, 11,997-edge cover the traced peak
    # reads about 1.2 MB, and 1.9 MB with two edge-end lists and a copy
    # of every accepted edge
    g = _z3_attachment(2000, 1)
    tracemalloc.start()
    try:
        assert gainsparse.lifts.lift_witness(g) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6, peak


def test_lift_rejects_unsupported_groups():
    for spec, color in ((Z, (1,)), (Z2, (1, 0))):
        with pytest.raises(UnsupportedGroupError):
            build_lift(ColoredGraph(spec, [0], [(0, 0, 0, color)]))
    for k in (2, 4, 9):
        bad = GroupSpec.parse("Z/%d" % k)
        with pytest.raises(UnsupportedGroupError):
            build_lift(ColoredGraph(bad, [0], [(0, 0, 0, (1,))]))
    # Z/3xZ/5 has lifts, but the cone count is not defined over it
    with pytest.raises(UnsupportedGroupError, match="Z/3xZ/5"):
        cone_laman_via_lift(ColoredGraph(Z3x5, [0], [(0, 0, 0, (1, 0))]))


def test_component_count_fixed_cases():
    zero_path = ColoredGraph(Z5, [0, 1], [(0, 0, 1, (0,))])
    assert lift_component_count(zero_path) == 5
    cone_base = ColoredGraph(Z5, [0], [(0, 0, 0, (1,))])
    assert lift_component_count(cone_base) == 1
    pq = GroupSpec.parse("Z/3xZ/5")
    p_side_only = ColoredGraph(pq, [0], [(0, 0, 0, (1, 0))])
    assert lift_component_count(p_side_only) == 5


def test_path_color_sum_fixed_cases():
    g = ColoredGraph(Z7, range(3), [(0, 0, 1, (2,)), (1, 1, 2, (3,))])
    assert path_color_sum(g, 0, 1, 1).coords == (5,)
    rev = ColoredGraph(Z7, range(3), [(0, 0, 1, (2,)), (1, 2, 1, (3,))])
    assert path_color_sum(rev, 0, 1, 1).coords == (6,)
    zero = ColoredGraph(Z7, range(3), [(0, 0, 1, (0,)), (1, 1, 2, (0,))])
    assert path_color_sum(zero, 0, 1, 1).coords == (0,)
    with pytest.raises(UsageError):
        path_color_sum(g, 0, 2, 1)


def test_path_color_sum_reads_off_the_cover():
    # neighbors of any vertex in the middle fiber differ by the path
    # sum: eta == gamma' - gamma for the a-side and b-side endpoints
    g = ColoredGraph(Z7, range(3), [(0, 0, 1, (2,)), (1, 2, 1, (3,))])
    eta = path_color_sum(g, 0, 1, 1)
    sg = build_lift(g)
    gamma_of = {vi: sg.group[gi] for vi, (i, gi) in enumerate(sg.vertices)}
    base_of = {vi: i for vi, (i, gi) in enumerate(sg.vertices)}
    for w in range(sg.n):
        if base_of[w] != 1:
            continue
        a_sides = [e.x if e.y == w else e.y
                   for e in sg.edges if e.base_eid == 0 and w in (e.x, e.y)]
        b_sides = [e.x if e.y == w else e.y
                   for e in sg.edges if e.base_eid == 1 and w in (e.x, e.y)]
        for av in a_sides:
            for bv in b_sides:
                assert gamma_of[bv] - gamma_of[av] == eta


def test_lift_recognition_fixed_cases():
    assert cone_laman_via_lift(ColoredGraph(Z3, [0], [(0, 0, 0, (1,))]))
    assert not cone_laman_via_lift(ColoredGraph(Z3, [0], [(0, 0, 0, (0,))]))
    g = ColoredGraph(Z3, [1, 2],
                     [(0, 1, 2, (0,)), (1, 1, 2, (1,)), (2, 1, 1, (1,))])
    assert cone_laman_via_lift(g) == check_colored_sparsity(g, "cone").tight
    # The region the third edge's search reaches holds the loop, so it is
    # unbalanced, yet the two parallel zero edges are a balanced set over
    # the (2,3) count: a balance test on the whole region misses it.
    g = ColoredGraph(Z3, [0, 1],
                     [(0, 0, 1, (0,)), (1, 0, 0, (1,)), (2, 0, 1, (0,))])
    assert not cone_laman_via_lift(g)
    for method in ("brute", "lift"):
        assert check(g, "cone", method=method).witness == {0, 2}


def test_lift_recognition_needs_exact_edge_count():
    with pytest.raises(PreconditionError):
        cone_laman_via_lift(ColoredGraph(Z3, [0, 1], [(0, 0, 1, (1,))]))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([3, 5, 7]), st.integers(min_value=0, max_value=10**6))
def test_lift_recognition_matches_brute_force(p, seed):
    rng = random.Random(seed)
    spec = GroupSpec.parse("Z/%d" % p)
    n = rng.randint(1, 4)
    edges = []
    for i in range(2 * n - 1):
        edges.append((i, rng.randrange(n), rng.randrange(n),
                      (rng.randrange(p),)))
    g = ColoredGraph(spec, range(n), edges)
    assert cone_laman_via_lift(g) == check_colored_sparsity(g, "cone").tight


def _planted(family, steps, seed, group=None, how="copy"):
    """A random tight graph of the family with one plain edge overwritten,
    so m = 2n - 1 still holds but the count breaks: by a copy of another
    edge, or ("rewire") by a new edge between two random vertices with
    the color of a random edge, redrawn until the lift check fails."""
    g = certificate_graph(family, steps, seed, group)
    rng = random.Random(seed)
    edges = [(e.id, e.tail, e.head, e.color) for e in sorted(g.edges)]
    plain = [i for i, e in enumerate(edges) if e[1] != e[2]]
    while True:
        i, j = rng.sample(plain, 2)
        if how == "copy":
            new = edges[j][1:]
        else:
            new = tuple(rng.sample(g.vertices, 2)) + (edges[j][3],)
        trial = edges[:i] + [(edges[i][0],) + new] + edges[i + 1:]
        h = ColoredGraph(g.spec, g.vertices, trial)
        if not check(h, family, method="lift").sparse:
            return h


@pytest.mark.parametrize("family, p", [("cone", 5), ("cylinder", None)])
def test_lift_verdict_builds_one_lift(monkeypatch, family, p):
    g = _planted(family, 9, 3, GroupSpec.cyclic(p) if p else None)
    built = []
    real = gainsparse.lifts.build_lift

    def counting(h):
        built.append(h)
        return real(h)

    monkeypatch.setattr(gainsparse.lifts, "build_lift", counting)
    assert not check(g, family, method="lift").sparse
    assert len(built) == 1


def _z3_chain(n, seed):
    """The adversarial pebble shape: a loop at 0, then vertex v joined to
    v-1 and v-2 (twice to 0 for v = 1), random Z/3 colors.  Cone-tight
    by vertex additions."""
    rng = random.Random(seed)
    edges = [(0, 0, 0, (1,))]
    for v in range(1, n):
        a, b = (v - 1, v - 2) if v >= 2 else (0, 0)
        ca, cb = rng.randrange(3), rng.randrange(3)
        if a == b and ca == cb:
            cb = (cb + 1) % 3
        edges.append((len(edges), a, v, (ca,)))
        edges.append((len(edges), b, v, (cb,)))
    return ColoredGraph(Z3, range(n), edges)


def test_pebble_search_work_is_linear_on_the_chain_lift():
    # a shortest-path search finds the free pebble a few arcs away; a
    # depth-first one wandered off and reached ~3.7x more at double n
    reached = []
    for n in (1000, 2000):
        sg = build_lift(_z3_chain(n, 1))
        game = gainsparse.sparsity._PebbleGame(sg.n, 2, 3)
        rejected = list(game.play(sg.arcs))
        assert rejected == []
        reached.append(game.reached)
    assert reached[1] <= 2.5 * reached[0], reached


def test_passing_lift_check_builds_no_multigraph(monkeypatch):
    # nor does a failing one: its witness is read off the stuck game
    g = certificate_graph("cone", 40, 2, Z5)
    cyl = certificate_graph("cylinder", 30, 2)
    failing = [(family, _planted(family, 12, 2, group, how))
               for family, group in (("cone", Z5), ("cone", Z7),
                                     ("cylinder", None))
               for how in ("copy", "rewire")]
    built = []
    real = UncoloredMultigraph.__init__

    def counting(self, *args):
        built.append(self)
        real(self, *args)

    monkeypatch.setattr(UncoloredMultigraph, "__init__", counting)
    assert check(g, "cone", method="lift") == (True, True, None)
    assert check(cyl, "cylinder", method="lift") == (True, True, None)
    for family, h in failing:
        assert not check(h, family, method="lift").sparse
    assert built == []


def _random_lift_input(family, p, rng):
    """A graph with m = 2n - 1 and n <= 8: random edges, or a tight
    certificate graph with one plain edge rewired at random."""
    n = rng.randint(1, 8)
    spec = GroupSpec.cyclic(p) if family == "cone" else Z

    def color():
        return ((rng.randrange(p),) if family == "cone"
                else (rng.randint(-3, 3),))

    if n < 3 or rng.random() < 0.25:
        return ColoredGraph(spec, range(n),
                            [(i, rng.randrange(n), rng.randrange(n), color())
                             for i in range(2 * n - 1)])
    g = certificate_graph(family, n - 1, rng.randrange(10 ** 6), spec)
    edges = [(e.id, e.tail, e.head, e.color) for e in sorted(g.edges)]
    i = rng.choice([i for i, e in enumerate(edges) if e[1] != e[2]])
    edges[i] = (edges[i][0],) + tuple(rng.sample(g.vertices, 2)) + (color(),)
    return ColoredGraph(spec, g.vertices, edges)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([("cone", 3), ("cone", 5), ("cone", 7),
                        ("cylinder", None)]),
       st.integers(min_value=0, max_value=10**6))
def test_lift_witness_is_the_fiber_shrink(case, seed):
    # the lift route reports the projection of its stuck region, minimised
    # in the base; the old route shrank that set fiber by fiber in the lift
    family, p = case
    g = _random_lift_input(family, p, random.Random(seed))
    h = g if family == "cone" else reduce_colors(g)[0]
    found = gainsparse.lifts.lift_witness(h)
    v = check(g, family, method="lift")
    if found is None:
        return
    edges = {e.id: (e.tail, e.head, e.color.coords[0]) for e in h.edges}
    reference = oracles.lift_fiber_shrink(h.spec.moduli[0], edges, found)
    assert v.witness == reference


def _glued(n, seed):
    """Two tight cylinder graphs on n/2 vertices each, joined by one
    bridge edge: m = 2n - 1 and the lift passes, but the underlying graph
    is not (2,2)-spanning, so the witness is two disjoint circuits."""
    a = certificate_graph("cylinder", n // 2 - 1, seed)
    b = certificate_graph("cylinder", n // 2 - 1, seed + 1)
    dv, de = max(a.vertices) + 1, max(a.edge_ids()) + 1
    edges = [(e.id, e.tail, e.head, e.color) for e in a.edges]
    edges += [(e.id + de, e.tail + dv, e.head + dv, e.color) for e in b.edges]
    edges.append((max(e[0] for e in edges) + 1, a.vertices[0],
                  b.vertices[0] + dv, (0,)))
    return ColoredGraph(Z, list(a.vertices) + [v + dv for v in b.vertices],
                        edges)


def test_disjoint_circuit_witness_reads_one_game(monkeypatch):
    # n = 10, m = 19: the reduced lift passes, but the (2,2) game rejects
    # two edges, and their circuits are the witness
    g = _glued(10, 1)
    assert (g.n, g.m) == (10, 19)
    assert gainsparse.lifts.lift_witness(reduce_colors(g)[0]) is None
    games = []
    real = gainsparse.sparsity._PebbleGame.__init__

    def counting(self, *args):
        games.append(args)
        real(self, *args)

    monkeypatch.setattr(gainsparse.sparsity._PebbleGame, "__init__", counting)
    w = gainsparse.lifts.disjoint_circuit_witness(g)
    assert len(games) == 1
    monkeypatch.undo()

    raw = {e.id: (e.tail, e.head, e.color.coords) for e in g.edges}

    def violates(ids):
        sub = [raw[i] for i in ids]
        counts = oracles.colored_subset_counts(("Z",), sub)
        return len(sub) > oracles.family_bound("cylinder", *counts)

    def kl22_sparse(ids):
        return oracles.kl_sparse_edge_subsets(
            [raw[i][:2] for i in ids], 2, 2)

    parts = list(nx.connected_components(nx.Graph(
        [raw[i][:2] for i in w])))
    assert len(parts) == 2
    for part in parts:
        c = {i for i in w if raw[i][0] in part}
        assert not kl22_sparse(c)
        assert all(kl22_sparse(c - {i}) for i in c)
    assert violates(w)
    assert not any(violates(w - {i}) for i in w)
    assert w == check(g, "cylinder", method="lift").witness
    assert w == check(g, "cylinder", method="brute").witness


_CONE_ROWS = [("cone", 3, 80, 0), ("cone", 3, 55, 1), ("cone", 5, 60, 2),
              ("cone", 5, 45, 3), ("cone", 7, 40, 4), ("cone", 7, 70, 5)]
_CYLINDER_ROWS = [("cylinder", None, 30, 6), ("cylinder", None, 34, 7)]


@pytest.mark.parametrize(
    "family, p, n, seed, how",
    [row + (how,) for row in _CONE_ROWS + _CYLINDER_ROWS
     for how in ("copy", "rewire")]
    + [row + ("glue",) for row in _CYLINDER_ROWS])
def test_lift_witness_is_minimal_above_brute_budget(family, p, n, seed, how):
    if how == "glue":
        g = _glued(n, seed)
    else:
        g = _planted(family, n - 1, seed,
                     GroupSpec.cyclic(p) if p else None, how)
    assert g.m == 2 * g.n - 1 > 24

    def violates(ids):
        counts = subgraph_counts(Subgraph(g, ids))
        return counts.m_prime > family_bound(family, counts)

    v = check(g, family, method="lift")
    assert not v.sparse and v.witness
    assert violates(v.witness)
    for e in v.witness:
        assert not violates(v.witness - {e}), "edge %d is not needed" % e


def test_reduce_colors_fixed_cases():
    loop = ColoredGraph(Z, [0], [(0, 0, 0, (1,))])
    rg, primes = reduce_colors(loop)
    assert primes == (5,)
    assert str(rg.spec) == "Z/5"
    assert rg.edge(0).color.coords == (1,)

    zeros = ColoredGraph(Z, [0, 1], [(0, 0, 1, (0,))])
    rg, primes = reduce_colors(zeros)
    assert primes == (3,)
    assert all(e.color.is_zero() for e in rg.edges)

    # Z^2 is refused: componentwise reduction can raise a subgraph's
    # lattice rank, e.g. loops (1,1) and (2,2) have rank 1 in Z^2 but
    # rank 2 in Z/11xZ/13
    plane = ColoredGraph(Z2, [0], [(0, 0, 0, (1, 1)), (1, 0, 0, (2, 2))])
    with pytest.raises(UsageError):
        reduce_colors(plane)


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=10**6))
def test_reduction_preserves_rank_zero_structure(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(0, 6)
    edges = [(i, rng.randrange(n), rng.randrange(n), (rng.randint(-4, 4),))
             for i in range(m)]
    g = ColoredGraph(Z, range(n), edges)
    rg, _ = reduce_colors(g)
    for _ in range(8):
        keep = [eid for eid in g.edge_ids() if rng.random() < 0.7]
        sub = ColoredGraph(g.spec, g.vertices,
                           [(e.id, e.tail, e.head, e.color.coords)
                            for e in g.edges if e.id in keep])
        rsub = ColoredGraph(rg.spec, rg.vertices,
                            [(e.id, e.tail, e.head, e.color.coords)
                             for e in rg.edges if e.id in keep])
        assert (rho_rank(sub.full()) == 0) == (rho_rank(rsub.full()) == 0)


def _mod(g, p):
    """The Z graph g with its colours reduced mod p, over Z/p."""
    return ColoredGraph(GroupSpec.cyclic(p), g.vertices,
                        [(e.id, e.tail, e.head, (e.color.coords[0] % p,))
                         for e in g.edges])


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=3, max_value=60),
       st.integers(min_value=0, max_value=10**6), st.booleans())
def test_a_small_prime_pass_is_a_safe_prime_pass(steps, seed, rewire):
    # reducing Z colours mod an odd prime p never makes a balanced set
    # unbalanced, so every set's cone bound mod p is at most its bound
    # over Z: a graph whose colours mod p pass the lift check passes it
    # with the safe prime of reduce_colors too.  p0, the smallest odd
    # prime above 3 max|c|, keeps every cycle of up to three edges nonzero
    g = _edited(certificate_graph("cylinder", steps, seed), seed,
                "rewire" if rewire else None)
    assert g.m == 2 * g.n - 1
    safe = cone_laman_via_lift(reduce_colors(g)[0])
    p0 = sympy.nextprime(3 * max(abs(e.color.coords[0]) for e in g.edges))
    for p in (3, 5, 7, p0):
        assert safe or not cone_laman_via_lift(_mod(g, p)), p


def _edited(g, seed, edit):
    """The Z graph g as it is (edit None) or helpers.edited."""
    if edit is None:
        return g
    return ColoredGraph(Z, g.vertices, edited(g, seed, edit))


def _safe_prime_check(g):
    """check(g, "cylinder", method="lift") with no small prime tried, so
    its lift runs over the safe prime of reduce_colors alone."""
    with mock.patch.object(gainsparse.henneberg, "_small_prime",
                           lambda g: None):
        return check(g, "cylinder", method="lift")


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=3, max_value=60),
       st.integers(min_value=0, max_value=10**6),
       st.sampled_from([None, "rewire", "copy"]))
def test_the_small_prime_route_gives_the_safe_prime_verdict(steps, seed,
                                                           edit):
    # a pass mod p0 is the safe prime's pass, and a rejection is kept
    # only when its set breaks g's own count, so verdicts agree and the
    # witness is a minimal violating set of g
    g = _edited(certificate_graph("cylinder", steps, seed), seed, edit)
    total = sum(abs(e.color.coords[0]) for e in g.edges)
    assume(2 * (total + 1) * (g.n + g.m) <= MAX_COVER)
    v = check(g, "cylinder", method="lift")
    assert v[:2] == _safe_prime_check(g)[:2]
    assert tight_in_family(g, "cylinder") == v.tight
    if not v.sparse:
        assert _subset_violates(g, "cylinder", v.witness)
        for e in v.witness:
            assert not _subset_violates(g, "cylinder", v.witness - {e}), e


@pytest.mark.parametrize("g, p", [
    (ColoredGraph(Z, [0], [(0, 0, 0, (3,))]), 3),
    (certificate_graph("cylinder", 10, 1), 3),
    (certificate_graph("cylinder", 20, 1), 5),
], ids=["loop", "n11", "n21"])
def test_a_vanished_cycle_falls_back_to_the_safe_prime(g, p):
    # a tight graph with a cycle whose value is a nonzero multiple of p:
    # its lift mod p rejects a set that g's own count allows, so the
    # route must not trust that rejection but decide over the safe prime
    found = lift_witness(_mod(g, p))
    assert found is not None and not _subset_violates(g, "cylinder", found)
    with mock.patch.object(gainsparse.henneberg, "_small_prime",
                           lambda g: p):
        assert check(g, "cylinder", method="lift") == (True, True, None)
        assert tight_in_family(g, "cylinder")


def test_gauge_shift_gives_isomorphic_lift():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        edges = [(i, rng.randrange(n), rng.randrange(n), (rng.randrange(5),))
                 for i in range(m)]
        g = ColoredGraph(Z5, range(n), edges)
        a = _nx_multigraph(build_lift(g))
        b = _nx_multigraph(build_lift(gauge_normalize(g)))
        assert nx.is_isomorphic(a, b)


def _overlap_instance():
    # tight two-vertex base plus one extra parallel edge; the rejected
    # fiber edge's circuit sweeps whole fibers of the original edges
    g = ColoredGraph(Z3, [0, 1],
                     [(0, 0, 0, (1,)), (1, 0, 1, (0,)), (2, 0, 1, (1,)),
                      (3, 0, 1, (2,))])
    sg = build_lift(g)
    mg = sg.multigraph()
    basis = kl_basis(mg, P23)
    rejected = sorted(set(range(sg.m)) - basis)
    circuit = fundamental_circuit(mg, P23, basis, rejected[0])
    return sg, circuit


def test_eliminate_keeps_disjoint_circuit_unchanged():
    sg, circuit = _overlap_instance()
    rejected = [e for e in circuit if len(circuit & sg.orbit_of_edge(e)) == 1]
    assert rejected
    assert eliminate_orbit_circuit(sg, circuit, rejected[0]) == circuit


def _count_games(monkeypatch):
    games = []
    real = gainsparse.sparsity._run_game

    def counting(*args, **kwargs):
        games.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gainsparse.sparsity, "_run_game", counting)
    monkeypatch.setattr(gainsparse.lifts, "_run_game", counting)
    return games


def test_eliminate_plays_one_game_on_a_thin_circuit(monkeypatch):
    sg, circuit = _overlap_instance()
    thin = [e for e in circuit if len(circuit & sg.orbit_of_edge(e)) == 1]
    games = _count_games(monkeypatch)
    assert eliminate_orbit_circuit(sg, circuit, thin[0]) == circuit
    assert len(games) == 1


def test_eliminate_plays_three_games_on_a_crowded_circuit(monkeypatch):
    # the two circuit guards and one search game, which names each
    # rejected edge's circuit as it rejects it
    sg, circuit = _overlap_instance()
    crowded = [e for e in circuit if len(circuit & sg.orbit_of_edge(e)) >= 2]
    games = _count_games(monkeypatch)
    out = eliminate_orbit_circuit(sg, circuit, crowded[0])
    assert len(out & sg.orbit_of_edge(crowded[0])) <= 1
    assert len(games) <= 3


def test_eliminate_reduces_overlapping_orbit():
    sg, circuit = _overlap_instance()
    mg = sg.multigraph()
    crowded = [e for e in circuit if len(circuit & sg.orbit_of_edge(e)) >= 2]
    assert crowded, "instance must have an orbit meeting the circuit twice"
    out = eliminate_orbit_circuit(sg, circuit, crowded[0])
    assert len(out & sg.orbit_of_edge(crowded[0])) <= 1
    assert is_circuit_23(mg, out)


def test_eliminate_rejects_non_circuits():
    sg, circuit = _overlap_instance()
    with pytest.raises(UsageError):
        eliminate_orbit_circuit(sg, frozenset(range(sg.m)), 0)


def test_lift_text_and_dot_formats():
    g = ColoredGraph(Z3, [0], [(0, 0, 0, (1,))])
    sg = build_lift(g)
    text = lift_to_text(sg)
    assert "vertex 0_0" in text
    assert "edge 0_0 0_1" in text
    dot = lift_to_dot(sg)
    assert dot.startswith("graph lift {")
    assert 'label="fiber 0"' in dot
    assert 'n0 [label="0_0"]' in dot
    assert "n0 -- n1;" in dot
    # vertex ids given out of order: clusters still ascend by base vertex,
    # each holding its own fiber's run of lift ids
    sg = build_lift(ColoredGraph(Z3, [5, 2], [(0, 5, 2, (1,)), (1, 2, 2, (1,)),
                                              (2, 5, 5, (2,))]))
    dot = lift_to_dot(sg)
    assert dot.index("cluster_2") < dot.index("cluster_5")
    fiber2 = dot[dot.index("cluster_2"):dot.index("cluster_5")]
    assert all('n%d [label="2_%d"]' % (3 + gi, gi) in fiber2 for gi in range(3))
