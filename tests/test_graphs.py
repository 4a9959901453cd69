"""Colored multigraph structure, cycle images, gauge, and the text format."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gainsparse import (
    ColoredGraph,
    GroupSpec,
    ParseError,
    Subgraph,
    UsageError,
    components,
    gauge_normalize,
    graph_counts,
    normalized_triple,
    parse_colored_graph,
    rho_image_basis,
    rho_rank,
    same_up_to_flip,
    serialize_colored_graph,
    spanning_forest,
    subgraph_counts,
)
from gainsparse.graphs import MAX_VERTICES

Z = GroupSpec.parse("Z")
Z3 = GroupSpec.parse("Z/3")
Z5 = GroupSpec.parse("Z/5")
Z2 = GroupSpec.parse("Z^2")


def _graph(spec, vertices, quads):
    return ColoredGraph(spec, vertices, quads)


def test_construction_validates_endpoints_and_colors():
    with pytest.raises(UsageError):
        _graph(Z5, [0], [(0, 0, 1, (1,))])
    with pytest.raises(UsageError):
        _graph(Z5, [0], [(0, 0, 0, (1, 2))])


@pytest.mark.parametrize("bad", [0.9, 2.0, "0", True])
def test_ids_and_colors_must_be_integers(bad):
    # refused, not truncated: vertex 0.9 is not vertex 0
    cases = [([bad], []),                       # vertex id
             ([0, 1], [(bad, 0, 1, 1)]),         # edge id
             ([0, 1], [(0, bad, 1, 1)]),         # tail
             ([0, 1], [(0, 0, bad, 1)]),         # head
             ([0], [(0, 0, bad)])]                # colour
    for vertices, edges in cases:
        with pytest.raises(UsageError, match="expected an integer"):
            ColoredGraph(Z5, vertices, edges)


def test_duplicate_edge_ids_rejected():
    with pytest.raises(UsageError):
        _graph(Z5, [0, 1], [(0, 0, 1, (1,)), (0, 1, 0, (2,))])


def test_degree_counts_loops_twice():
    g = _graph(Z5, [0, 1], [(0, 0, 0, (1,)), (1, 0, 1, (2,))])
    assert g.degree(0) == 3
    assert g.degree(1) == 1
    assert g.incident(0) == [0, 1]
    assert g.incident(1) == [1]


def test_edge_lookup_and_missing_id():
    g = _graph(Z5, [0, 1], [(4, 1, 0, (2,))])
    e = g.edge(4)
    assert (e.tail, e.head, e.color.coords) == (1, 0, (2,))
    with pytest.raises(UsageError):
        g.edge(0)


def test_with_edges_allocates_fresh_ids():
    g = _graph(Z5, [0], [(3, 0, 0, (1,))])
    g2 = g.with_vertex(1).with_edges([(0, 1, Z5.elem((2,)))])
    assert sorted(g2.edge_ids()) == [3, 4]
    assert g2.edge(4).head == 1
    # the original is untouched
    assert g.m == 1 and g.n == 1


def test_without_vertex_drops_incident_edges():
    g = _graph(Z5, range(3), [(0, 0, 1, (1,)), (1, 1, 2, (1,))])
    g2 = g.without_vertex(2)
    assert g2.vertices == (0, 1)
    assert sorted(g2.edge_ids()) == [0]


def test_components_fixed_cases():
    two_loops = _graph(Z5, [0, 1], [(0, 0, 0, (1,)), (1, 1, 1, (2,))])
    assert len(components(two_loops.full())) == 2
    triangle = _graph(Z5, range(3),
                      [(0, 0, 1, (0,)), (1, 1, 2, (0,)), (2, 2, 0, (0,))])
    assert len(components(triangle.full())) == 1
    empty = _graph(Z5, [0], [])
    assert components(empty.full()) == []


def test_subgraph_vertex_set_is_edge_induced():
    g = _graph(Z5, range(4), [(0, 0, 1, (1,))])
    sub = g.full()
    assert sub.vertex_set == frozenset((0, 1))


def test_spanning_forest_fixed_cases():
    triangle = _graph(Z5, range(3),
                      [(0, 0, 1, (0,)), (1, 1, 2, (0,)), (2, 2, 0, (0,))])
    assert spanning_forest(triangle.full()) == frozenset((0, 1))
    loop = _graph(Z5, [0], [(0, 0, 0, (1,))])
    assert spanning_forest(loop.full()) == frozenset()
    doubled = _graph(Z2, [1, 2], [(0, 1, 2, (1, 0)), (1, 1, 2, (0, 1))])
    assert spanning_forest(doubled.full()) == frozenset((0,))


def test_cycle_images_fixed_cases():
    triangle = _graph(Z5, range(3),
                      [(0, 0, 1, (0,)), (1, 1, 2, (0,)), (2, 2, 0, (0,))])
    assert [e.coords for e in rho_image_basis(triangle.full())] == [(0,)]
    loop = _graph(Z5, [0], [(0, 0, 0, (1,))])
    assert [e.coords for e in rho_image_basis(loop.full())] == [(1,)]
    doubled = _graph(Z2, [1, 2], [(0, 1, 2, (1, 0)), (1, 1, 2, (0, 1))])
    vals = [e.coords for e in rho_image_basis(doubled.full())]
    assert vals in ([(1, -1)], [(-1, 1)])


def test_rho_rank_fixed_cases():
    triangle = _graph(Z5, range(3),
                      [(0, 0, 1, (0,)), (1, 1, 2, (0,)), (2, 2, 0, (0,))])
    assert rho_rank(triangle.full()) == 0
    loop = _graph(Z5, [0], [(0, 0, 0, (1,))])
    assert rho_rank(loop.full()) == 1
    mixed = _graph(Z2, [1, 2],
                   [(0, 1, 2, (1, 0)), (1, 1, 2, (0, 1)), (2, 1, 1, (0, 1))])
    assert rho_rank(mixed.full()) == 2


def test_subgraph_counts_fixed_cases():
    cone_base = _graph(Z3, [0], [(0, 0, 0, (1,))])
    assert subgraph_counts(cone_base.full()) == (1, 1, 1, 0, 1, 0)
    triangle = _graph(Z5, range(3),
                      [(0, 0, 1, (0,)), (1, 1, 2, (0,)), (2, 2, 0, (0,))])
    assert subgraph_counts(triangle.full()) == (3, 3, 0, 1, 0, 0)
    # two rank-1 loops in the same cyclic group: whole-subgraph rank
    # stays 1 because both images lie in one copy of Z/5
    two_loops = _graph(Z5, [0, 1], [(0, 0, 0, (1,)), (1, 1, 1, (2,))])
    assert subgraph_counts(two_loops.full()) == (2, 2, 1, 0, 2, 0)


def test_graph_counts_counts_isolated_vertices():
    g = _graph(Z5, range(3), [(0, 0, 0, (1,))])
    whole = graph_counts(g)
    assert whole.n_prime == 3
    assert whole.c0 == 2 and whole.c1 == 1


def test_gauge_normalize_fixed_cases():
    path = _graph(Z5, range(3), [(0, 0, 1, (1,)), (1, 1, 2, (1,))])
    gp = gauge_normalize(path)
    assert all(e.color.is_zero() for e in gp.edges)

    triangle = _graph(Z5, range(3),
                      [(0, 0, 1, (1,)), (1, 1, 2, (1,)), (2, 2, 0, (1,))])
    gt = gauge_normalize(triangle)
    assert [e.color.coords for e in gt.edges] == [(0,), (0,), (3,)]

    already = gauge_normalize(gp)
    assert already == gp


_spec_pool = (Z, Z3, Z2)


def _random_graph(rng, spec, n_max=5, m_max=7):
    n = rng.randint(1, n_max)
    m = rng.randint(0, m_max)
    edges = []
    for i in range(m):
        c = tuple(rng.randint(-3, 3) for _ in range(spec.ncoords))
        edges.append((i, rng.randrange(n), rng.randrange(n), c))
    return ColoredGraph(spec, range(n), edges)


@settings(deadline=None, max_examples=120)
@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=10**6))
def test_gauge_preserves_cycle_images(si, seed):
    g = _random_graph(random.Random(seed), _spec_pool[si])
    before = [e.coords for e in rho_image_basis(g.full())]
    after = [e.coords for e in rho_image_basis(gauge_normalize(g).full())]
    # the forest is chosen by edge id, so the fundamental cycles line
    # up one-to-one and their images must match exactly
    assert after == before


@settings(deadline=None, max_examples=120)
@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=10**6))
def test_rho_rank_forest_independent(si, seed):
    rng = random.Random(seed)
    g = _random_graph(rng, _spec_pool[si])
    base = rho_rank(g.full())
    ids = list(g.edge_ids())
    rng.shuffle(ids)
    remap = {old: new for new, old in enumerate(ids)}
    shuffled = ColoredGraph(
        g.spec, g.vertices,
        [(remap[e.id], e.tail, e.head, e.color.coords) for e in g.edges])
    assert rho_rank(shuffled.full()) == base


@settings(deadline=None, max_examples=120)
@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=10**6))
def test_rho_rank_monotone_under_subgraphs(si, seed):
    rng = random.Random(seed)
    g = _random_graph(rng, _spec_pool[si])
    if g.m == 0:
        return
    keep = [eid for eid in g.edge_ids() if rng.random() < 0.6]
    sub = ColoredGraph(g.spec, g.vertices,
                       [(e.id, e.tail, e.head, e.color.coords)
                        for e in g.edges if e.id in keep])
    assert rho_rank(sub.full()) <= rho_rank(g.full())


# the forest pass against the longhand oracles

_COUNT_SPECS = (Z, Z5, Z2, GroupSpec.parse("Z/3xZ/5"))


@st.composite
def _graph_and_subset(draw):
    """A graph over one of _COUNT_SPECS (n <= 6, m <= 9) and a subset of
    its edge ids."""
    spec = draw(st.sampled_from(_COUNT_SPECS))
    n = draw(st.integers(min_value=1, max_value=6))
    end = st.integers(min_value=0, max_value=n - 1)
    color = st.tuples(*[st.integers(min_value=-3, max_value=3)] * spec.ncoords)
    edges = draw(st.lists(st.tuples(end, end, color), max_size=9))
    keep = draw(st.lists(st.booleans(), min_size=len(edges),
                         max_size=len(edges)))
    g = ColoredGraph(spec, range(n), edges)
    return g, [i for i, k in enumerate(keep) if k]


def _raw(g, ids):
    return [(g.edge(i).tail, g.edge(i).head, g.edge(i).color.coords)
            for i in ids]


@settings(deadline=None, max_examples=200)
@given(_graph_and_subset())
def test_subgraph_counts_match_the_oracle(case):
    g, ids = case
    counts = subgraph_counts(Subgraph(g, ids))
    n, r, c0, c1, c2 = oracles.colored_subset_counts(
        oracles.describe_group(g.spec), _raw(g, ids))
    assert counts == (n, len(ids), r, c0, c1, c2)


@settings(deadline=None, max_examples=200)
@given(_graph_and_subset())
def test_components_partition_the_edges_like_the_oracle(case):
    g, ids = case
    parts = components(Subgraph(g, ids))
    assert sorted(i for p in parts for i in p.edge_ids) == ids
    firsts = [p.edge_ids[0] for p in parts]
    assert firsts == sorted(firsts)
    want = oracles._components(_raw(g, ids),
                               {x for u, v, _ in _raw(g, ids) for x in (u, v)})
    assert sorted(sorted(p.vertex_set) for p in parts) == sorted(
        sorted(members) for members in want)
    for p in parts:
        assert p.edge_ids == tuple(
            i for i in ids if g.edge(i).tail in p.vertex_set)


@settings(deadline=None, max_examples=200)
@given(_graph_and_subset())
def test_spanning_forest_is_the_greedy_forest(case):
    g, ids = case
    want = oracles.greedy_forest(
        [(i, g.edge(i).tail, g.edge(i).head) for i in ids])
    assert spanning_forest(Subgraph(g, ids)) == want


# text format

def test_serialize_parse_round_trip():
    g = _graph(Z3, range(2), [(0, 0, 0, (1,)), (1, 0, 1, (2,)), (2, 1, 0, (0,))])
    assert parse_colored_graph(serialize_colored_graph(g)) == g


def test_serialize_noncontiguous_vertex_ids():
    g = _graph(Z, [3, 7], [(0, 3, 7, (1,))])
    text = serialize_colored_graph(g)
    assert "vertexids 3 7" in text
    assert parse_colored_graph(text) == g


def test_parse_accepts_comments_and_blank_lines():
    g = parse_colored_graph(
        "# a remark\ngroup Z/3\n\nvertices 2\nedge 0 1 2\n")
    assert g.m == 1 and g.edge(0).color.coords == (2,)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as ei:
        parse_colored_graph("group Z/3\nvertices 1\nedge 0 0\n")
    assert ei.value.lineno == 3
    with pytest.raises(ParseError) as ei:
        parse_colored_graph("vertices 1\n")
    assert ei.value.lineno == 1
    with pytest.raises(ParseError) as ei:
        parse_colored_graph("group Z/3\nvertices 1\nedge 0 2 1\n")
    assert ei.value.lineno == 3
    with pytest.raises(ParseError) as ei:
        parse_colored_graph("group Z^2\nvertices 1\nedge 0 0 1\n")
    assert ei.value.lineno == 3
    with pytest.raises(ParseError) as ei:
        parse_colored_graph("group Z/3\nvertexids 1 1\n")
    assert ei.value.lineno == 2


def test_parse_is_linear_in_the_edge_count():
    # a chain where v joins v-1 and v-2; checking endpoints against a
    # vertex list made parsing quadratic in n
    n = 20000
    edges = "".join("edge %d %d %d\n" % (u, v, (u + v) % 3)
                    for v in range(2, n) for u in (v - 1, v - 2))
    for header in ("vertices %d\n" % n,
                   "vertexids %s\n" % " ".join(map(str, range(n)))):
        t0 = time.perf_counter()
        g = parse_colored_graph("group Z/3\n" + header + edges)
        assert time.perf_counter() - t0 < 2.0
        assert (g.n, g.m) == (n, 2 * n - 4)


def test_vertex_count_is_capped_before_allocation():
    # one header line must not force a 10^9-entry vertex map
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        for count in ("1000000000", "9" * 5000, str(MAX_VERTICES + 1)):
            with pytest.raises(ParseError) as ei:
                parse_colored_graph("group Z/3\nvertices %s\n" % count)
            assert ei.value.lineno == 2
            assert "more than %d vertices" % MAX_VERTICES in str(ei.value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1 << 20
    assert parse_colored_graph("group Z/3\nvertices %d\n"
                               % MAX_VERTICES).n == MAX_VERTICES
    ids = " ".join(map(str, range(MAX_VERTICES + 1)))
    with pytest.raises(ParseError) as ei:
        parse_colored_graph("group Z/3\nvertexids %s\n" % ids)
    assert ei.value.lineno == 2


def test_flip_normalization():
    g1 = _graph(Z5, [0, 1], [(0, 0, 1, (2,))])
    g2 = _graph(Z5, [0, 1], [(5, 1, 0, (3,))])
    assert normalized_triple(g1.edge(0)) == normalized_triple(g2.edge(5))
    assert same_up_to_flip(g1, g2)
    g3 = _graph(Z5, [0, 1], [(0, 0, 1, (1,))])
    assert not same_up_to_flip(g1, g3)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=10**6))
def test_round_trip_any_graph(si, seed):
    g = _random_graph(random.Random(seed), _spec_pool[si])
    assert parse_colored_graph(serialize_colored_graph(g)) == g
