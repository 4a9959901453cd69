"""Symmetric covers: construction, recognition through the lift, color
reduction, and orbit-circuit elimination."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from gainsparse import (
    ColoredGraph,
    GroupSpec,
    PreconditionError,
    SparsityParams,
    UncoloredMultigraph,
    UnsupportedGroupError,
    UsageError,
    build_lift,
    check_colored_sparsity,
    cone_laman_via_lift,
    eliminate_orbit_circuit,
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
)

P23 = SparsityParams(2, 3)
Z = GroupSpec.parse("Z")
Z3 = GroupSpec.parse("Z/3")
Z5 = GroupSpec.parse("Z/5")
Z7 = GroupSpec.parse("Z/7")
Z2 = GroupSpec.parse("Z^2")


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


def test_fiber_counts_and_free_action():
    g = ColoredGraph(Z5, range(3),
                     [(0, 0, 0, (2,)), (1, 0, 1, (1,)), (2, 1, 2, (3,)),
                      (3, 2, 0, (0,))])
    sg = build_lift(g)
    assert sg.n == 5 * g.n and sg.m == 5 * g.m
    for eid in range(sg.m):
        assert len(sg.orbit_of_edge(eid)) == 5
    for gamma in Z5.elements():
        mapped_v = [sg.act_on_vertex(gamma, v) for v in range(sg.n)]
        mapped_e = [sg.act_on_edge(gamma, e) for e in range(sg.m)]
        assert sorted(mapped_v) == list(range(sg.n))
        assert sorted(mapped_e) == list(range(sg.m))
        if not gamma.is_zero():
            assert all(mv != v for v, mv in enumerate(mapped_v))


def test_lift_rejects_unsupported_groups():
    for spec, color in ((Z, (1,)), (Z2, (1, 0))):
        with pytest.raises(UnsupportedGroupError):
            build_lift(ColoredGraph(spec, [0], [(0, 0, 0, color)]))
    for k in (2, 4, 9):
        bad = GroupSpec.parse("Z/%d" % k)
        with pytest.raises(UnsupportedGroupError):
            build_lift(ColoredGraph(bad, [0], [(0, 0, 0, (1,))]))


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


def _is_circuit(mg, edge_ids):
    """Minimal (2,3) violation: the set violates, every one-edge-removed
    subset does not."""
    by_id = {e[0]: e for e in mg.edges}
    def sparse(ids):
        sub = UncoloredMultigraph(mg.vertices, [by_id[i] for i in ids])
        return is_kl_sparse(sub, P23)
    if sparse(edge_ids):
        return False
    return all(sparse(edge_ids - {i}) for i in edge_ids)


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


def test_eliminate_reduces_overlapping_orbit():
    sg, circuit = _overlap_instance()
    mg = sg.multigraph()
    crowded = [e for e in circuit if len(circuit & sg.orbit_of_edge(e)) >= 2]
    assert crowded, "instance must have an orbit meeting the circuit twice"
    out = eliminate_orbit_circuit(sg, circuit, crowded[0])
    assert len(out & sg.orbit_of_edge(crowded[0])) <= 1
    assert _is_circuit(mg, out)


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
