"""Symmetric covers of colored graphs over finite groups.

The lift of a colored graph over Z/p (p an odd prime) or Z/p x Z/q puts a
vertex (i, gamma) over each base vertex i and group element gamma, and an
undirected edge {(i, gamma), (j, color_ij + gamma)} over each oriented
base edge ij, one per gamma.  The group acts freely by translating the
second coordinate, and the quotient gives back the base graph.

Everything the package knows about recognizing colored sparsity in
polynomial time routes through here: the lift of a Z/p-colored graph with
2n-1 edges is Laman-sparse exactly when the base is cone-Laman, a
connected base has a connected lift exactly when its rho-rank is nonzero
(and otherwise the component count is the index of the rho-image), and
Z colors are first reduced modulo a safe prime that no cycle sum can
reach.  When a lift check fails, lift_witness and disjoint_circuit_witness
turn the failure into a minimal violating edge set of the base graph.
"""

from collections import namedtuple

from .errors import (UsageError, UnsupportedGroupError, PreconditionError,
                     InternalInvariantError)
from . import groups as G
from .graphs import ColoredGraph, Subgraph, components
from .sparsity import (CONE, CYLINDER, UncoloredMultigraph, underlying,
                       kl_basis, is_kl_sparse, fundamental_circuit, _run_game,
                       _subset_violates, _minimize_witness)

LiftEdge = namedtuple("LiftEdge", ["id", "x", "y", "base_eid", "gamma_index"])


class SymmetricGraph:
    """A lift together with its free group action.

    Vertices are pairs (base vertex id, group element index), where group
    elements are enumerated canonically (0..k-1 for Z/k, lexicographic
    pairs for Z/p x Z/q).  Lift edges are ordered by (base edge id, group
    index), which fixes ids for reproducible pebble runs.
    """

    __slots__ = ("base", "group", "_gidx", "vertices", "_vidx", "edges", "_fiber")

    def __init__(self, base, group, vertices, edges):
        self.base = base
        self.group = group                       # list of GroupElem
        self._gidx = {e.coords: i for i, e in enumerate(group)}
        self.vertices = vertices                 # list of (i, gamma index)
        self._vidx = {v: i for i, v in enumerate(vertices)}
        self.edges = edges                       # list of LiftEdge
        self._fiber = {}
        for e in edges:
            self._fiber.setdefault(e.base_eid, []).append(e.id)

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.edges)

    def vertex_name(self, vi):
        i, gi = self.vertices[vi]
        return "%d_%s" % (i, self.group[gi])

    def orbit_of_edge(self, eid):
        """All lift edge ids over the same base edge (the edge's fiber)."""
        return frozenset(self._fiber[self.edges[eid].base_eid])

    def act_on_vertex(self, gamma, vi):
        """Index of gamma . (i, delta) = (i, delta + gamma)."""
        i, gi = self.vertices[vi]
        shifted = self.group[gi] + gamma
        return self._vidx[(i, self._gidx[shifted.coords])]

    def act_on_edge(self, gamma, eid):
        e = self.edges[eid]
        shifted = self.group[e.gamma_index] + gamma
        gi = self._gidx[shifted.coords]
        # fiber edges are ordered by gamma index within each base fiber
        return self._fiber[e.base_eid][gi]

    def translate_edges(self, gamma, edge_ids):
        return frozenset(self.act_on_edge(gamma, e) for e in edge_ids)

    def multigraph(self):
        """The lift as an uncolored multigraph on dense vertex indices."""
        return UncoloredMultigraph(range(self.n),
                                  [(e.id, e.x, e.y) for e in self.edges])

    def __repr__(self):
        return "SymmetricGraph(over %s, n=%d, m=%d)" % (self.base.spec, self.n, self.m)


def odd_prime_cyclic(spec):
    """Is spec Z/p for an odd prime p, the cyclic groups lifts exist over?"""
    return (spec.variant == G.CYCLIC and spec.moduli[0] % 2 == 1
            and G._is_prime(spec.moduli[0]))


def _require_liftable(spec):
    if spec.variant == G.CYCLIC and not odd_prime_cyclic(spec):
        raise UnsupportedGroupError(
            "lifts need an odd prime modulus, got Z/%d" % spec.moduli[0])
    if not spec.finite:
        raise UnsupportedGroupError("cannot lift over the infinite group %s" % spec)


def build_lift(g):
    """The symmetric cover of g.  |Gamma| * n vertices, |Gamma| * m edges,
    with the edge over (base edge ij, gamma) joining (i, gamma) to
    (j, color_ij + gamma)."""
    _require_liftable(g.spec)
    group = g.spec.elements()
    gidx = {e.coords: i for i, e in enumerate(group)}
    vertices = [(i, gi) for i in g.vertices for gi in range(len(group))]
    vidx = {v: i for i, v in enumerate(vertices)}
    edges = []
    eid = 0
    for e in sorted(g.edges):
        for gi, gamma in enumerate(group):
            other = (e.color + gamma).coords
            x = vidx[(e.tail, gi)]
            y = vidx[(e.head, gidx[other])]
            edges.append(LiftEdge(eid, x, y, e.id, gi))
            eid += 1
    return SymmetricGraph(g, group, vertices, edges)


def _component_count(n, pairs):
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    parts = n
    for x, y in pairs:
        a, b = find(x), find(y)
        if a != b:
            root[a] = b
            parts -= 1
    return parts


def lift_component_count(g):
    """Number of connected components of the lift of a connected graph.

    Equals the index of the rho-image subgroup in the color group, so it
    is 1 exactly when the rho-rank is nonzero (for Z/p), and one of 1, p,
    q, pq over Z/p x Z/q.
    """
    if g.n == 0:
        raise UsageError("empty graph has no lift components")
    if len(components(g.full())) != 1 or len(g.full().vertex_set) != g.n:
        raise UsageError("lift_component_count needs a connected graph")
    sg = build_lift(g)
    return _component_count(sg.n, [(e.x, e.y) for e in sg.edges])


def path_color_sum(g, edge_ai, i, edge_ib):
    """The oriented color sum eta along a path a--i--b given by two edge
    ids: the first edge traversed toward i, the second away from it.

    In the lift, the neighbors (a, gamma) and (b, gamma') of any vertex in
    the fiber over i satisfy eta = gamma' - gamma, so eta can be read off
    the cover.
    """
    e1, e2 = g.edge(edge_ai), g.edge(edge_ib)
    for e in (e1, e2):
        if e.tail == e.head:
            raise UsageError("path_color_sum is undefined through a loop")
        if i not in (e.tail, e.head):
            raise UsageError("edge %d is not incident on vertex %d" % (e.id, i))
    first = e1.color if e1.head == i else -e1.color
    second = e2.color if e2.tail == i else -e2.color
    return first + second


def cone_laman_via_lift(g):
    """Decide cone-Laman-ness of a graph with 2n-1 edges by testing its
    lift for (2,3)-sparsity with the pebble game.  This is the
    polynomial-time route; the brute-force count is the oracle it is
    checked against.
    """
    _require_liftable(g.spec)
    if g.m != 2 * g.n - 1:
        raise PreconditionError(
            "lift criterion needs m = 2n - 1, got n=%d m=%d" % (g.n, g.m))
    return is_kl_sparse(build_lift(g).multigraph(), (2, 3))


def _next_odd_prime(above):
    c = max(3, above + 1)
    if c % 2 == 0:
        c += 1
    while not G._is_prime(c):
        c += 2
    return c


def reduce_colors(g):
    """Reduce Z colors mod a safe prime.  Returns (reduced graph, (p,)).

    p is the smallest odd prime exceeding twice (the sum of the color
    magnitudes + 1), so no fundamental cycle sum can wrap: every cycle's
    value has magnitude at most the sum of all color magnitudes,
    marginally below p/2, and differences of two such sums stay in
    (-p, p).  Whether a subgraph's cycle sums are all zero is therefore
    preserved.
    """
    if g.spec.variant != G.FREE1:
        raise UsageError("reduce_colors expects Z colors, got %s" % g.spec)
    total = sum(abs(e.color.coords[0]) for e in g.edges)
    p = _next_odd_prime(2 * (total + 1))
    spec = G.GroupSpec.cyclic(p)
    out = ColoredGraph(spec, g.vertices,
                       [(e.id, e.tail, e.head, spec.elem(e.color.coords[0]))
                        for e in g.edges])
    return out, (p,)


# --- witnesses -----------------------------------------------------------


def lift_witness(g):
    """A minimal cone-violating edge set for a graph whose lift check
    failed.

    The pebble run over the lift yields a circuit; its base edges are a
    set whose own lift is dependent, and stripping edges that are not
    needed for dependence leaves a minimal such set, which must itself
    break the count (were only a proper subset at fault, that subset's
    lift would already be dependent).  The result is double-checked
    against the count before being reported.
    """
    sg = build_lift(g)
    mg = sg.multigraph()
    _, accepted, rejected = _run_game(mg, 2, 3, stop_on_reject=True)
    circuit = fundamental_circuit(mg, (2, 3), accepted, rejected[0])
    keep = sorted({sg.edges[lid].base_eid for lid in circuit})
    # one ascending pass reaches a minimal dependent set: an edge kept
    # because removal broke dependence stays necessary as the set shrinks
    for eid in list(keep):
        if len(keep) == 1:
            break
        rest = [e for e in keep if e != eid]
        if not is_kl_sparse(build_lift(_induced(g, rest)).multigraph(), (2, 3)):
            keep = rest
    witness = frozenset(keep)
    if not _subset_violates(g, CONE, witness):
        raise InternalInvariantError(
            "projected lift circuit %r does not break the cone count"
            % sorted(witness))
    return witness


def _induced(g, edge_ids):
    sub = Subgraph(g, edge_ids)
    return ColoredGraph(g.spec, sorted(sub.vertex_set), sub.edges())


def disjoint_circuit_witness(g):
    """Cylinder witness when the colored counts pass mod p but the
    underlying graph is not (2,2)-spanning: two vertex-disjoint
    (2,2)-circuits whose union breaks the cylinder count.  Disjointness
    is forced, since inside a graph all of whose subsets meet the cone
    count a connected region carries at most one circuit."""
    umg = underlying(g)
    _, accepted, rejected = _run_game(umg, 2, 2)
    if len(rejected) < 2:
        raise InternalInvariantError(
            "spanning failed with %d rejected edges" % len(rejected))
    c1 = fundamental_circuit(umg, (2, 2), accepted, rejected[0])
    c2 = fundamental_circuit(umg, (2, 2), accepted, rejected[1])

    def span(c):
        return {v for eid in c for v in (g.edge(eid).tail, g.edge(eid).head)}

    if span(c1) & span(c2):
        raise InternalInvariantError("expected vertex-disjoint circuits")
    witness = _minimize_witness(g, CYLINDER, frozenset(c1 | c2))
    if not _subset_violates(g, CYLINDER, witness):
        raise InternalInvariantError("disjoint circuits do not break the count")
    return witness


# --- orbit circuits ------------------------------------------------------


def _subset_multigraph(umg, edge_ids):
    ids = sorted(edge_ids)
    verts = sorted({v for eid in ids for v in umg._byid[eid][1:]})
    return UncoloredMultigraph(verts, [umg._byid[eid] for eid in ids])


def _is_circuit(umg, edge_ids):
    """A (2,3)-circuit: dependent as a whole, every proper subset sparse."""
    ids = sorted(edge_ids)
    sub = _subset_multigraph(umg, ids)
    if is_kl_sparse(sub, (2, 3)):
        return False
    for drop in ids:
        rest = _subset_multigraph(umg, [x for x in ids if x != drop])
        if not is_kl_sparse(rest, (2, 3)):
            return False
    return True


def _circuit_inside(umg, edge_ids, prefer_last):
    """Some (2,3)-circuit within a dependent edge set.  Edges in
    prefer_last are offered to the pebble game after all the others, which
    steers the circuit away from them where possible."""
    ids = sorted(edge_ids)
    order = [x for x in ids if x not in prefer_last] + [x for x in ids if x in prefer_last]
    _, _, rejected = _run_game(umg, 2, 3, order)
    if not rejected:
        raise InternalInvariantError("circuit elimination produced an independent set")
    f = rejected[0]
    # everything offered before the first rejection was accepted
    basis = order[:order.index(f)]
    return fundamental_circuit(umg, (2, 3), basis, f)


def eliminate_orbit_circuit(sg, circuit, orbit_rep):
    """Given a (2,3)-circuit of the lift meeting the orbit (fiber) of
    orbit_rep, return a (2,3)-circuit containing at most one orbit edge.

    Follows the iterated elimination: while two orbit edges remain, the
    translate of the circuit moving one shared orbit edge onto another is
    a different circuit (a translate equal to the circuit itself would be
    the lift of a base subgraph, forcing p to divide 2), and eliminating
    that edge between the two yields a new circuit inside their union.
    If the iteration stalls, a direct search over the union of all
    translates settles the question: against a basis built greedily from
    the non-orbit edges, some rejected edge carries a fundamental circuit
    with at most one orbit edge whenever any such circuit exists in the
    union at all.  No such circuit need exist: removing the whole fiber
    can cost two ranks at once, leaving each single fiber edge
    independent of everything else, and then every circuit in the union
    meets the orbit twice.  That case raises PreconditionError.
    """
    umg = sg.multigraph()
    circuit = frozenset(circuit)
    if not _is_circuit(umg, circuit):
        raise UsageError("input edge set is not a (2,3)-circuit")
    orbit = sg.orbit_of_edge(orbit_rep)
    if not orbit & circuit:
        raise UsageError("orbit of edge %d does not meet the circuit" % orbit_rep)

    group = sg.group
    cur = circuit
    cap = 4 * len(group) + 8
    for _ in range(cap):
        inside = sorted(orbit & cur)
        if len(inside) <= 1:
            break
        done = False
        t = inside[0]
        gamma_t = group[sg.edges[t].gamma_index]
        for s in inside[1:]:
            delta = gamma_t - group[sg.edges[s].gamma_index]
            translated = sg.translate_edges(delta, cur)
            if translated == cur:
                continue
            ground = (cur | translated) - {t}
            cur = _circuit_inside(umg, ground, orbit)
            done = True
            break
        if not done:
            raise InternalInvariantError("circuit is invariant under the action")
    else:
        cur = _basis_route(sg, umg, circuit, orbit)

    if len(orbit & cur) > 1 or not _is_circuit(umg, cur):
        raise InternalInvariantError("orbit elimination failed to produce a circuit")
    return frozenset(cur)


def _basis_route(sg, umg, circuit, orbit):
    closure = set()
    for gamma in sg.group:
        closure |= sg.translate_edges(gamma, circuit)
    order = sorted(closure - orbit) + sorted(closure & orbit)
    game, accepted, rejected = _run_game(umg, 2, 3, order)
    # Complete within the closure: a circuit avoiding the orbit sits over
    # a rejected non-orbit edge, and a circuit through a single orbit edge
    # o sits over o itself, whose unique circuit against the basis stays
    # inside the non-orbit part that spans o.  So scanning the rejects
    # finds a qualifying circuit whenever the closure holds one.
    for f in rejected:
        cand = fundamental_circuit(umg, (2, 3), accepted, f)
        if len(cand & orbit) <= 1:
            return cand
    raise PreconditionError(
        "every circuit in the translate closure meets the orbit twice; "
        "no circuit with at most one orbit edge exists there")


# --- export --------------------------------------------------------------


def colored_graph_to_dot(g, name="colored"):
    """DOT for a colored graph: directed edges labeled by color."""
    lines = ["digraph %s {" % name]
    for v in g.vertices:
        lines.append("  v%d [label=\"%d\"];" % (v, v))
    for e in sorted(g.edges):
        lines.append("  v%d -> v%d [label=\"%s\"];" % (e.tail, e.head, e.color))
    lines.append("}")
    return "\n".join(lines) + "\n"


def lift_to_dot(sg, name="lift"):
    """DOT for a lift: undirected, fibers grouped into clusters."""
    lines = ["graph %s {" % name]
    by_base = {}
    for vi, (i, gi) in enumerate(sg.vertices):
        by_base.setdefault(i, []).append(vi)
    for i in sorted(by_base):
        lines.append("  subgraph cluster_%d {" % i)
        lines.append("    label=\"fiber %d\";" % i)
        for vi in by_base[i]:
            lines.append("    n%d [label=\"%s\"];" % (vi, sg.vertex_name(vi)))
        lines.append("  }")
    for e in sg.edges:
        lines.append("  n%d -- n%d;" % (e.x, e.y))
    lines.append("}")
    return "\n".join(lines) + "\n"


def lift_to_text(sg):
    """The lift in the uncolored multigraph text format, vertices named
    <base>_<gamma>."""
    lines = ["vertex %s" % sg.vertex_name(vi) for vi in range(sg.n)]
    for e in sg.edges:
        lines.append("edge %s %s" % (sg.vertex_name(e.x), sg.vertex_name(e.y)))
    return "\n".join(lines) + "\n"
