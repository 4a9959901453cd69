"""Symmetric covers of colored graphs over finite groups.

The lift of a colored graph over Z/p (p an odd prime) or Z/p x Z/q puts a
vertex (i, gamma) over each base vertex i and group element gamma, and an
undirected edge {(i, gamma), (j, color_ij + gamma)} over each oriented
base edge ij, one per gamma.  The group acts freely by translating the
second coordinate, and the quotient gives back the base graph.
SymmetricGraph lays the cover out so that fibers, the action and the
quotient are arithmetic on ids; its docstring states the layout.  The
cover is never stored: SymmetricGraph.arcs() generates its edges from
the base and one fiber permutation per colour.

Everything the package knows about recognizing colored sparsity in
polynomial time routes through here: the lift of a Z/p-colored graph with
2n-1 edges is Laman-sparse exactly when the base is cone-Laman, a
connected base has a connected lift exactly when its rho-rank is nonzero
(and otherwise the component count is the index of the rho-image), and
Z colors are first reduced mod the small prime of _small_prime, and mod
the safe prime of reduce_colors, which no cycle sum can reach, only when
a cycle vanished (henneberg._lift_violation); a cover above MAX_COVER is
refused before it is built.
lift_refusal states what the lift check takes, lift_witness is the one
call from a graph to it, disjoint_circuit_witness the cylinder witness
when spanning fails, and sparsity._minimize_witness checks and shrinks
either's set.
"""

from collections import namedtuple

from .errors import (UsageError, UnsupportedGroupError, PreconditionError,
                     NoCircuitError, InternalInvariantError)
from . import groups as G
from .graphs import ColoredGraph, components
from .sparsity import (CONE, CYLINDER, UncoloredMultigraph, family_count,
                       fundamental_circuit, _PebbleGame, _run_game)
# Unused here: perfbench/spans.py patches both by name and fails without.
from .sparsity import kl_basis, is_kl_sparse  # noqa: F401

LiftEdge = namedtuple("LiftEdge", ["id", "x", "y", "base_eid", "gamma_index"])

MAX_COVER = 10 ** 6   # cap on |Gamma| * (n + m), the cover's size and cost


def _check_cover(size):
    if size > MAX_COVER:
        raise UsageError("the cover needs at least %d vertices and edges, "
                         "above the cap of %d" % (size, MAX_COVER))


class SymmetricGraph:
    """The symmetric cover of a colored base graph over Z/p or Z/p x Z/q,
    with its free group action.

    Ids are index arithmetic.  Let N = |Gamma| and number the group
    elements in spec.elements() order: x for x in Z/p, a*q + b for (a, b)
    in Z/p x Z/q.  Vertex (i, gamma) has id a*N + idx(gamma), where i is
    the a-th base vertex; `vertices` lists the pairs (i, idx(gamma)) in
    id order.  The edge over (e, gamma), where e is the j-th base edge by
    id, has id j*N + idx(gamma) and joins (tail, gamma) to
    (head, color + gamma).  So every fiber, of a vertex or an edge, is a
    run of N consecutive ids, the action shifts the offset inside the
    run, and the quotient divides by N.  The fixed edge order makes
    pebble runs on the lift reproducible.

    Nothing is stored per lift vertex or per lift edge: the cover keeps
    its base, its group and, for each colour c, the fiber permutation
    shifts[c][gi] = idx(element gi + c).  arcs() generates the edges
    from them in id order; `edges`, `multigraph()`, the component count
    and the exports read that one generator, `n` and `m` are products,
    and a pebble game over the lift holds only its own per-vertex
    pebbles and arcs.
    """

    __slots__ = ("base", "group", "shifts")

    def __init__(self, base):
        _require_liftable(base.spec)
        _check_cover(base.spec.order * (len(base.vertices) + len(base.edges)))
        self.base = base
        self.group = base.spec.elements()        # list of GroupElem
        N = len(self.group)
        self.shifts = {}                         # color -> fiber permutation
        for e in base.edges:
            c = e.color.coords
            if c not in self.shifts:
                self.shifts[c] = [_shift(base.spec, gi, c) for gi in range(N)]

    def arcs(self):
        """Yield (lift edge id, x, y) in id order: the edge over the j-th
        base edge e and the group element of index gi has id j*N + gi and
        joins x = (tail, gi) to y = (head, shifts[color][gi])."""
        N, pos, shifts = len(self.group), self.base._pos, self.shifts
        for j, e in enumerate(sorted(self.base.edges)):
            x, y = pos[e.tail] * N, pos[e.head] * N
            yield from zip(range(j * N, j * N + N), range(x, x + N),
                           map(y.__add__, shifts[e.color.coords]))

    @property
    def vertices(self):
        return [(i, gi) for i in self.base.vertices
                for gi in range(len(self.group))]

    @property
    def n(self):
        return len(self.base.vertices) * len(self.group)

    @property
    def m(self):
        return len(self.base.edges) * len(self.group)

    @property
    def edges(self):
        """The lift edges as LiftEdge records, in id order."""
        N = len(self.group)
        beids = sorted(self.base.edge_ids())
        return [LiftEdge(f, x, y, beids[f // N], f % N)
                for f, x, y in self.arcs()]

    def vertex_name(self, vi):
        a, gi = divmod(vi, len(self.group))
        return "%d_%s" % (self.base.vertices[a], self.group[gi])

    def orbit_of_edge(self, eid):
        """All lift edge ids over the same base edge (the edge's fiber)."""
        first = eid - eid % len(self.group)
        return frozenset(range(first, first + len(self.group)))

    def act_on_vertex(self, gamma, x):
        """Id of gamma . (i, delta) = (i, delta + gamma).  Vertex and
        edge fibers share one layout, so act_on_edge is the same map: the
        edge over the same base edge at gamma_index + gamma, whose
        endpoints are x's endpoints acted on by gamma."""
        if gamma.spec != self.base.spec:
            raise UsageError("cannot act by an element of %s on a lift over %s"
                             % (gamma.spec, self.base.spec))
        gi = x % len(self.group)
        return x - gi + _shift(gamma.spec, gi, gamma.coords)

    act_on_edge = act_on_vertex

    def multigraph(self):
        """The lift as an uncolored multigraph on dense vertex indices."""
        return UncoloredMultigraph(range(self.n), self.arcs())

    def __repr__(self):
        return "SymmetricGraph(over %s, n=%d, m=%d)" % (self.base.spec, self.n, self.m)


def _shift(spec, gi, coords):
    """Index of the group element with index gi plus the element with
    coordinates coords, in spec.elements() order."""
    if spec.variant == G.CYCLIC:
        return (gi + coords[0]) % spec.moduli[0]
    p, q = spec.moduli
    a, b = divmod(gi, q)
    return (a + coords[0]) % p * q + (b + coords[1]) % q


def _require_liftable(spec):
    odd_p = (spec.variant == G.CYCLIC and spec.moduli[0] != 2
             and G._is_prime(spec.moduli[0]))
    if not (odd_p or spec.variant == G.CYCLIC_PQ):
        raise UnsupportedGroupError(
            "lifts exist over Z/p, p an odd prime, and Z/pxZ/q only, not %s"
            % spec)


def build_lift(g):
    """The symmetric cover of g.  |Gamma| * n vertices, |Gamma| * m edges,
    with the edge over (base edge ij, gamma) joining (i, gamma) to
    (j, color_ij + gamma)."""
    return SymmetricGraph(g)


def _component_count(n, arcs):
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    parts = n
    for _, x, y in arcs:
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
    return _component_count(sg.n, sg.arcs())


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


def lift_witness(g):
    """Play the (2,3) pebble game on the lift of g, a graph lift_refusal
    takes for cone or one it takes for cylinder reduced mod a prime, offering
    the arcs the lift generates up to its first rejection, f.  None when
    g is cone-Laman, else a violating base edge set P: the base edges
    under f's circuit D, which the game names as it rejects f by reading
    the arcs before f back.

    The cone count is 2(n' - c0) - 1 on nonempty sets, twice the frame
    matroid's rank (Zaslavsky, JCTB 1991) minus one, so cone-sparse sets
    form a matroid (Edmonds 1970): by the cover theorem, the sets with a
    Laman-sparse lift.  P holds C*, the circuit of f's base edge j over
    the edges B before it.  Proof: the game offers the lift fiber by
    fiber in base edge order and f is its first rejection, so B is
    independent and B + j holds one circuit, C*; lift(P) holds D, so P
    is dependent, and P lies in B + j.  P = C* exactly when f is spanned
    by lift(C* - j) and the edges of j's fiber before f, since D lies in
    every dependent subset of the accepted edges plus f.  That is not
    proved, but it held on every violating graph tried (8,833 random or
    rewired ones with n <= 8, 400 planted ones with n up to 45); were P
    larger and not violating, the guard of sparsity._minimize_witness
    would fail loudly.
    """
    sg = build_lift(g)
    game = _PebbleGame(sg.n, 2, 3)
    f = next(game.play(sg.arcs), None)
    if f is None:
        return None
    beids, N = sorted(g.edge_ids()), len(sg.group)
    return frozenset(beids[i // N] for i in game.circuit(f))


def lift_refusal(g, family):
    """The error the lift route raises on g in family, or None when it
    takes g: the family's Count.refusal, then cone or cylinder only, an
    odd p for cone, and m = 2n - off[1] (one connected unbalanced
    component's count, 2n - 1 for both)."""
    count = family_count(family)
    if (refusal := count.refusal(g.spec)) is not None:
        return refusal
    if family not in (CONE, CYLINDER):
        return UsageError(
            "method=lift supports families cone and cylinder, not %s" % family)
    if family == CONE and g.spec.moduli[0] == 2:
        return UnsupportedGroupError("method=lift needs Z/p colors with p "
                                     "an odd prime, got %s" % g.spec)
    if g.m != 2 * g.n - count.off[1]:
        return PreconditionError(
            "method=lift decides tightness and needs m = 2n - %d; "
            "got n=%d m=%d (use --method brute)" % (count.off[1], g.n, g.m))
    return None


def cone_laman_via_lift(g):
    """Decide cone-Laman-ness of a graph with 2n-1 edges by testing its
    lift for (2,3)-sparsity with the pebble game, on what lift_refusal
    takes.  This is the polynomial-time route; the brute-force count is
    the oracle it is checked against.
    """
    if (refusal := lift_refusal(g, CONE)) is not None:
        raise refusal
    return lift_witness(g) is None


def _next_odd_prime(above):
    c = max(3, above + 1)
    if c % 2 == 0:
        c += 1
    while not G._is_prime(c):
        c += 2
    return c


def _reduce(g, p):
    """The Z graph g with its colors reduced mod the odd prime p."""
    spec = G.GroupSpec.cyclic(p)
    return ColoredGraph(spec, g.vertices,
                        [(e.id, e.tail, e.head, spec.elem(e.color.coords[0]))
                         for e in g.edges])


def _small_prime(g):
    """p0, the least odd prime above 3 max|c|, so no cycle of up to three
    edges vanishes mod p0; None, tested before any prime search, when its
    cover passes MAX_COVER or it cannot be below reduce_colors' prime."""
    sizes = [abs(e.color.coords[0]) for e in g.edges]
    top = max(sizes, default=0)
    if ((3 * top + 1) * (g.n + g.m) <= MAX_COVER
            and 3 * top < 2 * (sum(sizes) + 1)):
        return _next_odd_prime(3 * top)
    return None


def reduce_colors(g):
    """Reduce Z colors mod a safe prime.  Returns (reduced graph, (p,)).

    p is the smallest odd prime exceeding twice (the sum of the color
    magnitudes + 1), so no fundamental cycle sum can wrap: every cycle's
    value has magnitude at most the sum of all color magnitudes,
    marginally below p/2, and differences of two such sums stay in
    (-p, p).  Whether a subgraph's cycle sums are all zero is therefore
    preserved; a cover above MAX_COVER is refused before p is sought.
    The lift route comes here only when _small_prime's p0 cannot decide.
    """
    if (refusal := family_count(CYLINDER).refusal(g.spec)) is not None:
        raise refusal
    total = sum(abs(e.color.coords[0]) for e in g.edges)
    _check_cover(2 * (total + 1) * (g.n + g.m))
    p = _next_odd_prime(2 * (total + 1))
    return _reduce(g, p), (p,)


# --- witnesses -----------------------------------------------------------


def disjoint_circuit_witness(g):
    """Cylinder witness when the colored counts pass mod p but the
    underlying graph is not (2,2)-spanning: the circuits of the first two
    edges that one (2,2) game on g rejects, read off the game.  They are
    vertex-disjoint and their union breaks the cylinder count.

    Each circuit C_i is connected with 2n_i - 1 edges, so the cone count
    the lift just passed makes it unbalanced.  Disjointness is forced,
    since inside a graph all of whose subsets meet the cone count a
    connected region carries at most one circuit.  The union has r = 1
    and two unbalanced parts, so it breaks the cylinder bound by one.
    Dropping any edge of either circuit leaves parts that meet 2n' - 2
    (unbalanced parts, being (2,2)-sparse) or 2n' - 3 (balanced parts,
    by the cone count), which puts the union back within the bound: the
    union is a minimal witness as it stands."""
    game, rejected = _run_game(g, 2, 2)
    circuits = [game.circuit(f) for _, f in zip(range(2), rejected)]
    if len(circuits) < 2:
        raise InternalInvariantError(
            "spanning failed with %d rejected edges" % len(circuits))
    c1, c2 = circuits

    def span(c):
        return {v for eid in c for v in (g.edge(eid).tail, g.edge(eid).head)}

    if span(c1) & span(c2):
        raise InternalInvariantError("expected vertex-disjoint circuits")
    return c1 | c2


# --- orbit circuits ------------------------------------------------------


def _is_circuit(umg, edge_ids):
    """A (2,3)-circuit: independent without its last edge, whose
    fundamental circuit against the rest is the whole set."""
    ids = sorted(edge_ids)
    if not ids:
        return False
    try:
        return fundamental_circuit(umg, (2, 3), ids[:-1], ids[-1]) == set(ids)
    except (UsageError, NoCircuitError):
        return False


def eliminate_orbit_circuit(sg, circuit, orbit_rep):
    """Given a (2,3)-circuit of the lift meeting the orbit (fiber) of
    orbit_rep, return a (2,3)-circuit containing at most one orbit edge.

    A circuit that already meets the orbit once comes back unchanged.
    Otherwise the search runs over the closure X, the union of the
    circuit's translates, which is the union of its edges' orbits.  X is
    closed under the action, so eliminating orbit edges between
    translates, step after step, only ever reaches circuits inside X.
    One game offers X, orbit edges last, and names each rejected edge's
    circuit as it rejects it.  If a circuit of X avoids the orbit, some
    non-orbit edge is rejected, and its circuit avoids the orbit too.
    Otherwise every non-orbit edge is accepted, so a circuit of X
    through a single orbit edge o gets o rejected, with a circuit
    meeting the orbit only at o.  Scanning the rejected edges thus finds
    a qualifying circuit whenever X holds one.  None need exist:
    removing the whole fiber can cost two ranks at once, leaving each
    single fiber edge independent of everything else, and then every
    circuit in X meets the orbit twice.  That case raises
    PreconditionError.
    """
    umg = sg.multigraph()
    circuit = frozenset(circuit)
    if not _is_circuit(umg, circuit):
        raise UsageError("input edge set is not a (2,3)-circuit")
    orbit = sg.orbit_of_edge(orbit_rep)
    if not orbit & circuit:
        raise UsageError("orbit of edge %d does not meet the circuit" % orbit_rep)
    if len(orbit & circuit) == 1:
        return circuit
    closure = set().union(*(sg.orbit_of_edge(e) for e in circuit))
    order = sorted(closure - orbit) + sorted(closure & orbit)
    game, rejected = _run_game(umg, 2, 3, order)
    for f in rejected:
        cand = game.circuit(f)
        if len(cand & orbit) <= 1:
            if not _is_circuit(umg, cand):
                raise InternalInvariantError(
                    "orbit elimination failed to produce a circuit")
            return cand
    raise PreconditionError(
        "every circuit in the translate closure meets the orbit twice; "
        "no circuit with at most one orbit edge exists there")


# --- export --------------------------------------------------------------


def colored_graph_to_dot(g):
    """DOT for a colored graph: directed edges labeled by color."""
    lines = ["digraph colored {"]
    for v in g.vertices:
        lines.append("  v%d [label=\"%d\"];" % (v, v))
    for e in sorted(g.edges):
        lines.append("  v%d -> v%d [label=\"%s\"];" % (e.tail, e.head, e.color))
    lines.append("}")
    return "\n".join(lines) + "\n"


def lift_to_dot(sg):
    """DOT for a lift: undirected, fibers grouped into clusters in
    ascending base vertex order."""
    lines = ["graph lift {"]
    N = len(sg.group)
    for i, a in sorted(sg.base._pos.items()):
        lines.append("  subgraph cluster_%d {" % i)
        lines.append("    label=\"fiber %d\";" % i)
        for vi in range(a * N, a * N + N):
            lines.append("    n%d [label=\"%s\"];" % (vi, sg.vertex_name(vi)))
        lines.append("  }")
    for _, x, y in sg.arcs():
        lines.append("  n%d -- n%d;" % (x, y))
    lines.append("}")
    return "\n".join(lines) + "\n"


def lift_to_text(sg):
    """The lift in the uncolored multigraph text format, vertices named
    <base>_<gamma>."""
    lines = ["vertex %s" % sg.vertex_name(vi) for vi in range(sg.n)]
    for _, x, y in sg.arcs():
        lines.append("edge %s %s" % (sg.vertex_name(x), sg.vertex_name(y)))
    return "\n".join(lines) + "\n"
