"""Directed colored multigraphs and the cycle-color homomorphism.

A colored graph is a finite directed multigraph (self-loops and parallel
edges allowed) with a group element on every edge.  The map rho sends a
cycle to the sum of its colors, taken with sign: edges traversed forward
count positively, backward negatively.  Everything downstream (sparsity
counts, lifts) only ever looks at rho through the fundamental cycles of a
spanning forest, so that is what this module computes.

Graphs are immutable after construction.  Edge ids are stable under
subgraph selection, and every deterministic choice (spanning forests,
component order) is made in edge-id order so reruns reproduce goldens.
"""

from collections import namedtuple

from .errors import UsageError, ParseError
from .groups import GroupSpec, GroupElem, parse_elem, rank_of_span

Edge = namedtuple("Edge", ["id", "tail", "head", "color"])

SubgraphCounts = namedtuple("SubgraphCounts", ["n_prime", "m_prime", "r", "c0", "c1", "c2"])


class ColoredGraph:
    """Vertices, edges, and one color per edge.

    ``vertices`` is an ordered collection of integer ids.  ``edges`` may be
    given as (tail, head, color) triples, in which case ids 0..m-1 are
    assigned in order, or as (id, tail, head, color) with explicit unique
    ids.  Colors may be GroupElem values or raw coordinates (an int, or a
    pair for the rank-2 groups), which get wrapped.
    """

    __slots__ = ("spec", "vertices", "edges", "_byid", "_vset")

    def __init__(self, spec, vertices, edges):
        self.spec = spec
        self.vertices = tuple(int(v) for v in vertices)
        self._vset = frozenset(self.vertices)
        if len(self._vset) != len(self.vertices):
            raise UsageError("duplicate vertex ids")
        out = []
        for i, e in enumerate(edges):
            if len(e) == 3:
                eid, (u, v, c) = i, e
            elif len(e) == 4:
                eid, u, v, c = e
            else:
                raise UsageError("edge must be (tail, head, color) or (id, tail, head, color)")
            if not isinstance(c, GroupElem):
                c = spec.elem(c) if spec.ncoords == 1 and isinstance(c, int) else spec.elem(*c)
            if c.spec != spec:
                raise UsageError("edge color belongs to %s, graph is over %s" % (c.spec, spec))
            if u not in self._vset or v not in self._vset:
                raise UsageError("edge %d endpoints (%d, %d) not all declared" % (eid, u, v))
            out.append(Edge(int(eid), int(u), int(v), c))
        self.edges = tuple(out)
        self._byid = {e.id: e for e in self.edges}
        if len(self._byid) != len(self.edges):
            raise UsageError("duplicate edge ids")

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.edges)

    def edge(self, eid):
        try:
            return self._byid[eid]
        except KeyError:
            raise UsageError("no edge with id %r" % (eid,)) from None

    def has_vertex(self, v):
        return v in self._vset

    def edge_ids(self):
        return frozenset(self._byid)

    def incident(self, v):
        """Edge ids touching v, ascending.  A loop appears once."""
        return [e.id for e in self.edges if e.tail == v or e.head == v]

    def degree(self, v):
        """Degree with the usual convention that a loop counts twice."""
        d = 0
        for e in self.edges:
            d += (e.tail == v) + (e.head == v)
        return d

    def full(self):
        """The subgraph consisting of every edge."""
        return Subgraph(self, self._byid.keys())

    # copy-style editing; the class itself stays immutable

    def with_vertex(self, v):
        if v in self._vset:
            raise UsageError("vertex %d already present" % v)
        return ColoredGraph(self.spec, self.vertices + (v,), self.edges)

    def with_edges(self, new_edges):
        """Append edges as (tail, head, color); fresh ids follow the max."""
        nid = max(self._byid, default=-1) + 1
        add = []
        for u, v, c in new_edges:
            add.append((nid, u, v, c))
            nid += 1
        return ColoredGraph(self.spec, self.vertices, list(self.edges) + add)

    def without_vertex(self, v):
        keep = [e for e in self.edges if e.tail != v and e.head != v]
        return ColoredGraph(self.spec, tuple(x for x in self.vertices if x != v), keep)

    def without_edge(self, eid):
        self.edge(eid)
        return ColoredGraph(self.spec, self.vertices,
                            [e for e in self.edges if e.id != eid])

    def __eq__(self, other):
        return (isinstance(other, ColoredGraph) and self.spec == other.spec
                and self.vertices == other.vertices and self.edges == other.edges)

    def __hash__(self):
        return hash((self.spec, self.vertices, self.edges))

    def __repr__(self):
        return "ColoredGraph(%s, n=%d, m=%d)" % (self.spec, self.n, self.m)


class Subgraph:
    """An edge-induced subgraph: a set of edge ids of a parent graph plus
    exactly the vertices those edges touch (never an isolated vertex)."""

    __slots__ = ("parent", "edge_ids", "vertex_set")

    def __init__(self, parent, edge_ids):
        self.parent = parent
        ids = sorted(set(edge_ids))
        vs = set()
        for eid in ids:
            e = parent.edge(eid)
            vs.add(e.tail)
            vs.add(e.head)
        self.edge_ids = tuple(ids)
        self.vertex_set = frozenset(vs)

    @property
    def m(self):
        return len(self.edge_ids)

    @property
    def n(self):
        return len(self.vertex_set)

    def edges(self):
        return [self.parent.edge(eid) for eid in self.edge_ids]

    def __repr__(self):
        return "Subgraph(%d edges on %d vertices)" % (self.m, self.n)


def components(sub):
    """Split a subgraph into its connected components (direction ignored).

    Components come back ordered by their smallest edge id.
    """
    parent = sub.parent
    out = []
    adj = {}
    for e in sub.edges():
        adj.setdefault(e.tail, []).append(e)
        adj.setdefault(e.head, []).append(e)
    seen = set()
    for eid in sub.edge_ids:
        e = parent.edge(eid)
        if eid in seen:
            continue
        stack = [e.tail]
        verts = {e.tail}
        bag = []
        while stack:
            v = stack.pop()
            for f in adj.get(v, ()):
                if f.id not in seen:
                    seen.add(f.id)
                    bag.append(f.id)
                for w in (f.tail, f.head):
                    if w not in verts:
                        verts.add(w)
                        stack.append(w)
        out.append(Subgraph(parent, bag))
    return out


def spanning_forest(sub):
    """A maximal cycle-free subset of the subgraph's edges, greedy in
    edge-id order (so deterministic).  Self-loops never qualify."""
    root = {}

    def find(x):
        while root.get(x, x) != x:
            root[x] = root.get(root[x], root[x])
            x = root[x]
        return x

    forest = set()
    for e in sub.edges():
        if e.tail == e.head:
            continue
        a, b = find(e.tail), find(e.head)
        if a != b:
            root[a] = b
            forest.add(e.id)
    return forest


def _potentials(sub, forest):
    """Color-sum from each component's root along forest paths.  The root
    of a component is its smallest vertex; pot(root) = 0; traversing a
    forest edge tail->head adds its color."""
    parent = sub.parent
    zero = parent.spec.zero()
    adj = {}
    for eid in forest:
        e = parent.edge(eid)
        adj.setdefault(e.tail, []).append(e)
        adj.setdefault(e.head, []).append(e)
    pot = {}
    for v in sorted(sub.vertex_set):
        if v in pot:
            continue
        pot[v] = zero
        stack = [v]
        while stack:
            x = stack.pop()
            for e in adj.get(x, ()):
                y = e.head if e.tail == x else e.tail
                if y in pot:
                    continue
                pot[y] = pot[x] + e.color if e.tail == x else pot[x] - e.color
                stack.append(y)
    return pot


def rho_image_basis(sub):
    """rho of the fundamental cycle of each non-forest edge, in edge-id
    order.  For edge e with potentials pot, the cycle value is

        color(e) + pot(tail) - pot(head)

    (a self-loop just contributes its own color).  These values generate
    the subgraph's rho-image.
    """
    forest = spanning_forest(sub)
    pot = _potentials(sub, forest)
    out = []
    for e in sub.edges():
        if e.id in forest:
            continue
        out.append(e.color + pot[e.tail] - pot[e.head])
    return out


def rho_rank(sub):
    """Rank of the subgraph's rho-image: 0, 1, or 2."""
    return rank_of_span(rho_image_basis(sub))


def subgraph_counts(sub):
    """The tuple (n', m', r, c0, c1, c2) entering the sparsity counts:
    vertex and edge counts, whole-subgraph rho-rank, and the number of
    connected components of rho-rank 0, 1, and 2.

    r is the rank of the union of all components' images, which can exceed
    every single component's rank (two rank-1 components with independent
    images give r = 2).
    """
    comps = components(sub)
    cs = [0, 0, 0]
    allimg = []
    for c in comps:
        img = rho_image_basis(c)
        allimg.extend(img)
        cs[rank_of_span(img)] += 1
    return SubgraphCounts(sub.n, sub.m, rank_of_span(allimg), cs[0], cs[1], cs[2])


def graph_counts(g):
    """Counts for the whole graph, isolated vertices included: each one is
    its own rank-0 component.  This is the count the tightness condition
    ("equality on the whole graph") is checked against."""
    sub = g.full()
    base = subgraph_counts(sub)
    lonely = len(g._vset - sub.vertex_set)
    return SubgraphCounts(g.n, g.m, base.r, base.c0 + lonely, base.c1, base.c2)


def gauge_normalize(g):
    """Recolor so a spanning forest carries only zero colors.

    Every edge color is shifted by a vertex potential, color +
    pot(tail) - pot(head), which changes no cycle's rho value.  The forest
    is the deterministic one of spanning_forest, so already-normalized
    graphs come back identical.

    >>> s = GroupSpec.cyclic(5)
    >>> g = ColoredGraph(s, [0, 1, 2], [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    >>> [str(e.color) for e in gauge_normalize(g).edges]
    ['0', '0', '3']
    """
    sub = g.full()
    forest = spanning_forest(sub)
    pot = _potentials(sub, forest)
    zero = g.spec.zero()
    out = []
    for e in g.edges:
        c = e.color + pot.get(e.tail, zero) - pot.get(e.head, zero)
        out.append((e.id, e.tail, e.head, c))
    return ColoredGraph(g.spec, g.vertices, out)


def normalized_triple(e):
    """Orientation-free form of an edge: flip so tail <= head, negating the
    color; canonicalize a loop's color to the lexicographically smaller of
    the pair {c, -c}.  Two edges are the same up to the flip-and-negate
    rule exactly when their triples agree."""
    u, v, c = e.tail, e.head, e.color
    if u > v:
        u, v, c = v, u, -c
    elif u == v:
        c = min(c, -c, key=lambda x: x.coords)
    return (u, v, c)


def same_up_to_flip(g1, g2):
    """Equal vertex sets and equal edge multisets modulo reorienting edges
    with negated colors.  Edge ids are ignored; this is the equality the
    certificate replay contract is stated in."""
    if g1.spec != g2.spec or set(g1.vertices) != set(g2.vertices):
        return False
    a = sorted(normalized_triple(e) for e in g1.edges)
    b = sorted(normalized_triple(e) for e in g2.edges)
    return a == b


# --- text format ---------------------------------------------------------
#
#   # comment
#   group Z/3
#   vertices 4
#   edge 0 1 2
#   edge 1 2 0
#
# Vertex ids are 0..n-1.  Colors are one integer, or c1,c2 for the rank-2
# groups.  When a graph's vertex ids are not contiguous (deconstruction
# bases keep their original ids), the vertices line becomes
# `vertexids 3 7` instead.


def parse_colored_graph(text):
    """Parse the colored-graph text format.  Raises ParseError with the
    offending line number."""
    spec = None
    vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw = fields[0]
        if kw == "group":
            if spec is not None:
                raise ParseError(lineno, "duplicate group line")
            try:
                spec = GroupSpec.parse(" ".join(fields[1:]))
            except UsageError as exc:
                raise ParseError(lineno, str(exc)) from None
        elif kw == "vertices":
            if vertices is not None:
                raise ParseError(lineno, "duplicate vertices line")
            if len(fields) != 2 or not fields[1].isdigit():
                raise ParseError(lineno, "expected `vertices <n>`")
            vertices = known = range(int(fields[1]))
        elif kw == "vertexids":
            if vertices is not None:
                raise ParseError(lineno, "duplicate vertices line")
            try:
                vertices = [int(f) for f in fields[1:]]
            except ValueError:
                raise ParseError(lineno, "bad vertex id list") from None
            if not vertices:
                raise ParseError(lineno, "vertexids needs at least one id")
            known = set(vertices)
        elif kw == "edge":
            if spec is None or vertices is None:
                raise ParseError(lineno, "edge before group/vertices")
            if len(fields) != 4:
                raise ParseError(lineno, "expected `edge <tail> <head> <color>`")
            try:
                u, v = int(fields[1]), int(fields[2])
                c = parse_elem(spec, fields[3])
            except (ValueError, UsageError) as exc:
                raise ParseError(lineno, str(exc)) from None
            if u not in known or v not in known:
                raise ParseError(lineno, "edge endpoint not a declared vertex")
            edges.append((u, v, c))
        else:
            raise ParseError(lineno, "unknown keyword %r" % kw)
    if spec is None:
        raise ParseError(1, "missing group line")
    if vertices is None:
        raise ParseError(1, "missing vertices line")
    return ColoredGraph(spec, vertices, edges)


def serialize_colored_graph(g):
    """Inverse of parse_colored_graph.  Edge order follows edge ids."""
    lines = ["group %s" % g.spec]
    if tuple(sorted(g.vertices)) == tuple(range(g.n)):
        lines.append("vertices %d" % g.n)
    else:
        lines.append("vertexids %s" % " ".join(str(v) for v in sorted(g.vertices)))
    for e in sorted(g.edges, key=lambda e: e.id):
        lines.append("edge %d %d %s" % (e.tail, e.head, e.color))
    return "\n".join(lines) + "\n"
