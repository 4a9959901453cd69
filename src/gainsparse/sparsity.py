"""(k,l)-sparsity: the pebble game and the colored count recognizers.

Two kinds of machinery live here.  The pebble game decides uncolored
(k,l)-sparsity and produces bases and fundamental circuits; it runs on
plain multigraphs (underlying graphs of colored graphs) or straight on
the end arrays of symmetric lifts.  Each insert makes at most l+1
breadth-first searches, so a game is O(m(n+m)) at worst, but a search
stops at the nearest free pebble.  On the Z/3 lifts of chains (vertex v
joined to v-1 and v-2) the searches reach about 41 vertices per lift
edge at n = 1000 and at n = 2000; on random-attachment bases they reach
about 70, 120 and 180 at n = 300, 800 and 2000.  The colored
recognizers evaluate the four per-family counts

    Ross       m' <= 2n' - 3c0 - 2(c1 + c2)
    cone       m' <= 2n' - 3c0 - c1 - c2
    cylinder   m' <= 2n' + r - 3c0 - 2(c1 + c2)
    colored    m' <= 2n' + max(2r - 1, 0) - 3c0 - 2(c1 + c2)

over every edge-induced subgraph by brute enumeration, which is the
ground truth the rest of the package is checked against.  Enumeration
walks connected edge subsets once each (anchored growth, banned-prefix
branching) and handles disconnected subgraphs by combining pieces, since
for Ross and cone the bound is additive over components and only the
cylinder and colored counts can be broken by a disjoint union whose
parts are all fine.
"""

from collections import namedtuple

from .errors import (UsageError, UnsupportedGroupError, NoCircuitError,
                     BudgetExceededError, InternalInvariantError)
from . import groups as G
from .graphs import (Subgraph, subgraph_counts, graph_counts, rho_image_basis,
                     _index_graph)

ROSS = "ross"
CONE = "cone"
CYLINDER = "cylinder"
COLORED = "colored"
FAMILIES = (ROSS, CONE, CYLINDER, COLORED)

# which group variants each family's count is defined over
_FAMILY_GROUPS = {
    ROSS: (G.FREE2, G.CYCLIC_PQ),
    CONE: (G.CYCLIC,),
    CYLINDER: (G.FREE1,),
    COLORED: (G.FREE2,),
}

SparsityParams = namedtuple("SparsityParams", ["k", "l"])

DEFAULT_BUDGET = 24


class UncoloredMultigraph:
    """Undirected multigraph: vertex ids plus (id, u, v) edges.  Loops and
    parallel edges are the whole point.  Pebble games run on positions
    in `vertices`, read from one vertex -> position map."""

    __slots__ = ("vertices", "edges", "_pos", "_byid")

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        out = []
        for i, e in enumerate(edges):
            if len(e) == 2:
                out.append((i, int(e[0]), int(e[1])))
            else:
                out.append((int(e[0]), int(e[1]), int(e[2])))
        self.edges = tuple(out)
        self._pos, self._byid = _index_graph(self.vertices, self.edges)

    @property
    def n(self):
        return len(self.vertices)

    @property
    def m(self):
        return len(self.edges)

    def __repr__(self):
        return "UncoloredMultigraph(n=%d, m=%d)" % (self.n, self.m)


def underlying(g):
    """Forget colors and directions of a ColoredGraph."""
    return UncoloredMultigraph(g.vertices, [(e.id, e.tail, e.head) for e in g.edges])


def _check_params(params):
    k, l = params
    if k < 1 or not 0 <= l < 2 * k:
        raise UsageError("need k >= 1 and 0 <= l < 2k, got (%d, %d)" % (k, l))
    return k, l


class _PebbleGame:
    """State of one (k,l) pebble game run.  Vertices are dense indices.

    peb[v] + outdegree(v) == k at all times; an edge is accepted when l+1
    pebbles sit on its endpoints, one of which then pays for the edge.
    `reached` is the game's work: the number of vertices each search
    reached, summed over every search so far.

    Each search is breadth first: it stops at the nearest free pebble and
    moves it along a shortest path.  Which path a search takes cannot
    change any output.  The accepted edges are the greedy basis of the
    (k,l) count matroid in offer order, whatever the arcs look like; and
    the region a failed insert reaches is the vertex set of the unique
    fundamental circuit of the rejected edge (see fundamental_circuit),
    so it too is fixed by the edges alone.
    """

    def __init__(self, n, k, l):
        self.k = k
        self.l = l
        self.peb = [k] * n
        self.out = [[] for _ in range(n)]
        self.seen = [0] * n
        self.prev = [0] * n
        self.stamp = 0
        self.reached = 0

    def _grab(self, s, x1, x2):
        # BFS from s along accepted arcs for the nearest pebble outside
        # {x1, x2}; reverse that shortest path to move it onto s.
        peb, out, seen, prev = self.peb, self.out, self.seen, self.prev
        self.stamp += 1
        st = self.stamp
        seen[s] = st
        queue = [s]
        for x in queue:
            for y in out[x]:
                if seen[y] == st:
                    continue
                seen[y] = st
                prev[y] = x
                if peb[y] and y != x1 and y != x2:
                    self.reached += len(queue) + 1
                    peb[y] -= 1
                    peb[s] += 1
                    while y != s:
                        x = prev[y]
                        out[x].remove(y)
                        out[y].append(x)
                        y = x
                    return True
                queue.append(y)
        self.reached += len(queue)
        return False

    def insert(self, u, v):
        """Try to accept edge uv (or loop uu).  True on success."""
        peb, l = self.peb, self.l
        if u == v:
            # a loop needs l+1 pebbles at its one vertex, so loops only
            # ever fit when l < k
            while peb[u] < l + 1:
                if not self._grab(u, u, u):
                    return False
            peb[u] -= 1
            self.out[u].append(u)
            return True
        while peb[u] + peb[v] < l + 1:
            if not (self._grab(u, u, v) or self._grab(v, u, v)):
                return False
        if peb[u] == 0:
            u, v = v, u
        peb[u] -= 1
        self.out[u].append(v)
        return True

    def reachable(self, u, v):
        """Vertex indices reachable from {u, v} along accepted arcs."""
        seen = set([u, v])
        stack = [u, v]
        while stack:
            x = stack.pop()
            for y in self.out[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen


def _play(n, k, l, arcs, stop_on_reject=False):
    """Offer (edge id, u, v) triples on dense vertex indices to a fresh
    (k,l) game in turn.  Returns (game, accepted ids, rejected ids)."""
    game = _PebbleGame(n, k, l)
    insert = game.insert
    accepted = []
    rejected = []
    for eid, u, v in arcs:
        if insert(u, v):
            accepted.append(eid)
        else:
            rejected.append(eid)
            if stop_on_reject:
                break
    return game, accepted, rejected


def _run_game(g, k, l, order=None, stop_on_reject=False):
    if order is None:
        order = [e[0] for e in sorted(g.edges)]
    pos, byid = g._pos, g._byid
    arcs = ((eid, pos[byid[eid][1]], pos[byid[eid][2]]) for eid in order)
    return _play(len(g.vertices), k, l, arcs, stop_on_reject)


def kl_basis(g, params, order=None):
    """A maximal (k,l)-sparse edge subset, built by the pebble game with
    edges offered in id order (or the caller's order).  The result is a
    basis of the (k,l) count matroid restricted to g."""
    k, l = _check_params(params)
    _, accepted, _ = _run_game(g, k, l, order)
    return frozenset(accepted)


def is_kl_sparse(g, params):
    """True iff every edge of g fits, i.e. all subgraphs have m' <= kn' - l."""
    k, l = _check_params(params)
    return not _dependent(g, k, l, None)


def is_kl_spanning(g, params):
    """True iff g contains a spanning (k,l)-tight subgraph, i.e. the basis
    has the full k*n - l edges."""
    k, l = _check_params(params)
    return len(kl_basis(g, params)) == k * g.n - l


def fundamental_circuit(g, params, basis, eid):
    """The unique (k,l)-circuit inside basis + e, read off one pebble game.

    The game offers the basis, then e.  When e fails, its ends u and v
    hold at most l pebbles and no other vertex reachable from them holds
    one.  Every vertex holds k pebbles and out-arcs together and no arc
    leaves the reachable set R, so R spans k|R| - (pebbles on u, v) >=
    k|R| - l basis edges and B[R] + e is dependent.  Sparsity makes that
    exactly k|R| - l when B[R] is nonempty (else e is a loop and R its
    one vertex), so u and v hold l pebbles.  The circuit's vertex set T
    spans k|T| - l basis edges, so its arcs cost every pebble in T but
    those l: no arc leaves T, and T contains R.  B[R] therefore lies in
    the circuit, which is B[R] + e (Lee and Streinu, Discrete Math.
    2008).  Raises NoCircuitError when e is independent of the basis.

    >>> k4 = UncoloredMultigraph(range(4), [(0, 1), (0, 2), (0, 3),
    ...                                     (1, 2), (1, 3), (2, 3)])
    >>> sorted(fundamental_circuit(k4, (2, 3), range(5), 5))
    [0, 1, 2, 3, 4, 5]
    """
    k, l = _check_params(params)
    basis = frozenset(basis)
    if eid in basis:
        raise UsageError("edge %d is in the basis" % eid)
    game, accepted, _ = _run_game(g, k, l, sorted(basis) + [eid])
    if not basis <= set(accepted):
        raise UsageError("given basis is not (k,l)-sparse")
    if eid in accepted:
        raise NoCircuitError("edge %d is independent of the basis" % eid)
    pos, byid = g._pos, g._byid
    _, u, v = byid[eid]
    region = game.reachable(pos[u], pos[v])
    inside = [f for f in basis if pos[byid[f][1]] in region
              and pos[byid[f][2]] in region]
    if inside and len(inside) != k * len(region) - l:
        raise InternalInvariantError(
            "stuck region spans %d basis edges on %d vertices"
            % (len(inside), len(region)))
    return frozenset(inside + [eid])


def _dependent(g, k, l, edge_ids):
    """Does the pebble game reject some edge of edge_ids (in that order,
    or all of g's in id order for None)?"""
    return bool(_run_game(g, k, l, edge_ids, stop_on_reject=True)[2])


def _shrink(g, k, l, groups):
    """Indices of a minimal (k,l)-dependent union of edge groups, for
    groups that are dependent as a whole.

    One ascending pass drops each group while the rest stays dependent.
    Dependence is upward closed, so a group kept because the rest was
    independent stays necessary as the set shrinks, and the pass ends at
    a set none of whose groups can go.
    """
    keep = list(range(len(groups)))
    for i in range(len(groups)):
        rest = [j for j in keep if j != i]
        if _dependent(g, k, l, [e for j in rest for e in groups[j]]):
            keep = rest
    return keep


# --- colored recognizers -------------------------------------------------

Verdict = namedtuple("Verdict", ["sparse", "tight", "witness"])


def verdict_line(v):
    """Line protocol the CLI and harness consume."""
    if not v.sparse:
        return "VIOLATION " + " ".join(str(e) for e in sorted(v.witness))
    return "TIGHT" if v.tight else "SPARSE"


def family_bound(family, counts):
    """Right-hand side of the family's count for a SubgraphCounts tuple."""
    n, _, r, c0, c1, c2 = counts
    if family == ROSS:
        return 2 * n - 3 * c0 - 2 * (c1 + c2)
    if family == CONE:
        return 2 * n - 3 * c0 - c1 - c2
    if family == CYLINDER:
        return 2 * n + r - 3 * c0 - 2 * (c1 + c2)
    if family == COLORED:
        return 2 * n + max(2 * r - 1, 0) - 3 * c0 - 2 * (c1 + c2)
    raise UsageError("unknown family %r" % (family,))


def _subset_violates(g, family, edge_ids):
    sub = Subgraph(g, edge_ids)
    c = subgraph_counts(sub)
    return c.m_prime > family_bound(family, c)


def _minimize_witness(g, family, witness):
    """Greedily drop edges (ascending id) while the rest still violates;
    repeat to a fixpoint so no single removal restores the bound."""
    w = set(witness)
    changed = True
    while changed:
        changed = False
        for eid in sorted(w):
            if len(w) <= 1:
                break
            if _subset_violates(g, family, w - {eid}):
                w.remove(eid)
                changed = True
    return frozenset(w)


class _Violation(Exception):
    def __init__(self, edge_ids):
        self.edge_ids = edge_ids


def check_colored_sparsity(g, family, budget=DEFAULT_BUDGET):
    """Evaluate the family's count over every edge-induced subgraph.

    Returns a Verdict: sparse means no subgraph breaks the bound, tight
    additionally means equality on the whole graph (isolated vertices
    included, each one a rank-0 component).  When not sparse, witness is
    a minimal violating edge set, deterministic for a given graph.

    Graphs with more than `budget` edges are refused with
    BudgetExceededError since the enumeration is exponential.
    """
    if family not in FAMILIES:
        raise UsageError("unknown family %r" % (family,))
    if g.spec.variant not in _FAMILY_GROUPS[family]:
        raise UsageError("family %s is not defined over %s" % (family, g.spec))
    if family == CONE and not G._is_prime(g.spec.moduli[0]):
        raise UnsupportedGroupError(
            "cone count over composite Z/%d has no rank semantics" % g.spec.moduli)
    if g.m > budget:
        raise BudgetExceededError(
            "%d edges exceeds the enumeration budget of %d" % (g.m, budget))

    witness = _search_violation(g, family)
    if witness is not None:
        return Verdict(False, False, _minimize_witness(g, family, witness))
    gc = graph_counts(g)
    return Verdict(True, gc.m_prime == family_bound(family, gc), None)


def _search_violation(g, family):
    """First violating edge set found, or None.  Connected subsets are
    enumerated once each; disjoint combinations are checked as the family
    requires."""
    spec = g.spec
    variant = spec.variant
    edges = sorted(g.edges)
    m = len(edges)
    if m == 0:
        return None
    vidx = g._pos
    n = len(g.vertices)

    # dense edge arrays and incidence bitmasks
    EU = [0] * m
    EV = [0] * m
    EC = [None] * m
    eid_of = [0] * m
    inc = [0] * n
    for i, e in enumerate(edges):
        EU[i], EV[i] = vidx[e.tail], vidx[e.head]
        EC[i] = e.color.coords if spec.ncoords == 2 else e.color.coords[0]
        eid_of[i] = e.id
        inc[EU[i]] |= 1 << i
        inc[EV[i]] |= 1 << i

    if variant == G.FREE1:
        cadd = lambda a, b: a + b
        csub = lambda a, b: a - b
        zero = 0
    elif variant == G.CYCLIC:
        kk = spec.moduli[0]
        cadd = lambda a, b: (a + b) % kk
        csub = lambda a, b: (a - b) % kk
        zero = 0
    elif variant == G.FREE2:
        cadd = lambda a, b: (a[0] + b[0], a[1] + b[1])
        csub = lambda a, b: (a[0] - b[0], a[1] - b[1])
        zero = (0, 0)
    else:  # CYCLIC_PQ
        pp, qq = spec.moduli
        cadd = lambda a, b: ((a[0] + b[0]) % pp, (a[1] + b[1]) % qq)
        csub = lambda a, b: ((a[0] - b[0]) % pp, (a[1] - b[1]) % qq)
        zero = (0, 0)

    # Only the colored count tells rank 1 from rank 2.  Ross reads only
    # whether the rank is zero, and the cone and cylinder groups have
    # rank at most 1, so for them the rank is whether an image is nonzero.
    lattice = family == COLORED

    # rank bookkeeping for the current connected piece: a log of image
    # insertions so backtracking can pop.  The colored count keeps a Z^2
    # pivot vector plus a count of images independent of it; the others
    # a count of nonzero images.
    state = {"nz": 0, "pivot": None, "ind2": 0}

    def img_push(val):
        if val == zero:
            return 0
        if not lattice:
            state["nz"] += 1
            return 3
        if state["pivot"] is None:
            state["pivot"] = val
            return 1
        px, py = state["pivot"]
        if px * val[1] - py * val[0] != 0:
            state["ind2"] += 1
            return 2
        return 0

    def img_pop(tag):
        if tag == 1:
            state["pivot"] = None
        elif tag == 2:
            state["ind2"] -= 1
        elif tag == 3:
            state["nz"] -= 1

    def cur_rank():
        if lattice:
            return 2 if state["ind2"] else (1 if state["pivot"] is not None else 0)
        return 1 if state["nz"] else 0

    if family == ROSS:
        def slack(nn, mm, r):
            return 2 * nn - (3 if r == 0 else 2) - mm
    elif family == CONE:
        def slack(nn, mm, r):
            return 2 * nn - (3 if r == 0 else 1) - mm
    else:  # CYLINDER and COLORED share the r-aware connected bound shape
        def slack(nn, mm, r):
            if r == 0:
                return 2 * nn - 3 - mm
            if r == 1:
                return 2 * nn - 1 - mm
            return 2 * nn + 1 - mm

    # pieces that can combine into a disconnected violation
    collect_cyl = family == CYLINDER
    collect_col = family == COLORED
    cyl_pieces = []   # (vertex mask, edge mask)
    col_pieces = []   # (vertex mask, edge mask, deficiency, image basis)

    pot = [zero] * n

    def subset_ids(emask):
        return frozenset(eid_of[i] for i in range(m) if emask >> i & 1)

    def visit(emask, vmask, nn, mm):
        r = cur_rank()
        s = slack(nn, mm, r)
        if s < 0:
            raise _Violation(subset_ids(emask))
        if collect_cyl and r == 1 and s == 0:
            for vm, em in cyl_pieces:
                if not vm & vmask:
                    raise _Violation(subset_ids(em | emask))
            cyl_pieces.append((vmask, emask))
        elif collect_col and r >= 1:
            d = mm - (2 * nn - 2)
            if d > 0:
                if state["pivot"] is not None:
                    gens = [state["pivot"]]
                    # a second generator only matters when the piece has rank 2
                    if r == 2:
                        gens.append(_second_gen(emask))
                else:
                    gens = []
                col_pieces.append((vmask, emask, d, gens))

    def _second_gen(emask):
        # recompute one image independent of the pivot; rare path
        px, py = state["pivot"]
        sub = Subgraph(g, subset_ids(emask))
        for val in rho_image_basis(sub):
            x, y = val.coords
            if px * y - py * x != 0:
                return (x, y)
        raise InternalInvariantError("rank-2 piece without a second generator")

    def grow(emask, banned, incmask, vmask, nn, mm):
        ext = incmask & ~(emask | banned)
        while ext:
            bit = ext & -ext
            ext ^= bit
            i = bit.bit_length() - 1
            u, v, c = EU[i], EV[i], EC[i]
            ubit, vbit = 1 << u, 1 << v
            tag = None
            if vmask & ubit and vmask & vbit:
                # closes a cycle (or is a loop): contributes an image value
                tag = img_push(c if u == v else csub(cadd(c, pot[u]), pot[v]))
                visit(emask | bit, vmask, nn, mm + 1)
                grow(emask | bit, banned | ext, incmask, vmask, nn, mm + 1)
                img_pop(tag)
            else:
                if vmask & ubit:
                    w, nv, nm = v, vbit, vmask | vbit
                    pot[v] = cadd(pot[u], c)
                else:
                    w, nv, nm = u, ubit, vmask | ubit
                    pot[u] = csub(pot[v], c)
                visit(emask | bit, nm, nn + 1, mm + 1)
                grow(emask | bit, banned | ext, incmask | inc[w], nm, nn + 1, mm + 1)

    try:
        for a in range(m):
            u, v, c = EU[a], EV[a], EC[a]
            bit = 1 << a
            banned = bit - 1
            pot[u] = zero
            if u == v:
                tag = img_push(c)
                visit(bit, 1 << u, 1, 1)
                grow(bit, banned, inc[u], 1 << u, 1, 1)
                img_pop(tag)
            else:
                pot[v] = c
                vmask = (1 << u) | (1 << v)
                visit(bit, vmask, 2, 1)
                grow(bit, banned, inc[u] | inc[v], vmask, 2, 1)
    except _Violation as hit:
        return hit.edge_ids

    if collect_col and len(col_pieces) > 1:
        found = _combine_colored(col_pieces)
        if found is not None:
            return subset_ids(found)
    return None


def _combine_colored(pieces):
    """Search families of vertex-disjoint deficient pieces whose total
    deficiency beats max(2R-1, 0) for the rank R of their joint image.
    Needed only for the colored count: e.g. two disjoint rank-1 pieces
    with parallel images, or a rank-2 piece plus rank-1 satellites."""

    nn = len(pieces)
    best = [None]

    def rec(i, vmask, emask, tot, gens, count):
        if best[0] is not None:
            return
        if count >= 2 and tot > max(2 * G._lattice_rank(gens) - 1, 0):
            best[0] = emask
            return
        for j in range(i, nn):
            vm, em, d, gs = pieces[j]
            if vm & vmask:
                continue
            rec(j + 1, vmask | vm, emask | em, tot + d, gens + gs, count + 1)
            if best[0] is not None:
                return

    rec(0, 0, 0, 0, [], 0)
    return best[0]
