"""(k,l)-sparsity: the pebble game and the colored count recognizers.

Two kinds of machinery live here.  The pebble game decides uncolored
(k,l)-sparsity, builds bases and names each rejected edge's circuit; it
runs on plain multigraphs, on colored graphs (colours ignored) or on
the arcs a symmetric lift generates, and keeps no edge list of its own.
Each insert makes at most l+1 breadth-first searches, so a game is
O(m(n+m)) at worst, but a search stops at the nearest free pebble.  On
the Z/3 lifts of chains (vertex v joined to v-1 and v-2) the searches
reach about 41 vertices per lift edge at n = 1000 and at n = 2000; on
random-attachment bases they reach about 70, 120 and 180 at n = 300,
800 and 2000.

The colored recognizers evaluate a family's count (Count; COUNTS holds
the four) over every edge-induced subgraph by brute enumeration, which
is the ground truth the rest of the package is checked against.  The
walk meets each connected edge subset once, combines disjoint pieces
only for the counts whose term grows with r (cylinder and colored, the
ones a disjoint union of fine parts can break), runs on one integer
kernel (_int_colors), and skips every unbalanced piece when pebble
games on the underlying graph prove none can matter; _search_violation
has the proofs.
"""

from collections import namedtuple

from .errors import (UsageError, UnsupportedGroupError, NoCircuitError,
                     BudgetExceededError, InternalInvariantError)
from . import groups as G
from .graphs import Subgraph, subgraph_counts, graph_counts, _index_graph

ROSS = "ross"
CONE = "cone"
CYLINDER = "cylinder"
COLORED = "colored"
FAMILIES = (ROSS, CONE, CYLINDER, COLORED)


class Count(namedtuple("Count", "family penalty term groups")):
    """A family's count, m' <= 2n' + term[r] - (penalty[rank K] summed
    over components K), with penalty and term indexed by rank 0, 1, 2
    and r the rank of the whole set's cycle image; it is defined over
    the group variants in groups, a cyclic one only with a prime modulus
    (ranks need it).  A connected piece of rank r gets 2n' - off[r]."""

    __slots__ = ()

    @property
    def off(self):
        return tuple(p - t for p, t in zip(self.penalty, self.term))

    def bound(self, counts):
        """The right-hand side for a SubgraphCounts tuple."""
        n, _, r, c0, c1, c2 = counts
        p0, p1, p2 = self.penalty
        return 2 * n + self.term[r] - p0 * c0 - p1 * c1 - p2 * c2

    def refusal(self, spec):
        """The error for a group the count is not defined over, or None."""
        if spec.variant in self.groups and (
                spec.variant != G.CYCLIC or G._is_prime(spec.moduli[0])):
            return None
        return UnsupportedGroupError("family %s is not defined over %s" % (self.family, spec))


# terms 0, 0, r and max(2r - 1, 0)
COUNTS = {c.family: c for c in (
    Count(ROSS, (3, 2, 2), (0, 0, 0), (G.FREE2, G.CYCLIC_PQ)),
    Count(CONE, (3, 1, 1), (0, 0, 0), (G.CYCLIC,)),
    Count(CYLINDER, (3, 2, 2), (0, 1, 2), (G.FREE1,)),
    Count(COLORED, (3, 2, 2), (0, 1, 3), (G.FREE2,)))}


def family_count(family):
    """The family's Count; an unknown family is a UsageError."""
    if family not in FAMILIES:
        raise UsageError("unknown family %r" % (family,))
    return COUNTS[family]


SparsityParams = namedtuple("SparsityParams", ["k", "l"])

DEFAULT_BUDGET = 24


class UncoloredMultigraph:
    """Undirected multigraph: vertex ids plus (id, u, v) edges, or (u, v)
    edges numbered in order; every id goes through groups.integer.  Loops
    and parallel edges are the whole point.  Pebble games run on
    positions in `vertices`, read from one vertex -> position map."""

    __slots__ = ("vertices", "edges", "_pos", "_byid")

    def __init__(self, vertices, edges):
        self.vertices = tuple(map(G.integer, vertices))
        self.edges = tuple(
            tuple(map(G.integer, (i, *e) if len(e) == 2 else e[:3]))
            for i, e in enumerate(edges))
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
    The game holds its per-vertex pebbles and arcs, the source of arcs
    play() was given and the set of ids it rejected, and no copy of the
    edges it accepted: those are the offered edges that were not
    rejected, which accepted() reads back from the source.  `reached` is
    the game's work: the number of vertices each search reached, summed
    over every search so far.  `stuck` is the
    stamp of the last rejected insert's first search; until the next
    insert, region() and circuit() read what its failed searches marked.

    Each search is breadth first: it stops at the nearest free pebble and
    moves it along a shortest path.  Which path a search takes cannot
    change any output.  The accepted edges are the greedy basis of the
    (k,l) count matroid in offer order, whatever the arcs look like; and
    the region a failed insert reaches is the vertex set of the rejected
    edge's circuit, so it too is fixed by the edges alone.
    """

    def __init__(self, n, k, l):
        self.k = k
        self.l = l
        self.peb = [k] * n
        self.out = [[] for _ in range(n)]
        self.seen = [0] * n
        self.prev = [0] * n
        self.stamp = self.stuck = 0
        self.reached = 0
        self.arcs = None       # set by play()
        self.rejected = set()

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
                    self.stuck = self.stamp
                    return False
            peb[u] -= 1
            self.out[u].append(u)
            return True
        while peb[u] + peb[v] < l + 1:
            if not (self._grab(u, u, v) or self._grab(v, u, v)):
                self.stuck = self.stamp - 1
                return False
        if peb[u] == 0:
            u, v = v, u
        peb[u] -= 1
        self.out[u].append(v)
        return True

    def play(self, arcs):
        """Offer the (edge id, u, v) triples of arcs(), a zero-argument
        callable that gives the same triples each time it is called, in
        turn; yield each rejected id as its insert fails.  The caller
        ends the game by pulling no more."""
        self.arcs = arcs
        insert, reject = self.insert, self.rejected.add
        for eid, u, v in arcs():
            if not insert(u, v):
                reject(eid)
                yield eid

    def accepted(self, stop=None):
        """The accepted (edge id, u, v) triples offered before edge
        `stop`, read back from play()'s arcs; with no `stop`, all of
        them, once the game has offered every arc."""
        rejected = self.rejected
        for arc in self.arcs():
            if arc[0] == stop:
                return
            if arc[0] not in rejected:
                yield arc

    def region(self):
        """Vertices reachable from the ends of a just-rejected insert."""
        return {x for x, st in enumerate(self.seen) if st >= self.stuck}

    def circuit(self, eid):
        """eid's unique (k,l)-circuit, read just after play() rejects it:
        the accepted edges B[R] with both ends in R = region(), plus eid.

        When eid fails, its ends u and v hold at most l pebbles and no
        other vertex of R (all that is reachable from u and v) holds
        one.  Every vertex holds k pebbles and out-arcs together and no
        arc leaves R, so B[R] has k|R| - (pebbles on u, v) >= k|R| - l
        edges and B[R] + eid is dependent.  Sparsity makes that exactly
        k|R| - l when B[R] is nonempty (else eid is a loop and R its one
        vertex), so u and v hold l pebbles.  The circuit's vertex set T
        spans k|T| - l accepted edges, so its arcs cost every pebble in
        T but those l: no arc leaves T, and T contains R.  B[R] lies in
        the circuit, which is B[R] + eid (Lee and Streinu, Discrete
        Math. 2008).  It is eid's circuit against every later basis too,
        since a basis plus one edge holds exactly one circuit.
        """
        region = self.region()
        return frozenset([f for f, u, v in self.accepted(eid)
                          if u in region and v in region] + [eid])


def _run_game(g, k, l, order=None):
    """(game, its rejected ids) for a fresh (k,l) game on g's edges,
    offered in id order or the caller's order."""
    order = ([e[0] for e in sorted(g.edges)] if order is None
             else list(order))
    pos, byid = g._pos, g._byid

    def arcs():
        return ((eid, pos[byid[eid][1]], pos[byid[eid][2]]) for eid in order)

    game = _PebbleGame(len(g.vertices), k, l)
    return game, game.play(arcs)


def kl_basis(g, params, order=None):
    """A maximal (k,l)-sparse edge subset, built by the pebble game with
    edges offered in id order (or the caller's order).  The result is a
    basis of the (k,l) count matroid restricted to g."""
    k, l = _check_params(params)
    game, rejected = _run_game(g, k, l, order)
    list(rejected)
    return frozenset(f for f, _, _ in game.accepted())


def is_kl_sparse(g, params):
    """True iff every edge of g fits, i.e. all subgraphs have m' <= kn' - l."""
    k, l = _check_params(params)
    return next(_run_game(g, k, l)[1], None) is None


def is_kl_spanning(g, params):
    """True iff g contains a spanning (k,l)-tight subgraph, i.e. the basis
    has the full k*n - l edges."""
    k, l = _check_params(params)
    return len(kl_basis(g, params)) == k * g.n - l


def fundamental_circuit(g, params, basis, eid):
    """The unique (k,l)-circuit inside basis + e, read off one pebble game
    that offers the basis, then e; _PebbleGame.circuit has the proof.
    Raises UsageError when e is in the basis or the basis is not
    (k,l)-sparse, and NoCircuitError when e is independent of it.

    >>> k4 = UncoloredMultigraph(range(4), [(0, 1), (0, 2), (0, 3),
    ...                                     (1, 2), (1, 3), (2, 3)])
    >>> sorted(fundamental_circuit(k4, (2, 3), range(5), 5))
    [0, 1, 2, 3, 4, 5]
    """
    k, l = _check_params(params)
    basis = frozenset(basis)
    if eid in basis:
        raise UsageError("edge %d is in the basis" % eid)
    game, rejected = _run_game(g, k, l, sorted(basis) + [eid])
    first = next(rejected, None)
    if first is None:
        raise NoCircuitError("edge %d is independent of the basis" % eid)
    if first != eid:
        raise UsageError("given basis is not (k,l)-sparse")
    circuit, size = game.circuit(eid), len(game.region())
    if len(circuit) > 1 and len(circuit) - 1 != k * size - l:
        raise InternalInvariantError(
            "stuck region spans %d basis edges on %d vertices"
            % (len(circuit) - 1, size))
    return circuit


# --- colored recognizers -------------------------------------------------

Verdict = namedtuple("Verdict", ["sparse", "tight", "witness"])


def verdict_line(v):
    """Line protocol the CLI and harness consume."""
    if not v.sparse:
        return "VIOLATION " + " ".join(str(e) for e in sorted(v.witness))
    return "TIGHT" if v.tight else "SPARSE"


def family_bound(family, counts):
    """Right-hand side of the family's count for a SubgraphCounts tuple."""
    return family_count(family).bound(counts)


def _subset_violates(g, family, edge_ids):
    sub = Subgraph(g, edge_ids)
    c = subgraph_counts(sub)
    return c.m_prime > family_bound(family, c)


def _minimize_witness(g, family, witness):
    """Drop edges (ascending id, to a fixpoint) while the rest violates.
    The one minimiser and guard of every engine: a witness that does not
    break g's own count raises InternalInvariantError."""
    w = set(witness)
    if not _subset_violates(g, family, w):
        raise InternalInvariantError(
            "witness %r does not break the %s count" % (sorted(w), family))
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
    def __init__(self, emask):
        self.emask = emask


def check_colored_sparsity(g, family, budget=DEFAULT_BUDGET):
    """Evaluate the family's count over every edge-induced subgraph.

    Returns a Verdict: sparse means no subgraph breaks the bound, tight
    additionally means equality on the whole graph (isolated vertices
    included, each one a rank-0 component).  When not sparse, witness is
    a minimal violating edge set, deterministic for a given graph.

    Graphs with more than `budget` edges are refused with
    BudgetExceededError since the enumeration is exponential; a negative
    budget is a UsageError.
    """
    if budget < 0:
        raise UsageError("budget must be nonnegative, got %d" % budget)
    if (refusal := family_count(family).refusal(g.spec)) is not None:
        raise refusal
    if g.m > budget:
        raise BudgetExceededError(
            "%d edges exceeds the enumeration budget of %d" % (g.m, budget))

    witness = _search_violation(g, family)
    if witness is not None:
        return Verdict(False, False, _minimize_witness(g, family, witness))
    gc = graph_counts(g)
    return Verdict(True, gc.m_prime == family_bound(family, gc), None)


def _int_colors(spec, edges):
    """Each edge's colour as one int, and the modulus M of the zero test.

    + on the ints is the group law.  A cycle sum (each edge of a cycle
    taken once, signed by its direction) is the group's zero exactly
    when M divides it:

        Z          the int itself; M = 2S + 1 for S the sum of |colour|,
                   which no cycle sum exceeds
        Z/k        the int; M = k
        Z/p x Z/q  (a, b) as the int mod pq with those residues (CRT,
                   p != q); M = pq
        Z^2        (a, b) as a + K*b with K = 2S + 1 for S the sum of
                   |a|, so a cycle sum x has |a| < K/2 and reads back
                   as b = (x + K//2) // K, a = x - K*b; M = K(2T + 1)
                   for T the sum of |b|

    Returns (ints in edge order, M, K); K is 0 outside Z^2.
    """
    coords = [e.color.coords for e in edges]
    if spec.variant == G.FREE1:
        return ([c for c, in coords],
                2 * sum(abs(c) for c, in coords) + 1, 0)
    if spec.variant == G.CYCLIC:
        return [c for c, in coords], spec.moduli[0], 0
    if spec.variant == G.CYCLIC_PQ:
        p, q = spec.moduli
        ep, eq = q * pow(q, -1, p), p * pow(p, -1, q)
        return [(a * ep + b * eq) % (p * q) for a, b in coords], p * q, 0
    kk = 2 * sum(abs(a) for a, _ in coords) + 1
    tt = 2 * sum(abs(b) for _, b in coords) + 1
    return [a + kk * b for a, b in coords], kk * tt, kk


def _walk_rule(count, spec):
    """(off, keep, paired) of _search_violation: count.off over the ranks
    the walk tells apart (rank 2 only over Z^2 where it pays otherwise
    than rank 1: colored); paired when the term grows with r, so a
    disjoint union can break the count; keep[r] the slack below which a
    piece goes to keep_piece: the violations (s < 0) and, when paired,
    rank r >= 1 pieces with deficiency m' - (2n' - 2) = 2 - off[r] - s > 0."""
    off = count.off
    off = off if spec.variant == G.FREE2 and off[2] != off[1] else off[:2]
    paired = any(count.term)
    keep = (0,) + tuple(2 - o if paired else 0 for o in off[1:])
    return off, keep, paired


def _search_violation(g, family):
    """First violating edge set found, or None.  Connected subsets are
    enumerated once each; disjoint combinations are checked as the family
    requires.

    The walk is anchored growth: for each anchor edge a in id order,
    grow the connected supersets of {a} that use no edge below a, taking
    the piece's unbanned boundary edges in id order and banning, below
    each branch, the boundary edges after the one it adds.  Each piece
    is found once.  It carries its slack (the family's connected bound
    minus its edge count) and the rank r of its cycle images down the
    recursion, so nothing is undone on the way back.  With n' vertices
    and m' edges the slack is 2n' - m' - off[r]: a tree edge adds one,
    and a cycle edge takes one and, when its image raises the rank,
    adds off[r] - off[r + 1].  Where off tells rank 2 from rank 1, a
    cross product with the piece's first nonzero image (its pivot) does.

    Before the walk, (2,l) pebble games on the underlying graph decide
    `flat`, which holds when no piece of rank r >= 1 can matter: the
    graph is (2, off[1])-sparse ((2,2) for Ross, (2,1) for the rest),
    and for a paired count (cylinder, colored) the (2,2) game rejects at
    most one edge.  When it holds, the walk skips every rank >= 1 piece with its whole
    subtree: an anchor that is a nonzero loop, and a cycle edge whose
    image raises r to 1.  Proof.  Rank never falls as a piece grows, so
    every piece below a skipped one has rank >= 1 too.  Every count
    gives a balanced connected piece 2n' - 3 and an unbalanced one
    2n' - 2 (Ross) or at least 2n' - 1 (the rest), so a rank >= 1 piece
    that breaks its count alone is (2,2)-dependent for Ross and
    (2,1)-dependent for the others.  A piece that keep_piece stores to
    pair up (cylinder, colored) has m' >= 2n' - 1 while a (2,2)-sparse
    edge set on its n' vertices has at most 2n' - 2 edges, so its
    (2,2)-nullity is at least 1.  The (2,2) rank is submodular, so the
    nullity of two disjoint edge sets together is at least the sum of
    theirs, and a superset's is at least a subset's: two vertex-disjoint
    stored pieces would make the game reject two edges.  The gate reads
    the whole graph, not the anchor's suffix of edges, because a piece
    stored at one anchor can pair with one found at a later anchor.  The
    walk order is unchanged, so the first violation met, and every
    witness, is the ungated walk's.
    """
    edges = sorted(g.edges)
    m = len(edges)
    if m == 0:
        return None
    off, keep, paired = _walk_rule(family_count(family), g.spec)
    top = len(off) - 1
    lattice = top == 2
    # slack change of a cycle edge whose image raises the rank to 1, to 2
    up1 = off[0] - off[1] - 1
    up2 = off[1] - off[2] - 1 if lattice else 0

    ec, zmod, kk = _int_colors(g.spec, edges)
    half = kk // 2
    vidx = g._pos

    # flat: no piece of rank >= 1 can matter, so the walk skips them all
    flat = is_kl_sparse(g, (2, off[1])) and (
        not paired or m - len(kl_basis(g, (2, 2))) <= 1)

    ends = {}   # edge bit -> (tail vertex bit, head vertex bit, int colour)
    inc = {}    # vertex bit -> bits of its edges
    for i, e in enumerate(edges):
        ub, vb = 1 << vidx[e.tail], 1 << vidx[e.head]
        ends[1 << i] = (ub, vb, ec[i])
        inc[ub] = inc.get(ub, 0) | 1 << i
        inc[vb] = inc.get(vb, 0) | 1 << i
    pot = {}    # vertex bit -> potential in the current piece's tree
    cyl_pieces = []   # (vertex mask, edge mask)
    col_pieces = []   # (vertex mask, edge mask, deficiency, image basis)

    def subset_ids(emask):
        return frozenset(edges[i].id for i in range(m) if emask >> i & 1)

    def keep_piece(emask, vmask, s, r, pivot):
        if s < 0:
            raise _Violation(emask)
        if lattice:
            b = (pivot + half) // kk    # the pivot's pair (a, b)
            gens = [(pivot - kk * b, b)]
            if r == 2:
                # the first cycle image off the pivot's line; pot holds the
                # piece's potentials, all set on this recursion path
                for bit, (ub, vb, c) in ends.items():
                    if emask & bit:
                        x = c + pot[ub] - pot[vb]
                        y = (x + half) // kk
                        if pivot * y - x * b:
                            gens.append((x - kk * y, y))
                            break
                else:
                    raise InternalInvariantError(
                        "rank-2 piece without a second generator")
            col_pieces.append((vmask, emask, 2 - off[r] - s, gens))
            return
        # a tight rank-1 cylinder piece: two disjoint ones break the count
        for vm, em in cyl_pieces:
            if not vm & vmask:
                raise _Violation(em | emask)
        cyl_pieces.append((vmask, emask))

    def grow(emask, banned, ext, incmask, vmask, slack, r, pivot):
        # ext: the unbanned boundary edges of the piece emask, nonzero
        while ext:
            bit = ext & -ext
            ext ^= bit
            ub, vb, c = ends[bit]
            sub = emask | bit
            ban = banned | ext
            if vmask & ub and vmask & vb:
                # closes a cycle (or is a loop): its image may raise r
                s, r2, p2 = slack - 1, r, pivot
                if r < top:
                    x = c + pot[ub] - pot[vb]
                    if x % zmod:
                        if r == 0:
                            s, r2, p2 = slack + up1, 1, x
                        # packed P and X with second coordinates p, y:
                        # P*y - X*p is the cross product of their pairs
                        elif (pivot * ((x + half) // kk)
                              - x * ((pivot + half) // kk)):
                            s, r2 = slack + up2, 2
                if r2 and flat:
                    continue
                if s < keep[r2]:
                    keep_piece(sub, vmask, s, r2, p2)
                nxt = incmask & ~(sub | ban)
                if nxt:
                    grow(sub, ban, nxt, incmask, vmask, s, r2, p2)
            else:
                if vmask & ub:
                    pot[vb] = pot[ub] + c
                    wb = vb
                else:
                    pot[ub] = pot[vb] - c
                    wb = ub
                s = slack + 1
                if s < keep[r]:
                    keep_piece(sub, vmask | wb, s, r, pivot)
                inc2 = incmask | inc[wb]
                nxt = inc2 & ~(sub | ban)
                if nxt:
                    grow(sub, ban, nxt, inc2, vmask | wb, s, r, pivot)

    try:
        for a in range(m):
            bit = 1 << a
            ub, vb, c = ends[bit]
            pot[ub] = 0
            if ub == vb:    # one vertex, one edge, the loop's image
                r = 1 if c % zmod else 0
                if r and flat:
                    continue
                s = 1 - off[r]
            else:           # two vertices, one edge
                pot[vb] = c
                r, s = 0, 3 - off[0]
            vmask = ub | vb
            if s < keep[r]:
                keep_piece(bit, vmask, s, r, c)
            incmask = inc[ub] | inc[vb]
            ext = incmask & ~((bit << 1) - 1)
            if ext:
                grow(bit, bit - 1, ext, incmask, vmask, s, r, c)
    except _Violation as hit:
        return subset_ids(hit.emask)

    if lattice and len(col_pieces) > 1:
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
