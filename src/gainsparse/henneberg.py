"""Inductive construction and deconstruction for the three move families.

Ross, cone-Laman and cylinder-Laman graphs are exactly the graphs
reachable from a tiny base by local moves, and the moves are cheap to
validate, so a construction sequence doubles as a checkable certificate
of membership.  Three moves appear:

    h1c    add vertex n and two edges into n from a and b (a == b is
           allowed when the colors differ)
    h1cp   add vertex n, one edge a -> n, and a loop at n with nonzero
           color (the lollipop; cone-Laman only)
    h2c    remove an edge ab, then add vertex n joined to a, b and a
           third vertex c, with color_an - color_bn equal to the color
           of the removed edge

A Certificate is a base graph plus a move list.  The forward half of
the construction theorems ("Henneberg constructions and covers of
cone-Laman graphs", arXiv:1204.0503) says that h1c, h1cp and h2c keep
a tight graph tight in its family whenever the move's local rules
hold: distinct colors on parallel edges, a nonzero lollipop loop, and
the split identity.
apply_move enforces exactly those rules, so verification checks the
base and every move's rules, then runs one family check on the final
graph.  Deconstruction takes what a certificate can build and runs the
moves backwards: repeatedly delete a vertex of degree two or three
whose removal keeps the graph tight, then replay forward to emit moves
whose edge ids match the replay, not the stripping order.

check() is the library's verdict entry point.  It and tight_in_family
share one lift route (_lift_violation, which lifts a cylinder graph over
a small prime first) wherever lift_applies, and take the brute-force
count elsewhere.
"""

import random
from collections import namedtuple
from itertools import combinations

from .errors import (UsageError, PreconditionError, InvalidMoveError,
                     NoCandidatesError, CertificateError, GenerationError,
                     ParseError, InternalInvariantError)
from . import groups as G
from .graphs import (MAX_VERTICES, ColoredGraph, Edge, normalized_triple,
                     same_up_to_flip, parse_colored_graph,
                     serialize_colored_graph)
from .lifts import (reduce_colors, lift_refusal, lift_witness,
                    disjoint_circuit_witness, _reduce, _small_prime)
# Unused here: perfbench/spans.py patches it by name and fails without.
from .lifts import cone_laman_via_lift  # noqa: F401
from .sparsity import (ROSS, CONE, CYLINDER, DEFAULT_BUDGET, Verdict,
                       check_colored_sparsity, family_bound, family_count,
                       graph_counts, is_kl_spanning, _minimize_witness,
                       _subset_violates)


class H1c(namedtuple("H1c", ["n", "a", "b", "ca", "cb"])):
    """Vertex addition: new vertex n, edges a -> n and b -> n."""

    __slots__ = ()
    kind = "h1c"


class H1cPrime(namedtuple("H1cPrime", ["n", "a", "ca", "loop"])):
    """Lollipop: new vertex n, edge a -> n, and a loop at n whose color
    must be nonzero."""

    __slots__ = ()
    kind = "h1cp"


class H2c(namedtuple("H2c", ["n", "split", "can", "cbn", "c", "ccn"])):
    """Edge split: remove the edge with id `split` (say a -> b), add
    vertex n and edges a -> n, b -> n, c -> n.  The constraint
    can - cbn == color(split) makes the two replacement edges carry the
    old edge's color as a path through n."""

    __slots__ = ()
    kind = "h2c"


class Family(namedtuple("Family", ["name", "kinds", "group", "base_n"])):
    """What construction adds to a family's count (sparsity.Count): move
    kinds in deconstruction's preference order, the group variant
    certificates are built over, and the base graph's vertex count."""

    __slots__ = ()


CONSTRUCTIBLE = {
    ROSS: Family(ROSS, ("h1c", "h2c"), G.FREE2, 2),
    CONE: Family(CONE, ("h1c", "h1cp", "h2c"), G.CYCLIC, 1),
    CYLINDER: Family(CYLINDER, ("h1c", "h2c"), G.FREE1, 1),
}


def family_def(name, spec=None):
    """The family's Family; given a group spec, also raise the error for
    a group its certificates are not built over (_group_refusal)."""
    try:
        fam = CONSTRUCTIBLE[name]
    except KeyError:
        raise UsageError("no inductive construction for family %r" % (name,))
    if spec is not None and (refusal := _group_refusal(fam, spec)) is not None:
        raise refusal
    return fam


Certificate = namedtuple("Certificate", ["family", "base", "moves"])


def _group_refusal(fam, spec):
    """The error for a group fam's certificates are not built over, or
    None: the count's refusal, and for a group the count is defined over
    but construction is not (Ross over Z/pxZ/q) one of its own."""
    refusal = family_count(fam.name).refusal(spec)
    if refusal is None and spec.variant != fam.group:
        refusal = UsageError("family %s is constructed over %s only, not %s"
                             % (fam.name, fam.group, spec))
    return refusal


def apply_move(g, m):
    """Apply a forward move, returning the new graph.

    Every kind takes one path: n must be new, the edges into n come from
    vertices of g (for h2c, the split edge's tail and head, then c), each
    color goes through g.spec.elem, and two of those edges from one
    vertex must differ in color.  Only the lollipop's nonzero loop and
    h2c's split identity can - cbn = color(split) are checked per kind,
    before the parallel test.  New edges are appended in the order an,
    bn (then cn, or h1cp's loop), with ids continuing from the current
    maximum; h2c removes its split edge first, so a replay starting from
    the same base is reproducible id-for-id.

    >>> from . import groups
    >>> z5 = groups.GroupSpec.cyclic(5)
    >>> base = ColoredGraph(z5, [0], [(0, 0, 0, 1)])
    >>> h = apply_move(base, H1c(1, 0, 0, 1, 2))
    >>> h.n, h.m
    (2, 3)
    """
    if g.has_vertex(m.n):
        raise UsageError("new vertex id %d already in use" % m.n)
    if m.kind == "h1c":
        ends, colors = [m.a, m.b], [m.ca, m.cb]
    elif m.kind == "h1cp":
        ends, colors = [m.a], [m.ca, m.loop]
    elif m.kind == "h2c":
        split = g.edge(m.split)
        ends, colors = [split.tail, split.head, m.c], [m.can, m.cbn, m.ccn]
    else:
        raise UsageError("unknown move kind %r" % (getattr(m, "kind", None),))
    for v in ends:
        if not g.has_vertex(v):
            raise UsageError("no vertex %d to attach to" % v)
    colors = [g.spec.elem(c) for c in colors]
    if m.kind == "h1cp":
        if colors[1] == g.spec.zero():
            raise InvalidMoveError("lollipop loop color must be nonzero")
        ends.append(m.n)
    elif m.kind == "h2c" and colors[0] - colors[1] != split.color:
        raise InvalidMoveError(
            "split identity fails: %s - %s is not the color %s of edge %d"
            % (colors[0], colors[1], split.color, m.split))
    new = [(u, m.n, c) for u, c in zip(ends, colors)]
    for (u1, _, c1), (u2, _, c2) in combinations(new, 2):
        if u1 == u2 and c1 == c2:
            raise InvalidMoveError(
                "parallel edges %d -> %d must get distinct colors" % (u1, m.n))
    out = g.without_edge(m.split) if m.kind == "h2c" else g
    out = out.with_vertex(m.n).with_edges(new)
    # every move adds one vertex and two edges net, and with the local
    # rules above the forward theorem keeps every subgraph count too, so
    # a tight g gives a tight out and callers need no family check
    assert out.n == g.n + 1 and out.m == g.m + 2
    return out


def _lift_violation(g, family):
    """The lift route, wherever lift_applies: a Z/p graph with 2n - 1
    edges is cone-Laman exactly when its lift is Laman-sparse, and a Z
    graph is cylinder-tight exactly when its reduction mod a safe prime
    passes that test and its underlying graph is (2,2)-spanning.  None
    when g is tight, else an unminimised violating edge set: lift_witness
    of g (for cylinder, of a reduction), or, for a cylinder graph whose
    lift passes but which is not (2,2)-spanning, disjoint_circuit_witness.

    A cylinder graph is first reduced mod the small prime p0 of
    lifts._small_prime.  Reducing mod an odd prime never makes a balanced
    set unbalanced, so it only lowers cone bounds: a pass mod p0 is the
    safe prime's pass.  A rejection is final when its set breaks g's own
    count (_subset_violates, the minimiser's guard); one that does not
    means a cycle's value vanished mod p0, and only then, or with no p0,
    does the route reduce mod the safe prime of reduce_colors."""
    if family == CONE:
        return lift_witness(g)
    p0 = _small_prime(g)
    found = None if p0 is None else lift_witness(_reduce(g, p0))
    if p0 is None or (found is not None
                      and not _subset_violates(g, family, found)):
        found = lift_witness(reduce_colors(g)[0])
    if found is None and not is_kl_spanning(g, (2, 2)):
        found = disjoint_circuit_witness(g)
    return found


def lift_applies(g, family):
    """Does check(g, family, method="lift") take g?"""
    return lift_refusal(g, family) is None


def check(g, family, method="brute", budget=DEFAULT_BUDGET):
    """Verdict for g in family.  method="brute" enumerates subgraphs,
    refusing graphs above `budget` edges; method="lift" takes the
    polynomial lift route wherever lift_applies (cone over Z/p, p an odd
    prime, and cylinder, both with m = 2n - 1), where sparse means
    tight.  The brute witness and the lift route's set (_lift_violation)
    are each minimised against g's own count.

    >>> z5 = G.GroupSpec.cyclic(5)
    >>> g = ColoredGraph(z5, [0], [(0, 0, 0, 2)])
    >>> check(g, "cone", method="lift")
    Verdict(sparse=True, tight=True, witness=None)
    """
    if method == "brute":
        return check_colored_sparsity(g, family, budget=budget)
    if method != "lift":
        raise UsageError("method is brute or lift, not %r" % (method,))
    if (refusal := lift_refusal(g, family)) is not None:
        raise refusal
    found = _lift_violation(g, family)
    if found is None:
        return Verdict(True, True, None)
    return Verdict(False, False, _minimize_witness(g, family, found))


def tight_in_family(g, family):
    """Is g tight in family?  The same answer as check(g, family).tight,
    by the fastest route that is a theorem: wherever lift_applies, the
    lift route shared with check, with nothing minimised; the brute-force
    count otherwise (Ross always; the budget keeps it at desk scale)."""
    if lift_applies(g, family):
        return _lift_violation(g, family) is None
    return check_colored_sparsity(g, family).tight


def _base_image(colors):
    # a base's cycle image from its colors read toward its top vertex
    return colors[0] - colors[1] if len(colors) == 2 else colors[0]


def is_base(g, family):
    """Is g the family's base graph: base_n vertices joined by base_n
    edges (a loop for cone and cylinder, two parallels for Ross) with a
    nonzero cycle image, over a group its certificates are built over?"""
    fam = family_def(family)
    if not g.n == g.m == fam.base_n or _group_refusal(fam, g.spec) is not None:
        return False
    ends = set(g.vertices)
    return (all({e.tail, e.head} == ends for e in g.edges)
            and _base_image([_into(e, max(ends)) for e in g.edges]) != g.spec.zero())


def _into(e, v):
    # color of e read in the orientation pointing at v; loops excluded
    return e.color if e.head == v else -e.color


def _other(e, v):
    return e.head if e.tail == v else e.tail


# (loops, non-loop edges) at a vertex -> the move that can have added
# it.  A loop counts two toward the degree, so these are the degree-2
# and degree-3 shapes.
_SHAPES = {(0, 2): "h1c", (1, 1): "h1cp", (0, 3): "h2c"}


def _degree_pattern(g, v):
    """(v's incident edge records, the move _SHAPES fits them, or None)."""
    inc = [g.edge(eid) for eid in g.incident(v)]
    loops = sum(e.tail == e.head for e in inc)
    return inc, _SHAPES.get((loops, len(inc) - loops))


def reverse_candidates(g, v, family):
    """Single-step predecessors of g obtained by undoing a move at v,
    each paired with the forward move that rebuilds g from it.

    One scan of v's incident edges gives its shape (_degree_pattern),
    and v is deleted once.  Degree-2 vertices and lollipop vertices
    reverse one way: that deletion.  A degree-3 vertex with edges to
    slots a, b, c (repeats allowed) yields up to three predecessors, one
    per pair, rejoining the pair with the color the split identity gives
    it: can - cbn, the pair's colors read into v.  A rejoin that would
    duplicate an existing edge of the same color (up to flip and negate)
    is dropped, since the doubled edge could never sit inside a sparse
    graph.

    The h2c move's split id refers to the rejoined edge in the
    predecessor.  No family count is checked here; callers filter.
    """
    fam = family_def(family)
    if not g.has_vertex(v):
        raise UsageError("no vertex %d" % v)
    inc, pat = _degree_pattern(g, v)
    if pat is None or pat not in fam.kinds:
        raise NoCandidatesError(
            "vertex %d has no reversible degree pattern for %s" % (v, family))
    stripped = g.without_vertex(v)
    if pat == "h1c":
        e1, e2 = inc
        mv = H1c(v, _other(e1, v), _other(e2, v), _into(e1, v), _into(e2, v))
        return [(mv, stripped)]
    if pat == "h1cp":
        loop = next(e for e in inc if e.tail == e.head)
        plain = next(e for e in inc if e.tail != e.head)
        mv = H1cPrime(v, _other(plain, v), _into(plain, v), loop.color)
        return [(mv, stripped)]
    out = []
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        ei, ej, ek = inc[i], inc[j], inc[k]
        x, y = _other(ei, v), _other(ej, v)
        can, cbn = _into(ei, v), _into(ej, v)
        eta = can - cbn
        key = normalized_triple(Edge(-1, x, y, eta))
        if any(normalized_triple(f) == key for f in stripped.edges
               if {f.tail, f.head} == {x, y}):
            continue
        cand = stripped.with_edges([(x, y, eta)])
        mv = H2c(v, cand.edges[-1].id, can, cbn, _other(ek, v), _into(ek, v))
        out.append((mv, cand))
    return out


def _pick_reverse(work, family, fam):
    """First reverse move of the tight graph work whose predecessor is
    tight, scanning move kinds in preference order and vertices by id.

    An h1c or h1cp predecessor is work minus v and its two edges.  It is
    a subgraph of a sparse graph, so it is sparse, and it is tight
    exactly when the whole-graph count (graph_counts against
    family_bound, isolated vertices included) holds with equality.  No
    subgraph search is needed.  The count can only fail one way: v's
    removal takes 2 from 2n and 2 edges, the pieces v's component leaves
    behind pay at least the penalty that component paid, and the
    cylinder rank cannot grow, so the bound drops by 2 or more and
    drops by more only when a piece pays extra, as a neighbour left
    isolated does.  An h2c predecessor rejoins an edge work does not
    have, which can break sparsity, so it takes the full
    tight_in_family.
    """
    for kind in fam.kinds:
        for v in sorted(work.vertices):
            if _degree_pattern(work, v)[1] != kind:
                continue
            for mv, cand in reverse_candidates(work, v, family):
                if kind == "h2c":
                    tight = tight_in_family(cand, family)
                else:
                    counts = graph_counts(cand)
                    tight = counts.m_prime == family_bound(family, counts)
                if tight:
                    return mv, cand
    return None


def _rebind_split(mv, target, sim):
    """Point mv's split reference at the right edge of sim.

    target is the split edge as the strip recorded it, the one record of
    the predecessor graph this needs (None for h1c and h1cp).  That
    predecessor and sim agree up to reorienting edges with negated
    colors but not on edge ids, so the split edge is re-identified by
    endpoints and normalized color, a key that is unique among the
    parallels of any sparse graph.  When sim stores the edge in the
    opposite orientation the an/bn roles swap, which keeps the split
    identity true.
    """
    if mv.kind != "h2c":
        return mv
    key = normalized_triple(target)
    hits = [f for f in sim.edges if normalized_triple(f) == key]
    if len(hits) != 1:
        raise InternalInvariantError(
            "split key %r matched %d edges in the replay" % (key, len(hits)))
    f = hits[0]
    if (f.tail, f.head, f.color) == (target.tail, target.head, target.color):
        return mv._replace(split=f.id)
    return H2c(mv.n, f.id, mv.cbn, mv.can, mv.c, mv.ccn)


def deconstruct(g, family):
    """Strip g to a base graph by reverse moves and return the forward
    Certificate.

    Stripping picks, at each step, the first admissible reversal in a
    fixed scan order: move kinds in the family's preference order, then
    vertices by ascending id, then candidate pairs by edge id, so the
    run is deterministic.  g must have the shape every certificate
    keeps: one component, a nonzero cycle image (graph_counts reads
    c0 = 0 and c1 + c2 = 1) and m equal to family_bound, 2n - off[1]
    (sparsity.Count).  That count is read first; then g takes one full
    family check (tight_in_family), and a graph failing either raises
    PreconditionError.  After that a candidate is accepted on the test
    _pick_reverse proves enough for its kind: the whole-graph count for
    h1c and h1cp, the full check for h2c.  Each step records only its
    move and, for h2c, the split edge as the predecessor holds it; the
    predecessor itself is dropped once the next step is picked, so the
    strip holds one graph at a time and
    its memory is linear in m.  The forward replay then rebuilds the
    graph from the base to fix up h2c split ids, and the result is
    checked against g edge-for-edge (orientation free) before return.
    """
    fam = family_def(family, g.spec)
    # every base has this shape and every move keeps it, though the
    # whole-graph count calls two bases side by side tight, and check
    # calls a balanced triangle tight
    gc = graph_counts(g)
    if ((gc.c0, gc.c1 + gc.c2) != (0, 1)
            or gc.m_prime != family_bound(family, gc)):
        raise PreconditionError(
            "input graph (n=%d, m=%d) is not connected with a nonzero cycle "
            "image and m = 2n - %d, as every %s certificate's graph is"
            % (g.n, g.m, family_count(family).off[1], family))
    if not tight_in_family(g, family):
        raise PreconditionError("input graph is not %s-tight" % family)
    trail = []
    work = g
    while not is_base(work, family):
        step = _pick_reverse(work, family, fam)
        if step is None:
            raise InternalInvariantError(
                "tight %s graph on %d vertices admits no reverse move"
                % (family, work.n))
        mv, work = step
        trail.append((mv, work.edge(mv.split) if mv.kind == "h2c" else None))
    # the stripped base keeps g's vertex ids but its edge ids are
    # renumbered 0..m-1, matching what parsing the serialized
    # certificate would produce; replay ids then agree with the ids
    # recorded in the moves no matter where the certificate went
    base = ColoredGraph(work.spec, tuple(sorted(work.vertices)),
                        [(i, e.tail, e.head, e.color)
                         for i, e in enumerate(sorted(work.edges, key=lambda e: e.id))])
    moves = []
    sim = base
    for mv, target in reversed(trail):
        mv = _rebind_split(mv, target, sim)
        sim = apply_move(sim, mv)
        moves.append(mv)
    if not same_up_to_flip(sim, g):
        raise InternalInvariantError("replay does not reproduce the input")
    return Certificate(family, base, tuple(moves))


def verify_certificate(cert):
    """Replay cert from its base and return the final graph.

    The base's group is refused as construct refuses it (family_def, a
    UsageError).  The base must be the family's base graph, every move
    kind must be allowed for the family, and every move must pass
    apply_move's local rules.  Failures raise CertificateError carrying
    the 0-based index of the offending move (-1 for the base).

    No prefix is checked for tightness: a base is tight, and by the
    forward theorem a move that passes its local rules keeps a tight
    graph tight, so every prefix is.  One tight_in_family on the final
    graph of a nonempty move list confirms that; if it fails the
    library is wrong, not the certificate, and InternalInvariantError
    is raised."""
    fam = family_def(cert.family, cert.base.spec)
    if not is_base(cert.base, cert.family):
        raise CertificateError(-1, "base graph is not a %s base" % cert.family)
    g = cert.base
    for i, mv in enumerate(cert.moves):
        kind = getattr(mv, "kind", None)
        if kind not in fam.kinds:
            raise CertificateError(
                i, "move kind %r is not allowed for %s" % (kind, cert.family))
        try:
            g = apply_move(g, mv)
        except (UsageError, InvalidMoveError) as exc:
            raise CertificateError(i, str(exc)) from exc
    if cert.moves and not tight_in_family(g, cert.family):
        raise InternalInvariantError(
            "valid %s moves replayed to a graph that is not %s-tight"
            % (cert.family, cert.family))
    return g


_RETRY_CAP = 200


def _pool_color(spec, rng):
    # bounded pool: the whole group when finite, coordinates in [-2, 2]
    # otherwise.  Finite here is the cone's Z/k, so elem(i) is the i-th
    # element and randrange draws rng.choice(spec.elements())'s index.
    if spec.finite:
        return spec.elem(rng.randrange(spec.order))
    return spec.elem(*[rng.randint(-2, 2) for _ in range(spec.ncoords)])


def _random_base(fam, spec, rng):
    # base_n edges 0 -> base_n - 1, redrawn until the cycle image is nonzero
    while True:
        colors = [_pool_color(spec, rng) for _ in range(fam.base_n)]
        if _base_image(colors) != spec.zero():
            return ColoredGraph(spec, range(fam.base_n), [
                (i, 0, fam.base_n - 1, c) for i, c in enumerate(colors)])


def _sample_move(fam, g, rng):
    kind = fam.kinds[rng.randrange(len(fam.kinds))]
    n = max(g.vertices) + 1
    verts = sorted(g.vertices)
    if kind == "h1c":
        return H1c(n, rng.choice(verts), rng.choice(verts),
                   _pool_color(g.spec, rng), _pool_color(g.spec, rng))
    if kind == "h1cp":
        return H1cPrime(n, rng.choice(verts), _pool_color(g.spec, rng),
                        _pool_color(g.spec, rng))
    eid = rng.choice(sorted(g.edge_ids()))
    can = _pool_color(g.spec, rng)
    cbn = can - g.edge(eid).color
    return H2c(n, eid, can, cbn, rng.choice(verts), _pool_color(g.spec, rng))


def random_construct(family, steps, seed, group=None):
    """Build a reproducible random certificate with `steps` moves.

    Each step samples a move kind and colors from a small pool and
    keeps the first draw apply_move accepts; by the forward theorem that
    draw keeps the graph tight, so no family check runs.  Most draws
    pass the local rules, so the retry cap only trips on a real bug.
    The cone group is picked from Z/3, Z/5, Z/7 unless `group` pins one;
    Ross and cylinder groups are fixed by the family.  Every move adds a
    vertex, so more than MAX_VERTICES - base_n steps is a UsageError."""
    return _construct(family, steps, seed, group)[0]


def _construct(family, steps, seed, group=None):
    """random_construct's certificate and the graph its moves built."""
    if steps < 0:
        raise UsageError("steps must be nonnegative")
    fam = family_def(family, group)
    if steps > MAX_VERTICES - fam.base_n:
        raise UsageError("steps must be at most %d: a %s certificate's graph "
                         "holds at most %d vertices"
                         % (MAX_VERTICES - fam.base_n, family, MAX_VERTICES))
    rng = random.Random(seed)
    if group is not None:
        spec = group
    elif fam.group == G.CYCLIC:
        spec = G.GroupSpec.cyclic(rng.choice((3, 5, 7)))
    else:
        spec = G.GroupSpec(fam.group)
    base = _random_base(fam, spec, rng)
    g = base
    moves = []
    while len(moves) < steps:
        for _ in range(_RETRY_CAP):
            mv = _sample_move(fam, g, rng)
            try:
                g = apply_move(g, mv)
            except InvalidMoveError:
                continue
            moves.append(mv)
            break
        else:
            raise GenerationError(
                "no admissible %s move found in %d tries" % (family, _RETRY_CAP))
    return Certificate(family, base, tuple(moves)), g


# --- certificate text format ---------------------------------------------
#
#   family cone
#   begin base
#   group Z/5
#   vertices 1
#   edge 0 0 1
#   end base
#   h1c n=1 a=0 b=0 ca=1 cb=2
#   h2c n=2 split=1 can=1 cbn=0 c=0 ccn=3


def _move_line(mv):
    return " ".join([mv.kind] + ["%s=%s" % kv for kv in zip(mv._fields, mv)])


def serialize_certificate(cert):
    out = ["family %s" % cert.family, "begin base"]
    out.extend(serialize_colored_graph(cert.base).rstrip("\n").split("\n"))
    out.append("end base")
    out.extend(_move_line(mv) for mv in cert.moves)
    return "\n".join(out) + "\n"


_MOVES = {cls.kind: cls for cls in (H1c, H1cPrime, H2c)}

_COLOR_FIELDS = ("ca", "cb", "ccn", "can", "cbn", "loop")


def _parse_move(line, lineno, spec):
    parts = line.split()
    kind = parts[0]
    if kind not in _MOVES:
        raise ParseError(lineno, "unknown move %r" % kind)
    fields = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ParseError(lineno, "expected key=value, got %r" % tok)
        key, val = tok.split("=", 1)
        if key in fields:
            raise ParseError(lineno, "duplicate field %r" % key)
        fields[key] = val
    want = _MOVES[kind]._fields
    if set(fields) != set(want):
        raise ParseError(
            lineno, "%s takes fields %s" % (kind, " ".join(want)))
    args = []
    for key in want:
        if key in _COLOR_FIELDS:
            try:
                args.append(G.parse_elem(spec, fields[key]))
            except (UsageError, ValueError) as exc:
                raise ParseError(lineno, "bad color %r: %s" % (fields[key], exc))
        else:
            try:
                args.append(int(fields[key]))
            except ValueError:
                raise ParseError(lineno, "bad integer %r" % fields[key])
    return _MOVES[kind](*args)


def parse_certificate(text):
    """Parse the certificate text format; inverse of serialize_certificate.

    Blank lines are skipped and # starts a comment on every line, inside
    the base block and out, as in the graph format.  Every move adds a
    vertex: a move line past MAX_VERTICES - base.n is a ParseError."""
    family = None
    base = None
    base_lines = None
    base_start = 0
    moves = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if base_lines is not None and line != "end base":
            base_lines.append(raw)
            continue
        if not line:
            continue
        if line == "end base":
            if base_lines is None:
                raise ParseError(lineno, "end base without begin base")
            try:
                base = parse_colored_graph("\n".join(base_lines))
            except ParseError as pe:
                raise ParseError(base_start + pe.lineno,
                                 "in base graph: %s" % pe.args[0]) from None
            base_lines = None
            continue
        parts = line.split()
        if parts[0] == "family":
            if family is not None:
                raise ParseError(lineno, "second family line")
            if len(parts) != 2:
                raise ParseError(lineno, "expected: family <name>")
            family = parts[1]
            if family not in CONSTRUCTIBLE:
                raise ParseError(lineno, "unknown family %r" % family)
            continue
        if line == "begin base":
            if family is None:
                raise ParseError(lineno, "family line must come first")
            if base is not None:
                raise ParseError(lineno, "second base block")
            base_lines = []
            base_start = lineno
            continue
        if base is None:
            raise ParseError(lineno, "move line before the base block")
        if len(moves) == MAX_VERTICES - base.n:
            raise ParseError(lineno, "more than %d moves: a certificate's "
                             "graph holds at most %d vertices"
                             % (len(moves), MAX_VERTICES))
        moves.append(_parse_move(line, lineno, base.spec))
    if base_lines is not None:
        raise ParseError(lineno, "begin base without end base")
    if family is None:
        raise ParseError(max(lineno, 1), "missing family line")
    if base is None:
        raise ParseError(max(lineno, 1), "missing base block")
    return Certificate(family, base, tuple(moves))
