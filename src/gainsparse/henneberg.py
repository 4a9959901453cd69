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

A Certificate is a base graph plus a move list.  Verification replays
the list and re-checks the family count after every prefix, so nothing
about a certificate is trusted.  Deconstruction runs the moves
backwards: repeatedly delete a vertex of degree two or three whose
removal keeps the graph tight, then replay forward to emit moves whose
edge ids match the replay, not the stripping order.

check() is the library's verdict entry point.  It and tight_in_family
share one lift route (_lift_failure): a Z/p graph with 2n-1 edges is
cone-Laman exactly when its lift is Laman-sparse, and a Z graph is
cylinder-tight exactly when its reduction mod a safe prime passes that
test and its underlying graph is (2,2)-spanning.
"""

import random
from collections import namedtuple
from itertools import combinations

from .errors import (UsageError, PreconditionError, InvalidMoveError,
                     NoCandidatesError, CertificateError, GenerationError,
                     ParseError, InternalInvariantError)
from . import groups as G
from .graphs import (ColoredGraph, Edge, normalized_triple, same_up_to_flip,
                     parse_colored_graph, serialize_colored_graph)
from .lifts import (cone_laman_via_lift, path_color_sum, reduce_colors,
                    odd_prime_cyclic, lift_witness, disjoint_circuit_witness)
from .sparsity import (ROSS, CONE, CYLINDER, DEFAULT_BUDGET, Verdict,
                       check_colored_sparsity, is_kl_spanning, underlying,
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


class Family(namedtuple("Family", ["name", "kinds", "variant"])):
    """A constructible family: its move kinds, in the preference order
    deconstruction uses, and the required color group variant."""

    __slots__ = ()


CONSTRUCTIBLE = {
    ROSS: Family(ROSS, ("h1c", "h2c"), G.FREE2),
    CONE: Family(CONE, ("h1c", "h1cp", "h2c"), G.CYCLIC),
    CYLINDER: Family(CYLINDER, ("h1c", "h2c"), G.FREE1),
}


def family_def(name):
    try:
        return CONSTRUCTIBLE[name]
    except KeyError:
        raise UsageError("no inductive construction for family %r" % (name,))


Certificate = namedtuple("Certificate", ["family", "base", "moves"])


def _coerce(spec, value):
    """Accept a GroupElem of the right group, or raw coordinates."""
    if isinstance(value, G.GroupElem):
        if value.spec != spec:
            raise UsageError("color %s does not live in %s" % (value, spec))
        return value
    if isinstance(value, tuple):
        return spec.elem(*value)
    return spec.elem(value)


def apply_move(g, m):
    """Apply a forward move, returning the new graph.

    New edges are appended in the order an, bn (then cn), with ids
    continuing from the current maximum; h2c removes its split edge
    first, so a replay starting from the same base is reproducible
    id-for-id.

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
        for v in (m.a, m.b):
            if not g.has_vertex(v):
                raise UsageError("no vertex %d to attach to" % v)
        ca, cb = _coerce(g.spec, m.ca), _coerce(g.spec, m.cb)
        if m.a == m.b and ca == cb:
            raise InvalidMoveError(
                "parallel edges %d -> %d must get distinct colors" % (m.a, m.n))
        out = g.with_vertex(m.n).with_edges([(m.a, m.n, ca), (m.b, m.n, cb)])
    elif m.kind == "h1cp":
        if not g.has_vertex(m.a):
            raise UsageError("no vertex %d to attach to" % m.a)
        ca, cl = _coerce(g.spec, m.ca), _coerce(g.spec, m.loop)
        if cl == g.spec.zero():
            raise InvalidMoveError("lollipop loop color must be nonzero")
        out = g.with_vertex(m.n).with_edges([(m.a, m.n, ca), (m.n, m.n, cl)])
    elif m.kind == "h2c":
        split = g.edge(m.split)
        if not g.has_vertex(m.c):
            raise UsageError("no vertex %d to attach to" % m.c)
        can = _coerce(g.spec, m.can)
        cbn = _coerce(g.spec, m.cbn)
        ccn = _coerce(g.spec, m.ccn)
        if can - cbn != split.color:
            raise InvalidMoveError(
                "split identity fails: %s - %s is not the color %s of edge %d"
                % (can, cbn, split.color, m.split))
        new = [(split.tail, m.n, can), (split.head, m.n, cbn), (m.c, m.n, ccn)]
        for (u1, _, c1), (u2, _, c2) in combinations(new, 2):
            if u1 == u2 and c1 == c2:
                raise InvalidMoveError(
                    "parallel edges %d -> %d must get distinct colors" % (u1, m.n))
        out = g.without_edge(m.split).with_vertex(m.n).with_edges(new)
    else:
        raise UsageError("unknown move kind %r" % (getattr(m, "kind", None),))
    # every move adds one vertex and two edges net, so tight stays tight
    # arithmetically and only the subgraph counts need re-checking
    assert out.n == g.n + 1 and out.m == g.m + 2
    return out


def _lift_failure(g, family, spanning_first=False):
    """The lift route for a cone graph over Z/p (p an odd prime) or a
    cylinder graph over Z with m = 2n - 1.  Returns (failed, lifted):
    failed is None when g is tight, "lift" when the lift of `lifted` (g,
    or for cylinder its reduction mod a safe prime) is not Laman-sparse,
    or "spanning" when the underlying graph is not (2,2)-spanning.  That
    cheaper test runs first with spanning_first, else after the lift."""
    if family == CONE:
        return (None if cone_laman_via_lift(g) else "lift"), g
    if spanning_first and not is_kl_spanning(underlying(g), (2, 2)):
        return "spanning", None
    reduced, _ = reduce_colors(g)
    if not cone_laman_via_lift(reduced):
        return "lift", reduced
    if not spanning_first and not is_kl_spanning(underlying(g), (2, 2)):
        return "spanning", reduced
    return None, reduced


def check(g, family, method="brute", budget=DEFAULT_BUDGET):
    """Verdict for g in family.  method="brute" enumerates subgraphs,
    refusing graphs above `budget` edges; method="lift" takes the
    polynomial lift route, for cone graphs over Z/p (p an odd prime) and
    cylinder graphs over Z with m = 2n - 1, where sparse means tight.
    The witness of a violation comes from the lift when it fails.

    >>> z5 = G.GroupSpec.cyclic(5)
    >>> g = ColoredGraph(z5, [0], [(0, 0, 0, 2)])
    >>> check(g, "cone", method="lift")
    Verdict(sparse=True, tight=True, witness=None)
    """
    if method == "brute":
        return check_colored_sparsity(g, family, budget=budget)
    if method != "lift":
        raise UsageError("method is brute or lift, not %r" % (method,))
    if family not in (CONE, CYLINDER):
        raise UsageError(
            "method=lift supports families cone and cylinder, not %s" % family)
    if family == CONE and not odd_prime_cyclic(g.spec):
        raise UsageError(
            "method=lift needs Z/p colors with p an odd prime, got %s" % g.spec)
    if family == CYLINDER and g.spec.variant != G.FREE1:
        raise UsageError("family cylinder expects Z colors, got %s" % g.spec)
    if family == CYLINDER and g.m != 2 * g.n - 1:
        raise PreconditionError(
            "method=lift decides tightness and needs m = 2n - 1; "
            "got n=%d m=%d (use --method brute)" % (g.n, g.m))
    failed, lifted = _lift_failure(g, family)
    if failed is None:
        return Verdict(True, True, None)
    if failed == "spanning":
        return Verdict(False, False, disjoint_circuit_witness(g))
    witness = lift_witness(lifted)
    if family == CYLINDER and not _subset_violates(g, CYLINDER, witness):
        raise InternalInvariantError(
            "reduced witness does not break the cylinder count")
    return Verdict(False, False, witness)


def tight_in_family(g, family):
    """Decide tightness by the fastest route that is actually a theorem:
    the lift route shared with check (_lift_failure) for odd-prime cone
    graphs and for cylinder graphs, which run its cheap (2,2)-spanning
    test first, and the brute-force count otherwise (Ross stays brute
    force on purpose; the budget keeps it at desk scale)."""
    if ((family == CONE and odd_prime_cyclic(g.spec))
            or (family == CYLINDER and g.spec.variant == G.FREE1)):
        return (g.m == 2 * g.n - 1
                and _lift_failure(g, family, spanning_first=True)[0] is None)
    return check_colored_sparsity(g, family).tight


def is_base(g, family):
    """Is g the family's base graph?  Cone and cylinder build up from a
    single vertex carrying one loop of nonzero color; Ross starts from
    two vertices joined by a pair of edges whose cycle image (the
    difference of the colors, both read toward the higher vertex) is
    nonzero."""
    fam = family_def(family)
    if g.spec.variant != fam.variant:
        return False
    if family == ROSS:
        if g.n != 2 or g.m != 2:
            return False
        u, v = sorted(g.vertices)
        d = []
        for e in g.edges:
            if {e.tail, e.head} != {u, v}:
                return False
            d.append(e.color if e.tail == u else -e.color)
        return d[0] - d[1] != g.spec.zero()
    if g.n != 1 or g.m != 1:
        return False
    e = g.edges[0]
    return e.tail == e.head and e.color != g.spec.zero()


def _into(e, v):
    # color of e read in the orientation pointing at v; loops excluded
    return e.color if e.head == v else -e.color


def _other(e, v):
    return e.head if e.tail == v else e.tail


def _degree_pattern(g, v):
    """Which reverse move fits v: "h1c" for exactly two non-loop edges,
    "h1cp" for one loop plus one other edge, "h2c" for three non-loop
    edges, else None.  A loop counts two toward the degree, so these are
    the degree-2 and degree-3 shapes."""
    loops = plain = 0
    for eid in g.incident(v):
        e = g.edge(eid)
        if e.tail == e.head:
            loops += 1
        else:
            plain += 1
    if loops == 0 and plain == 2:
        return "h1c"
    if loops == 1 and plain == 1:
        return "h1cp"
    if loops == 0 and plain == 3:
        return "h2c"
    return None


def reverse_candidates(g, v, family):
    """Single-step predecessors of g obtained by undoing a move at v,
    each paired with the forward move that rebuilds g from it.

    Degree-2 vertices and lollipop vertices reverse one way: delete v.
    A degree-3 vertex with edges to slots a, b, c (repeats allowed)
    yields up to three predecessors, one per pair, rejoining the pair
    with the oriented color sum of the two-edge path through v.  A
    rejoin that would duplicate an existing edge of the same color (up
    to flip and negate) is dropped, since the doubled edge could never
    sit inside a sparse graph.

    The h2c move's split id refers to the rejoined edge in the
    predecessor.  No family count is checked here; callers filter.
    """
    fam = family_def(family)
    if not g.has_vertex(v):
        raise UsageError("no vertex %d" % v)
    pat = _degree_pattern(g, v)
    if pat is None or pat not in fam.kinds:
        raise NoCandidatesError(
            "vertex %d has no reversible degree pattern for %s" % (v, family))
    inc = [g.edge(i) for i in g.incident(v)]
    if pat == "h1c":
        e1, e2 = inc
        mv = H1c(v, _other(e1, v), _other(e2, v), _into(e1, v), _into(e2, v))
        return [(mv, g.without_vertex(v))]
    if pat == "h1cp":
        loop = next(e for e in inc if e.tail == e.head)
        plain = next(e for e in inc if e.tail != e.head)
        mv = H1cPrime(v, _other(plain, v), _into(plain, v), loop.color)
        return [(mv, g.without_vertex(v))]
    stripped = g.without_vertex(v)
    out = []
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        ei, ej, ek = inc[i], inc[j], inc[k]
        x, y = _other(ei, v), _other(ej, v)
        eta = path_color_sum(g, ei.id, v, ej.id)
        key = normalized_triple(Edge(-1, x, y, eta))
        if any(normalized_triple(f) == key for f in stripped.edges
               if {f.tail, f.head} == {x, y}):
            continue
        cand = stripped.with_edges([(x, y, eta)])
        mv = H2c(v, cand.edges[-1].id, _into(ei, v), _into(ej, v),
                 _other(ek, v), _into(ek, v))
        out.append((mv, cand))
    return out


def _pick_reverse(work, family, fam):
    # move kinds in preference order, vertices in id order inside each
    for kind in fam.kinds:
        for v in sorted(work.vertices):
            if _degree_pattern(work, v) != kind:
                continue
            for mv, cand in reverse_candidates(work, v, family):
                if tight_in_family(cand, family):
                    return mv, cand
    return None


def _rebind_split(mv, prev, sim):
    """Point mv's split reference at the right edge of sim.

    prev and sim agree up to reorienting edges with negated colors but
    not on edge ids, so the split edge is re-identified by endpoints and
    normalized color, a key that is unique among the parallels of any
    sparse graph.  When sim stores the edge in the opposite orientation
    the an/bn roles swap, which keeps the split identity true.
    """
    if mv.kind != "h2c":
        return mv
    target = prev.edge(mv.split)
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
    vertices by ascending id, then candidate pairs by edge id.  Every
    candidate is re-verified tight before being accepted, so the run is
    deterministic and self-checking.  The forward replay then rebuilds
    the graph from the base to fix up h2c split ids, and the result is
    checked against g edge-for-edge (orientation free) before return.
    """
    fam = family_def(family)
    if g.spec.variant != fam.variant:
        raise UsageError(
            "family %s expects %s colors, got %s" % (family, fam.variant, g.spec))
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
        trail.append(step)
        work = step[1]
    # the stripped base keeps g's vertex ids but its edge ids are
    # renumbered 0..m-1, matching what parsing the serialized
    # certificate would produce; replay ids then agree with the ids
    # recorded in the moves no matter where the certificate went
    base = ColoredGraph(work.spec, tuple(sorted(work.vertices)),
                        [(i, e.tail, e.head, e.color)
                         for i, e in enumerate(sorted(work.edges, key=lambda e: e.id))])
    moves = []
    sim = base
    for mv, prev in reversed(trail):
        mv = _rebind_split(mv, prev, sim)
        sim = apply_move(sim, mv)
        moves.append(mv)
    if not same_up_to_flip(sim, g):
        raise InternalInvariantError("replay does not reproduce the input")
    return Certificate(family, base, tuple(moves))


def verify_certificate(cert):
    """Replay cert from its base and return the final graph.

    The base must be the family's base graph, every move kind must be
    allowed for the family, every move must validate, and every prefix
    must be tight.  Failures raise CertificateError carrying the
    0-based index of the offending move (-1 for the base)."""
    fam = family_def(cert.family)
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
        if not tight_in_family(g, cert.family):
            raise CertificateError(
                i, "graph is not %s-tight after this move" % cert.family)
    return g


_RETRY_CAP = 200


def _pool_color(spec, rng):
    # bounded pool: the whole group when finite, coordinates in [-2, 2]
    # otherwise
    if spec.finite:
        return rng.choice(spec.elements())
    return spec.elem(*[rng.randint(-2, 2) for _ in range(spec.ncoords)])


def _random_base(fam, spec, rng):
    if fam.name == ROSS:
        while True:
            c1, c2 = _pool_color(spec, rng), _pool_color(spec, rng)
            if c1 != c2:
                break
        return ColoredGraph(spec, [0, 1], [(0, 0, 1, c1), (1, 0, 1, c2)])
    while True:
        c = _pool_color(spec, rng)
        if c != spec.zero():
            break
    return ColoredGraph(spec, [0], [(0, 0, 0, c)])


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
    keeps the first draw whose result passes the family check; some
    draw always works, so the retry cap only trips on a real bug.  The
    cone group is picked from Z/3, Z/5, Z/7 unless `group` pins one;
    Ross and cylinder groups are fixed by the family.
    """
    if steps < 0:
        raise UsageError("steps must be nonnegative")
    fam = family_def(family)
    rng = random.Random(seed)
    if group is not None:
        if group.variant != fam.variant:
            raise UsageError(
                "family %s expects %s colors, got %s" % (family, fam.variant, group))
        spec = group
    elif fam.variant == G.CYCLIC:
        spec = G.GroupSpec.cyclic(rng.choice((3, 5, 7)))
    elif fam.variant == G.FREE1:
        spec = G.GroupSpec.free()
    else:
        spec = G.GroupSpec.free2()
    base = _random_base(fam, spec, rng)
    g = base
    moves = []
    while len(moves) < steps:
        for _ in range(_RETRY_CAP):
            mv = _sample_move(fam, g, rng)
            try:
                h = apply_move(g, mv)
            except InvalidMoveError:
                continue
            if tight_in_family(h, family):
                g = h
                moves.append(mv)
                break
        else:
            raise GenerationError(
                "no admissible %s move found in %d tries" % (family, _RETRY_CAP))
    return Certificate(family, base, tuple(moves))


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
    if mv.kind == "h1c":
        return "h1c n=%d a=%d b=%d ca=%s cb=%s" % (mv.n, mv.a, mv.b, mv.ca, mv.cb)
    if mv.kind == "h1cp":
        return "h1cp n=%d a=%d ca=%s loop=%s" % (mv.n, mv.a, mv.ca, mv.loop)
    return "h2c n=%d split=%d can=%s cbn=%s c=%d ccn=%s" % (
        mv.n, mv.split, mv.can, mv.cbn, mv.c, mv.ccn)


def serialize_certificate(cert):
    out = ["family %s" % cert.family, "begin base"]
    out.extend(serialize_colored_graph(cert.base).rstrip("\n").split("\n"))
    out.append("end base")
    out.extend(_move_line(mv) for mv in cert.moves)
    return "\n".join(out) + "\n"


_MOVE_FIELDS = {
    "h1c": ("n", "a", "b", "ca", "cb"),
    "h1cp": ("n", "a", "ca", "loop"),
    "h2c": ("n", "split", "can", "cbn", "c", "ccn"),
}

_COLOR_FIELDS = ("ca", "cb", "ccn", "can", "cbn", "loop")


def _parse_move(line, lineno, spec):
    parts = line.split()
    kind = parts[0]
    if kind not in _MOVE_FIELDS:
        raise ParseError(lineno, "unknown move %r" % kind)
    fields = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ParseError(lineno, "expected key=value, got %r" % tok)
        key, val = tok.split("=", 1)
        if key in fields:
            raise ParseError(lineno, "duplicate field %r" % key)
        fields[key] = val
    want = _MOVE_FIELDS[kind]
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
    cls = {"h1c": H1c, "h1cp": H1cPrime, "h2c": H2c}[kind]
    return cls(*args)


def parse_certificate(text):
    """Parse the certificate text format; inverse of serialize_certificate.

    Blank lines and # comments are tolerated outside the base block and
    inside it (the graph parser skips them too)."""
    family = None
    base = None
    base_lines = None
    base_start = 0
    moves = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if base_lines is not None and line != "end base":
            base_lines.append(raw)
            continue
        if not line or line.startswith("#"):
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
        if line.startswith("family"):
            if family is not None:
                raise ParseError(lineno, "second family line")
            parts = line.split()
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
        moves.append(_parse_move(line, lineno, base.spec))
    if base_lines is not None:
        raise ParseError(lineno, "begin base without end base")
    if family is None:
        raise ParseError(max(lineno, 1), "missing family line")
    if base is None:
        raise ParseError(max(lineno, 1), "missing base block")
    return Certificate(family, base, tuple(moves))
