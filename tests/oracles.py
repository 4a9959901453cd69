"""Reference implementations the tests trust.

Everything here is deliberately naive: literal subset scans, breadth
first search written out longhand, exact linear algebra from sympy, and
exhaustive subgroup closures.  Nothing is shared with the package's own
algorithms, so agreement is evidence rather than tautology.  The scans
are exponential in the edge count; keep inputs small.
"""

import sympy

from gainsparse import GroupElem, InvalidMoveError, UsageError


def kl_sparse_edge_subsets(edges, k, l):
    """m' <= k n' - l over every nonempty edge subset, by literal scan.

    edges is a list of (u, v) pairs, loops as (v, v).
    """
    m = len(edges)
    for mask in range(1, 1 << m):
        sub = [edges[i] for i in range(m) if mask >> i & 1]
        verts = {x for e in sub for x in e}
        if len(sub) > k * len(verts) - l:
            return False
    return True


def kl_sparse_vertex_subsets(edges, vertices, k, l):
    """The same property checked over vertex subsets with all induced
    edges.  Equivalent to the edge-subset scan: any edge subset E' has
    at most as many edges as the graph induced on the vertices E'
    spans, so the worst violation is always an induced one (subsets
    inducing no edges constrain nothing and are skipped)."""
    vs = sorted(vertices)
    n = len(vs)
    for mask in range(1, 1 << n):
        pick = {vs[i] for i in range(n) if mask >> i & 1}
        m2 = sum(1 for u, v in edges if u in pick and v in pick)
        if m2 == 0:
            continue
        if m2 > k * len(pick) - l:
            return False
    return True


# --- color group helpers --------------------------------------------------
#
# Groups are described by plain tuples so no package types are needed:
#   ("Z",)            the integers
#   ("Z^2",)          pairs of integers
#   ("Z/k", (k,))     integers mod k, k prime
#   ("Z/pq", (p, q))  pairs mod p and q, both prime
# Elements are coordinate tuples.


def describe_group(spec):
    """Read a package GroupSpec into the plain-tuple form above."""
    name = str(spec)
    if name == "Z":
        return ("Z",)
    if name == "Z^2":
        return ("Z^2",)
    if "x" in name:
        return ("Z/pq", tuple(spec.moduli))
    return ("Z/k", tuple(spec.moduli))


def subgroup_closure(moduli, values):
    """Every element generated by values inside Z/m1 x ... x Z/mr,
    found by closing under addition, one generator at a time."""
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(c % m for c, m in zip(v, moduli)) for v in values]
    while frontier:
        cur = frontier.pop()
        for gv in gens:
            nxt = tuple((c + d) % m for c, d, m in zip(cur, gv, moduli))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def span_rank(group, values):
    """Rank of the subgroup the values generate: the number of
    independent directions (0, 1 or 2)."""
    kind = group[0]
    values = list(values)
    if kind == "Z":
        return int(any(v[0] != 0 for v in values))
    if kind == "Z^2":
        if not values:
            return 0
        return sympy.Matrix([list(v) for v in values]).rank()
    if kind == "Z/k":
        (k,) = group[1]
        order = len(subgroup_closure((k,), values))
        return {1: 0, k: 1}[order]
    p, q = group[1]
    order = len(subgroup_closure((p, q), values))
    return {1: 0, p: 1, q: 1, p * q: 2}[order]


def subgroup_index(group, values):
    """Index of the generated subgroup in a finite group; this is the
    number of connected components of the corresponding cover."""
    kind = group[0]
    if kind == "Z/k":
        (k,) = group[1]
        return k // len(subgroup_closure(group[1], values))
    if kind == "Z/pq":
        p, q = group[1]
        return p * q // len(subgroup_closure(group[1], values))
    raise ValueError("index is only defined for the finite groups")


# --- colored sparsity by literal enumeration ------------------------------


def _cycle_values(group, edges, comp_verts):
    """Fundamental cycle values of one connected component, via a
    breadth-first spanning tree and vertex potentials."""
    adj = {}
    for idx, (u, v, c) in enumerate(edges):
        adj.setdefault(u, []).append((idx, v))
        adj.setdefault(v, []).append((idx, u))
    root = min(comp_verts)
    dim = 2 if group[0] in ("Z^2", "Z/pq") else 1
    zero = tuple(0 for _ in range(dim))
    pot = {root: zero}
    tree = set()
    queue = [root]
    while queue:
        x = queue.pop(0)
        for idx, y in adj.get(x, ()):
            if y in pot or idx in tree:
                continue
            u, v, c = edges[idx]
            step = c if (x, y) == (u, v) else tuple(-a for a in c)
            pot[y] = tuple(a + b for a, b in zip(pot[x], step))
            tree.add(idx)
            queue.append(y)
    vals = []
    for idx, (u, v, c) in enumerate(edges):
        if idx in tree:
            continue
        vals.append(tuple(a + pu - pv for a, pu, pv in zip(c, pot[u], pot[v])))
    return vals


def _components(edges, verts):
    comp_of = {v: None for v in verts}
    comps = []
    for start in sorted(verts):
        if comp_of[start] is not None:
            continue
        group_id = len(comps)
        stack = [start]
        comp_of[start] = group_id
        members = {start}
        while stack:
            x = stack.pop()
            for (u, v, c) in edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and comp_of[b] is None:
                        comp_of[b] = group_id
                        members.add(b)
                        stack.append(b)
        comps.append(members)
    return comps


def greedy_forest(edges):
    """Ids of the greedy spanning forest: edges is a list of (id, u, v)
    in ascending id order, and an edge is kept exactly when no path of
    kept edges already joins its ends (a loop never is), found by a
    fresh search over the kept edges each time."""
    kept = []
    for eid, u, v in edges:
        reach = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            for _, a, b in kept:
                for y, z in ((a, b), (b, a)):
                    if y == x and z not in reach:
                        reach.add(z)
                        stack.append(z)
        if v not in reach:
            kept.append((eid, u, v))
    return {eid for eid, _, _ in kept}


def family_bound(family, n, r, c0, c1, c2):
    if family == "ross":
        return 2 * n - 3 * c0 - 2 * (c1 + c2)
    if family == "cone":
        return 2 * n - 3 * c0 - c1 - c2
    if family == "cylinder":
        return 2 * n + r - 3 * c0 - 2 * (c1 + c2)
    if family == "colored":
        return 2 * n + max(2 * r - 1, 0) - 3 * c0 - 2 * (c1 + c2)
    raise ValueError(family)


def colored_subset_counts(group, sub):
    """(n', r, c0, c1, c2) of one edge subset, all recomputed locally."""
    verts = {x for (u, v, c) in sub for x in (u, v)}
    comps = _components(sub, verts)
    ranks = []
    all_vals = []
    for members in comps:
        inside = [e for e in sub if e[0] in members]
        vals = _cycle_values(group, inside, members)
        all_vals.extend(vals)
        ranks.append(span_rank(group, vals))
    c0 = ranks.count(0)
    c1 = ranks.count(1)
    c2 = ranks.count(2)
    return len(verts), span_rank(group, all_vals), c0, c1, c2


def colored_verdict(g, family):
    """(sparse, tight) for a package ColoredGraph, by checking every
    nonempty edge subset.  Only raw data is read from g; every count is
    recomputed here from scratch."""
    group = describe_group(g.spec)
    raw = [(e.tail, e.head, tuple(e.color.coords)) for e in g.edges]
    m = len(raw)
    sparse = True
    for mask in range(1, 1 << m):
        sub = [raw[i] for i in range(m) if mask >> i & 1]
        n, r, c0, c1, c2 = colored_subset_counts(group, sub)
        if len(sub) > family_bound(family, n, r, c0, c1, c2):
            sparse = False
            break
    if not sparse:
        return False, False
    if m == 0:
        n, r, c0, c1, c2 = 0, 0, 0, 0, 0
    else:
        n, r, c0, c1, c2 = colored_subset_counts(group, raw)
    isolated = len(set(g.vertices)
                   - {x for (u, v, c) in raw for x in (u, v)})
    n += isolated
    c0 += isolated
    tight = (m == family_bound(family, n, r, c0, c1, c2))
    return True, tight


# --- the lift route's old witness shrink ----------------------------------


def kl_independent(edges, k, l):
    """Is the multigraph on these (u, v) edges (k,l)-sparse?  A plain
    pebble game, written out longhand: each edge asks for l + 1 pebbles
    on its ends, fetched by depth-first search along the arcs, and an
    edge that cannot get them closes a set with more than k n' - l
    edges."""
    pebbles = {}
    out = {}

    def fetch(x, ends):
        # move one pebble onto x from a vertex reachable from it, not an end
        seen = {x}
        back = {}
        stack = [x]
        while stack:
            y = stack.pop()
            for z in out[y]:
                if z in seen:
                    continue
                seen.add(z)
                back[z] = y
                if pebbles[z] and z not in ends:
                    pebbles[z] -= 1
                    pebbles[x] += 1
                    while z != x:
                        y = back[z]
                        out[y].remove(z)
                        out[z].append(y)
                        z = y
                    return True
                stack.append(z)
        return False

    for u, v in edges:
        for x in (u, v):
            pebbles.setdefault(x, k)
            out.setdefault(x, [])
        ends = {u, v}
        while sum(pebbles[x] for x in ends) < l + 1:
            if not any(fetch(x, ends) for x in ends):
                return False
        tail = u if pebbles[u] else v
        pebbles[tail] -= 1
        out[tail].append(v if tail == u else u)
    return True


def lift_fiber_shrink(p, edges, candidates):
    """The witness the lift route used to report: candidates (base edge
    ids) shrunk to a minimal set whose Z/p cover is not (2,3)-sparse.
    One ascending pass drops each candidate while the cover of the rest
    stays dependent.

    edges maps a base edge id to (tail, head, color); its fiber joins
    (tail, x) to (head, color + x) for every x in Z/p."""
    def fiber(eid):
        u, v, c = edges[eid]
        return [((u, x), (v, (c + x) % p)) for x in range(p)]

    keep = sorted(candidates)
    for eid in sorted(candidates):
        rest = [e for e in keep if e != eid]
        if not kl_independent([f for e in rest for f in fiber(e)], 2, 3):
            keep = rest
    return frozenset(keep)


def arc_reach(out, starts):
    """Every vertex reachable from starts along the arcs x -> y for y in
    out[x], found by a depth-first walk written out longhand."""
    seen = set(starts)
    stack = list(starts)
    while stack:
        x = stack.pop()
        for y in out[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def thinnable(edges, circuit, rep):
    """Does the union X of the edge fibers through a lift circuit hold a
    (2,3)-circuit that meets rep's fiber at most once?  edges maps each
    lift edge id to (x, y, base edge id); a fiber is the lift edges over
    one base edge, and X is also the union of the circuit's translates.

    One avoiding the fiber exists exactly when the rest R of X is
    dependent.  Otherwise one through a single fiber edge o lies in
    R + o, so it exists exactly when some o is spanned by R, that is,
    when X has the rank of R; the action moves o to every other fiber
    edge and fixes R, so then every o is.  Removing a whole fiber can
    cost two ranks at once, and then no such circuit exists."""
    bases = {edges[f][2] for f in circuit}
    closure = [edges[f] for f in sorted(edges) if edges[f][2] in bases]
    rest = [(x, y) for x, y, b in closure if b != edges[rep][2]]
    if not kl_independent(rest, 2, 3):
        return True
    return not any(kl_independent(rest + [(x, y)], 2, 3)
                   for x, y, b in closure if b == edges[rep][2])


def lift_arcs(g):
    """The cover of a colored graph over a finite group as sorted
    (lift edge id, x, y) triples, written out from the id rule.  Number
    the group elements in spec.elements() order, N of them.  Vertex
    (i, gamma) is a*N + idx(gamma) for i the a-th entry of g.vertices;
    the edge over the j-th base edge by id and gamma is j*N + idx(gamma)
    and joins (tail, gamma) to (head, color + gamma)."""
    elems = list(g.spec.elements())
    order = list(g.vertices)
    N = len(elems)

    def vertex(i, gamma):
        return order.index(i) * N + elems.index(gamma)

    arcs = []
    for j, e in enumerate(sorted(g.edges, key=lambda e: e.id)):
        for gamma in elems:
            arcs.append((j * N + elems.index(gamma), vertex(e.tail, gamma),
                         vertex(e.head, e.color + gamma)))
    return sorted(arcs)


# --- Henneberg moves -------------------------------------------------------
#
# The package's apply_move states every local rule once for all three
# kinds.  This is the same function written kind by kind, each with its
# own attach check, colour coercion and parallel test.  Only the rules
# are longhand: graph edits and group arithmetic are the package's.


def _coerce(spec, value):
    """Accept a GroupElem of the right group, or raw coordinates."""
    if isinstance(value, GroupElem):
        if value.spec != spec:
            raise UsageError("color %s does not live in %s" % (value, spec))
        return value
    if isinstance(value, tuple):
        return spec.elem(*value)
    return spec.elem(value)


def apply_move_by_kind(g, m):
    """apply_move with one branch per move kind: the same graph, or the
    same exception class and message, for every move."""
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
        return g.with_vertex(m.n).with_edges([(m.a, m.n, ca), (m.b, m.n, cb)])
    if m.kind == "h1cp":
        if not g.has_vertex(m.a):
            raise UsageError("no vertex %d to attach to" % m.a)
        ca, cl = _coerce(g.spec, m.ca), _coerce(g.spec, m.loop)
        if cl == g.spec.zero():
            raise InvalidMoveError("lollipop loop color must be nonzero")
        return g.with_vertex(m.n).with_edges([(m.a, m.n, ca), (m.n, m.n, cl)])
    if m.kind == "h2c":
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
        for i in range(3):
            for j in range(i + 1, 3):
                (u1, _, c1), (u2, _, c2) = new[i], new[j]
                if u1 == u2 and c1 == c2:
                    raise InvalidMoveError(
                        "parallel edges %d -> %d must get distinct colors"
                        % (u1, m.n))
        return g.without_edge(m.split).with_vertex(m.n).with_edges(new)
    raise UsageError("unknown move kind %r" % (getattr(m, "kind", None),))
