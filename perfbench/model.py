"""The benchmark's own model of colored graphs and Henneberg moves.

Nothing here imports gainsparse.  The generators build inputs with it and
the checker replays certificates with it, so a change to the library
cannot change what the benchmark feeds in or what it accepts.

Colors are tuples of ints: (c,) for Z and Z/p, (c1, c2) for Z^2.  A graph
is a list of vertex ids plus a list of edges [id, tail, head, color].
Moves mirror the certificate format: new edge ids continue from the
current maximum, and h2c removes its split edge before adding.
"""

import random

CONE = "cone"
CYLINDER = "cylinder"
ROSS = "ross"
COLORED = "colored"

KINDS = {ROSS: ("h1c", "h2c"), CONE: ("h1c", "h1cp", "h2c"),
         CYLINDER: ("h1c", "h2c")}


class Group:
    """Z/p (mod=p), Z (mod=None, ncoords=1) or Z^2 (mod=None, ncoords=2)."""

    def __init__(self, mod=None, ncoords=1):
        self.mod = mod
        self.ncoords = ncoords

    @classmethod
    def parse(cls, text):
        if text == "Z":
            return cls()
        if text == "Z^2":
            return cls(ncoords=2)
        if text.startswith("Z/") and text[2:].isdigit():
            return cls(mod=int(text[2:]))
        raise ValueError("unsupported group %r" % text)

    def __str__(self):
        if self.mod is not None:
            return "Z/%d" % self.mod
        return "Z" if self.ncoords == 1 else "Z^2"

    def canon(self, c):
        if self.mod is not None:
            return (c[0] % self.mod,)
        return tuple(c)

    def add(self, a, b):
        return self.canon(tuple(x + y for x, y in zip(a, b)))

    def sub(self, a, b):
        return self.canon(tuple(x - y for x, y in zip(a, b)))

    def neg(self, a):
        return self.canon(tuple(-x for x in a))

    def zero(self):
        return (0,) * self.ncoords

    def draw(self, rng):
        """A pool color: the whole group when finite, coordinates in
        [-2, 2] otherwise."""
        if self.mod is not None:
            return (rng.randrange(self.mod),)
        return tuple(rng.randint(-2, 2) for _ in range(self.ncoords))

    def draw_nonzero(self, rng):
        while True:
            c = self.draw(rng)
            if c != self.zero():
                return c

    def fmt(self, c):
        return ",".join(str(x) for x in c)

    def parse_color(self, text):
        return self.canon(tuple(int(x) for x in text.split(",")))


def family_group(family, rng):
    if family == CONE:
        return Group(mod=rng.choice((3, 5, 7)))
    if family == CYLINDER:
        return Group()
    return Group(ncoords=2)


# --- text formats --------------------------------------------------------


def graph_text(group, vertices, edges):
    """The colored-graph file format.  Edges are written in id order, so
    the parser numbers them 0..m-1 in that order."""
    vs = sorted(vertices)
    lines = ["group %s" % group]
    if vs == list(range(len(vs))):
        lines.append("vertices %d" % len(vs))
    else:
        lines.append("vertexids %s" % " ".join(str(v) for v in vs))
    for _, u, v, c in sorted(edges):
        lines.append("edge %d %d %s" % (u, v, group.fmt(c)))
    return "\n".join(lines) + "\n"


def parse_graph(text):
    """(group, vertices, edges) from the colored-graph format; edge ids are
    0..m-1 in file order.  Raises ValueError on anything malformed."""
    group, vertices, edges = None, None, []
    for raw in text.splitlines():
        f = raw.split("#", 1)[0].split()
        if not f:
            continue
        if f[0] == "group":
            group = Group.parse(" ".join(f[1:]))
        elif f[0] == "vertices":
            vertices = list(range(int(f[1])))
        elif f[0] == "vertexids":
            vertices = [int(x) for x in f[1:]]
        elif f[0] == "edge" and len(f) == 4:
            edges.append([len(edges), int(f[1]), int(f[2]),
                          group.parse_color(f[3])])
        else:
            raise ValueError("bad graph line %r" % raw)
    if group is None or vertices is None:
        raise ValueError("graph lacks a group or vertices line")
    vset = set(vertices)
    for _, u, v, _ in edges:
        if u not in vset or v not in vset:
            raise ValueError("edge endpoint %d/%d not declared" % (u, v))
    return group, vertices, edges


def move_line(group, mv):
    kind = mv[0]
    f = group.fmt
    if kind == "h1c":
        _, n, a, b, ca, cb = mv
        return "h1c n=%d a=%d b=%d ca=%s cb=%s" % (n, a, b, f(ca), f(cb))
    if kind == "h1cp":
        _, n, a, ca, loop = mv
        return "h1cp n=%d a=%d ca=%s loop=%s" % (n, a, f(ca), f(loop))
    _, n, split, can, cbn, c, ccn = mv
    return "h2c n=%d split=%d can=%s cbn=%s c=%d ccn=%s" % (
        n, split, f(can), f(cbn), c, f(ccn))


_FIELDS = {"h1c": ("n", "a", "b", "ca", "cb"),
           "h1cp": ("n", "a", "ca", "loop"),
           "h2c": ("n", "split", "can", "cbn", "c", "ccn")}
_COLOR_FIELDS = {"ca", "cb", "can", "cbn", "ccn", "loop"}


def cert_text(family, group, base_vertices, base_edges, moves):
    out = ["family %s" % family, "begin base"]
    out.extend(graph_text(group, base_vertices, base_edges).rstrip("\n")
               .split("\n"))
    out.append("end base")
    out.extend(move_line(group, mv) for mv in moves)
    return "\n".join(out) + "\n"


def parse_cert(text):
    """(family, group, base vertices, base edges, moves); ValueError on a
    malformed certificate."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 3 or not lines[0].startswith("family "):
        raise ValueError("certificate must open with a family line")
    family = lines[0].split()[1]
    if lines[1] != "begin base" or "end base" not in lines:
        raise ValueError("certificate lacks a base block")
    end = lines.index("end base")
    group, vertices, edges = parse_graph("\n".join(lines[2:end]))
    moves = []
    for ln in lines[end + 1:]:
        parts = ln.split()
        kind = parts[0]
        if kind not in _FIELDS:
            raise ValueError("unknown move %r" % kind)
        fields = dict(p.split("=", 1) for p in parts[1:])
        if set(fields) != set(_FIELDS[kind]):
            raise ValueError("bad fields in %r" % ln)
        args = [group.parse_color(fields[k]) if k in _COLOR_FIELDS
                else int(fields[k]) for k in _FIELDS[kind]]
        moves.append((kind,) + tuple(args))
    return family, group, vertices, edges, moves


# --- move rules ----------------------------------------------------------


class RuleError(Exception):
    """A move breaks a local rule, or a base has the wrong shape."""


def is_base(family, group, vertices, edges):
    zero = group.zero()
    if family == ROSS:
        if len(vertices) != 2 or len(edges) != 2:
            return False
        u, v = sorted(vertices)
        d = []
        for _, t, h, c in edges:
            if {t, h} != {u, v}:
                return False
            d.append(c if t == u else group.neg(c))
        return group.sub(d[0], d[1]) != zero
    if len(vertices) != 1 or len(edges) != 1:
        return False
    _, t, h, c = edges[0]
    return t == h and c != zero


class Replay:
    """A graph under construction by moves.  apply() enforces only the
    local rules: fresh vertex, existing endpoints, distinct colors on
    parallel new edges, a nonzero lollipop loop, and can - cbn equal to
    the split edge's color."""

    def __init__(self, group, vertices, edges):
        self.group = group
        self.vertices = set(vertices)
        self.edges = {e[0]: (e[1], e[2], e[3]) for e in edges}

    def _add(self, new):
        nid = max(self.edges, default=-1) + 1
        for i, (u, v, c) in enumerate(new):
            self.edges[nid + i] = (u, v, c)

    def apply(self, mv):
        kind, n = mv[0], mv[1]
        if n in self.vertices:
            raise RuleError("vertex %d already present" % n)
        if kind == "h1c":
            _, _, a, b, ca, cb = mv
            if a not in self.vertices or b not in self.vertices:
                raise RuleError("h1c attaches to a missing vertex")
            if a == b and ca == cb:
                raise RuleError("parallel edges with equal colors")
            new = [(a, n, ca), (b, n, cb)]
        elif kind == "h1cp":
            _, _, a, ca, loop = mv
            if a not in self.vertices:
                raise RuleError("h1cp attaches to a missing vertex")
            if loop == self.group.zero():
                raise RuleError("lollipop loop color is zero")
            new = [(a, n, ca), (n, n, loop)]
        elif kind == "h2c":
            _, _, split, can, cbn, c, ccn = mv
            if split not in self.edges:
                raise RuleError("no split edge %d" % split)
            if c not in self.vertices:
                raise RuleError("h2c attaches to a missing vertex")
            t, h, s = self.edges[split]
            if self.group.sub(can, cbn) != s:
                raise RuleError("split identity fails")
            new = [(t, n, can), (h, n, cbn), (c, n, ccn)]
            for i in range(3):
                for j in range(i + 1, 3):
                    if new[i][0] == new[j][0] and new[i][2] == new[j][2]:
                        raise RuleError("parallel edges with equal colors")
            del self.edges[split]
        else:
            raise RuleError("unknown move kind %r" % kind)
        self.vertices.add(n)
        self._add(new)

    def edge_list(self):
        return [[eid, u, v, c]
                for eid, (u, v, c) in sorted(self.edges.items())]


def flip_key(group, edge):
    """Orientation-free form of an edge: tail <= head, color negated on a
    flip, a loop's color the smaller of c and -c."""
    _, u, v, c = edge
    if u > v:
        u, v, c = v, u, group.neg(c)
    elif u == v:
        c = min(c, group.neg(c))
    return (u, v, c)


def edge_multiset(group, edges):
    return sorted(flip_key(group, e) for e in edges)


# --- random certificates -------------------------------------------------


def draw_move(family, group, rp, shape, colors):
    """One move that passes the local rules.  The `shape` stream picks the
    kind (uniform over the family's kinds), the endpoints and the split
    edge; the `colors` stream picks every color, redrawing only colors
    until the rules hold, so the same shape stream always gives the same
    underlying graph."""
    kinds = KINDS[family]
    verts = sorted(rp.vertices)
    n = verts[-1] + 1
    kind = kinds[shape.randrange(len(kinds))]
    if kind == "h1c":
        a, b = shape.choice(verts), shape.choice(verts)
        ca, cb = group.draw(colors), group.draw(colors)
        while a == b and ca == cb:
            cb = group.draw(colors)
        return ("h1c", n, a, b, ca, cb)
    if kind == "h1cp":
        return ("h1cp", n, shape.choice(verts), group.draw(colors),
                group.draw_nonzero(colors))
    split = shape.choice(sorted(rp.edges))
    c = shape.choice(verts)
    t, h, s = rp.edges[split]
    while True:
        can, ccn = group.draw(colors), group.draw(colors)
        cbn = group.sub(can, s)
        if len({(t, can), (h, cbn), (c, ccn)}) == 3:
            return ("h2c", n, split, can, cbn, c, ccn)


def random_base(family, group, colors):
    if family == ROSS:
        c1 = group.draw(colors)
        c2 = group.draw(colors)
        while c2 == c1:
            c2 = group.draw(colors)
        return [0, 1], [[0, 0, 1, c1], [1, 0, 1, c2]]
    return [0], [[0, 0, 0, group.draw_nonzero(colors)]]


def random_certificate(family, steps, shape, colors, group=None):
    """(group, base vertices, base edges, moves, final vertices, final
    edges) for a random certificate with `steps` moves.  The cone group,
    when not given, comes from the shape stream."""
    group = group or family_group(family, shape)
    bv, be = random_base(family, group, colors)
    rp = Replay(group, bv, be)
    moves = []
    for _ in range(steps):
        mv = draw_move(family, group, rp, shape, colors)
        rp.apply(mv)
        moves.append(mv)
    return group, bv, be, moves, sorted(rp.vertices), rp.edge_list()


# --- whole-graph counts --------------------------------------------------


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _rank(group, values):
    """Rank of the subgroup the cycle values generate (prime Z/p, Z, Z^2)."""
    nz = [c for c in values if c != group.zero()]
    if not nz:
        return 0
    if group.ncoords == 1:
        return 1
    return 2 if any(_cross(nz[0], c) != 0 for c in nz[1:]) else 1


def whole_graph_bound(family, group, vertices, edges):
    """(m, bound) for the whole graph, isolated vertices counting as
    rank-0 components: the count a tight graph meets with equality."""
    root = {v: v for v in vertices}
    pot = {v: group.zero() for v in vertices}

    def find(x):
        # returns (root, potential of x relative to the root)
        acc = group.zero()
        while root[x] != x:
            acc = group.add(acc, pot[x])
            x = root[x]
        return x, acc

    cycles = []
    for _, u, v, c in edges:
        (ru, pu), (rv, pv) = find(u), find(v)
        if ru == rv:
            # cycle value: color + pot(u) - pot(v), potentials from the root
            cycles.append((ru, group.sub(group.add(c, pu), pv)))
        else:
            # hang rv under ru so that pot(v) = pot(u) + c holds
            root[rv] = ru
            pot[rv] = group.sub(group.add(pu, c), pv)
    comps = {}
    for v in vertices:
        comps.setdefault(find(v)[0], [])
    for r, val in cycles:
        comps[find(r)[0]].append(val)
    ranks = [_rank(group, vals) for vals in comps.values()]
    c0 = ranks.count(0)
    c12 = len(ranks) - c0
    r = _rank(group, [val for _, val in cycles])
    n = len(vertices)
    if family == ROSS:
        bound = 2 * n - 3 * c0 - 2 * c12
    elif family == CONE:
        bound = 2 * n - 3 * c0 - c12
    elif family == CYLINDER:
        bound = 2 * n + r - 3 * c0 - 2 * c12
    else:
        bound = 2 * n + max(2 * r - 1, 0) - 3 * c0 - 2 * c12
    return len(edges), bound


def rng_for(seed, *labels):
    """A Random stream per (seed, labels) so that adding one input kind
    never shifts the draws of another."""
    return random.Random("%s/%s" % (seed, "/".join(str(x) for x in labels)))


def streams(seed, *labels):
    """(shape, colors) streams for one input slot.  Shapes come from the
    slot alone, so every seed sees the same underlying graphs and planted
    sites at each slot and input cost stays comparable across seeds;
    colors and everything else the seed decides come from `seed`."""
    return rng_for("shape", *labels), rng_for(seed, *labels)
