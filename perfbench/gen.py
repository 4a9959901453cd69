"""Seeded inputs for the three workloads.

build(workload, seed, workdir) writes input files under workdir/in and
returns the plan: the timed items, in pass order, and the warm-up items.
Each item is one `gainsparse` command line plus what its output must be.
Sizes, groups, underlying graphs and planted-violation sites are fixed
per slot (see model.streams); the seed draws every color and the seeds
handed to `construct`.  The same seed gives byte-identical files.

The timed items come in VARIANTS[workload] draws of the same slots, each
with its own colors from the seed, and the worker runs one variant per
pass.  A few slots set each run's p90 and their cost moves with the
colors, so a run that averages over several draws varies less from seed
to seed.

Paths in an item's argv are relative to the directory the benchmark runs
from, so the worker must run there too.
"""

import os

import model as M
from model import CONE, CYLINDER, ROSS, COLORED

WORKLOADS = ("lift-scale", "certificates", "brute-small")
# Draws per run.  Three passes of lift-scale or certificates fill a 15 s
# run.  Over ten seeds, three draws gave a certificates p90 spread of
# 0.05 to 0.09 and six draws 0.04 to 0.05, so certificates takes six
# (about 30 s).
# Six draws left brute-small's p90 spread where three had it.
VARIANTS = {"lift-scale": 3, "certificates": 6, "brute-small": 3}

# --- lift-scale ----------------------------------------------------------
#
# (shape, group modulus or None for Z, n, plant) per slot.  plant is None
# for a tight input, "dup" for a duplicated edge replacing another, or
# ("block", w) for a zero-colored w-vertex window with one edge moved in.
# Every input keeps m = 2n - 1, which `check --method lift` needs.

LIFT_CHECKS = [
    ("chain", 3, 100, None), ("chain", 3, 140, None), ("chain", 3, 200, None),
    ("chain", 3, 280, None), ("chain", 3, 400, None), ("chain", 3, 560, None),
    ("chain", 3, 1000, None),
    ("chain", 5, 120, None), ("chain", 5, 200, None), ("chain", 5, 330, None),
    ("chain", 5, 420, None),
    ("chain", 7, 100, None), ("chain", 7, 180, None), ("chain", 7, 260, None),
    ("attach", 3, 300, None), ("attach", 3, 800, None),
    ("attach", 3, 2000, None),
    ("attach", 5, 200, None), ("attach", 5, 600, None),
    ("attach", 5, 1000, None),
    ("attach", 7, 150, None), ("attach", 7, 500, None),
    ("chain", None, 15, None), ("chain", None, 25, None),
    ("chain", None, 30, None), ("chain", None, 40, None),
    ("attach", None, 20, None), ("attach", None, 35, None),
    ("attach", None, 45, None), ("attach", None, 55, None),
    ("chain", 3, 200, "dup"), ("chain", 5, 300, "dup"),
    ("chain", 7, 150, "dup"), ("attach", 3, 600, "dup"),
    ("attach", 5, 300, "dup"), ("chain", None, 25, "dup"),
    ("attach", None, 30, "dup"),
    ("chain", 3, 120, ("block", 5)), ("chain", 5, 100, ("block", 4)),
    ("chain", 7, 80, ("block", 4)), ("chain", None, 20, ("block", 4)),
    ("chain", None, 15, ("block", 5)),
]
LIFT_EXPORTS = [("lift", 3, 100), ("lift", 5, 60), ("lift", 7, 40),
                ("dot", 7, 80), ("dot", 3, 150), ("dot", 5, 100)]
LIFT_WARMUP = [("chain", 3, 150, None), ("attach", None, 20, None),
               ("chain", 5, 80, "dup"), ("chain", None, 12, ("block", 4))]
LIFT_WARMUP_EXPORTS = [("lift", 3, 20), ("dot", 5, 20)]

# --- certificates --------------------------------------------------------
#
# Construct slots are (family, steps); the library draws the cone group
# from the construct seed.  Replay slots are (family, steps, cone modulus)
# and each yields a verify and a deconstruct item over the same
# certificate.  Tampered slots (family, steps, how) must fail verify.

CONSTRUCT_SLOTS = [(CONE, 10), (CONE, 20), (CONE, 35), (CONE, 50),
                   (CYLINDER, 5), (CYLINDER, 10), (CYLINDER, 16),
                   (CYLINDER, 20), (ROSS, 2), (ROSS, 4), (ROSS, 6), (ROSS, 8)]
REPLAY_SLOTS = [(CONE, 10, 3), (CONE, 16, 7), (CONE, 25, 5), (CONE, 40, 3),
                (CONE, 60, 7), (CONE, 100, 5),
                (CYLINDER, 5, None), (CYLINDER, 10, None),
                (CYLINDER, 16, None), (CYLINDER, 22, None),
                (CYLINDER, 24, None),
                (ROSS, 2, None), (ROSS, 4, None), (ROSS, 6, None),
                (ROSS, 8, None)]
CERT_TAMPERED = [(CONE, 40, "last"), (CONE, 20, "last"), (CONE, 25, "base"),
                 (CYLINDER, 12, "last"), (CYLINDER, 10, "kind"),
                 (CYLINDER, 8, "base"), (ROSS, 4, "last"), (ROSS, 6, "kind"),
                 (ROSS, 5, "base")]
CERT_WARMUP_CONSTRUCT = [(CONE, 12), (CYLINDER, 6), (ROSS, 4)]
CERT_WARMUP_REPLAY = [(CONE, 12, 5), (CYLINDER, 6, None), (ROSS, 4, None)]
CERT_WARMUP_TAMPERED = [(CONE, 8, "last"), (ROSS, 3, "kind")]

# --- brute-small ---------------------------------------------------------
#
# (family, steps, kind): a certificate-generated graph with `steps` moves,
# checked as is ("tight"), with one edge removed ("minus"), or with one
# edge duplicated at the same color ("dup").  Ross graphs checked as
# `colored` are sparse but never tight.

BRUTE_SLOTS = [
    (ROSS, 4, "tight"), (ROSS, 5, "tight"), (ROSS, 6, "tight"),
    (ROSS, 7, "tight"), (ROSS, 8, "tight"),
    (CONE, 5, "tight"), (CONE, 6, "tight"), (CONE, 7, "tight"),
    (CONE, 8, "tight"), (CONE, 9, "tight"), (CONE, 10, "tight"),
    (CYLINDER, 5, "tight"), (CYLINDER, 6, "tight"), (CYLINDER, 7, "tight"),
    (CYLINDER, 8, "tight"), (CYLINDER, 9, "tight"),
    (ROSS, 6, "minus"), (ROSS, 8, "minus"), (CONE, 7, "minus"),
    (CONE, 9, "minus"), (CYLINDER, 7, "minus"), (CYLINDER, 9, "minus"),
    (COLORED, 5, "tight"), (COLORED, 6, "tight"), (COLORED, 7, "tight"),
    (COLORED, 8, "tight"),
    (ROSS, 5, "dup"), (ROSS, 7, "dup"), (ROSS, 8, "dup"),
    (CONE, 6, "dup"), (CONE, 8, "dup"), (CONE, 9, "dup"),
    (CYLINDER, 6, "dup"), (CYLINDER, 8, "dup"), (CYLINDER, 9, "dup"),
    (COLORED, 6, "dup"), (COLORED, 8, "dup"),
]
BRUTE_WARMUP = [(ROSS, 6, "tight"), (CONE, 7, "dup"), (COLORED, 6, "tight"),
                (CYLINDER, 6, "minus")]


# --- lift-scale shapes ---------------------------------------------------


def _color_pool(group, m, rng):
    """m colors.  Over Z the multiset of absolute values is fixed by m
    (a fifth zeros, two fifths each of 1 and 2, signs drawn), so the
    reduced prime and the lift size depend on n alone."""
    if group.mod is not None:
        return [group.draw(rng) for _ in range(m)]
    mags = [0] * (m // 5) + [1] * ((2 * m) // 5)
    mags += [2] * (m - len(mags))
    rng.shuffle(mags)
    return [(x if rng.random() < 0.5 else -x,) for x in mags]


def _take(pool, i, ok, fresh, rng):
    """Make pool[i] satisfy ok by swapping in a later entry that does; at
    the end of the pool, draw fresh colors instead."""
    if not ok(pool[i]):
        later = [j for j in range(i + 1, len(pool)) if ok(pool[j])]
        if later:
            j = rng.choice(later)
            pool[i], pool[j] = pool[j], pool[i]
        while not ok(pool[i]):
            pool[i] = fresh()
    return pool[i]


def cone_like(form, group, n, shape, colors):
    """A loop at 0, then two edges per fresh vertex v: from v-1 and v-2 in
    the chain (the adversarial pebble shape), to two random earlier
    vertices in the attachment shape.  Tight for cone and cylinder by
    vertex additions."""
    pool = _color_pool(group, 2 * n - 1, colors)
    zero = group.zero()

    def fresh():
        return group.draw_nonzero(colors)

    edges = [[0, 0, 0, _take(pool, 0, lambda c: c != zero, fresh, colors)]]
    for v in range(1, n):
        if form == "chain":
            a, b = (v - 1, v - 2) if v >= 2 else (0, 0)
        else:
            a, b = shape.randrange(v), shape.randrange(v)
        i = len(edges)
        ca = pool[i]
        cb = _take(pool, i + 1, lambda c: a != b or c != ca, fresh, colors)
        if form == "chain":
            edges.append([i, a, v, ca])
            edges.append([i + 1, b, v, cb])
        else:
            edges.append([i, v, a, ca])
            edges.append([i + 1, v, b, cb])
    return edges


def plant_dup(edges, shape):
    """Overwrite one plain edge with a copy of another: a two-edge
    balanced pair, m unchanged."""
    plain = [e for e in edges if e[1] != e[2]]
    src = shape.choice(plain)
    dst = shape.choice([e for e in plain if e is not src])
    dst[1:] = src[1:]


def plant_block(edges, group, n, w, shape):
    """Zero the colors inside the chain window [s, s+w) and move one edge
    from outside the window to join its ends at color 0: the window then
    holds 2w-2 edges of a balanced (rank 0) subgraph, one over its
    bound."""
    s = shape.randrange(2, n - w)
    win = range(s, s + w)
    for e in edges:
        if e[1] in win and e[2] in win:
            e[3] = group.zero()
    outside = [e for e in edges if e[1] != e[2]
               and e[1] not in win and e[2] not in win]
    shape.choice(outside)[1:] = [s, s + w - 1, group.zero()]


def _lift_graph(seed, slot, spec):
    form, mod, n, plant = spec
    shape, colors = M.streams(seed, "lift", slot)
    group = M.Group(mod=mod) if mod else M.Group()
    edges = cone_like(form, group, n, shape, colors)
    if plant == "dup":
        plant_dup(edges, shape)
    elif plant is not None:
        plant_block(edges, group, n, plant[1], shape)
    family = CONE if mod else CYLINDER
    return family, M.graph_text(group, range(n), edges), plant is None


# --- certificates --------------------------------------------------------


def tamper(family, group, bv, be, moves, how, colors):
    """A copy of the certificate that verify must reject, and the step it
    must name: the last move broken, a move of a kind the family does not
    allow appended, or a base of the wrong shape."""
    moves = list(moves)
    if how == "base":
        if family == ROSS:
            be = [[0, 0, 1, be[0][3]], [1, 0, 1, be[0][3]]]
        else:
            be = [[0, 0, 0, group.zero()]]
        return bv, be, moves, -1
    if how == "kind":
        n = len(bv) + len(moves)
        moves.append(("h1cp", n, 0, group.draw(colors),
                      group.draw_nonzero(colors)))
        return bv, be, moves, len(moves) - 1
    mv = moves[-1]
    if mv[0] == "h1c":
        moves[-1] = ("h1c", mv[1], mv[2], mv[2], mv[4], mv[4])
    elif mv[0] == "h1cp":
        moves[-1] = mv[:4] + (group.zero(),)
    else:
        bad = group.add(mv[4], group.draw_nonzero(colors))
        moves[-1] = mv[:4] + (bad,) + mv[5:]
    return bv, be, moves, len(moves) - 1


# --- plan ----------------------------------------------------------------


class _Writer:
    """Writes the files of items and numbers the items; `variant` names
    the draw the next items belong to and the directory of their files."""

    def __init__(self, workdir):
        self.root = workdir
        self.items = []
        self.variant = 0

    def path(self, sub, name):
        d = os.path.join(self.root, sub, "v%d" % self.variant)
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, name)

    def write(self, name, text):
        p = self.path("in", name)
        with open(p, "w") as fh:
            fh.write(text)
        return p

    def add(self, label, argv, expect, outputs=()):
        self.items.append({"id": len(self.items), "label": label,
                           "variant": self.variant, "argv": argv,
                           "expect": expect, "outputs": list(outputs)})


def _lift_items(w, seed, checks, exports, tag):
    for slot, spec in enumerate(checks):
        family, text, tight = _lift_graph(seed, (tag, slot), spec)
        f = w.write("%s-lift%d.txt" % (tag, slot), text)
        label = "check-%s-%s-%s-n%d-%s" % (
            family, spec[0], spec[1] or "Z", spec[2],
            "tight" if tight else "violation")
        w.add(label, ["check", f, "--family", family, "--method", "lift"],
              {"type": "verdict", "family": family, "graph": f,
               "verdict": "TIGHT" if tight else "VIOLATION"})
    for slot, (kind, mod, n) in enumerate(exports):
        _, text, _ = _lift_graph(seed, (tag, "export", slot),
                                 ("attach", mod, n, None))
        f = w.write("%s-export%d.txt" % (tag, slot), text)
        out = w.path("out", "%s-export%d" % (tag, slot))
        if kind == "lift":
            w.add("lift-Z%d-n%d" % (mod, n), ["lift", f, out],
                  {"type": "lift", "graph": f},
                  [out + ".txt", out + ".dot"])
        else:
            w.add("dot-lift-Z%d-n%d" % (mod, n), ["dot", f, out + ".dot",
                                                  "--lift"],
                  {"type": "dot", "graph": f}, [out + ".dot"])


def _cert_items(w, seed, constructs, replays, tampered, tag):
    for slot, (family, steps) in enumerate(constructs):
        rng = M.rng_for(seed, "construct", tag, slot)
        out = w.path("out", "%s-construct%d.txt" % (tag, slot))
        w.add("construct-%s-%d" % (family, steps),
              ["construct", "--family", family, "--steps", str(steps),
               "--seed", str(rng.randrange(10 ** 6)), out],
              {"type": "construct", "family": family, "steps": steps},
              [out])
    for slot, (family, steps, mod) in enumerate(replays):
        shape, colors = M.streams(seed, "replay", tag, slot)
        group = M.Group(mod=mod) if mod else None
        group, bv, be, moves, fv, fe = M.random_certificate(
            family, steps, shape, colors, group)
        cert = w.write("%s-cert%d.txt" % (tag, slot),
                       M.cert_text(family, group, bv, be, moves))
        graph = w.write("%s-final%d.txt" % (tag, slot),
                        M.graph_text(group, fv, fe))
        out = w.path("out", "%s-deconstruct%d.txt" % (tag, slot))
        w.add("verify-%s-%s-%d" % (family, group, steps), ["verify", cert],
              {"type": "verify", "n": len(fv), "m": len(fe)})
        w.add("deconstruct-%s-%s-%d" % (family, group, steps),
              ["deconstruct", graph, "--family", family, out],
              {"type": "deconstruct", "family": family, "graph": graph},
              [out])
    for slot, (family, steps, how) in enumerate(tampered):
        shape, colors = M.streams(seed, "tamper", tag, slot)
        group, bv, be, moves, _, _ = M.random_certificate(
            family, steps, shape, colors)
        bv, be, moves, step = tamper(family, group, bv, be, moves, how, colors)
        cert = w.write("%s-tampered%d.txt" % (tag, slot),
                       M.cert_text(family, group, bv, be, moves))
        w.add("verify-%s-%d-tampered-%s" % (family, steps, how),
              ["verify", cert], {"type": "verify", "step": step})


def brute_graph(family, steps, kind, shape, colors):
    """(group, vertices, edges, expected verdict) for one brute-small slot."""
    gen_family = ROSS if family == COLORED else family
    group, _, _, _, fv, fe = M.random_certificate(gen_family, steps, shape,
                                                  colors)
    if kind == "minus":
        fe.pop(shape.randrange(len(fe)))
        m, bound = M.whole_graph_bound(family, group, fv, fe)
        return group, fv, fe, "TIGHT" if m == bound else "SPARSE"
    if kind == "dup":
        src = shape.choice([e for e in fe if e[1] != e[2]])
        fe.append([max(e[0] for e in fe) + 1] + src[1:])
        return group, fv, fe, "VIOLATION"
    return group, fv, fe, "SPARSE" if family == COLORED else "TIGHT"


def _brute_items(w, seed, slots, tag):
    for slot, (family, steps, kind) in enumerate(slots):
        shape, colors = M.streams(seed, "brute", tag, slot)
        group, fv, fe, verdict = brute_graph(family, steps, kind, shape,
                                             colors)
        f = w.write("%s-brute%d.txt" % (tag, slot),
                    M.graph_text(group, fv, fe))
        w.add("check-%s-m%d-%s" % (family, len(fe), kind),
              ["check", f, "--family", family, "--method", "brute"],
              {"type": "verdict", "family": family, "graph": f,
               "verdict": verdict})


def _items(w, workload, seed, tag):
    timed = tag == "timed"
    if workload == "lift-scale":
        _lift_items(w, seed, LIFT_CHECKS if timed else LIFT_WARMUP,
                    LIFT_EXPORTS if timed else LIFT_WARMUP_EXPORTS, tag)
    elif workload == "certificates":
        if timed:
            _cert_items(w, seed, CONSTRUCT_SLOTS, REPLAY_SLOTS,
                        CERT_TAMPERED, tag)
        else:
            _cert_items(w, seed, CERT_WARMUP_CONSTRUCT, CERT_WARMUP_REPLAY,
                        CERT_WARMUP_TAMPERED, tag)
    elif workload == "brute-small":
        _brute_items(w, seed, BRUTE_SLOTS if timed else BRUTE_WARMUP, tag)
    else:
        raise ValueError("unknown workload %r" % workload)


def build(workload, seed, workdir):
    """Write the inputs of one workload and return its plan:
    {"items": [...], "warmup": [...]}.  Each timed item names its
    variant; the worker's pass k runs the items of variant
    k % VARIANTS[workload] in list order."""
    timed = _Writer(workdir)
    for k in range(VARIANTS[workload]):
        timed.variant = k
        # the variant draws its colors from a stream of its own
        _items(timed, workload, "%s/%d" % (seed, k), "timed")
    warm = _Writer(workdir)
    _items(warm, workload, seed, "warm")
    return {"items": timed.items, "warmup": warm.items}
