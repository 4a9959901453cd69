"""Whole-package acceptance sweep.

Each test exercises one documented guarantee end to end, against
literal enumeration or an independently built model, inside a fixed
wall-clock budget.  Every test prints a single verdict line of the
form `criterion N: PASS/FAIL (...)` so a full run reads as a
checklist; mismatch collection never stops at the first failure, the
line reports totals.
"""

import collections
import functools
import itertools
import random
import time

from gainsparse import (
    ColoredGraph,
    GroupSpec,
    H1c,
    H2c,
    InvalidMoveError,
    PreconditionError,
    SparsityParams,
    UncoloredMultigraph,
    apply_move,
    build_lift,
    check_colored_sparsity,
    cone_laman_via_lift,
    deconstruct,
    eliminate_orbit_circuit,
    fundamental_circuit,
    is_kl_sparse,
    is_kl_spanning,
    kl_basis,
    random_construct,
    reduce_colors,
    rho_rank,
    same_up_to_flip,
    is_base,
    underlying,
    verify_certificate,
)
import oracles
from helpers import is_circuit_23

P21 = SparsityParams(2, 1)
P22 = SparsityParams(2, 2)
P23 = SparsityParams(2, 3)

Z3 = GroupSpec.parse("Z/3")


def _report(capsys, num, ok, detail):
    line = "criterion %d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail)
    with capsys.disabled():
        print(line)
    assert ok, line


def _clock(budget, t0):
    dt = time.perf_counter() - t0
    return dt, "%.1fs of %ds" % (dt, budget)


# 1. pebble game against literal counting, all small multigraphs


def test_criterion_1_pebble_soundness(capsys):
    t0 = time.perf_counter()
    slots = [(i, j) for i in range(5) for j in range(i, 5)]
    slot_mask = [(1 << i) | (1 << j) for i, j in slots]
    pop = [bin(v).count("1") for v in range(32)]
    bad = []
    checked = 0
    for m in range(9):
        for combo in itertools.combinations_with_replacement(range(15), m):
            # literal vertex-subset verification, all three parameter
            # pairs in one sweep; subsets inducing no edges constrain
            # nothing, and extra vertices only loosen the bound, so
            # sweeping vertex subsets is the same check as edge subsets
            want = [True, True, True]
            masks = [slot_mask[s] for s in combo]
            for vs in range(1, 32):
                mp = 0
                for em in masks:
                    if em & vs == em:
                        mp += 1
                if mp:
                    cap = 2 * pop[vs]
                    if mp > cap - 1:
                        want[0] = False
                    if mp > cap - 2:
                        want[1] = False
                    if mp > cap - 3:
                        want[2] = False
                    if not (want[0] or want[1] or want[2]):
                        break
            mg = UncoloredMultigraph(
                range(5), [(i, ) + slots[s] for i, s in enumerate(combo)])
            got = [is_kl_sparse(mg, p) for p in (P21, P22, P23)]
            if got != want:
                if len(bad) < 5:
                    bad.append("%r -> %r want %r" % (combo, got, want))
            if checked % 997 == 0:
                # tie the sweep above to the plainest possible form
                pairs = [slots[s] for s in combo]
                for l, w in zip((1, 2, 3), want):
                    if oracles.kl_sparse_edge_subsets(pairs, 2, l) != w:
                        bad.append("edge-subset scan differs on %r" % (combo,))
            checked += 1
    dt, shown = _clock(60, t0)
    ok = not bad and dt <= 60
    _report(capsys, 1, ok,
            "%d multigraphs x 3 params, %d disagreements, %s%s"
            % (checked, len(bad), shown, "; " + "; ".join(bad) if bad else ""))


# 2. brute-force tightness against the lift characterization


def _cone_agreement(g, bad, label):
    brute = check_colored_sparsity(g, "cone").tight
    lifted = cone_laman_via_lift(g)
    if brute != lifted:
        if len(bad) < 5:
            bad.append("%s: brute %r lift %r" % (label, brute, lifted))
        else:
            bad.append("")


def test_criterion_2_lift_equivalence(capsys):
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for n in (1, 2, 3):
        slots = [(t, h, c) for t in range(n) for h in range(t, n)
                 for c in (0, 1, 2)]
        for combo in itertools.combinations_with_replacement(slots, 2 * n - 1):
            g = ColoredGraph(Z3, range(n),
                             [(i, t, h, (c,)) for i, (t, h, c) in
                              enumerate(combo)])
            _cone_agreement(g, bad, "n=%d %r" % (n, combo))
            checked += 1
    # n=4 is too large to sweep whole; a seeded slice stands in
    rng = random.Random(41)
    slots4 = [(t, h, c) for t in range(4) for h in range(t, 4)
              for c in (0, 1, 2)]
    for _ in range(3000):
        combo = tuple(sorted(rng.choices(range(len(slots4)), k=7)))
        g = ColoredGraph(Z3, range(4),
                         [(i, ) + slots4[s] for i, s in enumerate(combo)])
        _cone_agreement(g, bad, "n=4 %r" % (combo,))
        checked += 1
    rng = random.Random(42)
    for _ in range(10000):
        p = rng.choice((3, 5, 7))
        spec = GroupSpec.parse("Z/%d" % p)
        n = rng.randint(1, 6)
        edges = [(i, rng.randrange(n), rng.randrange(n), (rng.randrange(p),))
                 for i in range(2 * n - 1)]
        g = ColoredGraph(spec, range(n), edges)
        _cone_agreement(g, bad, "random %r" % (edges,))
        checked += 1
    dt, shown = _clock(300, t0)
    ok = not bad and dt <= 300
    _report(capsys, 2, ok,
            "%d graphs, %d disagreements, %s%s"
            % (checked, len(bad), shown, "; " + "; ".join(bad) if bad else ""))


# 3. lift connectivity equals the index of the cycle-image subgroup


def _lift_components(g):
    mg = build_lift(g).multigraph()
    triples = [(x, y, 0) for _, x, y in mg.edges]
    return len(oracles._components(triples, set(mg.vertices)))


def _connected(n, pairs):
    return len(oracles._components([(u, v, 0) for u, v in pairs],
                                   set(range(n)))) == 1


def test_criterion_3_lift_components(capsys):
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for p in (3, 5):
        spec = GroupSpec.parse("Z/%d" % p)
        group = ("Z/k", (p,))
        for n in (1, 2, 3, 4):
            pairs = [(i, j) for i in range(n) for j in range(i, n)]
            for m in range(n + 1):
                for shape in itertools.combinations_with_replacement(pairs, m):
                    if not _connected(n, shape):
                        continue
                    for cols in itertools.product(range(p), repeat=m):
                        g = ColoredGraph(spec, range(n),
                                         [(i, u, v, (c,)) for i, ((u, v), c)
                                          in enumerate(zip(shape, cols))])
                        comps = _lift_components(g)
                        vals = oracles._cycle_values(
                            group, [(u, v, (c,)) for (u, v), c
                                    in zip(shape, cols)], set(range(n)))
                        idx = oracles.subgroup_index(group, vals)
                        rank = rho_rank(g.full())
                        if not (comps == idx
                                and (comps == 1) == (rank >= 1)
                                and (rank == 0) == (comps == p)):
                            if len(bad) < 5:
                                bad.append("p=%d %r %r" % (p, shape, cols))
                        checked += 1
    # the two-prime product group, random connected instances
    spec = GroupSpec.parse("Z/3xZ/5")
    group = ("Z/pq", (3, 5))
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(1, 5)
        shape = [(rng.randrange(i), i) for i in range(1, n)]
        shape += [(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randint(0, 3))]
        cols = [(rng.randrange(3), rng.randrange(5)) for _ in shape]
        g = ColoredGraph(spec, range(n),
                         [(i, u, v, c) for i, ((u, v), c)
                          in enumerate(zip(shape, cols))])
        comps = _lift_components(g)
        vals = oracles._cycle_values(
            group, [(u, v, c) for (u, v), c in zip(shape, cols)],
            set(range(n)))
        if comps != oracles.subgroup_index(group, vals):
            if len(bad) < 5:
                bad.append("pq %r %r" % (shape, cols))
        checked += 1
    dt, shown = _clock(60, t0)
    ok = not bad and dt <= 60
    _report(capsys, 3, ok,
            "%d connected graphs, %d disagreements, %s%s"
            % (checked, len(bad), shown, "; " + "; ".join(bad) if bad else ""))


# 4/5. construction closure and deconstruction round trips


@functools.lru_cache(maxsize=None)
def _certificate_corpus(family):
    return tuple(random_construct(family, seed % 9, seed)
                 for seed in range(1000))


def test_criterion_4_construction_closure(capsys):
    # random_construct keeps every draw that passes apply_move's local
    # rules, with no tightness filter, so this brute-force check of every
    # prefix is the test of the closure theorem the certificate paths use
    t0 = time.perf_counter()
    bad = []
    prefixes = 0
    for family in ("ross", "cone", "cylinder"):
        for cert in _certificate_corpus(family):
            g = cert.base
            for step in range(len(cert.moves) + 1):
                if step:
                    g = apply_move(g, cert.moves[step - 1])
                v = check_colored_sparsity(g, family)
                span = (family != "cylinder"
                        or is_kl_spanning(underlying(g), P22))
                if not (v.tight and span):
                    if len(bad) < 5:
                        bad.append("%s step %d of %d moves"
                                   % (family, step, len(cert.moves)))
                prefixes += 1
    dt, shown = _clock(300, t0)
    ok = not bad and dt <= 300
    _report(capsys, 4, ok,
            "3000 certificates, %d prefixes tight, %d failures, %s%s"
            % (prefixes, len(bad), shown,
               "; " + "; ".join(bad) if bad else ""))


def test_criterion_5_deconstruction_round_trip(capsys):
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for family in ("ross", "cone", "cylinder"):
        for i, cert in enumerate(_certificate_corpus(family)):
            g = verify_certificate(cert)
            back = deconstruct(g, family)
            replay = verify_certificate(back)
            if not (is_base(back.base, family)
                    and same_up_to_flip(replay, g)
                    and set(replay.vertices) == set(g.vertices)):
                if len(bad) < 5:
                    bad.append("%s seed %d" % (family, i))
            checked += 1
    dt, shown = _clock(600, t0)
    ok = not bad and dt <= 600
    _report(capsys, 5, ok,
            "%d graphs stripped and replayed, %d failures, %s%s"
            % (checked, len(bad), shown, "; " + "; ".join(bad) if bad else ""))


# 6. colored moves commute with lifting


def _labeled_pairs(sg):
    names = [(i, sg.group[gi]) for i, gi in sg.vertices]
    return collections.Counter(
        tuple(sorted((names[x], names[y])))
        for _, x, y in sg.multigraph().edges)


def _labeled_vertices(sg):
    return {(i, sg.group[gi]) for i, gi in sg.vertices}


def _expected_lift_after(g, mv):
    """Model graph: the old cover plus one plain uncolored move per
    fiber position, placed by the covering rule alone."""
    sg = build_lift(g)
    pairs = _labeled_pairs(sg)
    verts = _labeled_vertices(sg)
    for d in g.spec.elements():
        if isinstance(mv, H1c):
            pairs[tuple(sorted(((mv.n, d), (mv.a, d - mv.ca))))] += 1
            pairs[tuple(sorted(((mv.n, d), (mv.b, d - mv.cb))))] += 1
        else:
            se = g.edge(mv.split)
            gone = tuple(sorted(((se.tail, d), (se.head, d + se.color))))
            assert pairs[gone] > 0, "no cover edge to remove"
            pairs[gone] -= 1
            pairs[tuple(sorted(((mv.n, d), (se.tail, d - mv.can))))] += 1
            pairs[tuple(sorted(((mv.n, d), (se.head, d - mv.cbn))))] += 1
            pairs[tuple(sorted(((mv.n, d), (mv.c, d - mv.ccn))))] += 1
        verts.add((mv.n, d))
    return +pairs, verts


def _random_cone_move(rng, g):
    p = g.spec.moduli[0]
    n = max(g.vertices) + 1
    verts = sorted(g.vertices)
    eids = [e.id for e in g.edges]
    for _ in range(300):
        try:
            if rng.random() < 0.5:
                mv = H1c(n, rng.choice(verts), rng.choice(verts),
                         g.spec.elem((rng.randrange(p),)),
                         g.spec.elem((rng.randrange(p),)))
            else:
                se = g.edge(rng.choice(eids))
                can = g.spec.elem((rng.randrange(p),))
                mv = H2c(n, se.id, can, can - se.color, rng.choice(verts),
                         g.spec.elem((rng.randrange(p),)))
            return mv, apply_move(g, mv)
        except InvalidMoveError:
            continue
    raise AssertionError("no legal move found on %r" % g)


def test_criterion_6_moves_commute_with_lifting(capsys):
    t0 = time.perf_counter()
    bad = []
    kinds = collections.Counter()
    rng = random.Random(11)
    for trial in range(200):
        p = (3, 5)[trial % 2]
        cert = random_construct("cone", rng.randint(1, 4),
                                rng.randrange(10 ** 6),
                                group=GroupSpec.parse("Z/%d" % p))
        g = verify_certificate(cert)
        mv, g2 = _random_cone_move(rng, g)
        kinds[type(mv).__name__] += 1
        sg2 = build_lift(g2)
        want_pairs, want_verts = _expected_lift_after(g, mv)
        if (_labeled_pairs(sg2) != want_pairs
                or _labeled_vertices(sg2) != want_verts):
            if len(bad) < 5:
                bad.append("trial %d p=%d %r" % (trial, p, mv))
    dt, shown = _clock(60, t0)
    ok = not bad and dt <= 60
    _report(capsys, 6, ok,
            "200 moves (%s), %d mismatches, %s%s"
            % (", ".join("%d %s" % (c, k) for k, c in sorted(kinds.items())),
               len(bad), shown, "; " + "; ".join(bad) if bad else ""))


# 7. thinning a circuit's overlap with one edge orbit


def _thinnable(sg, circuit, rep):
    return oracles.thinnable({e.id: (e.x, e.y, e.base_eid) for e in sg.edges},
                             circuit, rep)


def _cone_draw(rng):
    # Z/3: a tight cone base plus one surplus edge.  The surplus circuit
    # wraps through the fibers, and the lift of a tight base already spans
    # its vertex set, so the closure keeps rank after losing a fiber.
    # Returns the crowded circuits of one draw, each with the orbit
    # representatives to thin it at.
    spec = GroupSpec.parse("Z/3")
    cert = random_construct("cone", rng.randint(2, 4),
                            rng.randrange(10 ** 6), group=spec)
    g = verify_certificate(cert)
    n = g.n
    t, h = rng.randrange(n), rng.randrange(n)
    c = rng.randrange(3)
    if t == h and c == 0:
        return []
    eid = max(e.id for e in g.edges) + 1
    gx = ColoredGraph(spec, sorted(g.vertices),
                      [(e.id, e.tail, e.head, e.color)
                       for e in g.edges] + [(eid, t, h, (c,))])
    sg = build_lift(gx)
    mg = sg.multigraph()
    basis = kl_basis(mg, P23)
    rejected = sorted(set(range(sg.m)) - basis)
    circuit = fundamental_circuit(mg, P23, basis, rejected[0])
    crowded = [lid for lid in circuit
               if len(circuit & sg.orbit_of_edge(lid)) >= 2]
    return [(sg, mg, circuit, crowded[:1])] if crowded else []


def _dense_draw(rng):
    # Z/5: the surplus-edge recipe never thins here.  Its closures project
    # onto base graphs sitting exactly one over the tight count, and with
    # five layers a removed fiber costs two ranks, not one.  Clustered
    # bases (few vertices, two edges over the count) leave dependence
    # behind after a fiber goes, so their wrapped circuits do thin.
    spec = GroupSpec.parse("Z/5")
    n = rng.choice((2, 2, 3))
    m = 2 * n + rng.choice((1, 2))
    edges = []
    for j in range(m):
        while True:
            t, h = rng.randrange(n), rng.randrange(n)
            c = rng.randrange(5)
            if t != h or c != 0:
                break
        edges.append((j, t, h, (c,)))
    gx = ColoredGraph(spec, list(range(n)), edges)
    sg = build_lift(gx)
    mg = sg.multigraph()
    basis = kl_basis(mg, P23)
    out = []
    for f in sorted(set(range(sg.m)) - basis):
        circuit = fundamental_circuit(mg, P23, basis, f)
        crowded = [lid for lid in sorted(circuit)
                   if len(circuit & sg.orbit_of_edge(lid)) >= 2]
        if crowded:
            out.append((sg, mg, circuit, crowded))
    return out


def _crowded_instance(draw, rng, skipped):
    """The first drawn crowded circuit that can be thinned at one of its
    representatives.  Removing a whole fiber can cost two ranks at once;
    then every circuit meets the fiber twice and thinning is impossible,
    so such draws are discarded rather than demanded."""
    while True:
        for sg, mg, circuit, reps in draw(rng):
            good = [r for r in reps if _thinnable(sg, circuit, r)]
            if good:
                return sg, mg, circuit, good[0]
            skipped[0] += 1


def test_criterion_7_orbit_elimination(capsys):
    t0 = time.perf_counter()
    bad = []
    checked = 0
    skipped = [0]
    rng = random.Random(13)
    for label, draw, count in (("Z/3", _cone_draw, 30),
                               ("Z/5", _dense_draw, 25)):
        for _ in range(count):
            sg, mg, circuit, rep = _crowded_instance(draw, rng, skipped)
            out = eliminate_orbit_circuit(sg, circuit, rep)
            if not (len(out & sg.orbit_of_edge(rep)) <= 1
                    and is_circuit_23(mg, out)):
                if len(bad) < 5:
                    bad.append("%s circuit %r" % (label, sorted(circuit)))
            checked += 1
    dt, shown = _clock(60, t0)
    ok = checked >= 50 and not bad and dt <= 60
    _report(capsys, 7, ok,
            "%d crowded circuits thinned over Z/3 and Z/5 "
            "(%d unthinnable draws passed over), %d failures, %s%s"
            % (checked, skipped[0], len(bad), shown,
               "; " + "; ".join(bad) if bad else ""))


def test_criterion_7_refuses_exactly_the_unthinnable(capsys):
    # every crowded circuit the two recipes draw, thinnable or not:
    # eliminate_orbit_circuit must raise PreconditionError exactly when
    # the oracle finds no circuit to thin it to
    t0 = time.perf_counter()
    bad = []
    tally = collections.Counter()
    rng = random.Random(17)
    for label, draw, count in (("Z/3", _cone_draw, 120),
                               ("Z/5", _dense_draw, 50)):
        for _ in range(count):
            for sg, mg, circuit, reps in draw(rng):
                for rep in reps:
                    expect = _thinnable(sg, circuit, rep)
                    try:
                        out = eliminate_orbit_circuit(sg, circuit, rep)
                        ok = expect and len(out & sg.orbit_of_edge(rep)) <= 1
                    except PreconditionError:
                        ok = not expect
                    tally[label, expect] += 1
                    if not ok and len(bad) < 5:
                        bad.append("%s circuit %r at %d"
                                   % (label, sorted(circuit), rep))
    dt, shown = _clock(30, t0)
    ok = (not bad and dt <= 30
          and any(tally[k] for k in tally if k[1])
          and any(tally[k] for k in tally if not k[1]))
    _report(capsys, 7, ok,
            "%s; %d failures, %s%s"
            % (", ".join("%d %s %s" % (tally[k], k[0], "thinned" if k[1]
                                       else "refused")
                         for k in sorted(tally)),
               len(bad), shown, "; " + "; ".join(bad) if bad else ""))


# 8. lift-based recognition stays fast and roughly quadratic


def _timed_check(g):
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        assert cone_laman_via_lift(g)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def _attachment_chain(n, seed):
    # Tight by construction: a loop, then two edges per fresh vertex.
    rng = random.Random(seed)
    edges = [(0, 0, 0, (1,))]
    for v in range(1, n):
        a, b = rng.randrange(v), rng.randrange(v)
        ca, cb = rng.randrange(3), rng.randrange(3)
        if a == b and ca == cb:
            cb = (cb + 1) % 3
        edges.append((len(edges), v, a, (ca,)))
        edges.append((len(edges), v, b, (cb,)))
    return ColoredGraph(Z3, list(range(n)), edges)


def test_criterion_8_lift_check_speed(capsys):
    g1 = _attachment_chain(1000, 5)
    g2 = _attachment_chain(2000, 5)
    t1 = _timed_check(g1)
    t2 = _timed_check(g2)
    ratio = t2 / max(t1, 1e-9)
    ok = t1 < 2.0 and ratio <= 8.0
    _report(capsys, 8, ok,
            "n=1000: %.3fs (limit 2s); doubling ratio %.2f (limit 8)"
            % (t1, ratio))


# 9. the free-color family reduces to the finite one plus spanning


def test_criterion_9_color_reduction(capsys):
    t0 = time.perf_counter()
    Zfree = GroupSpec.parse("Z")
    rng = random.Random(17)
    graphs = []
    for _ in range(350):
        cert = random_construct("cylinder", rng.randint(0, 5),
                                rng.randrange(10 ** 6))
        graphs.append(verify_certificate(cert))
    for _ in range(350):
        cert = random_construct("cylinder", rng.randint(0, 5),
                                rng.randrange(10 ** 6))
        g = verify_certificate(cert)
        edges = [(e.id, e.tail, e.head, e.color) for e in g.edges]
        i = rng.randrange(len(edges))
        eid, t, h, _ = edges[i]
        edges[i] = (eid, t, h, (rng.randint(-3, 3),))
        graphs.append(ColoredGraph(Zfree, sorted(g.vertices), edges))
    for _ in range(300):
        n = rng.randint(1, 6)
        m = rng.choice((max(0, 2 * n - 2), 2 * n - 1, 2 * n))
        graphs.append(ColoredGraph(
            Zfree, range(n),
            [(i, rng.randrange(n), rng.randrange(n), (rng.randint(-2, 2),))
             for i in range(m)]))
    bad = []
    for i, g in enumerate(graphs):
        lhs = check_colored_sparsity(g, "cylinder").tight
        reduced, _ = reduce_colors(g)
        rhs = (check_colored_sparsity(reduced, "cone").tight
               and is_kl_spanning(underlying(g), P22))
        if lhs != rhs:
            if len(bad) < 5:
                bad.append("graph %d: cylinder %r reduced %r" % (i, lhs, rhs))
    dt, shown = _clock(300, t0)
    ok = not bad and dt <= 300
    _report(capsys, 9, ok,
            "%d graphs, %d disagreements, %s%s"
            % (len(graphs), len(bad), shown,
               "; " + "; ".join(bad) if bad else ""))
