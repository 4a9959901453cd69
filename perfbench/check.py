"""Checks every timed call's output, outside the timed region.

Verdicts are compared with the answers the generators planted.  A
VIOLATION witness must break its family's count (gainsparse's
subgraph_counts and family_bound), and dropping any one of its edges
must bring it back under the bound; witness edge ids are never compared
with golden ids, so a different valid minimal witness passes.
Certificates are replayed by the benchmark's own model: base shape,
allowed kinds, local move rules, and for deconstruct the final edge
multiset up to flip.  Lift exports are compared with the lift the
benchmark computes itself.
"""

import os

import model as M


class Checker:
    """Checks call records against a plan.  `lib` is the imported
    gainsparse package, used only for witness counts."""

    def __init__(self, plan, lib):
        self.items = {it["id"]: it for it in plan["items"]}
        self.keep = os.path.join(plan["workdir"], "keep")
        self.lib = lib
        self._first = {}     # item id -> digests of its first call
        self._memo = {}      # (item id, code, stdout, stderr) -> problem

    def problem(self, record):
        """None when the call's output is right, else a one-line reason."""
        _, item_id, code, out, err, _, digests, exc, _ = record
        if exc is not None:
            return "raised: %s" % exc.strip().splitlines()[-1]
        first = self._first.setdefault(item_id, digests)
        if digests != first:
            return "written output differs from the item's first call"
        key = (item_id, code, out, err)
        if key not in self._memo:
            it = self.items[item_id]
            try:
                self._memo[key] = self._check(it, code, out, err)
            except (OSError, ValueError, KeyError, M.RuleError) as bad:
                self._memo[key] = "unreadable output: %s" % bad
        return self._memo[key]

    def _kept(self, item_id, k):
        with open(os.path.join(self.keep, "%d.%d" % (item_id, k))) as fh:
            return fh.read()

    def _check(self, it, code, out, err):
        exp = it["expect"]
        kind = exp["type"]
        if kind == "verdict":
            return self._verdict(exp, code, out, err)
        if kind == "verify":
            if "step" in exp:
                want = "invalid certificate: step %d:" % exp["step"]
                if code != 1 or out or not err.startswith(want):
                    return "tampered certificate: want exit 1 and %r" % want
                return None
            want = "valid: replays to n=%d m=%d\n" % (exp["n"], exp["m"])
            if (code, out, err) != (0, want, ""):
                return "verify: want %r, got exit %r %r" % (want, code, out)
            return None
        if (code, out, err) != (0, "", ""):
            return "%s: want a silent exit 0, got %r %r %r" % (
                kind, code, out, err[:80])
        if kind == "construct":
            return self._certificate(self._kept(it["id"], 0), exp["family"],
                                     steps=exp["steps"])
        if kind == "deconstruct":
            with open(exp["graph"]) as fh:
                graph = M.parse_graph(fh.read())
            return self._certificate(self._kept(it["id"], 0), exp["family"],
                                     final=graph)
        with open(exp["graph"]) as fh:
            group, vertices, edges = M.parse_graph(fh.read())
        if kind == "lift":
            return (self._lift_text(self._kept(it["id"], 0), group,
                                    vertices, edges)
                    or self._lift_dot(self._kept(it["id"], 1), group,
                                      vertices, edges))
        return self._lift_dot(self._kept(it["id"], 0), group, vertices, edges)

    def _verdict(self, exp, code, out, err):
        want = exp["verdict"]
        if err or not out.endswith("\n") or out.count("\n") != 1:
            return "check: want one verdict line and no stderr"
        words = out.split()
        if not words or words[0] != want:
            return "check: want %s, got %r" % (want, out.strip()[:60])
        if code != (1 if want == "VIOLATION" else 0):
            return "check: %s with exit %r" % (want, code)
        if want != "VIOLATION":
            return None if len(words) == 1 else "check: trailing words"
        ids = [int(w) for w in words[1:]]
        if not ids or ids != sorted(set(ids)):
            return "witness ids not a sorted nonempty set"
        with open(exp["graph"]) as fh:
            g = self.lib.parse_colored_graph(fh.read())
        if not set(ids) <= g.edge_ids():
            return "witness names an edge the graph lacks"
        family = exp["family"]
        if not self._violates(g, family, ids):
            return "witness %s does not break the %s count" % (ids, family)
        for e in ids:
            if self._violates(g, family, [x for x in ids if x != e]):
                return "witness is not minimal: drop edge %d" % e
        return None

    def _violates(self, g, family, ids):
        lib = self.lib
        counts = lib.subgraph_counts(lib.Subgraph(g, ids))
        return counts.m_prime > lib.family_bound(family, counts)

    def _certificate(self, text, family, steps=None, final=None):
        fam, group, bv, be, moves = M.parse_cert(text)
        if fam != family:
            return "certificate for %s, want %s" % (fam, family)
        if not M.is_base(fam, group, bv, be):
            return "certificate base is not a %s base" % fam
        allowed = M.KINDS[fam]
        rp = M.Replay(group, bv, be)
        for i, mv in enumerate(moves):
            if mv[0] not in allowed:
                return "move %d: kind %s not allowed for %s" % (i, mv[0], fam)
            try:
                rp.apply(mv)
            except M.RuleError as bad:
                return "move %d: %s" % (i, bad)
        if steps is not None and len(moves) != steps:
            return "certificate has %d moves, want %d" % (len(moves), steps)
        if final is not None:
            fgroup, fverts, fedges = final
            if str(fgroup) != str(group):
                return "certificate group %s, graph group %s" % (group, fgroup)
            if sorted(rp.vertices) != sorted(fverts):
                return "replay vertex set differs from the input graph"
            if (M.edge_multiset(group, rp.edge_list())
                    != M.edge_multiset(group, fedges)):
                return "replay edges differ from the input graph up to flip"
        return None

    @staticmethod
    def _expected_lift(group, vertices, edges):
        p = group.mod
        names = {"%d_%d" % (v, g) for v in vertices for g in range(p)}
        pairs = sorted(tuple(sorted(("%d_%d" % (t, g),
                                     "%d_%d" % (h, (c[0] + g) % p))))
                       for _, t, h, c in edges for g in range(p))
        return names, pairs

    def _lift_text(self, text, group, vertices, edges):
        names, pairs = self._expected_lift(group, vertices, edges)
        got_v, got_e = set(), []
        for line in text.splitlines():
            f = line.split()
            if len(f) == 2 and f[0] == "vertex":
                got_v.add(f[1])
            elif len(f) == 3 and f[0] == "edge":
                got_e.append(tuple(sorted(f[1:])))
            else:
                return "lift text: bad line %r" % line
        if got_v != names or sorted(got_e) != pairs:
            return "lift text differs from the lift of the input"
        return None

    def _lift_dot(self, text, group, vertices, edges):
        names, pairs = self._expected_lift(group, vertices, edges)
        lines = text.splitlines()
        if not lines or lines[0] != "graph lift {" or lines[-1] != "}":
            return "lift DOT: not a `graph lift` block"
        label = {}
        got_e = []
        for line in lines:
            f = line.strip()
            if " [label=" in f and f.startswith("n"):
                node, rest = f.split(" [label=", 1)
                label[node] = rest.split('"')[1]
            elif " -- " in f:
                a, b = f.rstrip(";").split(" -- ")
                got_e.append((a, b))
        if set(label.values()) != names or len(label) != len(names):
            return "lift DOT: vertex labels differ from the lift"
        got = sorted(tuple(sorted((label[a], label[b]))) for a, b in got_e)
        if got != pairs:
            return "lift DOT: edges differ from the lift of the input"
        return None
