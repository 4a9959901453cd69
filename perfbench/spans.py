"""Spans around gainsparse's layer boundaries, recorded from outside.

install() replaces the public functions at every module attribute
through which another module or the CLI calls them (for example
gainsparse.cli.build_lift and gainsparse.lifts.build_lift) with wrappers
that record one span per call: name, start, end, parent span and item
id.  Spans stay in memory in flat arrays; save() writes them out when
the run ends and Spans() reads them back.  layer_metrics() turns a span
set into the per-layer numbers.  The groups module gets no spans: its
per-element arithmetic lands in its callers' self time.
"""

import json
import time
from array import array

# (module, attribute, span name, extra); module "graphs.ColoredGraph"
# means a method patched on the class itself.  extra(args, result)
# returns the number recorded with the span, or a (summed, maximised)
# pair.
_POINTS = [
    ("cli", "main", "cli.main", None),
    ("cli", "parse_colored_graph", "graphs.parse",
     lambda a, r: len(a[0])),
    ("henneberg", "parse_colored_graph", "graphs.parse",
     lambda a, r: len(a[0])),
    ("henneberg", "serialize_colored_graph", "graphs.serialize", None),
    ("graphs.ColoredGraph", "with_vertex", "graphs.edit", None),
    ("graphs.ColoredGraph", "with_edges", "graphs.edit", None),
    ("graphs.ColoredGraph", "without_vertex", "graphs.edit", None),
    ("graphs.ColoredGraph", "without_edge", "graphs.edit", None),
    ("graphs.ColoredGraph", "incident", "graphs.incident", None),
    ("graphs.ColoredGraph", "degree", "graphs.incident", None),
    ("sparsity", "subgraph_counts", "graphs.counts", None),
    ("sparsity", "graph_counts", "graphs.counts", None),
    ("cli", "check_colored_sparsity", "sparsity.brute", None),
    ("henneberg", "check_colored_sparsity", "sparsity.brute", None),
    ("cli", "is_kl_sparse", "sparsity.pebble", lambda a, r: a[0].m),
    ("cli", "is_kl_spanning", "sparsity.pebble", lambda a, r: a[0].m),
    ("lifts", "is_kl_sparse", "sparsity.pebble", lambda a, r: a[0].m),
    ("lifts", "kl_basis", "sparsity.pebble", lambda a, r: a[0].m),
    ("henneberg", "is_kl_spanning", "sparsity.pebble", lambda a, r: a[0].m),
    ("cli", "fundamental_circuit", "sparsity.circuit", None),
    ("lifts", "fundamental_circuit", "sparsity.circuit", None),
    ("cli", "build_lift", "lifts.build", lambda a, r: (r.m, r.n)),
    ("lifts", "build_lift", "lifts.build", lambda a, r: (r.m, r.n)),
    ("cli", "reduce_colors", "lifts.reduce", lambda a, r: max(r[1])),
    ("henneberg", "reduce_colors", "lifts.reduce", lambda a, r: max(r[1])),
    ("cli", "cone_laman_via_lift", "lifts.cone_check", None),
    ("henneberg", "cone_laman_via_lift", "lifts.cone_check", None),
    ("cli", "lift_to_text", "lifts.export", None),
    ("cli", "lift_to_dot", "lifts.export", None),
    ("cli", "colored_graph_to_dot", "lifts.export", None),
    ("henneberg", "tight_in_family", "henneberg.tight", None),
    ("henneberg", "apply_move", "henneberg.apply", None),
    ("henneberg", "reverse_candidates", "henneberg.reverse",
     lambda a, r: len(r)),
    ("cli", "verify_certificate", "henneberg.verify", None),
    ("cli", "random_construct", "henneberg.construct",
     lambda a, r: len(r.moves)),
    ("cli", "deconstruct", "henneberg.deconstruct", lambda a, r: len(r.moves)),
    ("cli", "parse_certificate", "henneberg.cert_io", None),
    ("cli", "serialize_certificate", "henneberg.cert_io", None),
]


class Tracer:
    """In-memory span store.  `item` is the id stamped on new spans."""

    def __init__(self):
        self.names = []
        self._nid = {}
        self.name = array("H")
        self.parent = array("l")
        self.item_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.extra = {}        # span index -> number or pair
        self.raised = {}       # span index -> exception class name
        self.item = -1
        self._stack = [-1]

    def name_id(self, name):
        if name not in self._nid:
            self._nid[name] = len(self.names)
            self.names.append(name)
        return self._nid[name]

    def wrap(self, name, fn, extra=None):
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def span(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.item_of.append(self.item)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[idx] = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if extra is not None:
                self.extra[idx] = extra(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def save(self, path):
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.item_of, self.start,
                        self.end):
                arr.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.start),
                       "extra": sorted(self.extra.items()),
                       "raised": sorted(self.raised.items())}, fh)


def install(tracer, package):
    """Wrap every point in _POINTS; returns a function that undoes it."""
    undo = []
    for modname, attr, name, extra in _POINTS:
        if modname == "graphs.ColoredGraph":
            owner = package.graphs.ColoredGraph
        else:
            owner = getattr(package, modname)
        orig = owner.__dict__[attr]
        setattr(owner, attr, tracer.wrap(name, orig, extra))
        undo.append((owner, attr, orig))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
    return uninstall


class Spans:
    """Spans read back from disk, as flat arrays."""

    def __init__(self, path):
        with open(path + ".json") as fh:
            meta = json.load(fh)
        self.names = meta["names"]
        count = meta["count"]
        self.extra = {int(k): v for k, v in meta["extra"]}
        self.raised = {int(k): v for k, v in meta["raised"]}
        self.name, self.parent, self.item_of = (
            array("H"), array("l"), array("l"))
        self.start, self.end = array("d"), array("d")
        with open(path + ".bin", "rb") as fh:
            for arr in (self.name, self.parent, self.item_of, self.start,
                        self.end):
                arr.fromfile(fh, count)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics from a span set.  Ratios with an empty base read
    0.0.  `s` is inclusive time; `self_s` subtracts the time covered by
    child spans."""
    names = spans.names
    n = len(spans.start)
    dur = [spans.end[i] - spans.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = spans.parent[i]
        if p >= 0:
            child[p] += dur[i]
    calls, total, self_t, extra_sum, extra_max = {}, {}, {}, {}, {}
    for i in range(n):
        nm = names[spans.name[i]]
        calls[nm] = calls.get(nm, 0) + 1
        total[nm] = total.get(nm, 0.0) + dur[i]
        self_t[nm] = self_t.get(nm, 0.0) + dur[i] - child[i]
        if i in spans.extra:
            v = spans.extra[i]
            summed, maxed = (v, v) if isinstance(v, (int, float)) else v
            extra_sum[nm] = extra_sum.get(nm, 0) + summed
            extra_max[nm] = max(extra_max.get(nm, 0), maxed)

    def under(child_name, parent_name):
        # spans named child_name whose direct parent is named parent_name
        k = 0
        for i in range(n):
            p = spans.parent[i]
            if (p >= 0 and names[spans.name[i]] == child_name
                    and names[spans.name[p]] == parent_name):
                k += 1
        return k

    def c(nm):
        return calls.get(nm, 0)

    def s(nm):
        return total.get(nm, 0.0)

    refused = sum(1 for i, exc in spans.raised.items()
                  if exc == "BudgetExceededError"
                  and names[spans.name[i]] == "sparsity.brute")
    kept_construct = extra_sum.get("henneberg.construct", 0)
    kept_deconstruct = extra_sum.get("henneberg.deconstruct", 0)
    replayed = under("henneberg.apply", "henneberg.verify")
    moves = replayed + kept_construct + kept_deconstruct
    draws = under("henneberg.apply", "henneberg.construct")
    checked = (under("henneberg.tight", "henneberg.deconstruct")
               - c("henneberg.deconstruct"))
    return {
        "cli.main.calls": c("cli.main"),
        "cli.main.self_s": self_t.get("cli.main", 0.0),
        "graphs.parse.calls": c("graphs.parse"),
        "graphs.parse.s": s("graphs.parse"),
        "graphs.parse.bytes_per_s": _ratio(extra_sum.get("graphs.parse", 0),
                                           s("graphs.parse")),
        "graphs.serialize.s": s("graphs.serialize"),
        "graphs.edit.calls": c("graphs.edit"),
        "graphs.edit.s": s("graphs.edit"),
        "graphs.incident.calls": c("graphs.incident"),
        "graphs.incident.s": s("graphs.incident"),
        "graphs.counts.calls": c("graphs.counts"),
        "graphs.counts.s": s("graphs.counts"),
        "sparsity.brute.calls": c("sparsity.brute"),
        "sparsity.brute.self_s": self_t.get("sparsity.brute", 0.0),
        "sparsity.brute.refused": refused,
        "sparsity.pebble.calls": c("sparsity.pebble"),
        "sparsity.pebble.s": s("sparsity.pebble"),
        "sparsity.pebble.edges_offered": extra_sum.get("sparsity.pebble", 0),
        "sparsity.pebble.edges_per_s": _ratio(
            extra_sum.get("sparsity.pebble", 0), s("sparsity.pebble")),
        "sparsity.circuit.calls": c("sparsity.circuit"),
        "sparsity.circuit.s": s("sparsity.circuit"),
        "lifts.build.calls": c("lifts.build"),
        "lifts.build.s": s("lifts.build"),
        "lifts.build.lift_edges": extra_sum.get("lifts.build", 0),
        "lifts.build.lift_vertices_max": extra_max.get("lifts.build", 0),
        "lifts.reduce.calls": c("lifts.reduce"),
        "lifts.reduce.s": s("lifts.reduce"),
        "lifts.reduce.prime_max": extra_max.get("lifts.reduce", 0),
        "lifts.cone_check.calls": c("lifts.cone_check"),
        "lifts.cone_check.self_s": self_t.get("lifts.cone_check", 0.0),
        "lifts.export.s": s("lifts.export"),
        "henneberg.tight.calls": c("henneberg.tight"),
        "henneberg.tight.s": s("henneberg.tight"),
        "henneberg.tight.per_move": _ratio(c("henneberg.tight"), moves),
        "henneberg.apply.calls": c("henneberg.apply"),
        "henneberg.apply.s": s("henneberg.apply"),
        "henneberg.construct.draw_accept": _ratio(kept_construct, draws),
        "henneberg.reverse.calls": c("henneberg.reverse"),
        "henneberg.reverse.candidates": extra_sum.get("henneberg.reverse", 0),
        "henneberg.reverse.accept": _ratio(kept_deconstruct, checked),
        "henneberg.verify.self_s": self_t.get("henneberg.verify", 0.0),
        "henneberg.construct.self_s": self_t.get("henneberg.construct", 0.0),
        "henneberg.deconstruct.self_s": self_t.get("henneberg.deconstruct",
                                                   0.0),
        "henneberg.cert_io.s": s("henneberg.cert_io"),
    }
