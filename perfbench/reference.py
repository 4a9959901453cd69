"""A fixed computation that measures how fast the machine is right now.

The machines this benchmark runs on are shared, and their speed drifts
by 20 to 40 percent over minutes: two runs of one seed a minute apart
differ that much, and the drift lasts a whole run, so no statistic over
a run's own timings removes it.  The worker therefore times this
computation right after every timed call, in the same process, and the
metrics scale each call's wall time by REFERENCE_S over the mean of the
readings just before and just after it: a figure is the time the call
would take on a machine that runs the reference in exactly REFERENCE_S.

The computation is a (2,3) pebble game over a fixed lift-shaped
multigraph, the same kind of Python work (lists, sets, dicts, short
loops) the library does.  It is the benchmark's own code and never
imports gainsparse, so no change to the library can move it.  The
cyclic garbage collector is off while it runs, so objects the library
leaves alive cannot make it slower.
"""

import gc
import time

# nominal reference time: calibrated figures read as on a machine that
# runs measure() in this many seconds
REFERENCE_S = 0.003


def _lift_chain(n, p):
    """The Z/p lift of a chain where v joins v-1 and v-2 (shift v, 2v)."""
    edges = []
    for v in range(1, n):
        for a, s in ((v - 1, 1), (max(v - 2, 0), 2)):
            for g in range(p):
                edges.append((a * p + g, v * p + (g + s * v) % p))
    return n * p, edges


_N, _EDGES = _lift_chain(200, 3)


def _pebble_game(nv, edges, k=2, l=3):
    peb = [k] * nv
    out = [[] for _ in range(nv)]
    accepted = 0
    for u, v in edges:
        while peb[u] + peb[v] < l + 1:
            if not (_grab(peb, out, u, u, v) or _grab(peb, out, v, u, v)):
                break
        if peb[u] + peb[v] >= l + 1:
            if peb[u] == 0:
                u, v = v, u
            peb[u] -= 1
            out[u].append(v)
            accepted += 1
    return accepted


def _grab(peb, out, s, x1, x2):
    seen = {x1, x2}
    prev = {}
    stack = [s]
    while stack:
        x = stack.pop()
        for y in out[x]:
            if y in seen:
                continue
            seen.add(y)
            prev[y] = x
            if peb[y] > 0:
                peb[y] -= 1
                peb[s] += 1
                c = y
                while c != s:
                    q = prev[c]
                    out[q].remove(c)
                    out[c].append(q)
                    c = q
                return True
            stack.append(y)
    return False


def measure():
    """Seconds the reference computation takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _pebble_game(_N, _EDGES)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
