"""Where the lift-scale benchmark's pebble games spend their search.

    python3 tools/pebble_work.py --seed 1

Builds the lift-scale plan of perfbench/gen.py for the seed in a
temporary directory, so the checkout is not written to, and runs every
`check --method lift` input of its timed items once through
gainsparse.check, with gainsparse imported from this checkout.  For each
input it prints the vertex and edge counts of the covers the call's
games played, the vertices that all pebble searches of the call reached
(the `reached` counters of its games, summed) and the seconds the call
took.  A cover is read off the game that played it, so a cylinder check
shows the cover over its small prime, and the two covers summed when it
falls back to the safe prime.  The benchmark's trace sees a lift check
only as part of `cli.main`, so this shows which inputs the search cost
sits in.
"""

import argparse
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
import worker  # noqa: E402


def lift_checks(plan):
    """(label, graph path, family) of every timed lift check."""
    for it in plan["items"]:
        argv = it["argv"]
        if argv[0] == "check" and argv[argv.index("--method") + 1] == "lift":
            yield it["label"], argv[1], argv[argv.index("--family") + 1]


def measure(gs, path, family):
    """(lift n, lift m, vertices reached, seconds) of one check; the lift
    counts are summed over the covers its games played."""
    with open(path) as fh:
        g = gs.parse_colored_graph(fh.read())
    games = []
    game_cls = gs.sparsity._PebbleGame
    real_init = game_cls.__init__

    def recording(self, *args):
        real_init(self, *args)
        games.append(self)

    game_cls.__init__ = recording
    try:
        t0 = time.perf_counter()
        gs.check(g, family, method="lift")
        dt = time.perf_counter() - t0
    finally:
        game_cls.__init__ = real_init
    # a lift game plays the arcs() of its cover; base games play a local
    # generator of the graph's edges
    covers = [game.arcs.__self__ for game in games
              if isinstance(getattr(game.arcs, "__self__", None),
                            gs.lifts.SymmetricGraph)]
    return (sum(sg.n for sg in covers), sum(sg.m for sg in covers),
            sum(game.reached for game in games), dt)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    gs = worker.import_package(ROOT)
    total_reached, total_s = 0, 0.0
    print("%-40s %8s %8s %10s %8s" % ("input", "lift_n", "lift_m",
                                      "reached", "seconds"))
    with tempfile.TemporaryDirectory(prefix="pebble-work-") as work:
        plan = gen.build("lift-scale", args.seed, work)
        for label, path, family in lift_checks(plan):
            n, m, reached, dt = measure(gs, path, family)
            total_reached += reached
            total_s += dt
            print("%-40s %8d %8d %10d %8.3f" % (label, n, m, reached, dt))
    print("%-40s %8s %8s %10d %8.3f" % ("total", "", "", total_reached,
                                        total_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
