"""Point measurements behind the ROADMAP's baseline numbers.

    python3 perfbench/baselines.py

Run from the checkout root.  Each point builds its input with the
benchmark's generators (seed 1), times the named operation in process
and prints the median of REPEATS runs, in raw wall seconds, as JSON.
`reference_ms` is reference.measure() at the time (the nominal is
reference.REFERENCE_S), so that points taken when the machine was slow
can be told apart:

  chain-check    `check --method lift` on the Z/3 chain (v joins v-1 and
                 v-2), n = 1000 and 2000
  chain-pebble   the (2,3) pebble game alone on that chain's lift
  chain-parse    parse_colored_graph on the chain's text
  attach-pebble  the pebble game on criterion 8's Z/3 attachment shape,
                 n = 1000
  cylinder-check `check --method lift` on a 100-move cylinder certificate's
                 graph (n = 101), with its reduced prime and lift size
  cone-verify / cone-deconstruct
                 `verify` and `deconstruct` of a 100-move Z/5 cone
                 certificate (n = 101)
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import model as M  # noqa: E402
import reference  # noqa: E402
from run import WORK_ROOT  # noqa: E402
from worker import call, import_package  # noqa: E402

REPEATS = 3


def timed(fn):
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.parse_args(argv)
    lib = import_package(os.getcwd())
    work = os.path.join(WORK_ROOT, "baselines-%d" % os.getpid())
    os.makedirs(work)
    points = {}
    try:
        def write(name, text):
            path = os.path.join(work, name)
            with open(path, "w") as fh:
                fh.write(text)
            return path

        def cli_s(argv, code=0):
            def once():
                got = call(lib.cli, argv)
                if got[0] != code:
                    raise SystemExit("%s exited %r: %s" % (argv, got[0],
                                                           got[2]))
            return timed(once)

        for n in (1000, 2000):
            shape, colors = M.streams(1, "baseline", "chain", n)
            text = M.graph_text(M.Group(mod=3), range(n), gen.cone_like(
                "chain", M.Group(mod=3), n, shape, colors))
            path = write("chain%d.txt" % n, text)
            g = lib.parse_colored_graph(text)
            mg = lib.build_lift(g).multigraph()
            points["chain-check n=%d" % n] = cli_s(
                ["check", path, "--family", "cone", "--method", "lift"])
            points["chain-pebble n=%d" % n] = timed(
                lambda: lib.is_kl_sparse(mg, (2, 3)))
            points["chain-parse n=%d" % n] = timed(
                lambda: lib.parse_colored_graph(text))

        shape, colors = M.streams(1, "baseline", "attach")
        g = lib.parse_colored_graph(M.graph_text(M.Group(mod=3), range(1000),
                                    gen.cone_like("attach", M.Group(mod=3),
                                                  1000, shape, colors)))
        mg = lib.build_lift(g).multigraph()
        points["attach-pebble n=1000"] = timed(
            lambda: lib.is_kl_sparse(mg, (2, 3)))

        shape, colors = M.streams(1, "baseline", "cylinder")
        group, _, _, _, fv, fe = M.random_certificate("cylinder", 100,
                                                      shape, colors)
        path = write("cylinder.txt", M.graph_text(group, fv, fe))
        with open(path) as fh:
            reduced, primes = lib.reduce_colors(
                lib.parse_colored_graph(fh.read()))
        points["cylinder-check n=%d" % len(fv)] = cli_s(
            ["check", path, "--family", "cylinder", "--method", "lift"])
        points["cylinder prime"] = primes[0]
        points["cylinder lift vertices"] = primes[0] * len(fv)

        shape, colors = M.streams(1, "baseline", "cone")
        group, bv, be, moves, fv, fe = M.random_certificate(
            "cone", 100, shape, colors, M.Group(mod=5))
        cert = write("cone-cert.txt",
                     M.cert_text("cone", group, bv, be, moves))
        graph = write("cone-graph.txt", M.graph_text(group, fv, fe))
        points["cone-verify n=%d" % len(fv)] = cli_s(["verify", cert])
        points["cone-deconstruct n=%d" % len(fv)] = cli_s(
            ["deconstruct", graph, "--family", "cone",
             os.path.join(work, "back.txt")])
        points["reference_ms"] = statistics.median(
            reference.measure() for _ in range(9)) * 1e3
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    print(json.dumps(points, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
