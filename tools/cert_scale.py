"""Seconds and traced peak of building, replaying and stripping certificates.

    python3 tools/cert_scale.py --family cone --moves 100 300 1000

For each move count N it runs three stages on one certificate, with
gainsparse imported from this checkout's src/:

    construct    random_construct(family, N, 1), so cone is over Z/3
    verify       verify_certificate of that certificate, giving its graph
    deconstruct  deconstruct of that graph

Each stage runs twice: untraced for its seconds, then under tracemalloc
for its peak of traced allocations, in MB.  A stage the library refuses
(say, a Ross graph over the brute-force budget) prints the error's class
and message, and the stages after it are skipped.  Nothing is written to
disk.
"""

import argparse
import os
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.dont_write_bytecode = True    # leave no __pycache__ in the checkout

import gainsparse as gs  # noqa: E402


def measure(fn, arg):
    """(result, seconds, traced peak in MB) of fn(arg), run twice."""
    t0 = time.perf_counter()
    out = fn(arg)
    seconds = time.perf_counter() - t0
    tracemalloc.start()
    try:
        fn(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, seconds, peak / 1e6


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--family", required=True, choices=sorted(gs.CONSTRUCTIBLE))
    ap.add_argument("--moves", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    print("%-8s %-12s %9s %9s" % ("moves", "stage", "seconds", "peak_MB"))
    for steps in args.moves:
        # each stage takes the result of the stage before it
        stages = (
            ("construct", lambda _: gs.random_construct(args.family, steps, 1)),
            ("verify", gs.verify_certificate),
            ("deconstruct", lambda g: gs.deconstruct(g, args.family)),
        )
        out = None
        for stage, fn in stages:
            try:
                out, seconds, peak = measure(fn, out)
            except gs.GainsparseError as exc:
                print("%-8d %-12s refused: %s: %s"
                      % (steps, stage, type(exc).__name__, exc))
                break
            print("%-8d %-12s %9.3f %9.2f" % (steps, stage, seconds, peak))
    return 0


if __name__ == "__main__":
    sys.exit(main())
