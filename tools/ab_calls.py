"""In-process A/B of two source trees on one benchmark plan.

    python3 tools/ab_calls.py PARENT_TREE CHANGE_TREE [--workload NAME]...
        --rounds N [--seed S]

Each tree is a checkout root holding src/gainsparse.  The plan of the
workload (perfbench/gen.py, seed S, default 1) is built once, here, with
this checkout's perfbench, in a temporary directory.  Each round runs
each tree's whole plan once, every warm-up item untimed and then every
timed item of every variant, in a fresh process of its own that imports
gainsparse from that tree (perfbench/worker.import_package) and calls
gainsparse.cli.main through perfbench/worker.call; which tree goes
first alternates from round to round.  A process sums the seconds of
its timed calls and of the perfbench/reference.measure() reading taken
right after each call, so its figure, calls over references, is free of
the machine's speed drift as the benchmark's metrics are.  A round's
ratio is the change's figure over the parent's: below 1 the change ran
faster.  Prints every round's ratio, the median ratio with its
quartiles, and in how many rounds the change was faster.  --workload may
repeat; without it every workload runs, one after another.

It also prints, per tree, the median seconds of one whole cycle (every
timed call plus its reference reading, which is what the benchmark's
worker spends per cycle but for its output digests) and the number of
timings a run of BENCHMARK.json's run_seconds would pool at that speed:
the worker stops at the first whole cycle after run_seconds, with at
least worker.MIN_ITEMS calls.  From HD_LIMIT pooled timings on,
perfbench/stats.hd_quantile underflows (a wrong p50 first, then
ZeroDivisionError), so a count at or above it is flagged.  Each tree's
headroom is cycle_s * kmax / run_seconds, where kmax = (HD_LIMIT - 1)
// calls is the most whole cycles a run may pool below HD_LIMIT: how
many times faster the machine could run this tree before its benchmark
run pools HD_LIMIT timings.  Below 1.0 it already does.  The run ends
with one summary line per workload: its median ratio, both trees'
pooled-timing counts and headrooms, and any such warning.

Only the standard library runs; perfbench is imported and not changed,
and no bytecode or output file is written into either tree.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True

import gen  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402

# pooled timings from which stats.hd_quantile goes wrong
HD_LIMIT = 1075


def run_plan(tree, plan_path, out_path):
    """Child side: one pass of the plan against tree; writes the summed
    call seconds and reference seconds."""
    package = worker.import_package(tree)
    with open(plan_path) as fh:
        plan = json.load(fh)
    for it in plan["warmup"]:
        worker.call(package.cli, it["argv"])
        _remove(it["outputs"])
    calls = refs = 0.0
    for it in plan["items"]:
        calls += worker.call(package.cli, it["argv"])[3]
        refs += reference.measure()
        _remove(it["outputs"])
    with open(out_path, "w") as fh:
        json.dump({"calls": len(plan["items"]), "call_s": calls,
                   "ref_s": refs}, fh)


def _remove(paths):
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _run_tree(tree, plan_path, out_path):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                    tree, plan_path, out_path], check=True, env=env)
    with open(out_path) as fh:
        return json.load(fh)


def pooled(cycle_s, calls, run_s):
    """Timings a run of run_s seconds pools when a whole cycle of
    `calls` calls takes cycle_s seconds."""
    return calls * max(math.ceil(run_s / cycle_s),
                       math.ceil(worker.MIN_ITEMS / calls))


def headroom(cycle_s, calls, run_s):
    """How many times faster a cycle of `calls` calls, now cycle_s
    seconds, could run before a run of run_s seconds pools HD_LIMIT."""
    return cycle_s * ((HD_LIMIT - 1) // calls) / run_s


def rounds(parent, change, workload, seed, count, work):
    """Yield (round, {side: the child's result}) for side "parent" and
    "change"."""
    plan = gen.build(workload, seed, os.path.join(work, "plan"))
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    out_path = os.path.join(work, "result.json")
    for r in range(count):
        order = [("parent", parent), ("change", change)]
        if r % 2:
            order.reverse()
        yield r, {side: _run_tree(tree, plan_path, out_path)
                  for side, tree in order}


def ab_workload(trees, workload, seed, count, run_s):
    """A/B one workload and print its rounds and per-tree cycles; return
    its summary line."""
    ratios = []
    cycles = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-calls-") as work:
        for r, res in rounds(trees[0], trees[1], workload, seed, count, work):
            p, c = (res[side]["call_s"] / res[side]["ref_s"]
                    for side in ("parent", "change"))
            ratios.append(c / p)
            for side in cycles:
                cycles[side].append(res[side]["call_s"] + res[side]["ref_s"])
            print("%s round %d: parent %.3f change %.3f ratio %.3f"
                  % (workload, r + 1, p, c, ratios[-1]), flush=True)
    calls = res["parent"]["calls"]
    quart = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
             else [ratios[0]] * 3)
    median = ("median change/parent ratio %.3f (quartiles %.3f-%.3f); "
              "change faster in %d of %d rounds"
              % (statistics.median(ratios), quart[0], quart[2],
                 sum(x < 1 for x in ratios), len(ratios)))
    print("%s: %s" % (workload, median))
    pools, rooms = {}, {}
    for side, secs in cycles.items():
        cycle_s = statistics.median(secs)
        pools[side] = pooled(cycle_s, calls, run_s)
        rooms[side] = headroom(cycle_s, calls, run_s)
        print("%s %s: %.3f s per whole cycle of %d calls; a %g s run pools "
              "%d timings; headroom %.2f" % (workload, side, cycle_s, calls,
                                             run_s, pools[side], rooms[side]))
    warn = ["WARNING: %s would pool %d timings, at or above the %d from "
            "which stats.hd_quantile goes wrong" % (side, n, HD_LIMIT)
            for side, n in pools.items() if n >= HD_LIMIT]
    for line in warn:
        print("%s %s" % (workload, line))
    return "; ".join(["%s: %s; pooled timings parent %d, change %d; "
                      "headroom parent %.2f, change %.2f"
                      % (workload, median, pools["parent"], pools["change"],
                         rooms["parent"], rooms["change"])] + warn)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        run_plan(*argv[1:])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", choices=gen.WORKLOADS,
                    help="may repeat; every workload when not given")
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    trees = [os.path.abspath(t) for t in (args.parent, args.change)]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_s = json.load(fh)["run_seconds"]
    summary = [ab_workload(trees, workload, args.seed, args.rounds, run_s)
               for workload in args.workload or gen.WORKLOADS]
    print("summary:")
    for line in summary:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
