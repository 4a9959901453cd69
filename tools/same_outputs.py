"""Do two source trees give byte-identical benchmark outputs?

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE --seeds 1 [2 ...]
        [--workload NAME ...]

Each tree is a checkout root holding src/gainsparse.  For every seed and
every workload of perfbench/gen.py (or only each one named with
--workload, which repeats) the plan is built once, here, with
this checkout's perfbench.  Each tree then runs every warm-up and timed
item of the plan once, in a subprocess of its own that imports
gainsparse from that tree (perfbench/worker.import_package) and calls
gainsparse.cli.main through perfbench/worker.call.  The two runs are
compared call by call: exit code, stdout, stderr, the last line of any
exception, and a SHA-256 of every output file.  Prints the items that
differ and the number of calls compared; exits 1 if any differ.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
sys.path.insert(0, PERFBENCH)

import gen  # noqa: E402
import worker  # noqa: E402


def run_items(tree, plan_path, out_path):
    """Child side: run every item of the plan once against tree."""
    package = worker.import_package(tree)
    with open(plan_path) as fh:
        items = json.load(fh)
    records = []
    for it in items:
        code, out, err, _, exc = worker.call(package.cli, it["argv"])
        digests = []
        for path in it["outputs"]:
            digests.append(worker._digest(path))
            if digests[-1] is not None:
                os.remove(path)
        last = exc.strip().splitlines()[-1] if exc else None
        records.append([code, out, err, last, digests])
    with open(out_path, "w") as fh:
        json.dump(records, fh)


def _run_tree(tree, plan_path, out_path):
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                    tree, plan_path, out_path], check=True, env=env)
    with open(out_path) as fh:
        return json.load(fh)


def compare(parent, change, seeds, work, workloads):
    """(calls compared, labels of the items that differ)."""
    calls, differ = 0, []
    for seed in seeds:
        for workload in workloads:
            wdir = os.path.join(work, "%s-%d" % (workload, seed))
            plan = gen.build(workload, seed, wdir)
            items = plan["warmup"] + plan["items"]
            plan_path = os.path.join(wdir, "items.json")
            with open(plan_path, "w") as fh:
                json.dump(items, fh)
            runs = [_run_tree(tree, plan_path,
                              os.path.join(wdir, "%s.json" % side))
                    for side, tree in (("parent", parent),
                                       ("change", change))]
            kinds = (["warm-up"] * len(plan["warmup"])
                     + ["variant %d" % it["variant"] for it in plan["items"]])
            for it, kind, a, b in zip(items, kinds, *runs):
                calls += 1
                if a != b:
                    differ.append("%s seed %d %s: %s" % (
                        workload, seed, kind, it["label"]))
    return calls, differ


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        run_items(*argv[1:])
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workload", action="append", choices=gen.WORKLOADS,
                    help="compare only this workload; repeat for more "
                         "(default: all)")
    args = ap.parse_args(argv)
    trees = [os.path.abspath(t) for t in (args.parent, args.change)]
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as work:
        calls, differ = compare(trees[0], trees[1], args.seeds, work,
                                args.workload or gen.WORKLOADS)
    for line in differ:
        print("DIFFERS %s" % line)
    print("%d calls compared, %d differ" % (calls, len(differ)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
