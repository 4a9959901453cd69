"""Run the benchmark over seeds and workloads and summarise.

    python3 perfbench/sweep.py --out runs.jsonl [--seeds 1-10] [--trace 0|1]

Run from the checkout root.  Every workload runs for run_seconds of
BENCHMARK.json once per seed.  Each run.py result is appended to the
JSON Lines file as {"workload", "seed", "trace", "result"}.  The summary
prints, per workload, every metric by name with its unit as the median
and quartiles over the runs, the spread (interquartile range over
median) against a third of the metric's bound, and failed_frac, the
failed calls over the calls attempted.  Exit status 1 means some run
printed no result or checked a wrong output.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import stats  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def summarise(records, spec, out=sys.stdout):
    """Print the per-workload table; returns False if any run failed."""
    ok = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, runs in stats.by_workload(records).items():
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        ok = ok and failed == 0
        print("%s: %d runs, failed_frac %.4f (%d of %d calls)"
              % (workload, len(runs), failed / attempted, failed, attempted),
              file=out)
        for name, unit, values in stats.metric_values(runs):
            med, q1, q3 = stats.median_quartiles(values)
            line = "  %-34s %12.5g %-6s [%.5g, %.5g]" % (name, med, unit,
                                                         q1, q3)
            if name in bounds and len(values) >= 2:
                sp = stats.spread(values)
                line += "  spread %.3f (third of bound %.3f)%s" % (
                    sp, bounds[name] / 3,
                    "" if sp < bounds[name] / 3 else "  WIDE")
            print(line, file=out)
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = stats.load_spec()
    ok = True
    records = []
    with open(args.out, "a") as fh:
        for workload in gen.WORKLOADS:
            for seed in args.seeds:
                result = run_once(workload, seed, spec["run_seconds"],
                                  args.trace)
                if result is None:
                    print("%s seed %d: no result" % (workload, seed),
                          file=sys.stderr)
                    ok = False
                    continue
                rec = {"workload": workload, "seed": seed,
                       "trace": args.trace, "result": result}
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                records.append(rec)
    ok = summarise(records, spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
