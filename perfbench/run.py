"""Seeded benchmark of the gainsparse CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/gainsparse.  Workloads:
lift-scale, certificates, brute-small (see BENCHMARK.json for why each
exists).  The run writes its inputs under .perfbench-work/, starts one
worker process that imports gainsparse from src/, warms it up and calls
gainsparse.cli.main in a closed loop (one item in flight), one pass
over one variant of the inputs at a time, until S seconds and at least
100 calls are done and every variant has run equally often.  Four more
processes only import and warm up, so that setup_s is a median of five.
Every call's output is then checked.  Timings are calibrated against a
fixed reference computation measured between calls, which cancels the
machine's speed drift (see reference.py); the raw figures go to stderr.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 a second worker runs the same inputs
with spans around each layer boundary, and the object holds the
per-layer metrics and the tracing overhead instead.  Exit status is 0
only when a result was printed.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from check import Checker  # noqa: E402
from worker import import_package  # noqa: E402

SETUP_PROBES = 4
WORKER_TIMEOUT = 150
WORK_ROOT = ".perfbench-work"   # relative to the checkout root


class RunError(Exception):
    pass


def _worker(plan_path, result_path, extra, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path,
           result_path] + extra
    # a fixed string-hash seed, so every worker lays out its dicts alike
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        raise RunError("worker timed out after %ds" % timeout) from None
    if proc.returncode != 0:
        raise RunError("worker failed (exit %d): %s"
                       % (proc.returncode, proc.stderr.strip()[-400:]))
    with open(result_path) as fh:
        return json.load(fh)


def check_records(plan, records, lib):
    """(attempted, failed, first few problems)."""
    checker = Checker(plan, lib)
    problems = []
    for rec in records:
        why = checker.problem(rec)
        if why is not None:
            problems.append("item %d (%s): %s" % (
                rec[1], checker.items[rec[1]]["label"], why))
    return len(records), len(problems), problems[:10]


def end_to_end(result, setups):
    """The end-to-end metrics of one worker result.

    Every wall time is calibrated: scaled by reference.REFERENCE_S over
    the mean of the reference readings taken just before and just after
    it in the same process (see reference.py), which cancels the
    machine's speed drift.  The timings are pooled over the run, whose
    passes cover every variant of the inputs equally often.  At least
    100 calls leave 10 or more samples beyond p90.  p50 and p90 are
    Harrell-Davis estimates (see stats.hd_quantile): a few slow slots set
    p90, and a single order statistic would jump whenever two of them
    trade places from one seed to the next.  `setups` holds
    (set-up seconds, reference seconds) pairs, one per process."""
    recs = result["records"]
    lats = [rec[5] * REFERENCE_S / ((rec[8] + recs[j - 1][8]) / 2 if j
                                    else rec[8])
            for j, rec in enumerate(recs)]
    return {
        "items_per_s": len(lats) / sum(lats),
        "latency_p50_ms": stats.hd_quantile(lats, 0.5) * 1e3,
        "latency_p90_ms": stats.hd_quantile(lats, 0.9) * 1e3,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(s * REFERENCE_S / r for s, r in setups),
    }


def raw_summary(result):
    """Uncalibrated figures and the machine's speed, for the log."""
    lat = [rec[5] for rec in result["records"]]
    ref = statistics.median(rec[8] for rec in result["records"])
    return ("raw items_per_s %.4g, raw latency_p50_ms %.4g, reference "
            "%.4g ms (nominal %.4g)" % (len(lat) / sum(lat),
                                        statistics.median(lat) * 1e3,
                                        ref * 1e3, REFERENCE_S * 1e3))


def metric_units():
    """{metric name: unit} for every metric BENCHMARK.json names."""
    spec = stats.load_spec()
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def measure(workload, seed, seconds, trace, root, work):
    os.makedirs(work)
    plan = gen.build(workload, seed, work)
    plan["workdir"] = work
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    timed = ["--seconds", str(seconds)]
    main = _worker(plan_path, os.path.join(work, "main.json"), timed,
                   WORKER_TIMEOUT)
    lib = import_package(root)
    attempted, failed, problems = check_records(plan, main["records"], lib)
    print("untraced: %s" % raw_summary(main), file=sys.stderr)
    if not trace:
        setups = [(main["setup_s"], main["setup_ref_s"])]
        for k in range(SETUP_PROBES):
            probe = _worker(plan_path, os.path.join(work, "probe%d.json" % k),
                            ["--setup-only"], 60)
            setups.append((probe["setup_s"], probe["setup_ref_s"]))
        metrics = end_to_end(main, setups)
    else:
        # the keep directory is per run; the traced run refills it
        shutil.rmtree(os.path.join(work, "keep"))
        prefix = os.path.join(work, "spans")
        traced = _worker(plan_path, os.path.join(work, "traced.json"),
                         timed + ["--trace", prefix], WORKER_TIMEOUT)
        print("traced: %s" % raw_summary(traced), file=sys.stderr)
        a2, f2, p2 = check_records(plan, traced["records"], lib)
        attempted, failed, problems = (attempted + a2, failed + f2,
                                       problems + p2)
        metrics = spans.layer_metrics(spans.Spans(prefix))
        plain_ips = end_to_end(main, [(1.0, 1.0)])["items_per_s"]
        traced_ips = end_to_end(traced, [(1.0, 1.0)])["items_per_s"]
        metrics["trace.items_per_s"] = traced_ips
        metrics["trace.untraced_items_per_s"] = plain_ips
        metrics["trace.overhead_frac"] = plain_ips / traced_ips - 1.0
    for p in problems:
        print("FAILED %s" % p, file=sys.stderr)
    units = metric_units()
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gainsparse", "cli.py")):
        print("error: run from a checkout root holding src/gainsparse",
              file=sys.stderr)
        return 2
    work = os.path.join(WORK_ROOT, "%s-%d-%d-%d" % (
        args.workload, args.seed, os.getpid(), time.time_ns()))
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), root, work)
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
