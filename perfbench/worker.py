"""One workload process: import gainsparse, warm up, run timed passes.

    python3 perfbench/worker.py PLAN RESULT [--seconds S] [--setup-only]
                                [--trace SPANS]

Runs from the checkout root and imports gainsparse from its src/
directory, never from anywhere else.  Each item is one in-process call
of gainsparse.cli.main with stdout and stderr captured; only that call
is timed, and reference.measure() runs right after it so the metrics
can correct for the machine's speed drift.  Pass k runs the items of
variant k mod the number of variants.  Passes run until S seconds have
gone by, MIN_ITEMS calls are done and every variant has run equally
often.  Written output files are digested after each call and removed,
except the first call's, which is kept for the checker.  The result
JSON holds setup time, peak RSS and one record per call.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import reference

# a p90 with ten samples beyond it
MIN_ITEMS = 100


def import_package(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gainsparse", "__init__.py")):
        raise SystemExit("no gainsparse sources under %s" % src)
    sys.path.insert(0, src)
    import gainsparse
    import gainsparse.cli
    where = os.path.realpath(gainsparse.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit("gainsparse imported from %s, not %s" % (where, src))
    return gainsparse


def call(cli, argv):
    """(exit code, stdout, stderr, seconds, exception text or None)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception:
            code = None
            exc = traceback.format_exc(limit=4)
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt, exc


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def run(plan, seconds, keep_dir, tracer=None):
    """Timed passes; returns the call records [pass, item id, exit code,
    stdout, stderr, seconds, digests, exception, reference seconds]."""
    import gainsparse.cli as cli
    variants = {}
    for it in plan["items"]:
        variants.setdefault(it["variant"], []).append(it)
    cycle = [variants[k] for k in sorted(variants)]
    records = []
    seen = set()
    began = time.perf_counter()
    passes = 0
    while True:
        for it in cycle[passes % len(cycle)]:
            if tracer is not None:
                tracer.item = len(records)
            code, out, err, dt, exc = call(cli, it["argv"])
            ref = reference.measure()
            digests = []
            for k, path in enumerate(it["outputs"]):
                digests.append(_digest(path))
                if it["id"] not in seen and digests[-1] is not None:
                    os.replace(path, os.path.join(keep_dir,
                                                  "%d.%d" % (it["id"], k)))
                elif digests[-1] is not None:
                    os.remove(path)
            seen.add(it["id"])
            records.append([passes, it["id"], code, out, err, dt, digests,
                            exc, ref])
        passes += 1
        if (time.perf_counter() - began >= seconds
                and len(records) >= MIN_ITEMS
                and passes % len(cycle) == 0):
            return records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("plan")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", help="write spans to this path prefix")
    args = ap.parse_args(argv)
    with open(args.plan) as fh:
        plan = json.load(fh)

    t0 = time.perf_counter()
    package = import_package(os.getcwd())
    for it in plan["warmup"]:
        call(package.cli, it["argv"])
    setup_s = time.perf_counter() - t0
    refs = sorted(reference.measure() for _ in range(3))
    result = {"setup_s": setup_s, "setup_ref_s": refs[1]}

    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer, package)
        keep = os.path.join(plan["workdir"], "keep")
        os.makedirs(keep, exist_ok=True)
        result["records"] = run(plan, args.seconds, keep, tracer)
        if tracer is not None:
            tracer.save(args.trace)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
