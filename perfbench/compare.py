"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Both files come from sweep.py.  For every workload in both and every
metric either reports, it prints each side's median and quartiles.  An
end-to-end metric from BENCHMARK.json gets a verdict against its bound:

    regression  the new median is worse than the base median by more
                than the bound
    unresolved  either side's spread (interquartile range over median)
                exceeds the bound, unless every new run beats every base
                run
    better      the new median is better by more than the base spread
    same        otherwise

Per-layer metrics are printed without a verdict.  Exit status 1 means
at least one regression.
"""

import sys

import stats


def verdict(metric, base, new):
    """One of regression, unresolved, better, same."""
    bound = metric["bound"]
    sign = 1 if metric["better"] == "higher" else -1
    b_med = stats.median_quartiles(base)[0]
    n_med = stats.median_quartiles(new)[0]
    worse = sign * (b_med - n_med) / abs(b_med) if b_med else 0.0
    if worse > bound:
        return "regression"
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if max(stats.spread(base), stats.spread(new)) > bound and not all_better:
        return "unresolved"
    if -worse > stats.spread(base):
        return "better"
    return "same"


def compare(base_runs, new_runs, spec, out=sys.stdout):
    """Print the comparison; returns the number of regressions."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    base_by, new_by = stats.by_workload(base_runs), stats.by_workload(new_runs)
    for workload in sorted(set(base_by) & set(new_by)):
        print(workload, file=out)
        old = {n: (u, v) for n, u, v in stats.metric_values(base_by[workload])}
        cur = {n: (u, v) for n, u, v in stats.metric_values(new_by[workload])}
        for name in sorted(set(old) & set(cur)):
            unit, base = old[name]
            new = cur[name][1]
            bm, bq1, bq3 = stats.median_quartiles(base)
            nm, nq1, nq3 = stats.median_quartiles(new)
            tag = ""
            if name in e2e:
                tag = verdict(e2e[name], base, new)
                regressions += tag == "regression"
            print("  %-34s %-6s base %.5g [%.5g, %.5g]  new %.5g [%.5g, %.5g]"
                  "  %s" % (name, unit, bm, bq1, bq3, nm, nq1, nq3, tag),
                  file=out)
    return regressions


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = (stats.load_runs(p) for p in argv)
    return 1 if compare(base, new, stats.load_spec()) else 0


if __name__ == "__main__":
    sys.exit(main())
