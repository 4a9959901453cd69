"""Shared helpers for run.py, sweep.py and compare.py: run records,
quantiles."""

import json
import math
import os
import statistics

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "BENCHMARK.json")


def load_spec():
    with open(SPEC) as fh:
        return json.load(fh)


def load_runs(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def by_workload(records):
    out = {}
    for rec in records:
        out.setdefault(rec["workload"], []).append(rec)
    return out


def metric_values(runs):
    """(name, unit, values) for every metric the runs report."""
    names = {}
    for rec in runs:
        for name, m in rec["result"]["metrics"].items():
            names.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return [(n, u, v) for n, (u, v) in sorted(names.items())]


def median_quartiles(values):
    """(median, first quartile, third quartile); one value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    """Interquartile range as a share of the median."""
    med, q1, q3 = median_quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.  It moves
    smoothly when the values next to the quantile trade places, where a
    single order statistic jumps from one to the other."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64 * n
    total = mass = 0.0
    for k in range(steps):
        t = (k + 0.5) / steps
        w = math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        total += w * xs[k * n // steps]
        mass += w
    return total / mass
