#!/usr/bin/env python3
"""Compares two benchmark result sets: a parent commit's and a change's.

    python3 perfbench/bench_diff.py PARENT_DIR CHANGE_DIR

Each directory holds the `<workload>-seed<N>-trace0.json` files that
`run.py --results-dir DIR` writes. Runs are paired by workload and seed, so
make them alternately (parent seed 1, change seed 1, change seed 2, parent
seed 2, ...). One row per workload x end-to-end metric gives each side's
median and quartiles, the fraction of pairs the change wins (ties count for
neither side), and a verdict against the bounds in BENCHMARK.json:

  better      the change wins at least 9 in 10 pairs and the medians differ
              by more than the parent's own quartile spread
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  neither; "within bound" when the parent's spread is inside the
              bound, "spread > bound" when it is not

A gain does not count when more requests fail: every row of a workload on
which the change fails a larger share of its requests than the parent, or
has a run whose outputs were wrong (`correct` false), is worse.

Exits 1 when any row is worse, else 0.
"""

import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, seed): result} of the untraced results in `directory`; a
    result holds `metrics` ({name: value}), `attempted`, `failed`, `correct`."""
    runs = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        m = re.match(r"(.+)-seed(-?\d+)-trace0\.json$", os.path.basename(path))
        if not m:
            continue
        with open(path) as f:
            record = json.load(f)
        runs[(m.group(1), int(m.group(2)))] = {
            "metrics": {name: entry["value"] for name, entry in record["metrics"].items()},
            "attempted": record["attempted"], "failed": record["failed"],
            "correct": record["correct"]}
    return runs


def failing(parent, change):
    """Why the change's runs fail more than the parent's, or None; both are
    lists of results."""
    if not all(r["correct"] for r in change):
        return "change output wrong"
    share = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
             for runs in (parent, change)]
    if share[1] > share[0]:
        return "more requests fail: %.4g%% vs %.4g%%" % (share[1] * 100, share[0] * 100)
    return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent, change, metric):
    """The row for one workload x metric; `parent`/`change` are paired lists."""
    higher = metric["better"] == "higher"
    sign = 1 if higher else -1
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gain = sign * (cmed - pmed)  # > 0: the change is better
    spread = pq3 - pq1
    if wins >= 0.9 * len(parent) and gain > spread:
        verdict, note = "better", ""
    elif -gain > metric["bound"] * abs(pmed):
        verdict, note = "worse", "beyond bound %.0f%%" % (metric["bound"] * 100)
    elif pmed and spread / abs(pmed) > metric["bound"] and \
            not all(sign * (c - p) > 0 for c in change for p in parent):
        verdict, note = "unresolved", "spread > bound"
    else:
        verdict, note = "unresolved", "within bound"
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
            "delta": (cmed - pmed) / pmed if pmed else 0.0,
            "wins": wins, "pairs": len(parent), "verdict": verdict, "note": note}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(argv[1]), load(argv[2])
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("bench_diff: no (workload, seed) runs in common", file=sys.stderr)
        return 2
    workloads = sorted({w for w, _ in keys})
    print("%-16s %-14s %-28s %-28s %8s %6s  %s" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "delta", "wins",
        "verdict"))
    worse = False
    for workload in workloads:
        seeds = [s for w, s in keys if w == workload]
        fails = failing([parent[(workload, s)] for s in seeds],
                        [change[(workload, s)] for s in seeds])
        for metric in metrics:
            name = metric["name"]
            p = [parent[(workload, s)]["metrics"][name] for s in seeds]
            c = [change[(workload, s)]["metrics"][name] for s in seeds]
            row = compare(p, c, metric)
            if fails:
                row["verdict"], row["note"] = "worse", fails
            worse |= row["verdict"] == "worse"
            print("%-16s %-14s %-28s %-28s %+7.1f%% %6s  %s%s" % (
                workload, name, "%.4g/%.4g/%.4g" % row["parent"],
                "%.4g/%.4g/%.4g" % row["change"], row["delta"] * 100,
                "%d/%d" % (row["wins"], row["pairs"]), row["verdict"],
                " (%s)" % row["note"] if row["note"] else ""))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
