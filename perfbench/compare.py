#!/usr/bin/env python3
"""Compare two sets of benchmark result records (parent vs change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records perfbench/run.py writes (by default to
.bench_build/perfbench/results/), one per run; every run contributes
its median of each end-to-end metric.  For each workload x metric the
tool prints both sides' median and quartiles, the change's relative
difference, and the fraction of parent/change pairs the change wins
(pairs share a seed when both sides ran it, else they pair in run
order; ties count for neither).  Verdicts, with the bound taken from
BENCHMARK.json:

  REGRESSED   the change's median is worse than the parent's by more
              than the bound
  unresolved  the parent's own quartile spread exceeds the bound, and
              not every change run beats every parent run
  improved    the change wins at least 9 of 10 pairs and the medians
              differ by more than the parent's quartile spread
  same        otherwise

Records from different hosts, builds or CPU counts are refused; runs
of different seeds or lengths are compared with a warning on stderr.
Exit status: 0, or 1 when anything regressed, or 2 on refused or
missing input.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path, trace):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) \
        if os.path.isdir(path) else [path]
    records = []
    for name in files:
        with open(name) as f:
            rec = json.load(f)
        if rec.get("provenance", {}).get("trace") == trace:
            records.append(rec)
    return records


def box(rec):
    p = rec["provenance"]
    return (p["host"].get("machine"), p["host"].get("release"),
            p["build"].get("compiler"), p["nproc"])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(parent, change):
    """(parent value, change value) pairs, matched by seed first."""
    by_seed = {}
    for seed, v in change:
        by_seed.setdefault(seed, []).append(v)
    matched, left_p = [], []
    for seed, v in parent:
        if by_seed.get(seed):
            matched.append((v, by_seed[seed].pop(0)))
        else:
            left_p.append(v)
    left_c = [v for vs in by_seed.values() for v in vs]
    return matched + list(zip(left_p, left_c))


def verdict(pvals, cvals, better, bound, wins, npairs):
    pmed, cmed = statistics.median(pvals), statistics.median(cvals)
    q1, q3 = quartiles(pvals)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (cmed - pmed)
    scale = abs(pmed) if pmed else 1.0
    beats_all = all(sign * (c - p) < 0 for p in pvals for c in cvals)
    if (q3 - q1) > bound * scale and not beats_all:
        return "unresolved"
    if worse > bound * scale:
        return "REGRESSED"
    if npairs and wins >= 0.9 * npairs and -worse > (q3 - q1):
        return "improved"
    return "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    parent, change = load(args.parent, 0), load(args.change, 0)
    if not parent or not change:
        print("compare: no untraced result records on one side", file=sys.stderr)
        return 2
    boxes = {box(r) for r in parent + change}
    if len(boxes) > 1:
        print("compare: records come from different hosts/builds/nproc:",
              file=sys.stderr)
        for b in sorted(boxes, key=str):
            print(f"  {b}", file=sys.stderr)
        return 2

    workloads = [w["name"] for w in spec["workloads"]]
    header = (f"{'workload':16} {'metric':22} {'unit':8} {'parent median [q1..q3]':34}"
              f" {'change median [q1..q3]':34} {'delta':>8} {'wins':>6}  verdict")
    print(header)
    print("-" * len(header))
    regressed = False
    for w in workloads:
        prec = [r for r in parent if r["provenance"]["workload"] == w]
        crec = [r for r in change if r["provenance"]["workload"] == w]
        if not prec or not crec:
            print(f"{w:16} (no records on {'parent' if not prec else 'change'} side)")
            continue
        for key in ("seed", "seconds"):
            ps = sorted(r["provenance"][key] for r in prec)
            cs = sorted(r["provenance"][key] for r in crec)
            if ps != cs:
                print(f"compare: {w}: parent {key}s {ps} differ from "
                      f"change {key}s {cs}", file=sys.stderr)
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [(r["provenance"]["seed"], r["metrics"][name]["value"])
                  for r in prec if name in r["metrics"]]
            cv = [(r["provenance"]["seed"], r["metrics"][name]["value"])
                  for r in crec if name in r["metrics"]]
            if not pv or not cv:
                continue
            pvals, cvals = [v for _, v in pv], [v for _, v in cv]
            sign = 1.0 if m["better"] == "lower" else -1.0
            pp = pairs(pv, cv)
            wins = sum(1 for p, c in pp if sign * (c - p) < 0)
            v = verdict(pvals, cvals, m["better"], m["bound"], wins, len(pp))
            regressed = regressed or v == "REGRESSED"
            pmed, cmed = statistics.median(pvals), statistics.median(cvals)
            pq, cq = quartiles(pvals), quartiles(cvals)
            delta = 100.0 * (cmed / pmed - 1.0) if pmed else 0.0
            print(f"{w:16} {name:22} {m['unit']:8} "
                  f"{f'{pmed:.5g} [{pq[0]:.5g}..{pq[1]:.5g}]':34} "
                  f"{f'{cmed:.5g} [{cq[0]:.5g}..{cq[1]:.5g}]':34} "
                  f"{delta:+7.2f}% {wins:>3}/{len(pp):<2}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
