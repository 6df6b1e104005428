#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file is a results.jsonl that run.py appends to (one JSON object per
run: workload, seed, trace, stamp, result). For every workload and
metric it prints both medians over the runs, the change, and whether the
change is worse than the metric's bound in BENCHMARK.json. Runs whose
host/build stamps differ are not like for like: every stamp difference
is printed, and the exit code is 2.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)

    stamps = {json.dumps(r["stamp"], sort_keys=True) for r in base + new}
    mismatch = len(stamps) > 1
    if mismatch:
        print("STAMP MISMATCH: these runs come from different hosts or builds:")
        for s in sorted(stamps):
            print("  " + s)

    def medians(runs, workload, trace):
        vals = {}
        for r in runs:
            if r["workload"] == workload and r["trace"] == trace:
                for k, v in r["result"]["metrics"].items():
                    vals.setdefault(k, []).append(v["value"])
        return {k: (statistics.median(v), len(v)) for k, v in vals.items()}

    worse = 0
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            b, n = medians(base, w, trace), medians(new, w, trace)
            for k in sorted(set(b) & set(n)):
                (bm, bc), (nm, nc) = b[k], n[k]
                change = (nm - bm) / bm if bm else 0.0
                m = meta.get(k, {})
                sign = 1 if m.get("better") == "lower" else -1
                bound = m.get("bound")
                flag = ""
                if bound is not None and sign * change > bound:
                    flag = "  WORSE than bound %.2f" % bound
                    worse += 1
                print("%-16s %-44s %12.5g (n=%d) %12.5g (n=%d) %+7.1f%%%s"
                      % (w, k, bm, bc, nm, nc, 100 * change, flag))
    if mismatch:
        sys.exit(2)
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
