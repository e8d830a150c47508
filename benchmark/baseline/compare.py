#!/usr/bin/env python3
"""Compares two summaries written by the benchmark (`.bench_out/summary.json`
of two `--repeat N` runs of the same code) the way the driver judges the
benchmark: per workload and end-to-end metric, each set's spread (distance
between the quartiles over the median) must stay within the metric's bound,
and the second median may not be worse than the first by more than the bound.

usage: compare.py set-a.json set-b.json > README.md
"""
import json
import sys


def main(path_a, path_b):
    a, b = (json.load(open(p)) for p in (path_a, path_b))
    print("# First baseline: two sets of runs of the same code\n")
    for name, s in (("A", a), ("B", b)):
        print(
            f"Set {name}: seeds {s['seeds'][0]}..{s['seeds'][-1]}, {s['seconds']} s per run, "
            f"{s['threads']} threads on {s['nproc']} hardware threads, kernels {s['kernels']}, "
            f"all outputs correct: {str(s['correct']).lower()}.\n"
        )
    print(
        "`spread` is the distance between the first and third quartile of the set's\n"
        "values as a share of their median; `B worse by` is how much worse set B's\n"
        "median is than set A's, as a share of A's (negative: better). Both must stay\n"
        "within `bound`; `setup_s` is exempt from the spread rule.\n"
    )
    print("| workload | metric | median A | spread A | median B | spread B | B worse by | bound | verdict |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    all_ok = True
    for workload, wa in a["workloads"].items():
        wb = b["workloads"][workload]
        for metric, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"][metric]
            worse = (mb["median"] - ma["median"]) / ma["median"]
            if ma["better"] == "higher":
                worse = -worse
            bound = ma["bound"]
            ok = worse <= bound and (
                metric == "setup_s" or max(ma["spread"], mb["spread"]) <= bound
            )
            all_ok &= ok
            print(
                f"| {workload} | {metric} | {ma['median']:.6g} | {ma['spread']:.4f} | "
                f"{mb['median']:.6g} | {mb['spread']:.4f} | {worse:+.4f} | {bound} | "
                f"{'within' if ok else 'OUTSIDE'} |"
            )
    print(f"\nEvery pairing within its bound: {str(all_ok).lower()}.\n")
    print("## Per-layer metrics of the traced pass (one run per set, first seed)\n")
    print("| workload | metric | set A | set B | unit |")
    print("|---|---|---:|---:|---|")
    for workload, wa in a["workloads"].items():
        wb = b["workloads"][workload]
        for metric, ma in wa["per_layer"].items():
            va, vb = ma["median"], wb["per_layer"][metric]["median"]
            if va != 0 or vb != 0:
                print(f"| {workload} | {metric} | {va:.6g} | {vb:.6g} | {ma['unit']} |")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
