#!/usr/bin/env python3
"""Exact-count check for the benchmark's traced runs.

Runs each workload twice with `--trace 1` and the same seed, and checks
that every count the workload makes deterministic (the benchmark lists
them as `exact` in its detail line) is identical in both runs. Counts
that also depend on how serve requests interleave (listed as `inexact`)
are printed with their spread instead.

    python3 perfbench/check_counts.py [--seed N] [--seconds S] [workload ...]

Run it from the repository root. Exits 1 on any mismatch.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["table1_sort", "edit_loop", "serve_mix"]
CMD = ["cargo", "run", "--offline", "--release", "--quiet",
       "--manifest-path", "perfbench/Cargo.toml", "--"]


def traced_run(workload, seed, seconds):
    out = subprocess.run(
        CMD + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True).stdout.splitlines()
    detail = json.loads(out[-2])
    result = json.loads(out[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return detail["exact"], detail["inexact"], metrics, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=3)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for w in args.workloads:
        exact, inexact, a, ra = traced_run(w, args.seed, args.seconds)
        _, _, b, rb = traced_run(w, args.seed, args.seconds)
        bad = [k for k in exact if a[k] != b[k]]
        ok &= not bad and ra["correct"] and rb["correct"]
        print(f"{w}: {len(exact)} exact counts, "
              f"{'identical' if not bad else 'MISMATCH ' + ', '.join(bad)}; "
              f"failed ops {ra['failed']} and {rb['failed']}")
        for k in bad:
            print(f"  {k}: {a[k]} vs {b[k]}")
        for k in inexact:
            print(f"  not exact: {k} = {a[k]:.6f} and {b[k]:.6f} "
                  f"(spread {abs(a[k] - b[k]):.6f})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
