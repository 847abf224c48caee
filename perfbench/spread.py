#!/usr/bin/env python3
"""Runs the benchmark once per seed, one run at a time, and reports each
metric's median and spread (interquartile range over the median, the
acceptance check's statistic) plus the wall time per run.

    python3 perfbench/spread.py --workload serve_dblp --seeds 1-10 \\
        --seconds 20 [--trace 0] [--json out.json]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_lib as lib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text):
    if "-" in text:
        a, b = text.split("-")
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="write every run's result here")
    ap.add_argument("--logs", help="directory for each run's stderr")
    args = ap.parse_args()
    results, walls = [], []
    for seed in args.seeds:
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        steal = [line for line in out.stderr.splitlines() if "steal" in line]
        if args.logs:
            Path(args.logs).mkdir(parents=True, exist_ok=True)
            (Path(args.logs) / f"{args.workload}-{seed}.log").write_text(
                out.stderr)
        walls.append(time.monotonic() - t0)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            continue
        res = json.loads(out.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, "wall_s": walls[-1], **res})
        print(f"seed {seed}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"wall={walls[-1]:.1f}s {steal[-1] if steal else ''}",
              file=sys.stderr)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    names = list(results[0]["metrics"]) if results else []
    print(f"{'metric':34} {'median':>14} {'spread':>8}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        s = lib.spread(values) if len(values) >= 2 else float("nan")
        print(f"{name:34} {statistics.median(values):14.6g} {s:8.4f}")
    print(f"wall per run: median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s")


if __name__ == "__main__":
    main()
