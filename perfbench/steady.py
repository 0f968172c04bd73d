"""Steadiness check: one run per seed, spread of each metric across runs.

    python3 perfbench/steady.py --workload grid42-lp --seeds 1-10 [--seconds 30]

Per seed prints the timed samples and the tail percentile the run used.
For every end-to-end metric prints the median and the spread, the distance
between the first and third quartiles over the median, both for the
calibrated value and for the raw wall-clock value.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args(argv)
    first, last = (int(v) for v in args.seeds.split("-"))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=seconds + 400)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        raw = json.loads(next(l for l in lines if l.startswith("raw "))
                         .split(" ", 2)[2])
        head = next(l for l in lines if l.startswith("== "))
        tail = re.search(r"(\d+) timed targets, tail at (p\d+( \(fell back from p\d+\))?)", head)
        runs.append((seed, result, raw))
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} "
              f"samples {tail[1]} tail {tail[2]} {vals}", flush=True)
    print(f"{'metric':<14} {'bound':>6} {'median':>10} {'spread':>8} "
          f"{'raw median':>10} {'raw spread':>10}")
    for m in spec["end_to_end"]:
        cal = [r[1]["metrics"][m["name"]]["value"] for r in runs]
        raw = [r[2][m["name"]] for r in runs]
        print(f"{m['name']:<14} {m['bound']:>6} {statistics.median(cal):>10.5g} "
              f"{spread(cal):>8.4f} {statistics.median(raw):>10.5g} {spread(raw):>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
