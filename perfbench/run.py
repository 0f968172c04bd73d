"""Benchmark entry point.

    python3 perfbench/run.py --workload grid42-lp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, in turn

Each workload runs in a fresh worker process (worker.py), after a few
setup-only processes whose median set-up time is reported as setup_s.
Times are in reference seconds: solve times are raw seconds scaled by
nominal_ref_s (config.json) over the calibration-kernel time around them,
and set-up times by nominal_setup_ref_s over the median time of fresh
calib.py processes run between the set-ups.
The last line of standard output is one JSON object; with --trace 0 its
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKER_GRACE_S = 150
SETUP_PROBES = 8


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh process; its last stdout line as JSON."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(WORKER), *args, "--t0", repr(t0)],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_ref() -> float:
    """Wall seconds of one fresh calib.py process (the set-up reference)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "calib.py")], cwd=ROOT, check=True,
                   capture_output=True, timeout=WORKER_GRACE_S)
    return time.perf_counter() - t0


def run_workload(name: str, seed: int, seconds: int, trace: int, nominal_setup_s: float) -> dict:
    base = ["--workload", name, "--seed", str(seed),
            "--workdir", str(HERE / ".work" / f"{name}-{os.getpid()}")]
    # Set-up is mostly starting an interpreter and loading modules, which the
    # in-process kernel does not track, so set-ups are scaled by reference
    # processes that alternate with them.  The first set-up pays for writing
    # bytecode caches; it is not counted.
    probes, refs = [], []
    for _ in range(SETUP_PROBES + 1):
        refs.append(_setup_ref())
        probes.append(_worker(base + ["--setup-only"], WORKER_GRACE_S))
    refs.append(_setup_ref())
    probes, refs = probes[1:], refs[1:]
    report = _worker(base + ["--seconds", str(seconds), "--trace", str(trace)],
                     seconds + WORKER_GRACE_S)
    probes.append(report)
    setup_raw = statistics.median(p["setup_s"] for p in probes)
    report["setup_ref_s"] = statistics.median(refs)
    report["e2e"]["setup_s"] = setup_raw * nominal_setup_s / report["setup_ref_s"]
    report["raw"]["setup_s"] = setup_raw
    return report


def _metrics(report: dict, specs: list[dict], source: str) -> dict:
    values = report[source]
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def _summary(name: str, report: dict, metrics: dict, tail_cap: int) -> None:
    attempted, failed = report["attempted"], report["failed"]
    p = report["tail_percentile"]
    fallback = f" (fell back from p{tail_cap})" if p != tail_cap else ""
    print(f"== {name}: {report['samples']} timed targets, tail at "
          f"p{p}{fallback}, calibration {report['ref_s']:.6f} s, "
          f"set-up reference {report['setup_ref_s']:.6f} s")
    for metric, m in metrics.items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(f"{name} failed_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for msg in report["failures"]:
        print(f"  FAILED {msg}")
    print(f"raw {name} " + json.dumps(report["raw"], sort_keys=True))


def main(argv=None) -> int:
    cfg = json.loads((HERE / "config.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=cfg["default_seed"])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    missing = [p for p in ("src/gridsec/__init__.py", "cases/ieee14.case")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: program files missing from {ROOT}: {missing}", file=sys.stderr)
        return 2

    specs, source = ((spec["per_layer"], "layers") if args.trace
                     else (spec["end_to_end"], "e2e"))
    chosen = names if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in chosen:
            report = run_workload(name, args.seed, args.seconds, args.trace,
                                  cfg["nominal_setup_ref_s"])
            metrics = _metrics(report, specs, source)
            _summary(name, report, metrics,
                     cfg["workloads"][name]["tail_percentile"])
            result["attempted"] += report["attempted"]
            result["failed"] += report["failed"]
            prefix = "" if len(chosen) == 1 else f"{name}."
            result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
