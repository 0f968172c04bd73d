"""One workload in one fresh process.

Sets up (imports gridsec from the checkout's src/, writes the seeded case
files, parses them), then solves targets one at a time in a closed loop
with a single client until the time is up, timing the calibration kernel
before every solve.  Checks run after the timed loop.  Prints one JSON
object with raw measurements; run.py turns them into reported metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import calib
import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = HERE / "config.json"
CAL_WINDOW = 3


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    from gridsec import cli, grid, lp, oracle, security, tumin
    return SimpleNamespace(cli=cli, grid=grid, lp=lp, oracle=oracle,
                           security=security, tumin=tumin)


def _solve_loop(wl, targets, deadline=None, tracer=None):
    """Closed loop: raw solve seconds and results per target, and the kernel
    seconds timed before each solve and after the last one.

    Without a deadline every given target is solved once; with one, the
    targets are cycled until the deadline passes.
    """
    times, refs, results = [], [], []
    i = 0
    while True:
        target = targets[i % len(targets)]
        refs.append(calib.timed())
        t = time.perf_counter()
        try:
            if tracer is None:
                out = wl.solve(target)
            else:
                tracer.lp_solves = []
                with tracer.span("bench.solve", meter=list(target)):
                    out = wl.solve(target)
            err = None
        except Exception as exc:       # a failed solve is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t)
        lp_solves = tracer.lp_solves if tracer is not None else []
        results.append((target, out, err, lp_solves))
        i += 1
        if deadline is None and i == len(targets):
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
    refs.append(calib.timed())
    return times, refs, results


def _check(wl, results, tracer=None) -> list[str]:
    """One message per failed target (empty when every target is sound)."""
    failures = []
    for target, out, err, lp_solves in results:
        if err is None:
            try:
                if tracer is None:
                    errs = wl.check(target, out)
                else:
                    with tracer.span("bench.check", meter=list(target)):
                        errs = wl.check(target, out)
                        errs += ["verify_bfs rejected an LP basis"
                                 for pre, res in lp_solves
                                 if res.solution is not None
                                 and not wl.m.lp.verify_bfs(pre, res.solution)]
            except Exception as exc:
                errs = [f"check raised {type(exc).__name__}: {exc}"]
            err = "; ".join(errs) or None
        if err is not None:
            failures.append(f"{wl.name} target {target}: {err}")
    return failures


def tail(times: list[float], percentile: int) -> tuple[float, int]:
    """Mean of the samples beyond the highest percentile <= the requested
    one that leaves at least ten samples beyond it, and that percentile.

    A single order statistic moved by 7-13% between seeds on
    ieee14-crosscheck, whose times jump from protected targets to the
    costliest unprotected meters near the tail; the mean beyond it moved
    by 2-4%.
    """
    n = len(times)
    ordered = sorted(times)
    p = percentile
    while p > 0 and n - math.ceil(p * n / 100) < 10:
        p -= 1
    return statistics.mean(ordered[math.ceil(p * n / 100):]), p


def calibrated(times: list[float], refs: list[float], nominal: float) -> list[float]:
    """Solve times in reference seconds.

    The host's speed drifts within a run by more than the program's own
    run-to-run variation, so each solve is scaled by the median of the
    CAL_WINDOW kernel timings just before it and the CAL_WINDOW just after.
    refs[i] is timed just before solve i, so len(refs) == len(times) + 1.
    """
    return [t * nominal / statistics.median(refs[max(i - CAL_WINDOW + 1, 0):i + CAL_WINDOW + 1])
            for i, t in enumerate(times)]


def _rates(times, percentile):
    tail_s, p = tail(times, percentile)
    return {"meters_per_s": len(times) / sum(times),
            "meter_p50_s": statistics.median(times),
            "meter_tail_s": tail_s}, p


def _layers(tracer, n, scale) -> dict:
    """Per-layer metrics from the traced pass over n targets."""
    solve = tracer.totals("bench.solve")
    check = tracer.totals("bench.check")
    per_target = lambda t, name: t.seconds[name] * scale / n
    ratio = lambda a, b: a / b if b else 0.0
    pivots = solve.attrs["lp.solve_lp.pivots"]
    nodes = solve.attrs["oracle.branch_and_bound.nodes"]
    out = {
        "grid.parse_case_s": statistics.median(tracer.durations("grid.parse_case")) * scale,
        "grid.build_H_s": per_target(solve, "grid.exact_rows"),
        "grid.bdd_residual_s": per_target(check, "grid.bdd_residual"),
        "security.reduce_to_tu_s": per_target(solve, "security.reduce_to_tu"),
        "security.security_index_s": per_target(solve, "security.security_index"),
        "security.security_index_bounds_s": per_target(solve, "security.security_index_bounds"),
        "tumin.build_l1_lp_s": per_target(solve, "tumin.build_l1_lp"),
        "tumin.solve_min_support_s": per_target(solve, "tumin.solve_min_support"),
        "lp.preprocess_s": per_target(solve, "lp.preprocess"),
        "lp.solve_lp_s": per_target(solve, "lp.solve_lp"),
        "lp.simplex_s": per_target(solve, "lp.simplex"),
        "lp.verify_bfs_s": per_target(check, "lp.verify_bfs"),
        "lp.s_per_pivot": ratio(solve.seconds["lp.solve_lp"] * scale, pivots),
        "lp.pivots": ratio(pivots, solve.calls["lp.solve_lp"]),
        "lp.rows": ratio(solve.attrs["tumin.build_l1_lp.rows"], solve.calls["tumin.build_l1_lp"]),
        "lp.cols": ratio(solve.attrs["tumin.build_l1_lp.cols"], solve.calls["tumin.build_l1_lp"]),
        "lp.dropped_rows": ratio(solve.attrs["lp.preprocess.rows_in"]
                                 - solve.attrs["lp.preprocess.rows_out"],
                                 solve.calls["lp.preprocess"]),
        "oracle.milp_solve_s": per_target(solve, "oracle.milp_solve"),
        "oracle.node_lp_s": per_target(solve, "oracle.node_lp"),
        "oracle.nodes": ratio(nodes, solve.calls["oracle.milp_solve"]),
        "oracle.s_per_node": ratio(solve.seconds["oracle.milp_solve"] * scale, nodes),
    }
    for layer in ("grid", "security", "tumin", "lp", "oracle"):
        out[f"{layer}.self_s"] = solve.self_by_layer[layer] * scale / n
    return out


def _cli_layer(wl, tracer, scale) -> tuple[dict, list[str]]:
    """One jobs=1 run_batch over the unprotected ieee14 case (crosscheck only)."""
    with tracer.span("bench.cli"):
        report = wl.m.cli.run_batch(wl.instances[0].path, ("lp", "milp"), jobs=1)
    run_s = tracer.durations("bench.cli")[-1]
    got = {(e.method, e.meter): e.index for e in report.entries}
    want = {(m, k): v for m in ("lp", "milp") for k, v in checks.IEEE14_INDICES.items()}
    failures = []
    if report.mismatches or got != want:
        failures.append(f"run_batch disagrees with the published indices: {report.mismatches}")
    return {"cli.run_batch_s": run_s * scale,
            "cli.self_s": (run_s - sum(e.seconds for e in report.entries)) * scale,
            "cli.parse_calls": tracer.totals("bench.cli").calls["grid.parse_case"]}, failures


def _traced(wl, targets, nominal) -> tuple[dict, list[str], int]:
    """Traced pass over `targets`: (layer metrics, failures, attempted)."""
    from tracing import Tracer
    tracer = Tracer()
    with tracer.installed(vars(wl.m)):
        with tracer.span("bench.setup"):
            for _ in range(3):
                wl.parse()
        times, refs, results = _solve_loop(wl, targets, tracer=tracer)
        failures = _check(wl, results, tracer)
        scale = nominal / statistics.median(refs)
        attempted = len(times)
        layers = {"cli.run_batch_s": 0.0, "cli.self_s": 0.0, "cli.parse_calls": 0}
        if isinstance(wl, workloads.Ieee14Crosscheck):
            cli_layers, cli_failures = _cli_layer(wl, tracer, scale)
            layers.update(cli_layers)
            failures += cli_failures
            attempted += 1
    layers.update(_layers(tracer, len(times), scale))
    cal = calibrated(times, refs, nominal)
    layers["trace.meters_per_s"] = len(cal) / sum(cal)
    tracer.write(HERE / ".work" / f"trace-{wl.name}-seed{wl.seed}.jsonl")
    return layers, failures, attempted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="perf_counter() of the parent just before it started this process")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        modules = _import_program()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, modules)
        wl.parse()
        setup_s = time.perf_counter() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(wl, args, setup_s, json.loads(CONFIG.read_text()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(wl, args, setup_s, cfg) -> int:
    nominal = cfg["nominal_ref_s"]
    # a traced run spends half its time untraced, to compare against
    seconds = args.seconds / 2 if args.trace else args.seconds
    times, refs, results = _solve_loop(wl, wl.targets,
                                       deadline=time.perf_counter() + seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = _check(wl, results)
    e2e, p = _rates(calibrated(times, refs, nominal),
                    cfg["workloads"][wl.name]["tail_percentile"])
    raw, _ = _rates(times, p)
    e2e["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss_mb
    attempted = len(times)
    layers = {}
    if args.trace:
        layers, t_failures, t_attempted = _traced(wl, [r[0] for r in results], nominal)
        failures += t_failures
        attempted += t_attempted
        layers.update({"trace.untraced_meters_per_s": e2e["meters_per_s"],
                       "trace.overhead_ratio": layers["trace.meters_per_s"] / e2e["meters_per_s"],
                       "host.ref_s": statistics.median(refs),
                       "host.raw_meters_per_s": raw["meters_per_s"]})
    print(json.dumps({"setup_s": setup_s, "samples": len(times),
                      "ref_s": statistics.median(refs), "tail_percentile": p,
                      "e2e": e2e, "raw": raw, "layers": layers,
                      "attempted": attempted, "failed": len(failures),
                      "failures": failures[:5]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
