"""Command-line front end and batch index computation.

Subcommands:

  solve      index of one meter (lp, mincut, milp, exhaustive, or bounds)
  attack     witness attack vector for one meter, as JSON
  verify-tu  test the flow constraint matrix for total unimodularity
  bench      all unprotected flow meters, optionally cross-checked
             between methods, emitted as CSV or JSON

Exit codes: 0 success, 1 usage, 2 parse or validation failure,
3 infeasible target, 4 internal mismatch (methods disagree, an exact
invariant broke, or a solver defect).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

from .errors import (
    CapExceeded,
    GridsecError,
    InfeasibleIndex,
    MethodUnavailable,
    ParseError,
    SolverDefect,
)
from .grid import MeasurementSystem, Network, flow_rows, parse_case
from .oracle import exhaustive_min_support, milp_solve
from .security import (
    SecurityIndexResult,
    _flow_target,
    mincut_index,
    security_index,
    security_index_bounds,
)
from .tumin import verify_tu

CSV_HEADER = "meter,index,method,seconds"


def _exhaustive(net: Network, meas: MeasurementSystem, k: int) -> SecurityIndexResult:
    """Index of flow meter k by subset enumeration (no witness)."""
    t0 = time.perf_counter()
    _flow_target(meas, k)
    value = exhaustive_min_support(flow_rows(net, meas), k, meas.protected)
    if value is None:
        raise InfeasibleIndex(k)
    return SecurityIndexResult(meter=k, index=value, attack=None, method="exhaustive",
                               bounds=(value, value),
                               solve_time=time.perf_counter() - t0)


# every solve method by its command-line name
METHODS: dict[str, Callable[[Network, MeasurementSystem, int], SecurityIndexResult]] = {
    "lp": security_index,
    "mincut": mincut_index,
    "milp": milp_solve,
    "exhaustive": _exhaustive,
    "bounds": security_index_bounds,
}
# bounds bracket the index instead of solving it, so bench cannot cross-check them
BATCH_METHODS = tuple(m for m in METHODS if m != "bounds")
# a solver defect, or a bug outside the package's checks: exit 4, or one failed batch cell
INTERNAL_ERRORS = (SolverDefect, AssertionError)


@dataclass(frozen=True)
class MeterEntry:
    meter: int
    method: str
    index: int | None        # None marks an infeasible target, a capped or a failed cell
    seconds: float
    error: str | None = None  # why the cell failed (an internal error), else None
    capped: bool = False      # the solve used up its work cap without an answer


@dataclass(frozen=True)
class BatchReport:
    case: str
    entries: tuple[MeterEntry, ...]

    @property
    def mismatches(self) -> tuple[int, ...]:
        """Meters whose answered cells (neither failed nor capped) disagree,
        ascending."""
        by_meter: dict[int, set] = {}
        for e in self.entries:
            if e.error is None and not e.capped:
                by_meter.setdefault(e.meter, set()).add(e.index)
        return tuple(sorted(k for k, vals in by_meter.items() if len(vals) > 1))

    @property
    def failures(self) -> tuple[MeterEntry, ...]:
        """Cells whose solve failed with an internal error."""
        return tuple(e for e in self.entries if e.error is not None)

    @property
    def totals(self) -> dict[str, float]:
        """Wall-clock seconds summed per method."""
        out: dict[str, float] = {}
        for e in self.entries:
            out[e.method] = out.get(e.method, 0.0) + e.seconds
        return out

    @property
    def capped(self) -> tuple[MeterEntry, ...]:
        """Cells whose solve used up its work cap."""
        return tuple(e for e in self.entries if e.capped)

    @property
    def sorted_indices(self) -> dict[str, tuple]:
        """Per method, the index multiset of the cells that answered (neither
        failed nor capped), in ascending order (None, an infeasible target,
        last)."""
        out: dict[str, list] = {}
        for e in self.entries:
            if e.error is None and not e.capped:
                out.setdefault(e.method, []).append(e.index)
        return {m: tuple(sorted(v, key=lambda x: (x is None, x if x is not None else 0)))
                for m, v in out.items()}

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "entries": [
                {"meter": e.meter, "method": e.method,
                 "index": e.index, "seconds": e.seconds, "error": e.error,
                 "capped": e.capped}
                for e in self.entries
            ],
            "mismatches": list(self.mismatches),
            "totals": self.totals,
            "sorted_indices": {m: list(v) for m, v in self.sorted_indices.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BatchReport":
        entries = tuple(
            MeterEntry(int(e["meter"]), str(e["method"]),
                       None if e["index"] is None else int(e["index"]),
                       float(e["seconds"]), e.get("error"), bool(e.get("capped", False)))
            for e in data["entries"]
        )
        return cls(str(data["case"]), entries)


def _solve_one(case: tuple[Network, MeasurementSystem], method: str, k: int) -> MeterEntry:
    """One (meter, method) cell of a parsed case.  An internal error fails
    this cell only, and a used-up work cap caps it only."""
    net, meas = case
    t0 = time.perf_counter()
    try:
        res = METHODS[method](net, meas, k)
    except InfeasibleIndex:
        return MeterEntry(k, method, None, time.perf_counter() - t0)
    except CapExceeded:
        return MeterEntry(k, method, None, time.perf_counter() - t0, capped=True)
    except INTERNAL_ERRORS as exc:
        return MeterEntry(k, method, None, time.perf_counter() - t0,
                          f"{type(exc).__name__}: {exc}")
    return MeterEntry(k, method, res.index, res.solve_time)


def _solve_chunk(case: tuple[Network, MeasurementSystem], cells) -> list[MeterEntry]:
    """Consecutive (method, meter) cells of a parsed case.  A worker process
    gets the case pickled once with its whole chunk, so the cells share one
    system and what it keeps (grid.metering)."""
    return [_solve_one(case, method, k) for method, k in cells]


def _batch_methods(methods) -> tuple[str, ...]:
    """methods as a tuple, once it names batch methods, at least one and
    none twice; MethodUnavailable otherwise."""
    methods = tuple(methods)
    if not methods or len(set(methods)) < len(methods) or not set(methods) <= set(BATCH_METHODS):
        raise MethodUnavailable(f"need distinct methods of {','.join(BATCH_METHODS)}, "
                                f"got {','.join(methods) or 'none'}")
    return methods


def run_batch(case_path, methods=("lp",), jobs: int | None = None) -> BatchReport:
    """Index of every unprotected flow meter, per method, cross-checked.

    The case is parsed once.  jobs > 1 splits the (method, meter) grid
    into one contiguous chunk per worker process, at most one per CPU; the
    default is the machine's CPU count.  Entries come out in the same
    order whatever the job count.  Meters where the methods give different
    answers are the report's `mismatches`; a cell that fails with an
    internal error records it, and a cell whose solve uses up its work cap
    (CapExceeded) is marked capped; neither takes part in that comparison,
    and the other cells still run.
    """
    case_path = str(case_path)
    methods = _batch_methods(methods)
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cpus = os.cpu_count() or 1
    jobs = cpus if jobs is None else min(jobs, cpus)
    case = parse_case(case_path)
    meas = case[1]
    targets = [k for k in range(1, len(meas.flow_meters) + 1)
               if k not in meas.protected]
    cells = [(method, k) for method in methods for k in targets]
    workers = min(jobs, len(cells))
    if workers > 1:
        # imported only here: the pool's multiprocessing stack would add
        # about 2 MB to every process that imports gridsec
        from concurrent.futures import ProcessPoolExecutor
        cuts = [len(cells) * w // workers for w in range(workers + 1)]
        chunks = [cells[a:b] for a, b in zip(cuts, cuts[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_solve_chunk, [case] * workers, chunks)
            entries = [e for part in parts for e in part]
    else:
        entries = _solve_chunk(case, cells)
    return BatchReport(case_path, tuple(entries))


def emit(report: BatchReport, fmt: str = "csv") -> str:
    """Render a report; CSV rows are sorted by (method, index, meter)."""
    if fmt == "csv":
        rows = sorted(report.entries,
                      key=lambda e: (e.method, e.index is None,
                                     e.index if e.index is not None else 0, e.meter))
        lines = [CSV_HEADER]
        for e in rows:
            idx = "" if e.index is None else str(e.index)
            lines.append(f"{e.meter},{idx},{e.method},{e.seconds:.6f}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def load_report(source) -> BatchReport:
    """Read a JSON report back (path or open file)."""
    if hasattr(source, "read"):
        data = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    return BatchReport.from_dict(data)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; 2 is reserved for case parse/validation errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _whole(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, got {text!r}")
    return int(text)


def _method_list(text: str) -> tuple[str, ...]:
    try:
        return _batch_methods(m.strip() for m in text.split(",") if m.strip())
    except MethodUnavailable as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridsec",
                     description="Exact security indices for DC state estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="index of one meter")
    p.add_argument("case")
    p.add_argument("-k", "--meter", type=int, required=True)
    p.add_argument("--method", choices=tuple(METHODS), default="lp")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("attack", help="witness attack vector as JSON")
    p.add_argument("case")
    p.add_argument("-k", "--meter", type=int, required=True)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("verify-tu", help="check flow rows for total unimodularity")
    p.add_argument("case")
    p.add_argument("--max-order", type=_whole, default=3)
    p.set_defaults(func=_cmd_verify_tu)

    p = sub.add_parser("bench", help="index every unprotected flow meter")
    p.add_argument("case")
    p.add_argument("--methods", type=_method_list, default="mincut",
                   help=f"comma-separated subset of {','.join(BATCH_METHODS)}")
    p.add_argument("--jobs", type=_whole, default=None,
                   help="worker processes (at least 1, capped at the CPU count)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_bench)
    return parser


def _write(text: str, out: str | None) -> None:
    """text to the file out, or to stdout when out is not given."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise GridsecError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    net, meas = parse_case(args.case)
    k = args.meter
    res = METHODS[args.method](net, meas, k)
    if res.index is None:
        lo, hi = res.bounds
        print(f"meter={k} bounds={lo},{hi} method={args.method} "
              f"seconds={res.solve_time:.6f}")
    else:
        print(f"meter={k} index={res.index} method={args.method} "
              f"seconds={res.solve_time:.6f}")
    return 0


def _cmd_attack(args) -> int:
    net, meas = parse_case(args.case)
    if meas.injection_meters:
        res = security_index_bounds(net, meas, args.meter)
    else:
        res = security_index(net, meas, args.meter)
    atk = res.attack
    payload = {
        "meter": args.meter,
        "delta_theta": [float(v) for v in atk.delta_theta],
        "delta_z": [float(v) for v in atk.delta_z],
        "touched": sorted(atk.touched),
    }
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_verify_tu(args) -> int:
    net, meas = parse_case(args.case)
    if meas.injection_meters:
        raise MethodUnavailable("total unimodularity applies to the flow rows only")
    A = flow_rows(net, meas)
    order = min(args.max_order, min(A.shape))
    ok = verify_tu(A, order)
    print(f"totally-unimodular<=order-{order}: {'yes' if ok else 'no'}")
    return 0


def _cmd_bench(args) -> int:
    if args.out:
        _write("", args.out)          # an unwritable --out fails before any solve
    report = run_batch(args.case, args.methods, jobs=args.jobs)
    _write(emit(report, args.format), args.out)
    for e in report.failures:
        print(f"internal mismatch: meter {e.meter} ({e.method}): {e.error}", file=sys.stderr)
    for e in report.capped:
        print(f"capped: meter {e.meter} ({e.method}): no answer within its work cap",
              file=sys.stderr)
    if report.mismatches:
        print(f"mismatch on meters: {','.join(map(str, report.mismatches))}",
              file=sys.stderr)
    return 4 if report.failures or report.mismatches else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleIndex as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except INTERNAL_ERRORS as exc:
        print(f"internal mismatch: {exc}", file=sys.stderr)
        return 4
    except GridsecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
