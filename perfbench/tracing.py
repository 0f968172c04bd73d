"""In-memory span recorder wrapped around the program's layer boundaries.

Spans are recorded by replacing module attributes of gridsec with thin
timing wrappers for the duration of the traced pass, so the program's
source is untouched.  Each span keeps (name, start, end, parent, meter,
attrs); the layer is the part of the name before the first dot.  Spans
stay in memory and are written out once, when the workload ends.
"""
from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name).  A function imported into several modules
# is wrapped under each name through which the program calls it.
BOUNDARIES = (
    ("grid", "parse_case", "grid.parse_case"),
    ("cli", "parse_case", "grid.parse_case"),
    ("grid", "bdd_residual", "grid.bdd_residual"),
    ("security", "_exact_H_rows", "grid.exact_rows"),
    ("security", "incidence", "grid.incidence"),
    ("oracle", "incidence", "grid.incidence"),
    ("security", "security_index", "security.security_index"),
    ("cli", "security_index", "security.security_index"),
    ("security", "security_index_bounds", "security.security_index_bounds"),
    ("security", "reduce_to_tu", "security.reduce_to_tu"),
    ("security", "solve_min_support", "tumin.solve_min_support"),
    ("tumin", "build_l1_lp", "tumin.build_l1_lp"),
    ("lp", "solve_lp", "lp.solve_lp"),
    ("lp", "preprocess", "lp.preprocess"),
    ("lp", "_solve_standard_ints", "lp.simplex"),
    ("lp", "verify_bfs", "lp.verify_bfs"),
    ("oracle", "milp_solve", "oracle.milp_solve"),
    ("cli", "milp_solve", "oracle.milp_solve"),
    ("oracle", "solve_milp_instance", "oracle.branch_and_bound"),
    ("oracle", "_node_lp", "oracle.node_lp"),
    ("cli", "run_batch", "cli.run_batch"),
    ("cli", "_solve_one", "cli.cell"),
)


def _attrs(name: str, args, out) -> dict | None:
    """Counts read off a boundary call's arguments and result."""
    if name == "tumin.build_l1_lp":
        return {"rows": out.num_rows, "cols": out.num_vars}
    if name == "lp.preprocess":
        return {"rows_in": args[0].num_rows, "rows_out": out.num_rows}
    if name == "lp.solve_lp":
        return {"pivots": out.pivots}
    if name == "oracle.branch_and_bound" and out is not None:
        return {"nodes": out[3]}
    return None


@dataclass(frozen=True)
class Totals:
    seconds: Counter          # by span name
    calls: Counter            # by span name
    self_by_layer: Counter    # span time not covered by child spans
    attrs: Counter            # by "<span name>.<attr>"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, meter, attrs]
        self._stack: list[int] = []
        self.meter = None
        self.lp_solves: list[tuple] = []   # (preprocessed LP, outcome) of the current target
        self._preprocessed = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.meter, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, meter=None):
        self.meter = meter
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx][5] = _attrs(name, args, out)
            if name == "lp.preprocess":
                self._preprocessed = out
            elif name == "lp.solve_lp":
                self.lp_solves.append((self._preprocessed, out))
            return out

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every boundary for the duration of the block."""
        saved = []
        try:
            for mod, attr, name in BOUNDARIES:
                m = modules[mod]
                saved.append((m, attr, getattr(m, attr)))
                setattr(m, attr, self.wrap(name, getattr(m, attr)))
            yield self
        finally:
            for m, attr, fn in reversed(saved):
                setattr(m, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, meter, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "meter": meter,
                                     "attrs": attrs}) + "\n")

    # --- aggregation ------------------------------------------------------

    def totals(self, root: str) -> Totals:
        """Sums over the spans under roots named `root`."""
        kids = [0.0] * len(self.spans)
        roots: list[str] = []
        for name, start, end, parent, *_ in self.spans:
            roots.append(name if parent < 0 else roots[parent])
            if parent >= 0:
                kids[parent] += end - start
        out = Totals(Counter(), Counter(), Counter(), Counter())
        for i, (name, start, end, _, _, attrs) in enumerate(self.spans):
            if roots[i] != root:
                continue
            out.seconds[name] += end - start
            out.calls[name] += 1
            out.self_by_layer[name.split(".", 1)[0]] += end - start - kids[i]
            for key, v in (attrs or {}).items():
                out.attrs[f"{name}.{key}"] += v
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, *_ in self.spans if n == name]
