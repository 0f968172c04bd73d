"""The three benchmark workloads: seeded inputs, the solve, and its checks.

Each workload writes its cases as files and hands the program nothing but
those files (read with gridsec.grid.parse_case).  Every program call goes
through a module attribute looked up at call time, so the tracer can wrap
it.  Checks run outside the timed region.
"""
from __future__ import annotations

import random
from itertools import zip_longest
from pathlib import Path

import numpy as np

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent


class Instance:
    def __init__(self, case: gen.Case, path: Path):
        self.case = case
        self.path = str(path)
        self.net = self.meas = None
        self._H = self._z = self._r0 = None
        self._cuts: dict[int, int | None] = {}

    def min_cut(self, k: int):
        if k not in self._cuts:
            self._cuts[k] = checks.min_cut(self.case, k)
        return self._cuts[k]

    def bdd_data(self, m, seed: int):
        """(H, z, residual of z) for the witness checks, built once."""
        if self._H is None:
            self._H = m.grid.build_H(self.net, self.meas).H
            rng = np.random.default_rng(seed)
            theta = rng.normal(0.0, 0.1, self._H.shape[1])
            self._z = self._H @ theta + rng.normal(0.0, 0.01, self._H.shape[0])
            self._r0, _ = m.grid.bdd_residual(self._H, None, self._z)
        return self._H, self._z, self._r0

    def witness_errors(self, m, seed, attack, k, touched_count):
        H, z, r0 = self.bdd_data(m, seed)
        return checks.witness_errors(H, attack, k, touched_count,
                                     m.grid.bdd_residual, z, r0)


class Workload:
    """Seeded instances plus (instance, meter) targets in seeded order."""

    name = ""

    def __init__(self, seed: int, workdir: Path, modules):
        self.seed = seed
        self.m = modules
        self.instances = []
        for i, case in enumerate(self.make_cases(seed)):
            path = workdir / f"{self.name}-{i}.case"
            gen.write_case(case, path)
            self.instances.append(Instance(case, path))
        self.targets = self.order_targets(random.Random(seed))

    def order_targets(self, rng: random.Random) -> list[tuple[int, int]]:
        """Each instance's targets in seeded order, dealt round-robin so that
        a run that stops early has sampled every instance evenly."""
        queues = []
        for i, inst in enumerate(self.instances):
            queues.append([(i, k) for k in inst.case.targets()])
            rng.shuffle(queues[-1])
        return [q[r] for r in range(max(map(len, queues))) for q in queues if r < len(q)]

    def make_cases(self, seed: int) -> list[gen.Case]:
        raise NotImplementedError

    def parse(self) -> None:
        for inst in self.instances:
            inst.net, inst.meas = self.m.grid.parse_case(inst.path)

    def solve(self, target) -> dict:
        raise NotImplementedError

    def check(self, target, out: dict) -> list[str]:
        raise NotImplementedError

    def _exact_errors(self, target, out: dict, index) -> list[str]:
        """Index against the min-cut oracle, and each method's witness."""
        i, k = target
        inst = self.instances[i]
        errs = []
        if index != inst.min_cut(k):
            errs.append(f"index {index} != min-cut {inst.min_cut(k)}")
        for method, res in out.items():
            if res.index != index:
                errs.append(f"{method} index {res.index} != {index}")
            errs += [f"{method}: {e}" for e in
                     inst.witness_errors(self.m, self.seed, res.attack, k, index)]
        return errs


class Grid42Lp(Workload):
    name = "grid42-lp"
    # Pivot counts differ by about 30% between targets and between grids,
    # so one grid per run would let the seed, not the program, set the
    # figures; a run samples targets across many grids instead.
    GRIDS = 24

    def make_cases(self, seed):
        rng = random.Random(seed)
        return [gen.grid_case(6, 7, 12, rng.getrandbits(32), protect=3)
                for _ in range(self.GRIDS)]

    def solve(self, target):
        inst = self.instances[target[0]]
        return {"lp": self.m.security.security_index(inst.net, inst.meas, target[1])}

    def check(self, target, out):
        return self._exact_errors(target, out, out["lp"].index)


class Ieee14Crosscheck(Workload):
    name = "ieee14-crosscheck"
    # The branch and bound's cost depends on the meter (meters 11-20 cost
    # about 1.5 times meters 1-10) and on the protection plan: unprotected
    # targets cost about twice protected ones, and plan means differ by
    # about 25%.  The target order keeps that mix the same wherever a run
    # stops, so the host's speed does not change what is measured.
    SEEDED_PLANS = 60

    def make_cases(self, seed):
        base = gen.read_plain_case(ROOT / "cases" / "ieee14.case")
        edges = [ln[:2] for ln in base.lines]
        rng = random.Random(seed)
        plans = [frozenset()] + [gen.protection_plan(base.n_buses, edges, 3, rng)
                                 for _ in range(self.SEEDED_PLANS)]
        return [gen.Case(base.n_buses, base.ref, base.lines, (), plan) for plan in plans]

    def order_targets(self, rng):
        """Unprotected and protected targets alternate.  Both take the meters
        in rounds that alternate a shuffled upper half with a shuffled lower
        half.  Protected rounds give meter k in round b the seeded plan b + k
        (mod the plan count), or the next one that leaves k unprotected."""
        n = self.instances[0].case.n_flow
        low, high = list(range(1, n // 2 + 1)), list(range(n // 2 + 1, n + 1))
        unprotected, seeded = [], []
        for block in range(self.SEEDED_PLANS):
            rng.shuffle(low)
            rng.shuffle(high)
            meters = [k for pair in zip_longest(high, low) for k in pair if k is not None]
            unprotected += [(0, k) for k in meters]
            for k in meters:
                i = 1 + (block + k) % self.SEEDED_PLANS
                while k in self.instances[i].case.protected:
                    i = 1 + i % self.SEEDED_PLANS
                seeded.append((i, k))
        order = []
        for u, s in zip(unprotected, seeded):
            order += [u, s]
        return order

    def solve(self, target):
        inst = self.instances[target[0]]
        k = target[1]
        return {"lp": self.m.security.security_index(inst.net, inst.meas, k),
                "milp": self.m.oracle.milp_solve(inst.net, inst.meas, k)}

    def check(self, target, out):
        errs = self._exact_errors(target, out, out["lp"].index)
        if not self.instances[target[0]].case.protected:
            want = checks.IEEE14_INDICES[target[1]]
            if out["lp"].index != want:
                errs.append(f"index {out['lp'].index} != published {want}")
        return errs


class Grid30Bounds(Workload):
    name = "grid30-bounds"
    # per-target cost differs by about 7% between grids (see Grid42Lp)
    GRIDS = 6

    def make_cases(self, seed):
        rng = random.Random(seed)
        return [gen.grid_case(5, 6, 10, rng.getrandbits(32), injections=8)
                for _ in range(self.GRIDS)]

    def solve(self, target):
        inst = self.instances[target[0]]
        return {"bounds": self.m.security.security_index_bounds(
            inst.net, inst.meas, target[1])}

    def check(self, target, out):
        i, k = target
        inst = self.instances[i]
        res = out["bounds"]
        lo, hi = res.bounds
        errs = []
        if not lo <= hi:
            errs.append(f"lower {lo} > upper {hi}")
        if lo != inst.min_cut(k):
            errs.append(f"lower {lo} != flow-only min-cut {inst.min_cut(k)}")
        n_inj = sum(1 for j in res.attack.touched if j > inst.case.n_flow)
        if hi - lo != n_inj:
            errs.append(f"upper - lower = {hi - lo} != {n_inj} touched injections")
        errs += inst.witness_errors(self.m, self.seed, res.attack, k, hi)
        return errs


WORKLOADS = {w.name: w for w in (Grid42Lp, Ieee14Crosscheck, Grid30Bounds)}
