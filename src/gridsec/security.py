"""Security indices of measurements in a DC state-estimation model.

The security index of meter k is the smallest number of meters an attacker
must corrupt to change meter k without tripping bad-data detection, i.e.
the minimum support of H @ dtheta over state perturbations that touch k.
For line-flow meters this is solved exactly: scaling each flow row by its
line reactance leaves the sparsity pattern unchanged and turns the problem
into minimum support of A @ dtheta with A the truncated incidence
transpose, a network matrix, so the linear-programming relaxation has an
integral optimum (security_index); the same index is the minimum cut
between the line's endpoints (mincut_index).

Meter indices follow the measurement-system convention: 1-based, flow
meters first, resolved once per system by grid.metering.  One certified cut
brackets a flow target's index (security_index_bounds): the flow-only
minimum cut below, the meters its witness touches (on the lines crossing
the cut, not on built rows of H) above; without injections it closes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    ConditionViolated,
    HasInjections,
    InfeasibleIndex,
    ProtectedInjection,
    SolverDefect,
    TargetIsInjection,
    ValidationError,
)
from .exactla import int_matrix, int_rank, scale_row
from .grid import (FLOAT_TOL, AttackVector, MeasurementMatrix, MeasurementSystem, Metering,
                   Network, metering)
# not called here; the benchmark's tracer wraps them by these names
from .grid import _exact_H_rows, incidence  # noqa: F401
from .mincut import check_certificate, max_flow, witness
from .tumin import TUProblem, check_rows, solve_min_support, solve_warm


@dataclass(frozen=True, slots=True)
class SecurityIndexResult:
    meter: int
    index: int | None                 # exact value, or None when only bracketed
    attack: AttackVector | None
    method: str                       # "lp", "mincut", "milp", "exhaustive", or "bounds"
    bounds: tuple[int, int] | None = None
    solve_time: float = 0.0


@dataclass(frozen=True)
class CriticalTuple:
    members: frozenset[int]           # 1-based meter indices, target included
    target: int

    def __post_init__(self):
        if self.target not in self.members:
            raise ValueError("target not contained in the tuple")

    @property
    def cardinality(self) -> int:
        return len(self.members)


def _flow_target(meas: MeasurementSystem, k: int) -> None:
    """Reject meter k unless it is an unprotected flow meter of a
    flow-only system."""
    if meas.injection_meters:
        raise HasInjections(f"{len(meas.injection_meters)} injection meters present")
    meas.meter_kind(k)                # validates the index range
    if k in meas.protected:
        raise ValidationError(f"meter {k} is protected and cannot be targeted")


def reduce_to_tu(net: Network, meas: MeasurementSystem, k: int) -> TUProblem:
    """Cast a flow-metered system as integer minimum-support data.

    Row i of A is the (from +1 / to -1) incidence of the i-th metered
    line over the non-reference buses; reactances cancel out of the
    support.  Only pure flow metering reduces this way, so injection
    meters raise HasInjections.  A is an int copy of the system's kept
    flow matrix, for the oracles on one problem; security_index and
    oracle.milp_solve read the system's kept l1 base and MILP root.
    """
    _flow_target(meas, k)
    mtr = metering(net, meas)
    return TUProblem(mtr.flow_matrix.astype(int), k, meas.protected, mtr.flow_pairs)


def _witness_attack(mtr: Metering, k: int, x) -> tuple[list, list, frozenset[int]]:
    """Exact (dtheta, dz, touched) of the state move x over every meter,
    flows first, scaled so flow meter k (which x moves by +1) reads +1.

    Only the lines at buses x moves are visited (mtr.bus_lines): each whose
    ends x moves apart carries the flow change w * x_k / x_line, read by
    its flow meter, added at its from-bus injection and subtracted at its
    to-bus injection.  Exact zeros stay 0.
    """
    net, flow, inj = mtr.net, mtr.flow_slot, mtr.injection_slot
    xk = mtr.lines[k - 1].reactance
    num, den = xk.numerator, xk.denominator
    pot = {b: v for b, v in zip(net.state_buses, x) if v}
    dz = [0] * mtr.meas.n_meters
    touched = set()
    for lid in {lid for b in pot for lid in mtr.bus_lines[b]}:
        ln = net.lines[lid - 1]
        w = pot.get(ln.from_bus, 0) - pot.get(ln.to_bus, 0)
        if w:
            f = Fraction(w * num * ln.reactance.denominator, den * ln.reactance.numerator)
            if lid in flow:
                dz[flow[lid]] = f
                touched.add(flow[lid])
            if ln.from_bus in inj:
                dz[inj[ln.from_bus]] += f
                touched.add(inj[ln.from_bus])
            if ln.to_bus in inj:
                dz[inj[ln.to_bus]] -= f
                touched.add(inj[ln.to_bus])
    touched = frozenset(i + 1 for i in touched if dz[i])
    return [xk * v if v else 0 for v in x], dz, touched


def _attack(dtheta, dz, touched) -> AttackVector:
    dz_f = np.zeros(len(dz))
    for i in touched:
        dz_f[i - 1] = float(dz[i - 1])
    return AttackVector(np.array([float(v) if v else 0.0 for v in dtheta]), dz_f, touched)


def _exact_result(mtr: Metering, k: int, method: str, x, support, t0) -> SecurityIndexResult:
    """An exact solve's result, timed from t0: its state move x (moving flow
    meter k by +1) must touch the meters of the solver's support."""
    dtheta, dz, touched = _witness_attack(mtr, k, x)
    if touched != support:            # reactance scaling cannot move the support
        raise SolverDefect("witness support disagrees with the solver")
    i = len(touched)
    return SecurityIndexResult(meter=k, index=i, attack=_attack(dtheta, dz, touched),
                               method=method, bounds=(i, i), solve_time=time.perf_counter() - t0)


def security_index(net: Network, meas: MeasurementSystem, k: int) -> SecurityIndexResult:
    """Exact security index of flow meter k in a flow-only system.

    Returns the index together with a witness attack normalized to
    delta_z[k] = 1: a certified minimum-support attack.  The system's
    target-free l1 LP (tumin.solve_l1_base) is solved on its first call
    and kept, with the flow rows it was solved for, by its grid.Metering;
    each call re-optimizes a copy of it with meter k's row appended
    (tumin.solve_warm), as tumin.solve_min_support does on a fresh one.
    Raises InfeasibleIndex when protected meters pin meter k (no
    unobservable attack reaches it).
    """
    t0 = time.perf_counter()
    _flow_target(meas, k)
    mtr = metering(net, meas)
    sol = solve_warm(mtr.l1_base, k)
    if sol is None:
        raise InfeasibleIndex(k)
    return _exact_result(mtr, k, "lp", sol.x, sol.support, t0)


def mincut_index(net: Network, meas: MeasurementSystem, k: int) -> SecurityIndexResult:
    """Exact security index of flow meter k as a certified minimum cut.

    Same contract as security_index (flow-only systems, witness with
    delta_z[k] = 1, InfeasibleIndex when protection pins meter k).  It is
    security_index_bounds on a flow-only system, whose bracket closes: the
    cut's witness touches exactly as many meters as the cut has lines.
    """
    _flow_target(meas, k)
    res = security_index_bounds(net, meas, k)
    if res.bounds[0] != res.bounds[1]:
        raise SolverDefect(f"flow-only bracket {res.bounds} did not close")
    return replace(res, index=res.bounds[0], method="mincut")


def security_index_bounds(net: Network, meas: MeasurementSystem, k: int) -> SecurityIndexResult:
    """Bracket the index of flow meter k; the one certified-cut path.

    The flow-only minimum cut is a lower bound (injections only add touched
    meters); the meters its witness touches, evaluated on the lines crossing
    the cut, are an upper bound.  The witness moves the buses reachable from
    meter k's from-bus in the residual graph; with injection meters, also
    the complement of those that can reach its to-bus, and the one touching
    fewer meters is kept.  mincut.check_certificate checks it.  Protected
    injections would invalidate the lower bound, so they raise
    ProtectedInjection; injection targets are not reducible and raise
    TargetIsInjection.  Meter ids are checked by grid.metering.
    """
    t0 = time.perf_counter()
    kind, _ = meas.meter_kind(k)
    if kind == "injection":
        raise TargetIsInjection(f"meter {k} measures an injection")
    nf = len(meas.flow_meters)
    if any(i > nf for i in meas.protected):
        raise ProtectedInjection("protected injection meters break the flow-only bound")
    if k in meas.protected:
        raise ValidationError(f"meter {k} is protected and cannot be targeted")
    # every protected meter is now a flow meter, so the min cut reads meas as is
    mtr = metering(net, meas)
    cut = max_flow(mtr, k)
    sides = [cut.source_side]
    if meas.injection_meters:         # else every minimum cut touches cut.value meters
        sides.append(frozenset(range(1, net.n_buses + 1)) - cut.sink_side)
    moves = [_witness_attack(mtr, k, witness(mtr, k, side)) for side in dict.fromkeys(sides)]
    dtheta, dz, touched = min(moves, key=lambda m: len(m[2]))   # the source side on a tie
    check_certificate(mtr, k, cut.paths, dz, touched)
    return SecurityIndexResult(
        meter=k, index=None, attack=_attack(dtheta, dz, touched),
        method="bounds", bounds=(cut.value, len(touched)),
        solve_time=time.perf_counter() - t0)


def check_conditions(H, k: int, *, tol: float = FLOAT_TOL) -> tuple[bool, bool]:
    """(meter row nonzero, full column rank) for 1-based row k.

    Both must hold for a finite index with a minimum critical tuple.
    Integer or object (Fraction) input is ranked exactly; float input uses
    singular values with threshold tol * sigma_max.
    """
    M = H.H if isinstance(H, MeasurementMatrix) else np.asarray(H)
    m, n = M.shape
    check_rows(m, k)
    if M.dtype == object or issubclass(M.dtype.type, np.integer):
        rows = M.tolist()
        return any(rows[k - 1]), int_rank([scale_row(row)[0] for row in rows]) == n
    Hf = np.asarray(M, dtype=float)
    scale = float(np.abs(Hf).max()) if Hf.size else 0.0
    cond1 = bool(np.abs(Hf[k - 1]).max() > tol * max(scale, 1.0)) if n else False
    sv = np.linalg.svd(Hf, compute_uv=False) if min(m, n) else np.array([])
    cond2 = bool(sv.size == n and np.sum(sv > tol * sv[0]) == n)
    return cond1, cond2


def min_critical_tuple(H, k: int) -> CriticalTuple:
    """Minimum-cardinality critical tuple containing measurement k.

    H must be an integer matrix whose minimum-support problem has an
    integral relaxation (network matrices qualify).  The tuple J is the
    support of the optimal attack: removing J makes the system
    unobservable and restoring k alone recovers observability, which is
    verified by exact rank computations before returning.
    """
    A = int_matrix(H)
    cond1, cond2 = check_conditions(A, k)
    if not cond1:
        raise ConditionViolated("I")
    if not cond2:
        raise ConditionViolated("II")
    sol = solve_min_support(TUProblem(A, k, frozenset()))
    if sol is None:
        raise InfeasibleIndex(k)
    members = sol.support
    m, n = A.shape
    outside = [A[i].tolist() for i in range(m) if (i + 1) not in members]
    if int_rank(outside) >= n:
        raise SolverDefect("complement of the tuple stayed observable")
    if int_rank(outside + [A[k - 1].tolist()]) != n:
        raise SolverDefect("target row does not restore observability")
    return CriticalTuple(members, k)
