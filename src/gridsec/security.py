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

Meter indices are 1-based, flows first, resolved once per system by
grid.metering.  One certified cut brackets a flow target's index
(security_index_bounds), closed without injections: the flow-only minimum
cut below, the meters its witness touches above.  Every route reads its
witness back from one map {moved state bus: numerator}, not rows of H.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

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
                   Network, flow_rows, metering)
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
    """Cast a flow-metered system as integer minimum-support data for the
    oracles: A is grid.flow_rows, row i the (from +1 / to -1) incidence of
    the i-th metered line over the non-reference buses (reactances cancel
    out of the support).  Injection meters raise HasInjections.
    security_index and oracle.milp_solve read the system's kept l1 base
    and MILP root instead."""
    _flow_target(meas, k)
    return TUProblem(flow_rows(net, meas), k, meas.protected)


def _witness_attack(mtr: Metering, k: int, pot: dict[int, int], den: int = 1):
    """Exact (dz, touched) over every meter, flows first, of the state move
    pot / den (moved state bus: integer numerator; den > 0), scaled so flow
    meter k, which it moves by +1, reads +1.  No Fraction is built.

    Each dz entry is 0 or an unreduced integer pair (a, b), b > 0, for
    a / b.  Only the lines at moved buses are visited (mtr.bus_lines), each
    once, from its mtr.line_records entry: one whose ends move apart by w
    changes its flow by w x_k / (den x_line), the pair (w num dl, den dk nl)
    for x_k = num / dk and x_line = nl / dl, which its flow meter reads and
    the injections at its from-bus add and at its to-bus subtract by
    cross-multiplication (an exact sum, numerator 0 when it cancels).
    touched holds the entries with a nonzero numerator.
    """
    recs, at = mtr.line_records, mtr.bus_lines
    xk = mtr.lines[k - 1].reactance
    num, den = xk.numerator, xk.denominator * den
    dz = [0] * mtr.meas.n_meters
    touched = set()
    for lid in {lid for b in pot for lid in at[b]}:
        fb, tb, e, fi, ti, nl, dl = recs[lid - 1]
        w = pot.get(fb, 0) - pot.get(tb, 0)
        if w:
            a, b = w * num * dl, den * nl
            if e >= 0:
                dz[e] = (a, b)
                touched.add(e)
            if fi >= 0:
                c, d = dz[fi] or (0, 1)
                dz[fi] = (c * b + a * d, d * b)
                touched.add(fi)
            if ti >= 0:
                c, d = dz[ti] or (0, 1)
                dz[ti] = (c * b - a * d, d * b)
                touched.add(ti)
    return dz, frozenset(i + 1 for i in touched if dz[i][0])


def _attack(mtr: Metering, k: int, pot: dict[int, int], den: int, dz, touched) -> AttackVector:
    """The floats of the move pot / den (each moved bus's angle
    pot[b] x_k / den at its mtr.state_column) and of its _witness_attack
    (dz, touched): each an int true division a / b of its exact pair,
    which rounds correctly as float(Fraction(a, b)) does."""
    xk, col = mtr.lines[k - 1].reactance, mtr.state_column
    dtheta, dz_f = np.zeros(mtr.net.n_states), np.zeros(len(dz))
    for b, v in pot.items():
        dtheta[col[b]] = v * xk.numerator / (xk.denominator * den)
    for i in touched:
        a, b = dz[i - 1]
        dz_f[i - 1] = a / b
    return AttackVector(dtheta, dz_f, touched)


def _exact_result(mtr: Metering, k: int, method: str, x, support, t0,
                  den: int = 1) -> SecurityIndexResult:
    """An exact solve's result, timed from t0: its state move x / den
    (dense over the state columns, moving flow meter k by +1) must touch
    the meters of the solver's support."""
    pot = {b: v for b, v in zip(mtr.net.state_buses, x) if v}
    dz, touched = _witness_attack(mtr, k, pot, den)
    if touched != support:            # reactance scaling cannot move the support
        raise SolverDefect("witness support disagrees with the solver")
    i = len(touched)
    return SecurityIndexResult(meter=k, index=i, attack=_attack(mtr, k, pot, den, dz, touched),
                               method=method, bounds=(i, i), solve_time=time.perf_counter() - t0)


def security_index(net: Network, meas: MeasurementSystem, k: int) -> SecurityIndexResult:
    """Exact security index of flow meter k in a flow-only system.

    Returns the index together with a witness attack normalized to
    delta_z[k] = 1: a certified minimum-support attack.  The system's
    target-free l1 LP (tumin.solve_l1_base) is solved on its first call
    and kept, with the meter space it was solved for, by its grid.Metering;
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
    the complement of those reaching its to-bus unless the two cover every
    bus, and the one touching fewer meters (the first on a tie) is kept.
    mincut.check_certificate checks it.  Protected injections would
    invalidate the lower bound, so they raise ProtectedInjection; injection
    targets are not reducible and raise TargetIsInjection.  Meter ids are
    checked by grid.metering.
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
    moves = [witness(mtr, k, cut.source_side)]
    if meas.injection_meters and len(cut.source_side) + len(cut.sink_side) < net.n_buses:
        moves.append(witness(mtr, k, cut.sink_side))
    reads = [(_witness_attack(mtr, k, pot), pot) for pot in moves]
    (dz, touched), pot = min(reads, key=lambda r: len(r[0][1]))   # the source side on a tie
    check_certificate(mtr, k, cut.flow, cut.value, dz, touched)
    return SecurityIndexResult(
        meter=k, index=None, attack=_attack(mtr, k, pot, 1, dz, touched),
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
    k, _ = check_rows(m, k)
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
