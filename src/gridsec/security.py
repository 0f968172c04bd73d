"""Security indices of measurements in a DC state-estimation model.

The security index of meter k is the smallest number of meters an attacker
must corrupt to change meter k without tripping bad-data detection, i.e.
the minimum support of H @ dtheta over state perturbations that touch k.
For line-flow meters this is solved exactly: scaling each flow row by its
line reactance leaves the sparsity pattern unchanged and turns the problem
into minimum support of A @ dtheta with A the truncated incidence
transpose, a network matrix, so the linear-programming relaxation has an
integral optimum.

Meter indices follow the measurement-system convention: 1-based, flow
meters first.  With injection meters present the flow-target index is
bracketed instead of solved (lower bound from the flow-only problem, upper
bound from counting the injections its witness touches).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConditionViolated,
    HasInjections,
    InfeasibleIndex,
    ProtectedInjection,
    TargetIsInjection,
    ValidationError,
)
from .exactla import int_rank
from .grid import FLOAT_TOL, AttackVector, MeasurementMatrix, MeasurementSystem, Network, _exact_H_rows, incidence
from .lp import scale_row
from .tumin import TUProblem, TUSolution, solve_min_support


@dataclass(frozen=True)
class SecurityIndexResult:
    meter: int
    index: int | None                 # exact value, or None when only bracketed
    attack: AttackVector | None
    method: str                       # "lp", "milp", "exhaustive", or "bounds"
    bounds: tuple[int, int] | None = None
    solve_time: float = 0.0


@dataclass(frozen=True)
class CriticalTuple:
    members: frozenset[int]           # 1-based meter indices, target included
    cardinality: int
    target: int

    def __post_init__(self):
        if self.cardinality != len(self.members):
            raise ValueError("cardinality disagrees with member count")
        if self.target not in self.members:
            raise ValueError("target not contained in the tuple")


def reduce_to_tu(net: Network, meas: MeasurementSystem, k: int) -> TUProblem:
    """Cast a flow-metered system as integer minimum-support data.

    Row i of A is the (from +1 / to -1) incidence of the i-th metered
    line over the non-reference buses; reactances cancel out of the
    support.  Only pure flow metering reduces this way, so injection
    meters raise HasInjections.
    """
    if meas.injection_meters:
        raise HasInjections(f"{len(meas.injection_meters)} injection meters present")
    kind, _ = meas.meter_kind(k)      # validates the index range
    assert kind == "flow"
    if k in meas.protected:
        raise ValidationError(f"meter {k} is protected and cannot be targeted")
    _, B = incidence(net)
    rows = []
    for lid in meas.flow_meters:
        rows.append(B[:, lid - 1].tolist())
    A = np.array(rows, dtype=int).reshape(len(rows), net.n_states)
    return TUProblem(A, k, frozenset(meas.protected))


def _flow_attack(net: Network, meas: MeasurementSystem, k: int,
                 sol: TUSolution) -> tuple[list[Fraction], list[Fraction], frozenset[int]]:
    """Exact (dtheta, flow dz, touched) scaled so meter k reads +1."""
    _, B = incidence(net)
    xk = net.lines[meas.flow_meters[k - 1] - 1].reactance
    dtheta = [xk * int(v) for v in sol.x]
    dz = []
    for lid in meas.flow_meters:
        xj = net.lines[lid - 1].reactance
        w = sum(int(B[c, lid - 1]) * int(v) for c, v in enumerate(sol.x))
        dz.append(Fraction(w) * xk / xj)
    touched = frozenset(i + 1 for i, v in enumerate(dz) if v != 0)
    return dtheta, dz, touched


def security_index(net: Network, meas: MeasurementSystem, k: int, *,
                   rule: str = "bland") -> SecurityIndexResult:
    """Exact security index of flow meter k in a flow-only system.

    Returns the index together with a witness attack normalized to
    delta_z[k] = 1.  Raises InfeasibleIndex when protected meters pin
    meter k (no unobservable attack reaches it).
    """
    t0 = time.perf_counter()
    prob = reduce_to_tu(net, meas, k)
    sol = solve_min_support(prob, rule=rule)
    if sol is None:
        raise InfeasibleIndex(k)
    dtheta, dz, touched = _flow_attack(net, meas, k, sol)
    if touched != sol.support:        # reactance scaling cannot move the support
        raise AssertionError("witness support disagrees with the solver")
    attack = AttackVector(np.array([float(v) for v in dtheta]),
                          np.array([float(v) for v in dz]), touched)
    return SecurityIndexResult(
        meter=k, index=sol.cardinality, attack=attack, method="lp",
        bounds=(sol.cardinality, sol.cardinality),
        solve_time=time.perf_counter() - t0)


def security_index_bounds(net: Network, meas: MeasurementSystem, k: int, *,
                          rule: str = "bland") -> SecurityIndexResult:
    """Bracket the index of flow meter k when injection meters exist.

    The flow-only optimum is a lower bound (injections only add touched
    meters); evaluating the injection rows on its witness gives an upper
    bound.  Protected injections would invalidate the lower bound, so they
    raise ProtectedInjection; injection targets are not reducible and
    raise TargetIsInjection.
    """
    t0 = time.perf_counter()
    kind, _ = meas.meter_kind(k)
    if kind == "injection":
        raise TargetIsInjection(f"meter {k} measures an injection")
    nf = len(meas.flow_meters)
    if any(i > nf for i in meas.protected):
        raise ProtectedInjection("protected injection meters break the flow-only bound")
    flow_meas = MeasurementSystem(meas.flow_meters, (), frozenset(meas.protected))
    prob = reduce_to_tu(net, flow_meas, k)
    sol = solve_min_support(prob, rule=rule)
    if sol is None:
        raise InfeasibleIndex(k)
    dtheta, dz_flow, touched_flow = _flow_attack(net, flow_meas, k, sol)
    inj_rows = _exact_H_rows(net, MeasurementSystem((), meas.injection_meters))
    dz_inj = [sum((row[c] * dtheta[c] for c in range(net.n_states)), Fraction(0))
              for row in inj_rows]
    touched_inj = frozenset(nf + j + 1 for j, v in enumerate(dz_inj) if v != 0)
    lower = sol.cardinality
    upper = sol.cardinality + len(touched_inj)
    dz = dz_flow + dz_inj
    attack = AttackVector(np.array([float(v) for v in dtheta]),
                          np.array([float(v) for v in dz]),
                          touched_flow | touched_inj)
    return SecurityIndexResult(
        meter=k, index=None, attack=attack, method="bounds",
        bounds=(lower, upper), solve_time=time.perf_counter() - t0)


def _exact_rows(H) -> list[list[Fraction]] | None:
    """Rows as Fractions when H carries exact entries, else None."""
    if isinstance(H, MeasurementMatrix):
        return None
    if isinstance(H, np.ndarray):
        if issubclass(H.dtype.type, np.integer):
            return [[Fraction(int(v)) for v in row] for row in H]
        if H.dtype == object:
            return [[Fraction(v) for v in row] for row in H]
        return None
    rows = [list(r) for r in H]
    if all(isinstance(v, (int, Fraction)) for row in rows for v in row):
        return [[Fraction(v) for v in row] for row in rows]
    return None


def check_conditions(H, k: int, *, tol: float = FLOAT_TOL) -> tuple[bool, bool]:
    """(meter row nonzero, full column rank) for 1-based row k.

    Both must hold for a finite index with a minimum critical tuple.
    Integer or Fraction input is ranked exactly; float input uses singular
    values with threshold tol * sigma_max.
    """
    exact = _exact_rows(H)
    if exact is not None:
        m = len(exact)
        n = len(exact[0]) if m else 0
        if not 1 <= k <= m:
            raise ValueError(f"row {k} outside 1..{m}")
        cond1 = any(v != 0 for v in exact[k - 1])
        cond2 = int_rank([scale_row(row)[0] for row in exact]) == n
        return cond1, cond2
    Hf = H.H if isinstance(H, MeasurementMatrix) else np.asarray(H, dtype=float)
    m, n = Hf.shape
    if not 1 <= k <= m:
        raise ValueError(f"row {k} outside 1..{m}")
    scale = float(np.abs(Hf).max()) if Hf.size else 0.0
    cond1 = bool(np.abs(Hf[k - 1]).max() > tol * max(scale, 1.0)) if n else False
    sv = np.linalg.svd(Hf, compute_uv=False) if min(m, n) else np.array([])
    cond2 = bool(sv.size == n and np.sum(sv > tol * sv[0]) == n)
    return cond1, cond2


def min_critical_tuple(H, k: int, *, rule: str = "bland") -> CriticalTuple:
    """Minimum-cardinality critical tuple containing measurement k.

    H must be an integer matrix whose minimum-support problem has an
    integral relaxation (network matrices qualify).  The tuple J is the
    support of the optimal attack: removing J makes the system
    unobservable and restoring k alone recovers observability, which is
    verified by exact rank computations before returning.
    """
    A = np.asarray(H)
    if A.dtype == object or not issubclass(A.dtype.type, np.integer):
        Af = np.asarray(A, dtype=float)
        if not np.array_equal(Af, np.round(Af)):
            raise ValueError("critical tuples need integer measurement rows")
        A = Af.astype(int)
    cond1, cond2 = check_conditions(A, k)
    if not cond1:
        raise ConditionViolated("I")
    if not cond2:
        raise ConditionViolated("II")
    sol = solve_min_support(TUProblem(A, k, frozenset()), rule=rule)
    if sol is None:
        raise InfeasibleIndex(k)
    members = sol.support
    m, n = A.shape
    outside = [A[i].tolist() for i in range(m) if (i + 1) not in members]
    if int_rank(outside) >= n:
        raise AssertionError("complement of the tuple stayed observable")
    if int_rank(outside + [A[k - 1].tolist()]) != n:
        raise AssertionError("target row does not restore observability")
    return CriticalTuple(members, len(members), k)
