"""DC power-network model, measurement matrices, and case-file parsing.

Buses are numbered 1..N and lines are 1-based in declaration order.  The
state vector is the bus phase angles with the reference bus removed, so a
network with N buses has n = N - 1 states.  Meter indices are 1-based over
the combined meter list, line-flow meters first (in declaration order) and
injection meters after them; protected sets and attack supports use those
indices.

Reactances are kept as exact Fractions internally (case files are decimal
text, so this is lossless); the measurement matrices handed to the floating
estimation routines are float64.  The declared zero tolerance for floating
comparisons is 1e-9, absolute, on per-unit data.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    DisconnectedGraph,
    ParseError,
    RankDeficient,
    UnknownMeterId,
    ValidationError,
)
from .exactla import to_fraction

FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    reactance: Fraction


@dataclass(frozen=True)
class Network:
    """Connected set of buses joined by lines with positive reactance."""

    n_buses: int
    lines: tuple[Line, ...]
    reference_bus: int = 1

    def __post_init__(self):
        if self.n_buses < 2:
            raise ValidationError("a network needs at least two buses")
        lines = tuple(
            ln if isinstance(ln, Line) else Line(int(ln[0]), int(ln[1]), to_fraction(ln[2]))
            for ln in self.lines
        )
        object.__setattr__(self, "lines", lines)
        if not 1 <= self.reference_bus <= self.n_buses:
            raise ValidationError(f"reference bus {self.reference_bus} out of range")
        for i, ln in enumerate(lines, start=1):
            if not (1 <= ln.from_bus <= self.n_buses and 1 <= ln.to_bus <= self.n_buses):
                raise ValidationError(f"line {i} references a missing bus")
            if ln.from_bus == ln.to_bus:
                raise ValidationError(f"line {i} is a self-loop")
            if ln.reactance <= 0:
                raise ValidationError(f"line {i} has nonpositive reactance")
        # L lines connect at most L + 1 buses; checked before the O(N) union-find
        if self.n_buses > len(lines) + 1:
            raise DisconnectedGraph(f"{len(lines)} lines cannot connect {self.n_buses} buses")
        # connectivity check (union-find over the line list)
        parent = list(range(self.n_buses + 1))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for ln in lines:
            ra, rb = find(ln.from_bus), find(ln.to_bus)
            if ra != rb:
                parent[ra] = rb
        roots = {find(b) for b in range(1, self.n_buses + 1)}
        if len(roots) != 1:
            raise DisconnectedGraph(f"{len(roots)} components among {self.n_buses} buses")

    @property
    def n_states(self) -> int:
        return self.n_buses - 1

    @cached_property
    def state_buses(self) -> tuple[int, ...]:
        """Buses carrying a state variable (all but the reference), ascending."""
        return tuple(b for b in range(1, self.n_buses + 1) if b != self.reference_bus)


@dataclass(frozen=True)
class MeasurementSystem:
    """Which quantities are metered, which meters are protected.

    flow_meters hold 1-based line ids, injection_meters hold bus ids.
    protected holds 1-based indices into the combined meter list.
    """

    flow_meters: tuple[int, ...]
    injection_meters: tuple[int, ...] = ()
    protected: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "flow_meters", tuple(int(v) for v in self.flow_meters))
        object.__setattr__(self, "injection_meters",
                           tuple(int(v) for v in self.injection_meters))
        object.__setattr__(self, "protected", frozenset(int(v) for v in self.protected))
        if len(set(self.flow_meters)) != len(self.flow_meters):
            raise ValidationError("duplicate flow meter")
        if len(set(self.injection_meters)) != len(self.injection_meters):
            raise ValidationError("duplicate injection meter")
        m = self.n_meters
        if any(not 1 <= i <= m for i in self.protected):
            raise ValidationError("protected index outside the meter list")

    @property
    def n_meters(self) -> int:
        return len(self.flow_meters) + len(self.injection_meters)

    def meter_kind(self, idx: int) -> tuple[str, int]:
        """('flow', line_id) or ('injection', bus_id) for a 1-based meter index."""
        nf = len(self.flow_meters)
        if 1 <= idx <= nf:
            return ("flow", self.flow_meters[idx - 1])
        if nf < idx <= self.n_meters:
            return ("injection", self.injection_meters[idx - nf - 1])
        raise UnknownMeterId(f"meter {idx} outside 1..{self.n_meters}")


def full_flow_metering(net: Network) -> MeasurementSystem:
    """Every line flow metered, no injections, nothing protected."""
    return MeasurementSystem(tuple(range(1, len(net.lines) + 1)))


@dataclass(frozen=True)
class MeasurementMatrix:
    H: np.ndarray
    row_labels: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class AttackVector:
    delta_theta: np.ndarray
    delta_z: np.ndarray
    touched: frozenset[int]       # 1-based meter indices with |delta_z| > tol


def incidence(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """(B0, B): directed bus-line incidence and its reference-row truncation.

    B0 is (n_buses x n_lines) with +1 at the from-bus and -1 at the to-bus;
    B drops the reference bus row.  Raises DisconnectedGraph for networks
    that do not connect (normally caught at construction already).
    """
    B0 = np.zeros((net.n_buses, len(net.lines)), dtype=int)
    for j, ln in enumerate(net.lines):
        B0[ln.from_bus - 1, j] = 1
        B0[ln.to_bus - 1, j] = -1
    keep = [b - 1 for b in net.state_buses]
    return B0, B0[keep, :]


@dataclass(frozen=True)
class Metering:
    """A measurement system resolved against its network by metering():
    the line each flow meter reads, and the 0-based slot of each metered
    line id and bus in the combined meter list (flows first)."""

    net: Network
    meas: MeasurementSystem
    lines: tuple[Line, ...]
    flow_slot: dict[int, int]
    injection_slot: dict[int, int]


def metering(net: Network, meas: MeasurementSystem) -> Metering:
    """The one check of meter ids against a network: a missing line or bus
    raises UnknownMeterId, an injection at the reference bus (which the
    truncated model has no row for) ValidationError."""
    for lid in meas.flow_meters:
        if not 1 <= lid <= len(net.lines):
            raise UnknownMeterId(f"flow meter references missing line {lid}")
    for bus in meas.injection_meters:
        if not 1 <= bus <= net.n_buses:
            raise UnknownMeterId(f"injection meter references missing bus {bus}")
        if bus == net.reference_bus:
            raise ValidationError("injection at the reference bus is outside the truncated model")
    nf = len(meas.flow_meters)
    return Metering(net, meas, tuple(net.lines[lid - 1] for lid in meas.flow_meters),
                    {lid: i for i, lid in enumerate(meas.flow_meters)},
                    {bus: j for j, bus in enumerate(meas.injection_meters, start=nf)})


def flow_rows(net: Network, meas: MeasurementSystem) -> np.ndarray:
    """Integer flow rows with the reactances dropped: row i has +1 at the
    from-bus and -1 at the to-bus of the i-th metered line, over the
    states (the reference bus carries none).  The rows of the truncated
    incidence transpose, built for the metered lines only."""
    pos = {bus: c for c, bus in enumerate(net.state_buses)}
    A = np.zeros((len(meas.flow_meters), net.n_states), dtype=int)
    for i, ln in enumerate(metering(net, meas).lines):
        for bus, sign in ((ln.from_bus, 1), (ln.to_bus, -1)):
            if bus in pos:
                A[i, pos[bus]] = sign
    return A


def _exact_H_rows(net: Network, meas: MeasurementSystem) -> list[list[Fraction]]:
    """Measurement matrix rows over exact rationals (same order as build_H).

    Only the metered rows are built: an injection row is summed over the
    lines at its bus, never through the whole Laplacian.
    """
    n = net.n_states
    pos = {bus: c for c, bus in enumerate(net.state_buses)}
    dvals = [Fraction(1) / ln.reactance for ln in net.lines]
    rows: list[list[Fraction]] = []
    for ln in metering(net, meas).lines:
        row = [Fraction(0)] * n
        for bus, sign in ((ln.from_bus, 1), (ln.to_bus, -1)):
            if bus in pos:
                row[pos[bus]] = sign / ln.reactance
        rows.append(row)
    for bus in meas.injection_meters:
        # row of B D B^T: +d_j on the diagonal, -d_j toward the far end
        row = [Fraction(0)] * n
        for ln, d in zip(net.lines, dvals):
            if bus in (ln.from_bus, ln.to_bus):
                row[pos[bus]] += d
                far = ln.to_bus if ln.from_bus == bus else ln.from_bus
                if far in pos:
                    row[pos[far]] -= d
        rows.append(row)
    return rows


def build_H(net: Network, meas: MeasurementSystem) -> MeasurementMatrix:
    """Stacked DC measurement matrix: line-flow rows, then injection rows.

    Flow row for line j is (1/x_j) times the j-th row of the truncated
    incidence transpose; injection row for bus b is the b-th row of the
    truncated weighted Laplacian B D B^T.
    """
    rows = _exact_H_rows(net, meas)
    labels = [("flow", lid) for lid in meas.flow_meters]
    labels += [("injection", b) for b in meas.injection_meters]
    H = np.array([[float(v) for v in row] for row in rows], dtype=float)
    H = H.reshape(len(labels), net.n_states)
    return MeasurementMatrix(H, tuple(labels))


def _as_matrix(H) -> np.ndarray:
    if isinstance(H, MeasurementMatrix):
        return H.H
    return np.asarray(H, dtype=float)


def _weight_vector(W, m: int) -> np.ndarray:
    if W is None:
        return np.ones(m)
    w = np.asarray(W, dtype=float)
    if w.ndim == 2:
        w = np.diag(w)
    if w.shape != (m,):
        raise ValidationError(f"weight vector must have length {m}")
    if np.any(w <= 0):
        raise ValidationError("weights must be positive")
    return w


def wls_estimate(H, W, z) -> np.ndarray:
    """Weighted least-squares state estimate.

    Solves min (z - H theta)' W (z - H theta) through a least-squares
    factorization of sqrt(W) H (no normal-equation inverse is formed).
    Raises RankDeficient when H does not determine the state.
    """
    H = _as_matrix(H)
    z = np.asarray(z, dtype=float)
    m, n = H.shape
    w = _weight_vector(W, m)
    sw = np.sqrt(w)
    theta, _, rank, _ = np.linalg.lstsq(sw[:, None] * H, sw * z, rcond=None)
    if rank < n:
        raise RankDeficient(f"rank {rank} < {n} states")
    return theta


def bdd_residual(H, W, z) -> tuple[np.ndarray, float]:
    """Bad-data-detection residual z - H theta_hat and its 2-norm."""
    H = _as_matrix(H)
    z = np.asarray(z, dtype=float)
    theta = wls_estimate(H, W, z)
    r = z - H @ theta
    return r, float(np.linalg.norm(r))


def craft_attack(H, delta_theta, *, tol: float = FLOAT_TOL) -> AttackVector:
    """Unobservable measurement attack from a state perturbation.

    delta_z = H @ delta_theta lies in the column space of H, so it shifts
    the WLS estimate without changing the BDD residual.  touched collects
    the 1-based meter indices where |delta_z| exceeds tol.
    """
    H = _as_matrix(H)
    dtheta = np.asarray(delta_theta, dtype=float)
    dz = H @ dtheta
    touched = frozenset(int(i) + 1 for i in np.flatnonzero(np.abs(dz) > tol))
    return AttackVector(dtheta, dz, touched)


# --- case files ---------------------------------------------------------
#
# Grammar (one directive per line, '#' starts a comment):
#
#   buses <N> [ref <id>]
#   line <from> <to> <reactance>
#   meter flow <line-index>
#   meter injection <bus-id>
#   protect <meter-index>
#
# When no meter directive appears, every line flow is metered and nothing
# else.  Line indices count 'line' directives in file order from 1; meter
# indices count flows first, then injections, each in declaration order.


def parse_case(path) -> tuple[Network, MeasurementSystem]:
    """Parse a case file; ParseError carries the offending line number."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc

    n_buses = None
    ref = None
    lines: list[tuple[int, int, Fraction]] = []
    flows: list[int] = []
    injections: list[int] = []
    protected: list[int] = []
    saw_meter = False

    for lineno, text in enumerate(raw, start=1):
        stmt = text.split("#", 1)[0].strip()
        if not stmt:
            continue
        tokens = stmt.split()
        kind = tokens[0]
        try:
            if kind == "buses":
                if n_buses is not None:
                    raise ParseError("duplicate buses directive", lineno)
                if len(tokens) not in (2, 4) or (len(tokens) == 4 and tokens[2] != "ref"):
                    raise ParseError("expected: buses <N> [ref <id>]", lineno)
                n_buses = int(tokens[1])
                if len(tokens) == 4:
                    ref = int(tokens[3])
            elif kind == "line":
                if n_buses is None:
                    raise ParseError("line before buses directive", lineno)
                if len(tokens) != 4:
                    raise ParseError("expected: line <from> <to> <reactance>", lineno)
                lines.append((int(tokens[1]), int(tokens[2]), Fraction(tokens[3])))
            elif kind == "meter":
                saw_meter = True
                if len(tokens) != 3 or tokens[1] not in ("flow", "injection"):
                    raise ParseError("expected: meter flow <line>|injection <bus>", lineno)
                if tokens[1] == "flow":
                    flows.append(int(tokens[2]))
                else:
                    injections.append(int(tokens[2]))
            elif kind == "protect":
                if len(tokens) != 2:
                    raise ParseError("expected: protect <meter-index>", lineno)
                protected.append(int(tokens[1]))
            else:
                raise ParseError(f"unknown directive {kind!r}", lineno)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), lineno) from exc

    if n_buses is None:
        raise ParseError("missing buses directive", line=None)
    if not lines:
        raise ValidationError("case has no lines")
    net = Network(n_buses, tuple(Line(f, t, x) for f, t, x in lines),
                  ref if ref is not None else 1)
    if not saw_meter:
        flows = list(range(1, len(lines) + 1))
    meas = MeasurementSystem(tuple(flows), tuple(injections), frozenset(protected))
    metering(net, meas)
    return net, meas
