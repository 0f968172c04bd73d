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
from operator import index

import numpy as np

from .errors import (
    DisconnectedGraph,
    ParseError,
    RankDeficient,
    UnknownMeterId,
    ValidationError,
)
from .exactla import to_fraction
from .tumin import L1Base, MeterSpace, meter_space, solve_l1_base

FLOAT_TOL = 1e-9
# any ratio of two reactances in this range is a finite float64
_MIN_REACTANCE, _MAX_REACTANCE = Fraction(1, 10 ** 150), 10 ** 150


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    reactance: Fraction


@dataclass(frozen=True)
class Network:
    """Connected set of buses joined by lines with reactances in [1e-150, 1e150];
    bus ids are read by operator.index, so a non-integral one is a TypeError."""

    n_buses: int
    lines: tuple[Line, ...]
    reference_bus: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n_buses", index(self.n_buses))
        object.__setattr__(self, "reference_bus", index(self.reference_bus))
        if self.n_buses < 2:
            raise ValidationError("a network needs at least two buses")
        # a Line is read like a (from, to, reactance) tuple
        lines = tuple(
            Line(index(a), index(b), to_fraction(x)) for a, b, x in
            ((ln.from_bus, ln.to_bus, ln.reactance) if isinstance(ln, Line) else ln
             for ln in self.lines)
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
            if not _MIN_REACTANCE <= ln.reactance <= _MAX_REACTANCE:
                raise ValidationError(f"line {i} has a reactance outside [1e-150, 1e150]")
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

    @cached_property
    def _meterings(self) -> dict:
        """metering()'s records of this network, by measurement system."""
        return {}

    def __getstate__(self):
        # the records and what they solved stay with this object
        state = dict(self.__dict__)
        state.pop("_meterings", None)
        return state


@dataclass(frozen=True)
class MeasurementSystem:
    """Which quantities are metered, which meters are protected.

    flow_meters hold 1-based line ids, injection_meters hold bus ids.
    protected holds 1-based indices into the combined meter list.  Ids
    are read by operator.index, so a non-integral one is a TypeError.
    """

    flow_meters: tuple[int, ...]
    injection_meters: tuple[int, ...] = ()
    protected: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "flow_meters", tuple(map(index, self.flow_meters)))
        object.__setattr__(self, "injection_meters", tuple(map(index, self.injection_meters)))
        object.__setattr__(self, "protected", frozenset(map(index, self.protected)))
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
        """("flow", line_id) or ("injection", bus_id) for a 1-based meter index,
        read by operator.index, so a non-integral one is a TypeError."""
        idx, nf = index(idx), len(self.flow_meters)
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


@dataclass(frozen=True, slots=True)
class AttackVector:
    delta_theta: np.ndarray
    delta_z: np.ndarray
    touched: frozenset[int]       # 1-based meter indices with |delta_z| > tol


def incidence(net: Network) -> tuple[np.ndarray, np.ndarray]:
    """(B0, B): dense directed bus-line incidence of every line and its
    reference-row truncation; the oracle's big-M is its largest |B| column sum.

    B0 is (n_buses x n_lines) with +1 at the from-bus and -1 at the to-bus;
    B drops the reference bus row.
    """
    B0 = np.zeros((net.n_buses, len(net.lines)), dtype=int)
    for j, ln in enumerate(net.lines):
        B0[ln.from_bus - 1, j] = 1
        B0[ln.to_bus - 1, j] = -1
    keep = [b - 1 for b in net.state_buses]
    return B0, B0[keep, :]


@dataclass(frozen=True)
class Metering:
    """A measurement system resolved against its network by metering(),
    once per (network, measurement system) pair: the line each flow meter
    reads, the 0-based slot of each metered line id and bus in the combined
    meter list (flows first) and of each state bus among the state columns,
    and what the solvers derive from them on first use (the metered-line
    graph in arc form, one record per line for the witness read-back, the
    flow rows, and the l1 base and the MILP root, each solved once for
    every target of the system), all kept with the network."""

    net: Network
    meas: MeasurementSystem
    lines: tuple[Line, ...]
    flow_slot: dict[int, int]
    injection_slot: dict[int, int]
    state_column: dict[int, int]

    @cached_property
    def arcs(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """The metered-line graph in arc form, (out, head): arc 2e runs
        along flow slot e from its line's from-bus to its to-bus, arc
        2e + 1 back; out[b] holds the arcs leaving bus b (index 0 unused)
        and head[x] the bus arc x enters."""
        out: list[list[int]] = [[] for _ in range(self.net.n_buses + 1)]
        head = []
        for e, ln in enumerate(self.lines):
            out[ln.from_bus].append(2 * e)
            out[ln.to_bus].append(2 * e + 1)
            head += (ln.to_bus, ln.from_bus)
        return tuple(map(tuple, out)), tuple(head)

    @cached_property
    def capacity(self) -> tuple[int, ...]:
        """Cut weight of each metered line, by flow slot: 1, or on a protected
        line one more than the flow meter count, more than any cut of
        unprotected lines."""
        unbounded = len(self.lines) + 1
        return tuple(unbounded if i in self.meas.protected else 1
                     for i in range(1, len(self.lines) + 1))

    @cached_property
    def bus_lines(self) -> tuple[tuple[int, ...], ...]:
        """Per bus (index 0 unused), the 1-based ids of every line at it,
        metered or not."""
        at: list[list[int]] = [[] for _ in range(self.net.n_buses + 1)]
        for lid, ln in enumerate(self.net.lines, start=1):
            at[ln.from_bus].append(lid)
            at[ln.to_bus].append(lid)
        return tuple(map(tuple, at))

    @cached_property
    def line_records(self) -> tuple[tuple[int, int, int, int, int, int, int], ...]:
        """Per line of the network (0-based), what the witness read-back
        needs of it: (from-bus, to-bus, flow slot, from-bus injection slot,
        to-bus injection slot, reactance numerator, reactance denominator),
        each slot -1 where no meter reads it."""
        flow, inj = self.flow_slot, self.injection_slot
        return tuple((ln.from_bus, ln.to_bus, flow.get(lid, -1), inj.get(ln.from_bus, -1),
                      inj.get(ln.to_bus, -1), ln.reactance.numerator, ln.reactance.denominator)
                     for lid, ln in enumerate(self.net.lines, start=1))

    @cached_property
    def flow_pairs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The one form of the integer flow rows, read off the arcs: slot e
        holds d at the state column of each end of its line, +1 at the
        from-bus (arc 2e leaves it) and -1 at the to-bus (arc 2e + 1), the
        state buses walked in ascending order (tumin.sparse_rows pairs)."""
        out = self.arcs[0]
        rows: list[list[tuple[int, int]]] = [[] for _ in self.lines]
        for c, bus in enumerate(self.net.state_buses):
            for x in out[bus]:
                e, d = x >> 1, -1 if x & 1 else 1
                rows[e].append((c, d))
        return tuple(map(tuple, rows))

    @cached_property
    def meter_space(self) -> MeterSpace:
        """flow_pairs and the protected meters in meter space
        (tumin.meter_space: the one state elimination of the system, its
        layout, state map and column index, with flow_pairs itself, no
        copy), read as is by l1_base and milp_root."""
        return meter_space(self.flow_pairs, self.net.n_states, self.meas.protected)

    @cached_property
    def l1_base(self) -> L1Base:
        """The solved target-free l1 LP of meter_space (tumin.solve_l1_base:
        its ternary tableau as live lists of ints that every target copies),
        built on the first LP solve of a flow-only system, never at parse
        time."""
        return solve_l1_base(self.meter_space)

    @cached_property
    def milp_root(self):
        """The solved target-free big-M root of meter_space with the
        network's big-M (oracle.MilpRoot: its optimal tableau, solved from
        the l1 base's crash basis with no phase 1 and copied by every
        target), built on the first MILP solve of a flow-only system, never
        at parse time."""
        from .oracle import _big_m, _milp_root      # oracle imports this module
        return _milp_root(self.meter_space, _big_m(self.net))


def metering(net: Network, meas: MeasurementSystem) -> Metering:
    """The one check of meter ids against a network: a missing line or bus
    raises UnknownMeterId, an injection at the reference bus (which the
    truncated model has no row for) ValidationError.  The record is built
    once and kept on net, by meas, for as long as net lives; it does not
    travel when net is pickled."""
    table = net._meterings
    mtr = table.get(meas)
    if mtr is None:
        mtr = table[meas] = _resolve(net, meas)
    return mtr


def _resolve(net: Network, meas: MeasurementSystem) -> Metering:
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
                    {bus: j for j, bus in enumerate(meas.injection_meters, start=nf)},
                    {bus: c for c, bus in enumerate(net.state_buses)})


def flow_rows(net: Network, meas: MeasurementSystem) -> np.ndarray:
    """Integer flow rows with the reactances dropped, in meter order:
    Metering.flow_pairs densified, the metered lines' rows of the truncated
    incidence transpose.  Meter ids are checked by metering()."""
    pairs = metering(net, meas).flow_pairs
    A = np.zeros((len(pairs), net.n_states), dtype=int)
    for i, row in enumerate(pairs):
        for c, d in row:
            A[i, c] = d
    return A


def _exact_H_rows(net: Network, meas: MeasurementSystem) -> list[list[Fraction]]:
    """Measurement matrix rows over exact rationals (same order as build_H):
    flow_pairs over each line's reactance, then each injection row summed
    over the lines at its bus (Metering.bus_lines)."""
    mtr = metering(net, meas)
    pos = mtr.state_column
    rows = [[Fraction(0)] * net.n_states for _ in range(meas.n_meters)]
    for row, pairs, ln in zip(rows, mtr.flow_pairs, mtr.lines):
        for c, d in pairs:
            row[c] = d / ln.reactance
    for row, bus in zip(rows[len(mtr.lines):], meas.injection_meters):
        for lid in mtr.bus_lines[bus]:    # +1/x on the diagonal, -1/x toward the far end
            ln = net.lines[lid - 1]
            far = ln.to_bus if ln.from_bus == bus else ln.from_bus
            row[pos[bus]] += 1 / ln.reactance
            if far in pos:
                row[pos[far]] -= 1 / ln.reactance
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
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from exc

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
                lines.append((int(tokens[1]), int(tokens[2]), to_fraction(tokens[3])))
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
