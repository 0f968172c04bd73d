"""Network model, measurement matrices, estimation, and the case parser."""
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import IEEE14_CASE, SIXBUS_CASE, random_connected_edges, sixbus_network
from gridsec import (
    MeasurementSystem,
    Network,
    bdd_residual,
    build_H,
    craft_attack,
    flow_rows,
    incidence,
    parse_case,
    security_index_bounds,
    wls_estimate,
)
from gridsec.errors import (
    DisconnectedGraph,
    ParseError,
    RankDeficient,
    UnknownMeterId,
    ValidationError,
)
from gridsec.grid import Line, full_flow_metering


class TestNetwork:
    def test_two_bus_line(self):
        net = Network(2, ((1, 2, Fraction(1, 2)),))
        assert net.n_states == 1
        assert net.state_buses == (2,)

    def test_reactance_kept_exact_from_float(self):
        net = Network(2, ((1, 2, 0.1),))
        assert net.lines[0].reactance == Fraction(1, 10)

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            Network(2, ((1, 1, 1), (1, 2, 1)))

    def test_rejects_nonpositive_reactance(self):
        with pytest.raises(ValidationError):
            Network(2, ((1, 2, 0),))

    def test_rejects_missing_bus(self):
        with pytest.raises(ValidationError):
            Network(2, ((1, 3, 1),))

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            Network(4, ((1, 2, 1), (3, 4, 1)))

    def test_reference_bus_choice(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)), reference_bus=2)
        assert net.state_buses == (1, 3)

    def test_state_buses_cached_without_changing_equality(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)), reference_bus=2)
        assert net.state_buses is net.state_buses
        fresh = Network(3, ((1, 2, 1), (2, 3, 1)), reference_bus=2)
        assert net == fresh
        assert hash(net) == hash(fresh)

    def test_reactance_kept_exact_from_numpy_floats(self):
        net = Network(2, ((1, 2, np.float64(0.1)), (1, 2, np.float32(0.5))))
        assert [ln.reactance for ln in net.lines] == [Fraction(1, 10), Fraction(1, 2)]

    def test_rejects_more_buses_than_lines_connect_before_allocating(self):
        t0 = time.perf_counter()
        with pytest.raises(DisconnectedGraph):
            Network(10**12, ((1, 2, 1),))
        assert time.perf_counter() - t0 < 1.0


class TestIncidence:
    def test_three_bus_columns(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)))
        B0, B = incidence(net)
        assert B0.tolist() == [[1, 0], [-1, 1], [0, -1]]
        assert B.tolist() == [[-1, 1], [0, -1]]

    def test_column_sums_vanish(self):
        B0, _ = incidence(sixbus_network())
        assert np.array_equal(B0.sum(axis=0), np.zeros(7, dtype=int))

    def test_reference_row_dropped(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)), reference_bus=3)
        _, B = incidence(net)
        assert B.tolist() == [[1, 0], [-1, 1]]

    def test_flow_rows_are_the_metered_incidence_rows(self):
        rng = random.Random(11)
        for _ in range(60):
            n, edges = random_connected_edges(rng, 8)
            net = Network(n, tuple((u, v, 1) for u, v in edges), rng.randint(1, n))
            lids = rng.sample(range(1, len(edges) + 1), rng.randint(1, len(edges)))
            _, B = incidence(net)
            A = flow_rows(net, MeasurementSystem(lids))
            assert A.dtype.kind == "i"
            assert np.array_equal(A, B.T[[lid - 1 for lid in lids], :])

    def test_flow_rows_reject_a_missing_line(self):
        with pytest.raises(UnknownMeterId):
            flow_rows(sixbus_network(), MeasurementSystem((1, 8)))


class TestMeasurementSystem:
    def test_meter_kind_ordering(self):
        meas = MeasurementSystem((2, 1), (3,))
        assert meas.meter_kind(1) == ("flow", 2)
        assert meas.meter_kind(2) == ("flow", 1)
        assert meas.meter_kind(3) == ("injection", 3)
        with pytest.raises(UnknownMeterId):
            meas.meter_kind(4)

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            MeasurementSystem((1, 1))
        with pytest.raises(ValidationError):
            MeasurementSystem((1,), (2, 2))

    def test_rejects_protected_out_of_range(self):
        with pytest.raises(ValidationError):
            MeasurementSystem((1, 2), protected=frozenset({3}))

    def test_full_flow_metering(self):
        meas = full_flow_metering(sixbus_network())
        assert meas.flow_meters == tuple(range(1, 8))
        assert meas.injection_meters == ()
        assert meas.protected == frozenset()


class TestBuildH:
    def test_two_bus_flow_and_injection(self):
        net = Network(2, ((1, 2, Fraction(1, 2)),))
        meas = MeasurementSystem((1,), (2,))
        H = build_H(net, meas)
        assert H.H.tolist() == [[-2.0], [2.0]]
        assert H.row_labels == (("flow", 1), ("injection", 2))

    def test_flow_rows_scale_with_susceptance(self):
        net = Network(3, ((1, 2, Fraction(1, 4)), (2, 3, Fraction(1, 2))))
        H = build_H(net, MeasurementSystem((1, 2)))
        assert H.H.tolist() == [[-4.0, 0.0], [2.0, -2.0]]

    def test_injection_row_is_laplacian_row(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)))
        H = build_H(net, MeasurementSystem((), (2, 3)))
        assert H.H.tolist() == [[2.0, -1.0], [-1.0, 1.0]]

    def test_rejects_reference_injection(self):
        net = Network(2, ((1, 2, 1),))
        with pytest.raises(ValidationError):
            build_H(net, MeasurementSystem((), (1,)))

    def test_rejects_missing_line(self):
        net = Network(2, ((1, 2, 1),))
        with pytest.raises(UnknownMeterId):
            build_H(net, MeasurementSystem((2,)))

    def test_ieee14_shape(self):
        net, meas = parse_case(IEEE14_CASE)
        H = build_H(net, meas)
        assert H.H.shape == (20, 13)
        assert all(kind == "flow" for kind, _ in H.row_labels)


class TestEstimation:
    def setup_method(self):
        self.net, self.meas = parse_case(IEEE14_CASE)
        self.H = build_H(self.net, self.meas)
        self.rng = np.random.default_rng(2)

    def test_exact_recovery_without_noise(self):
        theta = self.rng.normal(size=13)
        z = self.H.H @ theta
        est = wls_estimate(self.H, None, z)
        assert np.allclose(est, theta, atol=1e-10)
        _, norm = bdd_residual(self.H, None, z)
        assert norm < 1e-10

    def test_weights_affect_estimate_scale_invariantly(self):
        theta = self.rng.normal(size=13)
        z = self.H.H @ theta + 1e-3 * self.rng.normal(size=20)
        w = self.rng.uniform(0.5, 2.0, size=20)
        a = wls_estimate(self.H, w, z)
        b = wls_estimate(self.H, 10.0 * w, z)
        assert np.allclose(a, b, atol=1e-9)

    def test_weight_matrix_equals_vector(self):
        theta = self.rng.normal(size=13)
        z = self.H.H @ theta + 1e-3 * self.rng.normal(size=20)
        w = self.rng.uniform(0.5, 2.0, size=20)
        a = wls_estimate(self.H, w, z)
        b = wls_estimate(self.H, np.diag(w), z)
        assert np.allclose(a, b, atol=1e-12)

    def test_rank_deficient_raises(self):
        net = Network(3, ((1, 2, 1), (2, 3, 1)))
        H = build_H(net, MeasurementSystem((1,)))
        with pytest.raises(RankDeficient):
            wls_estimate(H, None, np.array([1.0]))

    def test_craft_attack_touched(self):
        dtheta = np.zeros(13)
        dtheta[12] = 0.3   # bus 14 angle; lines 17 (9-14) and 20 (13-14) react
        atk = craft_attack(self.H, dtheta)
        assert atk.touched == frozenset({17, 20})
        assert np.allclose(atk.delta_z, self.H.H @ dtheta)


class TestParser:
    def test_sixbus_defaults(self):
        net, meas = parse_case(SIXBUS_CASE)
        assert net.n_buses == 6
        assert len(net.lines) == 7
        assert net.lines[0] == Line(1, 2, Fraction(1, 10))
        assert meas.flow_meters == tuple(range(1, 8))
        assert meas.injection_meters == ()
        assert meas.protected == frozenset()

    def test_ieee14(self):
        net, meas = parse_case(IEEE14_CASE)
        assert net.n_buses == 14
        assert len(net.lines) == 20
        assert net.reference_bus == 1
        assert net.lines[6] == Line(4, 5, Fraction("0.04211"))
        assert meas.n_meters == 20

    def _parse_text(self, tmp_path, text):
        path = tmp_path / "case.txt"
        path.write_text(text)
        return parse_case(path)

    def test_full_grammar(self, tmp_path):
        net, meas = self._parse_text(tmp_path, """
# comment line
buses 3 ref 2
line 1 2 0.5   # trailing comment
line 2 3 1/4
meter flow 2
meter injection 3
protect 1
""")
        assert net.reference_bus == 2
        assert net.lines[1].reactance == Fraction(1, 4)
        assert meas.flow_meters == (2,)
        assert meas.injection_meters == (3,)
        assert meas.protected == frozenset({1})

    def test_error_carries_line_number(self, tmp_path):
        with pytest.raises(ParseError) as err:
            self._parse_text(tmp_path, "buses 2\nline 1 2 bogus\n")
        assert err.value.line == 2
        assert "line 2:" in str(err.value)

    @pytest.mark.parametrize("text", [
        "line 1 2 1\n",                          # line before buses
        "buses 2\nbuses 2\n",                    # duplicate buses
        "buses 2\nline 1 2\n",                   # missing reactance
        "buses 2\nline 1 2 1\nmeter flow\n",     # missing meter id
        "buses 2\nline 1 2 1\nmeter volt 1\n",   # unknown meter kind
        "buses 2\nline 1 2 1\nprotect\n",        # missing protect id
        "buses 2\nline 1 2 1\nfrobnicate 1\n",   # unknown directive
        "buses two\n",                           # non-numeric count
    ])
    def test_malformed_directives(self, tmp_path, text):
        with pytest.raises(ParseError):
            self._parse_text(tmp_path, text)

    def test_absurd_bus_count_rejected_fast(self, tmp_path):
        t0 = time.perf_counter()
        with pytest.raises(DisconnectedGraph):
            self._parse_text(tmp_path, "buses 1000000000000\nline 1 2 0.1\n")
        assert time.perf_counter() - t0 < 1.0

    def test_missing_buses_directive(self, tmp_path):
        with pytest.raises(ParseError):
            self._parse_text(tmp_path, "# nothing\n")

    @pytest.mark.parametrize("text,err", [
        ("buses 2\n", ValidationError),                               # no lines
        ("buses 2\nline 1 2 1\nmeter flow 9\n", UnknownMeterId),      # bad line id
        ("buses 2\nline 1 2 1\nmeter injection 9\n", UnknownMeterId),
        ("buses 2\nline 1 2 1\nmeter injection 1\n", ValidationError),  # ref bus
        ("buses 2\nline 1 2 1\nprotect 5\n", ValidationError),
        ("buses 4\nline 1 2 1\nline 3 4 1\n", DisconnectedGraph),
    ])
    def test_semantic_errors(self, tmp_path, text, err):
        with pytest.raises(err) as raised:
            self._parse_text(tmp_path, text)
        assert type(raised.value) is err

    def test_reference_bus_injection_reads_as_at_solve_time(self, tmp_path):
        with pytest.raises(ValidationError) as parsed:
            self._parse_text(tmp_path, "buses 2\nline 1 2 1\nmeter injection 1\n")
        net = Network(2, ((1, 2, 1),))
        with pytest.raises(ValidationError) as solved:
            security_index_bounds(net, MeasurementSystem((1,), (1,)), 1)
        assert type(parsed.value) is type(solved.value) is ValidationError
        assert str(parsed.value) == str(solved.value)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_case("/nonexistent/grid.case")
