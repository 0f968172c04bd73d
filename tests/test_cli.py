"""Batch workflow, report serialization, and command-line entry points."""
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import IEEE14_CASE, SIXBUS_CASE

SIX = str(SIXBUS_CASE)
IEEE = str(IEEE14_CASE)
README = Path(__file__).resolve().parent.parent / "README.md"
import gridsec
from gridsec import MeasurementSystem, cli, parse_case, security_index_bounds
from gridsec.cli import (
    METHODS,
    BatchReport,
    MeterEntry,
    emit,
    load_report,
    main,
    run_batch,
)
from gridsec.errors import IntegralityError, MethodUnavailable, SolverDefect, UnknownMeterId


# the six-bus case with every flow metered and an injection meter at bus 3
INJECTED = SIXBUS_CASE.read_text() + "".join(f"meter flow {e}\n" for e in range(1, 8)) \
    + "meter injection 3\n"


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestRunBatch:
    def test_six_bus_lp(self):
        report = run_batch(SIXBUS_CASE)
        assert len(report.entries) == 7
        assert report.mismatches == ()
        indices = {e.meter: e.index for e in report.entries}
        assert indices == {1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 3, 7: 2}
        assert all(e.method == "lp" and e.seconds >= 0 for e in report.entries)

    def test_three_methods_agree(self):
        report = run_batch(SIXBUS_CASE, methods=("lp", "milp", "exhaustive"), jobs=1)
        assert len(report.entries) == 21
        assert report.mismatches == ()
        for method in ("lp", "milp", "exhaustive"):
            got = {e.meter: e.index for e in report.entries if e.method == method}
            assert got[6] == 3

    def test_parallel_jobs_match_serial(self):
        serial = run_batch(SIXBUS_CASE, methods=("lp",), jobs=1)
        parallel = run_batch(SIXBUS_CASE, methods=("lp",), jobs=4)
        strip = lambda r: sorted((e.meter, e.method, e.index) for e in r.entries)
        assert strip(serial) == strip(parallel)

    def test_parallel_entries_keep_the_serial_order(self):
        serial = run_batch(SIXBUS_CASE, methods=("lp", "mincut"), jobs=1)
        parallel = run_batch(SIXBUS_CASE, methods=("lp", "mincut"), jobs=2)
        cells = lambda r: [(e.meter, e.method, e.index, e.error) for e in r.entries]
        assert cells(parallel) == cells(serial)

    def test_a_worker_chunk_unpickles_the_case_once(self, monkeypatch):
        import concurrent.futures
        import pickle

        import gridsec.cli as climod
        import gridsec.grid as gridmod

        class PicklingPool:
            # runs each chunk in this process behind a pickle round trip of
            # its arguments, as the process boundary does
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return [fn(*pickle.loads(pickle.dumps(args))) for args in zip(*iterables)]

        solves = [0]       # l1 base builds
        real = gridmod.solve_l1_base

        def counted(*args, **kwargs):
            solves[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(gridmod, "solve_l1_base", counted)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)
        monkeypatch.setattr(climod.os, "cpu_count", lambda: 2)
        serial = run_batch(IEEE14_CASE, methods=("lp",), jobs=1)
        assert solves == [1]
        parallel = run_batch(IEEE14_CASE, methods=("lp",), jobs=2)
        assert solves == [3]      # one target-free LP per chunk, 20 meters
        assert [(e.meter, e.index) for e in parallel.entries] == \
            [(e.meter, e.index) for e in serial.entries]

    def test_unknown_method(self):
        with pytest.raises(MethodUnavailable):
            run_batch(SIXBUS_CASE, methods=("simplex",))

    def test_bounds_not_batchable(self):
        with pytest.raises(MethodUnavailable):
            run_batch(SIXBUS_CASE, methods=("bounds",))

    def test_empty_methods(self):
        with pytest.raises(MethodUnavailable):
            run_batch(SIXBUS_CASE, methods=())

    def test_duplicate_methods(self):
        with pytest.raises(MethodUnavailable, match="got lp,mincut,lp"):
            run_batch(SIXBUS_CASE, methods=("lp", "mincut", "lp"))

    def test_case_parsed_once_per_batch(self, monkeypatch):
        import gridsec.cli as climod

        calls = []
        real = climod.parse_case
        monkeypatch.setattr(climod, "parse_case",
                            lambda path: calls.append(path) or real(path))
        report = run_batch(SIXBUS_CASE, methods=("lp", "mincut", "exhaustive"), jobs=1)
        assert len(report.entries) == 21
        assert report.mismatches == ()
        assert len(calls) == 1

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        import concurrent.futures

        import gridsec.cli as climod

        seen = []

        class RecordingPool:
            # runs the cells in this process; only records the pool size
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(climod.os, "cpu_count", lambda: 3)
        report = run_batch(SIXBUS_CASE, methods=("mincut",), jobs=64)
        assert seen == [3]
        assert len(report.entries) == 7
        run_batch(SIXBUS_CASE, methods=("mincut",))
        assert seen == [3, 3]

    @pytest.mark.parametrize("error", [SolverDefect, IntegralityError, AssertionError])
    def test_a_failing_cell_fails_alone(self, monkeypatch, tmp_path, error):
        import gridsec.cli as climod

        real = climod.METHODS["milp"]

        def flaky(net, meas, k):
            if k == 3:
                raise error("forged defect")
            return real(net, meas, k)

        monkeypatch.setitem(climod.METHODS, "milp", flaky)
        report = run_batch(SIXBUS_CASE, methods=("lp", "milp"), jobs=1)
        assert len(report.entries) == 14
        (bad,) = report.failures
        assert (bad.meter, bad.method, bad.index) == (3, "milp", None)
        assert bad.error == f"{error.__name__}: forged defect"
        assert report.mismatches == ()
        solved = {(e.method, e.meter): e.index for e in report.entries if e.error is None}
        assert len(solved) == 13
        assert solved[("milp", 6)] == solved[("lp", 6)] == 3
        assert report.sorted_indices["milp"] == (2, 2, 2, 2, 2, 3)
        text = emit(report, "json")
        assert [e["error"] for e in json.loads(text)["entries"] if e["error"]] == [bad.error]
        assert load_report(io.StringIO(text)) == report
        assert "\n3,,milp," in emit(report)
        dest = tmp_path / "r.json"
        rc, _, err = run_main(["bench", SIX, "--methods", "lp,milp", "--jobs", "1",
                               "--format", "json", "--out", str(dest)])
        assert rc == 4
        assert f"meter 3 (milp): {error.__name__}: forged defect" in err
        assert len(load_report(str(dest)).failures) == 1

    def test_a_capped_cell_is_marked_alone(self, monkeypatch, tmp_path):
        import functools

        from gridsec import oracle

        # 50 subsets settle every index-2 meter of ieee14, none above
        monkeypatch.setattr(cli, "exhaustive_min_support",
                            functools.partial(oracle.exhaustive_min_support, cap=50))
        report = run_batch(IEEE14_CASE, ("lp", "exhaustive"), jobs=1)
        capped = [e.meter for e in report.capped]
        assert capped == [4, 5, 7, 9, 10, 13]
        assert all(e.method == "exhaustive" and e.index is None and e.error is None
                   for e in report.capped)
        assert report.failures == ()
        assert report.mismatches == ()
        assert report.sorted_indices["exhaustive"] == (1,) + (2,) * 13
        data = json.loads(emit(report, "json"))
        flags = {(e["method"], e["meter"]): (e["index"], e["error"], e["capped"])
                 for e in data["entries"]}
        assert flags[("exhaustive", 4)] == (None, None, True)
        assert flags[("exhaustive", 1)] == (2, None, False)
        assert load_report(io.StringIO(emit(report, "json"))) == report
        assert "\n4,,exhaustive," in emit(report)
        dest = tmp_path / "r.json"
        rc, _, err = run_main(["bench", IEEE, "--methods", "lp,exhaustive", "--jobs", "1",
                               "--out", str(dest)])
        assert rc == 0
        assert err.count("capped: ") == 6
        assert "capped: meter 13 (exhaustive)" in err

    def test_a_meter_pinned_by_protection_is_infeasible_in_every_method(self, tmp_path):
        # the protected lines 1-2 and 2-3 fix theta1 - theta3, so the 1-3
        # meter cannot move: no index, no error, and no mismatch
        case = tmp_path / "triangle.case"
        case.write_text("buses 3\nline 1 2 0.5\nline 2 3 0.25\nline 1 3 1\nprotect 1\nprotect 2\n")
        report = run_batch(case, methods=("lp", "mincut", "milp", "exhaustive"), jobs=1)
        assert [(e.meter, e.method) for e in report.entries] == \
            [(3, "lp"), (3, "mincut"), (3, "milp"), (3, "exhaustive")]
        assert all(e.index is None and e.error is None and not e.capped for e in report.entries)
        assert report.mismatches == () and report.failures == ()

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError):
            run_batch(SIXBUS_CASE, jobs=0)


@pytest.mark.parametrize("method", METHODS)
def test_every_method_reads_a_numpy_meter_id_as_its_int(method):
    net, meas = parse_case(SIXBUS_CASE)
    meas = MeasurementSystem(meas.flow_meters, protected={np.int64(1)})
    for k in range(2, 8):
        want, got = METHODS[method](net, meas, k), METHODS[method](net, meas, np.int64(k))
        assert (got.index, got.bounds) == (want.index, want.bounds)
        assert (got.attack is None) == (want.attack is None)
        if want.attack is not None:
            assert got.attack.touched == want.attack.touched
    with pytest.raises(TypeError):
        METHODS[method](net, meas, 2.0)


class TestEmit:
    def make_report(self):
        entries = (
            MeterEntry(2, "lp", 3, 0.5),
            MeterEntry(1, "lp", None, 0.25),
            MeterEntry(1, "exhaustive", 2, 0.0001239),
        )
        return BatchReport("toy.case", entries)

    def test_csv_layout(self):
        lines = emit(self.make_report()).splitlines()
        assert lines[0] == "meter,index,method,seconds"
        # sorted by method, then defined indices ascending, None last
        assert lines[1] == "1,2,exhaustive,0.000124"
        assert lines[2] == "2,3,lp,0.500000"
        assert lines[3] == "1,,lp,0.250000"

    def test_csv_deterministic(self):
        report = run_batch(SIXBUS_CASE)
        strip_seconds = lambda text: [",".join(l.split(",")[:3])
                                      for l in text.splitlines()]
        a = strip_seconds(emit(report))
        b = strip_seconds(emit(run_batch(SIXBUS_CASE)))
        assert a == b

    def test_json_round_trip(self):
        report = self.make_report()
        text = emit(report, fmt="json")
        back = load_report(io.StringIO(text))
        assert back == report

    def test_json_is_sorted_and_parseable(self):
        doc = json.loads(emit(self.make_report(), fmt="json"))
        assert doc["case"] == "toy.case"
        assert len(doc["entries"]) == 3

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(self.make_report(), fmt="yaml")


class TestMainExitCodes:
    def test_solve_ok(self):
        rc, out, _ = run_main(["solve", SIX, "-k", "6"])
        assert rc == 0
        assert "meter=6 index=3 method=lp" in out

    def test_solve_mincut(self):
        rc, out, _ = run_main(["solve", SIX, "-k", "6", "--method", "mincut"])
        assert rc == 0
        assert "meter=6 index=3 method=mincut" in out

    def test_solve_bounds(self):
        rc, out, _ = run_main(["solve", SIX, "-k", "1", "--method", "bounds"])
        assert rc == 0
        assert "bounds=2,2" in out

    def test_solve_bounds_on_a_protected_target_is_exit_2(self, tmp_path):
        case = tmp_path / "protected.case"
        case.write_text(SIXBUS_CASE.read_text() + "protect 1\n")
        rc, out, err = run_main(["solve", str(case), "-k", "1", "--method", "bounds"])
        assert rc == 2 and not out
        assert "meter 1 is protected" in err

    def test_missing_case(self):
        rc, _, err = run_main(["solve", "/nonexistent.case", "-k", "1"])
        assert rc == 2
        assert err

    @pytest.mark.parametrize("argv", [["solve", "-k", "1"], ["bench"]])
    def test_non_utf8_case_is_exit_2(self, tmp_path, argv):
        bad = tmp_path / "bad.case"
        bad.write_bytes(b"\xff\xfe\x00")
        rc, out, err = run_main([argv[0], str(bad), *argv[1:]])
        assert rc == 2 and not out
        assert err == f"error: cannot read {bad}: not UTF-8 text\n"

    def test_malformed_case(self, tmp_path):
        bad = tmp_path / "bad.case"
        bad.write_text("buses 2\nline 1 2 oops\nmeter flow 1\n")
        rc, _, err = run_main(["solve", str(bad), "-k", "1"])
        assert rc == 2
        assert "line 2" in err

    def test_absurd_bus_count_is_exit_2(self, tmp_path):
        huge = tmp_path / "huge.case"
        huge.write_text("buses 1000000000000\nline 1 2 0.1\n")
        t0 = time.perf_counter()
        rc, _, err = run_main(["solve", str(huge), "-k", "1"])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        assert "cannot connect" in err

    def test_infeasible(self, tmp_path):
        pinned = tmp_path / "pin.case"
        pinned.write_text(
            "buses 2\nline 1 2 0.1\nline 1 2 0.2\n"
            "meter flow 1\nmeter flow 2\nprotect 2\n")
        rc, _, err = run_main(["solve", str(pinned), "-k", "1"])
        assert rc == 3
        assert "infeasible" in err

    def test_usage_errors(self):
        assert run_main([])[0] == 1
        assert run_main(["solve"])[0] == 1
        assert run_main(["solve", SIX, "-k", "1", "--method", "magic"])[0] == 1
        assert run_main(["bench", SIX, "--jobs", "0"])[0] == 1
        assert run_main(["bench", SIX, "--jobs", "-2"])[0] == 1
        rc, _, err = run_main(["bench", SIX, "--jobs", "abc"])
        assert rc == 1
        assert "argument --jobs: must be a whole number of at least 1, got 'abc'" in err
        assert "_whole" not in err
        for value in ("0", "-3"):
            rc, out, err = run_main(["verify-tu", SIX, "--max-order", value])
            assert rc == 1 and not out
            assert "argument --max-order: must be a whole number of at least 1" in err

    @pytest.mark.parametrize("methods, got", [
        ("magic", "magic"), ("lp,bounds", "lp,bounds"), ("", "none"), (" , ", "none"),
        ("lp, mincut,lp", "lp,mincut,lp"),
    ], ids=["unknown", "bounds", "empty", "blank", "duplicate"])
    def test_bad_bench_methods_are_usage_errors(self, tmp_path, methods, got, monkeypatch):
        def no_batch(*args, **kwargs):
            raise AssertionError("bench ran with bad --methods")

        monkeypatch.setattr(cli, "run_batch", no_batch)
        dest = tmp_path / "kept.csv"
        dest.write_text("earlier report\n")
        rc, out, err = run_main(["bench", SIX, "--methods", methods, "--out", str(dest)])
        assert rc == 1 and not out
        assert (f"argument --methods: need distinct methods of lp,mincut,milp,exhaustive, "
                f"got {got}\n") in err
        assert dest.read_text() == "earlier report\n"

    def test_reactance_past_the_float_range_is_exit_2(self, tmp_path):
        case = tmp_path / "big.case"
        case.write_text("buses 2\nline 1 2 1e400\nline 1 2 1\n")
        rc, _, err = run_main(["solve", str(case), "-k", "1", "--method", "mincut"])
        assert rc == 2
        assert "line 1 has a reactance outside [1e-150, 1e150]" in err

    @pytest.mark.parametrize("argv", [["attack", SIX, "-k", "6"],
                                      ["bench", SIX, "--methods", "lp", "--jobs", "1"]])
    def test_unwritable_out_is_exit_2(self, tmp_path, argv, monkeypatch):
        def no_batch(*args, **kwargs):
            raise AssertionError("bench solved before it checked --out")

        monkeypatch.setattr(cli, "run_batch", no_batch)
        dest = tmp_path / "missing" / "dir" / "a.json"
        rc, _, err = run_main(argv + ["--out", str(dest)])
        assert rc == 2
        assert err == f"error: cannot write {dest}: No such file or directory\n"

    def test_meter_out_of_range(self):
        rc, _, err = run_main(["solve", SIX, "-k", "99"])
        assert rc == 2
        assert err

    def test_internal_mismatch_is_exit_4(self, monkeypatch, tmp_path):
        import gridsec.cli as climod

        def wrong_milp(case_path, method, k):
            entry = climod._solve_one(case_path, "lp", k)
            return MeterEntry(entry.meter, "milp", (entry.index or 0) + 1,
                              entry.seconds)

        real = climod._solve_one
        monkeypatch.setattr(
            climod, "_solve_one",
            lambda c, m, k: wrong_milp(c, m, k) if m == "milp" else real(c, m, k))
        out = tmp_path / "r.csv"
        rc, _, err = run_main(["bench", SIX, "--methods", "lp,milp",
                               "--jobs", "1", "--out", str(out)])
        assert rc == 4
        assert "mismatch" in err


    def test_solver_defect_is_exit_4(self, monkeypatch):
        import gridsec.lp as lpmod

        monkeypatch.setattr(lpmod, "_pivot_budget", lambda tab: 0)
        rc, _, err = run_main(["solve", SIX, "-k", "6"])
        assert rc == 4
        assert "pivot budget" in err


@pytest.mark.parametrize("method", tuple(METHODS))
@pytest.mark.parametrize("where", ["zero", "past-the-last"])
def test_a_flow_meter_on_a_missing_line_is_unknown(method, where):
    # line 0 must not alias the last line, whichever meter is targeted
    net, meas = parse_case(IEEE14_CASE)
    lid = 0 if where == "zero" else len(net.lines) + 1
    system = MeasurementSystem((lid,) + meas.flow_meters[1:])
    for k in (1, 2):
        with pytest.raises(UnknownMeterId, match=f"missing line {lid}"):
            METHODS[method](net, system, k)


class TestAttackCommand:
    def test_stdout_json(self):
        rc, out, _ = run_main(["attack", SIX, "-k", "6"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["meter"] == 6
        assert len(doc["touched"]) == 3
        assert doc["delta_z"][5] == pytest.approx(1.0)

    def test_a_case_with_injection_meters_emits_the_bounds_witness(self, tmp_path):
        case = tmp_path / "injected.case"
        case.write_text(INJECTED)
        rc, out, _ = run_main(["attack", str(case), "-k", "6"])
        assert rc == 0
        atk = security_index_bounds(*parse_case(case), 6).attack
        assert json.loads(out) == {
            "meter": 6,
            "delta_theta": [float(v) for v in atk.delta_theta],
            "delta_z": [float(v) for v in atk.delta_z],
            "touched": sorted(atk.touched),
        }
        # a witness over all eight meters, the injection included
        assert len(atk.delta_z) == 8 and atk.delta_z[5] == 1

    def test_out_file(self, tmp_path):
        dest = tmp_path / "attack.json"
        rc, out, _ = run_main(["attack", SIX, "-k", "6",
                               "--out", str(dest)])
        assert rc == 0
        doc = json.loads(dest.read_text())
        assert doc["meter"] == 6


class TestVerifyTuCommand:
    def test_six_bus_yes(self):
        rc, out, _ = run_main(["verify-tu", SIX])
        assert rc == 0
        assert "yes" in out

    def test_ieee14_yes(self):
        rc, out, _ = run_main(["verify-tu", IEEE, "--max-order", "2"])
        assert rc == 0
        assert "yes" in out

    def test_a_case_with_injection_meters_is_exit_2(self, tmp_path):
        case = tmp_path / "injected.case"
        case.write_text(INJECTED)
        rc, out, err = run_main(["verify-tu", str(case)])
        assert (rc, out, err) == (2, "", "error: total unimodularity applies to the flow rows only\n")

    def test_the_readme_line_runs(self, monkeypatch):
        # the flow rows' 341120 minors up to order 3 exceed the default
        # enumeration budget; two nonzeros per row are decided without it
        line = next(line for line in README.read_text(encoding="utf-8").splitlines()
                    if line.startswith("gridsec verify-tu "))
        monkeypatch.chdir(README.parent)
        rc, out, err = run_main(line.split("#")[0].split()[1:])
        assert (rc, out, err) == (0, "totally-unimodular<=order-3: yes\n", "")


class TestBenchCommand:
    def test_csv_to_file(self, tmp_path):
        dest = tmp_path / "report.csv"
        rc, _, _ = run_main(["bench", SIX, "--methods", "lp",
                             "--jobs", "1", "--out", str(dest)])
        assert rc == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "meter,index,method,seconds"
        assert len(lines) == 8

    def test_default_method_is_mincut(self, tmp_path):
        dest = tmp_path / "report.csv"
        rc, _, _ = run_main(["bench", SIX, "--jobs", "1", "--out", str(dest)])
        assert rc == 0
        rows = [line.split(",") for line in dest.read_text().splitlines()[1:]]
        assert len(rows) == 7
        assert {r[2] for r in rows} == {"mincut"}
        assert sorted(int(r[1]) for r in rows) == [2, 2, 2, 2, 2, 2, 3]

    def test_json_round_trip(self, tmp_path):
        dest = tmp_path / "report.json"
        rc, _, _ = run_main(["bench", SIX, "--methods", "lp,exhaustive",
                             "--jobs", "1", "--format", "json",
                             "--out", str(dest)])
        assert rc == 0
        report = load_report(str(dest))
        assert len(report.entries) == 14
        assert report.mismatches == ()


def test_module_entry_point():
    # the child imports the same gridsec as the tests, installed or not;
    # any warning (say, the package importing gridsec.cli before runpy
    # runs it) is an error there
    path = [str(Path(gridsec.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "gridsec.cli", "solve", SIX, "-k", "6"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.stderr == ""
    assert proc.returncode == 0
    assert "index=3" in proc.stdout
