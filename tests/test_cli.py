import csv
import io
import json
import math
import os
import warnings

import pytest

import numpy as np

from gaborlattice import GammaTable, SignalModel, forward_table
from gaborlattice.cli import main
from gaborlattice.verify import run_suite

COLUMNS = ("m", "k", "mantissa_re", "mantissa_im", "exponent")
GAUSSIAN = {"kind": "gaussian_family",
            "components": [{"amplitude": 1.0, "center": 0.0, "modulation": 0.0}]}
FAMILY = [(0.8 - 0.3j, 0.4, -0.9), (0.5, -1.1, 1.3)]  # (amplitude, centre, modulation)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _no_constant(constant):
    """parse_constant for json.loads: NaN and Infinity are not RFC 8259 JSON."""
    raise ValueError(f"{constant} in the report")


@pytest.fixture
def forward_config(tmp_path):
    return write_json(tmp_path / "fwd.json",
                      {"tau": 1.0, "signal": GAUSSIAN, "truncation": {"M": 5, "K": 9}})


@pytest.fixture
def table_path(tmp_path, forward_config):
    out = tmp_path / "table.json"
    assert main(["forward", "--config", forward_config, "--output", str(out)]) == 0
    return str(out)


@pytest.fixture
def reconstruct_config(tmp_path):
    return write_json(tmp_path / "rec.json", {
        "tau": 1.0,
        "grid": {"min": -3.0, "max": 3.0, "step": 0.05},
        "tol": 1e-8,
        "truncation": "auto",
        "signal": GAUSSIAN,
    })


class TestForward:
    def test_table_contents(self, table_path):
        doc = json.loads(open(table_path).read())
        assert doc["meta"]["tau"] == 1.0
        assert doc["meta"]["M"] == 5 and doc["meta"]["K"] == 9
        assert len(doc["data"]["m"]) == 11 * 19

    def test_single_entry_value(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"tau": 1.0, "signal": GAUSSIAN, "truncation": {"M": 0, "K": 0}})
        out = tmp_path / "t.json"
        assert main(["forward", "--config", cfg, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        value = doc["data"]["mantissa_re"][0] * (2.0 ** 128) ** doc["data"]["exponent"][0]
        assert value == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)

    def test_zero_signal_all_zero(self, tmp_path):
        zero_sig = {"kind": "gaussian_family",
                    "components": [{"amplitude": 0.0, "center": 0.0, "modulation": 0.0}]}
        cfg = write_json(tmp_path / "c.json",
                         {"tau": 1.0, "signal": zero_sig, "truncation": {"M": 1, "K": 1}})
        out = tmp_path / "t.json"
        assert main(["forward", "--config", cfg, "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert all(v == 0.0 for v in doc["data"]["mantissa_re"])

    def test_readback_bit_exact(self, tmp_path, table_path):
        # writing the parsed table again reproduces the file byte for byte
        from gaborlattice.cli import _table_document, _table_from_document

        doc = json.loads(open(table_path).read())
        table = _table_from_document(doc, "table")
        again = _table_document(table, doc["meta"]["signal"])
        assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda tau=tau: forward_table(SignalModel.gaussian(FAMILY), tau, 4, 7),
                     id=f"tau={tau}") for tau in (0.3, 1.0, 3.1)
    ] + [
        pytest.param(lambda: forward_table(SignalModel.gaussian([(0.0, 0.0, 0.0)]), 1.0, 1, 1),
                     id="zero_signal"),
        pytest.param(lambda: forward_table(SignalModel.callback(
            lambda x: np.exp(-x * x / 2) * np.cos(x), bound=1.0, growth=0.0), 0.6, 2, 5),
            id="callback"),
        pytest.param(lambda: GammaTable(0, 1, 1.0, [-0.0, complex(0.5, -0.0), complex(-0.0, -0.0)],
                                        [0, -1, 0]), id="negative_zero"),
    ])
    def test_table_json_is_json_dumps(self, build):
        from gaborlattice.cli import _table_document, _table_json, signal_to_spec

        table = build()
        doc = _table_document(table, signal_to_spec(SignalModel.gaussian(FAMILY)))
        text = _table_json(table, doc["meta"]["signal"])
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        if table.M == 0:  # the hand-made table: -0.0 is written as json writes it
            assert text.count("-0.0") == 4

    def test_table_file_bytes_are_json_dumps(self, table_path):
        with open(table_path, "rb") as fh:
            data = fh.read()
        assert data == (json.dumps(json.loads(data), sort_keys=True, indent=2) + "\n").encode()

    @pytest.mark.parametrize("x_max", [math.nan, -1.0])
    def test_bad_x_max_exit_2_no_output(self, tmp_path, x_max):
        cfg = write_json(tmp_path / "fwd.json", {"tau": 1.0, "signal": GAUSSIAN,
                                                 "truncation": "auto", "x_max": x_max})
        out = tmp_path / "table.json"
        assert main(["forward", "--config", cfg, "--output", str(out)]) == 2
        assert not out.exists()
        assert not any(p.name.startswith("table.json.tmp") for p in tmp_path.iterdir())

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"tau": 1.0, "signal": GAUSSIAN, "truncation": {"M": 0, "K": 0},
                          "extra": True})
        assert main(["forward", "--config", cfg, "--output", str(tmp_path / "t.json")]) == 2


class TestReconstruct:
    def test_round_trip_summary(self, tmp_path, table_path, reconstruct_config):
        out = tmp_path / "pts.csv"
        rc = main(["reconstruct", "--config", reconstruct_config,
                   "--table", table_path, "--output", str(out)])
        assert rc == 0
        summary = json.loads((tmp_path / "pts.csv.summary.json").read_text())
        assert summary["summary"]["sup_error"] <= 1e-6
        assert summary["summary"]["points"] == 121
        lines = out.read_text().splitlines()
        assert lines[0] == "x,f_ref_re,f_ref_im,f_rec_re,f_rec_im,abs_err"
        assert len(lines) == 122

    def test_summary_errors_come_from_the_abs_err_column(self, tmp_path, table_path,
                                                         reconstruct_config):
        out = tmp_path / "pts.csv"
        assert main(["reconstruct", "--config", reconstruct_config,
                     "--table", table_path, "--output", str(out)]) == 0
        summary = json.loads((tmp_path / "pts.csv.summary.json").read_text())["summary"]
        rows = np.loadtxt(out, delimiter=",", skiprows=1)  # '%.17g' reads back exactly
        ref, abs_err = rows[:, 1] + 1j * rows[:, 2], rows[:, 5]
        assert abs_err.tolist() == [abs(complex(*r[3:5]) - complex(*r[1:3])) for r in rows]
        assert summary["sup_error"] == abs_err.max() / np.abs(ref).max()
        assert summary["l2_error"] == np.linalg.norm(abs_err) / np.linalg.norm(ref)

    def test_stdout_is_the_csv_alone(self, capsys, table_path, reconstruct_config):
        # with no --output and no --summary the summary goes to stderr
        assert main(["reconstruct", "--config", reconstruct_config, "--table", table_path]) == 0
        out, err = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "f_ref_re", "f_ref_im", "f_rec_re", "f_rec_im", "abs_err"]
        assert len(rows) == 122 and all(len(row) == 6 for row in rows)
        assert [float(v) for v in rows[1]]  # every field a number
        summary = json.loads(err)
        assert summary["summary"]["points"] == 121
        assert summary["summary"]["sup_error"] <= 1e-6

    def test_summary_path_without_output(self, capsys, tmp_path, table_path,
                                         reconstruct_config):
        path = tmp_path / "s.json"
        assert main(["reconstruct", "--config", reconstruct_config, "--table", table_path,
                     "--summary", str(path)]) == 0
        out, err = capsys.readouterr()
        assert len(list(csv.reader(io.StringIO(out)))) == 122 and err == ""
        assert json.loads(path.read_text())["summary"]["points"] == 121

    def test_empty_grid(self, tmp_path, table_path):
        cfg = write_json(tmp_path / "c.json", {
            "tau": 1.0, "grid": {"min": 1.0, "max": -1.0, "step": 0.5}})
        out = tmp_path / "pts.csv"
        rc = main(["reconstruct", "--config", cfg, "--table", table_path,
                   "--output", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 1  # header only
        summary = json.loads((tmp_path / "pts.csv.summary.json").read_text())
        assert summary["summary"]["points"] == 0

    def test_tau_mismatch_exit_2_no_partial_output(self, tmp_path, table_path):
        cfg = write_json(tmp_path / "c.json", {
            "tau": 1.1, "grid": {"min": -1.0, "max": 1.0, "step": 0.5}})
        out = tmp_path / "nope.csv"
        rc = main(["reconstruct", "--config", cfg, "--table", table_path,
                   "--output", str(out)])
        assert rc == 2
        assert not out.exists()
        assert not any(p.name.startswith("nope.csv.tmp") for p in tmp_path.iterdir())

    def test_csv_rows(self, tmp_path, table_path, reconstruct_config):
        # every field is format(value, ".17g"); without a reference signal
        # the reference and error fields stay empty
        no_ref = write_json(tmp_path / "noref.json", {
            "tau": 1.0, "grid": {"min": -1.0, "max": 1.0, "step": 0.5}})
        for cfg, name in ((reconstruct_config, "ref.csv"), (no_ref, "noref.csv")):
            out = tmp_path / name
            assert main(["reconstruct", "--config", cfg, "--table", table_path,
                         "--output", str(out)]) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            for row in rows:
                assert len(row) == 6
                assert all(f == format(float(f), ".17g") for f in row if f)
                if name == "noref.csv":
                    assert row[1] == row[2] == row[5] == ""
                else:
                    ref, rec = (complex(float(row[i]), float(row[i + 1])) for i in (1, 3))
                    assert float(row[5]) == abs(rec - ref)
        assert [row[0] for row in rows] == ["-1", "-0.5", "0", "0.5", "1"]

    def test_failure_mid_stream_leaves_no_files(self, monkeypatch, tmp_path, table_path):
        # the CSV is written block by block; a failure in the second block
        # leaves neither the output, its temp file nor the summary behind
        import gaborlattice.fmt17 as fmt17

        real, calls = fmt17._block, []

        def failing_block(*args):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("formatter failed")
            return real(*args)

        monkeypatch.setattr(fmt17, "_block", failing_block)
        cfg = write_json(tmp_path / "c.json", {
            "tau": 1.0, "grid": {"min": -3.0, "max": 3.0, "step": 0.005}})
        with pytest.raises(RuntimeError, match="formatter failed"):
            main(["reconstruct", "--config", cfg, "--table", table_path,
                  "--output", str(tmp_path / "pts.csv")])
        assert len(calls) == 2
        assert not any(p.name.startswith("pts.csv") for p in tmp_path.iterdir())

    @pytest.mark.parametrize("truncation", ["auto", {"M": 5, "K": 9}])
    def test_wide_grid_saturates_exit_3_no_partial_output(self, tmp_path, table_path,
                                                          truncation):
        cfg = write_json(tmp_path / "c.json", {
            "tau": 1.0, "grid": {"min": 800.0, "max": 800.0, "step": 1.0},
            "truncation": truncation})
        out = tmp_path / "pts.csv"
        assert main(["reconstruct", "--config", cfg, "--table", table_path,
                     "--output", str(out)]) == 3
        assert not any(p.name.startswith("pts.csv") for p in tmp_path.iterdir())

    def test_infinite_step_exit_2(self, tmp_path, table_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"tau": 1.0, "grid": {"min": -1.0, "max": 1.0, "step": Infinity}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["reconstruct", "--config", str(cfg), "--table", table_path,
                         "--output", str(tmp_path / "pts.csv")]) == 2
        assert not any(p.name.startswith("pts.csv") for p in tmp_path.iterdir())

    def test_auto_truncation_inside_table_meets_tol(self, tmp_path):
        # a family on which choosing (M, K) inside the table without the
        # guard ring missed tol=1e-8 on [-2 pi, 2 pi] (sup error 1.2e-7)
        signal = {"kind": "gaussian_family", "components": [
            {"amplitude": [0.648904, -0.489038], "center": 0.551371, "modulation": -0.824378},
            {"amplitude": [0.455481, -0.463837], "center": -0.989469, "modulation": 0.963685},
        ]}
        fwd = write_json(tmp_path / "fwd.json", {"tau": 1.0, "signal": signal, "truncation": "auto",
                                                 "tol": 1e-8, "x_max": 2 * math.pi})
        table = tmp_path / "table.json"
        assert main(["forward", "--config", fwd, "--output", str(table)]) == 0
        rec = write_json(tmp_path / "rec.json", {
            "tau": 1.0, "tol": 1e-8, "truncation": "auto", "signal": signal,
            "grid": {"min": -2 * math.pi, "max": 2 * math.pi, "step": 2 * math.pi / 100}})
        out = tmp_path / "pts.csv"
        assert main(["reconstruct", "--config", rec, "--table", str(table),
                     "--output", str(out)]) == 0
        summary = json.loads((tmp_path / "pts.csv.summary.json").read_text())["summary"]
        assert summary["points"] == 201
        assert summary["sup_error"] <= 1e-8


class TestCoeffs:
    def test_rows_against_oracle(self, tmp_path):
        out = tmp_path / "coeffs.json"
        rc = main(["coeffs", "--tau", "1.0", "--m-min", "-4", "--m-max", "4",
                   "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 9
        assert all(row["rel_diff_vs_oracle"] <= 1e-9 for row in doc["rows"])
        assert doc["meta"]["warnings"] == []

    def test_no_series_tol_flag(self, tmp_path):
        # the series stopping rule is fixed; an argparse error exits 2
        out = tmp_path / "coeffs.json"
        with pytest.raises(SystemExit) as info:
            main(["coeffs", "--tau", "0.05", "--tol", "1e-8", "--output", str(out)])
        assert info.value.code == 2
        assert not out.exists()

    def test_empty_range(self, tmp_path):
        out = tmp_path / "coeffs.json"
        rc = main(["coeffs", "--tau", "1.0", "--m-min", "2", "--m-max", "-2",
                   "--output", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["rows"] == []

    @pytest.mark.parametrize("bounds", [("0", "9" * 30), ("-" + "9" * 30, "0"), ("0", "65")])
    def test_m_bound_past_the_lattice_guard_refused(self, tmp_path, capsys, bounds):
        out = tmp_path / "coeffs.json"
        rc = main(["coeffs", "--tau", "1.0", "--m-min", bounds[0], "--m-max", bounds[1],
                   "--output", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "Traceback" not in capsys.readouterr().err

    def test_supercritical_warning_record(self, tmp_path):
        out = tmp_path / "coeffs.json"
        rc = main(["coeffs", "--tau", "4.0", "--m-min", "0", "--m-max", "2",
                   "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["regime"] == "supercritical"
        assert any("supercritical" in w for w in doc["meta"]["warnings"])

    def test_supercritical_warning_on_stderr_with_csv(self, tmp_path, capsys):
        out = tmp_path / "coeffs.csv"
        rc = main(["coeffs", "--tau", "4.0", "--m-min", "0", "--m-max", "2",
                   "--format", "csv", "--output", str(out)])
        assert rc == 0 and out.read_text().startswith("m,mantissa_re,")
        assert capsys.readouterr().err.startswith(
            "warning: coefficients computed at supercritical tau=4")

    def test_csv_format(self, tmp_path):
        out = tmp_path / "coeffs.csv"
        rc = main(["coeffs", "--tau", "1.0", "--m-min", "0", "--m-max", "1",
                   "--format", "csv", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("m,mantissa_re")
        assert len(lines) == 3


class TestVerify:
    def test_pass_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "--tau", "1.0", "--suite", "poisson",
                   "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert all(c["residual"] <= c["threshold"] for c in doc["checks"])
        assert set(doc["meta"]) == {"elapsed_seconds", "tool_version"}
        assert doc["meta"]["elapsed_seconds"] >= 0
        del doc["meta"]
        assert doc == run_suite("poisson", 1.0).to_payload()

    def test_failure_maps_to_exit_one(self, monkeypatch, tmp_path):
        import gaborlattice.cli as cli
        from gaborlattice.verify import CheckRecord, SuiteReport

        def fake(suite, tau, signal=None):
            report = SuiteReport(suite=suite, tau=tau)
            report.checks.append(CheckRecord("rigged", 1.0, 1e-12, False, ""))
            return report

        monkeypatch.setattr(cli, "run_suite", fake)
        rc = main(["verify", "--tau", "1.0", "--suite", "theta",
                   "--output", str(tmp_path / "r.json")])
        assert rc == 1

    def test_signal_override_config(self, tmp_path):
        cfg = write_json(tmp_path / "sig.json", {"signal": {
            "kind": "gaussian_family",
            "components": [{"amplitude": 0.0, "center": 0.0, "modulation": 0.0}],
        }})
        out = tmp_path / "report.json"
        rc = main(["verify", "--tau", "1.0", "--suite", "poisson",
                   "--config", cfg, "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert "degenerate" in doc["checks"][0]["note"]


    def test_theta_at_large_tau_passes(self, tmp_path):
        # eta reaches e^754 on the zero set here; the records take |Theta| / eta in log form
        out = tmp_path / "report.json"
        rc = main(["verify", "--tau", "8", "--suite", "theta", "--output", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True and len(doc["checks"]) == 9

    def test_coeffs_at_large_tau_records_no_nan(self, tmp_path):
        # E_8 ~ q^36 underflows the contour oracle to 0 at tau = 8: the two
        # coefficient records fail with residual null and name the m
        out = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["verify", "--tau", "8", "--suite", "coeffs", "--output", str(out)])
        assert rc == 1
        checks = json.loads(out.read_text(), parse_constant=_no_constant)["checks"]
        for check in checks[:2]:
            assert check["residual"] is None and not check["passed"]
            assert check["note"] == \
                "contour oracle is 0 or not finite at m = [-8, -7, -6, -5, 5, 6, 7, 8]"
        assert checks[2]["passed"]
        # at tau = 1 every oracle is usable and the records are the usual ones
        usual = run_suite("coeffs", 1.0).checks
        assert all(c.passed and math.isfinite(c.residual) for c in usual)
        assert usual[0].note == "exponent m(m+1)/2 candidate, m in [-8, 8]"

    def test_report_is_strict_json(self, tmp_path):
        # the printed candidates' thresholds are inf in memory and null in the report
        out = tmp_path / "report.json"
        rc = main(["verify", "--tau", "1", "--suite", "all", "--output", str(out)])
        assert rc == 0
        checks = json.loads(out.read_text(), parse_constant=_no_constant)["checks"]
        unbounded = [c.name for c in run_suite("all", 1.0).checks if c.threshold == math.inf]
        assert "lattice_derivative_printed_candidate_rejected" in unbounded
        assert [c["name"] for c in checks if c["threshold"] is None] == unbounded
        assert all(isinstance(c["residual"], float) for c in checks)

    @pytest.mark.parametrize("tau", ["0.03", "0.05", "0.06"])
    def test_coeffs_at_small_tau_adjudicates(self, tmp_path, tau):
        # the balanced circle or the alternative radii sit within 10% of a
        # theta zero here: those circles are left out and named, never exit 2
        out = tmp_path / "report.json"
        rc = main(["verify", "--tau", tau, "--suite", "coeffs", "--output", str(out)])
        assert rc in (0, 1)
        checks = json.loads(out.read_text())["checks"]
        assert [c["name"] for c in checks] == \
            [c.name for c in run_suite("coeffs", 1.0).checks]
        assert "left out: radius" in checks[-1]["note"]
        if rc == 1:
            assert all("no usable contour" in c["note"] for c in checks if not c["passed"])


class TestSweep:
    def test_degradation_and_refusal(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", {
            "tau_list": [0.5 * math.pi, 0.8 * math.pi, 0.95 * math.pi, 1.05 * math.pi],
            "signal": {"kind": "gaussian_family", "components": [
                {"amplitude": 1.0, "center": c, "modulation": 0.0}
                for c in (-12.0, -6.0, 0.0, 6.0, 12.0)
            ]},
            "truncation": {"M": 2, "K": 10},
            "grid": {"min": -3.0, "max": 3.0, "step": 0.1},
        })
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", cfg, "--output", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().splitlines()][1:]
        assert [r[2] for r in rows] == ["ok", "ok", "ok", "refused"]
        errors = [float(r[3]) for r in rows[:3]]
        assert errors[0] < errors[1] < errors[2]
        assert "tau < pi" in rows[3][8]

    def test_repeated_tau_identical_rows(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", {
            "tau_list": [1.0, 1.0],
            "signal": GAUSSIAN,
            "truncation": {"M": 3, "K": 6},
            "grid": {"min": -1.0, "max": 1.0, "step": 0.25},
        })
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--output", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert rows[0] == rows[1]

    def test_auto_truncation_rejected(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", {
            "tau_list": [1.0], "signal": GAUSSIAN, "truncation": "auto",
            "grid": {"min": -1.0, "max": 1.0, "step": 0.5},
        })
        assert main(["sweep", "--config", cfg]) == 2


class TestValidation:
    def test_missing_config_file(self):
        assert main(["forward", "--config", "/nonexistent.json"]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["forward", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("corrupt", [
        # an extra entry m=-2 on M=1 (it used to wrap onto row m=+1)
        lambda d: [d[key].append(v) for key, v in zip(COLUMNS, (-2, 0, 123.0, 0.0, 0))],
        lambda d: d["m"].__setitem__(0, -2),
        # (0, 0) once more, at the end and in place of (-1, -1)
        lambda d: [d[key].append(d[key][4]) for key in COLUMNS],
        lambda d: [d[key].__setitem__(0, d[key][4]) for key in COLUMNS],
        lambda d: d["mantissa_im"].pop(),
        lambda d: d["mantissa_re"].__setitem__(0, "abc"),
        lambda d: d["mantissa_im"].__setitem__(0, float("nan")),
    ], ids=["extra_m", "m_out_of_range", "extra_duplicate", "duplicate",
            "short_column", "non_numeric_mantissa", "nan_mantissa"])
    def test_bad_table_exit_2_no_partial_output(self, tmp_path, corrupt):
        cfg = write_json(tmp_path / "fwd.json",
                         {"tau": 1.0, "signal": GAUSSIAN, "truncation": {"M": 1, "K": 1}})
        table = tmp_path / "table.json"
        assert main(["forward", "--config", cfg, "--output", str(table)]) == 0
        doc = json.loads(table.read_text())
        corrupt(doc["data"])
        table.write_text(json.dumps(doc))
        rec = write_json(tmp_path / "rec.json",
                         {"tau": 1.0, "grid": {"min": -1.0, "max": 1.0, "step": 0.5}})
        rc = main(["reconstruct", "--config", rec, "--table", str(table),
                   "--output", str(tmp_path / "pts.csv")])
        assert rc == 2
        assert not any(p.name.startswith("pts.csv") for p in tmp_path.iterdir())

    def test_bad_signal_kind(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {
            "tau": 1.0, "truncation": {"M": 0, "K": 0},
            "signal": {"kind": "callback", "components": []},
        })
        assert main(["forward", "--config", cfg]) == 2

    def test_negative_tau(self, tmp_path):
        cfg = write_json(tmp_path / "c.json",
                         {"tau": -1.0, "signal": GAUSSIAN, "truncation": {"M": 0, "K": 0}})
        assert main(["forward", "--config", cfg, "--output",
                     str(tmp_path / "t.json")]) == 2


class TestParserReuse:
    def test_repeated_calls_same_outputs(self, tmp_path, forward_config):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for out in (first, second):
            assert main(["forward", "--config", forward_config, "--output", str(out)]) == 0
        assert json.loads(first.read_text())["data"] == json.loads(second.read_text())["data"]

    def test_command_patched_after_first_call_runs(self, monkeypatch, tmp_path, forward_config):
        import gaborlattice.cli as cli

        assert main(["forward", "--config", forward_config,
                     "--output", str(tmp_path / "t.json")]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_forward", lambda args: seen.append(args.config) or 7)
        assert main(["forward", "--config", forward_config]) == 7
        assert seen == [forward_config]
