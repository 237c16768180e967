"""The parts of the package that bench/ calls by name.

bench/spans.py wraps each (module, attribute) of its TARGETS for
``--trace 1`` and keys the coefficient spans by their first two
arguments, and the callback_roundtrip workload calls
``round_trip(..., threads=1)``: renaming or removing either, or passing
unhashable table indices, breaks the benchmark without failing any
other test.
"""

import importlib
import importlib.util
import json
import math
from pathlib import Path

import pytest

import gaborlattice
import gaborlattice.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _targets():
    return _spans().TARGETS


@pytest.mark.parametrize("module, attribute", [t[:2] for t in _targets()])
def test_span_target_resolves(module, attribute):
    owner = importlib.import_module(f"gaborlattice.{module}")
    for name in attribute.split("."):
        owner = getattr(owner, name)
    assert callable(owner)


def test_round_trip_accepts_threads():
    config = gaborlattice.ReconConfig(tol=1e-6, grid=(-1.0, 1.0, 0.5))
    signal = gaborlattice.SignalModel.gaussian([(1.0, 0.0, 0.0)])
    report = gaborlattice.round_trip(signal, 0.6, config, threads=1)
    assert report.sup_error <= 1e-6
    assert math.isfinite(report.tail_estimate)


def test_callback_quadrature_span_keys_hash():
    spans = _spans()
    recorder = spans.Recorder()
    config = gaborlattice.ReconConfig(tol=1e-6, grid=(-1.0, 1.0, 0.5))
    unit = gaborlattice.SignalModel.gaussian([(1.0, 0.0, 0.0)])
    signal = gaborlattice.SignalModel.callback(
        lambda x: gaborlattice.eval_signal(unit, x), bound=1.0, growth=0.0)
    with spans.installed(recorder):
        gaborlattice.round_trip(signal, 0.6, config, threads=1)
    calls = [span for span in recorder.spans if span[0] == "signals.gamma_quadrature"]
    assert calls and len(recorder.entry_keys) == len(calls)
    assert len(set(recorder.entry_keys)) == len(recorder.entry_keys)  # hashable, none repeated


def test_closed_form_span_keys_hash(tmp_path):
    """CLI forward then reconstruct of a Gaussian family: the closed-form
    block calls are keyed by their (rows, cols) tuples, and cli_grid's
    ``--trace 1`` finds every expected span."""
    spans = _spans()
    recorder = spans.Recorder()
    signal = {"kind": "gaussian_family",
              "components": [{"amplitude": [0.8, -0.3], "center": 0.4, "modulation": -0.9},
                             {"amplitude": [0.0, 0.6], "center": -0.5, "modulation": 1.2}]}
    paths = {name: str(tmp_path / name) for name in
             ("forward.json", "reconstruct.json", "table.json", "points.csv")}
    with open(paths["forward.json"], "w", encoding="utf-8") as fh:
        json.dump({"tau": 1.0, "signal": signal, "truncation": "auto", "x_max": 3.0}, fh)
    with open(paths["reconstruct.json"], "w", encoding="utf-8") as fh:
        json.dump({"tau": 1.0, "grid": {"min": -3.0, "max": 3.0, "step": 0.5},
                   "signal": signal}, fh)
    with spans.installed(recorder):
        assert gaborlattice.cli.main(["forward", "--config", paths["forward.json"],
                                      "--output", paths["table.json"]]) == 0
        assert gaborlattice.cli.main(["reconstruct", "--config", paths["reconstruct.json"],
                                      "--table", paths["table.json"],
                                      "--output", paths["points.csv"]]) == 0
    totals = {}
    for name, *_ in recorder.spans:
        totals.setdefault(name, {"calls": 0})["calls"] += 1
    assert totals["signals.gamma_closed_form"]["calls"] == len(recorder.entry_keys)
    assert len(set(recorder.entry_keys)) == len(recorder.entry_keys)  # hashable, none repeated
    assert spans.uncovered(spans.CLI, totals) == []


def test_verify_all_records_every_expected_span():
    """``--trace 1`` on verify_all refuses a run in which a wrapped function
    expected there records no call."""
    spans = _spans()
    recorder = spans.Recorder()
    signal = gaborlattice.SignalModel.gaussian([(0.8 - 0.3j, 0.4, -0.9), (0.6j, -0.5, 1.2)])
    with spans.installed(recorder):
        gaborlattice.verify.run_suite("all", 1.0, signal=signal)
    totals = {}
    for name, *_ in recorder.spans:
        totals.setdefault(name, {"calls": 0})["calls"] += 1
    assert spans.uncovered(spans.VERIFY, totals) == []
