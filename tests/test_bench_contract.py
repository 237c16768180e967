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
import math
from pathlib import Path

import pytest

import gaborlattice

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
