"""The parts of the package that bench/ calls by name.

bench/spans.py wraps each (module, attribute) of its TARGETS for
``--trace 1``, and the callback_roundtrip workload calls
``round_trip(..., threads=1)``: renaming or removing either breaks the
benchmark without failing any other test.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

import gaborlattice

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


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
