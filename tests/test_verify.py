import json
import math

import numpy as np
import pytest

from gaborlattice import SignalModel, signals
from gaborlattice.verify import CheckRecord, SUITES, run_suite


def test_all_suites_pass_at_tau_one():
    report = run_suite("all", 1.0)
    failing = [c.name for c in report.checks if not c.passed]
    assert report.passed, failing


@pytest.mark.parametrize("suite", ["theta", "coeffs", "poisson", "interpolation"])
def test_individual_suites(suite):
    report = run_suite(suite, 1.0)
    assert report.passed
    assert report.checks


def test_near_critical_all_passes():
    report = run_suite("all", 0.99 * math.pi)
    failing = [c.name for c in report.checks if not c.passed]
    assert report.passed, failing


def test_adjudication_records_present():
    report = run_suite("theta", 0.5)
    names = {c.name for c in report.checks}
    assert "lattice_derivative_printed_candidate_rejected" in names
    rec = next(c for c in report.checks
               if c.name == "lattice_derivative_printed_candidate_rejected")
    assert "printed candidate" in rec.note
    assert rec.passed  # i.e. the rejection was observed


def test_zero_signal_vacuous_pass():
    zero = SignalModel.gaussian([(0.0, 0.0, 0.0)])
    report = run_suite("poisson", 1.0, signal=zero)
    assert report.passed
    assert "degenerate" in report.checks[0].note


def test_supercritical_gates_spatial_suites():
    report = run_suite("poisson", 4.0)
    assert report.passed
    assert report.checks[0].name == "supercritical_gate"


def test_payload_shape():
    report = run_suite("poisson", 1.0)
    payload = report.to_payload()
    assert set(payload) == {"suite", "tau", "passed", "checks"}
    assert all(
        set(c) == {"name", "residual", "threshold", "passed", "note"}
        for c in payload["checks"]
    )


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", 1.0)
    assert "all" in SUITES


def test_checkrecord_pass_logic():
    assert CheckRecord("x", 1e-13, 1e-12, True).passed
    assert not CheckRecord("x", 1.0, 1e-12, False).passed


def test_checkrecord_coerces_numpy_scalars():
    record = CheckRecord("x", np.float64(1e-13), 1e-12, np.float64(1e-13) <= 1e-12)
    assert type(record.residual) is float and type(record.passed) is bool


def _seeded_family(seed):
    """Two Gaussian components with |a| in [0.5, 1], centre in [-1, 1] and
    modulation in [-1.5, 1.5]."""
    rng = np.random.default_rng(seed)
    return SignalModel.gaussian([
        (rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)),
         rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5))
        for _ in range(2)])


@pytest.mark.parametrize("tau", [0.3, 2.0])
def test_all_suites_pass_on_seeded_family(tau):
    report = run_suite("all", tau, signal=_seeded_family(11))
    failing = [c.name for c in report.checks if not c.passed]
    assert report.passed, failing
    assert len(report.checks) == 18


@pytest.mark.parametrize("tau", [0.3, 1.0, 2.0])
def test_every_suite_payload_serialises(tau):
    for suite in SUITES:
        payload = run_suite(suite, tau, signal=_seeded_family(11)).to_payload()
        assert json.loads(json.dumps(payload)) == payload


def test_closed_form_entries_computed_once(monkeypatch):
    """The Poisson table reuses the interpolation truncation's entries."""
    keys = []
    original = signals.gamma_closed_form

    def counting(rows, cols, *args):  # each call computes every (m, k) of its block
        keys.extend((m, k) for m in np.atleast_1d(rows).tolist()
                    for k in np.atleast_1d(cols).tolist())
        return original(rows, cols, *args)

    monkeypatch.setattr(signals, "gamma_closed_form", counting)
    report = run_suite("all", 1.0, signal=_seeded_family(11))
    assert report.passed
    assert keys and len(keys) == len(set(keys))
    names = [c.name for c in report.checks]  # the records keep the suite order
    assert names.index("contour_radius_independence") + 1 == names.index("poisson_consistency") \
        == names.index("interpolation_node_exactness") - 1
