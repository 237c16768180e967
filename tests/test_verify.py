import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from gaborlattice import (InvalidParameterError, SignalModel, eta, nome_from_tau,
                          qtheta, signals, theta_series, verify)
from gaborlattice.verify import CheckRecord, SUITES, run_suite, theta_suite


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


def test_zero_signal_vacuous_pass_of_the_interpolation_suite():
    zero = SignalModel.gaussian([(0.0, 0.0, 0.0)])
    report = run_suite("interpolation", 1.0, signal=zero)
    assert report.passed and [c.name for c in report.checks] == ["interpolation_lemma"]
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
    with pytest.raises(InvalidParameterError):
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
        == names.index("interpolation_node_samples_vs_G_series") - 1


THETA_RECORDS = [
    "triple_product_identity", "one_step_quasi_periodicity", "iterated_quasi_periodicity",
    "conjugation_symmetry", "lattice_zero_set", "lattice_derivative_vs_finite_difference",
    "lattice_derivative_corrected_candidate", "lattice_derivative_printed_candidate_rejected",
    "envelope_circle_maxima_constant"]


@pytest.mark.parametrize("tau", [0.05, 0.3, 1.0, 2.0, 0.99 * math.pi, 4.0, 8.0])
def test_theta_suite_passes_at_its_nome(tau):
    checks = theta_suite(nome_from_tau(tau))
    assert [c.name for c in checks] == THETA_RECORDS
    assert [c.name for c in checks if not c.passed] == []


def test_theta_suite_small_tau_shows_the_derivative_hole():
    """At tau=0.02 (q = 0.88) the differentiated series of theta_prime_lattice
    loses its digits: both derivative checks fail there, and only they."""
    checks = {c.name: c for c in theta_suite(nome_from_tau(0.02))}
    assert [name for name, c in checks.items() if not c.passed] == [
        "lattice_derivative_vs_finite_difference", "lattice_derivative_corrected_candidate"]
    assert checks["lattice_derivative_vs_finite_difference"].residual > 1.0
    assert checks["lattice_derivative_corrected_candidate"].residual > 0.1


def test_theta_records_follow_the_nome():
    records = {tau: {c.name: c.residual for c in theta_suite(nome_from_tau(tau))}
               for tau in (0.5, 2.0)}
    assert records[0.5] != records[2.0]
    for tau, residuals in records.items():
        q = nome_from_tau(tau).q
        zs = q ** np.arange(-5.0, 6.0)
        zero_set = max(abs(theta_series(z, q)) / eta(z, q) for z in zs)
        assert residuals["lattice_zero_set"] == pytest.approx(zero_set, rel=1e-12)
        power, angle = np.random.default_rng(2026).uniform(
            [-0.5, 0.0], [0.5, 2.0 * math.pi], (100, 2)).T
        one_step = max(
            abs(theta_series(q * z, q) + theta_series(z, q) / z)
            / (eta(q * z, q) + eta(z, q) / abs(z))
            for z in (q ** p * complex(math.cos(a), math.sin(a)) for p, a in zip(power, angle)))
        assert residuals["one_step_quasi_periodicity"] == pytest.approx(one_step, rel=1e-12)


def test_theta_suite_runs_at_the_given_nome_only(monkeypatch):
    """Every theta evaluation of the suite is at params.q, except the one
    printed-candidate adjudication at (n=1, q=0.1)."""
    calls = []
    for name in ("theta_series_scaled", "theta_product_scaled", "theta_prime_lattice"):
        def recording(z, q, *args, _original=getattr(qtheta, name), _name=name, **kwargs):
            calls.extend((_name, float(v)) for v in np.unique(q))
            return _original(z, q, *args, **kwargs)
        monkeypatch.setattr(qtheta, name, recording)
        if hasattr(verify, name):
            monkeypatch.setattr(verify, name, recording)
    params = nome_from_tau(1.0)
    assert all(c.passed for c in verify.theta_suite(params))
    off_nome = [call for call in calls if call[1] != params.q]
    assert off_nome == [("theta_prime_lattice", 0.1)]
    assert {name for name, _ in calls} == {
        "theta_series_scaled", "theta_product_scaled", "theta_prime_lattice"}


def test_small_tau_records_no_nan():
    """At tau=0.02 Theta's series terms cancel below double precision on the traced
    circles: a record with nothing to divide by reads inf, never NaN."""
    report = run_suite("all", 0.02)
    assert [c.name for c in report.checks if math.isnan(c.residual)] == []


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("index", range(5))
def test_all_suites_pass_on_benchmark_families(index):
    """run_suite("all", 1.0) on signals drawn as the verify_all benchmark draws them."""
    family = _bench_workloads().op_family(1, index)
    report = run_suite("all", 1.0, SignalModel.gaussian(family))
    assert report.passed, [c.name for c in report.checks if not c.passed]
