"""Acceptance gate: one test per shipping criterion, each printing a
pass/fail line with the measured residual next to its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every criterion must finish comfortably within desk-scale budgets
(<= 60 s each; most run in well under a second).
"""

import json
import math
import time

import numpy as np
import pytest

from gaborlattice import (
    ReconConfig,
    SignalModel,
    calibrate_constant,
    coeff_E,
    eta,
    forward_table,
    inner_fourier_sum,
    lagrange_interpolant,
    lattice_derivative_candidate,
    laurent_c0,
    mk_trace,
    nome_from_tau,
    round_trip,
    spatial_A,
    theta_prime_lattice,
    theta_product,
    theta_series,
    theta_series_scaled,
)
from gaborlattice import G_series
from gaborlattice.cli import main
from gaborlattice.oracle import cardinal_weights
from gaborlattice.scaled import normalise_array, sub_arrays, to_complex

def report(number, label, residual, threshold, passed, extra=""):
    flag = "PASS" if passed else "FAIL"
    line = (f"ACCEPTANCE {number:>2} {flag}: {label}: "
            f"residual {residual:.3e} vs tolerance {threshold:.0e}")
    if extra:
        line += f" ({extra})"
    print(line)
    assert passed, line


def test_criterion_01_triple_product_identity():
    start = time.perf_counter()
    worst = 0.0
    for i in range(1, 19):
        q = 0.05 * i
        for power in (0.5, 0.0, -0.5):
            radius = q ** power
            for t in range(32):
                angle = 2.0 * math.pi * (t + 0.5) / 32
                z = radius * complex(math.cos(angle), math.sin(angle))
                ts = theta_series(z, q)
                tp = theta_product(z, q)
                worst = max(worst, abs(ts - tp) / (1.0 + abs(ts)))
    elapsed = time.perf_counter() - start
    report(1, "product and series theta forms agree", worst, 1e-12,
           worst <= 1e-12 and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_02_iterated_quasi_periodicity():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(20):
        q = float(rng.uniform(0.05, 0.9))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        z = (q ** float(rng.uniform(-0.5, 0.5))) * complex(math.cos(angle),
                                                           math.sin(angle))
        base = theta_series_scaled(z, q)
        for n in range(-6, 7):
            zn = (q ** n) * z
            lhs = theta_series_scaled(zn, q)
            factor = complex(-z) ** -n * q ** (-(n * (n - 1)) // 2)
            rhs = normalise_array(base.mantissa * factor, base.exponent)
            gap = sub_arrays((lhs.mantissa, lhs.exponent), rhs)
            scale = eta(zn, q) + abs(to_complex(rhs))
            worst = max(worst, abs(to_complex(gap)) / scale)
    elapsed = time.perf_counter() - start
    report(2, "iterated quasi-periodicity (scaled arithmetic)", worst, 1e-10,
           worst <= 1e-10 and elapsed < 60.0, f"n in [-6,6], {elapsed:.2f}s")


def test_criterion_03_lattice_derivative_adjudication():
    worst = 0.0
    for q in (0.1, 0.3, 0.5):
        for n in range(-4, 5):
            z0 = q ** n
            h = abs(z0) * 1e-3
            d1 = (theta_series(z0 + h, q) - theta_series(z0 - h, q)) / (2 * h)
            d2 = (theta_series(z0 + h / 2, q)
                  - theta_series(z0 - h / 2, q)) / h
            fd = (4.0 * d2 - d1) / 3.0
            ref = theta_prime_lattice(n, q).to_complex()
            worst = max(worst, abs(fd - ref) / abs(ref))

    ref = theta_prime_lattice(1, 0.1).to_complex().real
    printed = lattice_derivative_candidate(1, 0.1, "printed").to_complex().real
    corrected = lattice_derivative_candidate(1, 0.1, "corrected").to_complex().real
    printed_miss = abs(printed - ref) / abs(ref)
    corrected_miss = abs(corrected - ref) / abs(ref)
    ok = (worst <= 1e-6 and printed_miss > 1e-2 and corrected_miss <= 1e-10
          and abs(ref - 7.0499300089998895) <= 1e-10)
    report(3, "lattice derivative vs Richardson finite differences", worst, 1e-6, ok,
           f"at (n=1, q=0.1) reference {ref:.5f}: printed candidate gives "
           f"{printed:.5f} and is REJECTED (miss {printed_miss:.2e}); corrected "
           f"candidate ACCEPTED (miss {corrected_miss:.1e})")


def test_criterion_04_coefficient_contract():
    start = time.perf_counter()
    worst = 0.0
    printed_best = math.inf
    for tau in (0.5, 1.0, 2.0):
        params = nome_from_tau(tau)
        for m in range(-8, 9):
            oracle = laurent_c0(m, params)
            fast = coeff_E(m, params).to_complex()
            worst = max(worst, abs(fast - oracle) / abs(oracle))
            if m != 0:
                printed = coeff_E(m, params, variant="printed").to_complex()
                printed_best = min(printed_best, abs(printed - oracle) / abs(oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and printed_best > 1e-2 and elapsed < 60.0
    report(4, "coefficients match the contour oracle", worst, 1e-9, ok,
           f"exponent m(m+1)/2 ACCEPTED; printed m(m-1)/2 misses by >= "
           f"{printed_best:.1e}; m in [-8,8], tau in {{0.5,1,2}}, {elapsed:.1f}s")


def test_criterion_05_round_trip_reconstruction():
    start = time.perf_counter()
    gauss = SignalModel.gaussian([(1.0, 0.0, 0.0)])
    rep1 = round_trip(gauss, 1.0, ReconConfig(tol=1e-8, grid=(-3.0, 3.0, 0.05)))
    t1 = time.perf_counter() - start

    start = time.perf_counter()
    pair = SignalModel.gaussian([(1.0, 0.7, 2.0), (1.0, -1.0, 0.0)])
    rep2 = round_trip(pair, 0.8, ReconConfig(tol=1e-8, grid=(-3.0, 3.0, 0.05)))
    t2 = time.perf_counter() - start

    ok = rep1.sup_error <= 1e-6 and t1 < 10.0
    report(5, "unit Gaussian round trip at tau=1 (sup)", rep1.sup_error, 1e-6, ok,
           f"M={rep1.M_used}, K={rep1.K_used}, {t1:.2f}s")
    ok = rep2.l2_error <= 1e-5 and t2 < 10.0
    report(5, "two-component round trip at tau=0.8 (L2)", rep2.l2_error, 1e-5, ok,
           f"M={rep2.M_used}, K={rep2.K_used}, {t2:.2f}s")


def test_criterion_06_constant_calibration():
    fitted = calibrate_constant()
    target = 1.0 / (2.0 * math.pi)
    residual = abs(fitted - target) / target
    report(6, "fitted global constant equals 1/(2 pi)", residual, 1e-8,
           residual <= 1e-8, f"fitted {fitted:.12g}")


def test_criterion_07_poisson_consistency():
    params = nome_from_tau(1.0)
    gauss = SignalModel.gaussian([(1.0, 0.0, 0.0)])
    K = 12
    table = forward_table(gauss, 1.0, 3, K)
    ms, xs = np.arange(-3, 4), np.array([0.0, 0.3, 1.1])
    inner = inner_fourier_sum(to_complex((table.mantissa, table.exponent)), xs, K)
    lhs = inner * np.exp(1.0 * np.outer(ms, xs))
    rhs = np.stack([to_complex(spatial_A(ms, x, gauss, params)) for x in xs], axis=1)
    ratios = lhs / rhs
    mean = ratios.mean()
    spread = float(np.max(np.abs(ratios - mean)) / abs(mean))
    report(7, "interior sums vs spatial sums share one constant", spread, 1e-8,
           spread <= 1e-8, f"ratio {mean.real:.10g} = 4 pi^2")


def test_criterion_08_interpolation_lemma():
    params = nome_from_tau(1.0)
    gauss = SignalModel.gaussian([(1.0, 0.0, 0.0)])
    x = 0.3
    extent = 7
    ns = np.arange(-extent, extent + 1)
    samples = spatial_A(ns, x, gauss, params)

    node_worst = 0.0
    for n in (-3, 0, 2):
        node = params.q ** n
        got = lagrange_interpolant(node, ns, samples, params)
        want = spatial_A(n, x, gauss, params)
        gap = sub_arrays((got.mantissa, got.exponent), (want.mantissa, want.exponent))
        node_worst = max(node_worst, abs(to_complex(gap)) / abs(want.to_complex()))

    trace = mk_trace("residual_alpha", range(-4, 5), x, gauss, params,
                     weights=cardinal_weights(ns, samples, params.q))
    quot = mk_trace("G_over_theta", range(-4, 5), x, gauss, params)
    alpha_worst = max(v for _, v in trace) / max(v for _, v in quot)

    ok = node_worst <= 1e-10 and alpha_worst <= 1e-8
    report(8, "interpolant reproduces lattice samples", node_worst, 1e-10,
           node_worst <= 1e-10)
    report(8, "interpolation residual trace vanishes", alpha_worst, 1e-8, ok,
           "relative to the quotient scale over k in [-4,4]")


def test_criterion_09_criticality_sweep():
    wide = SignalModel.gaussian([(1.0, c, 0.0) for c in (-12.0, -6.0, 0.0, 6.0, 12.0)])
    errors = []
    for tau in (0.5 * math.pi, 0.8 * math.pi, 0.95 * math.pi):
        rep = round_trip(wide, tau,
                         ReconConfig(grid=(-3.0, 3.0, 0.1), truncation=(2, 10)))
        errors.append(rep.sup_error)
    monotone = errors[0] <= errors[1] <= errors[2]

    from gaborlattice import RegimeError
    refused = False
    diagnostic = ""
    try:
        round_trip(wide, 1.05 * math.pi, ReconConfig(grid=(-1.0, 1.0, 0.5)))
    except RegimeError as exc:
        refused = True
        diagnostic = str(exc)
    ok = monotone and refused
    report(9, "fixed-truncation error grows toward criticality",
           errors[2] - errors[0], math.inf, ok,
           "errors " + " -> ".join(f"{e:.2e}" for e in errors)
           + f"; tau=1.05pi refused: {diagnostic[:60]}...")


def test_criterion_10_determinism(tmp_path):
    signal_spec = {"kind": "gaussian_family",
                   "components": [{"amplitude": 1.0, "center": 0.0, "modulation": 0.0}]}
    fwd = tmp_path / "fwd.json"
    fwd.write_text(json.dumps(
        {"tau": 1.0, "signal": signal_spec, "truncation": {"M": 4, "K": 8}}))
    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps({
        "tau": 1.0, "grid": {"min": -2.0, "max": 2.0, "step": 0.05},
        "signal": signal_spec, "truncation": {"M": 4, "K": 8},
    }))

    tables, points, summaries = [], [], []
    for tag in ("a", "b"):
        table = tmp_path / f"table_{tag}.json"
        assert main(["forward", "--config", str(fwd), "--output", str(table)]) == 0
        out = tmp_path / f"pts_{tag}.csv"
        assert main(["reconstruct", "--config", str(rec), "--table", str(table),
                     "--output", str(out)]) == 0
        tables.append(table.read_bytes())
        points.append(out.read_bytes())
        doc = json.loads((tmp_path / f"pts_{tag}.csv.summary.json").read_text())
        summaries.append(doc["summary"])  # timings live under "meta"

    ok = tables[0] == tables[1] and points[0] == points[1] \
        and summaries[0] == summaries[1]
    report(10, "byte-identical outputs across two runs", 0.0 if ok else 1.0,
           math.inf, ok, f"{len(points[0])} bytes compared")
