#!/usr/bin/env python3
"""Forward transform a known signal, then rebuild it from its lattice
coefficients alone.

The forward side samples gamma_{m,k} = <f, lattice atom>; the inverse
applies the theta-derived coefficients E_m.  Nothing about the signal
is used on the way back, so the error table at the end is an honest
round-trip measurement.
"""

import math

from gaborlattice import (
    ReconConfig,
    SignalModel,
    auto_truncation,
    calibrate_constant,
    coeff_E,
    nome_from_tau,
    round_trip,
)

tau = 1.0
params = nome_from_tau(tau)
signal = SignalModel.gaussian([(1.0, 0.7, 2.0), (0.5 - 0.25j, -1.0, 0.0)])

print(f"density tau = {tau} (nome q = {params.q:.6g}, {params.regime})")
choice = auto_truncation(signal, params, tol=1e-8, x_max=3.0)
print(f"automatic truncation: M = {choice.M}, K = {choice.K}, "
      f"tail estimate {choice.tail_estimate:.2e}")

table = choice.table  # the table the truncation measured, at exactly (M, K)
print(f"forward table: {2*choice.M+1} x {2*choice.K+1} scaled coefficients")
print("  row scales grow like exp(tau^2 m^2):")
for m in range(-choice.M, choice.M + 1, 2):
    print(f"    m={m:+d}: log10 max|gamma| = "
          f"{max(table.get(m, k).ln_abs() for k in range(-choice.K, choice.K+1)) / math.log(10):8.2f}")

print()
print("reconstruction coefficients E_m (even in m, fast decay):")
for m in range(0, choice.M + 1):
    e = coeff_E(m, params)
    print(f"  E_{m} = E_-{m}: log10|E| = {e.ln_abs() / math.log(10):9.3f}")

print()
report = round_trip(signal, tau, ReconConfig(tol=1e-8, grid=(-3.0, 3.0, 0.25)))
print("round trip on [-3, 3]:")
print(f"{'x':>6} {'|f(x)|':>12} {'|rebuilt|':>12} {'abs err':>10}")
for x, ref, rec in zip(report.xs, report.reference, report.reconstructed):
    print(f"{x:6.2f} {abs(ref):12.6g} {abs(rec):12.6g} {abs(rec - ref):10.2e}")
print(f"sup error (relative to sup|f|): {report.sup_error:.2e}")
print(f"relative L2 error:              {report.l2_error:.2e}")

print()
fitted = calibrate_constant()
print(f"global constant calibration: fitted {fitted:.12g} "
      f"vs 1/(2 pi) = {1/(2*math.pi):.12g}")
