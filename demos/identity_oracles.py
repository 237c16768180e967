#!/usr/bin/env python3
"""The oracle layer: every identity the inversion leans on, checked
numerically by an independent route.

* aliased spatial sums vs interior Fourier sums (one shared constant),
* contour-extracted Laurent coefficients vs the closed-form E_m,
* cardinal interpolation through the lattice samples vs the direct
  series, on and off the nodes,
* the circle-maxima traces that organise the convergence argument.
"""

import math

import numpy as np

from gaborlattice import (
    SignalModel,
    coeff_E,
    forward_table,
    G_series,
    inner_fourier_sum,
    lagrange_interpolant,
    laurent_c0,
    mk_trace,
    nome_from_tau,
    spatial_A,
)
from gaborlattice.oracle import cardinal_weights
from gaborlattice.scaled import to_complex

params = nome_from_tau(1.0)
signal = SignalModel.gaussian([(1.0, 0.0, 0.0)])

print("=" * 72)
print("Aliased spatial sums against interior Fourier sums")
print("=" * 72)
K = 12
table = forward_table(signal, params.tau, 3, K)
print(f"{'m':>3} {'x':>5} {'ratio':>22}")
ms, xs = np.array([-3, -1, 0, 2]), np.array([0.0, 1.1])
rows = to_complex((table.mantissa, table.exponent))[ms + 3]  # rows m = -3..3
lhs = inner_fourier_sum(rows, xs, K) * np.exp(params.tau * np.outer(ms, xs))
for i, m in enumerate(ms.tolist()):
    for j, x in enumerate(xs.tolist()):
        rhs = spatial_A(m, x, signal, params).to_complex()
        print(f"{m:>3} {x:>5.2f} {lhs[i, j].real / rhs.real:>22.15f}")
print(f"constant ratio = 4 pi^2 = {4 * math.pi ** 2:.15f}")

print()
print("=" * 72)
print("Contour oracle for the reconstruction coefficients")
print("=" * 72)
print(f"{'m':>3} {'closed form':>24} {'contour average':>24} {'rel diff':>10}")
for m in (-6, -3, 0, 3, 6):
    fast = coeff_E(m, params).to_complex()
    oracle = laurent_c0(m, params)
    rel = abs(fast - oracle) / abs(oracle)
    print(f"{m:>3} {fast.real:>24.15e} {oracle.real:>24.15e} {rel:>10.1e}")

print()
print("=" * 72)
print("Cardinal interpolation through the lattice samples")
print("=" * 72)
x = 0.3
extent = 7
ns = np.arange(-extent, extent + 1)
samples = spatial_A(ns, x, signal, params)
node = params.q ** 3
got = lagrange_interpolant(node, ns, samples, params)
want = to_complex((samples[0][3 + extent], samples[1][3 + extent]))
print(f"on the node q^3:  interpolant {got.to_complex().real:.12e}")
print(f"                  sample      {want.real:.12e}")

print("off the nodes (circle |z| = q^{-1/2}):")
radius = math.exp(-0.5 * params.ln_q)
worst = 0.0
for t in range(8):
    angle = 2 * math.pi * (t + 0.5) / 8
    z = radius * complex(math.cos(angle), math.sin(angle))
    g = G_series(z, x, signal, params).to_complex()
    it = lagrange_interpolant(z, ns, samples, params).to_complex()
    worst = max(worst, abs(g - it) / abs(g))
    print(f"  angle {angle:4.2f}: direct series {g:.6e}   interpolant {it:.6e}")
print(f"worst relative gap: {worst:.2e}")

print()
print("=" * 72)
print("Circle maxima traces (the shape of the convergence argument)")
print("=" * 72)
print(f"{'k':>3} {'|G/Theta|':>12} {'|interp/Theta|':>15} {'residual':>12}")
gq = dict(mk_trace("G_over_theta", range(-5, 6), x, signal, params))
weights = cardinal_weights(ns, samples, params.q)
gt = dict(mk_trace("Gtilde_over_theta", range(-5, 6), x, signal, params, weights=weights))
ra = dict(mk_trace("residual_alpha", range(-5, 6), x, signal, params, weights=weights))
for k in range(-5, 6):
    print(f"{k:>3} {gq[k]:>12.2e} {gt[k]:>15.2e} {ra[k]:>12.2e}")
print("the quotient dies off in both directions; the residual is noise-level")
