#!/usr/bin/env python3
"""A tour of the theta-function layer.

Evaluates the Jacobi theta function in both of its representations,
walks it around the lattice with the functional equation, locates its
zeros, and shows that the printed closed form for the lattice
derivative is off while the corrected one lands on the differentiated
series.
"""

import math

from gaborlattice import (
    eta,
    euler_product,
    lattice_derivative_candidate,
    nome_from_tau,
    theta_prime_lattice,
    theta_prime_one,
    theta_product,
    theta_series,
    theta_series_scaled,
)
from gaborlattice.scaled import normalise_array, sub_arrays, to_complex

print("=" * 72)
print("Two faces of the same function")
print("=" * 72)
for z, q in [(-1.0, 0.5), (2 + 1j, 0.3), (0.1 + 0.9j, 0.7)]:
    ts = theta_series(z, q)
    tp = theta_product(z, q)
    print(f"  z={z!s:>12}, q={q}:  series {ts:.12g}   product {tp:.12g}   "
          f"|diff| {abs(ts - tp):.2e}")

print()
print("The Euler product behind the derivative at 1:")
for q in (0.1, 0.5, math.exp(-2 * math.pi)):
    print(f"  q={q:<22.12g} prod(1-q^n) = {euler_product(q):.12g}   "
          f"Theta'(1;q) = {theta_prime_one(q):.12g}")

print()
print("=" * 72)
print("Walking the lattice: Theta(q^n z) = (-z)^{-n} q^{-n(n-1)/2} Theta(z)")
print("=" * 72)
q = 0.42
z = 1.7 - 0.3j
base = theta_series_scaled(z, q)
for n in (-6, -3, 0, 3, 6):
    lhs = theta_series_scaled((q ** n) * z, q)
    rhs = normalise_array(base.mantissa * complex(-z) ** -n * q ** (-(n * (n - 1)) // 2),
                          base.exponent)
    rel = abs(to_complex(sub_arrays((lhs.mantissa, lhs.exponent), rhs))) / abs(to_complex(rhs))
    print(f"  n={n:+d}:  log10|Theta| = {lhs.ln_abs() / math.log(10):8.2f}   "
          f"relative residual {rel:.2e}")

print()
print("Zeros sit exactly on the geometric lattice q^n "
      "(values shown against the eta envelope):")
for n in range(-3, 4):
    zn = q ** n
    ratio = abs(theta_series(zn, q)) / eta(zn, q)
    print(f"  |Theta(q^{n:+d})| / eta = {ratio:.2e}")

print()
print("=" * 72)
print("Adjudicating the lattice derivative Theta'(q^n; q)")
print("=" * 72)
q = 0.1
n = 1
ref = theta_prime_lattice(n, q).to_complex().real
printed = lattice_derivative_candidate(n, q, variant="printed").to_complex().real
corrected = lattice_derivative_candidate(n, q, variant="corrected").to_complex().real
print(f"  differentiated series (reference): {ref:.10g}")
print(f"  printed closed form:               {printed:.10g}   <- wrong sign, "
      "missing chain-rule factor")
print(f"  corrected closed form:             {corrected:.10g}   <- matches")
print()
print("  The q-expansion of the reference is 1/q - 3 + 5q^2 - 7q^5 + ...")
print(f"  at q=0.1 that is {1/q - 3 + 5*q**2 - 7*q**5 + 9*q**9:.10g}")

print()
print("Envelope comparison: circle maxima of |Theta|/eta are the same on "
      "every circle |z| = q^{k+1/2}:")
params = nome_from_tau(1.0)
for k in (-4, -2, 0, 2, 4):
    radius = math.exp((k + 0.5) * params.ln_q)
    best = max(
        abs(theta_series_scaled(radius * complex(math.cos(a), math.sin(a)),
                                params.q).to_complex()) / eta(radius, params.q)
        for a in [2 * math.pi * t / 64 for t in range(64)]
    )
    print(f"  k={k:+d}: max |Theta|/eta = {best:.15g}")
