"""Measure the callback quadrature's error against 40-digit mpmath values.

For random 2-Gaussian signals passed as black-box callbacks, every entry
of ``forward_table`` is compared with the closed form evaluated in
mpmath.  Printed per tau: the worst error relative to the entry's
returned bound (below 1 means every bound held), and the worst error
relative to eps * S over the entries that cancel to |gamma| < S/100,
where the bound sits at its roundoff floor 32 eps S; S is the integrand's
L1 scale e^{tau^2 m^2} integral |f(x)| exp(-(x - x0)^2/4) dx.  Entries
near |gamma| = S err more, by the rounding of the scale e^{tau^2 m^2},
which the bound covers with a term of its own.

Run: PYTHONPATH=src python tools/quadrature_bound_check.py
Needs mpmath; takes a few seconds.
"""

import math

import mpmath as mp
import numpy as np

from gaborlattice import SignalModel, eval_signal, forward_table

EPS = np.finfo(float).eps
CASES = ((0.6, 8, 8), (1.0, 9, 8), (3.0, 4, 8))  # tau, M, K


def exact(comps, tau: float, m: int, k: int):
    total = mp.mpc(0)
    for a, c, b in comps:
        s = mp.mpf(c) / 2 - tau * m + 1j * (mp.mpf(b) - k)
        total += mp.mpc(a) * mp.exp(-mp.mpf(c) ** 2 / 4) * mp.sqrt(2 * mp.pi) * mp.exp(s * s / 2)
    return total


def ln_l1_scale(signal, tau: float, m: int) -> float:
    """ln of e^{tau^2 m^2} integral |f| exp(-(x - x0)^2/4), by a fine trapezoid."""
    x0 = -2.0 * tau * m
    xs = np.arange(x0 - 20.0, x0 + 20.0, 1e-3)
    f = np.abs(eval_signal(signal, xs))
    return tau * tau * m * m + math.log(1e-3 * float(np.sum(f * np.exp(-(xs - x0) ** 2 / 4))))


def main():
    mp.mp.dps = 40
    rng = np.random.default_rng(2024)
    print("tau   entries  max err/abs_err  cancelling  max err/(eps S)")
    for tau, M, K in CASES:
        worst_floor = worst_bound = 0.0
        cancelling = 0
        for _ in range(4):
            comps = [(complex(rng.normal(), rng.normal()), float(rng.normal() * 1.5),
                      float(rng.normal() * 2.0)) for _ in range(2)]
            gsig = SignalModel.gaussian(comps)
            csig = SignalModel.callback(lambda x, g=gsig: eval_signal(g, x),
                                        bound=sum(abs(a) for a, _, _ in comps), growth=0.0)
            table = forward_table(csig, tau, M, K)
            for m in range(-M, M + 1):
                ln_s = ln_l1_scale(gsig, tau, m)
                for k in range(-K, K + 1):
                    value, bound = table.get(m, k), table.errors.get(m, k)
                    got = mp.mpc(value.mantissa) * mp.mpf(2) ** (128 * value.exponent)
                    ref = exact(comps, tau, m, k)
                    ln_err = float(mp.log(abs(got - ref) + mp.mpf(10) ** -300))
                    worst_bound = max(worst_bound, math.exp(ln_err - bound.ln_abs()))
                    if float(mp.log(abs(ref))) < ln_s - math.log(100.0):
                        cancelling += 1
                        worst_floor = max(worst_floor, math.exp(ln_err - ln_s) / EPS)
        entries = 4 * (2 * M + 1) * (2 * K + 1)
        print(f"{tau:<5} {entries:>7}  {worst_bound:>15.3g}  {cancelling:>10}  {worst_floor:>15.3g}")


if __name__ == "__main__":
    main()
