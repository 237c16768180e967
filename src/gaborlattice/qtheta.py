"""Jacobi theta function, its lattice derivatives, and the
reconstruction coefficients E_m.

Everything is driven by the nome q = exp(-2*pi*tau) in (0, 1).  The
theta function

    Theta(z; q) = (1 - z) * prod_{n>=1} (1-q^n)(1-z q^n)(1-q^n/z)
                = sum_{n in Z} (-1)^n z^n q^{n(n-1)/2}

has simple zeros exactly at z = q^n and satisfies the one-step
functional equation Theta(qz; q) = -Theta(z; q)/z.  Both
representations are implemented independently; the test suite holds
them against each other.

Every call runs at one nome q, a number (an array of nomes is refused).  The
theta forms, the lattice derivatives and eta take a scalar or a 1-d array of z
(of integer n) and give a ScaledValue (eta a float) or normalised (mantissa,
exponent) arrays; a scalar call equals an array call's element.

Two printed closed forms from the source material carry slips and are
kept only as diagnostic candidates:

* lattice derivative: the true identity (checked against the
  differentiated series and finite differences) is
  Theta'(q^n; q) = (-1)^n q^{-n(n+1)/2} Theta'(1; q); the "printed"
  variant (-1)^{n+1} q^{-n(n-1)/2} Theta'(1; q) misses the chain-rule
  factor q^n and a sign.
* coefficient E_m: the Laurent-coefficient contract is met by the
  exponent m(m+1)/2; the "printed" exponent m(m-1)/2 is off by exactly
  q^{-m}.  Adjudicated by the contour oracle in :mod:`gaborlattice.oracle`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameterError, NonConvergenceError, SaturationError, check_circles,
                     check_indices, check_points, check_real, check_type)
from .scaled import (BASE_LOG2, exact_power, laurent_on_circles, ldexp_array, ln_split,
                     log2_split, normalise_array, pack, sum_rows, to_complex)

CRITICAL_TAU = math.pi
REGIME_TOLERANCE = 1e-12
#: largest |n| accepted by lattice-derivative / coefficient routines
MAX_LATTICE_INDEX = 64

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class LatticeParams:
    """Lattice density tau, its nome q = exp(-2*pi*tau), and the regime tag.

    The regime boundary sits at tau = pi: inputs within REGIME_TOLERANCE
    of pi are tagged critical, everything above is supercritical (the
    lattice samples no longer determine the signal there).
    """

    tau: float
    q: float
    regime: str

    @property
    def ln_q(self) -> float:
        return -2.0 * math.pi * self.tau

    @functools.cached_property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """E_m for |m| <= MAX_LATTICE_INDEX as read-only (mantissa, exponent) arrays,
        index m + MAX_LATTICE_INDEX: computed on first use, once per object."""
        ms = np.arange(-MAX_LATTICE_INDEX, MAX_LATTICE_INDEX + 1)
        arrays = _coefficients(ms, check_real("q", self.q, 0.0, 1.0), 0)
        for a in arrays:
            a.setflags(write=False)
        return arrays


def nome_from_tau(tau: float) -> LatticeParams:
    """Build LatticeParams from a positive density parameter."""
    tau = check_real("tau", tau, 0.0)
    q = math.exp(-2.0 * math.pi * tau)
    if tau < CRITICAL_TAU - REGIME_TOLERANCE:
        regime = SUBCRITICAL
    elif tau <= CRITICAL_TAU + REGIME_TOLERANCE:
        regime = CRITICAL
    else:
        regime = SUPERCRITICAL
    return LatticeParams(tau=tau, q=q, regime=regime)


#: stopping policy of the truncated products and two-sided sums: a term (or product
#: deviation) below SERIES_TOL relative to the dominant magnitude ends a sum, but never
#: before MIN_TERMS terms per side; past MAX_TERMS it raises NonConvergenceError
SERIES_TOL, MIN_TERMS, MAX_TERMS = 1e-16, 8, 4096


def euler_product(q: float) -> float:
    """prod_{n>=1} (1 - q^n), truncated once q^n < SERIES_TOL."""
    q = check_real("q", q, 0.0, 1.0, closed=True)
    if q == 0:
        return 1.0
    prod = 1.0
    qn = 1.0
    for n in range(1, MAX_TERMS + 1):
        qn *= q
        prod *= 1.0 - qn
        if n >= MIN_TERMS and qn < SERIES_TOL:
            return prod
    raise NonConvergenceError(
        f"euler_product: q^n still {qn:.3e} after {MAX_TERMS} factors",
        diagnostics={"q": q, "last_factor_deviation": qn},
    )


#: factors per column chunk of the triple product's (z, n) factor matrix, and rows
#: per matrix of the theta series: a call's temporaries stay bounded
_PRODUCT_CHUNK, _SERIES_ROWS = 32, 128


def theta_product_scaled(z, q):
    """Product form of Theta(z; q) in scaled arithmetic.

    Each z takes the factors n = 1 .. N, N the first n >= MIN_TERMS with
    q^n max(|z|, 1/|z|) < SERIES_TOL, as fixed column chunks of a (z, n) matrix,
    each factor split into a mantissa and an exact power of two; a row leaves
    the matrix once its factors are done.
    """
    zs, scalar = check_points(z, "z")
    q = check_real("q", q, 0.0, 1.0)
    ln_q, ln_big = np.log(q), np.abs(np.log(np.abs(zs)))
    last = np.maximum(np.floor((math.log(SERIES_TOL) - ln_big) / ln_q) + 1, MIN_TERMS)
    if np.any(last > MAX_TERMS):
        raise NonConvergenceError(f"theta_product: {int(last.max())} factors needed, more than "
                                  f"{MAX_TERMS}", diagnostics={"q": q})
    zinv = 1.0 / zs
    acc, bits = 1.0 - zs, np.zeros(len(zs), dtype=np.int64)
    for first in range(1, int(last.max(initial=0)) + 1, _PRODUCT_CHUNK):
        rows = np.flatnonzero(last >= first)
        n = np.arange(first, first + _PRODUCT_CHUNK)
        qn = q ** n
        factors = (1.0 - qn) * (1.0 - zs[rows, None] * qn) * (1.0 - zinv[rows, None] * qn)
        _, e2 = np.frexp(np.abs(factors))
        live = n <= last[rows, None]
        value = acc[rows] * np.prod(np.where(live, ldexp_array(factors, -e2), 1.0), axis=1)
        _, e_acc = np.frexp(np.abs(value))
        acc[rows] = ldexp_array(value, -e_acc)
        bits[rows] += e_acc + np.where(live, e2, 0).sum(axis=1)
    return pack(*sum_rows(acc[:, None], bits[:, None]), scalar)


def theta_product(z, q):
    """Truncated triple product; relative accuracy O(SERIES_TOL) away from zeros."""
    return to_complex(theta_product_scaled(z, q))


def _series_terms(z_split: tuple, q_split: tuple, label: str, derivative: bool = False,
                  lattice=0):
    """The terms of sum_n (-1)^n z^n q^{n(n-1)/2} (with derivative=True of its z-derivative
    sum_n (-1)^n n z^{n-1} q^{n(n-1)/2}) at each z = q^lattice 2**e r > 0, z_split = (e, ln r)
    (scaled.log2_split), q_split the scaled.ln_split of q and lattice an int or a
    (rows, 1) column: (power, mant, bits), the term with z^power being mant * 2**bits.

    ln|z^n q^{n(n-1)/2}| = n ln|z| - a n(n-1)/2 (a = -ln q) peaks at
    n* = ln|z|/a + 1/2 and is below SERIES_TOL of its top for |n - n*| > d,
    d^2 = 2(a/8 - ln SERIES_TOL)/a.  Each z takes n* - d - 1 .. n* + d + 1 and at
    least -MIN_TERMS .. MIN_TERMS (a side past MAX_TERMS raises
    NonConvergenceError) as one exp matrix, powers of two and of q split off
    exactly (scaled.exact_power); a row's other columns are zeros.
    """
    e_z, lnr_z = z_split[0][:, None], z_split[1][:, None]
    a = -(q_split[0] * math.log(2.0) + q_split[1] + q_split[2])
    u = e_z * math.log(2.0) + lnr_z - lattice * a
    centre = u / a + 0.5
    reach = math.sqrt(2.0 * (a / 8.0 - math.log(SERIES_TOL)) / a) + 1.0
    lo = np.minimum(np.floor(centre - reach), -MIN_TERMS)
    hi = np.maximum(np.ceil(centre + reach), MIN_TERMS)
    terms = max(hi.max(initial=0), -lo.min(initial=0))
    if terms > MAX_TERMS:
        raise NonConvergenceError(f"{label}: no convergence within {MAX_TERMS} terms per side",
                                  diagnostics={"terms": int(terms)})
    n = np.arange(int(lo.min(initial=0)), int(hi.max(initial=0)) + 1)
    power = n - 1 if derivative else n
    pairs = n * (n - 1) // 2 + lattice * power  # the power of q in z^power q^{n(n-1)/2}
    f, bits = exact_power(q_split, pairs, (e_z, lnr_z), power)
    weight = np.where(n % 2, -1.0, 1.0) * (n if derivative else 1.0)
    return power, np.where((n >= lo) & (n <= hi), weight * f, 0.0), bits


def _series_sum(z_split: tuple, arg_z: np.ndarray, q_split: tuple, label: str,
                derivative: bool = False, lattice=0):
    """The _series_terms sum at each z = q^lattice 2**e r e^{i arg_z}, by scaled.sum_rows."""
    power, mant, bits = _series_terms(z_split, q_split, label, derivative, lattice)
    return sum_rows(mant * np.exp(1j * power * arg_z[:, None]), bits)


def theta_series_scaled(z, q):
    """Series form sum_n (-1)^n z^n q^{n(n-1)/2} in scaled arithmetic."""
    zs, scalar = check_points(z, "z")
    split = ln_split(check_real("q", q, 0.0, 1.0))
    parts = [_series_sum(log2_split(np.abs(zs[b])), np.angle(zs[b]), split, "theta_series")
             for b in (slice(i, i + _SERIES_ROWS) for i in range(0, max(len(zs), 1), _SERIES_ROWS))]
    return pack(*map(np.concatenate, zip(*parts)), scalar)


def theta_on_circles(radii, q: float, count: int,
                     offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The theta series at z = r e^{2 pi i (t + offset) / count}, t = 0 .. count-1, for each
    r of ``radii``, circle after circle: one scaled.laurent_on_circles FFT per circle."""
    radii, offset = check_circles(radii, count, offset)
    split = ln_split(check_real("q", q, 0.0, 1.0))
    return laurent_on_circles(*_series_terms(log2_split(radii), split, "theta_series"), count,
                              offset)


def theta_series(z, q):
    """Series form of Theta(z; q) (complex, or a complex array for an array
    of z); overflow-safe internally for log|z| up to at least 10 * |log q|
    (and far beyond)."""
    return to_complex(theta_series_scaled(z, q))


def theta_prime_one(q: float) -> float:
    """Theta'(1; q) = -prod_{n>=1} (1 - q^n)^3."""
    return -euler_product(q) ** 3


def theta_prime_lattice(n, q: float):
    """d/dz Theta(z; q) at the lattice zero z = q^n (reference path).

    Sums the term-by-term differentiated series
    sum_l (-1)^l l z^{l-1} q^{l(l-1)/2} at z = q^n, over the term
    range rule of the theta series.  This is the contract; the closed forms in
    :func:`lattice_derivative_candidate` are candidates to be checked
    against it.
    """
    ns, split = check_indices(n, MAX_LATTICE_INDEX), ln_split(check_real("q", q, 0.0, 1.0))
    zero = np.zeros(len(ns), dtype=np.int64)
    return pack(*_series_sum((zero, zero * 0.0), zero * 0.0, split, "theta_prime_lattice",
                             derivative=True, lattice=ns[:, None]), np.ndim(n) == 0)


def lattice_derivative_candidate(n, q: float, variant: str = "corrected"):
    """Closed-form candidates for Theta'(q^n; q).

    variant="corrected": (-1)^n  q^{-n(n+1)/2} Theta'(1; q)  (passes the
    finite-difference and differentiated-series checks);
    variant="printed":   (-1)^{n+1} q^{-n(n-1)/2} Theta'(1; q)  (kept for
    diagnosis; fails already at n=1, q=0.1).
    """
    ns = check_indices(n, MAX_LATTICE_INDEX)
    q = check_real("q", q, 0.0, 1.0)
    tp1 = theta_prime_one(q)
    shift = {"corrected": 1, "printed": -1}.get(variant)
    if shift is None:
        raise InvalidParameterError(f"unknown variant {variant!r}")
    f, bits = exact_power(ln_split(q), -(ns * (ns + shift)) // 2)
    sign = np.where(ns % 2, -shift, shift)
    return pack(*sum_rows((sign * tp1 * f)[:, None], bits[:, None]), np.ndim(n) == 0)


def eta(z, q):
    """Comparison envelope for |Theta|:

        eta(z) = exp(-ln^2|z| / (2 ln q) + ln|z| / 2),

    raising SaturationError if any value leaves the double range.

    Satisfies eta(qz) = eta(z)/|z| exactly, which is what makes
    |Theta(z; q)| / eta(z) invariant under z -> qz.  (A printed variant
    with ln|z| * ln(q)/2 as the second term breaks that recurrence and
    is not used.)
    """
    ln_values = ln_eta(z, q)
    with np.errstate(over="ignore"):
        values = np.exp(ln_values)
    if not np.all(np.isfinite(values)):
        raise SaturationError(f"eta: log-magnitude {ln_values.max():.6g} beyond the double range")
    return float(values[0]) if np.ndim(z) == 0 else values


def ln_eta(z, q) -> np.ndarray:
    """ln eta(z) for the arguments of :func:`eta`, as a 1-d array: it never saturates."""
    zs, _ = check_points(z, "z")
    u = np.log(np.abs(zs))
    return -u * u / (2.0 * np.log(check_real("q", q, 0.0, 1.0))) + 0.5 * u


def _coefficient_tail_sum(ns: np.ndarray, q: float) -> np.ndarray:
    """S_n = sum_{j>=0} (-1)^j q^{j(j+2n+1)/2} for each n >= 0.

    Term j+1 is -term_j q^{j+n+1}: a running product along each row, so the
    terms decay monotonically from 1 and the plain float sum is safe.  A row
    adds its terms in order up to the last one that is at least SERIES_TOL or
    among the first MIN_TERMS; columns past that are zeros.
    """
    width = MIN_TERMS + 1
    while True:
        j = np.arange(width)
        factors = np.where(j == 0, 1.0, -(q ** (j + ns[:, None])))
        terms = np.cumprod(factors, axis=1)
        keep = (j < MIN_TERMS) | (np.abs(terms) >= SERIES_TOL)
        if not keep[:, -1].any():
            return np.cumsum(np.where(keep, terms, 0.0), axis=1)[:, -1]
        if width >= MAX_TERMS:
            raise NonConvergenceError("coefficient tail sum stalled",
                                      diagnostics={"n": ns[keep[:, -1]].tolist()})
        width = min(2 * width, MAX_TERMS)


def _coefficients(ms: np.ndarray, q: float, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """E_m for an index array, the exponent of q being n(n+1)/2 - shift m (n = |m|), as
    normalised arrays; an entry does not depend on the other indices."""
    ns = np.abs(ms)
    f, bits = exact_power(ln_split(q), ns * (ns + 1) // 2 - shift * ms)
    cube = euler_product(q) ** 3
    value = np.where(ns % 2, -1.0, 1.0) * _coefficient_tail_sum(ns, q) / cube * f
    return normalise_array(ldexp_array(value, bits % BASE_LOG2), bits // BASE_LOG2)


def coeff_E(m, params: LatticeParams, variant: str = "corrected"):
    """Reconstruction coefficients E_m: the z^0 Laurent coefficient of
    Theta(z; q) / ((z - q^m) Theta'(q^m; q)).  A ScaledValue for an int m,
    normalised (mantissa, exponent) arrays for an integer array of m.

    Closed form (variant="corrected", the one matching the contour
    oracle):

        E_m = (-1)^m q^{m(m+1)/2} S_m / prod(1-q^l)^3,
        S_m = sum_{j>=0} (-1)^j q^{j(j+2m+1)/2}.

    E is even in m (substituting z -> 1/w in the defining contour
    integral maps the m-th cardinal function onto the (-m)-th), and the
    raw j-series for m < 0 hides that symmetry behind exactly
    cancelling pairs; the reflection S_{-n} = q^n S_n is used instead
    so no catastrophic cancellation ever occurs.  The power of q is
    raised by scaled.exact_power, with its power of two kept exact.

    The corrected E_m are computed for every |m| <= MAX_LATTICE_INDEX once per
    LatticeParams object (its ``coefficients``) and sliced here, so every call
    on one lattice after the first is an index lookup; an entry has the same
    bits as when computed alone.

    variant="printed" evaluates the slipped exponent m(m-1)/2, which
    differs from the corrected value by exactly q^{-m}; it is retained
    for the adjudication reports only, and computed afresh on every call.
    """
    ms, params = check_indices(m, MAX_LATTICE_INDEX), check_type("params", params, LatticeParams)
    shift = {"corrected": 0, "printed": 1}.get(variant)
    if shift is None:
        raise InvalidParameterError(f"unknown variant {variant!r}")
    if params.regime == SUPERCRITICAL:
        warnings.warn(f"coefficients computed at supercritical tau={params.tau:.6g}; "
                      "they cannot be used for reconstruction", stacklevel=2)
    q = check_real("q", params.q, 0.0, 1.0)
    if shift:
        mant, exps = _coefficients(ms, q, shift)
    else:
        mant, exps = (a[ms + MAX_LATTICE_INDEX] for a in params.coefficients)
    return pack(mant, exps, np.ndim(m) == 0)
