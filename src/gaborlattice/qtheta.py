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

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, InvalidParameterError, NonConvergenceError
from .scaled import ScaledValue

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


def nome_from_tau(tau: float) -> LatticeParams:
    """Build LatticeParams from a positive density parameter."""
    if not isinstance(tau, (int, float)) or not math.isfinite(tau) or tau <= 0:
        raise InvalidParameterError(f"tau must be a finite positive real, got {tau!r}")
    tau = float(tau)
    q = math.exp(-2.0 * math.pi * tau)
    if tau < CRITICAL_TAU - REGIME_TOLERANCE:
        regime = SUBCRITICAL
    elif tau <= CRITICAL_TAU + REGIME_TOLERANCE:
        regime = CRITICAL
    else:
        regime = SUPERCRITICAL
    return LatticeParams(tau=tau, q=q, regime=regime)


@dataclass(frozen=True)
class SeriesControl:
    """Stopping policy for the truncated products and two-sided sums.

    A term (or product deviation) below ``abs_tol`` relative to the
    running dominant magnitude ends a sum, but never before
    ``min_terms`` terms per side; ``max_terms`` is the hard cap that
    turns a stall into NonConvergenceError.
    """

    abs_tol: float = 1e-16
    max_terms: int = 4096
    min_terms: int = 8

    def __post_init__(self):
        if not (self.abs_tol > 0):
            raise InvalidParameterError("abs_tol must be positive")
        if self.min_terms > self.max_terms or self.min_terms < 1:
            raise InvalidParameterError("need 1 <= min_terms <= max_terms")


_DEFAULT_CTRL = SeriesControl()


def _check_q_open(q: float) -> float:
    if not isinstance(q, (int, float)) or not math.isfinite(q) or not 0 < q < 1:
        raise InvalidParameterError(f"q must lie in (0, 1), got {q!r}")
    return float(q)


def euler_product(q: float, ctrl: SeriesControl = _DEFAULT_CTRL) -> float:
    """prod_{n>=1} (1 - q^n), truncated once q^n < ctrl.abs_tol."""
    if not isinstance(q, (int, float)) or not math.isfinite(q) or not 0 <= q < 1:
        raise InvalidParameterError(f"q must lie in [0, 1), got {q!r}")
    if q == 0:
        return 1.0
    prod = 1.0
    qn = 1.0
    for n in range(1, ctrl.max_terms + 1):
        qn *= q
        prod *= 1.0 - qn
        if n >= ctrl.min_terms and qn < ctrl.abs_tol:
            return prod
    raise NonConvergenceError(
        f"euler_product: q^n still {qn:.3e} after {ctrl.max_terms} factors",
        diagnostics={"q": q, "last_factor_deviation": qn},
    )


def _check_z(z) -> complex:
    z = complex(z)
    if z == 0:
        raise DomainError("theta is evaluated on C \\ {0}; z = 0 is not allowed")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"z must be finite, got {z!r}")
    return z


def theta_product_scaled(z, q: float, ctrl: SeriesControl = _DEFAULT_CTRL) -> ScaledValue:
    """Product form of Theta(z; q) in scaled arithmetic."""
    z = _check_z(z)
    q = _check_q_open(q)
    zinv = 1.0 / z
    big = max(abs(z), abs(zinv), 1.0)
    acc = ScaledValue.from_complex(1.0 - z)
    qn = 1.0
    for n in range(1, ctrl.max_terms + 1):
        qn *= q
        acc = acc * ((1.0 - qn) * (1.0 - z * qn) * (1.0 - zinv * qn))
        if n >= ctrl.min_terms and qn * big < ctrl.abs_tol:
            return acc
    raise NonConvergenceError(
        f"theta_product: factors still deviate by {qn * big:.3e} "
        f"after {ctrl.max_terms} terms",
        diagnostics={"q": q, "abs_z": abs(z)},
    )


def theta_product(z, q: float, ctrl: SeriesControl = _DEFAULT_CTRL) -> complex:
    """Truncated triple product; relative accuracy O(abs_tol) away from zeros."""
    return theta_product_scaled(z, q, ctrl).to_complex()


def _two_sided_sum(first: ScaledValue, step_up, step_down, ctrl: SeriesControl,
                   label: str) -> ScaledValue:
    """Interleaved two-sided summation n = 0, +1, -1, +2, -2, ...

    ``step_up(n, term)`` maps the term at index n >= 0 to the term at
    n+1; ``step_down(n, term)`` maps the term at index -n <= 0 to the
    one at -(n+1).  Each side stops once its term magnitude falls below
    abs_tol relative to the largest magnitude seen so far (terms along
    a side are unimodal, so this never fires before the peak).  The
    interleave order is fixed for bit-reproducibility.
    """
    total = first
    best_ln = first.ln_abs()
    ln_tol = math.log(ctrl.abs_tol)
    up_term, down_term = first, first
    up_active = down_active = True
    n_up = n_down = 0
    while up_active or down_active:
        if up_active:
            up_term = step_up(n_up, up_term)
            n_up += 1
            total = total + up_term
            t_ln = up_term.ln_abs()
            best_ln = max(best_ln, t_ln)
            if n_up >= ctrl.min_terms and t_ln < ln_tol + best_ln:
                up_active = False
        if down_active:
            down_term = step_down(n_down, down_term)
            n_down += 1
            total = total + down_term
            t_ln = down_term.ln_abs()
            best_ln = max(best_ln, t_ln)
            if n_down >= ctrl.min_terms and t_ln < ln_tol + best_ln:
                down_active = False
        if n_up > ctrl.max_terms or n_down > ctrl.max_terms:
            raise NonConvergenceError(
                f"{label}: no convergence within {ctrl.max_terms} terms per side",
                diagnostics={"n_up": n_up, "n_down": n_down},
            )
    return total


def theta_series_scaled(z, q: float, ctrl: SeriesControl = _DEFAULT_CTRL) -> ScaledValue:
    """Series form sum_n (-1)^n z^n q^{n(n-1)/2} in scaled arithmetic.

    Term recurrences: t_{n+1} = t_n * (-z q^n) upward and
    t_{-(n+1)} = t_{-n} * (-q^{n+1}/z) downward, so arbitrary |z| are
    handled without forming z**n directly.
    """
    z = _check_z(z)
    q = _check_q_open(q)
    zinv = 1.0 / z

    def step_up(n, term):
        return term * (-z * ScaledValue.from_pow(q, n))

    def step_down(n, term):
        return term * (-zinv * ScaledValue.from_pow(q, n + 1))

    return _two_sided_sum(ScaledValue.one(), step_up, step_down, ctrl, "theta_series")


def theta_series(z, q: float, ctrl: SeriesControl = _DEFAULT_CTRL) -> complex:
    """Series form of Theta(z; q); overflow-safe internally for
    log|z| up to at least 10 * |log q| (and far beyond)."""
    return theta_series_scaled(z, q, ctrl).to_complex()


def theta_prime_one(q: float, ctrl: SeriesControl = _DEFAULT_CTRL) -> float:
    """Theta'(1; q) = -prod_{n>=1} (1 - q^n)^3."""
    return -euler_product(q, ctrl) ** 3


def _check_lattice_index(n: int) -> int:
    if not isinstance(n, int) or abs(n) > MAX_LATTICE_INDEX:
        raise InvalidParameterError(
            f"lattice index must be an integer with |n| <= {MAX_LATTICE_INDEX}, got {n!r}"
        )
    return n


def theta_prime_lattice(n: int, q: float, ctrl: SeriesControl = _DEFAULT_CTRL) -> ScaledValue:
    """d/dz Theta(z; q) at the lattice zero z = q^n (reference path).

    Sums the term-by-term differentiated series
    sum_l (-1)^l l z^{l-1} q^{l(l-1)/2} at z = q^n, i.e. terms
    l * u_l with u_l = (-1)^l q^{(l-1)(l+2n)/2} and the exact ratio
    u_{l+1}/u_l = -q^{l+n}.  This is the contract; the closed forms in
    :func:`lattice_derivative_candidate` are candidates to be checked
    against it.
    """
    n = _check_lattice_index(n)
    q = _check_q_open(q)
    # carry u_l apart from the factor l, which is not geometric;
    # u_0 = q^{(0-1)(0+2n)/2} = q^{-n} on both sides
    u = {+1: ScaledValue.from_pow(q, -n), -1: ScaledValue.from_pow(q, -n)}

    def step_up(j, _):  # u_{j+1} = u_j * (-q^{j+n}), term (j+1) u_{j+1}
        u[+1] = u[+1] * (-ScaledValue.from_pow(q, j + n))
        return u[+1] * float(j + 1)

    def step_down(j, _):  # u_{-(j+1)} = u_{-j} * (-q^{j+1-n}), term -(j+1) u_{-(j+1)}
        u[-1] = u[-1] * (-ScaledValue.from_pow(q, j + 1 - n))
        return u[-1] * float(-(j + 1))

    # the l = 0 term vanishes
    return _two_sided_sum(ScaledValue.zero(), step_up, step_down, ctrl, "theta_prime_lattice")


def lattice_derivative_candidate(
    n: int, q: float, ctrl: SeriesControl = _DEFAULT_CTRL, variant: str = "corrected"
) -> ScaledValue:
    """Closed-form candidates for Theta'(q^n; q).

    variant="corrected": (-1)^n  q^{-n(n+1)/2} Theta'(1; q)  (passes the
    finite-difference and differentiated-series checks);
    variant="printed":   (-1)^{n+1} q^{-n(n-1)/2} Theta'(1; q)  (kept for
    diagnosis; fails already at n=1, q=0.1).
    """
    n = _check_lattice_index(n)
    q = _check_q_open(q)
    tp1 = theta_prime_one(q, ctrl)
    if variant == "corrected":
        sign = -1.0 if n % 2 else 1.0
        return ScaledValue.from_pow(q, -(n * (n + 1)) // 2) * (sign * tp1)
    if variant == "printed":
        sign = 1.0 if n % 2 else -1.0
        return ScaledValue.from_pow(q, -(n * (n - 1)) // 2) * (sign * tp1)
    raise InvalidParameterError(f"unknown variant {variant!r}")


def eta(z, q: float) -> float:
    """Comparison envelope for |Theta|:

        eta(z) = exp(-ln^2|z| / (2 ln q) + ln|z| / 2).

    Satisfies eta(qz) = eta(z)/|z| exactly, which is what makes
    |Theta(z; q)| / eta(z) invariant under z -> qz.  (A printed variant
    with ln|z| * ln(q)/2 as the second term breaks that recurrence and
    is not used.)
    """
    z = _check_z(z)
    q = _check_q_open(q)
    u = math.log(abs(z))
    ln_q = math.log(q)
    return math.exp(-u * u / (2.0 * ln_q) + 0.5 * u)


def _coefficient_tail_sum(n: int, q: float, ctrl: SeriesControl) -> float:
    """S_n = sum_{j>=0} (-1)^j q^{j(j+2n+1)/2} for n >= 0.

    Exponents increase by j+n+1 per step, so the terms decay
    monotonically from 1 and the plain float sum is safe.
    """
    total = 0.0
    term = 1.0
    for j in range(ctrl.max_terms):
        total += term
        nxt = -term * q ** (j + n + 1)
        if j + 1 >= ctrl.min_terms and abs(nxt) < ctrl.abs_tol:
            break
        term = nxt
    else:
        raise NonConvergenceError("coefficient tail sum stalled", diagnostics={"n": n})
    return total


def coeff_E(
    m: int,
    params: LatticeParams,
    ctrl: SeriesControl = _DEFAULT_CTRL,
    variant: str = "corrected",
) -> ScaledValue:
    """Reconstruction coefficient E_m: the z^0 Laurent coefficient of
    Theta(z; q) / ((z - q^m) Theta'(q^m; q)).

    Closed form (variant="corrected", the one matching the contour
    oracle):

        E_m = (-1)^m q^{m(m+1)/2} S_m / prod(1-q^l)^3,
        S_m = sum_{j>=0} (-1)^j q^{j(j+2m+1)/2}.

    E is even in m (substituting z -> 1/w in the defining contour
    integral maps the m-th cardinal function onto the (-m)-th), and the
    raw j-series for m < 0 hides that symmetry behind exactly
    cancelling pairs; the reflection S_{-n} = q^n S_n is used instead
    so no catastrophic cancellation ever occurs.

    variant="printed" evaluates the slipped exponent m(m-1)/2, which
    differs from the corrected value by exactly q^{-m}; it is retained
    for the adjudication reports only.
    """
    m = _check_lattice_index(m)
    if params.regime == SUPERCRITICAL:
        warnings.warn(
            f"coefficients computed at supercritical tau={params.tau:.6g}; "
            "they cannot be used for reconstruction",
            stacklevel=2,
        )
    q = _check_q_open(params.q)
    n = abs(m)
    s_n = _coefficient_tail_sum(n, q, ctrl)
    cube = euler_product(q, ctrl) ** 3
    sign = -1.0 if n % 2 else 1.0
    value = ScaledValue.from_pow(q, (n * (n + 1)) // 2) * (sign * s_n / cube)
    if variant == "corrected":
        return value
    if variant == "printed":
        return value * ScaledValue.from_pow(q, -m)
    raise InvalidParameterError(f"unknown variant {variant!r}")
