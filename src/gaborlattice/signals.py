"""Test signals and the forward lattice transform.

A signal f is either a finite sum of shifted/modulated Gaussians

    f(x) = sum_c  amp_c * exp(-(x - a_c)^2 / 4 + i b_c x)

(closed forms available for everything downstream) or an arbitrary
complex-valued sampler with growth metadata |f(x)| <= C exp(alpha|x|).

The forward transform computed here is the rectangular table of

    gamma_{m,k} = integral exp(-i k x - tau m x) f(x) exp(-x^2/4) dx,

whose entries grow like exp(tau^2 m^2) along m and are therefore
stored as mantissa * (2**128)**exponent, entry by entry.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InvalidParameterError, NonConvergenceError
from .scaled import LN_BASE, ScaledValue, normalise_array

LN_TWO_PI = math.log(2.0 * math.pi)
EPS = sys.float_info.epsilon
#: multiple of eps * (integrand L1 scale) returned as the roundoff floor of
#: a table entry; an mpmath check of the trapezoid sums measured at most 8.8
ROUNDING_C = 32.0

GAUSSIAN_FAMILY = "gaussian_family"
CALLBACK = "callback"


@dataclass(frozen=True)
class GaussianComponent:
    amplitude: complex
    center: float
    modulation: float


@dataclass(frozen=True)
class SignalModel:
    """A reconstructible signal; build via :meth:`gaussian` or :meth:`callback`."""

    kind: str
    components: tuple[GaussianComponent, ...] = ()
    sampler: Callable[[float], complex] | None = None
    bound: float = 0.0   # C  in |f(x)| <= C exp(alpha |x|)
    growth: float = 0.0  # alpha

    @classmethod
    def gaussian(cls, components: Sequence) -> "SignalModel":
        comps = []
        for item in components:
            if isinstance(item, GaussianComponent):
                comp = item
            else:
                amp, center, modulation = item
                comp = GaussianComponent(complex(amp), float(center), float(modulation))
            if not (
                math.isfinite(abs(comp.amplitude))
                and math.isfinite(comp.center)
                and math.isfinite(comp.modulation)
            ):
                raise InvalidParameterError(f"non-finite Gaussian component {comp!r}")
            comps.append(comp)
        if not comps:
            raise InvalidParameterError("a Gaussian-family signal needs >= 1 component")
        return cls(kind=GAUSSIAN_FAMILY, components=tuple(comps))

    @classmethod
    def callback(cls, sampler: Callable[[float], complex], bound: float,
                 growth: float) -> "SignalModel":
        """Black-box signal; ``bound``/``growth`` assert |f(x)| <= bound * e^{growth|x|}.

        The metadata is mandatory: the quadrature and summation routines
        size their truncation windows from it and refuse to guess.
        """
        if not callable(sampler):
            raise InvalidParameterError("sampler must be callable")
        if not (math.isfinite(bound) and bound >= 0):
            raise InvalidParameterError("bound must be a finite non-negative real")
        if not (math.isfinite(growth) and growth >= 0):
            raise InvalidParameterError("growth must be a finite non-negative real")
        return cls(kind=CALLBACK, sampler=sampler, bound=float(bound), growth=float(growth))

    def envelope_ln(self) -> tuple[float, float]:
        """(ln C, alpha) with |f(x)| <= C exp(alpha |x|)."""
        if self.kind == GAUSSIAN_FAMILY:
            total = sum(abs(c.amplitude) for c in self.components)
            return (math.log(total) if total > 0 else -math.inf, 0.0)
        return (math.log(self.bound) if self.bound > 0 else -math.inf, self.growth)


def eval_signal(signal: SignalModel, x: float) -> complex:
    """f(x)."""
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    if signal.kind == GAUSSIAN_FAMILY:
        total = 0j
        for c in signal.components:
            d = x - c.center
            total += c.amplitude * math.exp(-d * d / 4.0) * cmath.exp(1j * c.modulation * x)
        return total
    return complex(signal.sampler(x))


def windowed_sample_scaled(signal: SignalModel, x: float) -> ScaledValue:
    """(1/2pi) f(x) exp(-x^2/4) as a ScaledValue.

    For Gaussian families each component is assembled in log form, so
    far-tail samples never underflow to 0 * inf garbage when later
    multiplied by huge geometric weights.
    """
    if signal.kind == GAUSSIAN_FAMILY:
        total = ScaledValue.zero()
        for c in signal.components:
            mag = abs(c.amplitude)
            if mag == 0:
                continue
            d = x - c.center
            ln_mag = math.log(mag) - d * d / 4.0 - x * x / 4.0 - LN_TWO_PI
            phase = c.modulation * x + cmath.phase(c.amplitude)
            total = total + ScaledValue.from_ln(ln_mag, phase)
        return total
    value = ScaledValue.from_complex(complex(signal.sampler(x)))
    return value * ScaledValue.from_ln(-x * x / 4.0 - LN_TWO_PI)


@dataclass(frozen=True)
class QuadratureControl:
    """Composite-trapezoid refinement policy for callback signals.

    ``tol`` is the relative accuracy asked of each entry.  It is met
    wherever double precision allows it; where the integrand cancels
    down to its roundoff floor it cannot be, and the entry's returned
    absolute bound (see :func:`gamma_quadrature`) says what is kept.
    """

    tol: float = 1e-10
    max_refinements: int = 24

    def __post_init__(self):
        if not (0 < self.tol < 1):
            raise InvalidParameterError("quadrature tol must lie in (0, 1)")


_DEFAULT_QUAD = QuadratureControl()


def _closed_form_terms(m: int, k: int, signal: SignalModel, tau: float):
    """Per component of gamma_{m,k}: (ln|term|, phase, relative rounding bound).

    The exponent of a term is a sum of pieces each rounded to ~eps of its
    own size, so the term's relative error grows with the pieces' sizes.
    ScaledValue.from_ln adds up to ~LN_BASE eps (its residual exponent
    lies in [0, LN_BASE)), and ROUNDING_C eps covers the products and sums.
    """
    for c in signal.components:
        mag = abs(c.amplitude)
        if mag == 0:
            continue
        ln_amp = math.log(mag)
        sr = c.center / 2.0 - tau * m
        si = c.modulation - k
        re_half_s2 = (sr * sr - si * si) / 2.0
        im_half_s2 = sr * si
        ln_mag = ln_amp - c.center * c.center / 4.0 + re_half_s2 + 0.5 * LN_TWO_PI
        phase = im_half_s2 + cmath.phase(c.amplitude)
        pieces = (abs(ln_amp) + c.center * c.center / 4.0
                  + (abs(c.center) / 2.0 + tau * abs(m)) ** 2
                  + (abs(c.modulation) + abs(k)) ** 2)
        yield ln_mag, phase, ROUNDING_C + LN_BASE + 2.0 * pieces


def gamma_closed_form(m: int, k: int, signal: SignalModel, tau: float) -> ScaledValue:
    """Exact gamma_{m,k} for Gaussian families.

    Completing the square in
    integral exp(-x^2/2 + c x) dx = sqrt(2 pi) exp(c^2 / 2) gives, per
    component, amp * e^{-a^2/4} * sqrt(2 pi) * e^{s^2/2} with
    s = a/2 - tau m + i (b - k).
    """
    if signal.kind != GAUSSIAN_FAMILY:
        raise InvalidParameterError("closed form requires a Gaussian-family signal")
    total = ScaledValue.zero()
    for ln_mag, phase, _ in _closed_form_terms(m, k, signal, tau):
        total = total + ScaledValue.from_ln(ln_mag, phase)
    return total


def _closed_form_bound(m: int, k: int, signal: SignalModel, tau: float) -> ScaledValue:
    """Absolute rounding bound of :func:`gamma_closed_form`: eps times the
    component magnitudes |term_c|, each weighted by its relative bound."""
    terms = [ln_mag + math.log(rel) for ln_mag, _, rel in _closed_form_terms(m, k, signal, tau)]
    if not terms:
        return ScaledValue.zero()
    top = max(terms)
    return ScaledValue.from_ln(math.log(EPS) + top + math.log(sum(math.exp(t - top) for t in terms)))


def gamma_quadrature(
    m: int,
    k: int,
    signal: SignalModel,
    tau: float,
    quad: QuadratureControl = _DEFAULT_QUAD,
) -> tuple[ScaledValue, ScaledValue]:
    """gamma_{m,k} by refined composite trapezoid, with its absolute error bound.

    Writing exp(-tau m x - x^2/4) = e^{tau^2 m^2} exp(-(x - x0)^2/4)
    with x0 = -2 tau m, the integral is computed on [x0 - R, x0 + R]
    with the scale e^{tau^2 m^2} kept in the exponent.

    Returns ``(value, abs_err)``.  With the integrand's L1 scale
    S = e^{tau^2 m^2} integral |f(x)| exp(-(x - x0)^2/4) dx,

        abs_err = max(quad.tol * |value|, ROUNDING_C * eps * S)
                  + eps (2 tau^2 m^2 + LN_BASE) |value|.

    The second term of the max is the roundoff floor of summing
    double-precision samples: where oscillation cancels |gamma| far
    below S, no double-precision rule meets quad.tol relative and the
    bound says so instead.  The last term covers the rounding of the
    scale e^{tau^2 m^2}: of its exponent, and of ScaledValue.from_ln.

    The spacing starts below the oscillation scale of e^{-ikx} and is
    halved until successive estimates agree to quad.tol or to the
    roundoff floor (a trapezoid rule on an analytic, Gaussian-windowed
    integrand converges super-geometrically, so this usually fires
    immediately).  The half-width R starts from the envelope metadata
    and then grows until the declared-envelope tail bound is below the
    error bound computed from the value itself, so the tail is
    certified on every return path.
    """
    ln_c, alpha = signal.envelope_ln()
    if ln_c == -math.inf:
        return ScaledValue.zero(), ScaledValue.zero()
    x0 = -2.0 * tau * m
    ln_scale = tau * tau * m * m

    def integrand(x: float) -> complex:
        d = x - x0
        return (
            cmath.exp(-1j * k * x)
            * eval_signal(signal, x)
            * math.exp(-d * d / 4.0)
        )

    def refine(lo: float, hi: float) -> tuple[complex, float]:
        """Halve the spacing to convergence; returns (value, abs_scale)."""
        h = min(0.25, math.pi / (2.0 * (abs(k) + 1.0)))
        n = max(2, math.ceil((hi - lo) / h))
        h = (hi - lo) / n
        total = 0.5 * (integrand(lo) + integrand(hi))
        abs_scale = 0.5 * (abs(integrand(lo)) + abs(integrand(hi)))
        for i in range(1, n):
            v = integrand(lo + i * h)
            total += v
            abs_scale += abs(v)
        estimate = total * h
        abs_scale *= h
        for _ in range(quad.max_refinements):
            mid_sum = 0j
            for i in range(n):
                mid_sum += integrand(lo + (i + 0.5) * h)
            refined = 0.5 * estimate + 0.5 * h * mid_sum
            n *= 2
            h *= 0.5
            # second term: roundoff floor of the accumulated sum
            if abs(refined - estimate) <= quad.tol * abs(refined) + 1e-15 * abs_scale:
                return refined, abs_scale
            estimate = refined
        raise NonConvergenceError(
            "gamma_quadrature: spacing refinement cap reached",
            diagnostics={"last": refined, "previous": estimate, "m": m, "k": k},
        )

    def half_width(ln_target: float) -> float:
        gap = max(1.0, alpha * alpha + ln_c + alpha * abs(x0) - ln_target)
        return 2.0 * alpha + 2.0 * math.sqrt(gap)

    r = half_width(math.log(quad.tol))
    for _ in range(6):
        lo, hi = x0 - r, x0 + r
        if signal.kind == CALLBACK:
            for endpoint in (lo, hi):
                observed = abs(complex(signal.sampler(endpoint)))
                allowed = 10.0 * math.exp(ln_c + alpha * abs(endpoint))
                if observed > allowed:
                    raise InvalidParameterError(
                        f"callback exceeds its declared envelope at x={endpoint:.6g}: "
                        f"|f| = {observed:.3e} > {allowed:.3e}"
                    )
        value, abs_scale = refine(lo, hi)
        edge_ln = ln_c + alpha * max(abs(lo), abs(hi)) - r * r / 4.0 + math.log(4.0)
        if abs_scale == 0:  # every sample vanished: only the envelope tail is left
            return ScaledValue.zero(), ScaledValue.from_ln(ln_scale + edge_ln)
        err = max(quad.tol * abs(value), ROUNDING_C * EPS * abs_scale)
        if edge_ln <= math.log(err):
            scale = ScaledValue.from_ln(ln_scale)
            err += EPS * (2.0 * ln_scale + LN_BASE) * abs(value)
            return scale * value, scale * err
        r = half_width(math.log(err) - 3.0)
    raise NonConvergenceError(
        "gamma_quadrature: truncation window kept growing without certification",
        diagnostics={"last": value, "half_width": r, "m": m, "k": k},
    )


def _column(payload: dict, key: str, kinds: str, size: int) -> np.ndarray:
    """One payload column as a 1-d array of ``size`` finite numbers of a
    dtype kind in ``kinds``."""
    try:
        col = np.asarray(payload[key])
    except ValueError:  # ragged nesting
        col = None
    if (col is None or col.ndim != 1 or col.dtype.kind not in kinds or len(col) != size
            or not np.isfinite(col).all()):
        raise InvalidParameterError(
            f"payload column {key!r} must be a list of {size} "
            f"{'integers' if kinds == 'iu' else 'finite numbers'}")
    return col


class GammaTable:
    """Immutable (2M+1) x (2K+1) table of scaled lattice coefficients.

    Entry (m, k) is ``mantissa[m + M, k + K] * B**exponent[m + M, k + K]``
    (B = 2**128), normalised as ScaledValue normalises it: the columns of
    the table file.  Every entry keeps its own exponent, because a single
    row can span more than the double range.

    ``errors`` is the GammaTable of each entry's absolute error bound when
    the table was computed here (:func:`forward_table`), and None for a
    table read back from a payload, which carries the values only.
    ``built_for`` is then the ``(signal, tau, quad)`` the entries were
    computed for, and None for a payload table.
    """

    def __init__(self, M: int, K: int, tau: float, mantissa, exponent,
                 errors: "GammaTable | None" = None, built_for: tuple | None = None):
        self.M = M
        self.K = K
        self.tau = tau
        self.built_for = built_for
        self.mantissa = np.array(mantissa, dtype=complex).reshape(2 * M + 1, 2 * K + 1)
        self.exponent = np.array(exponent, dtype=np.int64).reshape(2 * M + 1, 2 * K + 1)
        self.mantissa.setflags(write=False)
        self.exponent.setflags(write=False)
        self.errors = errors

    def get(self, m: int, k: int) -> ScaledValue:
        if abs(m) > self.M or abs(k) > self.K:
            raise InvalidParameterError(
                f"(m={m}, k={k}) outside table extents M={self.M}, K={self.K}"
            )
        i, j = m + self.M, k + self.K
        return ScaledValue(complex(self.mantissa[i, j]), int(self.exponent[i, j]))

    def row(self, m: int) -> list[ScaledValue]:
        return [self.get(m, k) for k in range(-self.K, self.K + 1)]

    def to_payload(self) -> dict:
        """Columnar, JSON-ready form (bit-exact round trip)."""
        width, height = 2 * self.K + 1, 2 * self.M + 1
        return {
            "m": np.repeat(np.arange(-self.M, self.M + 1), width).tolist(),
            "k": np.tile(np.arange(-self.K, self.K + 1), height).tolist(),
            "mantissa_re": self.mantissa.real.ravel().tolist(),
            "mantissa_im": self.mantissa.imag.ravel().tolist(),
            "exponent": self.exponent.ravel().tolist(),
        }

    @classmethod
    def from_payload(cls, M: int, K: int, tau: float, payload: dict) -> "GammaTable":
        """Inverse of :meth:`to_payload`.  The entries may come in any order,
        but every (m, k) of the table exactly once; anything else is refused."""
        if M < 0 or K < 0:
            raise InvalidParameterError("M and K must be non-negative")
        width, size = 2 * K + 1, (2 * M + 1) * (2 * K + 1)
        m, k, exps = (_column(payload, key, "iu", size) for key in ("m", "k", "exponent"))
        re, im = (_column(payload, key, "iuf", size) for key in ("mantissa_re", "mantissa_im"))
        flat = (m + M) * width + (k + K)
        order = np.argsort(flat)  # row-major, as to_payload lists them
        in_range = np.all((-M <= m) & (m <= M) & (-K <= k) & (k <= K))
        if not (in_range and np.array_equal(flat[order], np.arange(size))):
            raise InvalidParameterError(
                f"payload must list every (m, k) with |m| <= {M}, |k| <= {K} exactly once")
        mant = np.empty(size, dtype=complex)
        mant.real, mant.imag = re[order], im[order]
        return cls(M, K, tau, *normalise_array(mant, exps[order]))

    def __eq__(self, other):
        if not isinstance(other, GammaTable):
            return NotImplemented
        return (
            self.M == other.M
            and self.K == other.K
            and self.tau == other.tau
            and np.array_equal(self.mantissa, other.mantissa)
            and np.array_equal(self.exponent, other.exponent)
        )


def forward_table(
    signal: SignalModel,
    tau: float,
    M: int,
    K: int,
    quad: QuadratureControl | None = _DEFAULT_QUAD,
    base: GammaTable | None = None,
) -> GammaTable:
    """Fill the full coefficient table, closed form where available.

    Every entry's absolute error bound is kept in ``table.errors``: the
    rounding bound of the closed form, or the bound returned by
    :func:`gamma_quadrature`.  The entries that ``base`` holds are copied
    with their bounds, not computed again; ``base`` must have been built
    here for the same signal, tau and quad (a table read from a payload
    carries no bounds and is refused too).
    """
    if M < 0 or K < 0:
        raise InvalidParameterError("M and K must be non-negative")
    if not (math.isfinite(tau) and tau > 0):
        raise InvalidParameterError(f"tau must be a finite positive real, got {tau!r}")
    quad = quad or _DEFAULT_QUAD
    built_for = (signal, tau, quad)
    if base is not None and base.built_for != built_for:
        raise InvalidParameterError(
            "base table was built for another signal, tau or quad, or read from a payload")
    # [0] the values, [1] their error bounds
    mant = np.zeros((2, 2 * M + 1, 2 * K + 1), dtype=complex)
    exps = np.zeros(mant.shape, dtype=np.int64)
    if base is not None:
        bM, bK = min(M, base.M), min(K, base.K)
        new = np.s_[:, M - bM: M + bM + 1, K - bK: K + bK + 1]
        old = np.s_[base.M - bM: base.M + bM + 1, base.K - bK: base.K + bK + 1]
        mant[new] = base.mantissa[old], base.errors.mantissa[old]
        exps[new] = base.exponent[old], base.errors.exponent[old]
    for m in range(-M, M + 1):
        for k in range(-K, K + 1):
            if base is not None and abs(m) <= base.M and abs(k) <= base.K:
                continue
            if signal.kind == GAUSSIAN_FAMILY:
                entry = (gamma_closed_form(m, k, signal, tau),
                         _closed_form_bound(m, k, signal, tau))
            else:
                entry = gamma_quadrature(m, k, signal, tau, quad)
            for n, value in enumerate(entry):
                mant[n, m + M, k + K], exps[n, m + M, k + K] = value.mantissa, value.exponent
    return GammaTable(M, K, tau, mant[0], exps[0], errors=GammaTable(M, K, tau, mant[1], exps[1]),
                      built_for=built_for)
