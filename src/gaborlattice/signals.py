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

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (BLOCK_ELEMENTS, MAX_GRID_POINTS, InvalidParameterError, NonConvergenceError,
                     as_array, check_counts, check_indices, check_points, check_real, check_type)
from .scaled import BASE_LOG2, LN_BASE, ScaledValue, exp_pow2, normalise_array, pack, sum_rows

LN_TWO_PI = math.log(2.0 * math.pi)
LN_FOUR = math.log(4.0)
EPS = sys.float_info.epsilon
LN_EPS = math.log(EPS)
#: multiple of eps * (integrand L1 scale) returned as the roundoff floor of a
#: table entry; tools/quadrature_bound_check.py measures at most 3.3 there
ROUNDING_C = 32.0
#: coarsest spacing of the callback quadrature's grid x_n = n * H0 / 2**j
H0 = 0.25
#: stopping rule of the callback quadrature: an entry halves its spacing until two
#: successive sums agree to QUAD_TOL relative (or to its row's roundoff floor), QUAD_TOL
#: is also the relative part of its bound, and past MAX_REFINEMENTS halvings beyond its
#: start level it raises NonConvergenceError (see gamma_quadrature)
QUAD_TOL, MAX_REFINEMENTS = 1e-10, 12

GAUSSIAN_FAMILY = "gaussian_family"
CALLBACK = "callback"


@dataclass(frozen=True)
class GaussianComponent:
    """One term amp * exp(-(x - center)^2 / 4 + i modulation x), checked on construction."""

    amplitude: complex
    center: float
    modulation: float

    def __post_init__(self):
        amp = self.amplitude
        if isinstance(amp, bool) or not isinstance(amp, numbers.Complex):
            raise InvalidParameterError(f"bad amplitude {amp!r:.40}: need a complex number")
        check_real("amplitude modulus", abs(amp))
        object.__setattr__(self, "amplitude", complex(amp))
        for name in ("center", "modulation"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))


@dataclass(frozen=True)
class SignalModel:
    """A reconstructible signal; build via :meth:`gaussian` or :meth:`callback`.
    The constructor checks every field, so those and a raw call refuse alike."""

    kind: str
    components: tuple[GaussianComponent, ...] = ()
    sampler: Callable[[float], complex] | None = None
    bound: float = 0.0   # C  in |f(x)| <= C exp(alpha |x|)
    growth: float = 0.0  # alpha

    def __post_init__(self):
        if self.kind == GAUSSIAN_FAMILY:
            try:
                comps = tuple(c if isinstance(c, GaussianComponent) else GaussianComponent(*c)
                              for c in self.components)
            except TypeError:  # not a sequence of triples
                raise InvalidParameterError(
                    f"bad Gaussian components {self.components!r:.40}") from None
            if not comps:
                raise InvalidParameterError("a Gaussian-family signal needs >= 1 component")
            object.__setattr__(self, "components", comps)
        elif self.kind == CALLBACK:
            if not callable(self.sampler):
                raise InvalidParameterError("sampler must be callable")
        else:
            raise InvalidParameterError(f"unknown signal kind {self.kind!r:.40}")
        for name in ("bound", "growth"):
            object.__setattr__(self, name, check_real(name, getattr(self, name), 0.0, closed=True))

    @classmethod
    def gaussian(cls, components: Sequence) -> "SignalModel":
        """Components as GaussianComponents or (amplitude, center, modulation) triples."""
        return cls(kind=GAUSSIAN_FAMILY, components=components)

    @classmethod
    def callback(cls, sampler: Callable[[float], complex], bound: float,
                 growth: float) -> "SignalModel":
        """Black-box signal; ``bound``/``growth`` assert |f(x)| <= bound * e^{growth|x|}.

        The metadata is mandatory: the quadrature and summation routines
        size their truncation windows from it and refuse to guess.
        """
        return cls(kind=CALLBACK, sampler=sampler, bound=bound, growth=growth)

    def envelope_ln(self) -> tuple[float, float]:
        """(ln C, alpha) with |f(x)| <= C exp(alpha |x|)."""
        if self.kind == GAUSSIAN_FAMILY:
            total = sum(abs(c.amplitude) for c in self.components)
            return (math.log(total) if total > 0 else -math.inf, 0.0)
        return (math.log(self.bound) if self.bound > 0 else -math.inf, self.growth)


def _components(signal: SignalModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A Gaussian family's amplitudes, centres and modulations as arrays."""
    amp = np.array([c.amplitude for c in signal.components])
    centre, modulation = np.array([(c.center, c.modulation) for c in signal.components]).T
    return amp, centre, modulation


def eval_signal(signal: SignalModel, x):
    """f(x): a complex for a float x, a complex array for an array of x.  A
    Gaussian family is one (point, component) matrix; a callback is sampled once
    per point, here and nowhere else, and its first non-finite sample is refused.
    A scalar call equals the array call's element."""
    flat, scalar = check_points(x, "x", real=True)
    if check_type("signal", signal, SignalModel).kind == GAUSSIAN_FAMILY:
        amp, centre, modulation = _components(signal)
        values, step = np.empty(len(flat), dtype=complex), max(1, BLOCK_ELEMENTS // len(amp))
        for start in range(0, len(flat), step):  # blocks of points bound the temporaries
            xs = flat[start: start + step, None]
            terms = amp * np.exp(-(xs - centre) ** 2 / 4.0) * np.exp(1j * (modulation * xs))
            values[start: start + len(xs)] = np.cumsum(terms, axis=1)[:, -1]  # component order
    else:
        values = np.array([complex(signal.sampler(v)) for v in flat.tolist()], dtype=complex)
        if not np.isfinite(values).all():
            i = int(np.argmin(np.isfinite(values)))  # the first non-finite sample
            raise InvalidParameterError(
                f"callback returned {complex(values[i])!r} at x={flat[i]:.6g}")
    return complex(values[0]) if scalar else values.reshape(np.shape(x))


def windowed_sample_scaled(signal: SignalModel, x):
    """(1/2pi) f(x) exp(-x^2/4): a ScaledValue for a float x, normalised
    (mantissa, exponent) arrays for an array of x.  Terms are built in log form
    (scaled.exp_pow2), so far-tail samples never underflow to 0 * inf garbage;
    a Gaussian family is one (point, component) matrix, a callback is sampled
    by eval_signal."""
    flat, scalar = check_points(x, "x", real=True)
    xs = flat[:, None]
    if check_type("signal", signal, SignalModel).kind == GAUSSIAN_FAMILY:
        amp, centre, modulation = _components(signal)
        ln_amp = np.log(np.abs(amp), out=np.zeros(len(amp)), where=amp != 0)  # 0 where amp is 0
        ln_mag = ln_amp - (xs - centre) ** 2 / 4.0 - xs * xs / 4.0 - LN_TWO_PI
        unit = np.where(amp != 0, np.exp(1j * (modulation * xs + np.angle(amp))), 0.0)
    else:
        unit = eval_signal(signal, flat)[:, None]
        ln_mag = -xs * xs / 4.0 - LN_TWO_PI
    f, bits = exp_pow2(ln_mag)
    return pack(*sum_rows(unit * f, bits), scalar)


def _entries(mant: np.ndarray, exps: np.ndarray, scalar: bool):
    """(value, abs_err) ScaledValues of a 1x1 block for a scalar call, else
    the (2, rows, cols) mantissa and exponent arrays."""
    if scalar:
        return tuple(ScaledValue(mant[n, 0, 0], int(exps[n, 0, 0])) for n in range(2))
    return mant, exps


def gamma_closed_form(m: int | tuple[int, ...], k: int | tuple[int, ...], signal: SignalModel,
                      tau: float):
    """Exact gamma_{m,k} for Gaussian families, with absolute rounding bounds.

    Returns what :func:`gamma_quadrature` returns: ``(value, abs_err)`` as
    ScaledValues for int ``m`` and ``k``; for tuples of rows and columns,
    ``(mantissa, exponent)`` arrays of shape (2, len(m), len(k)) holding [0]
    the values and [1] their bounds.  An entry does not depend on its block.

    Completing the square in
    integral exp(-x^2/2 + c x) dx = sqrt(2 pi) exp(c^2 / 2) gives, per
    component, amp * e^{-a^2/4} * sqrt(2 pi) * e^{s^2/2} with
    s = a/2 - tau m + i (b - k): one (row, column, component) tensor of
    ln-magnitudes and phases, raised by scaled.exp_pow2 and summed per entry
    by scaled.sum_rows.  The exponent of a term is a sum of pieces each
    rounded to ~eps of its own size, so the term's relative error grows with
    the pieces' sizes; the bound is eps sum_c |term_c| rel_c with
    rel_c = ROUNDING_C + LN_BASE + 2 pieces_c (exp_pow2 rounds to ~1 ulp,
    so the LN_BASE allowance is slack).
    """
    if check_type("signal", signal, SignalModel).kind != GAUSSIAN_FAMILY:
        raise InvalidParameterError("closed form requires a Gaussian-family signal")
    rows, cols = check_indices(m)[:, None, None], check_indices(k)[:, None]
    tau = check_real("tau", tau)
    amp, centre, modulation = _components(signal)
    ln_amp = np.log(np.abs(amp), out=np.zeros(len(amp)), where=amp != 0)  # 0 where amp is 0
    sr, si = centre / 2.0 - tau * rows, modulation - cols
    f, bits = exp_pow2(ln_amp - centre * centre / 4.0 + (sr * sr - si * si) / 2.0
                       + 0.5 * LN_TWO_PI)
    f = np.where(amp != 0, f, 0.0)
    pieces = (np.abs(ln_amp) + centre * centre / 4.0
              + (np.abs(centre) / 2.0 + tau * np.abs(rows)) ** 2
              + (np.abs(modulation) + np.abs(cols)) ** 2)
    terms = np.stack([f * np.exp(1j * (sr * si + np.angle(amp))),
                      f * (EPS * (ROUNDING_C + LN_BASE + 2.0 * pieces))])
    mant, exps = sum_rows(terms.reshape(-1, len(amp)),
                          np.broadcast_to(bits, terms.shape).reshape(-1, len(amp)))
    shape = (2, rows.size, cols.size)
    return _entries(mant.reshape(shape), exps.reshape(shape), np.ndim(m) == np.ndim(k) == 0)


class _Lineage:
    """The callback quadrature's state, shared by a table and every table grown
    from it with ``base=``: f on the grid x_n = n H0 / 2^level (NaN where not
    sampled yet), and each row's (R_m, S_m, tail)."""

    def __init__(self):
        self.level, self.lo, self.values = 0, 0, np.full(1, np.nan, dtype=complex)
        self.rows: dict[int, tuple[float, float, float]] = {}

    def fetch(self, signal: SignalModel, lo: int, hi: int, j: int) -> np.ndarray:
        """f at x_n = n H0 / 2^j, lo <= n <= hi: the nodes not stored yet are
        sampled in one eval_signal call; where it refuses a sample, nothing of
        that call is stored."""
        level, top = max(j, self.level), self.lo + len(self.values) - 1
        up, step = 2 ** (level - self.level), 2 ** (level - j)
        first, last = min(lo * step, self.lo * up), max(hi * step, top * up)
        if (level, first, last) != (self.level, self.lo, top):  # re-key by striding, or extend
            store = np.full(last - first + 1, np.nan, dtype=complex)
            store[self.lo * up - first: top * up - first + 1: up] = self.values
            self.level, self.lo, self.values = level, first, store
        view = self.values[lo * step - self.lo: hi * step - self.lo + 1: step]
        missing = np.flatnonzero(np.isnan(view))
        if len(missing):
            view[missing] = eval_signal(signal, (lo + missing) * (H0 / 2 ** j))
        return view

    def window(self, signal: SignalModel, row: int, tau: float) -> tuple[float, float, float]:
        """Row m's (R_m, S_m, tail), set up on level 0 once per lineage: a
        half-width R_m whose envelope tail is below eps S_m, the window's
        S_m = H0 sum_n |f(x_n)| exp(-(x_n - x0)^2/4) and the tail's log.
        The envelope is checked at the window's ends."""
        if row not in self.rows:
            ln_c, alpha = signal.envelope_ln()
            x0 = -2.0 * tau * row

            def level0(ln_target: float) -> tuple[float, float, float]:
                r = 2.0 * alpha + 2.0 * math.sqrt(
                    max(1.0, alpha * alpha + ln_c + alpha * abs(x0) + LN_FOUR - ln_target))
                lo, hi = math.ceil((x0 - r) / H0), math.floor((x0 + r) / H0)
                xs, f = np.arange(lo, hi + 1) * H0, self.fetch(signal, lo, hi, 0)
                for x, observed in zip(xs[[0, -1]].tolist(), np.abs(f[[0, -1]]).tolist()):
                    allowed = 10.0 * math.exp(ln_c + alpha * abs(x))
                    if observed > allowed:
                        raise InvalidParameterError(
                            f"callback exceeds its declared envelope at x={x:.6g}: "
                            f"|f| = {observed:.3e} > {allowed:.3e}")
                s_m = H0 * float(np.sum(np.abs(f * np.exp(-(xs - x0) ** 2 / 4.0))))
                return r, s_m, ln_c + alpha * (abs(x0) + r) - r * r / 4.0 + LN_FOUR

            r, s_m, tail_ln = level0(ln_c + LN_EPS)
            if s_m > 0 and tail_ln > LN_EPS + math.log(s_m):  # f is far below its envelope here
                r, s_m, tail_ln = level0(LN_EPS + math.log(s_m))  # S_m only grows with r
            self.rows[row] = r, s_m, tail_ln
        return self.rows[row]


def _level_sums(signal: SignalModel, lineage: _Lineage, j: int, x0: np.ndarray, r: np.ndarray,
                cols: np.ndarray) -> np.ndarray:
    """(len(x0), len(cols)) trapezoid sums h sum_n e^{-ik x_n} f(x_n) e^{-(x_n - x0)^2/4}
    on level j, h = H0 / 2^j, over each row's window [x0 - r, x0 + r].

    Rows whose windows overlap share one fetch and the phases e^{-ikx}, made in
    chunks of columns of at most BLOCK_ELEMENTS elements (one column where a run
    is longer).  Each entry is one np.sum over its own window's products, so its
    bits do not depend on its run or its chunk."""
    h = H0 / 2 ** j
    lo, hi = np.ceil((x0 - r) / h).astype(np.int64), np.floor((x0 + r) / h).astype(np.int64)
    runs = []  # runs of overlapping windows, cut where their span would pass BLOCK_ELEMENTS
    for a, b, i in sorted(zip(lo.tolist(), hi.tolist(), range(len(lo)))):
        if runs and a <= reach + 1 and max(reach, b) - first < BLOCK_ELEMENTS:
            runs[-1].append(i)
            reach = max(reach, b)
        else:
            runs.append([i])
            first, reach = a, b
    est = np.empty((len(x0), len(cols)), dtype=complex)
    for run in runs:
        first, last = int(lo[run].min()), int(hi[run].max())
        f, xs = lineage.fetch(signal, first, last, j), np.arange(first, last + 1) * h
        w = [slice(lo[i] - first, hi[i] - first + 1) for i in run]
        g = [f[w_i] * np.exp(-(xs[w_i] - x0[i]) ** 2 / 4.0) for i, w_i in zip(run, w)]
        chunk = max(1, BLOCK_ELEMENTS // len(xs))
        for c in range(0, len(cols), chunk):
            phases = np.exp(-1j * np.outer(cols[c: c + chunk], xs))
            for i, w_i, g_i in zip(run, w, g):
                est[i, c: c + chunk] = h * np.sum(phases[:, w_i] * g_i, axis=1)
    return est


def gamma_quadrature(
    m: int | tuple[int, ...],
    k: int | tuple[int, ...],
    signal: SignalModel,
    tau: float,
    lineage: _Lineage | None = None,
):
    """gamma_{m,k} by trapezoid sums on one shared grid, with absolute error bounds.

    For int ``m`` and ``k``, ``(value, abs_err)`` as ScaledValues; for
    tuples of rows and columns, ``(mantissa, exponent)`` arrays of shape
    (2, len(m), len(k)) holding [0] the values and [1] their bounds.  An
    entry depends only on (m, k, signal, tau), never on its block.
    ``lineage`` (from :func:`forward_table`) keeps the samples and row
    windows of the calls before it for this signal and tau, so each node is
    sampled and each row's window derived once across them.

    With exp(-tau m x - x^2/4) = e^{tau^2 m^2} exp(-(x - x0)^2/4) and
    x0 = -2 tau m, row m sums the nodes in [x0 - R_m, x0 + R_m] of the
    grid x_n = n H0 / 2^j (each sampled once per lineage; n H0 / 2^j and
    k x_n are exact), the scale e^{tau^2 m^2} kept in the exponent.  R_m
    is widened from the envelope metadata until the envelope's tail is
    below eps S_m, with S_m = H0 sum_n |f(x_n)| exp(-(x_n - x0)^2/4) on
    level 0.  Entry (m, k) starts at the coarsest level resolving e^{-ikx}
    and halves the spacing, reusing every sample, until successive sums
    agree to QUAD_TOL or to 1e-15 S_m; an analytic, Gaussian-windowed
    integrand converges geometrically, so usually at the first halving.
    Agreement is no proof: content of f at frequency nu = k +- 2 pi / h_{j+1}
    aliases identically into levels j and j+1 (nu = k +- 50.27 for the columns
    |k| <= 5, which start at level 0), so such an entry stops at a wrong value
    with a small bound, and nothing in the envelope metadata flags it.
    The levels run over the whole block: level j sums every row with an
    entry left there, with one fetch and one e^{-ikx} per run of
    overlapping windows.  An entry that reaches MAX_REFINEMENTS
    halvings raises NonConvergenceError naming the first such row, in row
    order, at the first level where any entry does.  With S = e^{tau^2 m^2} S_m,

        abs_err = max(QUAD_TOL * |value|, ROUNDING_C * eps * S)
                  + eps (2 tau^2 m^2 + LN_BASE) |value|.

    The second term of the max is the roundoff floor of summing
    double-precision samples: where oscillation cancels |gamma| far below
    S, no double-precision rule meets QUAD_TOL relative, and the bound
    says so.  The last term covers the rounding of the scale's exponent.
    A row whose samples all vanish keeps only its tail bound.
    """
    rows, cols, tau = check_indices(m), check_indices(k), check_real("tau", tau)
    lineage = lineage or _Lineage()
    signal = check_type("signal", signal, SignalModel)
    vanishes = signal.envelope_ln()[0] == -math.inf  # f = 0: no window, no sample
    windows = [(0.0, 0.0, -math.inf) if vanishes else lineage.window(signal, row, tau)
               for row in rows.tolist()]
    r, s, tail_ln = np.array(windows).reshape(-1, 3).T
    x0 = -2.0 * tau * rows
    # coarsest level j with H0 / 2^j <= pi / (2 (|k| + 1))
    start = np.maximum(0, np.ceil(np.log2(2.0 * H0 * (np.abs(cols) + 1) / math.pi))).astype(int)
    value, prev = np.zeros((2, len(rows), len(cols)), dtype=complex)
    todo = np.repeat((s > 0)[:, None], len(cols), axis=1)  # a row whose samples vanish keeps 0
    for j in range(start.min(), start.max() + MAX_REFINEMENTS + 1):
        live = todo & (start <= j)
        act = np.flatnonzero(live.any(axis=1))
        if len(act):
            cut = np.flatnonzero(live.any(axis=0))
            est = np.zeros((len(act), len(cols)), dtype=complex)
            est[:, cut] = _level_sums(signal, lineage, j, x0[act], r[act], cols[cut])
            done = todo[act] & (start < j) & (
                np.abs(est - prev[act]) <= QUAD_TOL * np.abs(est) + 1e-15 * s[act, None])
            i, c = np.nonzero(done)
            value[act[i], c], todo[act[i], c], prev[act] = est[i, c], False, est
        if not todo.any():
            break
        capped = np.flatnonzero((todo[act] & (j - start >= MAX_REFINEMENTS)).any(axis=1))
        if len(capped):  # the first row, in row order, at the first level any entry is capped
            row = act[capped[0]]
            raise NonConvergenceError(
                "gamma_quadrature: spacing refinement cap reached",
                diagnostics={"m": int(rows[row]), "k": cols[todo[row]].tolist(), "level": j})
    # added to a row's scale: 0, the tail if its samples vanish, -inf if f = 0
    ln_tail = np.where(s > 0, 0.0, tail_ln)
    ln_scale, vanished = tau * tau * rows * rows, (s == 0)[:, None]
    err = np.where(vanished, 1.0,
                   np.maximum(QUAD_TOL * np.abs(value), ROUNDING_C * EPS * s[:, None])
                   + EPS * (2.0 * ln_scale[:, None] + LN_BASE) * np.abs(value))
    # each row's scale as f 2**bits; f = 0 scales every row to 0
    f, bits = exp_pow2(np.where(vanishes, 0.0, ln_scale + ln_tail))
    row_scale = np.where(vanishes, 0.0, np.ldexp(f, bits % BASE_LOG2))[:, None]
    mant, exps = normalise_array(np.stack([value, err]) * row_scale, (bits // BASE_LOG2)[:, None])
    return _entries(mant, exps, np.ndim(m) == np.ndim(k) == 0)


def _column(payload: dict, key: str, kinds: str, size: int) -> np.ndarray:
    """One payload column as a 1-d array of ``size`` finite numbers of a
    dtype kind in ``kinds``."""
    col = as_array(payload[key])
    if (col.ndim != 1 or col.dtype.kind not in kinds or len(col) != size
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
    ``built_for`` is then the ``(signal, tau)`` the entries were
    computed for, and None for a payload table.  A callback table computed
    here also carries the quadrature's samples and row windows (private),
    shared with the tables grown from it by ``base=``; a payload table none.
    """

    _lineage: _Lineage | None = None

    def __init__(self, M: int, K: int, tau: float, mantissa, exponent,
                 errors: "GammaTable | None" = None, built_for: tuple | None = None):
        check_counts("M and K", M, K)
        self.M, self.K, self.tau, self.built_for = M, K, check_real("tau", tau), built_for
        mant, exps, size = as_array(mantissa), as_array(exponent), (2 * M + 1) * (2 * K + 1)
        if not (mant.size == exps.size == size and mant.dtype.kind in "iufc"
                and exps.dtype.kind in "iu" and np.isfinite(mant).all()):
            raise InvalidParameterError(f"a table needs (2M+1)(2K+1) = {size} finite mantissas "
                                        f"and integer exponents")
        self.mantissa = mant.astype(complex).reshape(2 * M + 1, 2 * K + 1)
        self.exponent = exps.astype(np.int64).reshape(2 * M + 1, 2 * K + 1)
        self.mantissa.setflags(write=False)
        self.exponent.setflags(write=False)
        self.errors = errors

    def get(self, m: int, k: int) -> ScaledValue:
        check_counts("m and k", m, k, least=-math.inf)
        if abs(m) > self.M or abs(k) > self.K:
            raise InvalidParameterError(
                f"(m={m}, k={k}) outside table extents M={self.M}, K={self.K}")
        i, j = m + self.M, k + self.K
        return ScaledValue(complex(self.mantissa[i, j]), int(self.exponent[i, j]))

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
        """Inverse of :meth:`to_payload`: a dict of exactly its five columns.  The
        entries may come in any order, but every (m, k) of the table exactly once;
        anything else is refused."""
        check_counts("M and K", M, K)
        columns = {"m", "k", "mantissa_re", "mantissa_im", "exponent"}
        if not (isinstance(payload, dict) and payload.keys() == columns):
            got = list(payload) if isinstance(payload, dict) else type(payload).__name__
            raise InvalidParameterError(f"payload must be a dict of exactly the columns "
                                        f"{sorted(columns)}, got {got!r:.80}")
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
        return ((self.M, self.K, self.tau) == (other.M, other.K, other.tau)
                and np.array_equal(self.mantissa, other.mantissa)
                and np.array_equal(self.exponent, other.exponent))


def forward_table(
    signal: SignalModel,
    tau: float,
    M: int,
    K: int,
    base: GammaTable | None = None,
) -> GammaTable:
    """Fill the full coefficient table, closed form where available.

    Every entry's absolute error bound is kept in ``table.errors``: the
    rounding bound of the closed form, or the bound returned by
    :func:`gamma_quadrature`.  The entries that ``base`` holds are copied
    with their bounds, not computed again; ``base`` must have been built
    here for the same signal and tau (a table read from a payload
    carries no bounds and is refused too).  The entries left form at most
    two rectangles, the rows and the columns beyond ``base``; for a
    callback, each is one block call of :func:`gamma_quadrature`, which
    reuses the samples and row windows that ``base`` carries.
    """
    check_counts("M and K", M, K)
    if (2 * M + 1) * (2 * K + 1) > MAX_GRID_POINTS:  # guard before allocating anything
        raise InvalidParameterError(f"M={M!r:.40}, K={K!r:.40} exceed the desk-scale guard: "
                                    f"(2M+1)(2K+1) > {MAX_GRID_POINTS} entries")
    signal, tau = check_type("signal", signal, SignalModel), check_real("tau", tau, 0.0)
    built_for = (signal, tau)
    if base is not None and base.built_for != built_for:
        raise InvalidParameterError(
            "base table was built for another signal or tau, or read from a payload")
    # [0] the values, [1] their error bounds
    mant = np.zeros((2, 2 * M + 1, 2 * K + 1), dtype=complex)
    exps = np.zeros(mant.shape, dtype=np.int64)
    bM = bK = -1
    if base is not None:
        bM, bK = min(M, base.M), min(K, base.K)
        new = np.s_[:, M - bM: M + bM + 1, K - bK: K + bK + 1]
        old = np.s_[base.M - bM: base.M + bM + 1, base.K - bK: base.K + bK + 1]
        mant[new] = base.mantissa[old], base.errors.mantissa[old]
        exps[new] = base.exponent[old], base.errors.exponent[old]
    lineage = None if signal.kind == GAUSSIAN_FAMILY else (
        getattr(base, "_lineage", None) or _Lineage())
    ms, ks = np.arange(-M, M + 1), np.arange(-K, K + 1)
    old_m, old_k = np.abs(ms) <= bM, np.abs(ks) <= bK
    for in_rows, in_cols in ((~old_m, np.ones(len(ks), dtype=bool)), (old_m, ~old_k)):
        if not (in_rows.any() and in_cols.any()):
            continue
        rows, cols = tuple(ms[in_rows].tolist()), tuple(ks[in_cols].tolist())
        if signal.kind == GAUSSIAN_FAMILY:
            block = gamma_closed_form(rows, cols, signal, tau)
        else:
            block = gamma_quadrature(rows, cols, signal, tau, lineage)
        index = (slice(None),) + np.ix_(in_rows, in_cols)
        mant[index], exps[index] = block
    table = GammaTable(M, K, tau, mant[0], exps[0], errors=GammaTable(M, K, tau, mant[1], exps[1]),
                       built_for=built_for)
    table._lineage = lineage
    return table
