"""Reconstruction of a signal from its lattice coefficient table.

The one-step inversion evaluated here is

    f(x) = C0 * e^{x^2/4} * sum_m E_m(tau) e^{m tau x}
                              * sum_k gamma_{m,k} e^{i k x}

with C0 = 1/(2 pi); :func:`calibrate_constant` re-derives C0 from a
round trip so the constant is pinned by the code, not by trust.  The
exterior sum converges only for tau < pi, and the module refuses to
run outside that regime.

There is one evaluation path, :func:`reconstruct_point`, for a point, an
array and a grid alike.  It takes E_{-M..M} from one :func:`coeff_E` call and
holds the used block of E_m gamma_{m,k} as complex128 mantissas times an
exact power of two per row.  It sums at anchors a plus offsets d, as a cell's
weight e^{(m tau + ik)(a + d)} splits into an anchor part and an offset part:
the offset parts are made once per call, and each block of anchors costs one
matrix product and one exact power-of-two shift per anchor, from bounds on
the rows.  A grid is anchors every O points and offsets step * (0..O-1), O at
most sqrt(points) within BLOCK_ELEMENTS and OFFSET_REACH.  The exponents stay
integers (a rounded float logarithm of them would cost digits where the
exterior sum cancels).  A call gives the same bits every time, but a grid's
value at x and the single-point value there come from different splits of x
and may differ at the rounding level.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import (BLOCK_ELEMENTS, MAX_GRID_POINTS, InvalidParameterError, NonConvergenceError,
                     RegimeError, SaturationError, check_counts, check_points, check_real,
                     check_type)
from .qtheta import SUBCRITICAL, LatticeParams, coeff_E, nome_from_tau
from .scaled import BASE_LOG2, exp_pow2, ldexp_array, ln_abs, masked_max
from .signals import GammaTable, SignalModel, eval_signal, forward_table

#: global normalisation of the reconstruction formula (see calibrate_constant)
RECONSTRUCTION_CONSTANT = 1.0 / (2.0 * math.pi)

MAX_M = 64
MAX_K = 4096
#: the most an offset d moves a row's weight e^{m tau d} from its anchor's, in ln
OFFSET_REACH = 64.0


@dataclass(frozen=True)
class ReconConfig:
    """Target accuracy, evaluation grid and truncation policy."""

    tol: float = 1e-8
    grid: tuple[float, float, float] = (-3.0, 3.0, 0.05)  # (x_min, x_max, step)
    truncation: tuple[int, int] | None = None  # explicit (M, K) or None for automatic

    def __post_init__(self):
        check_real("tol", self.tol, 0.0, 1.0)
        _grid(self.grid)
        if self.truncation is not None:
            try:
                M, K = self.truncation
            except (TypeError, ValueError):
                raise InvalidParameterError(f"bad truncation {self.truncation!r:.40}") from None
            check_counts("truncation orders", M, K)


@dataclass
class ReconReport:
    """Grid reconstruction output plus error metrics against a reference.

    abs_error is |rec - ref| at each point, rounded as abs(complex) rounds it;
    sup_error is its max over sup|ref| and l2_error its l2 norm over that of
    ref, so l2_error <= sup_error * sqrt(len(xs)) always holds.  All three are
    None without a reference.  tail_estimate is the (dimensionless) weight of
    the outermost retained ring relative to the dominant term.
    """

    xs: np.ndarray
    reconstructed: np.ndarray
    reference: np.ndarray | None
    abs_error: np.ndarray | None
    sup_error: float | None
    l2_error: float | None
    M_used: int
    K_used: int
    tail_estimate: float
    elapsed: float


@dataclass(frozen=True)
class TruncationChoice:
    """Orders (M, K), the tail estimate there and the table up to (M, K)."""

    M: int
    K: int
    tail_estimate: float
    table: GammaTable


def _grid(grid) -> tuple[float, float, float]:
    """(x_min, x_max, step) as floats: finite ends and a positive step."""
    try:
        x_min, x_max, step = grid
    except (TypeError, ValueError):
        raise InvalidParameterError(f"bad grid {grid!r:.40}: need (x_min, x_max, step)") from None
    return (check_real("grid start", x_min), check_real("grid end", x_max),
            check_real("grid step", step, 0.0))


def grid_points(grid: tuple[float, float, float]) -> np.ndarray:
    """Deterministic grid x_min, x_min + step, ...; empty when x_min > x_max."""
    x_min, x_max, step = _grid(grid)
    if x_min > x_max:
        return np.empty(0, dtype=float)
    span = (x_max - x_min) / step + 1e-9  # may be inf: guard before converting or allocating
    if span >= MAX_GRID_POINTS:
        raise InvalidParameterError(
            f"grid with {span + 1:.6g} points exceeds the desk-scale guard ({MAX_GRID_POINTS})")
    return x_min + step * np.arange(math.floor(span) + 1, dtype=float)


def _require_subcritical(params: LatticeParams):
    if check_type("params", params, LatticeParams).regime != SUBCRITICAL:
        raise RegimeError(f"reconstruction requires tau < pi (subcritical lattice); "
                          f"tau = {params.tau:.12g} is {params.regime}")


def _phases(x: np.ndarray, K: int) -> np.ndarray:
    """The (2K+1, points) phases e^{ikx}, k = -K..K; those of k < 0 conjugate k > 0."""
    kx = np.multiply.outer(np.arange(K + 1, dtype=float), x)
    half = np.cos(kx) + 1j * np.sin(kx)
    return np.concatenate([half[:0:-1].conj(), half])


def inner_fourier_sum(rows: np.ndarray, x, K: int) -> np.ndarray:
    """sum_{k=-K}^{K} gamma_{m,k} e^{ikx} for each row of a complex
    (rows, 2K+1) array and each point of a 1-d array x: the (rows, points)
    array of sums, one matrix product with the phases e^{ikx}."""
    check_counts("K", K)
    if np.shape(rows)[-1:] != (2 * K + 1,):
        raise InvalidParameterError(f"rows must hold 2K+1 = {2 * K + 1} entries each")
    return rows @ _phases(check_points(x, "x", real=True)[0], K)


def reconstruct_point(x, table: GammaTable, params: LatticeParams, M: int, K: int, offsets=None):
    """Evaluate the reconstruction at a point (complex) or an array of points
    (complex array); with ``offsets``, a 1-d array of reals d, at every x + d
    (the complex (points, offsets) array).

    The rows E_m gamma_{m,k} e^{ikd} and weights e^{m tau d} are made once;
    for each block of anchors x (no array past BLOCK_ELEMENTS) one matrix product
    (:func:`inner_fourier_sum`) gives the interior sums, and row m is weighted
    by e^{m tau d} e^{m tau x} times an exact power of two per anchor from bounds
    on the rows.  Offsets past M tau |d| <= OFFSET_REACH are refused, so every
    term stays a normal double; SaturationError where the value leaves it.
    """
    _require_subcritical(params)
    check_type("table", table, GammaTable)
    check_counts("M and K", M, K)
    xs, scalar = check_points(x, "x", real=True)
    ds = np.zeros(1) if offsets is None else check_points(offsets, "offsets", real=True)[0]
    if (offsets is not None and np.ndim(offsets) != 1
            or M * params.tau * np.abs(ds).max(initial=0) > OFFSET_REACH):
        raise InvalidParameterError(f"offsets must be 1-d reals with M tau |d| <= {OFFSET_REACH:g}")
    if M > table.M or K > table.K:
        raise InvalidParameterError(f"requested truncation (M={M}, K={K}) exceeds table "
                                    f"extents (M={table.M}, K={table.K})")
    used = np.s_[table.M - M: table.M + M + 1, table.K - K: table.K + K + 1]
    mant, exps = table.mantissa[used], table.exponent[used]
    row_exps = masked_max(exps, mant != 0, axis=1)  # each row at its largest exponent
    e_mant, e_exps = coeff_E(np.arange(-M, M + 1), params)
    block = ldexp_array(mant, (exps - row_exps[:, None]) * BASE_LOG2) * e_mant[:, None]
    _, top = np.frexp(np.abs(block).max(axis=1))
    block = ldexp_array(block, -top[:, None])  # row maxima in [1/2, 1)
    row_bits, live = ((row_exps + e_exps) * BASE_LOG2 + top)[:, None], block.any(axis=1)[:, None]
    m_tau = params.tau * np.arange(-M, M + 1, dtype=float)
    rows = (block * np.ascontiguousarray(_phases(ds, K).T)[:, None, :]).reshape(-1, 2 * K + 1)
    offset_weight = np.exp(np.multiply.outer(m_tau, ds))  # e^{+-OFFSET_REACH} at most
    out = np.empty((len(xs), len(ds)), dtype=complex)
    per_block = max(1, BLOCK_ELEMENTS // max(len(rows), 2 * K + 1))
    for start in range(0, len(xs), per_block):
        xa = xs[start: start + per_block]
        weight, bits = exp_pow2(np.multiply.outer(m_tau, xa))
        shift = masked_max(bits + row_bits, live, axis=0)
        weight = np.ldexp(np.where(live, weight, 0.0), bits + row_bits - shift)
        inner = inner_fourier_sum(rows, xa, K).reshape(len(ds), 2 * M + 1, len(xa))
        # the exterior sums over m in turn: weights scale a row's sum, not its cells
        total = np.einsum("oma,mo,ma->ao", inner, offset_weight, weight)
        points = xa[:, None] + ds
        gauss, gauss_bits = exp_pow2(points * points / 4.0)
        out[start: start + len(xa)] = ldexp_array(
            RECONSTRUCTION_CONSTANT * gauss * total, shift[:, None] + gauss_bits)
    if not np.all(np.isfinite(out)):
        raise SaturationError("reconstructed value exceeds double range")
    if offsets is not None:
        return out
    return complex(out[0, 0]) if scalar else out.reshape(np.shape(x))


# --------------------------------------------------------------- truncation


def _tail_ln(cells: np.ndarray, tau: float, x_max: float) -> float:
    """ln of the weighted boundary of a block of cells relative to its largest
    cell, with the e^{M tau x_max} reach of the target grid on the outer rows;
    -inf for an all-zero block."""
    scale = cells.max()
    if scale == -math.inf:
        return -math.inf
    M = (len(cells) - 1) // 2
    return max(cells[[0, -1]].max() + M * tau * x_max, cells[:, [0, -1]].max()) - scale


def _tail(cells: np.ndarray, tau: float, x_max: float) -> float:
    """e^{_tail_ln}; SaturationError where that leaves the double range."""
    try:
        return math.exp(_tail_ln(cells, tau, x_max))
    except OverflowError:
        raise SaturationError(f"tail estimate exceeds double range on |x| <= {x_max:.6g}") from None


def _truncate(cells, tau: float, x_max: float, tol: float, M_cap: int,
              K_cap: int) -> tuple[int, int, float, bool]:
    """The truncation growth loop, within the caps on M and K.

    ``cells(M, K, reach)`` returns the (2M+1, 2K+1) block of cell magnitudes
    ln|E_m| + ln|gamma_{m,k}|; it is asked for growing blocks, and last for
    the chosen one, with ``reach`` the guard ring (M+1, K+2) of the asked
    block clipped to the caps, or the chosen (M, K) on the last call.  As M
    and K only grow and the guard ring is added at the end, the chosen block
    contains every reach (the guard-ring rule; an all-zero first block ends
    the loop before the ring).  The base estimate takes the subcritical decay rate
    eps = tau(pi - tau) of the weighted terms and picks the smallest M with
    exp(-eps M^2) < tol/10.
    Because that rate is a worst-case envelope, the estimate is then
    verified against the weighted boundary ring and grown until the ring
    drops below tol; K is extended the same way column-wise.  One guard
    ring is added at the end, clipped to the caps.  Returns (M, K), the
    tail estimate there, and whether the boundary met tol before the guard
    ring (it cannot when the caps stop the growth).
    """
    def ring(M: int, K: int) -> tuple[int, int]:
        return min(M + 1, M_cap), min(K + 2, K_cap)

    eps = tau * (math.pi - tau)
    M = min(max(1, math.ceil(math.sqrt(math.log(10.0 / tol) / eps))), M_cap)
    K = min(2, K_cap)
    ln_tol = math.log(tol)
    block = cells(M, K, ring(M, K))
    # terminates: every pass that does not break grows M or K, both capped
    while True:
        scale = block.max()
        if scale == -math.inf:  # identically zero signal
            return M, K, 0.0, True
        grew = False
        while K < K_cap and block[:, [0, -1]].max() >= ln_tol + scale:
            K += 1
            block = cells(M, K, ring(M, K))
            grew = True
        while M < M_cap and block[[0, -1]].max() + M * tau * x_max >= ln_tol + scale:
            M += 1
            block = cells(M, K, ring(M, K))
            grew = True
        if not grew:
            break
    converged = _tail_ln(block, tau, x_max) < ln_tol
    M, K = ring(M, K)
    return M, K, _tail(cells(M, K, (M, K)), tau, x_max), converged


def auto_truncation(
    signal: SignalModel,
    params: LatticeParams,
    tol: float,
    x_max: float = 0.0,
) -> TruncationChoice:
    """Choose truncation orders (M, K) for a target relative accuracy on
    |x| <= x_max, and return the table at exactly those orders.

    Runs the growth loop of :func:`_truncate` over the signal's own
    coefficients up to the hard caps MAX_M, MAX_K, and refuses when the
    weighted tail is still above tol there; ln|E_m| comes from one
    :func:`~gaborlattice.qtheta.coeff_E` call over |m| <= MAX_M.  The
    table grows in guard-ring steps: a block it does not hold makes it grow
    straight to that step's ``reach`` (one :func:`forward_table` call with
    ``base=``), and the steps up to there are slices of its cells.  So each
    entry of ``choice.table`` is computed once and no other entry is, except
    the guard ring of an all-zero first block, cut off before returning.
    """
    _require_subcritical(params)
    tol, x_max = check_real("tol", tol, 0.0, 1.0), check_real("x_max", x_max, 0.0, closed=True)
    coeffs_ln = ln_abs(*coeff_E(np.arange(-MAX_M, MAX_M + 1), params))
    table = held = None

    def cells(M: int, K: int, reach: tuple[int, int]) -> np.ndarray:
        nonlocal table, held
        if table is None or M > table.M or K > table.K:
            table = forward_table(signal, params.tau, *reach, base=table)
            held = (coeffs_ln[MAX_M - table.M: MAX_M + table.M + 1, None]
                    + ln_abs(table.mantissa, table.exponent))
        return held[table.M - M: table.M + M + 1, table.K - K: table.K + K + 1]

    M, K, tail, converged = _truncate(cells, params.tau, x_max, tol, MAX_M, MAX_K)
    if not converged:
        raise NonConvergenceError(
            "auto_truncation: weighted tail still above tol at the hard caps",
            diagnostics={"M": M, "K": K, "tail_ln": math.log(tail)},
        )
    if (table.M, table.K) != (M, K):  # an all-zero first block: cut the guard ring off
        table = forward_table(signal, params.tau, M, K, base=table)
    return TruncationChoice(M, K, tail, table)


# --------------------------------------------------------------- grid driver


def reconstruct_grid(
    config: ReconConfig,
    table: GammaTable,
    params: LatticeParams,
    reference: SignalModel | None = None,
) -> ReconReport:
    """Evaluate the reconstruction on a grid and report errors.

    The whole grid goes through :func:`reconstruct_point` as one array.
    Without an explicit truncation, (M, K) is chosen inside the table by
    the growth loop of :func:`auto_truncation`, guard ring included,
    clipped to the table's extents (a table that is too small yields a
    larger tail_estimate, not an error); tail_estimate is always measured
    at the (M, K) actually used.  The cells the loop weighs come from the
    table's mantissa and exponent arrays in one block.

    Wide-grid caveat: far beyond |x| ~ pi the result is O(g(x)) while
    the weighted terms are O(g(x mod 2pi)), so the exterior sum cancels
    many digits deep and its truncation must reach far below the
    largest cell, which tail_estimate does not measure.  For the unit
    Gaussian at tau = 1 with automatic truncation on [-12, 12] the error
    relative to sup|f| reaches 83.6 at x = -12, while tail_estimate reads
    2.6e-18 at (M, K) = (6, 9).  ROADMAP §18 (recentring every point) is
    the planned remedy.
    """
    start = time.perf_counter()
    _require_subcritical(params)
    check_type("config", config, ReconConfig)
    check_type("table", table, GammaTable)
    if reference is not None:
        check_type("reference", reference, SignalModel)
    if abs(table.tau - params.tau) > 1e-12 * max(1.0, abs(params.tau)):
        raise InvalidParameterError(
            f"table tau {table.tau!r} does not match params tau {params.tau!r}")
    xs = grid_points(config.grid)
    x_reach = float(np.max(np.abs(xs))) if len(xs) else 0.0

    M_cap, K_cap = config.truncation or (table.M, table.K)
    if M_cap > table.M or K_cap > table.K:
        raise InvalidParameterError(
            f"explicit truncation (M={M_cap}, K={K_cap}) exceeds table extents")
    used = np.s_[table.M - M_cap: table.M + M_cap + 1, table.K - K_cap: table.K + K_cap + 1]
    block = (ln_abs(*coeff_E(np.arange(-M_cap, M_cap + 1), params))[:, None]
             + ln_abs(table.mantissa[used], table.exponent[used]))
    if config.truncation is not None:
        M, K, tail = M_cap, K_cap, _tail(block, params.tau, x_reach)
    else:
        M, K, tail, _ = _truncate(
            lambda M, K, reach: block[M_cap - M: M_cap + M + 1, K_cap - K: K_cap + K + 1],
            params.tau, x_reach, config.tol, M_cap, K_cap)

    # anchors at every O-th point (the last block ends the grid), offsets step * o
    offsets = _grid(config.grid)[2] * np.arange(max(1, min(
        math.isqrt(len(xs)), BLOCK_ELEMENTS // ((2 * M + 1) * (2 * K + 1)))))
    O = int(np.searchsorted(M * params.tau * offsets, OFFSET_REACH, side="right"))
    J, r = divmod(len(xs), O)
    anchors = xs[list(range(0, J * O, O)) + [len(xs) - O] * (r > 0)]
    values = reconstruct_point(anchors, table, params, M, K, offsets[:O]).reshape(-1)
    values[J * O: len(xs)] = values[len(values) - r:]  # the last r points, in place
    rec = values[:len(xs)]

    ref_values = abs_error = sup_error = l2_error = None
    if reference is not None:
        ref_values = eval_signal(reference, xs)
        # |rec - ref| by parts, rounded as abs(complex) rounds (np.abs on arrays need not)
        abs_error = np.hypot(rec.real - ref_values.real, rec.imag - ref_values.imag)
        sup_diff, sup_ref = (float(np.max(v, initial=0.0)) for v in (abs_error, np.abs(ref_values)))
        l2_diff, l2_ref = float(np.linalg.norm(abs_error)), float(np.linalg.norm(ref_values))
        sup_error = sup_diff / sup_ref if sup_ref > 0 else sup_diff
        l2_error = l2_diff / l2_ref if l2_ref > 0 else l2_diff

    return ReconReport(
        xs=xs,
        reconstructed=rec,
        reference=ref_values,
        abs_error=abs_error,
        sup_error=sup_error,
        l2_error=l2_error,
        M_used=M,
        K_used=K,
        tail_estimate=tail,
        elapsed=time.perf_counter() - start,
    )


def round_trip(
    signal: SignalModel,
    tau: float,
    config: ReconConfig | None = None,
    threads: int = 1,
) -> ReconReport:
    """Forward transform a known signal and reconstruct it on the grid.

    The primary end-to-end correctness check: truncation is chosen by
    :func:`auto_truncation` (unless the config pins it), whose table is
    the one reconstructed from, and the report carries the errors against
    the original signal.  ``threads`` is accepted and ignored: the
    computation runs in one thread.
    """
    check_counts("threads", threads)
    params = nome_from_tau(tau)
    config = ReconConfig() if config is None else check_type("config", config, ReconConfig)
    if config.truncation is not None:
        table = forward_table(signal, params.tau, *config.truncation)
    else:
        xs = grid_points(config.grid)
        x_reach = float(np.max(np.abs(xs))) if len(xs) else 0.0
        table = auto_truncation(signal, params, config.tol, x_max=x_reach).table
    pinned = ReconConfig(tol=config.tol, grid=config.grid, truncation=(table.M, table.K))
    return reconstruct_grid(pinned, table, params, reference=signal)


def calibrate_constant() -> float:
    """Fit the global constant C0 from one tight round trip.

    Reconstructs the unit Gaussian at x = 0 from its tau = 1 table at
    (M, K) = (8, 16) with the constant left out and solves f(0) = C0 * raw
    for C0.  The shipped RECONSTRUCTION_CONSTANT must equal the fitted
    value (1/(2 pi)) to ~1e-8 relative; the acceptance suite asserts
    exactly that.
    """
    params = nome_from_tau(1.0)
    signal = SignalModel.gaussian([(1.0, 0.0, 0.0)])
    table = forward_table(signal, params.tau, 8, 16)
    raw = reconstruct_point(0.0, table, params, 8, 16) / RECONSTRUCTION_CONSTANT
    return (eval_signal(signal, 0.0) / raw).real
