"""Independent numerical oracles for the identities the reconstruction
rests on.

None of these share a code path with the fast routes they check:

* :func:`spatial_A` sums the spatially aliased signal
  A_m(x) = sum_j g(x + 2 pi j) q^{m j},  g = (1/2pi) f e^{-x^2/4},
  which the interior Fourier sums must reproduce up to one global
  constant (4 pi^2 -- the consistency tests pin it).
* :func:`G_series` extends A_m off the lattice,
  G_x(z) = sum_j g(x + 2 pi j) z^j, so G_x(q^m) = A_m(x).
* :func:`lagrange_interpolant` rebuilds G_x from its lattice samples
  with theta cardinal functions; agreement off the nodes is the
  residual-alpha check.  :func:`cardinal_on_circles` gives its cardinal
  sums on uniform circles by FFT.
* :func:`laurent_c0` extracts the z^0 Laurent coefficient of the
  cardinal function by an averaged contour integral -- the definitional
  oracle for coeff_E.
* :func:`mk_trace` samples the circle maxima that organise the
  convergence argument, for diagnostic trend checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DomainError, InvalidParameterError, NonConvergenceError, as_array,
                     check_circles, check_counts, check_indices, check_points, check_real,
                     check_type)
from .qtheta import (MAX_LATTICE_INDEX, MAX_TERMS, MIN_TERMS, SERIES_TOL, SUPERCRITICAL,
                     LatticeParams, theta_on_circles, theta_prime_lattice, theta_series_scaled)
from .recon import auto_truncation
from .scaled import (BASE_LOG2, exact_power, exp_pow2, laurent_on_circles, ln_abs, ln_split,
                     log2_split, normalise_array, pack, sub_arrays, sum_rows, to_complex)
from .signals import SignalModel, windowed_sample_scaled


@dataclass(frozen=True)
class ContourSpec:
    """Circle |z| = radius sampled at ``nodes`` uniform angles.

    nodes must be a power of two >= 64 (the trapezoid rule on uniform
    angles extracts Fourier coefficients exactly up to aliasing, which
    decays super-geometrically in nodes here).  The radius must keep a
    relative distance of at least 0.1 from every theta zero q^n.
    """

    radius: float
    nodes: int = 128

    def __post_init__(self):
        check_real("radius", self.radius, 0.0)
        check_counts("nodes", self.nodes, least=64)
        if self.nodes & (self.nodes - 1):
            raise InvalidParameterError("nodes must be a power of two >= 64")

    def validate(self, params: LatticeParams):
        n_near = round(math.log(self.radius) / params.ln_q)
        for n in (n_near - 1, n_near, n_near + 1):
            zero = math.exp(n * params.ln_q)
            if abs(self.radius - zero) < 0.1 * self.radius:
                raise InvalidParameterError(
                    f"radius {self.radius:.6g} is within 10% of the theta zero q^{n}"
                )


def balanced_contour(params: LatticeParams, nodes: int = 128) -> ContourSpec:
    """The circle |z| = q^{-1/2}, where the Laurent modes of every
    cardinal function fall off symmetrically (like q^{l^2/2}), making
    the z^0 extraction well conditioned for every m."""
    ln_q = check_type("params", params, LatticeParams).ln_q
    return ContourSpec(radius=math.exp(-0.5 * ln_q), nodes=nodes)


def _aliased_terms(signal: SignalModel, x: float, w_split: tuple,
                   label: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of sum_j g(x + 2 pi j) w^j at each w = 2**e r > 0, w_split = (e, ln r)
    (scaled.log2_split): (j, mant, bits), the term with w^j being mant * 2**bits.

    Termination is driven by the declared signal envelope: for each w, j
    runs at least MIN_TERMS per side and one term past the last whose
    envelope bound is within SERIES_TOL of that w's largest (other columns are
    zeros).  The envelope is log-concave in j per side, so this is safe for
    oscillating callbacks whose samples may vanish.  Each g(x + 2 pi j) is
    sampled once per call.
    """
    ln_c, alpha = check_type("signal", signal, SignalModel).envelope_ln()
    if ln_c == -math.inf:  # identically zero signal
        return (np.zeros(1, dtype=np.int64), np.zeros((len(w_split[0]), 1), dtype=complex),
                np.zeros((len(w_split[0]), 1), dtype=np.int64))
    e_w, lnr_w = w_split[0][:, None], w_split[1][:, None]
    ln_w = e_w * math.log(2.0) + lnr_w
    reach = MIN_TERMS
    while True:
        j = np.arange(-reach, reach + 1)
        X = x + 2.0 * math.pi * j
        env = ln_c + alpha * np.abs(X) - X * X / 4.0 + j * ln_w
        keep = env >= env.max(axis=1, keepdims=True) + math.log(SERIES_TOL)
        # the window is wide enough once both edges are dropped and fall away outward
        if not (keep[:, [0, -1]].any() or np.any(env[:, [0, -1]] >= env[:, [1, -2]])):
            break
        if reach >= MAX_TERMS:
            raise NonConvergenceError(f"{label}: aliased sum did not terminate within "
                                      f"{MAX_TERMS} terms per side", diagnostics={"x": x})
        reach = min(2 * reach, MAX_TERMS)
    lo = np.minimum(j[np.argmax(keep, axis=1)] - 1, -MIN_TERMS)[:, None]
    hi = np.maximum(j[::-1][np.argmax(keep[:, ::-1], axis=1)] + 1, MIN_TERMS)[:, None]
    j = np.arange(lo.min(initial=0), hi.max(initial=0) + 1)
    g_mant, g_exps = windowed_sample_scaled(signal, x + 2.0 * math.pi * j)
    f, bits = exp_pow2(j * lnr_w)
    return j, np.where((j >= lo) & (j <= hi), g_mant * f, 0.0), g_exps * BASE_LOG2 + bits + j * e_w


def _sum_aliased(signal: SignalModel, xs, w_split: tuple, arg_w: np.ndarray,
                 label: str) -> tuple[np.ndarray, np.ndarray]:
    """The _aliased_terms sums at w = 2**e r e^{i arg_w} for each x of xs: one sum_rows."""
    parts = [_aliased_terms(signal, x, w_split, label) for x in xs]
    first = min(j[0] for j, _, _ in parts)
    width = max(j[-1] for j, _, _ in parts) + 1 - first
    mant, bits = (np.zeros((len(parts), len(arg_w), width), dtype=t) for t in (complex, np.int64))
    for i, (j, m, b) in enumerate(parts):
        mant[i][:, j - first], bits[i][:, j - first] = m * np.exp(1j * j * arg_w[:, None]), b
    return sum_rows(mant.reshape(-1, width), bits.reshape(-1, width))


def spatial_A(m, x, signal: SignalModel, params: LatticeParams):
    """A_m(x) = sum_j g(x + 2 pi j) q^{m j} with g = (1/2pi) f e^{-x^2/4}: a
    ScaledValue for an integer m and a float x, (mantissa, exponent) arrays for an
    array of m, and (x, m) arrays for a 1-d array of x."""
    ms, (xs, scalar) = check_indices(m), check_points(x, "x", real=True)
    params = check_type("params", params, LatticeParams)
    if params.regime == SUPERCRITICAL and np.any(np.abs(ms) > 8):
        raise InvalidParameterError("spatial sums with |m| > 8 diverge when tau is supercritical")
    e_q, lnr_q = log2_split(params.q)
    mant, exps = _sum_aliased(signal, xs.tolist(), (ms * e_q, ms * lnr_q), np.zeros(len(ms)),
                              "spatial_A")
    if not scalar:
        return mant.reshape(-1, len(ms)), exps.reshape(-1, len(ms))
    return pack(mant, exps, np.ndim(m) == 0)


def G_series(z, x: float, signal: SignalModel):
    """G_x(z) = sum_j g(x + 2 pi j) z^j: a ScaledValue for a scalar z,
    (mantissa, exponent) arrays for a 1-d array of z.

    The Gaussian window beats any geometric factor, so the sum converges
    for every z != 0.
    """
    zs, scalar = check_points(z, "z")
    return pack(*_sum_aliased(signal, [check_real("x", x)], log2_split(np.abs(zs)), np.angle(zs),
                              "G_series"), scalar)


def G_on_circles(radii, x: float, signal: SignalModel, count: int,
                 offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """G_x at z = r e^{2 pi i (t + offset) / count}, t = 0 .. count-1, for each r of
    ``radii``, circle after circle: one scaled.laurent_on_circles FFT per circle."""
    radii, offset = check_circles(radii, count, offset)
    return laurent_on_circles(*_aliased_terms(signal, check_real("x", x), log2_split(radii),
                                              "G_series"), count, offset)


def _lattice_nodes(ns, q: float) -> tuple[np.ndarray, np.ndarray]:
    """q^n for each node n as normalised arrays (the gaps z - q^n are then
    one sub_arrays((z, 0), nodes) call)."""
    f, bits = exact_power(ln_split(q), ns)
    return sum_rows(f[:, None], bits[:, None])


def cardinal_weights(ns, samples: tuple, q: float):
    """w_n = A_n / Theta'(q^n; q) for each node n of ``ns``, ``samples`` the (mantissa,
    exponent) arrays of A_n as spatial_A(ns, ...) gives them; the derivatives in one call."""
    d_mant, d_exps = theta_prime_lattice(ns, q)
    return normalise_array(samples[0] / d_mant, samples[1] - d_exps)


def cardinal_on_circles(radii, ns, weights: tuple, q: float, count: int,
                        offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """sum_n w_n / (z - q^n) at z = r e^{2 pi i (t + offset) / count}, t = 0 .. count-1, for
    each r of ``radii``, circle after circle; ``weights`` are w_n at the nodes ``ns``.

    Each 1/(z - q^n) is its geometric Laurent series on |z| = r, sum_l q^{nl} z^{-l-1} for a
    node inside the circle, -sum_l z^l q^{-n(l+1)} outside, cut where its tail falls below
    SERIES_TOL of its largest term (NonConvergenceError past MAX_TERMS terms); past count terms
    it folds onto the first count with the factor 1 / (1 - rho^count e^{-+2 pi i offset}), as
    z^count is the same at every sample point.  The terms are summed power by power (sum_rows)
    and taken through one laurent_on_circles FFT per circle: a circle alone is its block row.
    """
    radii, offset = check_circles(radii, count, offset)
    ns = check_indices(ns)
    if not np.shape(weights[0]) == np.shape(weights[1]) == ns.shape != (0,):
        raise InvalidParameterError("give one weight per node")
    if len(radii) == 0:
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=np.int64)
    e_q, hi_q, lo_q = ln_split(q)
    e_r, lnr = (part[:, None, None] for part in log2_split(radii))
    # ln(q^n / r) for each (circle, node): negative for a node inside the circle
    ln_ratio = ns * (e_q * math.log(2.0) + hi_q + lo_q) - (e_r * math.log(2.0) + lnr)[:, 0]
    inside, ln_rho = ln_ratio < 0, -np.abs(ln_ratio)
    with np.errstate(divide="ignore"):  # a node on the circle needs inf terms
        length = np.ceil((math.log(SERIES_TOL) + np.log1p(-np.exp(ln_rho))) / ln_rho)
    if not np.all(length <= MAX_TERMS):
        raise NonConvergenceError(f"cardinal_on_circles: a series passes {MAX_TERMS} terms")
    fold = np.where(length > count, 1.0 / (1.0 - np.exp(
        count * ln_rho + 2j * math.pi * offset * np.where(inside, -1, 1))), 1.0)[:, None]
    length = np.clip(length, 1, count).astype(np.int64)
    power = np.arange(-np.max(length * inside), np.max(length * ~inside))
    # the term with z^power of node n at z = r: +-w_n q^{-n(power+1)} r^power, where its
    # index l is -power-1 inside the circle and power outside
    l, pairs = np.where(power < 0, -power - 1, power)[:, None], -ns * (power[:, None] + 1)
    live = (inside[:, None] == (power < 0)[:, None]) & (l < length[:, None])
    f, bits = exact_power((e_q, hi_q, lo_q), pairs, (e_r, lnr), power[:, None])
    bits += weights[1] * BASE_LOG2
    terms = np.where(live, np.where(power < 0, 1.0, -1.0)[:, None] * weights[0] * fold * f, 0.0)
    mant, exps = sum_rows(terms.reshape(-1, len(ns)), bits.reshape(-1, len(ns)))
    return laurent_on_circles(power, mant.reshape(len(radii), -1),
                              exps.reshape(len(radii), -1) * BASE_LOG2, count, offset)


def lagrange_interpolant(z, ns, samples: tuple, params: LatticeParams):
    """Cardinal-function interpolant through the lattice samples A_n at the nodes n of
    ``ns``, ``samples`` their (mantissa, exponent) arrays as spatial_A(ns, ...) gives them:

        sum_n A_n * Theta(z; q) / ((z - q^n) Theta'(q^n; q)).

    A ScaledValue for a scalar z, (mantissa, exponent) arrays for a 1-d
    array of z; the sum is a (z, n) matrix, its columns in the order of ns.
    The node derivatives come from the verified
    :func:`~gaborlattice.qtheta.theta_prime_lattice` reference (the
    printed closed-form prefactor would inherit its sign/exponent slip).
    Exactly at a node the analytic limit A_n is returned; within a 5%
    relative distance of a node it is not on, evaluation refuses.
    """
    zs, scalar = check_points(z, "z")
    q, ns = check_type("params", params, LatticeParams).q, check_indices(ns)
    a_mant = as_array(samples[0])  # numbers, zeros too, each finite
    if a_mant.dtype.kind not in "iufc":
        raise InvalidParameterError(f"sample mantissas must be numbers, got {samples[0]!r:.40}")
    if not np.isfinite(a_mant).all():
        raise DomainError(f"sample mantissas must be finite, got {samples[0]!r:.40}")
    a_mant, a_exps = normalise_array(a_mant.astype(complex).reshape(-1), check_indices(samples[1]))
    if len(a_mant) != len(ns):
        raise InvalidParameterError("give one sample per node index")
    node = [part[None, :] for part in _lattice_nodes(ns, q)]
    diff = sub_arrays((zs[:, None], 0), node)
    # relative distance |z - q^n| / max(|z|, q^n)
    size = np.maximum(np.log(np.abs(zs))[:, None], ln_abs(*node))
    rel = np.exp(ln_abs(*diff) - size)
    on_node = rel <= 1e-12
    if np.any((rel < 0.05) & ~on_node):
        raise DomainError("z is within 5% of an interpolation node q^n; "
                          "evaluate exactly on the node or farther away")
    node = np.argmax(on_node, axis=1)  # the node a row sits on, if any
    mant, exps = a_mant[node], a_exps[node]
    off = ~on_node.any(axis=1)
    if off.any():
        t_mant, t_exps = theta_series_scaled(zs[off], q)
        weights = cardinal_weights(ns, (a_mant, a_exps), q)
        s_mant, s_exps = sum_rows(weights[0] / diff[0][off],
                                  (weights[1] - diff[1][off]) * BASE_LOG2)
        mant[off], exps[off] = normalise_array(t_mant * s_mant, t_exps + s_exps)
    return pack(mant, exps, scalar)


def laurent_c0(m, params: LatticeParams,
               contour: ContourSpec | Sequence[ContourSpec] | None = None):
    """z^0 Laurent coefficient of Theta(z;q) / ((z - q^m) Theta'(q^m;q))
    by an averaged contour integral -- the definitional oracle for coeff_E;
    a complex for an int m, a complex array for an array of m.

    The function is holomorphic on C \\ {0} (the pole at q^m is killed
    by the theta zero), so the coefficient is the same on every circle;
    the default is the balanced circle |z| = q^{-1/2}, the one radius
    where the extraction stays well conditioned for all m.  Averaging N
    uniform samples is exact up to modes +-N, +-2N, ..., whose weight
    decays like q^{N^2/2}.

    ``contour`` is one circle for every m, or a sequence of circles with
    the same number of nodes, one per element of the array m.  Theta comes
    from one FFT per distinct circle (qtheta.theta_on_circles), and each
    coefficient is the same bits as a call with its m and circle alone.
    Every circle is validated first.
    """
    q, ms = check_type("params", params, LatticeParams).q, check_indices(m, MAX_LATTICE_INDEX)
    single = contour is None or isinstance(contour, ContourSpec)
    if not single and (np.ndim(m) == 0 or len(contour) != len(ms)):
        raise InvalidParameterError("give one contour, or one per element of the array m")
    contours = [c or balanced_contour(params) for c in ([contour] if single else contour)]
    circles = list(dict.fromkeys(contours))  # distinct, in order
    width = circles[0].nodes
    if any(c.nodes != width for c in circles):
        raise InvalidParameterError("the contours of one call need the same number of nodes")
    for c in circles:
        c.validate(params)
    angles = np.exp(2j * math.pi * np.arange(width) / width)
    zs = np.concatenate([c.radius * angles for c in circles])
    t_mant, t_exps = theta_on_circles([c.radius for c in circles], q, width)
    which = np.zeros(len(ms), dtype=np.int64) if single else \
        np.array([circles.index(c) for c in contours], dtype=np.int64)
    at = which[:, None] * width + np.arange(width)  # row i: the nodes of m_i's circle
    w_mant, w_exps = cardinal_weights(ms, (np.ones(1), np.zeros(1, dtype=np.int64)), q)
    node = _lattice_nodes(ms, q)
    d_mant, d_exps = sub_arrays((zs[at], 0), (node[0][:, None], node[1][:, None]))
    total = sum_rows(t_mant[at] * (w_mant[:, None] / d_mant),
                     (t_exps[at] + w_exps[:, None] - d_exps) * BASE_LOG2)
    c0 = to_complex((total[0] / width, total[1]))
    return complex(c0[0]) if np.ndim(m) == 0 else c0


G_OVER_THETA = "G_over_theta"
GTILDE_OVER_THETA = "Gtilde_over_theta"
RESIDUAL_ALPHA = "residual_alpha"
TRACE_KINDS = (G_OVER_THETA, GTILDE_OVER_THETA, RESIDUAL_ALPHA)

#: angles per circle of a trace
_TRACE_ANGLES = 64


def mk_trace(
    kind: str | Sequence[str],
    k_range: Sequence[int],
    x: float,
    signal: SignalModel,
    params: LatticeParams,
    weights: tuple | None = None,
):
    """Circle maxima max_{|z| = q^{k+1/2}} |Phi(z)| for each k, as a list
    of (k, maximum).

    kind selects Phi: the quotient G_x/Theta, the interpolant quotient
    Gtilde_x/Theta (the theta factor cancels against the cardinal
    functions), or the normalised interpolation residual
    |G_x - Gtilde_x| / |Theta|.  Maxima are over 64 uniform angles --
    the traced functions vary on O(1) angular scales, so that
    resolution is enough for the documented trend thresholds.  Where
    Theta comes out 0, the kinds that divide by it have maximum inf.

    A sequence of kinds is traced in one pass and gives a dict kind ->
    trace: G_x, Theta and the cardinal sums come from one FFT per circle
    (G_on_circles, qtheta.theta_on_circles, cardinal_on_circles), and each
    circle's maximum is the same bits as its own call.

    ``weights`` are the interpolant's cardinal_weights at the 2N + 1 nodes
    -N .. N, mantissa and exponent arrays of that odd length, which sets its node
    range N; by default N is the automatic truncation order for the signal plus 2 guard terms.
    """
    kinds = [kind] if isinstance(kind, str) else list(kind)
    if check_type("params", params, LatticeParams).regime == SUPERCRITICAL:
        raise InvalidParameterError("circle traces require tau <= pi")
    if weights is not None and np.size(weights[0]) % 2 == 0:
        raise InvalidParameterError("give the weights at an odd number of nodes, -N .. N")
    for name in kinds:
        if name not in TRACE_KINDS:
            raise InvalidParameterError(f"unknown trace kind {name!r}")
    quotient = G_OVER_THETA in kinds or RESIDUAL_ALPHA in kinds
    cardinal = GTILDE_OVER_THETA in kinds or RESIDUAL_ALPHA in kinds
    q, ks, x = params.q, check_indices(k_range).tolist(), check_real("x", x)
    radii = np.exp((np.array(ks, dtype=float) + 0.5) * params.ln_q)
    ln = {}  # ln|Phi| at each point, for each kind
    if quotient:
        g = G_on_circles(radii, x, signal, _TRACE_ANGLES)
        theta = theta_on_circles(radii, q, _TRACE_ANGLES)
        zero = theta[0] == 0
        divisor = np.where(zero, 1.0, theta[0])
        ln[G_OVER_THETA] = np.where(zero, np.inf, ln_abs(g[0] / divisor, g[1] - theta[1]))
    if cardinal:
        if weights is None:
            extent = auto_truncation(signal, params, 1e-10, x_max=abs(x)).M + 2
            ns = np.arange(-extent, extent + 1)
            weights = cardinal_weights(ns, spatial_A(ns, x, signal, params), q)
        ns = np.arange(len(weights[0])) - len(weights[0]) // 2  # the nodes -N .. N
        total = cardinal_on_circles(radii, ns, weights, q, _TRACE_ANGLES)
        ln[GTILDE_OVER_THETA] = ln_abs(*total)
    if RESIDUAL_ALPHA in kinds:
        gap = sub_arrays(g, normalise_array(theta[0] * total[0], theta[1] + total[1]))
        ln[RESIDUAL_ALPHA] = np.where(zero, np.inf, ln_abs(gap[0] / divisor, gap[1] - theta[1]))
    traces = {name: list(zip(ks, np.exp(ln[name].reshape(-1, _TRACE_ANGLES).max(1)).tolist()))
              for name in kinds}
    return traces[kind] if isinstance(kind, str) else traces
