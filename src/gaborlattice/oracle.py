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
  residual-alpha check.
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

from .errors import DomainError, InvalidParameterError, NonConvergenceError
from .qtheta import (
    SUPERCRITICAL,
    LatticeParams,
    SeriesControl,
    theta_prime_lattice,
    theta_series_scaled,
)
from .scaled import ScaledValue
from .signals import SignalModel, windowed_sample_scaled

_DEFAULT_CTRL = SeriesControl()


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

    def validate(self, params: LatticeParams):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InvalidParameterError(f"radius must be positive, got {self.radius!r}")
        if self.nodes < 64 or self.nodes & (self.nodes - 1):
            raise InvalidParameterError("nodes must be a power of two >= 64")
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
    return ContourSpec(radius=math.exp(-0.5 * params.ln_q), nodes=nodes)


def _sum_aliased(signal: SignalModel, x: float, weight_ln, weight_value,
                 ctrl: SeriesControl, label: str) -> ScaledValue:
    """Two-sided sum over j of g(x + 2 pi j) * w^j in scaled arithmetic.

    ``weight_ln(j)`` is log|w^j|; ``weight_value(j)`` builds the scaled
    weight.  Termination is driven by the declared signal envelope: a
    side stops once its envelope bound drops below abs_tol relative to
    the best bound seen and is past its peak.  The envelope is
    log-concave in j per side, so that test is safe for oscillating
    callbacks whose actual samples may vanish.
    """
    ln_c, alpha = signal.envelope_ln()
    if ln_c == -math.inf:  # identically zero signal
        return ScaledValue.zero()
    ln_tol = math.log(ctrl.abs_tol)

    def env_ln(j: int) -> float:
        X = x + 2.0 * math.pi * j
        return ln_c + alpha * abs(X) - X * X / 4.0 + weight_ln(j)

    def term(j: int) -> ScaledValue:
        return windowed_sample_scaled(signal, x + 2.0 * math.pi * j) * weight_value(j)

    total = term(0)
    best_env = env_ln(0)
    sides = {+1: [0, True, best_env], -1: [0, True, best_env]}  # j, active, prev_env
    count = 0
    while sides[+1][1] or sides[-1][1]:
        for direction in (+1, -1):
            j_cur, active, prev_env = sides[direction]
            if not active:
                continue
            j_next = j_cur + direction
            total = total + term(j_next)
            env = env_ln(j_next)
            best_env = max(best_env, env)
            if abs(j_next) >= ctrl.min_terms and env < prev_env and env < ln_tol + best_env:
                active = False
            sides[direction] = [j_next, active, env]
        count += 1
        if count > ctrl.max_terms:
            raise NonConvergenceError(
                f"{label}: aliased sum did not terminate within {ctrl.max_terms} "
                "terms per side",
                diagnostics={"x": x},
            )
    return total


def spatial_A(m: int, x: float, signal: SignalModel, params: LatticeParams,
              ctrl: SeriesControl = _DEFAULT_CTRL) -> ScaledValue:
    """A_m(x) = sum_j g(x + 2 pi j) q^{m j} with g = (1/2pi) f e^{-x^2/4}."""
    if params.regime == SUPERCRITICAL and abs(m) > 8:
        raise InvalidParameterError(
            "spatial sums with large |m| diverge in the supercritical regime"
        )
    ln_q = params.ln_q
    return _sum_aliased(
        signal, x,
        weight_ln=lambda j: m * j * ln_q,
        weight_value=lambda j: ScaledValue.from_pow(params.q, m * j),
        ctrl=ctrl, label="spatial_A",
    )


def G_series(z, x: float, signal: SignalModel, params: LatticeParams,
             ctrl: SeriesControl = _DEFAULT_CTRL) -> ScaledValue:
    """G_x(z) = sum_j g(x + 2 pi j) z^j.

    The Gaussian window beats any geometric factor, so the sum
    converges for every z != 0; within |log|z|| <= 2 pi^2 the term
    magnitudes also stay far inside the scaled range.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("G is defined on C \\ {0}")
    ln_abs_z = math.log(abs(z))
    return _sum_aliased(
        signal, x,
        weight_ln=lambda j: j * ln_abs_z,
        weight_value=lambda j: ScaledValue.from_pow(z, j),
        ctrl=ctrl, label="G_series",
    )


def lagrange_interpolant(
    z,
    samples: Sequence[tuple[int, ScaledValue]],
    params: LatticeParams,
    ctrl: SeriesControl = _DEFAULT_CTRL,
) -> ScaledValue:
    """Cardinal-function interpolant through the lattice samples:

        sum_n A_n * Theta(z; q) / ((z - q^n) Theta'(q^n; q)).

    The node derivatives come from the verified
    :func:`~gaborlattice.qtheta.theta_prime_lattice` reference (the
    printed closed-form prefactor would inherit its sign/exponent slip).
    Exactly at a node the analytic limit A_n is returned; within a 5%
    relative distance of a node (but not on it) evaluation refuses.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("interpolant is defined on C \\ {0}")
    q = params.q
    ordered = sorted(samples, key=lambda item: item[0])

    # node-collision handling
    for n, a_n in ordered:
        node = ScaledValue.from_pow(q, n)
        node_c = node.to_complex()
        rel = abs(z - node_c) / max(abs(z), abs(node_c))
        if rel <= 1e-12:
            return a_n if isinstance(a_n, ScaledValue) else ScaledValue.from_complex(a_n)
        if rel < 0.05:
            raise DomainError(
                f"z is within 5% of the interpolation node q^{n}; "
                "evaluate exactly on the node or farther away"
            )

    theta_z = theta_series_scaled(z, q, ctrl)
    total = ScaledValue.zero()
    for n, a_n in ordered:
        if not isinstance(a_n, ScaledValue):
            a_n = ScaledValue.from_complex(a_n)
        denom = (ScaledValue.from_complex(z) - ScaledValue.from_pow(q, n)) * \
            theta_prime_lattice(n, q, ctrl)
        total = total + a_n / denom
    return theta_z * total


def laurent_c0(
    m: int,
    params: LatticeParams,
    contour: ContourSpec | None = None,
    ctrl: SeriesControl = _DEFAULT_CTRL,
) -> complex:
    """z^0 Laurent coefficient of Theta(z;q) / ((z - q^m) Theta'(q^m;q))
    by an averaged contour integral -- the definitional oracle for coeff_E.

    The function is holomorphic on C \\ {0} (the pole at q^m is killed
    by the theta zero), so the coefficient is the same on every circle;
    the default is the balanced circle |z| = q^{-1/2}, the one radius
    where the extraction stays well conditioned for all m.  Averaging N
    uniform samples is exact up to modes +-N, +-2N, ..., whose weight
    decays like q^{N^2/2}.
    """
    contour = contour or balanced_contour(params)
    contour.validate(params)
    q = params.q
    pole = ScaledValue.from_pow(q, m)
    deriv = theta_prime_lattice(m, q, ctrl)
    total = ScaledValue.zero()
    n = contour.nodes
    for t in range(n):
        angle = 2.0 * math.pi * t / n
        z = contour.radius * complex(math.cos(angle), math.sin(angle))
        value = theta_series_scaled(z, q, ctrl) / (
            (ScaledValue.from_complex(z) - pole) * deriv
        )
        total = total + value
    return (total / n).to_complex()


G_OVER_THETA = "G_over_theta"
GTILDE_OVER_THETA = "Gtilde_over_theta"
RESIDUAL_ALPHA = "residual_alpha"

_TRACE_ANGLES = 64


def mk_trace(
    kind: str,
    k_range: Sequence[int],
    x: float,
    signal: SignalModel,
    params: LatticeParams,
    ctrl: SeriesControl = _DEFAULT_CTRL,
    sample_extent: int | None = None,
) -> list[tuple[int, float]]:
    """Circle maxima max_{|z| = q^{k+1/2}} |Phi(z)| for each k.

    kind selects Phi: the quotient G_x/Theta, the interpolant quotient
    Gtilde_x/Theta (the theta factor cancels against the cardinal
    functions), or the normalised interpolation residual
    |G_x - Gtilde_x| / |Theta|.  Maxima are over 64 uniform angles --
    the traced functions vary on O(1) angular scales, so that
    resolution is enough for the documented trend thresholds.

    ``sample_extent`` is the interpolant's node range N; by default the
    automatic truncation order for the signal plus 2 guard terms.
    """
    if params.regime == SUPERCRITICAL:
        raise InvalidParameterError("circle traces require tau <= pi")
    if kind not in (G_OVER_THETA, GTILDE_OVER_THETA, RESIDUAL_ALPHA):
        raise InvalidParameterError(f"unknown trace kind {kind!r}")
    q = params.q

    samples = None
    if kind in (GTILDE_OVER_THETA, RESIDUAL_ALPHA):
        if sample_extent is None:
            from .recon import auto_truncation

            reach = abs(x) + 0.0
            sample_extent = auto_truncation(signal, params, 1e-10, x_max=reach).M + 2
        samples = [
            (n, spatial_A(n, x, signal, params, ctrl))
            for n in range(-sample_extent, sample_extent + 1)
        ]
        derivs = {n: theta_prime_lattice(n, q, ctrl) for n, _ in samples}

    trace: list[tuple[int, float]] = []
    for k in k_range:
        radius = math.exp((k + 0.5) * params.ln_q)
        best = -math.inf
        for t in range(_TRACE_ANGLES):
            angle = 2.0 * math.pi * t / _TRACE_ANGLES
            z = radius * complex(math.cos(angle), math.sin(angle))
            if kind == G_OVER_THETA:
                value = G_series(z, x, signal, params, ctrl) / \
                    theta_series_scaled(z, q, ctrl)
            else:
                total = ScaledValue.zero()
                for n, a_n in samples:
                    denom = (ScaledValue.from_complex(z) - ScaledValue.from_pow(q, n)) \
                        * derivs[n]
                    total = total + a_n / denom
                value = total
            if kind == RESIDUAL_ALPHA:
                theta_z = theta_series_scaled(z, q, ctrl)
                value = (G_series(z, x, signal, params, ctrl) - theta_z * total) / theta_z
            best = max(best, value.ln_abs())
        trace.append((k, math.exp(best) if best > -math.inf else 0.0))
    return trace
