"""Named verification suites behind the ``verify`` command.

Each suite runs a fixed set of identity checks and returns structured
records (name, measured residual, threshold, pass flag, note); the CLI
serialises them to JSON.  Thresholds are pinned here, not configurable:
they are the acceptance levels of the artifact.

The two adjudication checks double as documentation: they record which
closed-form candidate (lattice derivative, coefficient exponent)
matches the independent reference and by how much the other one misses.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidParameterError, check_type
from .oracle import (
    TRACE_KINDS,
    ContourSpec,
    G_OVER_THETA,
    GTILDE_OVER_THETA,
    RESIDUAL_ALPHA,
    G_on_circles,
    G_series,
    balanced_contour,
    cardinal_on_circles,
    cardinal_weights,
    lagrange_interpolant,
    laurent_c0,
    mk_trace,
    spatial_A,
)
from .qtheta import (
    SUPERCRITICAL,
    LatticeParams,
    coeff_E,
    eta,
    lattice_derivative_candidate,
    ln_eta,
    nome_from_tau,
    theta_on_circles,
    theta_prime_lattice,
    theta_product,
    theta_series_scaled,
)
from .scaled import (BASE_LOG2, exact_power, exp_pow2, ldexp_array, ln_split, log2_split,
                     normalise_array, sub_arrays, to_complex)
from .signals import GammaTable, SignalModel, forward_table
from .recon import TruncationChoice, auto_truncation, inner_fourier_sum

SUITES = ("theta", "coeffs", "poisson", "interpolation", "all")
#: the point x at which the interpolation suite samples G_x
_INTERPOLATION_X = 0.3


@dataclass
class CheckRecord:
    name: str
    residual: float
    threshold: float
    passed: bool
    note: str = ""

    def __post_init__(self):  # numpy scalars would not serialise to JSON
        self.residual, self.passed = float(self.residual), bool(self.passed)


@dataclass
class SuiteReport:
    suite: str
    tau: float
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_payload(self) -> dict:
        """The report as JSON data; a non-finite residual or threshold is None
        (null), so the CLI's report is RFC 8259 JSON."""
        return {
            "suite": self.suite,
            "tau": self.tau,
            "passed": self.passed,
            "checks": [{**asdict(c), "residual": _finite(c.residual),
                        "threshold": _finite(c.threshold)} for c in self.checks],
        }


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _record(checks: list, name: str, residual: float, threshold: float, note: str = ""):
    checks.append(CheckRecord(name, residual, threshold, residual <= threshold, note))


def _default_signal() -> SignalModel:
    return SignalModel.gaussian([(1.0, 0.0, 0.0)])


def _is_zero_signal(signal: SignalModel) -> bool:
    return signal.envelope_ln()[0] == -math.inf


# --------------------------------------------------------------------- theta


def _circles(powers, ln_q: float, count: int, offset: float = 0.0):
    """The radii q^power, and count uniform points at angles 2 pi (t + offset) / count
    on each circle |z| = q^power, circle after circle."""
    radii = np.exp(np.asarray(powers, dtype=float) * ln_q)
    angles = np.exp(2j * math.pi * (np.arange(count) + offset) / count)
    return radii, (radii[:, None] * angles).ravel()


def _over_eta(theta: tuple, zs: np.ndarray, q: float) -> np.ndarray:
    """|Theta| / eta(z) for Theta at zs as (mantissa, exponent) arrays, eta taken
    in log form: neither side has to fit the double range, only the ratio."""
    f, bits = exp_pow2(-ln_eta(zs, q))
    return np.ldexp(np.abs(theta[0]) * f, theta[1] * BASE_LOG2 + bits)


def theta_suite(params: LatticeParams) -> list[CheckRecord]:
    """The theta identities at the nome of ``params``; only the printed-candidate
    adjudication sits at its own (n=1, q=0.1)."""
    checks: list[CheckRecord] = []
    q = params.q
    # product vs series on the circles |z| = q^{1/2}, 1, q^{-1/2}
    radii, zs = _circles([0.5, 0.0, -0.5], params.ln_q, 32, 0.5)
    ts, tp = to_complex(theta_on_circles(radii, q, 32, 0.5)), theta_product(zs, q)
    _record(checks, "triple_product_identity", np.max(np.abs(ts - tp) / (1.0 + np.abs(ts))), 1e-12,
            "|z| in {sqrt(q), 1, 1/sqrt(q)}, 32 angles, at the given tau")

    # The five pointwise checks below take Theta from one theta_series_scaled call over
    # all their points, split per check: a row's sum depends on no other row.  Each
    # seeded check draws its points as rows, in the stream's order.
    rng = np.random.default_rng(2026)
    power, angle = rng.uniform([-0.5, 0.0], [0.5, 2.0 * math.pi], (100, 2)).T
    z_step = q ** power * np.exp(1j * angle)
    angle, power = rng.uniform([0.0, -0.5], [2.0 * math.pi, 0.5], (20, 2)).T
    z_iter, n = q ** power * np.exp(1j * angle), np.arange(-6, 7)
    re, im = rng.uniform(-2.0, 2.0, (20, 2)).T
    z_conj = np.where((re == 0) & (im == 0), 1.0, re + 1j * im)
    zeros, ns = q ** np.arange(-5.0, 6.0), np.arange(-4, 5)
    h = q ** ns * 1e-3
    points = [np.concatenate([q * z_step, z_step]),
              np.concatenate([z_iter, (q ** n * z_iter[:, None]).ravel()]),
              np.concatenate([z_conj.conjugate(), z_conj]), zeros,
              (q ** ns + np.outer([1.0, -1.0, 0.5, -0.5], h)).ravel()]
    mant, exps = theta_series_scaled(np.concatenate(points), q)
    at = np.cumsum([len(p) for p in points])[:-1]
    step, iterated, conj, on_zeros, fd_values = zip(np.split(mant, at), np.split(exps, at))

    # one-step quasi-periodicity at 100 seeded random points.  Residuals
    # are measured against the envelope scale eta: near q -> 1 (and near
    # the zeros) |Theta| sits a dozen orders below its own series terms,
    # so a pointwise-relative comparison would test conditioning rather
    # than the identity.  eta is the natural yardstick for that.
    lhs, ts = to_complex(step).reshape(2, -1)
    scale = eta(q * z_step, q) + eta(z_step, q) / np.abs(z_step)
    _record(checks, "one_step_quasi_periodicity", np.max(np.abs(lhs + ts / z_step) / scale), 1e-12,
            "100 seeded random z at the given tau, residual relative to the eta envelope")

    # iterated quasi-periodicity Theta(q^n z) = factor * Theta(z), factor = (-z)^{-n}
    # q^{-n(n-1)/2}, Theta in scaled arithmetic and compared in the frame of z: since
    # eta(q^n z) = |factor| eta(z), |Theta(q^n z) / factor - Theta(z)| / (eta(z) + |Theta(z)|)
    # is the eta-relative residual at q^n z.  1/factor = (-z/|z|)^n |z|^n q^{n(n-1)/2} comes
    # from scaled.exact_power, as the theta series' terms do: it never leaves the double range.
    z, (mant, exps) = z_iter, iterated
    theta_z = mant[:len(z), None], exps[:len(z), None]
    z_split = tuple(part[:, None] for part in log2_split(np.abs(z)))
    f, bits = exact_power(ln_split(q), n * (n - 1) // 2, z_split, n)
    phase = np.exp(1j * n * np.angle(-z)[:, None])
    quotient = normalise_array(
        ldexp_array(mant[len(z):].reshape(-1, len(n)) * f * phase, bits % BASE_LOG2),
        exps[len(z):].reshape(-1, len(n)) + bits // BASE_LOG2)
    scale = eta(z, q)[:, None] + np.abs(to_complex(theta_z))
    _record(checks, "iterated_quasi_periodicity",
            np.max(np.abs(to_complex(sub_arrays(quotient, theta_z))) / scale), 1e-10,
            "n in [-6, 6], 20 seeded random z at the given tau, eta-relative")

    # conjugation symmetry
    a, b = to_complex(conj).reshape(2, -1)
    _record(checks, "conjugation_symmetry",
            np.max(np.abs(a - b.conjugate()) / np.maximum(np.abs(b), 1e-300)), 1e-13, "")

    # zero set at this tau
    _record(checks, "lattice_zero_set", np.max(_over_eta(on_zeros, zeros, q)),
            1e-10, "n in [-5, 5] at the given tau")

    # derivative contract + adjudication of the closed-form candidates
    ref = theta_prime_lattice(ns, q)
    ref_c = to_complex(ref)
    # independent estimate: Richardson-extrapolated central differences
    up, down, up2, down2 = to_complex(fd_values).reshape(4, -1)
    fd = (4.0 * (up2 - down2) / h - (up - down) / (2 * h)) / 3.0
    _record(checks, "lattice_derivative_vs_finite_difference",
            np.max(np.abs(ref_c - fd) / np.abs(ref_c)), 1e-6,
            "Richardson-extrapolated central differences, n in [-4, 4] at the given tau")
    corr = lattice_derivative_candidate(ns, q)
    _record(checks, "lattice_derivative_corrected_candidate",
            np.max(np.abs(to_complex(sub_arrays(ref, corr))) / np.abs(ref_c)), 1e-10,
            "(-1)^n q^{-n(n+1)/2} Theta'(1;q) matches the reference")
    ref_1 = to_complex(theta_prime_lattice([1], 0.1))[0]
    printed = to_complex(lattice_derivative_candidate([1], 0.1, variant="printed"))[0]
    miss = abs(ref_1 - printed) / abs(ref_1)
    checks.append(CheckRecord(
        "lattice_derivative_printed_candidate_rejected", miss, math.inf, miss > 1e-2,
        f"printed candidate at (n=1, q=0.1) gives {printed.real:.6g} against "
        f"reference {ref_1.real:.6g} (relative miss {miss:.3e})"))

    # circle maxima of |Theta| / eta are k-independent
    radii, zs = _circles(np.arange(-5, 6) + 0.5, params.ln_q, 64)
    maxima = _over_eta(theta_on_circles(radii, q, 64), zs, q).reshape(11, -1).max(1)
    spread = (maxima.max() - maxima.min()) / maxima.min()
    _record(checks, "envelope_circle_maxima_constant", spread, 1e-8, "k in [-5, 5]")
    return checks


# --------------------------------------------------------------------- coeffs


def coeffs_suite(params: LatticeParams) -> list[CheckRecord]:
    checks: list[CheckRecord] = []
    ms, balanced = np.arange(-8, 9), balanced_contour(params)
    # Laurent coefficients are annulus-constant: compare admissible radii.
    # On the circle q^{m-1/2} the z^0 mode sits a factor ~ q^{-m^2/2}
    # below the dominant mode, so the extraction noise there is about
    # q^{-m^2/2} * eps; only m with that bound well under the threshold
    # can take part (for tiny nomes that limits the list to small m).
    small = np.arange(3)
    tested = small[np.exp(-small * small / 2.0 * params.ln_q) * 5e-16 <= 1e-11].tolist()
    radii = np.exp(np.add.outer(tested, [-0.5, -0.75]) * params.ln_q).tolist()
    alts = [(m, ContourSpec(radius=r)) for m, row in zip(tested, radii) for r in row]
    pairs = [(int(m), balanced) for m in ms] + alts
    # one laurent_c0 call for every (m, circle); a circle near a theta zero is left out
    refused = {}
    for c in dict.fromkeys(c for _, c in pairs):
        try:
            c.validate(params)
        except InvalidParameterError as exc:
            refused[c] = str(exc)
    usable = [(m, c) for m, c in pairs if c not in refused]
    values = dict(zip(usable, laurent_c0(np.array([m for m, _ in usable], dtype=np.int64),
                                         params, [c for _, c in usable]))) if usable else {}
    left_out = "".join(f"; left out: {reason}" for reason in refused.values())

    oracles = None if balanced in refused else np.array([values[int(m), balanced] for m in ms])
    # an oracle that underflows to 0 (E_8 ~ q^36 at tau = 8) gives no relative residual
    lost = [] if oracles is None else ms[~(np.isfinite(oracles) & (oracles != 0))].tolist()
    if oracles is None or lost:
        reason = (f"contour oracle is 0 or not finite at m = {lost}" if lost
                  else "no usable contour")
        for name, threshold in (("coefficient_vs_contour_oracle", 1e-9),
                                ("coefficient_printed_exponent_rejected", math.inf)):
            checks.append(CheckRecord(name, math.inf, threshold, False, reason + left_out))
    else:
        fast = to_complex(coeff_E(ms, params))
        worst = np.max(np.abs(fast - oracles) / np.abs(oracles))
        printed = to_complex(coeff_E(ms[ms != 0], params, variant="printed"))
        worst_printed = np.max(np.abs(printed - oracles[ms != 0]) / np.abs(oracles[ms != 0]))
        _record(checks, "coefficient_vs_contour_oracle", worst, 1e-9,
                "exponent m(m+1)/2 candidate, m in [-8, 8]")
        checks.append(CheckRecord(
            "coefficient_printed_exponent_rejected", worst_printed, math.inf,
            worst_printed > 1e-2,
            "exponent m(m-1)/2 candidate misses the contour oracle by the factor q^{-m}",
        ))

    ratios = [abs(values[m, c] - values[m, balanced]) / abs(values[m, balanced])
              for m, c in alts if (m, c) in values]
    note = f"radii q^{{m-1/2}}, q^{{m-3/4}} vs the balanced circle, m in {tested}" + left_out
    if balanced in refused or (alts and not ratios):
        _record(checks, "contour_radius_independence", math.inf, 1e-10,
                note + "; no usable contour")
    else:
        _record(checks, "contour_radius_independence", max([0.0] + ratios), 1e-10, note)
    return checks


# --------------------------------------------------------------------- poisson


def poisson_suite(params: LatticeParams, signal: SignalModel | None = None,
                  base: GammaTable | None = None) -> list[CheckRecord]:
    """``base`` lends its entries to the Poisson table (forward_table's base=)."""
    checks: list[CheckRecord] = []
    signal = signal or _default_signal()
    if _is_zero_signal(signal):
        checks.append(CheckRecord("poisson_consistency", 0.0, 1e-8, True,
                                  "degenerate input: zero signal, vacuous pass"))
        return checks
    K = 12
    table = forward_table(signal, params.tau, 3, K, base=base)
    ms, xs = np.arange(-3, 4), np.array([0.0, 0.3, 1.1])
    rhs = to_complex(spatial_A(ms, xs, signal, params)).T
    # rows |m| <= 3 grow at most like e^{9 tau^2} < e^{89} times the signal's size, so they
    # are down-converted whole (to_complex raises beyond the double range)
    inner = inner_fourier_sum(to_complex((table.mantissa, table.exponent)), xs, K)
    ratios = (inner * np.exp(params.tau * np.outer(ms, xs)) / rhs).ravel()
    mean = ratios.mean()
    spread = np.max(np.abs(ratios - mean)) / abs(mean)
    _record(checks, "poisson_consistency", spread, 1e-8,
            f"common ratio {mean.real:.12g} (4 pi^2 = {4 * math.pi ** 2:.12g})")
    return checks


# ----------------------------------------------------------------- interpolation


def interpolation_suite(params: LatticeParams, signal: SignalModel | None = None,
                        truncation: TruncationChoice | None = None) -> list[CheckRecord]:
    """``truncation``: auto_truncation(signal, params, 1e-10, 0.3), if already made."""
    checks: list[CheckRecord] = []
    signal = signal or _default_signal()
    if _is_zero_signal(signal):
        checks.append(CheckRecord("interpolation_lemma", 0.0, 1e-8, True,
                                  "degenerate input: zero signal, vacuous pass"))
        return checks
    x = _INTERPOLATION_X
    extent = (truncation or auto_truncation(signal, params, 1e-10, x_max=x)).M + 2
    ns = np.arange(-extent, extent + 1)
    samples = spatial_A(ns, x, signal, params)

    zs = params.q ** np.array([-2, 0, 3])
    values = to_complex(lagrange_interpolant(zs, ns, samples, params))
    refs = to_complex(G_series(zs, x, signal, params))
    worst = np.max(np.abs(values - refs) / np.abs(refs))
    _record(checks, "interpolation_node_samples_vs_G_series", worst, 1e-10,
            "spatial_A's A_n (the interpolant at q^n, n in {-2, 0, 3}) against G_series' G_x(q^n)")

    # off-node identity on |z| = q^{1/2}, q^{-1/2}, one FFT per circle; the traces share the weights
    weights = cardinal_weights(ns, samples, params.q)
    radii, _ = _circles([0.5, -0.5], params.ln_q, 32, 0.5)
    g = to_complex(G_on_circles(radii, x, signal, 32, 0.5)).reshape(2, -1)
    theta = theta_on_circles(radii, params.q, 32, 0.5)
    cardinal = cardinal_on_circles(radii, ns, weights, params.q, 32, 0.5)
    gt = to_complex(normalise_array(theta[0] * cardinal[0], theta[1] + cardinal[1])).reshape(2, -1)
    worst = float(np.max(np.max(np.abs(g - gt), axis=1) / np.max(np.abs(g), axis=1)))
    _record(checks, "interpolation_global_identity", worst, 1e-8,
            "|G - interpolant| on |z| = q^{1/2}, q^{-1/2}")

    # normalised residual trace, measured against the scale of |G/Theta|
    # over the traced family of circles.  (A per-circle normalisation is
    # unattainable in doubles at |k| = 4: the interpolant sums O(0.1)
    # terms down to a quotient of ~1e-19 there, an 18-digit cancellation,
    # so its noise floor sits far above 1e-8 of that circle's quotient.)
    # All three traces come from one pass over k in [-6, 6].
    traces = mk_trace(TRACE_KINDS, range(-6, 7), x, signal, params, weights=weights)
    gq = traces[G_OVER_THETA]
    scale = max(ref for k, ref in gq if -4 <= k <= 4)
    note = "residual maxima relative to the quotient scale, k in [-4, 4]"
    if 0 < scale < math.inf:
        worst = max(res for k, res in traces[RESIDUAL_ALPHA] if -4 <= k <= 4) / scale
    else:  # Theta came out 0 at a traced point: no reading of the residual there
        worst, note = math.inf, note + f"; quotient scale {scale:.3g}: Theta is 0 on a circle"
    _record(checks, "interpolation_residual_trace", worst, 1e-8, note)

    # trend diagnostics of the proof traces
    tail_ok = all(gq[i][1] > gq[i - 1][1] for i in (1, 2)) and \
        all(gq[i][1] < gq[i - 1][1] for i in (-2, -1))
    checks.append(CheckRecord(
        "quotient_trace_decays_at_both_ends", 0.0 if tail_ok else 1.0, 0.5, tail_ok,
        "monotone over the outer three circles on each side",
    ))
    upper = dict(traces[GTILDE_OVER_THETA])
    bounded = max(upper[k] for k in range(0, 7)) <= 10.0 * max(upper[0], upper[1])
    decreasing = all(upper[k - 1] < upper[k] for k in (-5, -4, -3, -2))
    checks.append(CheckRecord(
        "interpolant_trace_bounded_and_vanishing", 0.0 if (bounded and decreasing) else 1.0,
        0.5, bounded and decreasing,
        "bounded on k in [0, 6], decreasing toward k -> -infinity",
    ))
    return checks


# --------------------------------------------------------------------- driver


def run_suite(suite: str, tau: float, signal: SignalModel | None = None) -> SuiteReport:
    if suite not in SUITES:
        raise InvalidParameterError(f"unknown suite {suite!r:.40}; choose from {SUITES}")
    signal = _default_signal() if signal is None else check_type("signal", signal, SignalModel)
    params = nome_from_tau(tau)
    report = SuiteReport(suite=suite, tau=params.tau)
    if suite in ("theta", "all"):
        report.checks += theta_suite(params)
    if suite in ("coeffs", "all"):
        report.checks += coeffs_suite(params)
    if params.regime == SUPERCRITICAL and suite in ("poisson", "interpolation", "all"):
        report.checks.append(CheckRecord(
            "supercritical_gate", 0.0, 1.0, True,
            "poisson/interpolation suites skipped: tau > pi",
        ))
        return report
    truncation = None
    if suite == "all" and not _is_zero_signal(signal):  # one table for both suites
        truncation = auto_truncation(signal, params, 1e-10, x_max=_INTERPOLATION_X)
    if suite in ("poisson", "all"):
        report.checks += poisson_suite(params, signal, truncation and truncation.table)
    if suite in ("interpolation", "all"):
        report.checks += interpolation_suite(params, signal, truncation)
    return report
