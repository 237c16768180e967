import math

import numpy as np
import pytest

from gaborlattice import (
    ContourSpec,
    DomainError,
    G_series,
    InvalidParameterError,
    NonConvergenceError,
    ScaledValue,
    SignalModel,
    auto_truncation,
    balanced_contour,
    coeff_E,
    forward_table,
    inner_fourier_sum,
    lagrange_interpolant,
    laurent_c0,
    mk_trace,
    nome_from_tau,
    spatial_A,
)
from gaborlattice.oracle import (G_OVER_THETA, RESIDUAL_ALPHA, TRACE_KINDS, G_on_circles,
                                 cardinal_on_circles, cardinal_weights)
from gaborlattice.qtheta import theta_on_circles
from gaborlattice.scaled import sub_arrays, to_complex


class TestSpatialA:
    def test_zero_signal(self, params_tau1):
        zero = SignalModel.gaussian([(0.0, 0.0, 0.0)])
        assert spatial_A(2, 0.4, zero, params_tau1).is_zero

    def test_gaussian_value_m0_x0(self, unit_gaussian, params_tau1):
        # independent: (1 + 2 e^{-2 pi^2}) / (2 pi); images beyond |j| = 1
        # are below double precision
        expected = (1.0 + 2.0 * math.exp(-2.0 * math.pi ** 2)) / (2.0 * math.pi)
        got = spatial_A(0, 0.0, unit_gaussian, params_tau1).to_complex()
        assert got.real == pytest.approx(expected, rel=1e-13)
        assert got.imag == 0.0

    def test_callback_agrees_with_gaussian(self, params_tau1):
        import cmath

        cb = SignalModel.callback(lambda x: cmath.exp(-(x - 0.7) ** 2 / 4 + 2j * x),
                                  bound=1.0, growth=0.0)
        ga = SignalModel.gaussian([(1.0, 0.7, 2.0)])
        for m in (-2, 0, 3):
            a = spatial_A(m, 0.3, cb, params_tau1).to_complex()
            b = spatial_A(m, 0.3, ga, params_tau1).to_complex()
            assert a == pytest.approx(b, rel=1e-12)


class TestGSeries:
    def test_lattice_points_match_spatial(self, unit_gaussian, params_tau1):
        for m in (-2, 0, 3):
            z = params_tau1.q ** m
            g = G_series(z, 0.3, unit_gaussian).to_complex()
            a = spatial_A(m, 0.3, unit_gaussian, params_tau1).to_complex()
            assert g == pytest.approx(a, rel=1e-12)

    def test_zero_signal(self):
        zero = SignalModel.gaussian([(0.0, 0.0, 0.0)])
        assert G_series(1.3, 0.0, zero).is_zero

    def test_oversampled_self_consistency(self, unit_gaussian):
        # the stopping rule must not move the value: the same series, g = e^{-t^2/2} / (2 pi),
        # summed over |j| <= 60 (far past where its terms fall below 1e-16) at 40 digits
        mp = pytest.importorskip("mpmath")
        for z in (1.0, 0.2 + 0.1j, 3.0j):
            with mp.workdps(40):
                want = mp.fsum(mp.exp(-(2 * mp.pi * j) ** 2 / 2) / (2 * mp.pi) * mp.mpc(z) ** j
                               for j in range(-60, 61))
            got = G_series(z, 0.0, unit_gaussian).to_complex()
            assert got == pytest.approx(complex(want), rel=1e-14)

    def test_domain(self, unit_gaussian):
        with pytest.raises(DomainError):
            G_series(0.0, 0.0, unit_gaussian)


class TestPoissonConsistency:
    def test_ratio_constant_and_4pi2(self, unit_gaussian, params_tau1):
        """The keystone: e^{m tau x} * interior Fourier sum must equal a
        single constant times the spatially aliased sum, and a round
        trip pins that constant at 4 pi^2 (which is what makes the
        global normalisation 1/(2 pi))."""
        K = 12
        table = forward_table(unit_gaussian, 1.0, 3, K)
        ms, xs = np.arange(-3, 4), np.array([0.0, 0.3, 1.1])
        inner = inner_fourier_sum(to_complex((table.mantissa, table.exponent)), xs, K)
        lhs = inner * np.exp(1.0 * np.outer(ms, xs))
        rhs = np.stack([to_complex(spatial_A(ms, x, unit_gaussian, params_tau1)) for x in xs], 1)
        ratios = lhs / rhs
        mean = ratios.mean()
        spread = np.max(np.abs(ratios - mean)) / abs(mean)
        assert spread <= 1e-8
        assert mean.real == pytest.approx(4.0 * math.pi ** 2, rel=1e-10)
        assert abs(mean.imag) <= 1e-10 * abs(mean)


class TestLaurent:
    def test_matches_coefficient_across_range(self):
        for tau in (0.5, 1.0, 2.0):
            params = nome_from_tau(tau)
            for m in range(-8, 9):
                fast = coeff_E(m, params).to_complex()
                oracle = laurent_c0(m, params)
                assert abs(fast - oracle) <= 1e-9 * abs(oracle), (tau, m)

    def test_explicit_double_series_m0(self):
        # E_0 * Theta'(1; q) = -sum_{i>=0} (-1)^i q^{i(i+1)/2}; the
        # contour value must reproduce the plain double-sum evaluation
        tau = math.log(2.0) / (2.0 * math.pi)
        params = nome_from_tau(tau)
        series = sum((-1) ** i * 0.5 ** (i * (i + 1) // 2) for i in range(64))
        prod = 1.0
        for n in range(1, 200):
            prod *= 1.0 - 0.5 ** n
        expected = series / prod ** 3
        assert laurent_c0(0, params).real == pytest.approx(expected, rel=1e-12)
        assert laurent_c0(0, params).real == pytest.approx(25.34, abs=5e-3)

    def test_radius_independence_small_m(self, params_tau1):
        q = params_tau1.q
        for m in (0, 1, 2):
            base = laurent_c0(m, params_tau1)
            for power in (m - 0.5, m - 0.75):
                alt = laurent_c0(m, params_tau1,
                                 ContourSpec(radius=q ** power, nodes=256))
                assert abs(alt - base) <= 1e-10 * abs(base)

    def test_node_doubling_stability(self, params_tau1):
        a = laurent_c0(2, params_tau1, balanced_contour(params_tau1, nodes=512))
        b = laurent_c0(2, params_tau1, balanced_contour(params_tau1, nodes=1024))
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_contour_validation(self, params_tau1):
        with pytest.raises(InvalidParameterError):
            ContourSpec(radius=1.0, nodes=100).validate(params_tau1)  # not a power of 2
        with pytest.raises(InvalidParameterError):
            ContourSpec(radius=params_tau1.q, nodes=128).validate(params_tau1)  # on a zero
        with pytest.raises(InvalidParameterError):
            ContourSpec(radius=-2.0, nodes=128).validate(params_tau1)


class TestInterpolant:
    def fixture_samples(self, signal, params, x=0.3, extent=7):
        ns = np.arange(-extent, extent + 1)
        return ns, spatial_A(ns, x, signal, params)

    def test_cardinal_property(self, unit_gaussian, params_tau1):
        samples = self.fixture_samples(unit_gaussian, params_tau1)
        node = params_tau1.q ** 3
        got = lagrange_interpolant(node, *samples, params_tau1)
        want = spatial_A(3, 0.3, unit_gaussian, params_tau1)
        gap = sub_arrays((got.mantissa, got.exponent), (want.mantissa, want.exponent))
        assert abs(to_complex(gap)) <= 1e-10 * abs(want.to_complex())

    def test_single_sample_closed_form(self, params_tau1):
        # one-term sum: A * Theta(z) / ((z - 1) Theta'(1))
        from gaborlattice import theta_prime_one, theta_series

        q = params_tau1.q
        z = math.sqrt(q)
        got = lagrange_interpolant(z, [0], ([1.0], [0]), params_tau1)
        want = theta_series(z, q) / ((z - 1.0) * theta_prime_one(q))
        assert got.to_complex() == pytest.approx(want, rel=1e-12)

    def test_matches_g_series_off_nodes(self, unit_gaussian, params_tau1):
        samples = self.fixture_samples(unit_gaussian, params_tau1)
        q = params_tau1.q
        for power in (0.5, -0.5):
            radius = q ** power
            scale = 0.0
            gap = 0.0
            for t in range(32):
                angle = 2.0 * math.pi * (t + 0.5) / 32
                z = radius * complex(math.cos(angle), math.sin(angle))
                g = G_series(z, 0.3, unit_gaussian)
                interp = lagrange_interpolant(z, *samples, params_tau1)
                scale = max(scale, abs(g.to_complex()))
                diff = sub_arrays((g.mantissa, g.exponent), (interp.mantissa, interp.exponent))
                gap = max(gap, abs(to_complex(diff)))
            assert gap <= 1e-8 * scale

    def test_near_node_guard(self, unit_gaussian, params_tau1):
        samples = self.fixture_samples(unit_gaussian, params_tau1)
        q = params_tau1.q
        with pytest.raises(DomainError):
            lagrange_interpolant(q ** 2 * 1.01, *samples, params_tau1)


def _basis(signal, params, extent=7):
    """The nodes -extent .. extent and their cardinal weights at x = 0.3."""
    ns = np.arange(-extent, extent + 1)
    return ns, cardinal_weights(ns, spatial_A(ns, 0.3, signal, params), params.q)


class TestTraces:
    def test_residual_alpha_is_noise_level(self, unit_gaussian, params_tau1):
        trace = mk_trace("residual_alpha", range(-4, 5), 0.3, unit_gaussian, params_tau1)
        quot = mk_trace("G_over_theta", range(-4, 5), 0.3, unit_gaussian, params_tau1)
        scale = max(v for _, v in quot)
        assert max(v for _, v in trace) <= 1e-8 * scale

    def test_quotient_vanishes_both_ends(self, unit_gaussian, params_tau1):
        trace = dict(mk_trace("G_over_theta", range(-6, 7), 0.3, unit_gaussian,
                              params_tau1))
        assert trace[-6] < trace[-5] < trace[-4]
        assert trace[6] < trace[5] < trace[4]

    def test_interpolant_quotient_bounded_and_decaying(self, unit_gaussian, params_tau1):
        trace = dict(mk_trace("Gtilde_over_theta", range(-6, 7), 0.3, unit_gaussian,
                              params_tau1))
        assert max(trace[k] for k in range(0, 7)) <= 10.0 * max(trace[0], trace[1])
        for k in (-2, -3, -4, -5):
            assert trace[k - 1] < trace[k]

    @pytest.mark.parametrize("kind", ["G_over_theta", "Gtilde_over_theta", "residual_alpha"])
    def test_blocked_trace_is_single_circle_calls_bit_for_bit(self, kind, two_component,
                                                               params_tau1):
        # 13 circles span several blocks of circles, the last one partly filled
        _, weights = _basis(two_component, params_tau1, extent=9)
        trace = mk_trace(kind, range(-6, 7), 0.3, two_component, params_tau1, weights=weights)
        assert trace == [item for k in range(-6, 7) for item in
                         mk_trace(kind, [k], 0.3, two_component, params_tau1, weights=weights)]
        assert mk_trace(kind, [], 0.3, two_component, params_tau1, weights=weights) == []
        assert mk_trace(kind, [3, -2], 0.3, two_component, params_tau1, weights=weights) == \
            [trace[3 + 6], trace[-2 + 6]]

    @pytest.mark.parametrize("tau", [0.6, 1.0])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_one_pass_is_the_single_kind_calls_bit_for_bit(self, tau, seed):
        rng = np.random.default_rng(seed)
        signal = SignalModel.gaussian([
            (rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)),
             rng.uniform(-1.0, 1.0), rng.uniform(-1.5, 1.5)) for _ in range(2)])
        params = nome_from_tau(tau)
        traces = mk_trace(TRACE_KINDS, range(-6, 7), 0.3, signal, params)
        assert list(traces) == list(TRACE_KINDS)
        for kind in TRACE_KINDS:
            single = mk_trace(kind, range(-6, 7), 0.3, signal, params)
            assert [k for k, _ in traces[kind]] == [k for k, _ in single]
            assert np.array([v for _, v in traces[kind]]).view(np.uint64).tolist() == \
                np.array([v for _, v in single]).view(np.uint64).tolist()
        pair = mk_trace([RESIDUAL_ALPHA, G_OVER_THETA], [2, -3], 0.3, signal, params)
        assert pair == {kind: [traces[kind][8], traces[kind][3]]
                        for kind in (RESIDUAL_ALPHA, G_OVER_THETA)}

    def test_unknown_kind(self, unit_gaussian, params_tau1):
        with pytest.raises(InvalidParameterError):
            mk_trace("nonsense", range(0, 1), 0.0, unit_gaussian, params_tau1)
        with pytest.raises(InvalidParameterError):
            mk_trace(["G_over_theta", "nonsense"], range(0, 1), 0.0, unit_gaussian, params_tau1)


def _circles(params, powers=(0.5, -0.5, 1.5), count=16):
    return np.concatenate([params.q ** p * np.exp(2j * math.pi * (np.arange(count) + 0.5) / count)
                           for p in powers])


class TestArrayPath:
    def samples(self, signal, params, extent=7):
        ns = np.arange(-extent, extent + 1)
        return ns, spatial_A(ns, 0.3, signal, params)

    def test_spatial_A_array_of_m(self, two_component, params_tau1):
        ms = np.arange(-4, 5)
        mant, exps = spatial_A(ms, 0.3, two_component, params_tau1)
        assert [ScaledValue(m, int(e)) for m, e in zip(mant, exps)] == \
            [spatial_A(int(m), 0.3, two_component, params_tau1) for m in ms]

    def test_G_series_array_matches_scalar_calls(self, two_component, params_tau1):
        zs = np.concatenate([_circles(params_tau1), [1e-30, 3e25j]])
        mant, exps = G_series(zs, 0.3, two_component)
        assert [ScaledValue(m, int(e)) for m, e in zip(mant, exps)] == \
            [G_series(z, 0.3, two_component) for z in zs]

    def test_interpolant_array_matches_scalar_calls(self, two_component, params_tau1):
        samples = self.samples(two_component, params_tau1)
        zs = np.concatenate([_circles(params_tau1), [params_tau1.q ** 3, 1.0]])
        mant, exps = lagrange_interpolant(zs, *samples, params_tau1)
        assert [ScaledValue(m, int(e)) for m, e in zip(mant, exps)] == \
            [lagrange_interpolant(z, *samples, params_tau1) for z in zs]
        assert ScaledValue(mant[-2], int(exps[-2])) == spatial_A(3, 0.3, two_component,
                                                                 params_tau1)

    def test_laurent_array_of_m_is_scalar_calls(self, params_tau1):
        ms = np.arange(-8, 9)
        for contour in (None, ContourSpec(radius=params_tau1.q ** 0.25)):
            assert laurent_c0(ms, params_tau1, contour).tolist() == \
                [laurent_c0(int(m), params_tau1, contour) for m in ms]

    @pytest.mark.parametrize("tau", [0.3, 1.0, 2.0])
    def test_laurent_contours_per_m_are_single_calls_bit_for_bit(self, tau):
        params = nome_from_tau(tau)
        ms = [-8, 0, 5, 0, 1, 2, 2, 1, 0]
        radius = [None, None, None, -0.5, 0.5, 1.5, 1.25, 0.25, -0.75]
        contours = [None if p is None else ContourSpec(radius=math.exp(p * params.ln_q))
                    for p in radius]
        joint = laurent_c0(np.array(ms), params, contours)
        single = np.array([laurent_c0(m, params, c) for m, c in zip(ms, contours)])
        assert joint.view(np.uint64).tolist() == single.view(np.uint64).tolist()
        assert joint[3] == joint[1]  # q^{-1/2} is the balanced circle

    def test_laurent_contour_list_refusals(self, params_tau1):
        with pytest.raises(InvalidParameterError):
            laurent_c0(np.array([0, 1]), params_tau1, [None])
        with pytest.raises(InvalidParameterError):
            laurent_c0(np.array([0, 1]), params_tau1, [None, ContourSpec(radius=params_tau1.q)])
        with pytest.raises(InvalidParameterError):
            laurent_c0(np.array([0, 1]), params_tau1, [None, balanced_contour(params_tau1, 256)])

    def test_any_zero_element_refused(self, unit_gaussian, params_tau1):
        zs = np.array([0.5, 0.0, 2.0j])
        with pytest.raises(DomainError):
            G_series(zs, 0.0, unit_gaussian)
        with pytest.raises(DomainError):
            lagrange_interpolant(zs, *self.samples(unit_gaussian, params_tau1), params_tau1)

    def test_any_near_node_element_refused(self, unit_gaussian, params_tau1):
        zs = np.array([0.5j, params_tau1.q ** 2 * 1.01])
        with pytest.raises(DomainError):
            lagrange_interpolant(zs, *self.samples(unit_gaussian, params_tau1), params_tau1)

    def test_non_convergence(self, unit_gaussian, params_tau1):
        # an envelope of growth 1e5 keeps the aliased sum's terms rising past MAX_TERMS
        steep = SignalModel.callback(lambda x: 0j, 1.0, 1e5)
        with pytest.raises(NonConvergenceError):
            G_series(np.array([1.0, 2.0j]), 0.0, steep)
        with pytest.raises(NonConvergenceError):
            spatial_A(np.array([0, 1]), 0.0, steep, params_tau1)
        # at q = 0.999999 the theta series needs more than MAX_TERMS terms per side
        samples = self.samples(unit_gaussian, params_tau1)
        with pytest.raises(NonConvergenceError):
            lagrange_interpolant(_circles(params_tau1), *samples, nome_from_tau(1.6e-7))


class TestCardinalOnCircles:
    """oracle.cardinal_on_circles: sum_n w_n / (z - q^n) on uniform circles by FFT."""

    @pytest.mark.parametrize("tau", [1.0, 0.3, 0.05])
    @pytest.mark.parametrize("count, offset", [(32, 0.5), (64, 0.0)])
    def test_against_mpmath(self, tau, count, offset, two_component):
        mp = pytest.importorskip("mpmath")
        eps, params = np.finfo(float).eps, nome_from_tau(tau)
        ns, weights = _basis(two_component, params)
        radii = np.exp((np.array([-6, 0, 5]) + 0.5) * params.ln_q)
        mant, exps = cardinal_on_circles(radii, ns, weights, params.q, count, offset)
        with mp.workdps(60):
            nodes = [mp.mpf(params.q) ** int(n) for n in ns]
            w = [mp.mpc(m) * mp.mpf(2) ** (128 * int(e)) for m, e in zip(*weights)]
            for i, r in enumerate(radii):
                # the sum of |terms| of the nodes' geometric series on |z| = r
                scale = mp.fsum(abs(wn) / abs(r - node) for wn, node in zip(w, nodes))
                for t in range(count):
                    z = r * mp.expjpi(2 * (t + mp.mpf(offset)) / count)
                    exact = mp.fsum(wn / (z - node) for wn, node in zip(w, nodes))
                    j = i * count + t
                    got = mp.mpc(mant[j]) * mp.mpf(2) ** (128 * int(exps[j]))
                    assert abs(got - exact) <= 16 * eps * scale, (tau, r, t)

    @pytest.mark.parametrize("tau", [1.0, 0.05])
    def test_each_circle_alone_is_its_block_row_bit_for_bit(self, tau, two_component):
        params = nome_from_tau(tau)
        ns, weights = _basis(two_component, params)
        radii = np.exp((np.arange(-6, 7) + 0.5) * params.ln_q)
        for offset in (0.0, 0.5):
            block = cardinal_on_circles(radii, ns, weights, params.q, 64, offset)
            alone = [cardinal_on_circles([r], ns, weights, params.q, 64, offset) for r in radii]
            assert block[0].view(np.uint64).tolist() == \
                np.concatenate([a[0] for a in alone]).view(np.uint64).tolist()
            assert block[1].tolist() == np.concatenate([a[1] for a in alone]).tolist()

    def test_close_to_the_per_point_sums(self, two_component, params_tau1):
        ns, weights = _basis(two_component, params_tau1)
        samples = spatial_A(ns, 0.3, two_component, params_tau1)
        radii = params_tau1.q ** np.array([0.5, -0.5])
        zs = (radii[:, None] * np.exp(2j * math.pi * (np.arange(32) + 0.5) / 32)).ravel()
        theta = to_complex(theta_on_circles(radii, params_tau1.q, 32, 0.5))
        got = theta * to_complex(cardinal_on_circles(radii, ns, weights, params_tau1.q, 32, 0.5))
        want = to_complex(lagrange_interpolant(zs, ns, samples, params_tau1))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_refusals(self, two_component, params_tau1):
        ns, weights = _basis(two_component, params_tau1)
        q = params_tau1.q
        with pytest.raises(NonConvergenceError):  # a circle through a node
            cardinal_on_circles([q ** 3], ns, weights, q, 64)
        with pytest.raises(NonConvergenceError):  # and one 1e-13 off a node
            cardinal_on_circles([q ** 3 * (1.0 + 1e-13)], ns, weights, q, 64)
        with pytest.raises(InvalidParameterError):
            cardinal_on_circles([q ** 0.5], ns[1:], weights, q, 64)
        with pytest.raises(InvalidParameterError):
            cardinal_on_circles([0.0], ns, weights, q, 64)
        empty = cardinal_on_circles([], ns, weights, q, 64)
        assert empty[0].shape == empty[1].shape == (0,)

    def test_trace_takes_the_weights_it_is_given(self, two_component, params_tau1):
        # by default the basis of the automatic truncation order plus 2 guard terms
        extent = auto_truncation(two_component, params_tau1, 1e-10, x_max=0.3).M + 2
        _, weights = _basis(two_component, params_tau1, extent=extent)
        assert mk_trace(TRACE_KINDS, range(-6, 7), 0.3, two_component, params_tau1,
                        weights=weights) == \
            mk_trace(TRACE_KINDS, range(-6, 7), 0.3, two_component, params_tau1)

    def test_G_on_circles_is_the_per_point_series(self, two_component, params_tau1):
        radii = params_tau1.q ** np.array([0.5, -0.5, 2.5])
        zs = (radii[:, None] * np.exp(2j * math.pi * (np.arange(32) + 0.5) / 32)).ravel()
        got = to_complex(G_on_circles(radii, 0.3, two_component, 32, 0.5))
        want = to_complex(G_series(zs, 0.3, two_component))
        assert np.all(np.abs(got - want).reshape(3, -1)
                      <= 1e-14 * np.max(np.abs(want).reshape(3, -1), axis=1, keepdims=True))

    def test_spatial_A_array_of_x_is_one_call_per_x_bit_for_bit(self, two_component,
                                                                 params_tau1):
        ms, xs = np.arange(-3, 4), np.array([0.0, 0.3, 1.1, -2.0])
        mant, exps = spatial_A(ms, xs, two_component, params_tau1)
        assert mant.shape == exps.shape == (len(xs), len(ms))
        for row, x in enumerate(xs):
            alone = spatial_A(ms, x, two_component, params_tau1)
            assert mant[row].view(np.uint64).tolist() == alone[0].view(np.uint64).tolist()
            assert exps[row].tolist() == alone[1].tolist()
