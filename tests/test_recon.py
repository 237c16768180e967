import cmath
import math
import sys
import time

import numpy as np
import pytest

from gaborlattice import (
    GammaTable,
    InvalidParameterError,
    NonConvergenceError,
    RECONSTRUCTION_CONSTANT,
    ReconConfig,
    RegimeError,
    SaturationError,
    SignalModel,
    auto_truncation,
    calibrate_constant,
    coeff_E,
    eval_signal,
    forward_table,
    grid_points,
    inner_fourier_sum,
    nome_from_tau,
    reconstruct_grid,
    reconstruct_point,
    recon,
    round_trip,
    scaled,
)


class TestInnerSum:
    def test_zero_row(self):
        assert not inner_fourier_sum(np.zeros((1, 5), dtype=complex), np.array([0.7]), 2).any()

    def test_constant_term_only(self):
        row = np.array([[0, 0, 1, 0, 0]], dtype=complex)
        assert inner_fourier_sum(row, np.array([-2.0, 0.0, 1.3]), 2).tolist() == [[1.0] * 3]

    def test_row_length_checked(self):
        with pytest.raises(InvalidParameterError):
            inner_fourier_sum(np.ones((1, 4), dtype=complex), np.array([0.0]), 2)

    def test_single_mode(self):
        # gamma_{m,1} = 1 only: sum is e^{ix}
        row = np.array([[0, 0, 0, 1, 0]], dtype=complex)
        x = 0.9
        got = inner_fourier_sum(row, np.array([x]), 2)
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(complex(math.cos(x), math.sin(x)), rel=1e-15)


class TestReconstructPoint:
    def test_zero_table(self, params_tau1):
        zero = SignalModel.gaussian([(0.0, 0.0, 0.0)])
        table = forward_table(zero, 1.0, 2, 2)
        for x in (-1.0, 0.0, 2.0):
            assert reconstruct_point(x, table, params_tau1, 2, 2) == 0j

    def test_zero_rows_do_not_set_the_scale(self, params_tau1):
        # one live row 2**-1152 and zero rows whose E_m e^{m tau x} is ~2**0: the shift
        # follows the live row, so the zero rows never meet an overflowing weight
        mantissa, exponent = np.zeros((11, 1)), np.zeros((11, 1), dtype=np.int64)
        mantissa[5], exponent[5] = 1.0, -9
        table = GammaTable(5, 0, 1.0, mantissa, exponent)
        assert abs(reconstruct_point(0.0, table, params_tau1, 5, 0)) < 1e-300
        grid = reconstruct_grid(ReconConfig(grid=(-1.0, 1.0, 0.1), truncation=(5, 0)), table,
                                params_tau1)
        assert np.all(np.abs(grid.reconstructed) < 1e-300)

    @pytest.mark.parametrize("M, K", [(-1, 2), (2, -1), (True, 2), (1.0, 2), (2, 1.5)])
    def test_orders_must_be_integers_at_least_zero(self, unit_gaussian, params_tau1, M, K):
        table = forward_table(unit_gaussian, 1.0, 2, 2)
        with pytest.raises(InvalidParameterError):
            reconstruct_point(0.0, table, params_tau1, M, K)

    def test_supercritical_refused(self):
        params = nome_from_tau(3.5)
        zero = SignalModel.gaussian([(0.0, 0.0, 0.0)])
        table = forward_table(zero, 3.5, 1, 1)
        with pytest.raises(RegimeError):
            reconstruct_point(0.0, table, params, 1, 1)

    def test_critical_refused(self):
        params = nome_from_tau(math.pi)
        zero = SignalModel.gaussian([(0.0, 0.0, 0.0)])
        table = forward_table(zero, math.pi, 1, 1)
        with pytest.raises(RegimeError):
            reconstruct_point(0.0, table, params, 1, 1)

    def test_pointwise_roundtrip(self, unit_gaussian, params_tau1):
        table = forward_table(unit_gaussian, 1.0, 6, 10)
        for x in (-3.0, -0.7, 0.0, 1.9, 3.0):
            rec = reconstruct_point(x, table, params_tau1, 6, 10)
            assert abs(rec - eval_signal(unit_gaussian, x)) <= 1e-6

    def test_linearity_of_tables(self, params_tau1):
        f = SignalModel.gaussian([(1.0, 0.3, 1.0)])
        g = SignalModel.gaussian([(0.5j, -0.4, 0.0)])
        fg = SignalModel.gaussian([(1.0, 0.3, 1.0), (0.5j, -0.4, 0.0)])
        tf = forward_table(f, 1.0, 5, 8)
        tg = forward_table(g, 1.0, 5, 8)
        tfg = forward_table(fg, 1.0, 5, 8)
        for x in (-1.1, 0.6):
            a = reconstruct_point(x, tf, params_tau1, 5, 8)
            b = reconstruct_point(x, tg, params_tau1, 5, 8)
            c = reconstruct_point(x, tfg, params_tau1, 5, 8)
            assert abs(c - (a + b)) <= 1e-10 * max(abs(c), 1.0)


class TestEngineAccuracy:
    """The evaluation engine against a 40-digit evaluation of the same
    truncated formula, with the same table and the same E_m."""

    FAMILY = [(0.648904 - 0.489038j, 0.551371, -0.824378),
              (0.455481 - 0.463837j, -0.989469, 0.963685)]

    # amplitude 1e-200 moves the table's 2**128 exponents away from 0:
    # rounding them through a float logarithm breaks the bound there
    @pytest.mark.parametrize("amplitude", [1.0, 1e-200])
    @pytest.mark.parametrize("tau", [0.6, 1.0, 2.5])
    def test_within_double_precision_of_mpmath(self, tau, amplitude):
        mp = pytest.importorskip("mpmath")
        eps = sys.float_info.epsilon
        M, K = 5, 9
        signal = SignalModel.gaussian([(amplitude * a, c, b) for a, c, b in self.FAMILY])
        params = nome_from_tau(tau)
        table = forward_table(signal, tau, M, K)
        e_mant, e_exps = coeff_E(np.arange(-M, M + 1), params)  # the engine's own E_m
        xs = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 25)
        got = list(reconstruct_point(xs, table, params, M, K))
        got[::6] = [reconstruct_point(float(x), table, params, M, K) for x in xs[::6]]

        def exact(mant, exp):
            return mp.mpc(complex(mant)) * mp.mpf(2) ** (128 * int(exp))

        with mp.workdps(40):
            rows = [(m, exact(e_mant[i], e_exps[i]),
                     [exact(*g) for g in zip(table.mantissa[i], table.exponent[i])])
                    for i, m in enumerate(range(-M, M + 1))]
            for x, value in zip(xs, got):
                X = mp.mpf(float(x))
                phase = mp.exp(1j * X)
                terms = [e * mp.exp(m * mp.mpf(tau) * X)
                         * mp.fsum(g * phase ** k for k, g in zip(range(-K, K + 1), row))
                         for m, e, row in rows]
                prefactor = mp.exp(X * X / 4) / (2 * mp.pi)
                err = abs(mp.mpc(value) - mp.fsum(terms) * prefactor)
                assert err <= 64 * eps * mp.fsum(abs(t) for t in terms) * prefactor, x

    @pytest.mark.parametrize("amplitude", [1.0, 1e-200])
    @pytest.mark.parametrize("tau", [0.6, 1.0, 2.5])
    def test_grid_within_double_precision_of_mpmath(self, monkeypatch, tau, amplitude):
        # a grid is summed at anchors a plus offsets d: compare at the exact points a + d
        mp = pytest.importorskip("mpmath")
        eps = sys.float_info.epsilon
        M, K = 5, 9
        signal = SignalModel.gaussian([(amplitude * a, c, b) for a, c, b in self.FAMILY])
        params = nome_from_tau(tau)
        table = forward_table(signal, tau, M, K)
        e_mant, e_exps = coeff_E(np.arange(-M, M + 1), params)
        calls, engine = [], recon.reconstruct_point
        monkeypatch.setattr(recon, "reconstruct_point",
                            lambda *args: calls.append(args) or engine(*args))
        grid = (-2.0 * math.pi, 2.0 * math.pi, 4.0 * math.pi / 60)
        report = reconstruct_grid(ReconConfig(grid=grid, truncation=(M, K)), table, params)
        (anchors, *_, offsets), = calls
        O, (J, r) = len(offsets), divmod(len(report.xs), len(offsets))
        assert O > 1 and r > 0  # several offsets per anchor, and a last block ending the grid
        points = [(a, d) for a in anchors[:J] for d in offsets]
        points += [(anchors[-1], d) for d in offsets[O - r:]]

        def exact(mant, exp):
            return mp.mpc(complex(mant)) * mp.mpf(2) ** (128 * int(exp))

        with mp.workdps(40):
            rows = [(m, exact(e_mant[i], e_exps[i]),
                     [exact(*g) for g in zip(table.mantissa[i], table.exponent[i])])
                    for i, m in enumerate(range(-M, M + 1))]
            for (a, d), value in zip(points, report.reconstructed, strict=True):
                X = mp.mpf(float(a)) + mp.mpf(float(d))
                phase = mp.exp(1j * X)
                terms = [e * mp.exp(m * mp.mpf(tau) * X)
                         * mp.fsum(g * phase ** k for k, g in zip(range(-K, K + 1), row))
                         for m, e, row in rows]
                prefactor = mp.exp(X * X / 4) / (2 * mp.pi)
                err = abs(mp.mpc(value) - mp.fsum(terms) * prefactor)
                assert err <= 64 * eps * mp.fsum(abs(t) for t in terms) * prefactor, (a, d)

    def test_value_beyond_double_range_saturates(self, params_tau1):
        near_max = forward_table(SignalModel.gaussian([(1e308, 0.0, 0.0)]), 1.0, 5, 9)
        value = reconstruct_point(0.0, near_max, params_tau1, 5, 9)
        assert value == pytest.approx(1e308, rel=1e-8)
        beyond = forward_table(
            SignalModel.gaussian([(1e308, 0.0, 0.0), (1e308, 0.0, 0.0)]), 1.0, 5, 9)
        with pytest.raises(SaturationError):
            reconstruct_point(0.0, beyond, params_tau1, 5, 9)
        with pytest.raises(SaturationError):
            reconstruct_point(np.array([-0.5, 0.0, 0.5]), beyond, params_tau1, 5, 9)


def term_scale(table, params, M, K, xs):
    """sum_m |E_m e^{m tau x} sum_k gamma_{m,k} e^{ikx}| e^{x^2/4} / 2pi at each x, the
    scale of the engine's 64 eps bound, summed through logarithms."""
    used = np.s_[table.M - M: table.M + M + 1, table.K - K: table.K + K + 1]
    mant, exps = table.mantissa[used], table.exponent[used]
    top = exps.max(axis=1, keepdims=True)
    inner = inner_fourier_sum(scaled.ldexp_array(mant, (exps - top) * scaled.BASE_LOG2), xs, K)
    ms = np.arange(-M, M + 1)
    ln_terms = (scaled.ln_abs(*coeff_E(ms, params))[:, None] + top * scaled.LN_BASE
                + params.tau * np.outer(ms, xs) + np.log(np.abs(inner)))
    return np.exp(np.logaddexp.reduce(ln_terms, axis=0) + xs * xs / 4) / (2 * math.pi)


class TestGridPath:
    """reconstruct_grid's anchors-plus-offsets sums against the pointwise path."""

    def assert_grid_matches_points(self, tau, M, K, grid):
        params = nome_from_tau(tau)
        table = forward_table(SignalModel.gaussian(TestEngineAccuracy.FAMILY), tau, M, K)
        report = reconstruct_grid(ReconConfig(grid=grid, truncation=(M, K)), table, params)
        assert report.reconstructed.shape == report.xs.shape == grid_points(grid).shape
        if len(report.xs):
            pointwise = reconstruct_point(report.xs, table, params, M, K)
            bound = 64 * sys.float_info.epsilon * term_scale(table, params, M, K, report.xs)
            assert np.all(np.abs(report.reconstructed - pointwise) <= bound)
        return report

    @pytest.mark.parametrize("tau, M, K, step", [
        (3.1, 64, 10, 0.25),  # M tau step near OFFSET_REACH: two offsets per anchor
        (0.3, 20, 9, 0.01),  # a small step at small tau: many offsets per anchor
    ])
    def test_range_cases_agree_with_points(self, tau, M, K, step):
        self.assert_grid_matches_points(tau, M, K, (-2.0 * math.pi, 2.0 * math.pi, step))

    def test_length_not_a_multiple_of_the_offsets(self, monkeypatch):
        calls, engine = [], recon.reconstruct_point
        monkeypatch.setattr(recon, "reconstruct_point",
                            lambda *args: calls.append(args) or engine(*args))
        report = self.assert_grid_matches_points(1.0, 5, 9, (-3.0, 3.0, 0.03))
        (anchors, *_, offsets), = calls
        assert len(report.xs) % len(offsets) != 0
        assert anchors[-1] + offsets[-1] == pytest.approx(report.xs[-1], abs=1e-12)

    def test_one_point_equals_the_pointwise_value(self):
        params = nome_from_tau(1.0)
        table = forward_table(SignalModel.gaussian(TestEngineAccuracy.FAMILY), 1.0, 5, 9)
        report = self.assert_grid_matches_points(1.0, 5, 9, (0.3, 0.3, 0.1))
        assert report.reconstructed.tolist() == [reconstruct_point(0.3, table, params, 5, 9)]

    def test_empty_grid(self):
        assert len(self.assert_grid_matches_points(1.0, 5, 9, (0.3, 0.2, 0.1)).xs) == 0

    def test_offsets_give_one_row_per_point(self, params_tau1):
        table = forward_table(SignalModel.gaussian(TestEngineAccuracy.FAMILY), 1.0, 5, 9)
        xs, offsets = np.array([-1.0, 0.5, 2.0]), np.array([0.0, 0.01, 0.02, 0.03])
        values = reconstruct_point(xs, table, params_tau1, 5, 9, offsets)
        assert values.shape == (3, 4)
        assert values[:, 0].tolist() == reconstruct_point(xs, table, params_tau1, 5, 9).tolist()
        points = (xs[:, None] + offsets).ravel()
        bound = 64 * sys.float_info.epsilon * term_scale(table, params_tau1, 5, 9, points)
        assert np.all(np.abs(values.ravel() - reconstruct_point(points, table, params_tau1, 5, 9))
                      <= bound)

    def test_offsets_past_the_reach_are_refused(self, params_tau1):
        table = forward_table(SignalModel.gaussian(TestEngineAccuracy.FAMILY), 1.0, 5, 9)
        reach = recon.OFFSET_REACH / 5
        reconstruct_point([0.0], table, params_tau1, 5, 9, [-reach, reach])
        with pytest.raises(InvalidParameterError, match="M tau"):
            reconstruct_point([0.0], table, params_tau1, 5, 9, [0.0, 1.01 * reach])


class TestAutoTruncation:
    def test_tau1_orders(self, unit_gaussian, params_tau1):
        choice = auto_truncation(unit_gaussian, params_tau1, 1e-8, x_max=3.0)
        assert 4 <= choice.M <= 8
        assert choice.tail_estimate < 1e-8

    def test_supercritical_gate(self, unit_gaussian):
        with pytest.raises(RegimeError):
            auto_truncation(unit_gaussian, nome_from_tau(4.0), 1e-8)

    def test_near_critical_grows_but_terminates(self, unit_gaussian):
        params = nome_from_tau(0.99 * math.pi)
        choice = auto_truncation(unit_gaussian, params, 1e-8, x_max=1.0)
        base = auto_truncation(unit_gaussian, nome_from_tau(1.0), 1e-8, x_max=1.0)
        assert choice.M > base.M

    def test_zero_signal(self, params_tau1):
        zero = SignalModel.gaussian([(0.0, 0.0, 0.0)])
        choice = auto_truncation(zero, params_tau1, 1e-8)
        assert choice.tail_estimate == 0.0

    def test_computes_each_table_entry_once(self, monkeypatch, two_component, params_tau1):
        import gaborlattice.signals as signals

        keys = []
        original = signals.gamma_closed_form

        def counting(rows, cols, *args):  # each call computes every (m, k) of its block
            keys.extend((m, k) for m in np.atleast_1d(rows).tolist()
                        for k in np.atleast_1d(cols).tolist())
            return original(rows, cols, *args)

        monkeypatch.setattr(signals, "gamma_closed_form", counting)
        choice = auto_truncation(two_component, params_tau1, 1e-8, x_max=3.0)
        monkeypatch.undo()
        M, K = choice.M, choice.K
        assert (choice.table.M, choice.table.K) == (M, K)
        assert sorted(keys) == [(m, k) for m in range(-M, M + 1) for k in range(-K, K + 1)]
        alone = forward_table(two_component, 1.0, M, K)
        assert choice.table == alone
        assert choice.table.errors == alone.errors


def stepwise_truncation(signal, params, tol, x_max):
    """Reference for auto_truncation: the growth loop one column pair or row
    pair per step, each step its own forward_table call, then the guard ring.
    Returns (M, K, tail_estimate, table) or raises as auto_truncation does."""
    tau, M_cap, K_cap = params.tau, recon.MAX_M, recon.MAX_K
    coeffs_ln = scaled.ln_abs(*coeff_E(np.arange(-M_cap, M_cap + 1), params))
    table = None

    def cells(M, K):
        nonlocal table
        table = forward_table(signal, tau, M, K, base=table)
        return (coeffs_ln[M_cap - M: M_cap + M + 1, None]
                + scaled.ln_abs(table.mantissa, table.exponent))

    M = min(max(1, math.ceil(math.sqrt(math.log(10.0 / tol) / (tau * (math.pi - tau))))), M_cap)
    K, ln_tol = min(2, K_cap), math.log(tol)
    block = cells(M, K)
    if block.max() == -math.inf:
        return M, K, 0.0, table
    while True:
        grew = False
        while K < K_cap and block[:, [0, -1]].max() >= ln_tol + block.max():
            K, block, grew = K + 1, cells(M, K + 1), True
        while M < M_cap and block[[0, -1]].max() + M * tau * x_max >= ln_tol + block.max():
            M, block, grew = M + 1, cells(M + 1, K), True
        if not grew:
            break
    converged = recon._tail_ln(block, tau, x_max) < ln_tol
    M, K = min(M + 1, M_cap), min(K + 2, K_cap)
    tail = math.exp(recon._tail_ln(cells(M, K), tau, x_max))
    if not converged:
        raise NonConvergenceError("caps", diagnostics={"M": M, "K": K, "tail_ln": math.log(tail)})
    return M, K, tail, table


def seeded_families(seed=18, count=3):
    rng = np.random.default_rng(seed)
    return [SignalModel.gaussian([(complex(*rng.normal(size=2)), rng.uniform(-2, 2),
                                   rng.uniform(-5, 5)) for _ in range(rng.integers(1, 4))])
            for _ in range(count)]


def assert_same_choice(choice, reference):
    M, K, tail, table = reference
    assert (choice.M, choice.K, choice.tail_estimate) == (M, K, tail)
    assert (choice.table.M, choice.table.K) == (M, K)
    assert choice.table == table and choice.table.errors == table.errors


class TestGuardRingGrowth:
    """auto_truncation grows its table in guard-ring steps and must choose
    exactly what the one-step-at-a-time loop chooses."""

    @pytest.mark.parametrize("tau", [0.3, 0.6, 1.0, 2.0, 3.1])
    def test_matches_stepwise_reference(self, tau):
        params = nome_from_tau(tau)
        for signal in seeded_families():
            for tol in (1e-4, 1e-8, 1e-10):
                for x_max in (0.0, 0.3, 3.0, 2.0 * math.pi):
                    choice = auto_truncation(signal, params, tol, x_max=x_max)
                    assert_same_choice(choice, stepwise_truncation(signal, params, tol, x_max))

    @pytest.mark.parametrize("tau, tol, x_max", [(0.6, 1e-6, 3.0), (1.0, 1e-8, 2.0 * math.pi),
                                                 (0.3, 1e-4, 0.3)])
    def test_callbacks_match_stepwise_reference(self, two_component, off_centre, tau, tol, x_max):
        params = nome_from_tau(tau)
        for family, bound in ((two_component, 2.0), (off_centre, 1.5)):
            def callback():  # a fresh sampler: the two runs share no samples
                return SignalModel.callback(lambda x: eval_signal(family, x), bound, 0.0)
            choice = auto_truncation(callback(), params, tol, x_max=x_max)
            assert_same_choice(choice, stepwise_truncation(callback(), params, tol, x_max))

    @pytest.mark.parametrize("caps, x_max", [((64, 4), 0.0), ((3, 4096), 6.0)])
    def test_cap_refusal_matches_stepwise_reference(self, monkeypatch, unit_gaussian,
                                                    params_tau1, caps, x_max):
        monkeypatch.setattr(recon, "MAX_M", caps[0])
        monkeypatch.setattr(recon, "MAX_K", caps[1])
        with pytest.raises(NonConvergenceError) as ours:
            auto_truncation(unit_gaussian, params_tau1, 1e-10, x_max=x_max)
        with pytest.raises(NonConvergenceError) as reference:
            stepwise_truncation(unit_gaussian, params_tau1, 1e-10, x_max)
        assert ours.value.diagnostics == reference.value.diagnostics

    @pytest.mark.parametrize("signal", [
        SignalModel.gaussian([(0.0, 0.0, 0.0)]),
        SignalModel.callback(lambda x: 0j, 0.0, 0.0),
        SignalModel.gaussian([(1.0, 0.7, 2.0), (1.0, -1.0, 0.0)]),
        SignalModel.callback(lambda x: eval_signal(SignalModel.gaussian([(1.0, 0.5, 1.0)]), x),
                             1.0, 0.0),
    ], ids=["zero_family", "zero_callback", "family", "callback"])
    def test_table_extents_equal_choice(self, signal, params_tau1):
        choice = auto_truncation(signal, params_tau1, 1e-8, x_max=3.0)
        assert (choice.table.M, choice.table.K) == (choice.M, choice.K)
        assert (choice.table.errors.M, choice.table.errors.K) == (choice.M, choice.K)

    def test_forward_table_calls_pinned(self, monkeypatch, unit_gaussian, params_tau1):
        # the loop visits (4, 2), (4, 3), ..., (4, 7), then the guard ring
        # (5, 9): the table is grown to (5, 4), then for (4, 5) to K = 2 * 4 + 1
        calls = []
        grow = recon.forward_table

        def counting(signal, tau, M, K, *args, **kwargs):
            calls.append((M, K))
            return grow(signal, tau, M, K, *args, **kwargs)

        monkeypatch.setattr(recon, "forward_table", counting)
        choice = auto_truncation(unit_gaussian, params_tau1, 1e-8, x_max=3.0)
        assert (choice.M, choice.K) == (5, 9)
        assert calls == [(5, 4), (5, 9)]

    def test_content_past_the_first_block_sets_the_scale(self, monkeypatch):
        # content at k = 10 lies past the first block's K = 2: the boundary is weighed
        # against the largest cell of each grown block, so K stops near the content
        signal, params = SignalModel.gaussian([(1.0, 0.3, 10.0)]), nome_from_tau(0.6)
        calls = []
        grow = recon.forward_table

        def counting(signal, tau, M, K, base=None):
            calls.append((M, K, None if base is None else (base.M, base.K)))
            return grow(signal, tau, M, K, base=base)

        monkeypatch.setattr(recon, "forward_table", counting)
        choice = auto_truncation(signal, params, 1e-6, x_max=3.0)
        monkeypatch.undo()
        assert (choice.M, choice.K) == (5, 18)
        assert_same_choice(choice, stepwise_truncation(signal, params, 1e-6, 3.0))
        assert len(calls) <= 4
        M, K, held = calls[-1]  # the last call only cuts the table to the choice
        assert held is not None and M <= held[0] and K <= held[1]


class TestRoundTrip:
    def test_unit_gaussian_tau1(self, unit_gaussian):
        report = round_trip(unit_gaussian, 1.0,
                            ReconConfig(tol=1e-8, grid=(-3.0, 3.0, 0.05)))
        assert report.sup_error <= 1e-6
        assert report.l2_error <= report.sup_error * math.sqrt(len(report.xs)) + 1e-18

    def test_two_component_tau08(self, two_component):
        report = round_trip(two_component, 0.8,
                            ReconConfig(tol=1e-8, grid=(-3.0, 3.0, 0.05)))
        assert report.l2_error <= 1e-5

    def test_corpus_and_taus(self, unit_gaussian, two_component):
        corpus = [
            unit_gaussian,
            two_component,
            SignalModel.gaussian([(0.5 - 0.3j, 1.2, -1.0)]),
        ]
        for sig in corpus:
            for tau in (0.5, 1.0, 2.0, 0.8 * math.pi):
                report = round_trip(sig, tau, ReconConfig(tol=1e-8, grid=(-3.0, 3.0, 0.25)))
                assert report.sup_error <= max(1e-6, 100.0 * report.tail_estimate), (
                    sig, tau, report.sup_error)

    def test_callback_entries_computed_once(self, two_component, monkeypatch):
        # each call computes every (m, k) of its rows and columns
        import gaborlattice.signals as signals

        keys = []
        quadrature = signals.gamma_quadrature

        def counting(rows, cols, *args):
            keys.extend((m, k) for m in np.atleast_1d(rows).tolist()
                        for k in np.atleast_1d(cols).tolist())
            return quadrature(rows, cols, *args)

        monkeypatch.setattr(signals, "gamma_quadrature", counting)
        cb = SignalModel.callback(lambda x: eval_signal(two_component, x), bound=2.0, growth=0.0)
        report = round_trip(cb, 0.6, ReconConfig(tol=1e-4, grid=(-1.0, 1.0, 0.5)))
        M, K = report.M_used, report.K_used
        # every entry of the final table exactly once, and no other entry
        assert sorted(keys) == [(m, k) for m in range(-M, M + 1) for k in range(-K, K + 1)]

    def test_callback_sampled_once_per_node(self, two_component):
        # the truncation loop's tables share their samples: no node twice
        calls = [0]

        def f(x):
            calls[0] += 1
            return eval_signal(two_component, x)

        cb = SignalModel.callback(f, bound=2.0, growth=0.0)
        choice = auto_truncation(cb, nome_from_tau(0.6), 1e-6, x_max=3.0)
        grown, calls[0] = calls[0], 0
        alone = forward_table(cb, 0.6, choice.M, choice.K)
        assert grown == calls[0]
        assert choice.table == alone and choice.table.errors == alone.errors

    def test_callback_sampled_node_count_pinned(self, off_centre):
        # the nodes a callback auto_truncation samples: each row's window on
        # each level it refines, and no node between windows
        calls = [0]

        def f(x):
            calls[0] += 1
            return eval_signal(off_centre, x)

        cb = SignalModel.callback(f, bound=1.5, growth=0.0)
        choice = auto_truncation(cb, nome_from_tau(0.6), 1e-6, x_max=3.0)
        assert (choice.M, choice.K, calls[0]) == (5, 17, 1214)

    def test_modulated_callback_meets_tol_fast(self):
        # content at nu = 10: the truncation loop once ran K toward MAX_K here
        def f(x):
            return cmath.exp(10j * x) * math.exp(-(x - 0.3) ** 2 / 4.0)

        start = time.perf_counter()
        report = round_trip(SignalModel.callback(f, 1.0, 0.0), 0.6,
                            ReconConfig(tol=1e-6, grid=(-3.0, 3.0, 0.05)))
        assert time.perf_counter() - start < 1.0
        assert (report.M_used, report.K_used) == (5, 18)
        assert report.sup_error <= 1e-6

    @pytest.mark.parametrize("kind", ["family", "callback"])
    def test_coefficient_block_built_once(self, monkeypatch, two_component, kind):
        # auto_truncation, reconstruct_grid and reconstruct_point each call coeff_E
        # on the round trip's one LatticeParams, which computes E_m once
        from gaborlattice import qtheta

        built = []
        fresh = qtheta._coefficients
        monkeypatch.setattr(qtheta, "_coefficients", lambda *args: built.append(args) or
                            fresh(*args))
        signal = two_component if kind == "family" else SignalModel.callback(
            lambda x: eval_signal(two_component, x), bound=2.0, growth=0.0)
        round_trip(signal, 0.6, ReconConfig(tol=1e-6, grid=(-3.0, 3.0, 0.05)))
        assert len(built) == 1

    def test_monotone_truncation(self, unit_gaussian):
        errors = []
        for M in (3, 4, 5, 6):
            report = round_trip(unit_gaussian, 1.0,
                                ReconConfig(grid=(-3.0, 3.0, 0.25), truncation=(M, 9)))
            errors.append(report.sup_error)
        for earlier, later in zip(errors, errors[1:]):
            assert later <= earlier + 1e-10

    def test_translation_covariance(self, two_component):
        # table of f(. - a) reconstructs to the shifted evaluation of f
        for a in (0.5, 1.0):
            shifted = SignalModel.gaussian([
                (amp * complex(math.cos(-b * a), math.sin(-b * a)), c + a, b)
                for (amp, c, b) in [(1.0, 0.7, 2.0), (1.0, -1.0, 0.0)]
            ])
            report = round_trip(shifted, 0.8,
                                ReconConfig(tol=1e-8, grid=(-2.0, 3.0, 0.25)))
            reference = np.array([
                eval_signal(two_component, float(x) - a) for x in report.xs
            ])
            sup = np.max(np.abs(report.reconstructed - reference))
            assert sup <= 1e-6 * np.max(np.abs(reference))

    def test_degradation_toward_critical_wide_signal(self):
        """Fixed-truncation error grows toward the critical density.

        This needs a signal with slowly decaying spatial extent: for a
        lone narrow Gaussian the omitted-ring weight shrinks as tau
        grows (its aliased sums sit far below the frame-level envelope
        exp(tau^2 m^2)), and the round-trip error *improves* toward
        criticality.  Spreading components out restores the envelope
        and with it the advertised exp(-tau(pi - tau) M^2) degradation.
        """
        wide = SignalModel.gaussian(
            [(1.0, c, 0.0) for c in (-12.0, -6.0, 0.0, 6.0, 12.0)])
        errors = []
        for tau in (0.5 * math.pi, 0.8 * math.pi, 0.95 * math.pi):
            report = round_trip(wide, tau,
                                ReconConfig(grid=(-3.0, 3.0, 0.1), truncation=(2, 10)))
            errors.append(report.sup_error)
        assert errors[0] < errors[1] < errors[2]


class TestGridDriver:
    def test_irrational_step_grid(self, unit_gaussian, params_tau1):
        table = forward_table(unit_gaussian, 1.0, 4, 8)
        cfg = ReconConfig(grid=(-1.0, 1.0, 0.1 * math.sqrt(2.0)), truncation=(4, 8))
        report = reconstruct_grid(cfg, table, params_tau1, reference=unit_gaussian)
        assert report.sup_error <= 1e-8

    def test_error_metrics_come_from_abs_error(self, two_component, params_tau1):
        table, config = forward_table(two_component, 1.0, 5, 9), ReconConfig(grid=(-3.0, 3.0, 0.01))
        report = reconstruct_grid(config, table, params_tau1, reference=two_component)
        rec, ref = report.reconstructed, report.reference
        exact = [abs(complex(a) - complex(b)) for a, b in zip(rec.tolist(), ref.tolist())]
        assert report.abs_error.tolist() == exact  # each rounded as abs(complex) rounds it
        assert report.sup_error == max(exact) / np.max(np.abs(ref))
        assert report.l2_error == np.linalg.norm(report.abs_error) / np.linalg.norm(ref)
        assert reconstruct_grid(config, table, params_tau1).abs_error is None

    def test_empty_grid(self, unit_gaussian, params_tau1):
        table = forward_table(unit_gaussian, 1.0, 2, 2)
        cfg = ReconConfig(grid=(1.0, -1.0, 0.5), truncation=(2, 2))
        report = reconstruct_grid(cfg, table, params_tau1, reference=unit_gaussian)
        assert len(report.xs) == 0
        assert report.sup_error == 0.0

    def test_tail_estimate_at_orders_used(self, two_component, params_tau1):
        table = forward_table(two_component, 1.0, 5, 9)
        grid = (-2.0, 2.0, 0.5)
        auto = reconstruct_grid(ReconConfig(grid=grid), table, params_tau1)
        full = reconstruct_grid(ReconConfig(grid=grid, truncation=(5, 9)), table, params_tau1)
        small = reconstruct_grid(ReconConfig(grid=grid, truncation=(2, 4)), table, params_tau1)
        assert (auto.M_used, auto.K_used) == (5, 9)
        assert full.tail_estimate == auto.tail_estimate
        assert small.tail_estimate > 1e3 * full.tail_estimate

    def test_tau_mismatch_rejected(self, unit_gaussian):
        table = forward_table(unit_gaussian, 1.0, 2, 2)
        with pytest.raises(InvalidParameterError):
            reconstruct_grid(ReconConfig(truncation=(2, 2)), table, nome_from_tau(1.1))

    def test_grid_points_deterministic(self):
        xs = grid_points((-3.0, 3.0, 0.05))
        assert len(xs) == 121
        assert xs[0] == -3.0
        assert xs[-1] == pytest.approx(3.0, abs=1e-12)

    def test_desk_scale_guard(self, unit_gaussian, params_tau1):
        table = forward_table(unit_gaussian, 1.0, 1, 1)
        cfg = ReconConfig(grid=(0.0, 1e6, 1e-2), truncation=(1, 1))
        with pytest.raises(InvalidParameterError, match="desk-scale"):
            reconstruct_grid(cfg, table, params_tau1)

    @pytest.mark.parametrize("truncation", [(2.5, 3), (True, 3), (3, False), (-1, 3), (3, -2)])
    def test_truncation_orders_must_be_integers_at_least_zero(self, truncation):
        with pytest.raises(InvalidParameterError, match="truncation"):
            ReconConfig(truncation=truncation)

    @pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -0.5])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(InvalidParameterError, match="bad grid"):
            ReconConfig(grid=(-1.0, 1.0, step))

    @pytest.mark.parametrize("reach", [200.0, 800.0])
    @pytest.mark.parametrize("truncation", [None, (5, 9)])
    def test_wide_grid_saturates(self, unit_gaussian, reach, truncation):
        # e^{M tau |x|} of the tail estimate leaves the double range here:
        # a SaturationError, not a builtin OverflowError
        cfg = ReconConfig(grid=(-reach, reach, reach / 4), truncation=truncation)
        with pytest.raises(SaturationError):
            round_trip(unit_gaussian, 1.0, cfg)


def test_calibration_recovers_one_over_two_pi():
    fitted = calibrate_constant()
    assert fitted == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-8)
    assert RECONSTRUCTION_CONSTANT == pytest.approx(fitted, rel=1e-8)
