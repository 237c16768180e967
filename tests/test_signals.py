import cmath
import json
import math

import numpy as np
import pytest

from gaborlattice import (
    DomainError,
    GammaTable,
    InvalidParameterError,
    NonConvergenceError,
    ScaledValue,
    SignalModel,
    eval_signal,
    forward_table,
    gamma_closed_form,
    gamma_quadrature,
    signals,
    windowed_sample_scaled,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def counted(signal, calls, bound):
    """``signal`` as a black-box callback that counts its samples into ``calls[0]``."""
    def f(x):
        calls[0] += 1
        return eval_signal(signal, x)

    return SignalModel.callback(f, bound=bound, growth=0.0)


class TestSignalModel:
    def test_eval_gaussian(self, unit_gaussian):
        assert eval_signal(unit_gaussian, 0.0) == 1.0
        assert eval_signal(unit_gaussian, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_zero_amplitude(self):
        zero = SignalModel.gaussian([(0.0, 0.0, 0.0)])
        for x in (-1.0, 0.0, 2.5):
            assert eval_signal(zero, x) == 0.0

    def test_eval_array_is_scalar_calls(self, two_component):
        calls = []

        def sampler(x):
            calls.append(x)
            return complex(np.exp(-x * x / 4.0 + 1j * x))

        callback = SignalModel.callback(sampler, bound=1.0, growth=0.0)
        with_zero = SignalModel.gaussian([(0.0, 0.3, 1.0), (0.5 - 1.0j, -0.7, 0.4)])
        xs = np.array([[-40.0, -1.3, 0.0], [0.1, 2.2, 200.0]])
        for signal in (two_component, with_zero, callback):
            values = eval_signal(signal, xs)
            assert values.shape == xs.shape
            assert values.ravel().tolist() == [eval_signal(signal, float(x)) for x in xs.ravel()]
        assert calls == xs.ravel().tolist() * 2  # once per point and call
        with pytest.raises(DomainError):
            eval_signal(two_component, np.array([0.0, math.inf]))

    def test_needs_component(self):
        with pytest.raises(InvalidParameterError):
            SignalModel.gaussian([])

    def test_callback_requires_metadata(self):
        with pytest.raises(TypeError):
            SignalModel.callback(lambda x: 0.0)  # bound/growth are not optional
        with pytest.raises(InvalidParameterError):
            SignalModel.callback(lambda x: 0.0, bound=math.inf, growth=0.0)
        with pytest.raises(InvalidParameterError):
            SignalModel.callback(lambda x: 0.0, bound=1.0, growth=math.inf)

    def test_windowed_sample_matches_plain(self, two_component):
        for x in (-1.3, 0.0, 2.2):
            direct = eval_signal(two_component, x) * math.exp(-x * x / 4) / (2 * math.pi)
            scaled = windowed_sample_scaled(two_component, x).to_complex()
            assert scaled == pytest.approx(direct, rel=1e-13)

    def test_windowed_sample_survives_deep_tails(self, unit_gaussian):
        v = windowed_sample_scaled(unit_gaussian, 200.0)
        assert v.ln_abs() == pytest.approx(-200.0 ** 2 / 2 - math.log(2 * math.pi), rel=1e-12)

    def test_windowed_sample_array_is_scalar_calls(self, two_component):
        calls = []

        def sampler(x):
            calls.append(x)
            return eval_signal(two_component, x)

        callback = SignalModel.callback(sampler, bound=2.0, growth=0.0)
        with_zero = SignalModel.gaussian([(0.0, 0.3, 1.0), (0.5 - 1.0j, -0.7, 0.4)])
        xs = np.array([-40.0, -1.3, 0.0, 2.2, 200.0])
        for signal in (two_component, with_zero, callback):
            mant, exps = windowed_sample_scaled(signal, xs)
            assert [ScaledValue(m, int(e)) for m, e in zip(mant, exps)] == \
                [windowed_sample_scaled(signal, float(x)) for x in xs]
        assert calls == xs.tolist() * 2  # the callback is sampled once per point and call

    def test_windowed_sample_refuses_non_finite_callback(self):
        signal = SignalModel.callback(lambda x: math.nan if x > 1 else 1.0, bound=1.0, growth=0.0)
        with pytest.raises(InvalidParameterError):
            windowed_sample_scaled(signal, np.array([0.0, 2.0]))


class TestClosedForm:
    def test_unit_values(self, unit_gaussian):
        assert gamma_closed_form(0, 0, unit_gaussian, 1.0)[0].to_complex() == pytest.approx(
            SQRT_2PI, rel=1e-14)
        assert gamma_closed_form(1, 0, unit_gaussian, 1.0)[0].to_complex() == pytest.approx(
            SQRT_2PI * math.exp(0.5), rel=1e-14)
        v = gamma_closed_form(0, 1, unit_gaussian, 1.0)[0].to_complex()
        assert v == pytest.approx(SQRT_2PI * math.exp(-0.5), rel=1e-14)
        assert v.imag == pytest.approx(0.0, abs=1e-18)

    def test_rounding_bound_holds_against_mpmath(self, two_component):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        # |m| up to 14 takes ln|gamma| past ScaledValue's base, LN_BASE ~ 88.7
        table = forward_table(two_component, 1.0, 14, 3)
        for m in range(-14, 15):
            for k in range(-3, 4):
                exact, scale = mp.mpc(0), mp.mpf(0)
                for comp in two_component.components:
                    s = mp.mpf(comp.center) / 2 - m + 1j * (mp.mpf(comp.modulation) - k)
                    term = (mp.mpc(comp.amplitude) * mp.exp(-mp.mpf(comp.center) ** 2 / 4)
                            * mp.sqrt(2 * mp.pi) * mp.exp(s * s / 2))
                    exact += term
                    scale += abs(term)
                sv, bound = table.get(m, k), table.errors.get(m, k)
                err = abs(mp.mpc(sv.mantissa) * mp.mpf(2) ** (128 * sv.exponent) - exact)
                ln_bound = bound.ln_abs()
                assert mp.log(err) <= ln_bound, (m, k)
                assert ln_bound <= mp.log(1e-12 * scale), (m, k)

    def test_block_equals_single_entries(self, two_component):
        with_zero = SignalModel.gaussian([(0.0, 0.3, 1.0), (0.5 - 1.0j, -0.7, 0.4)])
        rows, cols = (-14, -2, 0, 3, 9), (-7, -1, 0, 4, 9)
        for signal in (two_component, with_zero):
            mant, exps = gamma_closed_form(rows, cols, signal, 0.7)
            for i, m in enumerate(rows):
                for j, k in enumerate(cols):
                    value, err = gamma_closed_form(m, k, signal, 0.7)
                    assert (value.mantissa, value.exponent) == (mant[0, i, j], exps[0, i, j])
                    assert (err.mantissa, err.exponent) == (mant[1, i, j], exps[1, i, j])

    def test_wrong_kind_rejected(self):
        cb = SignalModel.callback(lambda x: 1.0, bound=1.0, growth=0.0)
        with pytest.raises(InvalidParameterError):
            gamma_closed_form(0, 0, cb, 1.0)


class TestQuadrature:
    def test_matches_closed_form_for_gaussian_callback(self):
        cb = SignalModel.callback(lambda x: cmath.exp(-x * x / 4), bound=1.0, growth=0.0)
        ref, _ = gamma_closed_form(0, 0, SignalModel.gaussian([(1, 0, 0)]), 1.0)
        got, _ = gamma_quadrature(0, 0, cb, 1.0)
        assert got.to_complex() == pytest.approx(ref.to_complex(), rel=1e-10)

    def test_zero_callback(self):
        cb = SignalModel.callback(lambda x: 0.0, bound=0.0, growth=0.0)
        value, _ = gamma_quadrature(2, 1, cb, 1.0)
        assert value.to_complex() == 0j

    def test_vanishing_samples_keep_the_tail_bound(self):
        # a zero sampler under a non-zero envelope: only the tail is uncertain
        cb = SignalModel.callback(lambda x: 0.0, bound=1.0, growth=0.0)
        value, err = gamma_quadrature(2, 1, cb, 1.0)
        assert value.to_complex() == 0j
        assert -math.inf < err.ln_abs() - 4.0 <= math.log(1e-9)

    def test_shifted_modulated_cross_check(self):
        def f(x):
            return cmath.exp(-(x - 0.7) ** 2 / 4 + 2j * x)

        cb = SignalModel.callback(f, bound=1.0, growth=0.0)
        ga = SignalModel.gaussian([(1.0, 0.7, 2.0)])
        for m in range(-3, 4):
            for k in range(-3, 4):
                got, _ = gamma_quadrature(m, k, cb, 1.0)
                ref = gamma_closed_form(m, k, ga, 1.0)[0].to_complex()
                rel = abs(got.to_complex() - ref) / abs(ref)
                assert rel <= 10.0 * signals.QUAD_TOL, (m, k, rel)

    def test_random_families_cross_check(self):
        # Where oscillation cancels |gamma| far below the integrand's L1
        # scale S, double-precision sampling cannot reach QUAD_TOL relative;
        # the returned bound must hold everywhere and be QUAD_TOL-relative
        # except where such cancellation limits it.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(7)
        for _ in range(20):
            comps = [
                (complex(rng.normal(), rng.normal()), float(rng.normal() * 1.5),
                 float(rng.normal() * 2.0))
                for _ in range(int(rng.integers(1, 3)))
            ]
            gsig = SignalModel.gaussian(comps)
            bound = sum(abs(a) for a, _, _ in comps)

            def f(x, comps=comps):
                return sum(a * cmath.exp(-(x - c) ** 2 / 4 + 1j * b * x)
                           for a, c, b in comps)

            csig = SignalModel.callback(f, bound=bound, growth=0.0)
            for m in range(-3, 4):
                for k in range(-3, 4):
                    got, err = gamma_quadrature(m, k, csig, 1.0)
                    ref = gamma_closed_form(m, k, gsig, 1.0)[0].to_complex()
                    s_ref = sum(
                        abs(a) * math.exp(-c * c / 4) * SQRT_2PI
                        * math.exp((c / 2 - m) ** 2 / 2)
                        for a, c, _ in comps
                    )
                    bound = err.to_complex().real
                    assert abs(got.to_complex() - ref) <= bound, (m, k)
                    tol_part = 10.0 * signals.QUAD_TOL * abs(ref)
                    assert bound <= max(tol_part, 64 * eps * s_ref), (m, k)

    def test_envelope_spot_check_fires(self):
        lying = SignalModel.callback(lambda x: cmath.exp(abs(x)), bound=1.0, growth=0.0)
        with pytest.raises(InvalidParameterError, match="envelope"):
            gamma_quadrature(0, 0, lying, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)])
    def test_non_finite_sample_refused(self, bad):
        calls = [0]

        def f(x):
            calls[0] += 1
            return bad if abs(x - 0.3) < 0.2 else cmath.exp(-x * x / 4)

        cb = SignalModel.callback(f, bound=1.0, growth=0.0)
        with pytest.raises(InvalidParameterError, match="at x=0.25"):
            gamma_quadrature(0, 0, cb, 1.0)
        # refused within the first pass over the level-0 grid on |x| < 13
        assert calls[0] <= 2 * 13 / 0.25 + 1

    @pytest.mark.parametrize("tau, M, K, growth", [
        (1.0, 9, 6, 0.0),   # rows scaled up to e^{81}
        (1.0, 3, 3, 0.5),   # a growing declared envelope widens the windows
    ])
    def test_bounds_hold_across_regimes(self, tau, M, K, growth):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(11)
        for _ in range(3):
            comps = [(complex(rng.normal(), rng.normal()), float(rng.normal() * 1.5),
                      float(rng.normal() * 2.0)) for _ in range(2)]
            gsig = SignalModel.gaussian(comps)
            csig = SignalModel.callback(lambda x, g=gsig: eval_signal(g, x),
                                        bound=sum(abs(a) for a, _, _ in comps), growth=growth)
            table = forward_table(csig, tau, M, K)
            for m in range(-M, M + 1):
                s_ref = sum(abs(a) * math.exp(-c * c / 4) * SQRT_2PI
                            * math.exp((c / 2 - tau * m) ** 2 / 2) for a, c, _ in comps)
                for k in range(-K, K + 1):
                    ref = gamma_closed_form(m, k, gsig, tau)[0].to_complex()
                    bound = table.errors.get(m, k).to_complex().real
                    assert abs(table.get(m, k).to_complex() - ref) <= bound, (m, k)
                    tol_part = 10.0 * signals.QUAD_TOL * abs(ref)
                    assert bound <= max(tol_part, 64 * eps * s_ref), (m, k)

    @pytest.mark.parametrize("cols", [(-7, -1, 0, 4, 9), (-7, -3, 5), (-9, -5, -2, 2, 7)],
                             ids=str)
    def test_block_equals_single_entries(self, two_component, off_centre, cols):
        # |k| >= 6 starts past level 0; the off-centre rows have three window radii.  A
        # block makes e^{-ikx} once per |k| and conjugates it for -k: each entry keeps
        # the bits of its single-entry call, signs of zeros included
        rows = (-2, 0, 3)
        for signal in (counted(two_component, [0], 2.0), counted(off_centre, [0], 1.5)):
            lineage = signals._Lineage()
            mant, exps = gamma_quadrature(rows, cols, signal, 0.7, lineage=lineage)
            for i, m in enumerate(rows):
                for j, k in enumerate(cols):
                    value, err = gamma_quadrature(m, k, signal, 0.7)
                    alone = np.array([value.mantissa, err.mantissa])
                    assert alone.tobytes() == mant[:, i, j].tobytes(), (m, k)
                    assert (value.exponent, err.exponent) == tuple(exps[:, i, j])
        assert len({radius for radius, _, _ in lineage.rows.values()}) == len(rows)

    def test_refinement_cap_names_the_first_capped_row(self, monkeypatch):
        # a cap of 2 halvings pins the diagnostics at level 2 within milliseconds
        monkeypatch.setattr(signals, "MAX_REFINEMENTS", 2)
        jump = SignalModel.callback(lambda x: 1.0 if x > 0.1 else 0.0, bound=1.0, growth=0.0)
        with pytest.raises(NonConvergenceError) as info:
            forward_table(jump, 1.0, 2, 8)
        assert info.value.diagnostics == {"m": -2, "k": list(range(-8, 9)), "level": 2}
        # a step of 1e-5 at x = 4.1 leaves row 2 (window centre -4) rough only at k = 12,
        # capped at level 4, but row -2 (centre 4) at every k, capped at level 2
        step = SignalModel.callback(lambda x: 1.0 + (1e-5 if x > 4.1 else 0.0),
                                    bound=1.0 + 1e-5, growth=0.0)
        with pytest.raises(NonConvergenceError) as info:
            gamma_quadrature((2, -2), (0, 3, 12), step, 1.0)
        assert info.value.diagnostics == {"m": -2, "k": [0, 3, 12], "level": 2}


class TestQuadratureBlock:
    @pytest.mark.parametrize("tau, M, K", [(0.6, 5, 13), (0.3, 9, 12), (1.0, 5, 60)])
    @pytest.mark.parametrize("budget", [64, 2**9, 2**12])
    def test_block_elements_change_no_bit(self, monkeypatch, off_centre, tau, M, K, budget):
        # smaller budgets cut a level's windows into more runs and its columns into
        # more chunks; at 2^9 every table here takes several of each
        default = forward_table(counted(off_centre, [0], 1.5), tau, M, K)
        monkeypatch.setattr(signals, "BLOCK_ELEMENTS", budget)
        small = forward_table(counted(off_centre, [0], 1.5), tau, M, K)
        assert small == default and small.errors == default.errors

    @pytest.mark.parametrize("j", [0, 3])
    def test_level_sums_are_the_direct_sums_bit_for_bit(self, off_centre, j):
        # a run's windowed samples as one array, and e^{-ikx} made once per |k| and
        # conjugated for -k, give the bits of each window's own direct sum
        x0, r, cols = np.array([1.4, -0.6]), np.array([9.0, 11.5]), np.array([-9, -5, 0, 2, 5, 7])
        got = signals._level_sums(counted(off_centre, [0], 1.5), signals._Lineage(), j, x0, r, cols)
        h = signals.H0 / 2 ** j
        for i in range(len(x0)):
            xs = np.arange(math.ceil((x0[i] - r[i]) / h), math.floor((x0[i] + r[i]) / h) + 1) * h
            g = eval_signal(off_centre, xs) * np.exp(-(xs - x0[i]) ** 2 / 4.0)
            want = h * np.sum(np.exp(-1j * np.outer(cols, xs)) * g, axis=1)
            assert got[i].tobytes() == want.tobytes()

    def test_no_node_between_windows_sampled(self, off_centre):
        # at tau = 2 the windows of rows -6 and 6 are far apart: the block
        # samples what the two rows sample alone, and nothing between them
        calls, alone = [0], []
        for m in (-6, 6):
            calls[0] = 0
            gamma_quadrature(m, 7, counted(off_centre, calls, 1.5), 2.0)
            alone.append(calls[0])
        calls[0] = 0
        gamma_quadrature((-6, 6), (7,), counted(off_centre, calls, 1.5), 2.0)
        assert calls[0] == sum(alone)


class TestForwardTable:
    def test_single_entry(self, unit_gaussian):
        table = forward_table(unit_gaussian, 1.0, 0, 0)
        assert table.mantissa.shape == (1, 1)
        assert table.get(0, 0).to_complex() == pytest.approx(SQRT_2PI, rel=1e-14)

    def test_zero_signal(self):
        zero = SignalModel.gaussian([(0.0, 0.0, 0.0)])
        table = forward_table(zero, 1.0, 2, 2)
        assert all(table.get(m, k).is_zero for m in range(-2, 3) for k in range(-2, 3))

    def test_conjugate_symmetry_real_signal(self):
        sig = SignalModel.gaussian([(1.0, 0.4, 0.0), (0.25, -1.0, 0.0)])
        table = forward_table(sig, 1.0, 2, 5)
        for m in range(-2, 3):
            for k in range(0, 6):
                a = table.get(m, k).to_complex()
                b = table.get(m, -k).to_complex()
                assert abs(b - a.conjugate()) <= 1e-10 * abs(a)

    def test_linearity(self):
        s1 = SignalModel.gaussian([(1.0, 0.5, 1.0)])
        s2 = SignalModel.gaussian([(1.0, -0.3, 0.0)])
        mix = SignalModel.gaussian([(2.0, 0.5, 1.0), (3j, -0.3, 0.0)])
        t1 = forward_table(s1, 1.0, 2, 3)
        t2 = forward_table(s2, 1.0, 2, 3)
        t12 = forward_table(mix, 1.0, 2, 3)
        for m in range(-2, 3):
            for k in range(-3, 4):
                lhs = t12.get(m, k).to_complex()
                rhs = 2.0 * t1.get(m, k).to_complex() + 3j * t2.get(m, k).to_complex()
                assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_row_growth_bounded(self, unit_gaussian):
        # ln|gamma_{m,0}| - tau^2 m^2 must stay bounded above: the scaled
        # exponents absorb the growth instead of saturating
        table = forward_table(unit_gaussian, 2.0, 8, 2)
        excess = [table.get(m, 0).ln_abs() - 4.0 * m * m for m in range(-8, 9)]
        assert max(excess) < 2.0
        assert all(math.isfinite(e) for e in excess)

    def test_payload_roundtrip_bit_exact(self, two_component, unit_gaussian):
        table = forward_table(two_component, 0.8, 2, 3)
        clone = GammaTable.from_payload(2, 3, 0.8, table.to_payload())
        assert clone == table
        # row 0 spans e^{800}; scaled to one exponent per row its edge
        # would fall below the smallest subnormal, e^{-745}: only
        # per-entry exponents keep it exact
        wide = forward_table(unit_gaussian, 1.0, 1, 40)
        assert wide.get(0, 0).ln_abs() - wide.get(0, 40).ln_abs() > 745
        payload = wide.to_payload()
        clone = GammaTable.from_payload(1, 40, 1.0, payload)
        assert clone == wide and clone.to_payload() == payload

    def test_payload_in_any_order(self, two_component):
        table = forward_table(two_component, 0.8, 1, 2)
        payload = {key: column[::-1] for key, column in table.to_payload().items()}
        assert GammaTable.from_payload(1, 2, 0.8, payload) == table

    @pytest.mark.parametrize("column, index, value", [
        ("m", 0, -2),            # outside the extents
        ("k", 1, -2),            # (-1, -2) twice, (-1, -1) missing
        ("exponent", 0, 0.5),    # not an integer
        ("mantissa_re", 0, "x"),
        ("mantissa_im", 0, math.nan),
    ])
    def test_bad_payload_refused(self, two_component, column, index, value):
        payload = forward_table(two_component, 0.8, 1, 2).to_payload()
        payload[column][index] = value
        with pytest.raises(InvalidParameterError):
            GammaTable.from_payload(1, 2, 0.8, payload)
        payload = forward_table(two_component, 0.8, 1, 2).to_payload()
        payload[column].append(payload[column][-1])
        with pytest.raises(InvalidParameterError, match="list of 15"):
            GammaTable.from_payload(1, 2, 0.8, payload)

    def test_base_changes_nothing(self, two_component):
        cb = SignalModel.callback(lambda x: eval_signal(two_component, x), bound=2.0, growth=0.0)
        for signal in (two_component, cb):
            alone = forward_table(signal, 0.6, 2, 4)
            # a smaller base, and one wider in m than the table it seeds
            for M, K in ((1, 2), (3, 1)):
                base = forward_table(signal, 0.6, M, K)
                grown = forward_table(signal, 0.6, 2, 4, base=base)
                assert grown == alone
                assert grown.errors == alone.errors

    def test_grown_callback_table_equals_one_shot(self, two_component, off_centre):
        # a K step, an M step and a guard ring, as auto_truncation grows a table
        calls = [0]
        for cb in (counted(two_component, calls, 2.0), counted(off_centre, calls, 1.5)):
            table, calls[0] = None, 0
            for M, K in ((2, 2), (2, 3), (3, 3), (4, 5), (4, 9)):  # |k| >= 6 starts past level 0
                table = forward_table(cb, 0.6, M, K, base=table)
            grown, calls[0] = calls[0], 0
            alone = forward_table(cb, 0.6, 4, 9)
            assert grown == calls[0]  # each node sampled once across the lineage
            assert table == alone and table.errors == alone.errors
            assert json.dumps(table.to_payload()) == json.dumps(alone.to_payload())
        clone = GammaTable.from_payload(4, 9, 0.6, table.to_payload())
        assert clone == table and clone.errors is None and clone._lineage is None

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)])
    def test_refused_sample_is_not_stored(self, bad):
        calls = [0]

        def f(x):
            calls[0] += 1
            return bad if x >= 14.0 else cmath.exp(-x * x / 4)

        cb = SignalModel.callback(f, bound=1.0, growth=0.0)
        base = forward_table(cb, 0.6, 1, 2)  # its windows end below x = 14
        counts = []
        for _ in range(2):  # the second try samples, and fails, as the first did
            calls[0] = 0
            with pytest.raises(InvalidParameterError, match="at x=14$"):
                forward_table(cb, 0.6, 3, 2, base=base)
            counts.append(calls[0])
        assert counts[0] == counts[1] > 0
        with pytest.raises(InvalidParameterError, match="at x=14$"):
            forward_table(cb, 0.6, 3, 2)

    def test_foreign_or_payload_base_refused(self, two_component, unit_gaussian):
        base = forward_table(two_component, 0.6, 1, 1)
        for args in ((unit_gaussian, 0.6, 2, 2), (two_component, 0.8, 2, 2)):
            with pytest.raises(InvalidParameterError, match="another signal"):
                forward_table(*args, base=base)
        payload = GammaTable.from_payload(1, 1, 0.6, base.to_payload())
        assert payload == base
        with pytest.raises(InvalidParameterError, match="from a payload"):
            forward_table(two_component, 0.6, 2, 2, base=payload)

    def test_entries_keep_their_bounds(self, two_component):
        cb = SignalModel.callback(lambda x: eval_signal(two_component, x), bound=2.0, growth=0.0)
        table = forward_table(cb, 0.8, 1, 2)
        for m in range(-1, 2):
            for k in range(-2, 3):
                value, err = gamma_quadrature(m, k, cb, 0.8)
                assert table.get(m, k) == value
                assert table.errors.get(m, k) == err
        closed = forward_table(two_component, 0.8, 1, 2)
        assert all(closed.errors.get(m, k).ln_abs() > -math.inf
                   for m in range(-1, 2) for k in range(-2, 3))
        clone = GammaTable.from_payload(1, 2, 0.8, closed.to_payload())
        assert clone == closed and clone.errors is None

    def test_invalid_extents(self, unit_gaussian):
        for M, K in ((-1, 0), (0, -1), (2.5, 3), (True, 3), (1, 2.0)):
            with pytest.raises(InvalidParameterError):
                forward_table(unit_gaussian, 1.0, M, K)
        table = forward_table(unit_gaussian, 1.0, 1, 1)
        with pytest.raises(InvalidParameterError):
            table.get(2, 0)


def test_callback_quadrature_aliases_content_at_the_level_period():
    """A known hole, pinned as it stands: an entry stops when levels j and j+1
    agree, and content at nu = k +- 2 pi / h_1 (+-50.27 for the columns |k| <= 5,
    which start at level 0, h_0 = H0) aliases identically into both levels.  The
    unit Gaussian modulated by e^{-48ix} therefore comes back wrong by orders of
    magnitude more than its stated bounds, and round_trip reports a tiny tail."""
    from gaborlattice import ReconConfig, round_trip
    from gaborlattice.scaled import to_complex

    def sampler(x):
        return math.exp(-x * x / 4.0) * cmath.exp(-48j * x)

    callback = SignalModel.callback(sampler, 1.0, 0.0)
    table = forward_table(callback, 1.0, 1, 4)
    exact = to_complex(_mant_exp(forward_table(SignalModel.gaussian([(1.0, 0.0, -48.0)]),
                                               1.0, 1, 4)))
    miss = np.abs(to_complex(_mant_exp(table)) - exact)
    bound = to_complex(_mant_exp(table.errors)).real
    # entries (m, 2) carry the aliased mode: off by O(1) with bounds below 1e-9
    assert np.all(miss[:, 2 + 4] > 1.0) and np.all(bound[:, 2 + 4] < 1e-9)
    assert np.max(miss / bound) > 1e9
    report = round_trip(callback, 1.0, ReconConfig(tol=1e-8, grid=(-3.0, 3.0, 0.05)))
    assert (report.M_used, report.K_used) == (5, 8)
    assert report.tail_estimate < 1e-16 and report.sup_error > 1.0


def _mant_exp(table):
    return table.mantissa, table.exponent
