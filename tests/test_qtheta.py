import functools
import math
import warnings

import numpy as np
import pytest

from gaborlattice import (
    DomainError,
    InvalidParameterError,
    NonConvergenceError,
    SaturationError,
    ScaledValue,
    coeff_E,
    eta,
    euler_product,
    lattice_derivative_candidate,
    nome_from_tau,
    theta_prime_lattice,
    theta_prime_one,
    theta_product,
    theta_series,
    theta_series_scaled,
)
from gaborlattice.qtheta import ln_eta, theta_on_circles, theta_product_scaled
from gaborlattice.scaled import normalise_array, sub_arrays, to_complex


def brute_euler(q, terms=600):
    p = 1.0
    for n in range(1, terms + 1):
        p *= 1.0 - q ** n
    return p


class TestNome:
    def test_exact_half(self):
        p = nome_from_tau(math.log(2.0) / (2.0 * math.pi))
        assert p.q == 0.5
        assert p.regime == "subcritical"

    def test_tau_one(self):
        p = nome_from_tau(1.0)
        assert p.q == pytest.approx(1.8674427317e-3, rel=1e-10)
        assert p.q == math.exp(-2.0 * math.pi)

    def test_regimes(self):
        assert nome_from_tau(4.0).regime == "supercritical"
        assert nome_from_tau(math.pi).regime == "critical"
        assert nome_from_tau(math.pi - 1e-13).regime == "critical"
        assert nome_from_tau(math.pi - 1e-9).regime == "subcritical"
        assert nome_from_tau(math.pi + 1e-9).regime == "supercritical"

    def test_nome_tau_consistency(self):
        for tau in (0.3, 1.0, 2.5, 3.5):
            p = nome_from_tau(tau)
            assert abs(math.log(p.q) + 2.0 * math.pi * tau) <= 1e-14 * abs(math.log(p.q))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_tau(self, bad):
        with pytest.raises(InvalidParameterError):
            nome_from_tau(bad)


class TestEulerProduct:
    def test_empty(self):
        assert euler_product(0.0) == 1.0

    def test_half(self):
        assert euler_product(0.5) == pytest.approx(0.2887880950866024, rel=1e-14)
        # spec-level anchor
        assert euler_product(0.5) == pytest.approx(0.2887880951, rel=1e-9)

    def test_small_nome(self):
        q = math.exp(-2.0 * math.pi)
        assert euler_product(q) == pytest.approx(0.9981290699259584, rel=1e-14)
        assert euler_product(q) == pytest.approx(0.99812905, rel=1e-7)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            euler_product(1.0)
        with pytest.raises(InvalidParameterError):
            euler_product(-0.1)

    def test_non_convergence(self):
        # q^4096 is still 0.66 at q = 0.9999: the cap of MAX_TERMS factors is reached
        with pytest.raises(NonConvergenceError, match="after 4096 factors"):
            euler_product(0.9999)
        for q in (0.9999, 0.999999):
            with pytest.raises(NonConvergenceError):
                theta_prime_one(q)
            with pytest.raises(NonConvergenceError):
                lattice_derivative_candidate(0, q)


class TestThetaForms:
    def test_product_vanishes_at_one(self):
        assert theta_product(1.0, 0.3) == 0.0

    def test_product_degenerates_for_tiny_q(self):
        assert theta_product(2.0, 1e-16) == pytest.approx(-1.0, rel=1e-14)

    def test_series_minus_one_half(self):
        # independent oracle: 2 * sum_{t>=0} q^{t(t+1)/2}
        expected = 2.0 * sum(0.5 ** (t * (t + 1) // 2) for t in range(40))
        assert expected == pytest.approx(3.2832651213103077, rel=1e-15)
        assert theta_series(-1.0, 0.5) == pytest.approx(expected, rel=1e-13)
        assert theta_product(-1.0, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_series_vanishes_at_one(self):
        assert abs(theta_series(1.0, 0.7)) <= 1e-12

    def test_cross_form_agreement_on_zero(self):
        # z = q sits on a lattice zero: both forms must be zero at the
        # term scale, so the comparison is normalised, not pointwise
        ts = theta_series(0.25, 0.25)
        tp = theta_product(0.25, 0.25)
        assert abs(ts - tp) <= 1e-12 * (1.0 + abs(ts))

    def test_cross_form_agreement_grid(self):
        worst = 0.0
        for i in range(1, 19):
            q = 0.05 * i
            for power in (0.5, 0.0, -0.5):
                radius = q ** power
                for t in range(32):
                    angle = 2.0 * math.pi * (t + 0.5) / 32
                    z = radius * complex(math.cos(angle), math.sin(angle))
                    ts = theta_series(z, q)
                    tp = theta_product(z, q)
                    worst = max(worst, abs(ts - tp) / (1.0 + abs(ts)))
        assert worst <= 1e-12

    def test_one_step_quasi_periodicity(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            q = float(rng.uniform(0.05, 0.9))
            radius = q ** float(rng.uniform(-0.5, 0.5))
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            z = radius * complex(math.cos(angle), math.sin(angle))
            lhs = theta_series(q * z, q)
            rhs = -theta_series(z, q) / z
            scale = eta(q * z, q) + eta(z, q) / abs(z)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_iterated_quasi_periodicity_scaled(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            q = float(rng.uniform(0.05, 0.9))
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            z = (q ** float(rng.uniform(-0.5, 0.5))) * complex(
                math.cos(angle), math.sin(angle))
            base = theta_series_scaled(z, q)
            for n in range(-6, 7):
                zn = (q ** n) * z
                lhs = theta_series_scaled(zn, q)
                factor = complex(-z) ** -n * q ** (-(n * (n - 1)) // 2)
                rhs = normalise_array(base.mantissa * factor, base.exponent)
                gap = sub_arrays((lhs.mantissa, lhs.exponent), rhs)
                scale = eta(zn, q) + abs(to_complex(rhs))
                assert abs(to_complex(gap)) <= 1e-10 * scale

    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            q = float(rng.uniform(0.05, 0.9))
            z = complex(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            if z == 0:
                continue
            a = theta_series(z.conjugate(), q)
            b = theta_series(z, q).conjugate()
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b))
        assert theta_series(1.7, 0.3).imag == 0.0

    def test_zero_set(self):
        for q in (0.1, 0.3, 0.5):
            for n in range(-5, 6):
                z = q ** n
                assert abs(theta_series_scaled(z, q).to_complex()) <= 1e-10 * eta(z, q)

    def test_extreme_argument_contract(self):
        # log|z| = +-10 |log q| must not overflow internally
        q = nome_from_tau(0.5).q
        for sign in (10, -10):
            z = q ** sign
            value = theta_series(1.0001 * z, q)
            assert math.isfinite(abs(value))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            theta_series(0.0, 0.5)
        with pytest.raises(DomainError):
            theta_product(0.0, 0.5)
        with pytest.raises(InvalidParameterError):
            theta_series(1.0, 1.2)


class TestLatticeDerivative:
    def test_prime_one_values(self):
        assert theta_prime_one(1e-16) == pytest.approx(-1.0, rel=1e-14)
        assert theta_prime_one(0.5) == pytest.approx(-brute_euler(0.5) ** 3, rel=1e-13)
        assert theta_prime_one(0.1) == pytest.approx(-0.7049930008999891, rel=1e-13)

    def test_reference_matches_n_zero(self):
        for q in (0.1, 0.5):
            ref = theta_prime_lattice(0, q).to_complex()
            assert ref == pytest.approx(theta_prime_one(q), rel=1e-13)

    def test_reference_value_n1_q01(self):
        # independent oracle: plain double-sided differentiated sum; its
        # q-expansion is 1/q - 3 + 5 q^2 - 7 q^5 + 9 q^9 - ...
        q = 0.1
        expected = sum((-1) ** l * l * q ** ((l - 1) * (l + 2) // 2)
                       for l in range(-30, 31))
        assert expected == pytest.approx(7.0499300089998895, rel=1e-15)
        got = theta_prime_lattice(1, q).to_complex()
        assert got == pytest.approx(expected, rel=1e-13)

    def test_printed_candidate_refuted_corrected_confirmed(self):
        ref = theta_prime_lattice(1, 0.1).to_complex()
        printed = lattice_derivative_candidate(1, 0.1, "printed").to_complex()
        corrected = lattice_derivative_candidate(1, 0.1, "corrected").to_complex()
        assert printed == pytest.approx(-0.7049930008999891, rel=1e-12)
        assert abs(printed - ref) / abs(ref) > 1.0  # sign and magnitude both wrong
        assert corrected == pytest.approx(ref, rel=1e-13)

    def test_corrected_candidate_across_lattice(self):
        for q in (0.1, 0.3, 0.5):
            for n in range(-4, 5):
                ref = theta_prime_lattice(n, q)
                cand = lattice_derivative_candidate(n, q, "corrected")
                gap = sub_arrays((ref.mantissa, ref.exponent), (cand.mantissa, cand.exponent))
                rel = abs(to_complex(gap)) / abs(ref.to_complex())
                assert rel <= 1e-12

    def test_richardson_finite_difference(self):
        for q in (0.1, 0.3, 0.5):
            for n in range(-4, 5):
                z0 = q ** n
                h = abs(z0) * 1e-3
                d1 = (theta_series(z0 + h, q) - theta_series(z0 - h, q)) / (2 * h)
                d2 = (theta_series(z0 + h / 2, q)
                      - theta_series(z0 - h / 2, q)) / h
                fd = (4.0 * d2 - d1) / 3.0
                ref = theta_prime_lattice(n, q).to_complex()
                assert abs(fd - ref) / abs(ref) <= 1e-6

    def test_index_bound(self):
        with pytest.raises(InvalidParameterError):
            theta_prime_lattice(65, 0.5)


class TestEta:
    def test_unit_circle(self):
        assert eta(1.0, 0.5) == 1.0
        assert eta(complex(0, 1), 0.5) == 1.0

    def test_plug_in_value(self):
        # exp(-ln^2|z|/(2 ln q) + ln|z|/2) at |z| = q is q^{-1/2} * q^{1/2} = 1
        assert eta(0.5, 0.5) == pytest.approx(1.0, rel=1e-15)
        u, L = math.log(0.3), math.log(0.7)
        assert eta(0.3, 0.7) == pytest.approx(math.exp(-u * u / (2 * L) + u / 2), rel=1e-15)

    def test_recurrence_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = float(rng.uniform(0.05, 0.95))
            z = float(rng.uniform(0.1, 10.0))
            assert eta(q * z, q) * z == pytest.approx(eta(z, q), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            eta(0.0, 0.5)

    def test_beyond_double_range_saturates(self):
        assert math.isfinite(eta(math.exp(31.0), 0.5))
        with pytest.raises(SaturationError, match="log-magnitude 8"):
            eta(math.exp(33.0), 0.5)

    def test_scalar_is_array_element_bit_for_bit(self):
        for q in (0.05, 0.5, 0.9):
            zs = _points(q)
            assert eta(zs, q).tolist() == [eta(z, q) for z in zs]

    def test_log_form_past_the_double_range(self):
        assert ln_eta(math.exp(31.0), 0.5)[0] == pytest.approx(math.log(eta(math.exp(31.0), 0.5)),
                                                                rel=1e-15)
        big = ln_eta(np.array([math.exp(33.0), math.exp(-33.0)]), 0.5)
        assert big.shape == (2,) and np.all(np.isfinite(big)) and big.min() > 709.8


class TestCoefficients:
    def test_limit_q_to_zero(self):
        p = nome_from_tau(6.0)  # q ~ 4e-17
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = coeff_E(0, p).to_complex()
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_value_at_half(self):
        # independent: S / P^3 with plain double sums
        S = sum((-1) ** j * 0.5 ** (j * (j + 1) // 2) for j in range(60))
        expected = S / brute_euler(0.5) ** 3
        assert expected == pytest.approx(25.34082933196599, rel=1e-14)
        p = nome_from_tau(math.log(2.0) / (2.0 * math.pi))
        assert coeff_E(0, p).to_complex().real == pytest.approx(expected, rel=1e-12)

    def test_even_in_m(self, params_tau1):
        for m in (1, 3, 6):
            a = coeff_E(m, params_tau1)
            b = coeff_E(-m, params_tau1)
            assert a == b

    def test_printed_variant_relation(self, params_tau1):
        # printed exponent differs from the corrected one by exactly q^{-m}
        q = params_tau1.q
        for m in (-3, 2):
            corrected = coeff_E(m, params_tau1).to_complex()
            printed = coeff_E(m, params_tau1, variant="printed").to_complex()
            assert printed == pytest.approx(corrected * q ** (-m), rel=1e-12)

    def test_supercritical_warns(self):
        p = nome_from_tau(4.0)
        with pytest.warns(UserWarning, match="supercritical"):
            coeff_E(0, p)

    def test_index_bound(self, params_tau1):
        for bad in (100, np.array([0, 65]), np.array([0.0, 1.0]), np.array([True, False]), True):
            with pytest.raises(InvalidParameterError):
                coeff_E(bad, params_tau1)

    @pytest.mark.parametrize("variant", ["corrected", "printed"])
    def test_array_is_scalar_calls_bit_for_bit(self, variant):
        ms = np.arange(-64, 65)
        for tau in (0.3, 1.0, 3.0):
            params = nome_from_tau(tau)
            mant, exps = coeff_E(ms, params, variant=variant)
            assert [ScaledValue(m, int(e)) for m, e in zip(mant, exps)] == \
                [coeff_E(int(m), params, variant=variant) for m in ms]

    @pytest.mark.parametrize("tau", [0.3, 1.0, 3.0])
    def test_within_a_few_ulp_of_mpmath(self, tau):
        mp = pytest.importorskip("mpmath")
        eps = np.finfo(float).eps
        params = nome_from_tau(tau)
        mant, exps = coeff_E(np.arange(-64, 65), params)
        with mp.workdps(40):
            q = mp.mpf(params.q)
            cube = mp.fprod(1 - q ** n for n in range(1, 400)) ** 3
            for m, value, exp in zip(range(-64, 65), mant, exps):
                n = abs(m)
                tail = mp.fsum((-1) ** j * q ** (j * (j + 2 * n + 1) // 2) for j in range(60))
                exact = (-1) ** n * q ** (n * (n + 1) // 2) * tail / cube
                got = mp.mpc(complex(value)) * mp.mpf(2) ** (128 * int(exp))
                assert abs(got - exact) <= 8 * eps * abs(exact), (tau, m)


@functools.cache
def _mp_theta(z, q):
    """sum_n (-1)^n z^n q^{n(n-1)/2} at 40 digits, well past the peak term."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z, q = mpmath.mpc(z), mpmath.mpf(q)
        centre = int(abs(mpmath.log(abs(z)) / mpmath.log(q))) + 80
        return complex(mpmath.fsum((-1) ** n * z ** n * q ** (n * (n - 1) // 2)
                                   for n in range(-centre, centre + 1)))


def _points(q):
    """|ln z| up to 10 |ln q| at varied angles, and the zeros q^n, |n| <= 10."""
    ln_q = math.log(q)
    zs = np.exp(np.linspace(10 * ln_q, -10 * ln_q, 41) + 1j * np.linspace(0.1, 6.0, 41))
    return np.concatenate([zs, [q ** n for n in range(-10, 11)]])


SCALED_FORMS = [theta_series_scaled, theta_product_scaled]


class TestArrayPath:
    @pytest.mark.parametrize("q", [0.05, 0.5, 0.9])
    @pytest.mark.parametrize("form", SCALED_FORMS)
    def test_against_mpmath(self, form, q):
        zs = _points(q)
        values = to_complex(form(zs, q))
        worst = max(abs(v - _mp_theta(z, q)) / eta(z, q) for z, v in zip(zs, values))
        assert worst <= 1e-12

    @pytest.mark.parametrize("form", SCALED_FORMS)
    def test_scalar_is_array_element_bit_for_bit(self, form):
        for q in (0.05, 0.5, 0.9):
            zs = _points(q)
            mant, exps = form(zs, q)
            for z, m, e in zip(zs, mant, exps):
                one = form(z, q)
                assert (one.mantissa, one.exponent) == (m, e)

    def test_plain_forms_on_arrays(self):
        zs = np.array([0.3 + 0.2j, -1.0, 2.5j])
        assert np.array_equal(theta_series(zs, 0.5),
                              [theta_series(z, 0.5) for z in zs])
        assert np.array_equal(theta_product(zs, 0.5),
                              [theta_product(z, 0.5) for z in zs])

    @pytest.mark.parametrize("form", SCALED_FORMS)
    def test_any_zero_element_refused(self, form):
        with pytest.raises(DomainError):
            form(np.array([1.5, 0.0, 2.0j]), 0.5)

    @pytest.mark.parametrize("form", SCALED_FORMS)
    def test_non_convergence(self, form):
        # at q = 0.999999 the terms past MAX_TERMS per side still matter
        with pytest.raises(NonConvergenceError):
            form(np.array([0.5, 1.5j]), 0.999999)

    def test_non_convergence_on_circles_and_at_the_lattice(self):
        with pytest.raises(NonConvergenceError):
            theta_on_circles([0.5, 1.0], 0.999999, 8)
        with pytest.raises(NonConvergenceError):
            theta_prime_lattice(np.array([0, 3]), 0.999999)


#: circles |z| = q^p for these p: one whose terms leave the double range at tau=1
CIRCLE_POWERS = (-20.5, -2.5, 0.5, 3.5)


def _theta_terms(r, q):
    """(n, (-1)^n q^{n(n-1)/2} r^n) at 60 digits, n well past both sides of the peak."""
    mp = pytest.importorskip("mpmath")
    centre = round(math.log(r) / -math.log(q) + 0.5)
    width = int(math.sqrt(2.0 * 100.0 / -math.log(q))) + 10
    with mp.workdps(60):
        r, q = mp.mpf(r), mp.mpf(q)
        return [(n, (-1) ** n * q ** (n * (n - 1) // 2) * r ** n)
                for n in range(centre - width, centre + width + 1)]


class TestThetaOnCircles:
    @pytest.mark.parametrize("tau", [1.0, 0.3, 0.05, 0.01])
    def test_against_mpmath(self, tau):
        mp = pytest.importorskip("mpmath")
        eps, count, params = np.finfo(float).eps, 64, nome_from_tau(tau)
        radii = np.exp(np.array(CIRCLE_POWERS) * params.ln_q)
        mant, exps = theta_on_circles(radii, params.q, count)
        with mp.workdps(60):
            for i, r in enumerate(radii):
                terms = _theta_terms(r, params.q)
                scale = mp.fsum(abs(c) for _, c in terms)
                if tau == 0.01:  # the folding case: more terms than angles
                    assert sum(abs(c) > 1e-17 * scale for _, c in terms) > count
                high_first = [c for _, c in reversed(terms)]
                for t in range(count):
                    w = mp.expjpi(mp.mpf(2 * t) / count)
                    exact = w ** terms[0][0] * mp.polyval(high_first, w)
                    j = i * count + t
                    got = mp.mpc(mant[j]) * mp.mpf(2) ** (128 * int(exps[j]))
                    assert abs(got - exact) <= 16 * eps * scale, (r, t)

    @pytest.mark.parametrize("tau", [1.0, 0.3, 0.05, 0.01])
    def test_offset_half_is_the_per_point_series(self, tau):
        eps, params = np.finfo(float).eps, nome_from_tau(tau)
        radii = np.exp(np.array([0.5, 0.0, -0.5]) * params.ln_q)
        zs = (radii[:, None] * np.exp(2j * math.pi * (np.arange(32) + 0.5) / 32)).ravel()
        gap = to_complex(sub_arrays(theta_on_circles(radii, params.q, 32, 0.5),
                                    theta_series_scaled(zs, params.q)))
        n = np.arange(-400, 401)
        scale = np.exp(np.log(radii)[:, None] * n + params.ln_q * n * (n - 1) / 2).sum(1)
        assert np.all(np.abs(gap).reshape(3, -1) <= 16 * eps * scale[:, None])

    def test_each_circle_alone_is_its_block_row_bit_for_bit(self):
        for tau in (1.0, 0.01):
            params = nome_from_tau(tau)
            radii = np.exp(np.array(CIRCLE_POWERS) * params.ln_q)
            for offset in (0.0, 0.5):
                block = theta_on_circles(radii, params.q, 64, offset)
                alone = [theta_on_circles(r, params.q, 64, offset) for r in radii]
                assert block[0].view(np.uint64).tolist() == \
                    np.concatenate([a[0] for a in alone]).view(np.uint64).tolist()
                assert block[1].tolist() == np.concatenate([a[1] for a in alone]).tolist()


#: each form that takes a nome, called with it
NOME_FORMS = {
    "theta_series": lambda q: theta_series(0.3j, q),
    "theta_series_scaled": lambda q: theta_series_scaled(0.3j, q),
    "theta_product": lambda q: theta_product(0.3j, q),
    "theta_product_scaled": lambda q: theta_product_scaled(0.3j, q),
    "eta": lambda q: eta(0.3j, q),
    "ln_eta": lambda q: ln_eta(0.3j, q),
    "theta_on_circles": lambda q: theta_on_circles([1.0], q, 64),
    "theta_prime_lattice": lambda q: theta_prime_lattice(1, q),
    "lattice_derivative_candidate": lambda q: lattice_derivative_candidate(1, q),
}


class TestArrayOfNomes:
    """A call runs at one nome: an array or list of nomes is refused."""

    @pytest.mark.parametrize("name", NOME_FORMS)
    def test_array_or_list_nome_refused(self, name):
        NOME_FORMS[name](0.5)
        for q in (np.array([0.5]), np.array([0.3, 0.5]), [0.5], np.array(0.5)):
            with pytest.raises(InvalidParameterError):
                NOME_FORMS[name](q)

    def test_eta_array_beyond_double_range_saturates(self):
        with pytest.raises(SaturationError, match="log-magnitude 8"):
            eta(np.array([1.0, math.exp(31.0), math.exp(33.0)]), 0.5)
        with pytest.raises(InvalidParameterError):
            eta(math.exp(31.0), np.array([0.5, 0.9]))

    def test_invalid_nome_element_refused(self):
        for bad in (0.0, 1.0, math.nan):
            with pytest.raises(InvalidParameterError):
                theta_series_scaled(np.array([0.5, 2.0j]), np.array([0.5, bad]))


def _coeff_at_nome(m, q):
    """coeff_E at the lattice whose nome is (up to rounding) q."""
    return coeff_E(m, nome_from_tau(-math.log(q) / (2.0 * math.pi)))


class TestArrayOfLatticeIndices:
    FORMS = [theta_prime_lattice, lattice_derivative_candidate,
             functools.partial(lattice_derivative_candidate, variant="printed")]

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("form", FORMS)
    def test_scalar_is_array_element_bit_for_bit(self, form, q):
        ns = np.arange(-12, 13)
        mant, exps = form(ns, q)
        assert [ScaledValue(m, int(e)) for m, e in zip(mant, exps)] == \
            [form(int(n), q) for n in ns]

    @pytest.mark.parametrize("form", FORMS)
    def test_index_bound_on_arrays(self, form):
        with pytest.raises(InvalidParameterError):
            form(np.array([0, 65]), 0.5)
        for bad in (np.array([0.0, 1.0]), np.array([True, False]), True, 1.0, [1, 2.0]):
            with pytest.raises(InvalidParameterError):
                form(bad, 0.5)

    @pytest.mark.parametrize("form", FORMS + [_coeff_at_nome])
    def test_any_integer_width_and_the_empty_array(self, form):
        ns = np.arange(-64, 65)
        wide, narrow = form(ns, 0.5), form(ns.astype(np.int32), 0.5)
        assert wide[0].view(np.uint64).tolist() == narrow[0].view(np.uint64).tolist()
        assert wide[1].tolist() == narrow[1].tolist()
        mant, exps = form(np.array([], dtype=np.int64), 0.5)
        assert mant.shape == exps.shape == (0,)
