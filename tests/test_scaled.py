import math
import sys

import numpy as np
import pytest

from gaborlattice import SaturationError, ScaledValue
from gaborlattice import scaled
from gaborlattice.scaled import (BASE_LOG2, LN_BASE, exp_pow2, normalise_array, sub_arrays,
                                 sum_rows)


def test_normalisation_invariant():
    v = ScaledValue(1e200 + 3e190j, 2)
    mag = abs(v.mantissa)
    assert 1.0 <= mag < 2.0 ** BASE_LOG2
    assert v.to_complex() != 0


def test_zero_is_canonical():
    z = ScaledValue(0j, 5)
    assert z.is_zero and z.exponent == 0
    assert z.to_complex() == 0j
    assert z.ln_abs() == -math.inf


def test_roundtrip_exact_bits():
    rng = np.random.default_rng(11)
    for _ in range(200):
        scale = 10.0 ** int(rng.integers(-250, 250))
        value = complex(rng.normal() * scale, rng.normal() * scale)
        assert ScaledValue(value).to_complex() == value


def test_extreme_component_aspect_ratio_keeps_machine_precision():
    # components >2^128 apart fall outside the mantissa's dynamic range;
    # the value survives to |value| * eps even though bits may not
    value = complex(1e246, 1e-114)
    back = ScaledValue(value).to_complex()
    assert abs(back - value) <= 1e-15 * abs(value)


def test_arithmetic_matches_plain_complex():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal()) or 1.0
        sa, sb = ScaledValue(a), ScaledValue(b)
        assert (sa * sb).to_complex() == pytest.approx(a * b, rel=1e-15)


def test_huge_magnitude_products():
    a = ScaledValue(1.5, 564)  # ~e^50000
    b = ScaledValue(2.0, -563)
    assert (a * b).to_complex() == 3.0 * 2.0 ** BASE_LOG2
    assert a.ln_abs() == pytest.approx(math.log(1.5) + 564 * LN_BASE, rel=1e-15)


def test_overflowing_downconvert_raises():
    with pytest.raises(SaturationError):
        ScaledValue(1.0, 1127).to_complex()  # ~e^1e5


def test_underflow_downconvert_is_zero():
    assert ScaledValue(1.0, -1127).to_complex() == 0j


def test_downconvert_up_to_the_largest_double():
    top = ScaledValue(math.ldexp(sys.float_info.max, -2 * BASE_LOG2), 2)
    assert top.to_complex() == sys.float_info.max
    with pytest.raises(SaturationError):  # 2**1024, just past it
        ScaledValue(math.ldexp(1.0, 1024 - 2 * BASE_LOG2), 2).to_complex()


def test_exponent_of_any_size():
    assert ScaledValue(1.5, 10**30).exponent == 10**30
    assert ScaledValue(1.5, -10**30).to_complex() == 0j
    with pytest.raises(SaturationError):
        ScaledValue(1.5, 10**30).to_complex()
    assert ScaledValue(1.0, 10**30).ln_abs() == pytest.approx(10**30 * LN_BASE, rel=1e-15)


def test_exp_pow2_within_two_ulp_of_mpmath():
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(19)
    t = np.concatenate([rng.uniform(-5e4, 5e4, 500), rng.uniform(-50.0, 50.0, 500),
                        rng.uniform(-300.0, 300.0, 500),
                        [0.0, -0.0, 5e4, -5e4, -49990.0, -0.602, math.log(2.0), -math.log(2.0)]])
    with mp.workdps(40):
        for t_lo in (0.0, rng.uniform(-1e-3, 1e-3, len(t))):
            f, n = exp_pow2(t, t_lo)
            assert f.shape == n.shape == t.shape and n.dtype == np.int64
            for ti, lo, fi, ni in zip(t, np.broadcast_to(t_lo, t.shape), f, n.tolist()):
                exact = mp.exp(mp.mpf(float(ti)) + mp.mpf(float(lo)))
                got = mp.mpf(float(fi)) * mp.mpf(2) ** ni
                assert abs(got - exact) <= 2 * eps * exact, (ti, lo)
                assert 1.0 - eps <= fi < 2.0 + 2 * eps


@pytest.mark.parametrize("bad", [2.0**52, -2.0**52, math.nan, math.inf, -math.inf])
def test_exp_pow2_refuses(bad):
    with pytest.raises(SaturationError):
        exp_pow2(np.array([0.0, bad]))
    with pytest.raises(SaturationError):
        exp_pow2(bad, 0.5)


def test_non_finite_mantissa_rejected():
    with pytest.raises(SaturationError):
        ScaledValue(complex(math.inf, 0.0))


@pytest.mark.parametrize("mantissa", [complex(math.nan, 1.0), complex(1.7e308, 1.7e308)])
def test_mantissa_without_a_finite_modulus_rejected(mantissa):
    with pytest.raises(SaturationError):
        ScaledValue(mantissa)


def test_equality_is_exact_representation():
    assert ScaledValue(1.5) == ScaledValue(1.5 + 0j, 0)
    assert ScaledValue(1.5) != ScaledValue(1.5000000001)


def _two_column_difference(a, b):
    """a - b as the two-column compensated sum_rows of (a, -b)."""
    mant = np.stack(np.broadcast_arrays(a[0], -b[0]), axis=-1)
    exps = np.stack(np.broadcast_arrays(a[1], b[1]), axis=-1)
    diff = sum_rows(mant.reshape(-1, 2), exps.reshape(-1, 2) * BASE_LOG2)
    return diff[0].reshape(mant.shape[:-1]), diff[1].reshape(mant.shape[:-1])


def _bits(value):
    mant, exps = value
    return np.ascontiguousarray(mant).view(np.uint64).tolist(), np.asarray(exps).tolist()


def _random_scaled(rng, shape):
    """Normalised (mantissa, exponent) arrays with zeros, -0.0 parts and
    exponent gaps wide enough to push a term into subnormals."""
    mant = rng.normal(size=shape) * 2.0 ** rng.integers(-60, 200, shape) \
        + 1j * rng.normal(size=shape) * 2.0 ** rng.integers(-60, 200, shape)
    mant[rng.random(shape) < 0.1] = 0j
    mant.real[rng.random(shape) < 0.1] = -0.0
    mant.imag[rng.random(shape) < 0.1] = -0.0
    return normalise_array(mant, rng.integers(-10, 10, shape))


def test_sub_arrays_is_the_two_column_sum_bit_for_bit():
    rng = np.random.default_rng(1515)
    for shape_a, shape_b in [((400,), (400,)), ((40, 1), (1, 30)), ((25, 8), (8,)),
                             ((6, 1, 5), (4, 1))]:
        a, b = _random_scaled(rng, shape_a), _random_scaled(rng, shape_b)
        cases = [(a, b), (b, a), (a, a), ((-b[0], b[1]), b)]
        if shape_a == shape_b:  # exact cancellation on about half the entries
            cases.append((tuple(np.where(rng.random(shape_a) < 0.5, x, y) for x, y in zip(a, b)),
                          b))
        assert np.any(np.signbit(a[0].real) & (a[0].real == 0) & (a[0].imag != 0))  # a -0.0 part
        for left, right in cases:
            assert _bits(sub_arrays(left, right)) == _bits(_two_column_difference(left, right))


def test_sub_arrays_edge_cases():
    one, tiny = normalise_array(np.array([1.5 + 0.5j]), np.array([0])), \
        normalise_array(np.array([1.25 - 0.75j]), np.array([-8]))  # 2**-1024 below: subnormal
    near_top = normalise_array(np.array([2.0 ** 127.5 + 0j]), np.array([0]))
    minus_zero = (np.array([-0.0 + 1.0j]), np.array([0]))
    zero = (np.array([0j]), np.array([3]))
    for a, b in [(one, tiny), (tiny, one), (near_top, tiny), (tiny, near_top), (zero, tiny),
                 (tiny, zero), (zero, zero), (minus_zero, zero), (zero, minus_zero),
                 (minus_zero, minus_zero), (one, one), (minus_zero, one)]:
        assert _bits(sub_arrays(a, b)) == _bits(_two_column_difference(a, b))
    mant, exps = sub_arrays(minus_zero, zero)
    assert not np.signbit(mant.real[0]) and mant.imag[0] == 1.0 and exps[0] == 0
    assert _bits(sub_arrays(tiny, zero)) == _bits(tiny)


def test_ln_abs_within_two_ulp_of_mpmath():
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20)
    mant, exps = normalise_array(
        rng.normal(size=400) * 2.0 ** rng.integers(-300, 300, 400) + 1j * rng.normal(size=400),
        rng.integers(-1000, 1001, 400))
    mant[::50], exps[1], exps[2] = 0j, 1000, -1000
    got = scaled.ln_abs(mant, exps)
    assert got.shape == mant.shape and np.all(got[mant == 0] == -math.inf)
    with mp.workdps(40):
        for value, m, e in zip(got, mant, exps.tolist()):
            if m != 0:
                ln_m = mp.log(abs(mp.mpc(m)))
                exact = ln_m + e * BASE_LOG2 * mp.log(2)
                assert abs(value - exact) <= 2 * eps * (abs(ln_m) + abs(e) * LN_BASE), (m, e)


@pytest.mark.parametrize("mantissa", [
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, 0.0), complex(-3e-310, 2e-320),
    complex(2.0**BASE_LOG2, 0.0), complex(0.0, -2.0**BASE_LOG2),
    complex(np.nextafter(2.0**BASE_LOG2, 0.0), 0.0), complex(1.0, -0.0), complex(-0.75, 1e300)])
@pytest.mark.parametrize("exponent", [0, 3, -7])
def test_scaled_value_is_the_normalise_array_element(mantissa, exponent):
    v = ScaledValue(mantissa, exponent)
    mant, exps = normalise_array(np.array([mantissa]), np.array([exponent]))
    assert _bits((np.array([v.mantissa]), [v.exponent])) == _bits((mant, exps))
    assert type(v.exponent) is int


def test_laurent_on_circles_within_eps_of_mpmath():
    """More powers than angles (folded), a half-step offset, and rows far beyond the
    double range: within 16 eps of each row's sum of |terms|, against 60 digits."""
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(21)
    power = np.arange(-13, 11)
    mant = rng.normal(size=(3, 24)) + 1j * rng.normal(size=(3, 24))
    mant[1, :5] = 0.0
    bits = rng.integers(-40, 40, (3, 24)) + np.array([[0], [2000], [-3000]])
    count, offset = 8, 0.5
    got_mant, got_exps = scaled.laurent_on_circles(power, mant, bits, count, offset)
    assert got_mant.shape == got_exps.shape == (3 * count,)
    with mp.workdps(60):
        for row in range(3):
            coeffs = [mp.mpc(m) * mp.mpf(2) ** int(b) for m, b in zip(mant[row], bits[row])]
            scale = mp.fsum(abs(c) for c in coeffs)
            for t in range(count):
                exact = mp.fsum(c * mp.expjpi(mp.mpf(n * (2 * t + 2 * offset)) / count)
                                for c, n in zip(coeffs, power.tolist()))
                i = row * count + t
                got = mp.mpc(got_mant[i]) * mp.mpf(2) ** (BASE_LOG2 * int(got_exps[i]))
                assert abs(got - exact) <= 16 * eps * scale, (row, t)


def test_laurent_on_circles_row_is_its_own_call_bit_for_bit():
    rng = np.random.default_rng(22)
    power = np.arange(-13, 11)
    mant = rng.normal(size=(3, 24)) + 1j * rng.normal(size=(3, 24))
    mant[1, :5] = mant[1, -3:] = 0.0
    bits = rng.integers(-40, 40, (3, 24)) * 20
    for offset in (0.0, 0.5):
        block = scaled.laurent_on_circles(power, mant, bits, 8, offset)
        # row 1 alone, with its zero columns and without them
        for cols in (slice(None), slice(5, -3)):
            alone = scaled.laurent_on_circles(power[cols], mant[1:2, cols], bits[1:2, cols], 8,
                                              offset)
            assert _bits(alone) == _bits((block[0][8:16], block[1][8:16]))
