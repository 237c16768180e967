import math

import numpy as np
import pytest

from gaborlattice import SaturationError, ScaledValue
from gaborlattice.scaled import BASE_LOG2, LN_BASE


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
        assert ScaledValue.from_complex(value).to_complex() == value


def test_extreme_component_aspect_ratio_keeps_machine_precision():
    # components >2^128 apart fall outside the mantissa's dynamic range;
    # the value survives to |value| * eps even though bits may not
    value = complex(1e246, 1e-114)
    back = ScaledValue.from_complex(value).to_complex()
    assert abs(back - value) <= 1e-15 * abs(value)


def test_arithmetic_matches_plain_complex():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal()) or 1.0
        sa, sb = ScaledValue.from_complex(a), ScaledValue.from_complex(b)
        assert (sa * sb).to_complex() == pytest.approx(a * b, rel=1e-15)


def test_huge_magnitude_products():
    a = ScaledValue.from_ln(50000.0)
    b = ScaledValue.from_ln(-49990.0)
    assert (a * b).to_complex().real == pytest.approx(math.exp(10.0), rel=1e-13)
    assert a.ln_abs() == pytest.approx(50000.0, abs=1e-9)


def test_from_ln_phase():
    v = ScaledValue.from_ln(0.0, phase=math.pi / 3)
    assert v.to_complex() == pytest.approx(complex(0.5, math.sqrt(3) / 2), rel=1e-15)
    w = ScaledValue.from_ln(-math.inf)
    assert w.is_zero


def test_from_ln_within_two_ulp_of_mpmath():
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mp.workdps(40):
        cases = [(t, 0.0) for t in np.random.default_rng(13).uniform(-300.0, 300.0, 2001)]
        for t, phase in cases + [(-0.602, 3.84), (50000.0, 1.0), (-49990.0, -2.0)]:
            v = ScaledValue.from_ln(float(t), phase)
            got = mp.mpc(v.mantissa) * mp.mpf(2) ** (BASE_LOG2 * v.exponent)
            exact = mp.exp(mp.mpf(float(t)) + 1j * mp.mpf(phase))
            assert abs(got - exact) <= 2 * eps * abs(exact), (t, phase)


def test_overflowing_downconvert_raises():
    with pytest.raises(SaturationError):
        ScaledValue.from_ln(1e5).to_complex()


def test_underflow_downconvert_is_zero():
    assert ScaledValue.from_ln(-1e5).to_complex() == 0j


def test_non_finite_mantissa_rejected():
    with pytest.raises(SaturationError):
        ScaledValue(complex(math.inf, 0.0))


def test_equality_is_exact_representation():
    assert ScaledValue.from_complex(1.5) == ScaledValue(1.5 + 0j, 0)
    assert ScaledValue.from_complex(1.5) != ScaledValue.from_complex(1.5000000001)
