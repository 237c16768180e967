"""Overflow-safe scaled complex arithmetic.

Lattice coefficients grow like exp(tau^2 m^2) and theta-series terms
near the interesting circles reach magnitudes far beyond the double
range, so every quantity that can leave [1e-308, 1e308] is carried as

    value = mantissa * B**exponent,      B = 2**128,

with a complex mantissa normalised to |mantissa| in [1, B) and an
integer exponent.  The base is a power of two so every
renormalisation is an exact ldexp; converting a plain double in range
to a ScaledValue and back is bit-exact.  The computations carry whole
(mantissa, exponent) arrays (int64 exponents); ScaledValue is a one-element
view of the same routines, whose exponent is a Python int of any size.
"""

from __future__ import annotations

import cmath
import decimal
import functools
import math

import numpy as np

from .errors import SaturationError, check_circles, check_counts

BASE_LOG2 = 128
LN_BASE = BASE_LOG2 * math.log(2.0)

# ln(2) split so that n * _LN2_HI is exact for |n| < 2**21 (the low 21
# mantissa bits of _LN2_HI are zero); keeps exp_pow2 accurate to ~1 ulp even
# for log-magnitudes in the tens of thousands.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INT64_MIN = np.iinfo(np.int64).min


def ldexp_array(values: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """values * 2**shift for a complex array and integer shifts (exact barring
    underflow into subnormals; overflow gives inf, for the caller to check)."""
    out = np.empty(np.broadcast(values, shift).shape, dtype=complex)
    if out.size > 512:  # the int32 clip costs ~1.5 us, repaid by np.ldexp's faster int32 loop
        # from a few hundred elements on; past |shift| = 2100 a double is inf or 0: an exact clip
        shift = np.maximum(np.minimum(shift, 4096), -4096).astype(np.int32)
    with np.errstate(over="ignore"):
        out.real = np.ldexp(values.real, shift)
        out.imag = np.ldexp(values.imag, shift)
    return out


def normalise_array(mant: np.ndarray, exps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """mant * B**exps (mant finite) with each entry normalised as ScaledValue
    normalises it: |mantissa| in [1, B), and 0j with exponent 0 for a zero."""
    _, e2 = np.frexp(np.abs(mant))
    zero = mant == 0
    shift = np.where(zero, 0, (e2 - 1) // BASE_LOG2)
    return (np.where(zero, 0j, ldexp_array(mant, -shift * BASE_LOG2)),
            np.where(zero, 0, exps + shift))


def masked_max(values: np.ndarray, mask: np.ndarray, axis: int) -> np.ndarray:
    """Max of values where mask holds along axis; 0 where it never holds."""
    top = np.where(mask, values, _INT64_MIN).max(axis=axis)
    return np.where(top == _INT64_MIN, 0, top)


def _align_rows(mant: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of mant * 2**bits (2-d) shifted by exact ldexp to the power of B of its
    largest term: (terms, exps), the row's values being terms * B**exps."""
    _, mag = np.frexp(np.abs(mant))
    exps = masked_max(bits + mag, mant != 0, axis=1) // BASE_LOG2
    return ldexp_array(mant, bits - (exps * BASE_LOG2)[:, None]), exps


def sum_rows(mant: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of mant * 2**bits (2-d, integer bits) as normalised arrays.

    Each row is shifted by its largest term with exact ldexp and summed in
    column order, carrying every addition's rounding error (Knuth's
    two-sum): cancellation costs a few ulp of the sum at most, and a row's
    sum depends neither on other rows nor on zeros around its terms.
    """
    terms, exps = _align_rows(mant, bits)
    totals = np.cumsum(terms, axis=1)  # adds in column order: the running sums
    before = np.empty_like(totals)
    before[:, 0], before[:, 1:] = 0.0, totals[:, :-1]
    part = totals - before
    before -= totals - part  # becomes the rounding error of each addition
    before += terms - part
    return normalise_array(totals[:, -1] + np.cumsum(before, axis=1, out=before)[:, -1], exps)


def laurent_on_circles(power: np.ndarray, mant: np.ndarray, bits: np.ndarray, count: int,
                       offset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """sum_n c_n e^{2 pi i n (t + offset) / count}, t = 0 .. count-1, for each row of terms
    c_n = mant * 2**bits at the increasing powers n (a series on |z| = r from its terms at
    z = r), as normalised arrays, row after row: each row shifted as sum_rows shifts it,
    folded by n mod count from a zero start (zero columns leave its bits alone) and taken
    through one inverse FFT, accurate to a few ulp of the row's sum of |c_n|."""
    _, offset = check_circles((), count, offset)  # the count and offset, as the callers read them
    terms, exps = _align_rows(mant, bits)
    first = power[0] - power[0] % count  # a multiple of count: the fold keeps n mod count
    padded = np.zeros((len(terms), (power[-1] - first) // count * count + count), dtype=complex)
    padded[:, power - first] = terms * np.exp(2j * math.pi * offset / count * power)
    folded = sum(np.hsplit(padded, padded.shape[1] // count), np.zeros((len(terms), count)))
    values = np.fft.ifft(folded, norm="forward")
    return normalise_array(values.ravel(), np.repeat(exps, count))


def sub_arrays(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a - b for (mantissa, exponent) arrays of broadcastable shapes.

    Both terms are shifted as sum_rows shifts a row (by the top bit of the
    larger nonzero term) with exact ldexp, subtracted once and normalised;
    ``+ 0.0`` turns a -0 part into +0.  These are the bits of the two-term
    compensated sum_rows: the two-sum correction never changes a rounded
    sum of two terms.
    """
    a_mant, b_mant, a_exps, b_exps = np.broadcast_arrays(a[0], b[0], a[1], b[1])
    top_a = a_exps * BASE_LOG2 + np.frexp(np.abs(a_mant))[1]
    top_b = b_exps * BASE_LOG2 + np.frexp(np.abs(b_mant))[1]
    exps = np.where(a_mant == 0, top_b,
                    np.where(b_mant == 0, top_a, np.maximum(top_a, top_b))) // BASE_LOG2
    diff = (ldexp_array(a_mant, (a_exps - exps) * BASE_LOG2)
            - ldexp_array(b_mant, (b_exps - exps) * BASE_LOG2))
    return normalise_array(diff + 0.0, exps)


def pack(mant: np.ndarray, exps: np.ndarray, scalar: bool):
    """A ScaledValue for a scalar call, else the (mantissa, exponent) arrays."""
    return ScaledValue(mant[0], int(exps[0])) if scalar else (mant, exps)


def ln_abs(mant: np.ndarray, exps) -> np.ndarray:
    """ln|mant * B**exps| entry by entry, -inf for a zero."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(mant)) + exps * LN_BASE


def to_complex(value) -> complex | np.ndarray:
    """A ScaledValue or (mantissa, exponent) arrays down-converted."""
    if isinstance(value, ScaledValue):
        return value.to_complex()
    out = ldexp_array(value[0], value[1] * BASE_LOG2)
    if not np.all(np.isfinite(out)):
        raise SaturationError("value exceeds double range")
    return out


def log2_split(x) -> tuple[np.ndarray, np.ndarray]:
    """Positive x as 2**e * r: (e, ln r), |ln r| <= ln(2)/2, so x**n is
    e^{n ln r} * 2**(n e), rounded only in the small argument n ln r."""
    e = np.round(np.log2(x)).astype(np.int64)
    return e, np.log(np.ldexp(x, -e))


@functools.lru_cache(maxsize=256)
def ln_split(x: float) -> tuple[int, float, float]:
    """x > 0 as 2**e * e^{hi + lo} (40-digit logarithm), |hi + lo| <= ln(2)/2:
    hi has 26 significant bits, so k * hi is exact for integers |k| < 2**26."""
    e = round(math.log2(x))
    with decimal.localcontext(decimal.Context(prec=40)):
        ln_r = decimal.Decimal(math.ldexp(x, -e)).ln()
        c = float(ln_r) * 134217729.0  # Veltkamp's split by 2**27 + 1
        hi = c - (c - float(ln_r))
        return e, hi, float(ln_r - decimal.Decimal(hi))


def exact_power(q_split: tuple, p, r_split: tuple = (0, 0.0), s=0):
    """q^p r^s as (f, bits), q^p r^s = f * 2**bits, for integer arrays p and s (broadcast),
    q_split = ln_split(q) and r_split = log2_split(r) (r = 1 when omitted).

    The powers of two p e_q + s e_r are exact integers.  p * hi is exact while |p| < 2**26
    (hi has 26 significant bits), and the small rest p * lo + s ln r' (r = 2**e_r r') goes in
    as exp_pow2's t_lo: only f is rounded, to ~1 ulp.
    """
    e_q, hi, lo = q_split
    f, bits = exp_pow2(p * hi, s * r_split[1] + p * lo)
    return f, bits + s * r_split[0] + p * e_q


def exp_pow2(t: np.ndarray, t_lo=0.0) -> tuple[np.ndarray, np.ndarray]:
    """e^{t + t_lo} as (f, n) with e^{t + t_lo} = f * 2**n, n an exact integer
    and f in [1, 2) up to rounding.

    Only f is rounded, from a split ln 2 and with t_lo added last, so it is
    accurate to ~1 ulp while |n| < 2**21.
    Raises SaturationError unless |t| < 2**52 (non-finite t included).
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.abs(t) < 2.0**52):
        raise SaturationError("log magnitude non-finite or beyond 2**52")
    n = np.floor((t + t_lo) / math.log(2.0))
    f = np.exp((t - n * _LN2_HI) - n * _LN2_LO + t_lo)
    return f, n.astype(np.int64)


class ScaledValue:
    """A complex number stored as mantissa * (2**128)**exponent."""

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: complex = 0j, exponent: int = 0):
        check_counts("exponent", exponent, least=-math.inf)
        with np.errstate(all="ignore"):
            mant, shift = normalise_array(np.array([complex(mantissa)]), 0)
        m = complex(mant[0])
        if not cmath.isfinite(m):  # also a finite mantissa whose modulus overflows
            raise SaturationError(f"mantissa {mantissa!r} not finite or |mantissa| beyond 1.8e308")
        object.__setattr__(self, "mantissa", m)
        object.__setattr__(self, "exponent", exponent + int(shift[0]) if m else 0)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("ScaledValue is immutable")

    # ---------------------------------------------------------------- queries

    @property
    def is_zero(self) -> bool:
        return self.mantissa == 0

    def ln_abs(self) -> float:
        """log|value|, or -inf for zero."""
        return float(ln_abs(np.array([self.mantissa]), self.exponent)[0])

    def to_complex(self) -> complex:
        """Down-convert; raises SaturationError when out of double range.

        Values far below the double range quietly become 0.0.
        """
        # past |exponent| = 10 every value overflows or is 0: the clip keeps an
        # exponent of any size within int64
        exponent = max(-10, min(self.exponent, 10))
        return complex(to_complex((np.array([self.mantissa]), exponent))[0])

    __complex__ = to_complex

    # ---------------------------------------------------------------- arithmetic

    def __mul__(self, other):
        if not isinstance(other, ScaledValue):
            return NotImplemented
        return ScaledValue(self.mantissa * other.mantissa, self.exponent + other.exponent)

    # ---------------------------------------------------------------- misc

    def __eq__(self, other):
        if not isinstance(other, ScaledValue):
            return NotImplemented
        return self.mantissa == other.mantissa and self.exponent == other.exponent

    def __hash__(self):
        return hash((self.mantissa, self.exponent))

    def __repr__(self):
        if self.is_zero:
            return "ScaledValue(0)"
        return f"ScaledValue({self.mantissa!r}, exponent={self.exponent})"
