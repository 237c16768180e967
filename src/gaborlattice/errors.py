"""Exception taxonomy shared by all modules, and the input checks that raise it.

The CLI maps these onto its exit-code contract: validation problems
(InvalidParameterError, DomainError, ConfigError) exit 2, numerical
problems (NonConvergenceError, SaturationError) exit 3.  Every public routine
reads its counts, lattice indices, real parameters, points and models through the checks below.
The two sizes every module shares live here too: the desk-scale guard and the element budget.
"""

import math

import numpy as np

MAX_GRID_POINTS = 10**7  # desk-scale guard: the most grid points, or table entries, one call builds
BLOCK_ELEMENTS = 2**16  # the most elements of an array one engine or quadrature block makes


class GaborLatticeError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(GaborLatticeError, ValueError):
    """An argument violates a documented precondition."""


class DomainError(GaborLatticeError, ValueError):
    """Evaluation requested outside a function's domain (e.g. z = 0)."""


class ConfigError(GaborLatticeError, ValueError):
    """A CLI configuration file failed schema validation."""


class NonConvergenceError(GaborLatticeError, RuntimeError):
    """A truncated series/iteration hit its hard cap before converging.

    ``diagnostics`` carries whatever the failing routine knew (e.g. the
    last two refinement estimates) so callers can report something useful.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class SaturationError(GaborLatticeError, OverflowError):
    """A scaled value could not be converted back to a plain float."""


class RegimeError(GaborLatticeError, RuntimeError):
    """Reconstruction refused: the sampling density does not determine
    the signal (tau >= pi)."""


def as_array(values) -> np.ndarray:
    """np.asarray(values), or for a ragged nesting an object array, which the checks refuse."""
    try:
        return np.asarray(values)
    except ValueError:  # ragged nesting
        return np.array(None)


def check_counts(what: str, *values, least=0):
    """Refuse values that are not integers >= least (a bool is refused)."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise InvalidParameterError(f"{what} must be integers >= {least}, got {value!r:.40}")


def check_indices(n, bound=None) -> np.ndarray:
    """Lattice indices, an integer or an array or list of them (empty too), as a 1-d
    int64 array; with a bound, each |n| is at most bound.  Bools and floats are refused."""
    ns = as_array(n)
    if (ns.size and ns.dtype.kind not in "iu"
            or bound is not None and not ((-bound <= ns) & (ns <= bound)).all()):
        within = "" if bound is None else f" with |n| <= {bound}"
        raise InvalidParameterError(f"lattice indices must be integers{within}, got {n!r:.40}")
    return ns.astype(np.int64, copy=False).reshape(-1)


def check_points(values, what: str, real: bool = False) -> tuple[np.ndarray, bool]:
    """Evaluation points, a number or an array or list of numbers, as a 1-d float (real)
    or complex array, and whether they came as one number.  Each must be finite, and
    complex points lie in C \\ {0}, where the theta forms and their quotients live."""
    arr = as_array(values)
    if arr.dtype.kind not in "iuf" + "c" * (not real):
        raise InvalidParameterError(f"{what} must be numbers, got {values!r:.40}")
    arr = arr.astype(float if real else complex, copy=False)
    if not (np.isfinite(arr) if real else np.isfinite(arr) & (arr != 0)).all():
        raise DomainError(f"{what} must be finite{'' if real else ' and non-zero'}, "
                          f"got {values!r:.40}")
    return arr.reshape(-1), arr.ndim == 0


def check_real(what: str, value, low=-math.inf, high=math.inf, closed: bool = False) -> float:
    """value as a float: a real number (a NumPy real scalar too, not a bool or an
    array), finite, above low (or equal to it when closed) and below high."""
    fits = isinstance(value, (float, np.integer, np.floating)) or (
        type(value) is int and abs(value) < 2 ** 1024)  # not a bool, nor an int past the doubles
    real = float(value) if fits else math.nan
    if not (math.isfinite(real) and (low <= real if closed else low < real) and real < high):
        raise InvalidParameterError(f"bad {what} {value!r:.40}: need a finite real in "
                                    f"{'[' if closed else '('}{low:g}, {high:g})")
    return real


def check_type(what: str, value, cls: type):
    """value, refused unless it is an instance of cls (a SignalModel, LatticeParams, ...)."""
    if not isinstance(value, cls):
        raise InvalidParameterError(f"{what} must be a {cls.__name__}, got {value!r:.40}")
    return value


def check_circles(radii, count, offset) -> tuple[np.ndarray, float]:
    """Uniform circles: radii, a number or an array or list of positive finite reals, as a 1-d
    float array and the angle offset as a float; count, the points per circle, is >= 1."""
    check_counts("count", count, least=1)
    rs = as_array(radii)
    if rs.dtype.kind not in "iuf" or not (np.isfinite(rs) & (rs > 0)).all():
        raise InvalidParameterError(f"radii must be positive finite reals, got {radii!r:.40}")
    return rs.astype(float).reshape(-1), check_real("offset", offset)
