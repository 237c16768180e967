"""One refusal contract over the package root's public callables.

Every count, lattice index, real parameter and array of evaluation points is
fed a float for an int, a bool, NaN, +-inf, a 0-d array, a list, a ragged list
and a string; every signal, lattice, table and config parameter is fed those
and None, a number, a dict and a record of another type.  Each call must raise InvalidParameterError or DomainError, or be
one of the acceptances listed here: never a builtin exception, and never a
value computed from a coerced input.  The CLI is fed the same kinds of values
in every leaf of its configs, and must exit 2 and write no file.
"""

import copy
import json
import math
import warnings

import numpy as np
import pytest

import gaborlattice
from gaborlattice import (
    ContourSpec, DomainError, G_series, GammaTable, GaussianComponent, InvalidParameterError,
    ReconConfig, ScaledValue, SignalModel, auto_truncation, balanced_contour, coeff_E, eta,
    euler_product, eval_signal, forward_table, gamma_closed_form, gamma_quadrature, grid_points,
    inner_fourier_sum, lagrange_interpolant, lattice_derivative_candidate, laurent_c0, mk_trace,
    nome_from_tau, reconstruct_grid, reconstruct_point, round_trip, spatial_A, theta_prime_lattice,
    theta_prime_one, theta_product, theta_series, theta_series_scaled, windowed_sample_scaled)
from gaborlattice.cli import _table_document, main
from gaborlattice.oracle import G_OVER_THETA, GTILDE_OVER_THETA, G_on_circles, cardinal_on_circles
from gaborlattice.qtheta import theta_on_circles
from gaborlattice.scaled import laurent_on_circles
from gaborlattice.verify import run_suite

REFUSED = (InvalidParameterError, DomainError)
SIG = SignalModel.gaussian([(1.0, 0.0, 0.0)])
CB = SignalModel.callback(lambda x: eval_signal(SIG, x), 1.0, 0.0)
P = nome_from_tau(1.0)
TABLE = forward_table(SIG, 1.0, 2, 3)
PAYLOAD = forward_table(SIG, 1.0, 0, 0).to_payload()
ONE_SAMPLE = (np.ones(1, dtype=complex), np.zeros(1, dtype=np.int64))
SMALL_GRID = ReconConfig(grid=(-1.0, 1.0, 0.5))

#: (callable, parameter, kind, a valid value, the call with that parameter set to v)
PARAMETERS = [
    ("ContourSpec", "radius", "real", 1.5, lambda v: ContourSpec(v)),
    ("ContourSpec", "nodes", "count", 64, lambda v: ContourSpec(1.5, v)),
    ("G_series", "z", "z", 0.5, lambda v: G_series(v, 0.3, SIG, P)),
    ("G_series", "x", "real", 0.3, lambda v: G_series(0.5, v, SIG, P)),
    ("G_series", "signal", "signal", SIG, lambda v: G_series(0.5, 0.3, v, P)),
    ("G_series", "params", "lattice", P, lambda v: G_series(0.5, 0.3, SIG, v)),
    ("GammaTable", "M", "count", 0, lambda v: GammaTable(v, 0, 1.0, [1.0], [0])),
    ("GammaTable", "K", "count", 0, lambda v: GammaTable(0, v, 1.0, [1.0], [0])),
    ("GammaTable", "tau", "real", 1.0, lambda v: GammaTable(0, 0, v, [1.0], [0])),
    ("GammaTable.from_payload", "M", "count", 0, lambda v: GammaTable.from_payload(v, 0, 1.0,
                                                                                     PAYLOAD)),
    ("GammaTable.from_payload", "tau", "real", 1.0,
     lambda v: GammaTable.from_payload(0, 0, v, PAYLOAD)),
    ("GammaTable.get", "m", "count", 1, lambda v: TABLE.get(v, 0)),
    ("GammaTable.get", "k", "count", 1, lambda v: TABLE.get(0, v)),
    ("GaussianComponent", "amplitude", "real", 1.0, lambda v: GaussianComponent(v, 0.0, 0.0)),
    ("GaussianComponent", "center", "real", 0.0, lambda v: GaussianComponent(1.0, v, 0.0)),
    ("GaussianComponent", "modulation", "real", 0.0, lambda v: GaussianComponent(1.0, 0.0, v)),
    ("ReconConfig", "tol", "real", 1e-8, lambda v: ReconConfig(tol=v)),
    ("ReconConfig", "grid start", "real", -3.0, lambda v: ReconConfig(grid=(v, 3.0, 0.05))),
    ("ReconConfig", "grid end", "real", 3.0, lambda v: ReconConfig(grid=(-3.0, v, 0.05))),
    ("ReconConfig", "grid step", "real", 0.05, lambda v: ReconConfig(grid=(-3.0, 3.0, v))),
    ("ReconConfig", "truncation M", "count", 2, lambda v: ReconConfig(truncation=(v, 3))),
    ("ReconConfig", "truncation K", "count", 3, lambda v: ReconConfig(truncation=(2, v))),
    ("ScaledValue", "exponent", "count", 1, lambda v: ScaledValue(1.0, v)),
    ("SignalModel", "bound", "real", 1.0, lambda v: SignalModel("callback", sampler=abs, bound=v)),
    ("SignalModel", "growth", "real", 0.0,
     lambda v: SignalModel("callback", sampler=abs, bound=1.0, growth=v)),
    ("SignalModel.gaussian", "amplitude", "real", 1.0,
     lambda v: SignalModel.gaussian([(v, 0.0, 0.0)])),
    ("SignalModel.gaussian", "center", "real", 0.0,
     lambda v: SignalModel.gaussian([(1.0, v, 0.0)])),
    ("SignalModel.gaussian", "modulation", "real", 0.0,
     lambda v: SignalModel.gaussian([(1.0, 0.0, v)])),
    ("SignalModel.callback", "bound", "real", 1.0, lambda v: SignalModel.callback(abs, v, 0.0)),
    ("SignalModel.callback", "growth", "real", 0.0, lambda v: SignalModel.callback(abs, 1.0, v)),
    ("auto_truncation", "tol", "real", 1e-8, lambda v: auto_truncation(SIG, P, v)),
    ("auto_truncation", "x_max", "real", 3.0, lambda v: auto_truncation(SIG, P, 1e-8, v)),
    ("auto_truncation", "signal", "signal", SIG, lambda v: auto_truncation(v, P, 1e-8)),
    ("auto_truncation", "params", "lattice", P, lambda v: auto_truncation(SIG, v, 1e-8)),
    ("balanced_contour", "nodes", "count", 64, lambda v: balanced_contour(P, v)),
    ("balanced_contour", "params", "lattice", P, balanced_contour),
    ("coeff_E", "m", "index", 2, lambda v: coeff_E(v, P)),
    ("coeff_E", "params", "lattice", P, lambda v: coeff_E(2, v)),
    ("eta", "z", "z", 0.5, lambda v: eta(v, P.q)),
    ("eta", "q", "real", 0.3, lambda v: eta(0.5, v)),
    ("euler_product", "q", "real", 0.3, lambda v: euler_product(v)),
    ("eval_signal", "x", "x", 0.3, lambda v: eval_signal(SIG, v)),
    ("eval_signal", "signal", "signal", SIG, lambda v: eval_signal(v, 0.3)),
    ("forward_table", "tau", "real", 1.0, lambda v: forward_table(SIG, v, 1, 1)),
    ("forward_table", "M", "count", 1, lambda v: forward_table(SIG, 1.0, v, 1)),
    ("forward_table", "K", "count", 1, lambda v: forward_table(SIG, 1.0, 1, v)),
    ("forward_table", "signal", "signal", SIG, lambda v: forward_table(v, 1.0, 1, 1)),
    ("gamma_closed_form", "m", "index", 1, lambda v: gamma_closed_form(v, 0, SIG, 1.0)),
    ("gamma_closed_form", "k", "index", 1, lambda v: gamma_closed_form(0, v, SIG, 1.0)),
    ("gamma_closed_form", "tau", "real", 1.0, lambda v: gamma_closed_form(0, 0, SIG, v)),
    ("gamma_closed_form", "signal", "signal", SIG, lambda v: gamma_closed_form(0, 0, v, 1.0)),
    ("gamma_quadrature", "m", "index", 1, lambda v: gamma_quadrature(v, 0, CB, 1.0)),
    ("gamma_quadrature", "k", "index", 1, lambda v: gamma_quadrature(0, v, CB, 1.0)),
    ("gamma_quadrature", "tau", "real", 1.0, lambda v: gamma_quadrature(0, 0, CB, v)),
    ("gamma_quadrature", "signal", "signal", CB, lambda v: gamma_quadrature(0, 0, v, 1.0)),
    ("grid_points", "grid start", "real", -1.0, lambda v: grid_points((v, 1.0, 0.5))),
    ("grid_points", "grid end", "real", 1.0, lambda v: grid_points((-1.0, v, 0.5))),
    ("grid_points", "grid step", "real", 0.5, lambda v: grid_points((-1.0, 1.0, v))),
    ("inner_fourier_sum", "x", "x", 0.3, lambda v: inner_fourier_sum(np.ones((1, 7)), v, 3)),
    ("inner_fourier_sum", "K", "count", 3,
     lambda v: inner_fourier_sum(np.ones((1, 7)), [0.3], v)),
    ("lagrange_interpolant", "z", "z", 0.5 + 0.5j,
     lambda v: lagrange_interpolant(v, [0], ONE_SAMPLE, P)),
    ("lagrange_interpolant", "ns", "index", 1,
     lambda v: lagrange_interpolant(0.5 + 0.5j, v, ONE_SAMPLE, P)),
    ("lagrange_interpolant", "sample mantissas", "mantissas", 1.0,
     lambda v: lagrange_interpolant(0.5 + 0.5j, [0], (v, [0]), P)),
    ("lagrange_interpolant", "params", "lattice", P,
     lambda v: lagrange_interpolant(0.5 + 0.5j, [0], ONE_SAMPLE, v)),
    ("lattice_derivative_candidate", "n", "index", 1,
     lambda v: lattice_derivative_candidate(v, P.q)),
    ("lattice_derivative_candidate", "q", "real", 0.3,
     lambda v: lattice_derivative_candidate(1, v)),
    ("laurent_c0", "m", "index", 1, lambda v: laurent_c0(v, P)),
    ("laurent_c0", "params", "lattice", P, lambda v: laurent_c0(1, v)),
    ("mk_trace", "k_range", "index", 1, lambda v: mk_trace(G_OVER_THETA, v, 0.3, SIG, P)),
    ("mk_trace", "x", "real", 0.3, lambda v: mk_trace(G_OVER_THETA, [1], v, SIG, P)),
    ("mk_trace", "signal", "signal", SIG, lambda v: mk_trace(G_OVER_THETA, [1], 0.3, v, P)),
    ("mk_trace", "params", "lattice", P, lambda v: mk_trace(G_OVER_THETA, [1], 0.3, SIG, v)),
    ("nome_from_tau", "tau", "real", 1.0, nome_from_tau),
    ("reconstruct_point", "x", "x", 0.3, lambda v: reconstruct_point(v, TABLE, P, 1, 1)),
    ("reconstruct_point", "M", "count", 1, lambda v: reconstruct_point(0.3, TABLE, P, v, 1)),
    ("reconstruct_point", "K", "count", 1, lambda v: reconstruct_point(0.3, TABLE, P, 1, v)),
    ("reconstruct_point", "offsets", "offsets", [0.0, 0.1],
     lambda v: reconstruct_point([0.3], TABLE, P, 1, 1, v)),
    ("reconstruct_point", "table", "table", TABLE, lambda v: reconstruct_point(0.3, v, P, 1, 1)),
    ("reconstruct_point", "params", "lattice", P,
     lambda v: reconstruct_point(0.3, TABLE, v, 1, 1)),
    ("reconstruct_grid", "config", "config", SMALL_GRID,
     lambda v: reconstruct_grid(v, TABLE, P)),
    ("reconstruct_grid", "table", "table", TABLE, lambda v: reconstruct_grid(SMALL_GRID, v, P)),
    ("reconstruct_grid", "params", "lattice", P,
     lambda v: reconstruct_grid(SMALL_GRID, TABLE, v)),
    ("reconstruct_grid", "reference", "optional signal", SIG,
     lambda v: reconstruct_grid(SMALL_GRID, TABLE, P, v)),
    ("round_trip", "tau", "real", 1.0, lambda v: round_trip(SIG, v, SMALL_GRID)),
    ("round_trip", "threads", "count", 1, lambda v: round_trip(SIG, 1.0, SMALL_GRID,
                                                                threads=v)),
    ("round_trip", "signal", "signal", SIG, lambda v: round_trip(v, 1.0, SMALL_GRID)),
    ("round_trip", "config", "optional config", SMALL_GRID, lambda v: round_trip(SIG, 1.0, v)),
    ("spatial_A", "m", "index", 1, lambda v: spatial_A(v, 0.3, SIG, P)),
    ("spatial_A", "x", "x", 0.3, lambda v: spatial_A(1, v, SIG, P)),
    ("spatial_A", "signal", "signal", SIG, lambda v: spatial_A(1, 0.3, v, P)),
    ("spatial_A", "params", "lattice", P, lambda v: spatial_A(1, 0.3, SIG, v)),
    ("theta_prime_lattice", "n", "index", 1, lambda v: theta_prime_lattice(v, P.q)),
    ("theta_prime_lattice", "q", "real", 0.3, lambda v: theta_prime_lattice(1, v)),
    ("theta_prime_one", "q", "real", 0.3, theta_prime_one),
    ("theta_product", "z", "z", 0.5, lambda v: theta_product(v, 0.3)),
    ("theta_product", "q", "real", 0.3, lambda v: theta_product(0.5, v)),
    ("theta_series", "z", "z", 0.5, lambda v: theta_series(v, 0.3)),
    ("theta_series", "q", "real", 0.3, lambda v: theta_series(0.5, v)),
    ("theta_series_scaled", "z", "z", 0.5, lambda v: theta_series_scaled(v, 0.3)),
    ("theta_series_scaled", "q", "real", 0.3, lambda v: theta_series_scaled(0.5, v)),
    ("windowed_sample_scaled", "x", "x", 0.3, lambda v: windowed_sample_scaled(SIG, v)),
    ("windowed_sample_scaled", "signal", "signal", SIG,
     lambda v: windowed_sample_scaled(v, 0.3)),
]

#: public callables that read no count, index or real parameter of their own
EXEMPT = {
    "ConfigError": "an exception class",
    "DomainError": "an exception class",
    "GaborLatticeError": "an exception class",
    "InvalidParameterError": "an exception class",
    "NonConvergenceError": "an exception class",
    "RegimeError": "an exception class",
    "SaturationError": "an exception class",
    "LatticeParams": "a record: nome_from_tau builds it from tau",
    "ReconReport": "a result record",
    "TruncationChoice": "a result record",
    "calibrate_constant": "takes no argument",
}

#: per record kind (a parameter that must be one SignalModel, LatticeParams, GammaTable or
#: ReconConfig): a record of another type, and the number it is most often mistaken for
OTHER_RECORD = {"signal": (P, 1.0), "lattice": (SIG, 1.0), "table": (P, 1.0),
                "config": (TABLE, 0.5)}


#: per kind: (label, input, whether it is accepted); v is the parameter's valid value
def _inputs(kind: str, v):
    common = [("bool", True, False), ("nan", math.nan, False), ("inf", math.inf, False),
              ("-inf", -math.inf, False), ("string", str(v), False),
              ("ragged list", [[v], [v, v]], False)]
    record = kind.removeprefix("optional ")
    if record in OTHER_RECORD:  # None is the default of an optional record
        other, number = OTHER_RECORD[record]
        return common + [("None", None, record != kind), ("number", number, False),
                         ("list", [v], False), ("dict", {}, False),
                         ("other record", other, False)]
    if kind == "count":
        return common + [("float for int", float(v), False), ("0-d array", np.array(v), False),
                         ("list", [v], False), ("numpy int", np.int64(v), True)]
    if kind == "index":
        return common + [("float for int", float(v), False), ("0-d array", np.array(v), True),
                         ("list", [v], True), ("numpy int", np.int64(v), True),
                         ("int16 array", np.array([v], dtype=np.int16), True)]
    if kind == "real":
        return common + [("0-d array", np.array(v), False), ("list", [v], False),
                         ("numpy float32", np.float32(v), True),
                         ("numpy float64", np.float64(v), True)]
    if kind == "offsets":  # a 1-d array or list of reals
        return common + [("0-d array", np.array(0.1), False), ("2-d", [v], False),
                         ("bool array", [True, False], False), ("complex", [0.1j], False),
                         ("array", np.array(v), True), ("float32 array", np.float32(v), True)]
    points = common + [("0-d array", np.array(v), True), ("list", [v], True)]
    if kind == "mantissas":  # complex numbers, zero too
        return points + [("zero", 0.0, True), ("complex", [0.5j], True),
                         ("bool array", np.array([True]), False)]
    return points + ([("zero", 0.0, False)] if kind == "z" else [])


CASES = [pytest.param(call, accepted, x, id=f"{name}-{param}-{label}")
         for name, param, kind, v, call in PARAMETERS
         for label, x, accepted in _inputs(kind, v)]


@pytest.mark.parametrize("call, accepted, value", CASES)
def test_every_parameter_refuses_or_accepts(call, accepted, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if accepted:
            call(value)
        else:
            with pytest.raises(REFUSED):
                call(value)


def test_the_table_names_every_public_callable():
    public = {name for name in gaborlattice.__all__ if callable(getattr(gaborlattice, name))}
    tabled = {name.split(".")[0] for name, *_ in PARAMETERS}
    assert tabled.isdisjoint(EXEMPT)
    assert public == tabled | set(EXEMPT)


def test_valid_values_run():
    for name, param, _, v, call in PARAMETERS:
        call(v)


# --- the inputs that were coerced, died with a builtin exception or gave a value before,
#     and the refusals that no other test reaches

PROBED = {
    "nome_from_tau(True)": lambda: nome_from_tau(True),
    "round_trip(sig, True)": lambda: round_trip(SIG, True),
    "forward_table(sig, True, 1, 1)": lambda: forward_table(SIG, True, 1, 1),
    "forward_table(sig, '1', 1, 1)": lambda: forward_table(SIG, "1", 1, 1),
    "SignalModel.callback(f, True, 0.0)": lambda: SignalModel.callback(abs, True, 0.0),
    "SignalModel.callback(f, '1', 0.0)": lambda: SignalModel.callback(abs, "1", 0.0),
    "ReconConfig(grid=(0.0, 1.0, True))": lambda: ReconConfig(grid=(0.0, 1.0, True)),
    "ReconConfig(grid=(0.0, 1.0))": lambda: ReconConfig(grid=(0.0, 1.0)),
    "ReconConfig(truncation=(1, 2, 3))": lambda: ReconConfig(truncation=(1, 2, 3)),
    "gamma_closed_form(0.5, 0, ...)": lambda: gamma_closed_form(0.5, 0, SIG, 1.0),
    "gamma_quadrature(0.5, 0, ...)": lambda: gamma_quadrature(0.5, 0, CB, 1.0),
    "spatial_A(1.5, ...)": lambda: spatial_A(1.5, 0.3, SIG, P),
    "spatial_A(True, ...)": lambda: spatial_A(True, 0.3, SIG, P),
    "lagrange_interpolant(half-integer ns)": lambda: lagrange_interpolant(
        0.5 + 0.5j, np.arange(-3, 4) + 0.5, (np.ones(7), np.zeros(7, dtype=np.int64)), P),
    "mk_trace(k_range=[0.5, 1.5])": lambda: mk_trace(G_OVER_THETA, [0.5, 1.5], 0.3, SIG, P),
    "ContourSpec(r, nodes=64.0)": lambda: ContourSpec(1.5, nodes=64.0),
    "laurent_c0 on ContourSpec(r, nodes=64.0)": lambda: laurent_c0(
        0, P, ContourSpec(balanced_contour(P).radius, nodes=64.0)),
    "cardinal_on_circles(float ns)": lambda: cardinal_on_circles(
        [1.5], np.array([0.0]), ONE_SAMPLE, P.q, 64),
    "grid_points((0.0, 1.0, nan))": lambda: grid_points((0.0, 1.0, math.nan)),
    "spatial_A at x = nan": lambda: spatial_A(0, math.nan, SIG, P),
    "spatial_A at x = inf": lambda: spatial_A(0, math.inf, SIG, P),
    "G_series at x = nan": lambda: G_series(0.5, math.nan, SIG, P),
    "mk_trace at x = inf": lambda: mk_trace(G_OVER_THETA, [0], math.inf, SIG, P),
    "eval_signal(sig, ragged list)": lambda: eval_signal(SIG, [[0.0], [1.0, 2.0]]),
    "coeff_E(ragged list, p)": lambda: coeff_E([[0], [1, 2]], P),
    "raw SignalModel with a NaN growth": lambda: forward_table(
        SignalModel(kind="callback", sampler=abs, bound=True, growth=math.nan), 1.0, 1, 1),
    "raw SignalModel of an unknown kind": lambda: forward_table(SignalModel(kind="bogus"),
                                                                1.0, 1, 1),
    "raw SignalModel with no components": lambda: SignalModel(kind="gaussian_family"),
    "raw SignalModel with a NaN centre": lambda: SignalModel(
        kind="gaussian_family", components=((1.0, math.nan, 0.0),)),
    "raw SignalModel whose sampler is not callable": lambda: SignalModel(kind="callback"),
    "SignalModel.gaussian(5)": lambda: SignalModel.gaussian(5),
    "lagrange_interpolant(float sample exponents)": lambda: lagrange_interpolant(
        0.5 + 0.5j, [0], (np.ones(1), np.array([0.7])), P),
    "grid_points((-1e308, 1e308, 1.0))": lambda: grid_points((-1e308, 1e308, 1.0)),
    "grid_points((0.0, 1e300, 1e-300))": lambda: grid_points((0.0, 1e300, 1e-300)),
    "forward_table(sig, 1.0, 10**30, 1)": lambda: forward_table(SIG, 1.0, 10**30, 1),
    "forward_table(sig, 1.0, 1, 10**30)": lambda: forward_table(SIG, 1.0, 1, 10**30),
    "GammaTable.from_payload(list)": lambda: GammaTable.from_payload(
        0, 0, 1.0, list(PAYLOAD.values())),
    "GammaTable.from_payload(missing column)": lambda: GammaTable.from_payload(
        0, 0, 1.0, {key: v for key, v in PAYLOAD.items() if key != "exponent"}),
    "GammaTable.from_payload(extra column)": lambda: GammaTable.from_payload(
        0, 0, 1.0, {**PAYLOAD, "note": [0]}),
    "GammaTable(1, 0, 1.0, [1.0], [0])": lambda: GammaTable(1, 0, 1.0, [1.0], [0]),
    "GammaTable(10**30, 0, 1.0, [1.0], [0])": lambda: GammaTable(10**30, 0, 1.0, [1.0], [0]),
    "GammaTable(ragged mantissas)": lambda: GammaTable(0, 1, 1.0, [[1.0], [1.0, 1.0]], [0] * 3),
    "GammaTable(float exponents)": lambda: GammaTable(0, 0, 1.0, [1.0], [0.5]),
    "laurent_on_circles(count=0)": lambda: laurent_on_circles(
        np.arange(2), np.ones((1, 2), dtype=complex), np.zeros((1, 2), dtype=np.int64), 0),
    "laurent_on_circles(count=2.5)": lambda: laurent_on_circles(
        np.arange(2), np.ones((1, 2), dtype=complex), np.zeros((1, 2), dtype=np.int64), 2.5),
    "laurent_on_circles(offset=nan)": lambda: laurent_on_circles(
        np.arange(2), np.ones((1, 2), dtype=complex), np.zeros((1, 2), dtype=np.int64), 4,
        math.nan),
    "mk_trace with weights at 2 nodes": lambda: mk_trace(
        GTILDE_OVER_THETA, [0], 0.3, SIG, P, weights=(np.ones(2), np.zeros(2, dtype=np.int64))),
    "mk_trace with 3 weight mantissas and 2 exponents": lambda: mk_trace(
        GTILDE_OVER_THETA, [0], 0.3, SIG, P, weights=(np.ones(3), np.zeros(2, dtype=np.int64))),
    "run_suite('bogus', 1.0)": lambda: run_suite("bogus", 1.0),
    "run_suite('poisson', 1.0, signal='x')": lambda: run_suite("poisson", 1.0, signal="x"),
    "reconstruct_point with M past the table": lambda: reconstruct_point(0.3, TABLE, P, 3, 1),
    "reconstruct_point with K past the table": lambda: reconstruct_point(0.3, TABLE, P, 1, 4),
    "spatial_A(9, ...) at supercritical tau": lambda: spatial_A(9, 0.3, SIG, nome_from_tau(4.0)),
    "lagrange_interpolant with 1 sample at 2 nodes": lambda: lagrange_interpolant(
        0.5 + 0.5j, [0, 1], ONE_SAMPLE, P),
    "mk_trace at supercritical tau": lambda: mk_trace(G_OVER_THETA, [0], 0.3, SIG,
                                                      nome_from_tau(4.0)),
    "lattice_derivative_candidate(variant='bogus')": lambda: lattice_derivative_candidate(
        1, P.q, variant="bogus"),
    "coeff_E(variant='bogus')": lambda: coeff_E(1, P, variant="bogus"),
    # a signal or lattice of the wrong type
    "forward_table('x', 1.0, 1, 1)": lambda: forward_table("x", 1.0, 1, 1),
    "round_trip('x', 1.0)": lambda: round_trip("x", 1.0),
    "auto_truncation('x', p, 1e-8)": lambda: auto_truncation("x", P, 1e-8),
    "auto_truncation(sig, 1.0, 1e-8)": lambda: auto_truncation(SIG, 1.0, 1e-8),
    "coeff_E(1, 1.0)": lambda: coeff_E(1, 1.0),
    "reconstruct_point(0.0, table, 1.0, 1, 1)": lambda: reconstruct_point(0.0, TABLE, 1.0, 1, 1),
    "reconstruct_grid(config, table, 1.0)": lambda: reconstruct_grid(SMALL_GRID, TABLE, 1.0),
    "spatial_A(0, 0.0, 'x', p)": lambda: spatial_A(0, 0.0, "x", P),
    "spatial_A(0, 0.0, sig, 1.0)": lambda: spatial_A(0, 0.0, SIG, 1.0),
    "G_series(0.5, 0.0, 'x', p)": lambda: G_series(0.5, 0.0, "x", P),
    "G_series(0.5, 0.0, sig, 1.0)": lambda: G_series(0.5, 0.0, SIG, 1.0),
    "laurent_c0(0, 1.0)": lambda: laurent_c0(0, 1.0),
    "lagrange_interpolant(z, ns, samples, 1.0)": lambda: lagrange_interpolant(
        0.5 + 0.5j, [0], ONE_SAMPLE, 1.0),
    "mk_trace(kind, k, x, sig, 1.0)": lambda: mk_trace(G_OVER_THETA, [0], 0.3, SIG, 1.0),
    "mk_trace(kind, k, x, 'x', p)": lambda: mk_trace(G_OVER_THETA, [0], 0.3, "x", P),
    "eval_signal('x', 0.0)": lambda: eval_signal("x", 0.0),
    "windowed_sample_scaled('x', 0.0)": lambda: windowed_sample_scaled("x", 0.0),
    "gamma_closed_form(0, 0, 'x', 1.0)": lambda: gamma_closed_form(0, 0, "x", 1.0),
    "gamma_quadrature(0, 0, 'x', 1.0)": lambda: gamma_quadrature(0, 0, "x", 1.0),
}


@pytest.mark.parametrize("call", PROBED.values(), ids=PROBED.keys())
def test_probed_inputs_are_refused(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(REFUSED):
            call()


#: the routines on uniform circles, each called with (radii, count, offset)
CIRCLE_ROUTINES = {
    "theta_on_circles": lambda r, n, o: theta_on_circles(r, P.q, n, o),
    "G_on_circles": lambda r, n, o: G_on_circles(r, 0.3, SIG, n, o),
    "cardinal_on_circles": lambda r, n, o: cardinal_on_circles(r, [0], ONE_SAMPLE, P.q, n, o),
}
#: (label, radii, count, offset) that every circle routine refuses
BAD_CIRCLES = [
    ("offset nan", [1.5], 8, math.nan), ("offset inf", [1.5], 8, math.inf),
    ("offset -inf", [1.5], 8, -math.inf), ("offset string", [1.5], 8, "0.5"),
    ("count 0", [1.5], 0, 0.0), ("count 2.5", [1.5], 2.5, 0.0), ("count bool", [1.5], True, 0.0),
    ("radius 0", [0.0], 8, 0.0), ("radius -1", [-1.0], 8, 0.0), ("radius nan", [math.nan], 8, 0.0),
    ("radius inf", [math.inf], 8, 0.0), ("radius bool", [True], 8, 0.0),
    ("radius complex", [1.5j], 8, 0.0), ("radius string", "1.5", 8, 0.0),
    ("ragged radii", [[1.5], [1.5, 2.0]], 8, 0.0),
]


@pytest.mark.parametrize("call", CIRCLE_ROUTINES.values(), ids=CIRCLE_ROUTINES.keys())
@pytest.mark.parametrize("radii, count, offset", [case[1:] for case in BAD_CIRCLES],
                         ids=[case[0] for case in BAD_CIRCLES])
def test_circle_routines_refuse_bad_circles(call, radii, count, offset):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidParameterError):
            call(radii, count, offset)


@pytest.mark.parametrize("call", CIRCLE_ROUTINES.values(), ids=CIRCLE_ROUTINES.keys())
def test_circle_routines_accept_any_form_of_real_radii(call):
    expected = call([1.5, 2.0], 8, 0.5)
    for radii in (np.array([1.5, 2.0], dtype=np.float32), (1.5, 2)):
        assert all(np.array_equal(a, b) for a, b in zip(call(radii, np.int64(8), 0.5), expected))
    assert all(np.array_equal(a, b[:8]) for a, b in zip(call(1.5, 8, np.float64(0.5)), expected))
    assert call([], 8, 0.0)[0].shape == (0,)


def test_documented_acceptances():
    table = forward_table(SIG, 1.0, np.int64(5), 9)
    assert table == forward_table(SIG, 1.0, 5, 9)
    assert nome_from_tau(np.float32(1.0)) == nome_from_tau(1.0)
    for dtype in (np.int8, np.uint8, np.int32, np.uint64):
        ms = np.arange(3, dtype=dtype)
        assert np.array_equal(coeff_E(ms, P)[0], coeff_E([0, 1, 2], P)[0])
        assert np.array_equal(theta_prime_lattice(ms, P.q)[0], theta_prime_lattice([0, 1, 2],
                                                                                  P.q)[0])
        assert np.array_equal(gamma_closed_form(ms, ms, SIG, 1.0)[0],
                              gamma_closed_form((0, 1, 2), (0, 1, 2), SIG, 1.0)[0])
    for empty in (np.array([], dtype=np.int64), np.array([], dtype=np.uint8), []):
        assert coeff_E(empty, P)[0].shape == (0,)
        assert theta_prime_lattice(empty, P.q)[0].shape == (0,)
        assert lattice_derivative_candidate(empty, P.q)[0].shape == (0,)
        assert laurent_c0(empty, P).shape == (0,)
    # the MAX_LATTICE_INDEX bound is the theta layer's; rows past it stay accepted elsewhere
    assert forward_table(SIG, 0.1, 70, 1).M == 70
    assert gamma_closed_form(0, 4096, SIG, 1.0)[0].to_complex() == 0.0
    # integer sample exponents, in any integer form, read as before
    expected = lagrange_interpolant(0.5 + 0.5j, [0], ONE_SAMPLE, P)
    for exps in ([0], np.zeros(1, dtype=np.int8), 0):
        assert lagrange_interpolant(0.5 + 0.5j, [0], (np.ones(1), exps), P) == expected
    # offsets give one row per point, one column per offset
    assert reconstruct_point([0.3, 0.4], TABLE, P, 1, 1, [0.0, 0.1, 0.2]).shape == (2, 3)
    assert reconstruct_point(0.3, TABLE, P, 1, 1, np.zeros(2, np.float32)).shape == (1, 2)
    # the raw constructor keeps what the named ones build
    assert SignalModel("gaussian_family", components=[(1.0, 0.0, 0.0)]) == SIG
    assert SignalModel("callback", sampler=CB.sampler, bound=1, growth=0) == CB


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_sample_mantissa_is_a_domain_error(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="sample mantissas must be finite"):
            lagrange_interpolant(0.5 + 0.5j, [0, 1], ([1.0, bad], [0, 0]), P)


# --- one callback sample, one refusal, on every path that samples it


def test_every_callback_path_refuses_a_non_finite_sample_alike():
    cb = SignalModel.callback(lambda x: math.nan if x > 1 else 1.0, bound=1.0, growth=0.0)
    paths = [lambda: eval_signal(cb, [0.0, 2.0]),
             lambda: windowed_sample_scaled(cb, np.array([0.0, 2.0])),
             lambda: spatial_A(0, 0.5, cb, P),
             lambda: gamma_quadrature(0, 0, cb, 1.0)]
    for path in paths:
        with pytest.raises(InvalidParameterError, match=r"callback returned \(nan\+0j\) at x="):
            path()


# --- the same inputs through the CLI: exit 2, and no file


GAUSSIAN = {"kind": "gaussian_family",
            "components": [{"amplitude": 1.0, "center": 0.0, "modulation": 0.0}]}


def _config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))  # NaN and Infinity pass as Python's json writes them
    return str(path)


@pytest.mark.parametrize("config, flags", [
    ({"tau": math.nan, "signal": GAUSSIAN, "truncation": {"M": 1, "K": 1}}, []),
    ({"tau": -math.inf, "signal": GAUSSIAN, "truncation": "auto"}, []),
    ({"tau": 1.0, "signal": GAUSSIAN, "truncation": "auto", "x_max": math.inf}, []),
    ({"tau": 1.0, "signal": GAUSSIAN, "truncation": "auto"}, ["--tol", "nan"]),
    ({"tau": 1.0, "signal": GAUSSIAN, "truncation": "auto", "tol": 1.5}, []),
    ({"tau": 1.0, "truncation": "auto", "signal": {
        "kind": "gaussian_family",
        "components": [{"amplitude": 1.0, "center": math.nan, "modulation": 0.0}]}}, []),
    ({"tau": 1.0, "truncation": "auto", "signal": {"kind": "gaussian_family", "components": []}},
     []),
])
def test_cli_forward_refuses_with_exit_2_and_no_file(tmp_path, config, flags):
    out = tmp_path / "table.json"
    cfg = _config(tmp_path, "forward.json", config)
    assert main(["forward", "--config", cfg, "--output", str(out), *flags]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["forward.json"]


@pytest.mark.parametrize("grid, tol, flags", [
    ({"min": -1.0, "max": 1.0, "step": math.inf}, 1e-8, []),
    ({"min": math.nan, "max": 1.0, "step": 0.5}, 1e-8, []),
    ({"min": -1.0, "max": 1.0, "step": 0.5}, 1.5, []),
    ({"min": -1.0, "max": 1.0, "step": 0.5}, 1e-8, ["--tol", "inf"]),
])
def test_cli_reconstruct_refuses_with_exit_2_and_no_file(tmp_path, grid, tol, flags):
    table = tmp_path / "table.json"
    cfg = _config(tmp_path, "forward.json",
                  {"tau": 1.0, "signal": GAUSSIAN, "truncation": {"M": 2, "K": 3}})
    assert main(["forward", "--config", cfg, "--output", str(table)]) == 0
    rec = _config(tmp_path, "rec.json", {"tau": 1.0, "grid": grid, "tol": tol})
    out = tmp_path / "points.csv"
    assert main(["reconstruct", "--config", rec, "--table", str(table), "--output", str(out),
                 *flags]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["forward.json", "rec.json",
                                                          "table.json"]


@pytest.mark.parametrize("argv", [
    ["coeffs", "--tau", "nan"], ["coeffs", "--tau", "inf"],
    ["verify", "--tau", "nan"], ["verify", "--tau=-inf"],
    ["coeffs", "--tau", "1", "--m-min", "0", "--m-max", "9" * 30],
])
def test_cli_flags_refuse_with_exit_2_and_no_file(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_cli_sweep_refuses_a_nan_density_with_exit_2_and_no_file(tmp_path):
    cfg = _config(tmp_path, "sweep.json", {
        "tau_list": [1.0, math.nan], "signal": GAUSSIAN, "truncation": {"M": 2, "K": 3},
        "grid": {"min": -1.0, "max": 1.0, "step": 0.5}})
    assert main(["sweep", "--config", cfg, "--output", str(tmp_path / "sweep.csv")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]


@pytest.mark.parametrize("tau_list", [1.0, "1.0", [], {"tau": 1.0}])
def test_cli_sweep_refuses_a_tau_list_that_is_no_list_with_exit_2_and_no_file(tmp_path, tau_list):
    cfg = _config(tmp_path, "sweep.json", {
        "tau_list": tau_list, "signal": GAUSSIAN, "truncation": {"M": 2, "K": 3},
        "grid": {"min": -1.0, "max": 1.0, "step": 0.5}})
    assert main(["sweep", "--config", cfg, "--output", str(tmp_path / "sweep.csv")]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.json"]


# --- every leaf of every config, and of a table file's meta, fed a bad value


FUZZ_VALUES = {"bool": True, "string": "1.0", "null": None, "list": [1.0], "object": {},
               "400 digits": 10 ** 400, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
TWO_PART = {"kind": "gaussian_family", "components": [
    {"amplitude": 1.0, "center": 0.0, "modulation": 0.0},
    {"amplitude": [0.5, -0.25], "center": 0.5, "modulation": 1.0}]}
GRID = {"min": -1.0, "max": 1.0, "step": 0.5}
#: per command: (argv before the config path, the valid config whose leaves are fed)
FUZZED = {
    "forward-auto": (["forward"], {"tau": 1.0, "signal": TWO_PART, "truncation": "auto",
                                   "tol": 1e-8, "x_max": 1.0}),
    "forward-fixed": (["forward"], {"tau": 1.0, "signal": TWO_PART,
                                    "truncation": {"M": 2, "K": 3}, "tol": 1e-8}),
    "reconstruct": (["reconstruct", "--table", "@table"], {
        "tau": 1.0, "grid": GRID, "tol": 1e-8, "truncation": {"M": 2, "K": 3},
        "signal": TWO_PART}),
    "sweep": (["sweep"], {"tau_list": [0.5, 1.0], "signal": TWO_PART,
                          "truncation": {"M": 2, "K": 3}, "grid": GRID, "tol": 1e-8}),
    "verify": (["verify", "--tau", "1.0"], {"signal": TWO_PART}),
    # the table file's meta: tau, M and K are read; signal and tool_version are provenance
    "table": (["reconstruct", "--config", "@rec"], {"tau": 1.0, "M": 2, "K": 3}),
}


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _set(node, path, value):
    node = copy.deepcopy(node)
    parent = node
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return node


FUZZ = [pytest.param(command, path, value,
                     id=f"{command}-{'.'.join(map(str, path))}-{label}")
        for command, (_, base) in FUZZED.items() for path in _leaves(base)
        for label, value in FUZZ_VALUES.items()]


def _run_cli(tmp_path, command, config, data=None) -> tuple[int, list[str]]:
    """Write the inputs of ``command`` with ``config`` (a table's meta for
    "table") and ``data`` as the table's columns, and run it with an output
    path: its exit code, and the files it left."""
    argv, _ = FUZZED[command]
    doc = _table_document(TABLE, None)
    if command == "table":
        doc["meta"].update(config)
        argv = [*argv, "--table", "@table"]
    else:
        argv = [*argv, "--config", "@config"]
        _config(tmp_path, "@config", config)
    if data is not None:
        doc["data"] = data
    _config(tmp_path, "@table", doc)
    _config(tmp_path, "@rec", {"tau": 1.0, "grid": GRID})
    inputs = sorted(p.name for p in tmp_path.iterdir())
    code = main([str(tmp_path / arg) if arg.startswith("@") else arg for arg in argv]
                + ["--output", str(tmp_path / "out")])
    return code, sorted(set(p.name for p in tmp_path.iterdir()) - set(inputs))


@pytest.mark.parametrize("command, path, value", FUZZ)
def test_cli_refuses_every_bad_config_value_with_exit_2_and_no_file(tmp_path, command, path,
                                                                    value):
    assert _run_cli(tmp_path, command, _set(FUZZED[command][1], path, value)) == (2, [])


TABLE_DATA = TABLE.to_payload()


@pytest.mark.parametrize("data", [
    {key: v for key, v in TABLE_DATA.items() if key != "exponent"},
    {**TABLE_DATA, "note": TABLE_DATA["m"]},
    list(TABLE_DATA.values()),
], ids=["missing column", "extra column", "data as a list"])
def test_cli_refuses_a_table_of_other_columns_with_exit_2_and_no_file(tmp_path, data):
    assert _run_cli(tmp_path, "table", FUZZED["table"][1], data) == (2, [])


@pytest.mark.parametrize("command", FUZZED)
def test_the_fuzzed_configs_run(tmp_path, command):
    code, files = _run_cli(tmp_path, command, FUZZED[command][1])
    assert code == 0 and "out" in files
