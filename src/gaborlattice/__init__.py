"""Reconstruction of signals from Gaussian-window lattice samples.

The package computes the lattice coefficients of a signal, the
theta-function reconstruction coefficients, and the one-step inversion
that maps the coefficients back to the signal, together with an oracle
layer that numerically adjudicates every identity the inversion uses.
"""

from .errors import (
    ConfigError,
    DomainError,
    GaborLatticeError,
    InvalidParameterError,
    NonConvergenceError,
    RegimeError,
    SaturationError,
)
from .oracle import (
    ContourSpec,
    G_series,
    balanced_contour,
    lagrange_interpolant,
    laurent_c0,
    mk_trace,
    spatial_A,
)
from .qtheta import (
    CRITICAL,
    MAX_LATTICE_INDEX,
    SUBCRITICAL,
    SUPERCRITICAL,
    LatticeParams,
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
from .recon import (
    RECONSTRUCTION_CONSTANT,
    ReconConfig,
    ReconReport,
    TruncationChoice,
    auto_truncation,
    calibrate_constant,
    grid_points,
    inner_fourier_sum,
    reconstruct_grid,
    reconstruct_point,
    round_trip,
)
from .scaled import ScaledValue
from .signals import (
    GammaTable,
    GaussianComponent,
    SignalModel,
    eval_signal,
    forward_table,
    gamma_closed_form,
    gamma_quadrature,
    windowed_sample_scaled,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContourSpec",
    "CRITICAL",
    "DomainError",
    "G_series",
    "GaborLatticeError",
    "GammaTable",
    "GaussianComponent",
    "InvalidParameterError",
    "LatticeParams",
    "MAX_LATTICE_INDEX",
    "NonConvergenceError",
    "RECONSTRUCTION_CONSTANT",
    "ReconConfig",
    "ReconReport",
    "RegimeError",
    "SaturationError",
    "ScaledValue",
    "SignalModel",
    "SUBCRITICAL",
    "SUPERCRITICAL",
    "TruncationChoice",
    "auto_truncation",
    "balanced_contour",
    "calibrate_constant",
    "coeff_E",
    "eta",
    "euler_product",
    "eval_signal",
    "forward_table",
    "gamma_closed_form",
    "gamma_quadrature",
    "grid_points",
    "inner_fourier_sum",
    "lagrange_interpolant",
    "lattice_derivative_candidate",
    "laurent_c0",
    "mk_trace",
    "nome_from_tau",
    "reconstruct_grid",
    "reconstruct_point",
    "round_trip",
    "spatial_A",
    "theta_prime_lattice",
    "theta_prime_one",
    "theta_product",
    "theta_series",
    "theta_series_scaled",
    "windowed_sample_scaled",
    "__version__",
]
