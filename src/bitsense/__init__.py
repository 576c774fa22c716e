"""One-bit compressed sensing: normalized iterative hard thresholding,
invertibility certification, convergence theory, and Monte Carlo validation."""

from .biht import BIHTConfig, Trajectory, run_biht
from .core import (
    MeasurementMatrix,
    SignPattern,
    SparseUnitVector,
    gaussian_matrix,
    random_sparse_unit,
    sgn,
    sign_measure,
    sphere_distance,
)
from .raic import (
    DEFAULT_ETA,
    RaicReport,
    RaicSample,
    correction,
    h_a,
    orthogonal_decompose,
    raic_bound,
    raic_certify,
)
from .rng import SeedSpec, derive_seed, sample_standard_normal
from .theory import (
    UniversalConstants,
    closed_form_bound,
    constants,
    contraction_condition_holds,
    epsilon_recurrence,
    nested_sqrt,
    nested_sqrt_limit,
    recurrence_fixed_point,
    sample_complexity,
)
from .thresholding import normalize, threshold_set, top_k

__version__ = "0.1.0"

__all__ = [
    "BIHTConfig",
    "DEFAULT_ETA",
    "MeasurementMatrix",
    "RaicReport",
    "RaicSample",
    "SeedSpec",
    "SignPattern",
    "SparseUnitVector",
    "Trajectory",
    "UniversalConstants",
    "closed_form_bound",
    "constants",
    "contraction_condition_holds",
    "correction",
    "derive_seed",
    "epsilon_recurrence",
    "gaussian_matrix",
    "h_a",
    "nested_sqrt",
    "nested_sqrt_limit",
    "normalize",
    "orthogonal_decompose",
    "raic_bound",
    "raic_certify",
    "random_sparse_unit",
    "recurrence_fixed_point",
    "run_biht",
    "sample_complexity",
    "sample_standard_normal",
    "sgn",
    "sign_measure",
    "sphere_distance",
    "threshold_set",
    "top_k",
]
