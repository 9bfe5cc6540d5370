"""Nonlinear sequence transformations for convergence acceleration and
divergent-series summation.

The package turns a finite sequence prefix into triangular tables of
transformed values: the classic Aitken/epsilon/theta family for linear
convergence and alternating divergence, interpolation-based schemes
(Richardson, rho, Osada, BDG) for logarithmic convergence, Levin-type
transformations with explicit remainder estimates, and Pade approximants.
Reference oracles (Euler-Maclaurin zeta, the closed-form Stieltjes sum of
the Euler series) provide independently computed targets.
"""

__version__ = "0.1.0"

from .classic import (
    brezinski_theta,
    iterated_aitken,
    iterated_theta,
    wynn_epsilon,
)
from .core import (
    GuardPolicy,
    PathSpec,
    Scalar,
    SequenceSample,
    TransformTable,
    extract_path,
    make_partial_sums,
    walk_path,
)
from .errors import (
    CompareError,
    ConfigError,
    ConsistencyError,
    DegeneratePadeError,
    DomainError,
    EmptyInputError,
    IngestError,
    InsufficientDataError,
    InvalidParameterError,
    PathRangeError,
    SequenceTransformError,
    ZeroRemainderError,
)
from .interpolatory import (
    InterpolationPoints,
    bdg_transform,
    estimate_decay,
    iterated_rho,
    iterated_rho_standard,
    median_last_quartile,
    natural_points,
    neville_richardson,
    osada_rho,
    reciprocal_points,
    richardson_standard,
    rho_standard,
    wynn_rho,
)
from .levin import (
    LEVIN_POWER,
    WENIGER_POCHHAMMER,
    levin_variant,
    omega_sequence,
    weighted_ratio_transform,
    weniger_variant,
)
from .pade import (
    PadeApproximant,
    PowerSeries,
    pade_direct,
    pade_label,
    pade_via_epsilon,
    staircase_sequence,
)
from .reference import (
    ProblemSpec,
    euler_maclaurin_zeta,
    euler_series_value,
    generate_problem,
    pochhammer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
