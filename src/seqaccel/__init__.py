"""Nonlinear sequence transformations for convergence acceleration and
divergent-series summation.

The package turns a finite sequence prefix into triangular tables of
transformed values: the classic Aitken/epsilon/theta family for linear
convergence and alternating divergence, interpolation-based schemes
(Richardson, rho, Osada, BDG) for logarithmic convergence, Levin-type
transformations with explicit remainder estimates, and Pade approximants.
Reference oracles (Euler-Maclaurin zeta, the closed-form Stieltjes sum of
the Euler series, a brute-force model solver) provide independently
computed targets.
"""

__version__ = "0.1.0"

from .classic import (
    aitken_step,
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
    DegenerateModelError,
    DegeneratePadeError,
    DomainError,
    EmptyInputError,
    IngestError,
    InsufficientDataError,
    InvalidParameterError,
    PathRangeError,
    SequenceTransformError,
    SingularStepError,
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
    richardson_binomial,
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
    order_condition_residuals,
    pade_direct,
    pade_label,
    pade_via_epsilon,
    staircase_sequence,
)
from .reference import (
    BernoulliTables,
    ProblemSpec,
    bernoulli_tables,
    e_oracle,
    euler_maclaurin_zeta,
    euler_series_value,
    generate_problem,
    pochhammer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
