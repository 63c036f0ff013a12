"""Group-covariant pure-state convertibility: exact and approximate i.i.d.
conversion rates, single-shot feasibility oracles, and quantum Fisher
information rate bounds.
"""

from .tolerances import Tolerances
from .groups import (
    FiniteGroup,
    ProjectiveRep,
    PureState,
    build_group,
    named_group,
    validate_projective_rep,
)
from .charfn import (
    CharFunction,
    ClassSets,
    char_from_values,
    char_function,
    char_power,
    classify_sets,
    resource_measure_L,
)
from .exact_rate import RateReport, copies_bound, exact_rate
from .convertibility import (
    FeasibilityResult,
    GroupFunction,
    feasible_exact,
    is_positive_definite,
    minimal_copies_search,
)
from .abelian import (
    ChargeDistribution,
    DualCoefficients,
    abelian_basis,
    charge_distribution,
    dual_fourier,
    fourier_weights,
    shift_canonicalize,
)
from .approx import (
    ApproxReport,
    approx_rate_class,
    convergence_to_uniform,
)
from .lie import (
    GeneratorSet,
    RfResult,
    clt_diagnostic,
    converse_certificate,
    g_function,
    qfim,
    qfim_pure,
    rf_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "Tolerances",
    "FiniteGroup",
    "ProjectiveRep",
    "PureState",
    "build_group",
    "named_group",
    "validate_projective_rep",
    "CharFunction",
    "ClassSets",
    "char_from_values",
    "char_function",
    "char_power",
    "classify_sets",
    "resource_measure_L",
    "RateReport",
    "copies_bound",
    "exact_rate",
    "FeasibilityResult",
    "GroupFunction",
    "feasible_exact",
    "is_positive_definite",
    "minimal_copies_search",
    "ChargeDistribution",
    "DualCoefficients",
    "abelian_basis",
    "charge_distribution",
    "dual_fourier",
    "fourier_weights",
    "shift_canonicalize",
    "ApproxReport",
    "approx_rate_class",
    "convergence_to_uniform",
    "GeneratorSet",
    "RfResult",
    "clt_diagnostic",
    "converse_certificate",
    "g_function",
    "qfim",
    "qfim_pure",
    "rf_ratio",
]
