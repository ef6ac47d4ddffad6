"""Numerical calculus for the Hermite operator.

Orthonormal Hermite expansions, Mehler-type heat/Poisson/square-function
kernels with subordination quadrature, discretized gamma-norms against
finite-dimensional Banach targets, local Hardy/BMO machinery adapted to
the critical radius, and a verification layer with a command-line front
end.
"""

from .basis import (
    HermiteExpansion,
    SpatialGrid,
    analyze,
    default_grid,
    hermite_derivative,
    hermite_eval,
    hermite_ladder_eval,
    synthesize,
    synthesize_grid,
)
from .gamma import (
    BanachModel,
    DiscreteGammaOperator,
    TimeGrid,
    gamma_norm,
    gamma_norm_hilbert,
    gamma_norm_mc,
    gamma_norms,
    h_norm,
    rank_one,
)
from .kernels import (
    ShiftedOperator,
    SubordinationRule,
    g_kernel,
    g_of_one,
    heat_kernel,
    heat_kernel_one,
    heat_one_dt,
    ladder_kernel,
    poisson_kernel,
)
from .semigroups import (
    TimeField,
    apply_semigroup,
    composed_maximal,
    gfunction,
    gfunction_l2_sq,
    inv_sqrt,
    ladder_transform,
    maximal_norm,
    riesz,
)
from .spaces import (
    Atom,
    BallSpec,
    area_integral,
    bmo_norm,
    carleson_functional,
    critical_radius,
    h1_norm,
    make_random_atom,
    validate_atom,
)
from .verify import (
    CheckReport,
    check_eigen_ladder,
    check_kernel_vs_spectral,
    check_operator_identities,
    check_polarization,
    equivalence_suite,
    kernel_bound_ratio,
)

__all__ = [
    "Atom",
    "BallSpec",
    "BanachModel",
    "CheckReport",
    "DiscreteGammaOperator",
    "HermiteExpansion",
    "ShiftedOperator",
    "SpatialGrid",
    "SubordinationRule",
    "TimeField",
    "TimeGrid",
    "analyze",
    "apply_semigroup",
    "area_integral",
    "bmo_norm",
    "carleson_functional",
    "check_eigen_ladder",
    "check_kernel_vs_spectral",
    "check_operator_identities",
    "check_polarization",
    "composed_maximal",
    "critical_radius",
    "default_grid",
    "equivalence_suite",
    "g_kernel",
    "g_of_one",
    "gamma_norm",
    "gamma_norm_hilbert",
    "gamma_norm_mc",
    "gamma_norms",
    "gfunction",
    "gfunction_l2_sq",
    "h1_norm",
    "h_norm",
    "heat_kernel",
    "heat_kernel_one",
    "heat_one_dt",
    "hermite_derivative",
    "hermite_eval",
    "hermite_ladder_eval",
    "inv_sqrt",
    "kernel_bound_ratio",
    "ladder_kernel",
    "ladder_transform",
    "make_random_atom",
    "maximal_norm",
    "poisson_kernel",
    "rank_one",
    "riesz",
    "synthesize",
    "synthesize_grid",
    "validate_atom",
]

__version__ = "0.1.0"
