"""Finite lattice coverings of simplices, cross-polytopes, and l_p balls.

Builds the translation-set coverings, verifies them constructively, and
computes the resulting covering-functional upper bounds together with
their asymptotic growth constants.
"""

from .asymptotics import (
    ConvergenceRow,
    GrowthConstants,
    a_of_t,
    convergence_table,
    growth_constants,
    k1_k2_of_n,
    k_max_crosspolytope,
    k_of_n_simplex,
    rogers_zong_bound,
    solve_root,
)
from .bodies import (
    CROSSPOLYTOPE,
    LP,
    QUARTER_LP,
    SIMPLEX,
    BodySpec,
    contains_exact,
    contains_float,
    sample_boundary,
    vertices,
)
from .combinatorics import (
    m1_count,
    m2_count_closed,
    m2_count_recurrence,
)
from .covering import (
    CoveringReport,
    GammaBound,
    TSequence,
    WitnessDecomposition,
    decompose_crosspolytope,
    decompose_simplex,
    gamma_upper_bound,
    t_sequence,
    verify_covering_exact,
    verify_covering_lp,
)
from .lattice_sets import LatticeSetSpec, enumerate_points, member

__version__ = "0.1.0"

__all__ = [
    "BodySpec",
    "ConvergenceRow",
    "CoveringReport",
    "CROSSPOLYTOPE",
    "GammaBound",
    "GrowthConstants",
    "LP",
    "LatticeSetSpec",
    "QUARTER_LP",
    "SIMPLEX",
    "TSequence",
    "WitnessDecomposition",
    "a_of_t",
    "contains_exact",
    "contains_float",
    "convergence_table",
    "decompose_crosspolytope",
    "decompose_simplex",
    "enumerate_points",
    "gamma_upper_bound",
    "growth_constants",
    "k1_k2_of_n",
    "k_max_crosspolytope",
    "k_of_n_simplex",
    "m1_count",
    "m2_count_closed",
    "m2_count_recurrence",
    "member",
    "rogers_zong_bound",
    "sample_boundary",
    "solve_root",
    "t_sequence",
    "verify_covering_exact",
    "verify_covering_lp",
    "vertices",
]
