"""Exact toolkit for fine-grained unambiguous parity measurements.

Given the dual-side weight profile of a shift-symmetric family of pure
states over F_2^n, this package builds and solves (exactly, over rationals)
the primal and dual linear programs whose common optimum is the best
achievable measurement quality, certifies the closed-form dual bound
families, synthesizes the optimal measurement operators, and simulates the
measurement's outcome distribution.
"""

from .bounds import (
    PrimalCandidate,
    ThresholdZeroCertificate,
    count_N,
    dual_affine_image,
    dual_cohamming,
    dual_hamming,
    dual_spike,
    dual_threshold_ball,
    dual_threshold_indicator,
    n2_optimal,
    primal_candidate,
    threshold_zero_certificate,
)
from .errors import (
    BudgetError,
    FamilyError,
    ProfileError,
    RankDeficientError,
    SolveError,
    ToolkitError,
)
from .f2lin import (
    F2Matrix,
    ParityCode,
    char_sum,
    dual_cosets,
    enumerate_codes,
    enumerate_identity_rows,
    gaussian_binomial,
    is_universal,
    kernel_generator,
    rank,
)
from .lp import (
    DualSolution,
    LpModel,
    PrimalSolution,
    SolveReport,
    build_dual,
    build_primal,
    check_dual_feasible,
    check_primal_feasible,
    complementary_slackness,
    solve,
    solve_dual,
    solve_pair,
    solve_primal,
)
from .povm import (
    PovmSet,
    build_from_primal,
    coset_basis,
    fourier_diag_check,
    rho_eval,
    state_psi,
    symmetrize,
    verify_povm,
)
from .profiles import (
    AmplitudeProfile,
    BernoulliParams,
    CostFunction,
    average_dual_weight,
    bernoulli_profile,
    perturb_full_support,
    tail_mass,
)
from .simulate import (
    OutcomeRecord,
    exact_distribution,
    sample,
    statevector_check,
)

__version__ = "0.1.0"
