"""Fuzzy (e-value) prediction confidence sets, optimal conformal prediction,
closed-form Gaussian prediction sets, and certified downstream decisions."""

from .alternatives import (
    AlternativeSpec,
    IidRatio,
    KernelAlternative,
    LikelihoodRatioProfile,
    ar1_kernel,
    conditional_lr_iid,
    gaussian_composite_kernel,
    gaussian_mean_shift_ratio,
    gaussian_scale_ratio,
    kernel_alternative,
)
from .confidence import (
    BinaryConfidenceSet,
    FuzzyConfidenceSet,
    PlugInGrid,
    fuzzy_set,
    load_confidence_set,
    randomized_binary,
    smallest_exclusion_level,
    sublevel_set,
)
from .decisions import (
    CertifiedDecision,
    DecisionProblem,
    LevelDecision,
    as_if_decision,
    gamma_mixture_fuzzy,
    post_hoc_decisions,
    weighted_decision,
)
from .evalues import (
    BoundedLog,
    ClippedLog,
    Dampened,
    EValueProfile,
    Log,
    NeymanPearson,
    Power,
    UtilitySpec,
    evalue_at,
    normalization_lambda,
    np_threshold,
    optimal_evalue,
    utility_id,
)
from .gaussian import (
    ar1_interval,
    composite_interval,
    gaussian_bounded_log_fuzzy,
    gaussian_composite_bounded_log_fuzzy,
    gaussian_composite_log_fuzzy,
    gaussian_composite_np_evalue,
    gaussian_log_fuzzy,
    gaussian_np_evalue,
    simple_interval,
    std_normal_quantile,
)
from .harness import (
    McConfig,
    McReport,
    brute_force_conditional_lr,
    mc_validate_coverage,
    mc_validate_decision_risk,
    mc_validate_evalue,
    mc_validate_posthoc,
    numerical_utility_oracle,
)
from .orbits import DataTuple, Orbit, orbit_of, rank_of_last

__version__ = "0.1.0"
