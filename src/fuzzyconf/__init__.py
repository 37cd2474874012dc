"""Fuzzy (e-value) prediction confidence sets, optimal conformal prediction,
closed-form Gaussian prediction sets, and certified downstream decisions.

The public names below are resolved on first use (PEP 562), each from the
module that defines it, so ``import fuzzyconf`` loads no submodule and no
numpy; ``fuzzyconf.gaussian_log_fuzzy`` loads ``gaussian`` alone.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "alternatives": (
        "AlternativeSpec",
        "IidRatio",
        "KernelAlternative",
        "LikelihoodRatioProfile",
        "ar1_kernel",
        "conditional_lr_iid",
        "gaussian_composite_kernel",
        "gaussian_mean_shift_ratio",
        "gaussian_scale_ratio",
        "kernel_alternative",
    ),
    "confidence": ("fuzzy_set",),
    "sets": (
        "BinaryConfidenceSet",
        "FuzzyConfidenceSet",
        "PlugInGrid",
        "load_confidence_set",
        "randomized_binary",
        "smallest_exclusion_level",
        "sublevel_set",
    ),
    "decisions": (
        "CertifiedDecision",
        "DecisionProblem",
        "LevelDecision",
        "as_if_decision",
        "gamma_mixture_fuzzy",
        "post_hoc_decisions",
        "weighted_decision",
    ),
    "evalues": (
        "BoundedLog",
        "ClippedLog",
        "Dampened",
        "EValueProfile",
        "Log",
        "NeymanPearson",
        "Power",
        "UtilitySpec",
        "evalue_at",
        "normalization_lambda",
        "np_threshold",
        "optimal_evalue",
        "utility_id",
    ),
    "gaussian": (
        "ar1_interval",
        "composite_interval",
        "gaussian_bounded_log_fuzzy",
        "gaussian_composite_bounded_log_fuzzy",
        "gaussian_composite_log_fuzzy",
        "gaussian_composite_np_evalue",
        "gaussian_log_fuzzy",
        "gaussian_np_evalue",
        "simple_interval",
        "std_normal_quantile",
    ),
    "harness": (
        "McConfig",
        "McReport",
        "brute_force_conditional_lr",
        "mc_validate_coverage",
        "mc_validate_decision_risk",
        "mc_validate_evalue",
        "mc_validate_posthoc",
        "numerical_utility_oracle",
    ),
    "orbits": ("DataTuple", "Orbit", "orbit_of", "rank_of_last"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    # Not cached in this namespace: the defining module stays the one place
    # that holds each name, so a patch there is what every caller sees.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted(set(globals()) | _MODULE_OF.keys())
