"""povmlab: indirect estimation of quantum ensemble averages from POVM statistics.

Every public name below is loaded from its module on first access (PEP 562),
so ``import povmlab`` and a command-line verb load only the modules they use.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "ABSpace": "abspace",
    "VandermondeRecovery": "abspace",
    "ab_space": "abspace",
    "is_ab_infocomplete": "abspace",
    "is_minimal_ab_infocomplete": "abspace",
    "project_povm": "abspace",
    "vandermonde_recovery": "abspace",
    "DEFAULT_TOL": "hs",
    "Tolerances": "hs",
    "SampleRun": "montecarlo",
    "empirical_estimate": "montecarlo",
    "sample": "montecarlo",
    "sample_range": "montecarlo",
    "BlurResult": "postproc",
    "MarkovMatrix": "postproc",
    "apply_post_processing": "postproc",
    "blur_for_post_processing": "postproc",
    "find_joint_measurement": "postproc",
    "find_post_processing": "postproc",
    "is_clean": "postproc",
    "is_post_processing_of": "postproc",
    "least_blur": "postproc",
    "minimal_blur": "postproc",
    "unbias": "postproc",
    "DualFrame": "povm",
    "NotCompleteError": "povm",
    "NotPositiveError": "povm",
    "Observable": "povm",
    "Povm": "povm",
    "alternate_dual": "povm",
    "canonical_dual": "povm",
    "is_infocomplete": "povm",
    "is_r_infocomplete": "povm",
    "spectral_povm": "povm",
    "symmetrize_dual": "povm",
    "DegenerateMetricWarning": "processing",
    "Ensemble": "processing",
    "OutsideSpanError": "processing",
    "ProcessingFunction": "processing",
    "ensemble_error": "processing",
    "metric_diagonal": "processing",
    "min_error": "processing",
    "optimal_dual": "processing",
    "processing_from_dual": "processing",
    "statistical_error": "processing",
    "NoiseSummary": "qubit",
    "bloch_coefficients": "qubit",
    "bloch_povm": "qubit",
    "error_bound": "qubit",
    "noise_quantities": "qubit",
    "optimal_four_outcome": "qubit",
    "optimal_three_outcome": "qubit",
    "sigma_pm": "qubit",
    "maximally_mixed_ensemble": "standard",
    "projective_povm": "standard",
    "sic_povm": "standard",
    "six_state_ensemble": "standard",
    "trine_povm": "standard",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
