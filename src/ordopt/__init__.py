"""Ordinal optimization toolkit: pick the population with the smallest mean.

The package splits into population models (`populations`), empirical rate
estimation from signed batches (`empirical_rate`), failure exponents for
two-phase and fully sequential selection (`meta_rate`), worst-case
truncation and capping errors under envelope constraints (`truncation`),
sampling policies with finite-sample guarantees (`selectors`), lower-bound
gadgets and the false-selection estimate (`adversarial`), and the `ordopt`
command line front end (`cli`).
"""

from .adversarial import (
    FsEstimate,
    TiltedDistribution,
    fs_estimate,
    lower_bound_samples,
    quantile_gadget,
    tilt,
)
from .empirical_rate import (
    RateEstimate,
    empirical_log_mgf,
    estimate_rate_at,
    estimate_rate_at_zero,
    estimate_rates_at_zero,
)
from .meta_rate import (
    MetaRateResult,
    NumericalError,
    RegimeError,
    TwoPhaseExponent,
    inf_meta_rate,
    meta_rate,
    sequential_failure_certificate,
    sup_meta_rate_on_theta_a,
    two_phase_exponent,
)
from .populations import (
    Bernoulli,
    Empirical,
    Gaussian,
    GaussianMixture,
    Mirrored,
    Pareto,
    ShiftedExponential,
    SupportError,
    TwoPoint,
    kl_divergence,
    quantile,
    rate_function,
)
from .selectors import (
    MomentBound,
    RadiusSchedule,
    SelectionOutcome,
    capped_select,
    capping_radius,
    expected_pulls_bound,
    hoeffding_select,
    optimal_beta,
    replicate,
    sequential_select,
    solve_log_fixed_point,
    successive_elimination,
    two_phase_select,
)
from .truncation import (
    ExponentialSpec,
    PowerSpec,
    WorstCaseSolution,
    worst_capping_error,
    worst_truncation_error,
)

__all__ = [
    "Bernoulli",
    "Empirical",
    "ExponentialSpec",
    "FsEstimate",
    "Gaussian",
    "GaussianMixture",
    "MetaRateResult",
    "Mirrored",
    "MomentBound",
    "NumericalError",
    "Pareto",
    "PowerSpec",
    "RadiusSchedule",
    "RateEstimate",
    "RegimeError",
    "SelectionOutcome",
    "ShiftedExponential",
    "SupportError",
    "TiltedDistribution",
    "TwoPhaseExponent",
    "TwoPoint",
    "WorstCaseSolution",
    "capped_select",
    "capping_radius",
    "empirical_log_mgf",
    "estimate_rate_at",
    "estimate_rate_at_zero",
    "estimate_rates_at_zero",
    "expected_pulls_bound",
    "fs_estimate",
    "hoeffding_select",
    "inf_meta_rate",
    "kl_divergence",
    "lower_bound_samples",
    "meta_rate",
    "optimal_beta",
    "quantile",
    "quantile_gadget",
    "rate_function",
    "replicate",
    "sequential_failure_certificate",
    "sequential_select",
    "solve_log_fixed_point",
    "successive_elimination",
    "sup_meta_rate_on_theta_a",
    "tilt",
    "two_phase_exponent",
    "two_phase_select",
    "worst_capping_error",
    "worst_truncation_error",
]
