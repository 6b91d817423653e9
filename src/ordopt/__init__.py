"""Ordinal optimization toolkit: pick the population with the smallest mean.

The package splits into population models (`populations`), empirical rate
estimation from signed batches (`empirical_rate`), failure exponents for
two-phase and fully sequential selection (`meta_rate`), worst-case
truncation and capping errors under envelope constraints (`truncation`),
sampling policies with finite-sample guarantees and the false-selection
estimate (`selectors`), lower-bound gadgets (`adversarial`), and the
`ordopt` command line front end (`cli`).

`import ordopt` loads `meta_rate` and what it uses (`populations`,
`empirical_rate`, `_quad`, `_solve`); every other public name loads its
module when it is first used (PEP 562), so a process compiles only the
modules its work calls.
"""

import importlib

# each public name, under the submodule that defines it
_PUBLIC = {
    "adversarial": ("TiltedDistribution", "lower_bound_samples",
                    "quantile_gadget", "tilt"),
    "empirical_rate": ("RateEstimate", "empirical_log_mgf",
                       "estimate_rate_at", "estimate_rate_at_zero",
                       "estimate_rates_at_zero"),
    "meta_rate": ("MetaRateResult", "NumericalError", "RegimeError",
                  "TwoPhaseExponent", "inf_meta_rate", "meta_rate",
                  "sequential_failure_certificate",
                  "sup_meta_rate_on_theta_a", "two_phase_exponent"),
    "populations": ("Bernoulli", "Empirical", "Gaussian", "GaussianMixture",
                    "Mirrored", "Pareto", "ShiftedExponential",
                    "SupportError", "TwoPoint", "kl_divergence", "quantile",
                    "rate_function"),
    "selectors": ("FsEstimate", "MomentBound", "RadiusSchedule",
                  "SelectionOutcome", "capped_select", "capping_radius",
                  "expected_pulls_bound", "fs_estimate", "hoeffding_select",
                  "optimal_beta", "replicate", "sequential_select",
                  "solve_log_fixed_point", "successive_elimination",
                  "two_phase_select"),
    "truncation": ("ExponentialSpec", "PowerSpec", "WorstCaseSolution",
                   "worst_capping_error", "worst_truncation_error"),
}
_MODULE_OF = {name: mod for mod, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)

# meta_rate is both a function and a submodule. Importing a submodule sets
# it onto the package, so a name left to __getattr__ would read as the
# module after any `import ordopt.meta_rate`; binding it here overrides.
from .meta_rate import meta_rate  # noqa: E402


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
