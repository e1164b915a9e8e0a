"""Stability analysis of a two-station re-entrant queueing network.

Decides positive recurrence versus transience of a four-queue network
with Markovian arrival processes, phase-type services and regime-switched
station disciplines, by computing the drift vectors of its boundary
induced chains and applying the two-ratio contraction criterion.

Each public name, and each submodule, is imported on first use, so a
process loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "errors": ("NetdriftError",),
    "generator": ("BlockKernel", "check_semi_irreducible", "kernel_of",
                  "regime_signature"),
    "induced_chains": ("CANONICAL_SUBSETS", "DriftTable", "build_induced_chain",
                       "closed_form_table", "drift_table", "nominal_condition",
                       "numeric_table", "output_rates", "solve_stationary", "subset_name"),
    "primitives": ("MAPSpec", "PHSpec", "erlang_ph", "exponential_ph",
                   "hyperexponential_ph", "map_arrival_rate", "map_stationary_phase",
                   "mmpp_map", "ph_mean", "poisson_map", "validate_map", "validate_ph"),
    "service_disciplines": ("MSPSpec", "NetworkModel", "build_limited_msp",
                            "build_network", "build_nonpreemptive_msp",
                            "build_preemptive_resume_msp", "validate_msp"),
    "simulator": ("DriftEstimate", "Trajectory", "estimate_drift", "simulate",
                  "simulate_saturated"),
    "stability": ("LyapunovCertificate", "StabilityReport", "check_ratio_conditions",
                  "check_sign_conditions", "classify", "compute_r1_r2",
                  "lyapunov_certificate", "spiral_path", "verify_certificate"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
