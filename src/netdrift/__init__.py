"""Stability analysis of a two-station re-entrant queueing network.

Decides positive recurrence versus transience of a four-queue network
with Markovian arrival processes, phase-type services and regime-switched
station disciplines, by computing the drift vectors of its boundary
induced chains and applying the two-ratio contraction criterion.
"""

__version__ = "0.1.0"

from .errors import NetdriftError
from .generator import (
    BlockKernel,
    check_semi_irreducible,
    generator_block,
    kernel_of,
    regime_signature,
    write_generator_triplets,
)
from .induced_chains import (
    CANONICAL_SUBSETS,
    DriftTable,
    build_induced_chain,
    check_sign_conditions,
    closed_form_table,
    drift_table,
    mean_displacement,
    nominal_condition,
    numeric_table,
    output_rates,
    solve_stationary,
    subset_name,
)
from .primitives import (
    MAPSpec,
    PHSpec,
    erlang_ph,
    exponential_ph,
    hyperexponential_ph,
    map_arrival_rate,
    map_stationary_phase,
    mmpp_map,
    ph_mean,
    poisson_map,
    validate_map,
    validate_ph,
)
from .service_disciplines import (
    MSPSpec,
    NetworkModel,
    build_limited_msp,
    build_network,
    build_nonpreemptive_msp,
    build_preemptive_resume_msp,
    validate_msp,
)
from .simulator import (
    DriftEstimate,
    Trajectory,
    estimate_drift,
    simulate,
    simulate_saturated,
)
from .stability import (
    LyapunovCertificate,
    StabilityReport,
    check_ratio_conditions,
    classify,
    compute_r1_r2,
    lyapunov_certificate,
    spiral_path,
)

__all__ = [name for name in dir() if not name.startswith("_")]
