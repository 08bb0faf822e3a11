"""Distinct-digit statistics of affine full-branch digit expansions.

The package models digit laws with regularly varying tails (the Luroth
law ``p_k = 1/(k(k+1))`` and friends), counts distinct digits along
expansions, verifies the occupancy limit law by simulation, and builds
points whose distinct-digit growth follows prescribed linear or sublinear
profiles, together with the tilted cylinder sums used to bound how large
that growth can typically be.
"""

from .codec import word_from_line, word_to_line
from .errors import (
    DepthError,
    DivergenceError,
    DomainError,
    EnumerationSizeError,
    HorizonExceededError,
    IfsDigitsError,
    InfeasibleError,
    NotAdmissibleError,
    NotInSupportError,
    PrecisionError,
    TiltThresholdError,
)
from .linear import (
    BlockSchedule,
    build_block_schedule,
    count_blocks,
    distinctness_profile,
    enumerate_blocks,
    point_trace,
    sandwich_violations,
)
from .occupancy import (
    LawReport,
    distinct_counts,
    expected_distinct,
    karlin_constant,
    monte_carlo_law,
)
from .rng import DEFAULT_SEED, substream
from .sublinear import (
    AdmissibleProfile,
    SublinearSchedule,
    build_sublinear_schedule,
    make_admissible,
    profile_from_spec,
    profile_from_table,
    threshold_index,
)
from .tilt import (
    BoundChainRecord,
    CylinderSumRecord,
    bound_chain,
    cylinder_sum_exact,
    cylinder_sum_mc,
    cylinder_sums_mc,
    distinct_forces_large_check,
)
from .verify import run_suite
from .weights import (
    DigitSampler,
    PotterReport,
    WeightModel,
    explicit_prefix_model,
    luroth_model,
    model_from_spec,
    model_to_spec,
    partial_sum_exponent,
    potter_scan,
    power_log_model,
    power_model,
    slowly_varying,
    tail_sum,
    tilted_tail_sum,
    verify_potter_report,
    weight,
    weights_range,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleProfile",
    "BlockSchedule",
    "BoundChainRecord",
    "CylinderSumRecord",
    "DEFAULT_SEED",
    "DepthError",
    "DigitSampler",
    "DivergenceError",
    "DomainError",
    "EnumerationSizeError",
    "HorizonExceededError",
    "IfsDigitsError",
    "InfeasibleError",
    "LawReport",
    "NotAdmissibleError",
    "NotInSupportError",
    "PotterReport",
    "PrecisionError",
    "SublinearSchedule",
    "TiltThresholdError",
    "WeightModel",
    "bound_chain",
    "build_block_schedule",
    "build_sublinear_schedule",
    "count_blocks",
    "cylinder_sum_exact",
    "cylinder_sum_mc",
    "cylinder_sums_mc",
    "distinct_counts",
    "distinct_forces_large_check",
    "distinctness_profile",
    "enumerate_blocks",
    "expected_distinct",
    "explicit_prefix_model",
    "karlin_constant",
    "luroth_model",
    "make_admissible",
    "model_from_spec",
    "model_to_spec",
    "monte_carlo_law",
    "partial_sum_exponent",
    "point_trace",
    "potter_scan",
    "power_log_model",
    "power_model",
    "profile_from_spec",
    "profile_from_table",
    "run_suite",
    "sandwich_violations",
    "slowly_varying",
    "substream",
    "tail_sum",
    "threshold_index",
    "tilt",
    "tilted_tail_sum",
    "verify_potter_report",
    "weight",
    "weights_range",
    "word_from_line",
    "word_to_line",
]
