"""Interaction tests for parent/child point processes.

Simulates the parent/child model with a step reproduction kernel, tests the
nullity of the kernel through an aggregated wavelet-thresholding procedure
with Monte-Carlo calibration, and benchmarks it against Kolmogorov-Smirnov
and coincidence-count baselines.
"""

from .adaptive import (
    NullStatMatrix,
    TestConfig,
    TestOutcome,
    aggregation_weight,
    aggregation_weights,
    calibrate_u_alpha,
    empirical_quantile,
    run_multiple_test,
    run_single_test,
    simulate_null_stats,
)
from .baselines import (
    DELTA_GRID,
    GaueResult,
    KsResult,
    coincidence_count,
    gaue_grid,
    gaue_test,
    kolmogorov_sf,
    ks_test,
)
from .coefficients import (
    CoefficientField,
    NoParentsError,
    PairSumField,
    coefficient_matrix,
    estimate_coefficients,
    pair_cascade,
)
from .experiments import (
    LEVEL_DATASETS,
    POWER_DATASETS,
    ExperimentConfig,
    ExperimentReport,
    run_level_experiment,
    run_power_experiment,
    write_report,
)
from .haar import (
    NONNEG,
    TWO_SIDED,
    IndexSet,
    WaveletIndex,
    haar_antiderivative,
    haar_eval,
    uniform_shift_mean,
)
from .process import (
    EventTrain,
    InteractionModel,
    Window,
    conditioning_window,
    count_in,
    pair_differences,
    parent_horizon,
    read_events,
    scale_clip,
    scale_train,
    times_in,
    write_events,
)
from .simulate import (
    DATASET_NAMES,
    DatasetId,
    RngSeed,
    make_dataset,
    sim_child_process,
    sim_homogeneous_poisson,
)

__version__ = "0.1.0"
