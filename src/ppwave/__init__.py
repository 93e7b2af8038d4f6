"""Interaction tests for parent/child point processes.

Simulates the parent/child model with a step reproduction kernel, tests the
nullity of the kernel through an aggregated wavelet-thresholding procedure
with Monte-Carlo calibration, and benchmarks it against Kolmogorov-Smirnov
and coincidence-count baselines.
"""

# Each module's __all__ is its one export list; the package re-exports them.
from . import adaptive, baselines, coefficients, experiments, haar, process, simulate
from .adaptive import *  # noqa: F403
from .baselines import *  # noqa: F403
from .coefficients import *  # noqa: F403
from .experiments import *  # noqa: F403
from .haar import *  # noqa: F403
from .process import *  # noqa: F403
from .simulate import *  # noqa: F403

__all__ = [
    name
    for module in (adaptive, baselines, coefficients, experiments, haar, process, simulate)
    for name in module.__all__
]

__version__ = "0.1.0"
