"""Single and aggregated wavelet tests with Monte-Carlo calibration.

The null reference is built conditionally on the observed parents and the
observed child count m: B independent m-samples of uniforms on the analysis
window produce null statistics per index. The estimator kernel draws them
block by block, so beyond the (B, |idx|) statistics the null needs memory
for one row block only, whatever B and m. One half of the rows estimates the
conditional quantiles; the exact levels of u from which the other half's
values exceed their thresholds fix u_alpha. The data are rescaled (default
x50) before testing so the kernel support sits strictly inside (-1; 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import estimate_coefficients, null_coefficient_matrix
from .haar import TWO_SIDED, IndexSet, WaveletIndex, as_number
from .process import EventTrain, Window, scale_clip
from .simulate import as_generator

__all__ = [
    "TestConfig",
    "NullStatMatrix",
    "aggregation_weights",
    "simulate_null_stats",
    "empirical_quantile",
    "calibrate_u_alpha",
    "run_multiple_test",
    "run_single_test",
]

_LOG_PI_OVER_SQRT6 = math.log(math.pi / math.sqrt(6.0))


def aggregation_weights(idx: IndexSet) -> np.ndarray:
    """Weights w = 2(ln(j+1) + ln(pi/sqrt(6))) + ln|K_j|, one per index of idx.

    K_j is the family's translation range at resolution j (IndexSet.k_range),
    which keeps sum(exp(-w)) <= 1 for either side. The weight depends on j
    only, so it is computed once per level.
    """
    per_level = [
        2.0 * (math.log(j + 1) + _LOG_PI_OVER_SQRT6) + math.log(len(idx.k_range(j)))
        for j in range(idx.j0 + 1)
    ]
    return np.array(per_level)[idx.js]


@dataclass(frozen=True)
class TestConfig:
    """The aggregated test's knobs; ExperimentConfig adds a run's fields to them.

    Stores alpha and scale as float, j0 and B as int (see haar.as_number).
    """

    alpha: float = 0.05
    j0: int = 3
    side: str = TWO_SIDED
    B: int = 20000
    scale: float = 50.0

    def __post_init__(self):
        for name, kind in (("alpha", float), ("B", int), ("scale", float)):
            object.__setattr__(self, name, as_number(name, getattr(self, name), kind))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0; 1)")
        if self.B < 2 or self.B % 2:
            raise ValueError("B must be an even integer >= 2")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"scale must be > 0 and finite, got {self.scale}")
        # IndexSet validates j0 and side, and stores j0 as an int
        object.__setattr__(self, "j0", self.index_set.j0)

    @cached_property
    def index_set(self) -> IndexSet:
        return IndexSet(self.j0, self.side)


@dataclass(frozen=True)
class NullStatMatrix:
    """B rows of conditional null statistics, one column per index.

    The first B/2 rows are the quantile half, the rest the calibration half.
    Only per-column order statistics of the quantile half are ever read, so
    the first read of sorted_quantile_half sorts that half in place (stats
    must be writable): from then on, quantile_half holds each column in
    ascending order, not the simulated rows.
    """

    stats: np.ndarray
    index_set: IndexSet

    def __post_init__(self):
        if self.stats.ndim != 2 or self.stats.shape[1] != self.index_set.size:
            raise ValueError("stats must be (B, n_indices)")
        if self.stats.shape[0] < 2 or self.stats.shape[0] % 2:
            raise ValueError("row count B must be even and >= 2")
        if not (self.stats >= 0).all():
            raise ValueError("null statistics are absolute values, >= 0 and not NaN")

    @property
    def quantile_half(self) -> np.ndarray:
        return self.stats[: len(self.stats) // 2]

    @property
    def calibration_half(self) -> np.ndarray:
        return self.stats[len(self.stats) // 2 :]

    @cached_property
    def sorted_quantile_half(self) -> np.ndarray:
        """The quantile half sorted ascending per column, in place."""
        half = self.quantile_half
        half.sort(axis=0)
        return half


def simulate_null_stats(
    parents: EventTrain,
    m: int,
    idx: IndexSet,
    B: int,
    obs: Window,
    seed,
) -> NullStatMatrix:
    """Null statistics from B uniform m-samples on the analysis window.

    Each row b holds |beta_hat| computed from (parents, V^b) where V^b is an
    m-sample of uniforms on obs; m = 0 degenerates to all-zero rows. The rows
    are those of one (B, m) draw as_generator(seed).uniform(obs.lo, obs.hi),
    drawn one row block at a time. B (even, >= 2) and m (>= 0) are integers, no bools.
    """
    B, m = as_number("B", B, int), as_number("m", m, int)
    if B < 2 or B % 2:
        raise ValueError("B must be an even integer >= 2")
    if m < 0:
        raise ValueError("m must be >= 0")
    stats = null_coefficient_matrix(parents, m, idx, B, obs, as_generator(seed))
    return NullStatMatrix(np.abs(stats, out=stats), idx)


def empirical_quantile(column, p: float) -> float:
    """Smallest sample value whose exceedance fraction is <= p.

    column must be finite and sorted ascending. Equals the order statistic
    of rank ceil((1-p) * len(column)); rank 0 (p = 1) returns -inf, a value
    below every observation.
    """
    col = np.asarray(column, dtype=np.float64)
    if col.ndim != 1 or col.size == 0:
        raise ValueError("column must be a nonempty one-dimensional sample")
    if not np.isfinite(col).all():
        raise ValueError("column must be finite")
    if np.any(np.diff(col) < 0):
        raise ValueError("column must be sorted ascending")
    if not 0.0 < as_number("p", p, float) <= 1.0:
        raise ValueError("p must lie in (0; 1]")
    return float(_thresholds(col[:, None], np.array([p]))[0])


def _ranks(probs, n: int) -> np.ndarray:
    """Threshold ranks n - floor(probs * n) among n values: the one rank rule."""
    return n - np.floor(probs * n).astype(np.int64)


def _thresholds(sorted_cols: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-column conditional quantiles at per-column tail probabilities.

    Column c gets its order statistic of rank _ranks(probs[c], n), and -inf
    at rank 0, a value below every observation.
    """
    n = sorted_cols.shape[0]
    ranks = _ranks(probs, n)
    safe = np.clip(ranks - 1, 0, n - 1)
    out = sorted_cols[safe, np.arange(sorted_cols.shape[1])]
    return np.where(ranks <= 0, -np.inf, out)


def calibrate_u_alpha(nulls: NullStatMatrix, weights, alpha: float) -> float:
    """Largest u in [alpha; 1] with any-index rejection rate <= alpha, else alpha.

    A calibration value with c quantile-half values below it exceeds its
    threshold _thresholds(quantile half, u e^-w) iff _ranks(u e^-w, n) <= c,
    so from its critical level on: the least float u where that holds. A row
    rejects from its least level. The result, the exact supremum that the
    paper's dichotomy approximates, is the largest float below the (k+1)-th
    least row level, where k rows are what a rate <= alpha admits.
    """
    if not 0.0 < as_number("alpha", alpha, float) < 1.0:
        raise ValueError("alpha must lie in (0; 1)")
    w = np.asarray(weights, dtype=np.float64)
    size = nulls.index_set.size
    if w.shape != (size,):
        raise ValueError(f"weights must have shape ({size},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite, got {w[~np.isfinite(w)][0]}")
    sorted_q, calib = nulls.sorted_quantile_half, nulls.calibration_half
    n = calib.shape[0]  # both halves hold B/2 rows
    damping = np.exp(-w)
    # Only values above their u = 1 threshold have a level <= 1; group by column.
    flat = np.flatnonzero(calib > _thresholds(sorted_q, damping))
    rows, cols = np.divmod(flat[np.argsort(flat % size)], size)
    values, d = calib[rows, cols], damping[cols]
    groups = np.split(values, np.searchsorted(cols, np.arange(1, size)))
    c = np.concatenate([np.searchsorted(q, v) for q, v in zip(sorted_q.T, groups)])
    # A value above every quantile-half value (c = n) rejects at any u: level 0.
    level = np.divide(n - c, d * n, out=np.zeros(len(c)), where=c < n)
    while (down := (level > 0) & (_ranks(np.nextafter(level, 0.0) * d, n) <= c)).any():
        level[down] = np.nextafter(level[down], 0.0)
    while (up := _ranks(level * d, n) > c).any():
        level[up] = np.nextafter(level[up], 1.0)
    row_level = np.full(n, np.inf)
    np.minimum.at(row_level, rows, level)
    k = np.count_nonzero(np.arange(1, n + 1) / n <= alpha)  # rows rate <= alpha admits
    first = np.partition(row_level, k)[k]
    return float(min(max(np.nextafter(first, 0.0), alpha), 1.0))


@dataclass(frozen=True)
class TestOutcome:
    """Decision of the aggregated test plus the per-index evidence."""

    reject: bool
    u_alpha: float
    index_set: IndexSet
    beta_hat: np.ndarray
    t_stat: np.ndarray
    thresholds: np.ndarray
    single_reject: np.ndarray
    n_parents: int
    m_children: int
    scale: float
    no_information: bool

    @property
    def positions_original(self) -> np.ndarray:
        """Detection positions k 2^-j in original time, one per index."""
        js = self.index_set.js.astype(np.float64)
        return self.index_set.ks * 2.0 ** (-js) / self.scale

    @property
    def ranges_original(self) -> np.ndarray:
        """Detection ranges 2^-j in original time, one per index."""
        return 2.0 ** (-self.index_set.js.astype(np.float64)) / self.scale


def _informative_inputs(parents: EventTrain, children: EventTrain, scale: float):
    """(scaled parents, kept children, analysis window, m); None if n = 0 or m = 0."""
    if parents.count() == 0:
        return None
    scaled_parents, observed, analysis = scale_clip(parents, children, scale)
    m = observed.count()
    return (scaled_parents, observed, analysis, m) if m else None


def run_multiple_test(
    parents: EventTrain,
    children: EventTrain,
    config: TestConfig = TestConfig(),
    seed=0,
) -> TestOutcome:
    """Aggregated test of the nullity of the reproduction function.

    Scales the data, computes the per-index statistics, simulates the
    conditional null with m = number of children kept by the scaled analysis
    window, calibrates u_alpha, and rejects as soon as one index exceeds its
    threshold (strict inequality). Empty parent or child trains yield an
    accepting outcome with the no-information flag set.
    """
    idx = config.index_set
    inputs = _informative_inputs(parents, children, config.scale)
    if inputs is None:
        m, u_alpha = 0, config.alpha
        beta_hat, t_stat = np.zeros(idx.size), np.zeros(idx.size)
        thresholds = np.full(idx.size, np.nan)
    else:
        scaled_parents, observed, analysis, m = inputs
        coef = estimate_coefficients(scaled_parents, observed, idx)
        nulls = simulate_null_stats(scaled_parents, m, idx, config.B, analysis, seed)
        weights = aggregation_weights(idx)
        u_alpha = calibrate_u_alpha(nulls, weights, config.alpha)
        thresholds = _thresholds(nulls.sorted_quantile_half, u_alpha * np.exp(-weights))
        beta_hat, t_stat = coef.beta_hat, coef.t_stat
    single = t_stat > thresholds  # all False against the NaN thresholds
    return TestOutcome(
        reject=bool(single.any()),
        u_alpha=u_alpha,
        index_set=idx,
        beta_hat=beta_hat,
        t_stat=t_stat,
        thresholds=thresholds,
        single_reject=single,
        n_parents=parents.count(),
        m_children=m,
        scale=config.scale,
        no_information=inputs is None,
    )


def run_single_test(
    index: WaveletIndex,
    parents: EventTrain,
    children: EventTrain,
    config: TestConfig = TestConfig(),
    seed=0,
) -> bool:
    """Single-index test: reject iff the statistic exceeds its alpha-quantile.

    index must lie in config.index_set. The quantile is taken over all B null
    rows (no half split is needed without aggregation).
    """
    idx = config.index_set
    p = idx.position(index)  # raises for an index outside the family
    inputs = _informative_inputs(parents, children, config.scale)
    if inputs is None:
        return False
    scaled_parents, observed, analysis, m = inputs
    stat = estimate_coefficients(scaled_parents, observed, idx).t_stat[p]
    nulls = simulate_null_stats(scaled_parents, m, idx, config.B, analysis, seed)
    column = np.sort(nulls.stats[:, [p]], axis=0)
    return bool(stat > _thresholds(column, np.array([config.alpha]))[0])
