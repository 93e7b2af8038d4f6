"""Single and aggregated wavelet tests with Monte-Carlo calibration.

The null reference is built conditionally on the observed parents and the
observed child count m: B independent m-samples of uniforms on the analysis
window produce null statistics per index. The estimator kernel draws them
block by block, so beyond the (B, |idx|) statistics the null needs memory
for one row block only, whatever B and m. A test is one kernel call, with
one cell table and one set of constants: the observed train is its row 0,
the bits of estimate_coefficients, and the B null rows follow. One half of
the null rows estimates the conditional quantiles; the exact levels of u
from which the other half's values exceed their thresholds fix u_alpha. The
data are rescaled (default x50) before testing so the kernel support sits
strictly inside (-1; 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import coefficient_matrix
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


def _even_B(B) -> int:
    """B as an int: the one rule of a null's row count, an even integer >= 2."""
    if (B := as_number("B", B, int)) < 2 or B % 2:
        raise ValueError(f"B must be an even integer >= 2, got {B}")
    return B


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
        checked = dict(
            alpha=as_number("alpha", self.alpha, float, gt=0, lt=1),
            B=_even_B(self.B),
            scale=as_number("scale", self.scale, float, gt=0),
            j0=self.index_set.j0,  # IndexSet validates j0 and side
        )
        for name, value in checked.items():
            object.__setattr__(self, name, value)

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
        _even_B(self.stats.shape[0])
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
    B, m = _even_B(B), as_number("m", m, int, ge=0)
    given = np.empty((0, m))
    stats = coefficient_matrix(parents, given, idx, draws=B, window=obs, seed=seed)
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
    p = as_number("p", p, float, gt=0, le=1)
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
    alpha = as_number("alpha", alpha, float, gt=0, lt=1)
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
    # A value above every quantile-half value (c = n) rejects at any u: level 0,
    # also where e^-w underflows to 0 (w above about 745) and the quotient is 0/0.
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
    """Per-index evidence of the aggregated test; the decision derives from it."""

    u_alpha: float
    index_set: IndexSet
    beta_hat: np.ndarray
    thresholds: np.ndarray
    n_parents: int
    m_children: int
    scale: float

    @property
    def t_stat(self) -> np.ndarray:
        return np.abs(self.beta_hat)

    @property
    def single_reject(self) -> np.ndarray:
        """Strictly above its threshold, per index; all False against NaN ones."""
        return self.t_stat > self.thresholds

    @property
    def reject(self) -> bool:
        return bool(self.single_reject.any())

    @property
    def no_information(self) -> bool:
        return self.m_children == 0

    @property
    def positions_original(self) -> np.ndarray:
        """Detection positions k 2^-j in original time, one per index."""
        js = self.index_set.js.astype(np.float64)
        return self.index_set.ks * 2.0 ** (-js) / self.scale

    @property
    def ranges_original(self) -> np.ndarray:
        """Detection ranges 2^-j in original time, one per index."""
        return 2.0 ** (-self.index_set.js.astype(np.float64)) / self.scale


def _observed_and_null(parents: EventTrain, children: EventTrain, config, seed):
    """(beta_hat, null statistics, m) of the scaled data; None if n = 0 or m = 0.

    One kernel call: row 0 is the kept observed train, rows 1 to B the bits of
    simulate_null_stats on the scaled data. beta_hat is a copy, so it does not
    keep the (B + 1, |idx|) estimates alive.
    """
    seed = as_generator(seed)  # checked even when the data leave nothing to test
    if parents.count() == 0:
        return None
    sp, observed, analysis = scale_clip(parents, children, config.scale)
    m, idx = observed.count(), config.index_set
    if m == 0:
        return None
    given = observed.times[None, :]
    rows = coefficient_matrix(sp, given, idx, draws=config.B, window=analysis, seed=seed)
    stats = np.abs(rows[1:], out=rows[1:])
    return rows[0].copy(), NullStatMatrix(stats, idx), m


def run_multiple_test(
    parents: EventTrain,
    children: EventTrain,
    config: TestConfig = TestConfig(),
    seed=0,
) -> TestOutcome:
    """Aggregated test of the nullity of the reproduction function.

    Scales the data, computes the per-index statistics and the conditional
    null with m = number of children kept by the scaled analysis window in
    one kernel call, calibrates u_alpha, and rejects as soon as one index
    exceeds its threshold (strict inequality). Empty parent or child trains
    yield an accepting outcome with the no-information flag set.
    """
    idx = config.index_set
    tested = _observed_and_null(parents, children, config, seed)
    if tested is None:
        m, u_alpha = 0, config.alpha
        beta_hat = np.zeros(idx.size)
        thresholds = np.full(idx.size, np.nan)
    else:
        beta_hat, nulls, m = tested
        weights = aggregation_weights(idx)
        u_alpha = calibrate_u_alpha(nulls, weights, config.alpha)
        thresholds = _thresholds(nulls.sorted_quantile_half, u_alpha * np.exp(-weights))
    return TestOutcome(u_alpha, idx, beta_hat, thresholds, parents.count(), m, config.scale)


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
    tested = _observed_and_null(parents, children, config, seed)
    if tested is None:
        return False
    beta_hat, nulls, _ = tested
    column = np.sort(nulls.stats[:, [p]], axis=0)
    return bool(abs(beta_hat[p]) > _thresholds(column, np.array([config.alpha]))[0])
