"""Unbiased wavelet coefficient estimates for parent/child trains.

This module owns the estimator kernel, coefficient_matrix: the dyadic-slot
pair sums and the exact uniform-shift-mean correction over a (rows, m)
matrix of child samples against one parent set. For each index,

    beta_hat = (S - (n - 1) * sum_x E phi(x - U)) / n,   U ~ Unif[0; T],

where S is the raw pair sum over child-parent differences (closed form, no
extra Monte-Carlo noise). The observed train is the one-row case
(estimate_coefficients, pair_cascade) and the conditional null is the B-row
case, walked in fixed-size row blocks. The wavelet family and its closed
forms come from haar.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .haar import (
    IndexSet,
    WaveletIndex,
    haar_amplitude,
    haar_sign,
    uniform_shift_mean,
)
from .process import EventTrain, pair_differences, parent_horizon

__all__ = [
    "NoParentsError",
    "CoefficientField",
    "PairSumField",
    "coefficient_matrix",
    "estimate_coefficients",
    "pair_cascade",
]


class NoParentsError(ValueError):
    """The statistic is undefined when the parent train is empty."""


@dataclass(frozen=True)
class CoefficientField:
    """Estimated coefficients beta_hat and test statistics t_stat = |beta_hat|."""

    index_set: IndexSet
    beta_hat: np.ndarray
    t_stat: np.ndarray

    def value(self, index: WaveletIndex) -> float:
        return float(self.beta_hat[self.index_set.position(index)])


@dataclass(frozen=True)
class PairSumField:
    """Raw double sums S_lambda = sum_x sum_u phi_lambda(x - u) over an IndexSet."""

    index_set: IndexSet
    values: np.ndarray

    def value(self, index: WaveletIndex) -> float:
        return float(self.values[self.index_set.position(index)])


def _slot_positions(j0: int) -> np.ndarray:
    """Representatives of the 2^(j0+3)+1 dyadic slots covering [-1; 1].

    Even slots are the exact grid points g*2^-(j0+1), odd slots the open bins
    between them. Every wavelet with j <= j0 is constant on the open bins and
    is evaluated exactly at the grid points, so integer slot counts determine
    all pair sums with no boundary ambiguity.
    """
    half = 2 ** (j0 + 1)
    s = np.arange(2 ** (j0 + 3) + 1, dtype=np.float64)
    return np.ldexp(0.5 * s - half, -(j0 + 1))


def _pair_slot_counts(
    parent_times: np.ndarray, samples: np.ndarray, j0: int
) -> np.ndarray:
    """Histogram of pair differences sample - parent over the dyadic slots.

    samples is (rows, m); only pairs with |difference| <= 1 contribute.
    Returns a (rows, n_slots) integer matrix.
    """
    n_rows = samples.shape[0]
    half = 2 ** (j0 + 1)
    n_slots = 2 ** (j0 + 3) + 1
    diffs, cnt = pair_differences(parent_times, samples.ravel(), 1.0)
    # Pairs sit in row order, so each row's candidates are one contiguous run.
    row_pairs = cnt.reshape(samples.shape).sum(axis=1)
    pair_rows = np.repeat(np.arange(n_rows, dtype=np.int64), row_pairs)
    inside = np.abs(diffs) <= 1.0
    diffs = diffs[inside]
    pair_rows = pair_rows[inside]

    scaled = np.ldexp(diffs, j0 + 1)  # exact: power-of-two multiply
    floors = np.floor(scaled)
    slot = 2 * (floors.astype(np.int64) + half) + 1
    slot[scaled == floors] -= 1  # exact grid hits take the even slot
    keys = pair_rows * n_slots + slot
    flat = np.bincount(keys, minlength=n_rows * n_slots)
    return flat.reshape(n_rows, n_slots)


# Entries per row block of a (rows, m) sample matrix: a block holds about this
# many draws or slot counts, so the kernel's temporaries do not grow with rows.
_BLOCK_SIZE = 2**15


def _pair_sums(
    parent_times: np.ndarray, samples: np.ndarray, idx: IndexSet
) -> np.ndarray:
    """(rows, idx.size) raw pair sums: integer net slot counts times 2^(j/2).

    Each row block is sorted along its rows, which keeps the pair search
    cache-friendly; integer counts do not depend on order. The matmul
    accumulates integers only (signs are -1/0/+1), so the result is exact up
    to the single final scaling, matching naive summation.
    """
    pos = _slot_positions(idx.j0)
    signs = np.stack([haar_sign(ix, pos) for ix in idx.indices]).T
    amplitude = haar_amplitude(idx.js)
    rows, m = samples.shape
    step = max(1, _BLOCK_SIZE // max(m, pos.size))
    sums = np.empty((rows, idx.size))
    for start in range(0, rows, step):
        block = np.sort(samples[start : start + step], axis=1)
        counts = _pair_slot_counts(parent_times, block, idx.j0)
        sums[start : start + step] = (counts.astype(np.float64) @ signs) * amplitude
    return sums


def coefficient_matrix(
    parents: EventTrain, samples: np.ndarray, idx: IndexSet
) -> np.ndarray:
    """Signed coefficient estimates for each row of child times against parents.

    samples is a (rows, m) float array, one child sample per row, in any
    order within a row; returns (rows, idx.size) estimates. parents must be
    observed on [0; T].

    Raises
    ------
    NoParentsError
        If the parent train is empty.
    """
    n = parents.count()
    if n == 0:
        raise NoParentsError("coefficient estimates require at least one parent")
    T = parent_horizon(parents)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError("samples must be a (rows, m) matrix")
    out = _pair_sums(parents.times, samples, idx)

    # The shift mean vanishes unless x or x - T falls in [-1; 1]. Near values
    # are gathered in row-major order, the order the float sums accumulate in.
    rows, m = samples.shape
    step = max(1, _BLOCK_SIZE // max(m, 1))
    near_rows, values = [np.empty(0, np.intp)], [np.empty(0)]
    for start in range(0, rows, step):
        block = samples[start : start + step]
        near = (np.abs(block) <= 1.0) | (np.abs(block - T) <= 1.0)
        near_rows.append(np.nonzero(near)[0] + start)
        values.append(block[near])
    near_rows, values = np.concatenate(near_rows), np.concatenate(values)
    for p, index in enumerate(idx.indices):
        weights = uniform_shift_mean(index, values, T)
        correction = np.bincount(near_rows, weights=weights, minlength=rows)
        out[:, p] = (out[:, p] - (n - 1) * correction) / n
    return out


def estimate_coefficients(
    parents: EventTrain, children: EventTrain, idx: IndexSet
) -> CoefficientField:
    """Estimate all coefficients of the reproduction function over an IndexSet.

    Parameters
    ----------
    parents : EventTrain
        Parent events on [0; T]; the window fixes T. Must be nonempty.
    children : EventTrain
        Child events; points farther than 1 from every parent and from the
        window edges contribute exactly zero.
    idx : IndexSet
        Index family to evaluate.

    Raises
    ------
    NoParentsError
        If the parent train is empty.
    """
    beta = coefficient_matrix(parents, children.times[None, :], idx)[0]
    return CoefficientField(idx, beta, np.abs(beta))


def pair_cascade(
    children: EventTrain, parents: EventTrain, idx: IndexSet
) -> PairSumField:
    """All raw sums S_lambda = sum_x sum_u phi_lambda(x - u) for an IndexSet.

    Pairs are located by a sorted sweep restricted to |x - u| <= 1, binned
    once into dyadic slots, and reduced bottom-up; cost is O(pairs in range +
    2^j0) instead of the naive O(n * m * |indices|).
    """
    sums = _pair_sums(parents.times, children.times[None, :], idx)
    return PairSumField(idx, sums[0])
