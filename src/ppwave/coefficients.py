"""Unbiased wavelet coefficient estimates for parent/child trains.

For each index, the raw pair sum over child-parent differences is corrected
by the exact uniform-shift mean (closed form, no extra Monte-Carlo noise):

    beta_hat = (S - (n - 1) * sum_x E phi(x - U)) / n,   U ~ Unif[0; T].

The same batched kernel evaluates one observed train or thousands of null
resamples against a fixed parent set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .haar import (
    IndexSet,
    WaveletIndex,
    _pair_slot_counts,
    _pair_sums_from_counts,
    _shift_mean_matrix,
)
from .process import EventTrain, parent_horizon

__all__ = ["NoParentsError", "CoefficientField", "estimate_coefficients"]


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


def _batch_coefficients(
    parent_times: np.ndarray,
    T: float,
    values: np.ndarray,
    rows: np.ndarray,
    n_rows: int,
    idx: IndexSet,
) -> np.ndarray:
    """Coefficient estimates for n_rows child samples against one parent set.

    values/rows are flat (child time, row id) pairs; returns (n_rows,
    idx.size) signed estimates.
    """
    n = parent_times.size
    js, ks = idx.js, idx.ks
    counts = _pair_slot_counts(parent_times, values, rows, n_rows, idx.j0)
    sums = _pair_sums_from_counts(counts, js, ks, idx.j0)

    correction = np.zeros_like(sums)
    # The shift mean vanishes unless x or x - T falls in [-1; 1].
    near = (np.abs(values) <= 1.0) | (np.abs(values - T) <= 1.0)
    if near.any():
        shift_means = _shift_mean_matrix(values[near], js, ks, T)
        near_rows = rows[near]
        for p in range(js.size):
            correction[:, p] = np.bincount(
                near_rows, weights=shift_means[:, p], minlength=n_rows
            )
    return (sums - (n - 1) * correction) / n


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
    if parents.count() == 0:
        raise NoParentsError("coefficient estimates require at least one parent")
    T = parent_horizon(parents)
    values = np.asarray(children.times, dtype=np.float64)
    rows = np.zeros(values.size, dtype=np.int64)
    beta = _batch_coefficients(parents.times, T, values, rows, 1, idx)[0]
    return CoefficientField(idx, beta, np.abs(beta))
