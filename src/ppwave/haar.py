"""Haar wavelet family, antiderivatives, and the dyadic pair cascade.

The mother wavelet is psi = 1_(1/2;1] - 1_[0;1/2], dilated/translated as
phi_(j,k)(x) = 2^(j/2) psi(2^j x - k). The half-open conventions matter: a
point exactly at the midpoint belongs to the negative half, and both outer
endpoints of the support carry a nonzero value. All boundary decisions are
made on exact dyadic arithmetic (powers of two scale floats exactly), so the
fast cascade agrees bit-for-bit with naive per-pair evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .process import EventTrain, pair_differences

__all__ = [
    "TWO_SIDED",
    "NONNEG",
    "WaveletIndex",
    "IndexSet",
    "PairSumField",
    "haar_eval",
    "haar_antiderivative",
    "uniform_shift_mean",
    "pair_cascade",
]

TWO_SIDED = "two_sided"
NONNEG = "nonneg"


@dataclass(frozen=True, order=True)
class WaveletIndex:
    """Resolution/translation pair (j, k), j >= 0."""

    j: int
    k: int

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("resolution j must be >= 0")

    @property
    def support(self) -> tuple[float, float]:
        w = 2.0 ** (-self.j)
        return (self.k * w, (self.k + 1) * w)

    def in_family(self) -> bool:
        """Whether k lies in the two-sided translation range {-2^j, ..., 2^j - 1}."""
        return -(2**self.j) <= self.k <= 2**self.j - 1


@dataclass(frozen=True)
class IndexSet:
    """All indices (j, k) with 0 <= j <= j0 and k in the chosen translation range.

    side="two_sided" uses k in {-2^j, ..., 2^j - 1} (the full family whose
    supports meet [-1; 1]); side="nonneg" keeps only k in {0, ..., 2^j - 1}.
    """

    j0: int
    side: str = TWO_SIDED

    def __post_init__(self):
        if self.j0 < 0:
            raise ValueError("j0 must be >= 0")
        if self.side not in (TWO_SIDED, NONNEG):
            raise ValueError(f"side must be {TWO_SIDED!r} or {NONNEG!r}")

    @cached_property
    def indices(self) -> tuple[WaveletIndex, ...]:
        out = []
        for j in range(self.j0 + 1):
            k_lo = -(2**j) if self.side == TWO_SIDED else 0
            out.extend(WaveletIndex(j, k) for k in range(k_lo, 2**j))
        return tuple(out)

    @cached_property
    def js(self) -> np.ndarray:
        return np.array([ix.j for ix in self.indices], dtype=np.int64)

    @cached_property
    def ks(self) -> np.ndarray:
        return np.array([ix.k for ix in self.indices], dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self.indices)

    def position(self, index: WaveletIndex) -> int:
        return self.indices.index(index)


@dataclass(frozen=True)
class PairSumField:
    """Raw double sums S_lambda = sum_x sum_u phi_lambda(x - u) over an IndexSet."""

    index_set: IndexSet
    values: np.ndarray

    def value(self, index: WaveletIndex) -> float:
        return float(self.values[self.index_set.position(index)])


def _scale(j):
    """Amplitude 2^(j/2); the single expression shared by every code path."""
    return 2.0 ** (0.5 * np.asarray(j, dtype=np.float64))


def _haar_sign(j, k, x):
    """Sign of the wavelet at x: -1 on [k2^-j; mid], +1 on (mid; (k+1)2^-j], else 0.

    x is compared against the exact dyadic boundaries rather than through
    y = 2^j x - k, whose rounding would misclassify points within one ulp of
    a boundary (e.g. a tiny positive x against the support ending at 0).
    """
    x = np.asarray(x, dtype=np.float64)
    lo = np.ldexp(float(k), -j)
    mid = np.ldexp(float(2 * k + 1), -(j + 1))
    hi = np.ldexp(float(k + 1), -j)
    neg = (x >= lo) & (x <= mid)
    pos = (x > mid) & (x <= hi)
    return pos.astype(np.float64) - neg.astype(np.float64)


def haar_eval(index: WaveletIndex, x):
    """Evaluate phi_(j,k) at x (scalar or array).

    Returns 2^(j/2) on the right half-support (midpoint excluded, right
    endpoint included), -2^(j/2) on the left half (both endpoints included),
    0 elsewhere.
    """
    out = _scale(index.j) * _haar_sign(index.j, index.k, x)
    return float(out) if np.isscalar(x) else out


def _tent(t, j, k):
    """Integral of phi_(j,k) from -inf to t, broadcasting over t, j and k.

    A downward tent on the support: 0 at k2^-j, minimum -2^(-j/2-1) at the
    midpoint, back to 0 at (k+1)2^-j, and 0 outside (possibly as -0.0).
    """
    y = np.ldexp(t, j) - k
    tent = np.minimum(y, 1.0 - y)
    return -(2.0 ** (-0.5 * j)) * np.where(tent > 0.0, tent, 0.0)


def haar_antiderivative(index: WaveletIndex, t):
    """Integral of phi_(j,k) from -inf to t (see _tent), with -0.0 made 0.0."""
    val = _tent(np.asarray(t, dtype=np.float64), index.j, index.k) + 0.0
    return float(val) if np.isscalar(t) else val


def uniform_shift_mean(index: WaveletIndex, v, T: float):
    """Exact mean of phi_(j,k)(v - U) for U uniform on [0; T]."""
    if T <= 0:
        raise ValueError("T must be > 0")
    v_arr = np.asarray(v, dtype=np.float64)
    out = (haar_antiderivative(index, v_arr) - haar_antiderivative(index, v_arr - T)) / T
    return float(out) if np.isscalar(v) else out


# ---------------------------------------------------------------------------
# Dyadic slot machinery shared by pair_cascade and the batched estimators.
#
# Pair differences in [-1; 1] are routed to 2^(j0+3)+1 "slots": even slots are
# the exact dyadic grid points g*2^-(j0+1), odd slots the open bins between
# them. Every wavelet with j <= j0 is constant on the open bins and its value
# at a grid point is evaluated exactly, so integer slot counts determine all
# pair sums with no boundary ambiguity.
# ---------------------------------------------------------------------------


def _n_slots(j0: int) -> int:
    return 2 ** (j0 + 3) + 1


def _slot_positions(j0: int) -> np.ndarray:
    half = 2 ** (j0 + 1)
    s = np.arange(_n_slots(j0), dtype=np.float64)
    return np.ldexp(0.5 * s - half, -(j0 + 1))


def _sign_matrix(js: np.ndarray, ks: np.ndarray, j0: int) -> np.ndarray:
    """(n_indices, n_slots) matrix of wavelet signs at the slot representatives."""
    pos = _slot_positions(j0)
    return np.stack([_haar_sign(j, k, pos) for j, k in zip(js, ks)])


def _pair_slot_counts(
    parent_times: np.ndarray,
    values: np.ndarray,
    rows: np.ndarray,
    n_rows: int,
    j0: int,
) -> np.ndarray:
    """Histogram of pair differences value - parent over the dyadic slots.

    values/rows are flat arrays (one row id per child value); only pairs with
    |difference| <= 1 contribute. Returns an (n_rows, n_slots) integer matrix.
    """
    half = 2 ** (j0 + 1)
    n_slots = _n_slots(j0)
    diffs, cnt = pair_differences(parent_times, values, 1.0)
    pair_rows = np.repeat(rows, cnt)
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


def _pair_sums_from_counts(
    counts: np.ndarray, js: np.ndarray, ks: np.ndarray, j0: int
) -> np.ndarray:
    """Pair sums for each row: integer net counts times 2^(j/2).

    The matmul accumulates integers only (signs are -1/0/+1), so the result
    is exact up to the single final scaling, matching naive summation.
    """
    signs = _sign_matrix(js, ks, j0)
    net = counts.astype(np.float64) @ signs.T
    return net * _scale(js)


def pair_cascade(
    children: EventTrain, parents: EventTrain, idx: IndexSet
) -> PairSumField:
    """All raw sums S_lambda = sum_x sum_u phi_lambda(x - u) for an IndexSet.

    Pairs are located by a sorted sweep restricted to |x - u| <= 1, binned
    once into dyadic slots, and reduced bottom-up; cost is O(pairs in range +
    2^j0) instead of the naive O(n * m * |indices|).
    """
    values = np.asarray(children.times, dtype=np.float64)
    rows = np.zeros(values.size, dtype=np.int64)
    counts = _pair_slot_counts(parents.times, values, rows, 1, idx.j0)
    sums = _pair_sums_from_counts(counts, idx.js, idx.ks, idx.j0)
    return PairSumField(idx, sums[0])


def _shift_mean_matrix(
    values: np.ndarray, js: np.ndarray, ks: np.ndarray, T: float
) -> np.ndarray:
    """(len(values), n_indices) matrix of E phi_(j,k)(v - U), U uniform on [0; T]."""
    v = values[:, None]
    j_row = js[None, :]
    k_row = ks[None, :]
    return (_tent(v, j_row, k_row) - _tent(v - T, j_row, k_row)) / T
