"""Haar wavelet family and its closed forms.

This module owns the indices (WaveletIndex, and IndexSet, whose column table
and js, ks, size and position are integer arithmetic), the amplitude of each
wavelet and its exact float closed forms: its value, its antiderivative and
its mean under a uniform shift. These closed forms are only the oracle of the
estimator in coefficients.py, which takes its signs from integer slot bounds.
as_number, the one rule of every numeric setting, lives here because
WaveletIndex and IndexSet, the innermost values, apply it first.

The mother wavelet is psi = 1_(1/2;1] - 1_[0;1/2], dilated/translated as
phi_(j,k)(x) = 2^(j/2) psi(2^j x - k). The half-open conventions matter: a
point exactly at the midpoint belongs to the negative half, and both outer
endpoints of the support carry a nonzero value. All boundary decisions are
made on exact dyadic arithmetic (powers of two scale floats exactly), so the
fast pair cascade agrees bit-for-bit with naive per-pair evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TWO_SIDED",
    "NONNEG",
    "WaveletIndex",
    "IndexSet",
    "haar_amplitude",
    "haar_eval",
    "haar_tent",
    "uniform_shift_mean",
]

TWO_SIDED = "two_sided"
NONNEG = "nonneg"


def as_number(name: str, value, kind: type, *, gt=None, ge=None, lt=None, le=None):
    """The one rule of numeric settings: value (numpy too, no bool) as kind.

    A float must be finite, and the value must meet each bound given (gt: >,
    ge: >=, lt: <, le: <=). The error names the setting, the rule and the value.
    """
    types = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, types):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    try:
        value = kind(value)
    except OverflowError:  # an int beyond the largest float
        value = math.inf
    if (
        (kind is float and not math.isfinite(value))
        or (gt is not None and not value > gt)
        or (ge is not None and not value >= ge)
        or (lt is not None and not value < lt)
        or (le is not None and not value <= le)
    ):
        bounds = zip((">", ">=", "<", "<="), (gt, ge, lt, le))
        rules = [f"{op} {bound}" for op, bound in bounds if bound is not None]
        rules += ["finite"] * (kind is float)
        raise ValueError(f"{name} must be {' and '.join(rules)}, got {value!r}")
    return value


@dataclass(frozen=True, order=True)
class WaveletIndex:
    """Resolution/translation pair (j, k), j >= 0, both stored as int."""

    j: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "j", as_number("j", self.j, int, ge=0))
        object.__setattr__(self, "k", as_number("k", self.k, int))


@dataclass(frozen=True)
class IndexSet:
    """All indices (j, k) with 0 <= j <= j0 and k in the chosen translation range.

    side="two_sided" uses k in {-2^j, ..., 2^j - 1} (the full family whose
    supports meet [-1; 1]); side="nonneg" keeps only k in {0, ..., 2^j - 1}.
    """

    j0: int
    side: str = TWO_SIDED

    def __post_init__(self):
        object.__setattr__(self, "j0", as_number("j0", self.j0, int, ge=0))
        if self.side not in (TWO_SIDED, NONNEG):
            raise ValueError(f"side must be {TWO_SIDED!r} or {NONNEG!r}")

    def k_range(self, j: int) -> range:
        """Translations k of resolution j in this family, in increasing order."""
        return range(-(2**j) if self.side == TWO_SIDED else 0, 2**j)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """The column table: index (j, k) is column offsets[j] + k, by level and k."""
        offsets, first = [], 0
        for j in range(self.j0 + 1):
            ks = self.k_range(j)
            offsets.append(first - ks.start)
            first += len(ks)
        return tuple(offsets)

    @property
    def size(self) -> int:
        return self.offsets[-1] + self.k_range(self.j0).stop

    @cached_property
    def js(self) -> np.ndarray:
        counts = [len(self.k_range(j)) for j in range(self.j0 + 1)]
        return np.repeat(np.arange(self.j0 + 1), counts)

    @cached_property
    def ks(self) -> np.ndarray:
        return np.arange(self.size) - np.array(self.offsets)[self.js]

    @cached_property
    def indices(self) -> tuple[WaveletIndex, ...]:
        return tuple(map(WaveletIndex, self.js.tolist(), self.ks.tolist()))

    def position(self, index: WaveletIndex) -> int:
        """Column of index in this family; ValueError if it is not a member."""
        if isinstance(index, WaveletIndex) and index.j <= self.j0:
            if index.k in self.k_range(index.j):
                return self.offsets[index.j] + index.k
        raise ValueError(f"{index} lies outside {self}")


def haar_amplitude(j):
    """Amplitude 2^(j/2), broadcasting over j; the one expression every path uses."""
    return 2.0 ** (0.5 * np.asarray(j, dtype=np.float64))


def haar_eval(index: WaveletIndex, x):
    """Evaluate phi_(j,k) at x (scalar or array).

    Returns 2^(j/2) on the right half-support (midpoint excluded, right
    endpoint included), -2^(j/2) on the left half (both endpoints included),
    0 elsewhere. The halves are decided on the exact dyadic boundaries:
    y = 2^j x - k would misclassify points within one ulp of a boundary
    (e.g. a tiny positive x against the support ending at 0).
    """
    j, k = index.j, index.k
    x_arr = np.asarray(x, dtype=np.float64)
    mid = math.ldexp(2 * k + 1, -(j + 1))
    neg = (x_arr >= math.ldexp(k, -j)) & (x_arr <= mid)
    pos = (x_arr > mid) & (x_arr <= math.ldexp(k + 1, -j))
    out = haar_amplitude(j) * (pos.astype(np.float64) - neg.astype(np.float64))
    return float(out) if np.isscalar(x) else out


def haar_tent(j, k, t) -> np.ndarray:
    """Integral of phi_(j,k) from -inf to t, broadcasting over j, k and t.

    A downward tent on the support: 0 at k2^-j, minimum -2^(-j/2-1) at the
    midpoint, back to 0 at (k+1)2^-j, and +0.0 (never -0.0) outside.
    """
    y = np.ldexp(np.asarray(t, dtype=np.float64), j) - k
    tent = np.minimum(y, 1.0 - y)
    return -(2.0 ** (-0.5 * j)) * np.where(tent > 0.0, tent, 0.0) + 0.0


def uniform_shift_mean(index: WaveletIndex, v, T: float):
    """Exact mean of phi_(j,k)(v - U) for U uniform on [0; T]."""
    T = as_number("T", T, float, gt=0)
    v_arr = np.asarray(v, dtype=np.float64)
    j, k = index.j, index.k
    out = (haar_tent(j, k, v_arr) - haar_tent(j, k, v_arr - T)) / T
    return float(out) if np.isscalar(v) else out
