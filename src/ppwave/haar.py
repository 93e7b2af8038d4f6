"""Haar wavelet family and its closed forms.

This module owns the indices (WaveletIndex, IndexSet) and the exact
pointwise formulas: the sign and amplitude of each wavelet, its value, its
antiderivative and its mean under a uniform shift. The estimator built on
them (dyadic-slot pair sums and the shift-mean correction) lives in
coefficients.py. as_number, the type rule of every numeric setting, lives
here because WaveletIndex and IndexSet, the innermost values, apply it first.

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
    "haar_sign",
    "haar_eval",
    "haar_tent",
    "uniform_shift_mean",
]

TWO_SIDED = "two_sided"
NONNEG = "nonneg"


def as_number(name: str, value, kind: type):
    """The one type rule of numeric settings: value (numpy too, no bool) as kind."""
    types = (int, np.integer) if kind is int else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, types):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    return kind(value)


@dataclass(frozen=True, order=True)
class WaveletIndex:
    """Resolution/translation pair (j, k), j >= 0, both stored as int."""

    j: int
    k: int

    def __post_init__(self):
        for name in ("j", "k"):
            object.__setattr__(self, name, as_number(name, getattr(self, name), int))
        if self.j < 0:
            raise ValueError("resolution j must be >= 0")

    @property
    def support(self) -> tuple[float, float]:
        w = 2.0 ** (-self.j)
        return (self.k * w, (self.k + 1) * w)


@dataclass(frozen=True)
class IndexSet:
    """All indices (j, k) with 0 <= j <= j0 and k in the chosen translation range.

    side="two_sided" uses k in {-2^j, ..., 2^j - 1} (the full family whose
    supports meet [-1; 1]); side="nonneg" keeps only k in {0, ..., 2^j - 1}.
    """

    j0: int
    side: str = TWO_SIDED

    def __post_init__(self):
        object.__setattr__(self, "j0", as_number("j0", self.j0, int))
        if self.j0 < 0:
            raise ValueError("j0 must be >= 0")
        if self.side not in (TWO_SIDED, NONNEG):
            raise ValueError(f"side must be {TWO_SIDED!r} or {NONNEG!r}")

    def k_range(self, j: int) -> range:
        """Translations k of resolution j in this family, in increasing order."""
        return range(-(2**j) if self.side == TWO_SIDED else 0, 2**j)

    @cached_property
    def indices(self) -> tuple[WaveletIndex, ...]:
        return tuple(
            WaveletIndex(j, k) for j in range(self.j0 + 1) for k in self.k_range(j)
        )

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
        """Column of index in this family; ValueError if it is not a member."""
        try:
            return self.indices.index(index)
        except ValueError:
            raise ValueError(f"{index} lies outside {self}") from None


def haar_amplitude(j):
    """Amplitude 2^(j/2), broadcasting over j; the one expression every path uses."""
    return 2.0 ** (0.5 * np.asarray(j, dtype=np.float64))


def haar_sign(j, k, x) -> np.ndarray:
    """Sign of phi_(j,k) at x, broadcasting over j, k and x.

    -1 on [k2^-j; mid], +1 on (mid; (k+1)2^-j], else 0, decided on the exact
    dyadic boundaries: y = 2^j x - k would misclassify points within one ulp
    of a boundary (e.g. a tiny positive x against the support ending at 0).
    """
    k = np.asarray(k, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    lo = np.ldexp(k, -j)
    mid = np.ldexp(2.0 * k + 1.0, -(j + 1))
    hi = np.ldexp(k + 1.0, -j)
    neg = (x >= lo) & (x <= mid)
    pos = (x > mid) & (x <= hi)
    return pos.astype(np.float64) - neg.astype(np.float64)


def haar_eval(index: WaveletIndex, x):
    """Evaluate phi_(j,k) at x (scalar or array).

    Returns 2^(j/2) on the right half-support (midpoint excluded, right
    endpoint included), -2^(j/2) on the left half (both endpoints included),
    0 elsewhere.
    """
    out = haar_amplitude(index.j) * haar_sign(index.j, index.k, x)
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
    if not 0 < as_number("T", T, float) < math.inf:
        raise ValueError(f"T must be > 0 and finite, got {T}")
    v_arr = np.asarray(v, dtype=np.float64)
    j, k = index.j, index.k
    out = (haar_tent(j, k, v_arr) - haar_tent(j, k, v_arr - T)) / T
    return float(out) if np.isscalar(v) else out
