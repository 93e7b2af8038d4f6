"""Comparison tests: conditional Kolmogorov-Smirnov and coincidence counting.

Both run on original-time (unscaled) data. KS checks the children against
the uniform law on the observation window, which is their exact conditional
law under the null. The coincidence test counts parent/child pairs closer
than a delay delta on [0; T] and applies a Gaussian threshold with plug-in
rate estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .haar import as_number
from .process import EventTrain, PairTable, Window, times_in

__all__ = [
    "DELTA_GRID",
    "kolmogorov_sf",
    "ks_test",
    "gaue_test",
    "gaue_grid",
]

# Delay grid for the coincidence test: 0.001 to 0.040, step 0.001.
DELTA_GRID = tuple((np.arange(1, 41) * 0.001).tolist())


@dataclass(frozen=True)
class KsResult:
    d_stat: float
    p_value: float
    reject: bool
    no_information: bool = False


@dataclass(frozen=True)
class GaueResult:
    x_t: int
    m0_hat: float
    sigma_hat: float
    delta: float
    reject: bool


def kolmogorov_sf(x: float) -> float:
    """Asymptotic Kolmogorov survival function 2 sum_j (-1)^(j-1) exp(-2 j^2 x^2).

    The alternating series is truncated once a term drops below 1e-12; the
    result is clamped to [0; 1].
    """
    if x <= 0.0:
        return 1.0
    total = 0.0
    j = 1
    while True:
        term = 2.0 * math.exp(-2.0 * j * j * x * x)
        if term < 1e-12:
            break
        total += term if j % 2 else -term
        j += 1
    return min(max(total, 0.0), 1.0)


def ks_test(children: EventTrain, obs: Window, alpha: float) -> KsResult:
    """Kolmogorov-Smirnov test of the children against Unif(obs).

    Uses the asymptotic p-value K(sqrt(m) * D), which is conservative at
    small m: at T=1 the window holds about 16-21 children, where the exact
    size of the test at alpha = 0.05 is 0.038-0.039 (0.034 at m=10, 0.046 at
    m=120). ROADMAP.md plans the exact finite-m law. An empty train
    accepts with the no-information flag.
    """
    alpha = as_number("alpha", alpha, float, gt=0, lt=1)
    sel = times_in(children, obs)
    m = sel.size
    if m == 0:
        return KsResult(0.0, 1.0, False, no_information=True)
    u = (sel - obs.lo) / obs.length
    grid = np.arange(1, m + 1) / m
    d_stat = float(max(np.max(grid - u), np.max(u - (grid - 1.0 / m))))
    p_value = kolmogorov_sf(math.sqrt(m) * d_stat)
    return KsResult(d_stat, p_value, p_value <= alpha)


def _gaue_results(
    parents: EventTrain, children: EventTrain, T: float, deltas, alpha: float
) -> list[GaueResult]:
    """Coincidence-count test at every delay in deltas (see gaue_test).

    One sorted sweep at the largest delta collects the exact parent/child
    differences on [0; T]; each count of pairs with |x - y| <= delta is then
    a binary search in the sorted |differences|, so it matches brute-force
    pair enumeration exactly.
    """
    T = as_number("T", T, float, gt=0)
    alpha = as_number("alpha", alpha, float, gt=0, lt=1)
    for delta in (min(deltas), max(deltas)):  # the ends bound every delay
        as_number("delta", delta, float, gt=0, lt=T)
    window = Window(0.0, T)
    px = times_in(parents, window)
    cy = times_in(children, window)
    if px.size == 0 or cy.size == 0:
        return [GaueResult(0, 0.0, 0.0, delta, False) for delta in deltas]
    diffs = PairTable(px, max(deltas)).ranked(cy)[0]  # in any order
    counts = np.searchsorted(np.sort(np.abs(diffs)), deltas, side="right")
    rate_p = px.size / T
    rate_c = cy.size / T
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    results = []
    for delta, x_t in zip(deltas, counts.tolist()):
        m0_hat = rate_p * rate_c * (2.0 * T * delta - delta * delta)
        var = m0_hat + rate_p * rate_c * (rate_p + rate_c) * (
            (2.0 / 3.0) * delta**3 - delta**4 / T
        )
        sigma_hat = math.sqrt(max(var, 0.0))
        reject = bool(abs(x_t - m0_hat) >= sigma_hat * z)
        results.append(GaueResult(x_t, m0_hat, sigma_hat, delta, reject))
    return results


def gaue_test(
    parents: EventTrain,
    children: EventTrain,
    T: float,
    delta: float,
    alpha: float,
) -> GaueResult:
    """Coincidence-count test with Gaussian plug-in threshold.

    Rejects when |X_T - m0_hat| reaches sigma_hat * z(1 - alpha/2), with
    m0_hat = lp * lc * (2 T delta - delta^2) and sigma_hat^2 = m0_hat +
    lp * lc * (lp + lc) * (2/3 delta^3 - delta^4 / T), lp and lc being the
    empirical rates on [0; T]. The two-sided rule (coincidence excess or
    deficit) is the method's native form and is what holds the empirical
    level near alpha; the upper branch alone sits near alpha/2. Empty trains
    accept outright.
    """
    delta = as_number("delta", delta, float)
    return _gaue_results(parents, children, T, (delta,), alpha)[0]


def gaue_grid(
    parents: EventTrain, children: EventTrain, T: float, alpha: float
) -> list[GaueResult]:
    """Coincidence test across the whole delay grid (40 results)."""
    return _gaue_results(parents, children, T, DELTA_GRID, alpha)
