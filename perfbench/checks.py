"""Output checks for the benchmark, built on public ppwave calls only.

Every check returns a list of failure messages (empty when the output is
correct). They run outside the timed regions.
"""

from __future__ import annotations

import numpy as np

from ppwave import IndexSet, haar_eval, uniform_shift_mean

# beta_hat is an exact integer slot count in the package and a float sum of
# +-2^(j/2) terms here, so the two agree to rounding, not bit for bit.
_BETA_RTOL = 1e-9
_BETA_ATOL = 1e-12


def scaled_child_count(parents, children, scale: float) -> int:
    """Children inside the scaled analysis window [-1; T*scale + 1]."""
    scaled = np.asarray(children.times) * scale
    hi = parents.window.hi * scale + 1.0
    return int(np.count_nonzero((scaled >= -1.0) & (scaled <= hi)))


def naive_beta_hat(parents, children, idx: IndexSet, scale: float) -> np.ndarray:
    """Per-pair oracle: (sum phi(x - u) - (n - 1) sum E phi(x - U)) / n, scaled time."""
    u = np.asarray(parents.times) * scale
    x = np.asarray(children.times) * scale
    T = parents.window.hi * scale
    x = x[(x >= -1.0) & (x <= T + 1.0)]
    n = u.size
    diffs = x[:, None] - u[None, :]
    return np.array(
        [
            (
                float(np.sum(haar_eval(ix, diffs)))
                - (n - 1) * float(np.sum(uniform_shift_mean(ix, x, T)))
            )
            / n
            for ix in idx.indices
        ]
    )


def brute_coincidences(parents, children, T: float, delta: float) -> int:
    """Pairs with |x - y| <= delta among events on [0; T], by full enumeration."""
    px = np.asarray(parents.times)
    cy = np.asarray(children.times)
    px = px[(px >= 0.0) & (px <= T)]
    cy = cy[(cy >= 0.0) & (cy <= T)]
    return int(np.count_nonzero(np.abs(cy[:, None] - px[None, :]) <= delta))


def check_outcome(outcome, parents, children, alpha: float, beta_ref) -> list[str]:
    """Invariants of one run_multiple_test outcome against the oracles."""
    fails = []
    if not alpha <= outcome.u_alpha <= 1.0:
        fails.append(f"u_alpha {outcome.u_alpha} outside [{alpha}; 1]")
    exceed = outcome.t_stat > outcome.thresholds
    if outcome.reject != bool(exceed.any()):
        fails.append("reject != any(t_stat > thresholds)")
    if not np.array_equal(outcome.single_reject, exceed):
        fails.append("single_reject != (t_stat > thresholds)")
    if not np.array_equal(outcome.t_stat, np.abs(outcome.beta_hat)):
        fails.append("t_stat != |beta_hat|")
    m = scaled_child_count(parents, children, outcome.scale)
    if outcome.m_children != m:
        fails.append(f"m_children {outcome.m_children} != counted {m}")
    if not np.allclose(outcome.beta_hat, beta_ref, rtol=_BETA_RTOL, atol=_BETA_ATOL):
        fails.append("beta_hat differs from the per-pair oracle")
    return fails


def check_coincidences(results, parents, children, T: float) -> list[str]:
    """Each gaue_grid count equals the brute-force |x - y| <= delta count."""
    fails = []
    for g in results:
        expect = brute_coincidences(parents, children, T, g.delta)
        if g.x_t != expect:
            fails.append(f"x_t {g.x_t} != brute force {expect} at delta {g.delta}")
    return fails
