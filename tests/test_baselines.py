import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import ppwave as pw


def train(times, lo, hi):
    return pw.EventTrain(np.asarray(times, dtype=float), pw.Window(lo, hi))


# --- Kolmogorov-Smirnov ------------------------------------------------------


def test_kolmogorov_sf_against_scipy():
    for x in (0.3, 0.5, 0.83, 1.0, 1.36, 2.0, 3.0):
        assert pw.kolmogorov_sf(x) == pytest.approx(
            stats.kstwobign.sf(x), abs=1e-9
        )
    assert pw.kolmogorov_sf(0.0) == 1.0
    assert pw.kolmogorov_sf(1e-4) == pytest.approx(1.0, abs=1e-6)


def test_ks_single_midpoint_child():
    res = pw.ks_test(train([1.0], -1.0, 3.0), pw.Window(-1.0, 3.0), 0.05)
    assert res.d_stat == 0.5


def test_ks_equioscillating_grid():
    m = 20
    lo, hi = -1.0, 3.0
    times = lo + (hi - lo) * (np.arange(1, m + 1) - 0.5) / m
    res = pw.ks_test(train(times, lo, hi), pw.Window(lo, hi), 0.05)
    assert res.d_stat == pytest.approx(0.5 / m, abs=1e-15)
    assert not res.reject


def test_ks_empty_is_no_information():
    res = pw.ks_test(train([], 0.0, 1.0), pw.Window(0.0, 1.0), 0.05)
    assert res.no_information and not res.reject


def test_ks_reject_rule_is_p_leq_alpha():
    rng = np.random.default_rng(2)
    times = np.sort(rng.uniform(0, 1, 80) ** 3)
    res = pw.ks_test(train(times, 0.0, 1.0), pw.Window(0.0, 1.0), 0.05)
    assert res.reject == (res.p_value <= 0.05)
    assert res.reject  # cubed uniforms are far from uniform


def test_ks_matches_scipy_pvalue():
    rng = np.random.default_rng(15)
    times = np.sort(rng.uniform(-1, 3, 200))
    res = pw.ks_test(train(times, -1.0, 3.0), pw.Window(-1.0, 3.0), 0.05)
    ref = stats.kstest(times, stats.uniform(loc=-1, scale=4).cdf, mode="asymp")
    assert res.d_stat == pytest.approx(ref.statistic, abs=1e-12)
    assert res.p_value == pytest.approx(ref.pvalue, abs=1e-6)


def test_ks_scale_invariance():
    rng = np.random.default_rng(25)
    times = np.sort(rng.uniform(-1, 3, 60))
    base = pw.ks_test(train(times, -1.0, 3.0), pw.Window(-1.0, 3.0), 0.05)
    # power-of-two factors rescale exactly
    t2 = pw.scale_train(train(times, -1.0, 3.0), 4.0)
    res2 = pw.ks_test(t2, t2.window, 0.05)
    assert res2.d_stat == base.d_stat and res2.p_value == base.p_value
    # generic affine factors up to rounding
    t3 = pw.scale_train(train(times, -1.0, 3.0), 50.0)
    res3 = pw.ks_test(t3, t3.window, 0.05)
    assert res3.d_stat == pytest.approx(base.d_stat, rel=1e-12)


# --- coincidence counting ----------------------------------------------------


def test_gaue_formula_values():
    # lp=50, lc=20, T=2, delta=0.01: m0 = 39.9, sigma^2 ~ 39.946
    rng = np.random.default_rng(35)
    parents = train(np.sort(rng.uniform(0, 2, 100)), 0.0, 2.0)
    children = train(np.sort(rng.uniform(0, 2, 40)), -1.0, 3.0)
    res = pw.gaue_test(parents, children, 2.0, 0.01, 0.05)
    assert res.m0_hat == pytest.approx(39.9, abs=1e-12)
    assert res.sigma_hat**2 == pytest.approx(39.9 + 70_000 * (2 / 3 * 1e-6 - 5e-9), rel=1e-12)
    assert res.sigma_hat**2 == pytest.approx(39.946, abs=1e-3)
    # a float32 delay is computed in float64, not promoted down to float32
    res32 = pw.gaue_test(parents, children, 2.0, np.float32(0.01), 0.05)
    exact = pw.gaue_test(parents, children, 2.0, float(np.float32(0.01)), 0.05)
    assert res32 == exact and type(res32.m0_hat) is float


def test_coincidence_count_matches_bruteforce():
    rng = np.random.default_rng(45)
    for _ in range(50):
        n, m = rng.integers(1, 80, size=2)
        par = np.sort(rng.uniform(0, 2, n))
        chi = np.sort(rng.uniform(-1, 3, m))
        delta = float(rng.uniform(0.001, 0.2))
        parents = train(par, 0.0, 2.0)
        children = train(chi, -1.0, 3.0)
        fast = pw.gaue_test(parents, children, 2.0, delta, 0.05).x_t
        inside = chi[(chi >= 0) & (chi <= 2)]
        brute = int(
            (np.abs(np.subtract.outer(inside, par)) <= delta).sum()
        )
        assert fast == brute


# Times whose differences with 0.0 equal the grid delays exactly; drawing them
# repeatedly also yields tied times.
_GRID_HITS = (0.0, *pw.DELTA_GRID)


@given(
    st.lists(st.floats(0.0, 2.0) | st.sampled_from(_GRID_HITS), max_size=25),
    st.lists(st.floats(-1.0, 3.0) | st.sampled_from(_GRID_HITS), max_size=25),
)
@settings(max_examples=100, deadline=None)
def test_grid_counts_match_bruteforce_on_every_delta(par, chi):
    par, chi = np.sort(par), np.sort(chi)
    parents = train(par, 0.0, 2.0)
    children = train(chi, -1.0, 3.0)
    inside = chi[(chi >= 0) & (chi <= 2)]
    dist = np.abs(np.subtract.outer(inside, par))
    for g in pw.gaue_grid(parents, children, 2.0, 0.05):
        brute = int(np.count_nonzero(dist <= g.delta))
        assert g.x_t == brute
        assert pw.gaue_test(parents, children, 2.0, g.delta, 0.05).x_t == brute


def test_coincidence_monotone_in_delta():
    parents, children = pw.make_dataset(
        pw.DatasetId("Data_50"), 2.0, np.random.SeedSequence(55, spawn_key=(0,))
    )
    counts = [g.x_t for g in pw.gaue_grid(parents, children, 2.0, 0.05)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_gaue_grid_shape():
    parents, children = pw.make_dataset(
        pw.DatasetId("Data_0"), 2.0, np.random.SeedSequence(65, spawn_key=(0,))
    )
    grid = pw.gaue_grid(parents, children, 2.0, 0.05)
    assert len(grid) == 40
    assert grid[0].delta == pytest.approx(0.001)
    assert grid[-1].delta == pytest.approx(0.040)
    # plain Python values, as the CSV and JSON writers take them
    assert all(type(delta) is float for delta in pw.DELTA_GRID)
    for g in grid:
        fields = (g.x_t, g.m0_hat, g.sigma_hat, g.delta, g.reject)
        assert tuple(map(type, fields)) == (int, float, float, float, bool)
    # the variance estimate dominates m0 across the whole grid
    assert all(g.sigma_hat**2 >= g.m0_hat for g in grid)


def test_gaue_empty_train_accepts():
    parents = train([], 0.0, 2.0)
    children = train([0.5], -1.0, 3.0)
    res = pw.gaue_test(parents, children, 2.0, 0.01, 0.05)
    assert not res.reject and res.x_t == 0 and res.m0_hat == 0.0


def test_gaue_two_sided_detects_coincidence_deficit():
    # zero coincidences against ~20 expected is itself evidence of dependence:
    # parents spaced beyond 2*delta, children at the midpoints between them
    par = np.linspace(0.02, 1.92, 50)
    mids = (par[:-1] + par[1:]) / 2.0
    children = train(np.sort(np.concatenate([mids[:20], mids[20:40]])), -1.0, 3.0)
    res = pw.gaue_test(train(par, 0.0, 2.0), children, 2.0, 0.01, 0.05)
    assert res.x_t == 0
    assert res.m0_hat - res.sigma_hat * 1.96 > 0
    assert res.reject


def test_gaue_validation():
    parents, children = pw.make_dataset(
        pw.DatasetId("Data_0"), 2.0, np.random.SeedSequence(75, spawn_key=(0,))
    )
    with pytest.raises(ValueError):
        pw.gaue_test(parents, children, 2.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        pw.gaue_test(parents, children, 2.0, 2.5, 0.05)
    with pytest.raises(ValueError):
        pw.gaue_test(parents, children, 2.0, 0.01, 1.5)
    # each real argument takes the settings' type rule
    for bad in (True, "0.05"):
        calls = {
            "T": lambda: pw.gaue_test(parents, children, bad, 0.01, 0.05),
            "delta": lambda: pw.gaue_test(parents, children, 2.0, bad, 0.05),
            "alpha": lambda: pw.gaue_test(parents, children, 2.0, 0.01, bad),
            "grid T": lambda: pw.gaue_grid(parents, children, bad, 0.05),
            "grid alpha": lambda: pw.gaue_grid(parents, children, 2.0, bad),
            "ks alpha": lambda: pw.ks_test(children, children.window, bad),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError, match=f"{name.split()[-1]} must be a number"):
                call()


def test_gaue_level_snapshot_under_null():
    # small-R sanity that the two-sided rule holds its level at a few deltas
    R = 400
    rejects = {0.005: 0, 0.02: 0}
    for r in range(R):
        parents, children = pw.make_dataset(
            pw.DatasetId("Data_0"), 2.0, np.random.SeedSequence(85, spawn_key=(r,))
        )
        for d in rejects:
            rejects[d] += pw.gaue_test(parents, children, 2.0, d, 0.05).reject
    for d, count in rejects.items():
        assert count / R <= 0.05 + 3 * math.sqrt(0.05 * 0.95 / R)
        assert count / R >= 0.05 - 3 * math.sqrt(0.05 * 0.95 / R)
