import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ppwave as pw
from ppwave import coefficients
from ppwave.adaptive import _thresholds


def train(times, lo, hi):
    return pw.EventTrain(np.asarray(times, dtype=float), pw.Window(lo, hi))


# --- weights -----------------------------------------------------------------


def test_weight_level_zero():
    expected = 2.0 * math.log(math.pi / math.sqrt(6.0)) + math.log(2.0)
    weights = pw.aggregation_weights(pw.IndexSet(0))
    assert weights == pytest.approx([expected, expected], abs=1e-12)
    assert expected == pytest.approx(1.1908474830, abs=1e-9)


def test_weight_sum_stays_below_one():
    for side in (pw.TWO_SIDED, pw.NONNEG):
        idx = pw.IndexSet(3, side)
        total = np.exp(-pw.aggregation_weights(idx)).sum()
        # geometric evaluation: (6/pi^2)(1 + 1/4 + 1/9 + 1/16)
        assert total == pytest.approx(0.8655, abs=1e-4)
        assert total <= 1.0


def test_weight_depends_on_level_only():
    # every index gets its level's closed form, bit for bit (math.log)
    log_c = math.log(math.pi / math.sqrt(6.0))
    for side in (pw.TWO_SIDED, pw.NONNEG):
        idx = pw.IndexSet(3, side)
        weights = pw.aggregation_weights(idx)
        for ix, w in zip(idx.indices, weights):
            size = len(idx.k_range(ix.j))
            assert w == 2.0 * (math.log(ix.j + 1) + log_c) + math.log(size)


def test_weight_family_membership():
    with pytest.raises(ValueError):
        pw.IndexSet(1).position(pw.WaveletIndex(1, 2))  # k outside K_1
    with pytest.raises(ValueError):
        pw.IndexSet(1, pw.NONNEG).position(pw.WaveletIndex(1, -1))
    with pytest.raises(ValueError):
        pw.aggregation_weights(pw.IndexSet(0, "sideways"))


# --- empirical quantiles -----------------------------------------------------


def test_quantile_rank_examples():
    col = np.array([1.0, 2.0, 3.0, 4.0])
    assert pw.empirical_quantile(col, 0.25) == 3.0
    assert pw.empirical_quantile(col, 0.5) == 2.0
    assert pw.empirical_quantile(col, 1.0) == -math.inf  # below every value
    assert pw.empirical_quantile(col, 1e-9) == 4.0
    with pytest.raises(ValueError):
        pw.empirical_quantile(col, 0.0)
    for bad in (True, "0.5"):  # not p = 1 (-inf), not a bare TypeError
        with pytest.raises(ValueError, match="p must be a number"):
            pw.empirical_quantile(col, bad)
    with pytest.raises(ValueError):
        pw.empirical_quantile(np.array([]), 0.5)
    with pytest.raises(ValueError):
        pw.empirical_quantile(np.array([3.0, 1.0, 2.0]), 0.5)  # not sorted
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            pw.empirical_quantile(np.array([0.1, 0.2, bad]), 0.5)


def test_quantile_rank_float_robustness():
    # (1 - 0.05) * 1000 rounds above 950 in doubles; the rank must still be 950
    col = np.arange(1.0, 1001.0)
    assert pw.empirical_quantile(col, 0.05) == 950.0


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_quantile_equals_thresholds_per_column(data):
    n = data.draw(st.integers(1, 40))
    n_cols = data.draw(st.integers(1, 5))
    value = st.floats(0.0, 10.0) | st.sampled_from([0.0, 1.0, 2.5])  # ties
    prob = st.floats(0.0, 1.0, exclude_min=True) | st.integers(1, n).map(lambda i: i / n)
    row = st.lists(value, min_size=n_cols, max_size=n_cols)
    cols = np.sort(np.array(data.draw(st.lists(row, min_size=n, max_size=n))), axis=0)
    probs = np.array(data.draw(st.lists(prob, min_size=n_cols, max_size=n_cols)))
    th = _thresholds(cols, probs)
    for c in range(n_cols):
        assert pw.empirical_quantile(cols[:, c], probs[c]) == th[c]


def test_quantile_exceedance_postcondition():
    rng = np.random.default_rng(1)
    col = np.sort(rng.normal(size=321))
    for p in (0.01, 0.05, 0.2, 0.5, 0.77):
        q = pw.empirical_quantile(col, p)
        assert np.mean(col > q) <= p
        smaller = col[col < q]
        if smaller.size:
            assert np.mean(col > smaller[-1]) > p


@given(
    st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=60),
    st.floats(0.01, 1.0),
    st.floats(0.01, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_quantile_monotone_in_p(values, p1, p2):
    col = np.sort(np.asarray(values))
    lo_p, hi_p = min(p1, p2), max(p1, p2)
    assert pw.empirical_quantile(col, hi_p) <= pw.empirical_quantile(col, lo_p)


# --- null statistics ---------------------------------------------------------


def test_null_stats_shape_and_split():
    parents = train([0.2, 1.0], 0.0, 2.0)
    idx = pw.IndexSet(2)
    nulls = pw.simulate_null_stats(
        parents,
        5,
        idx,
        4,
        pw.Window(-1.0, 3.0),
        np.random.SeedSequence(3, spawn_key=(0,)),
    )
    assert nulls.stats.shape == (4, idx.size)
    assert nulls.quantile_half.shape == (2, idx.size)
    assert nulls.calibration_half.shape == (2, idx.size)
    for m, B in ((5, 3), (5, 200.0), (3.0, 4), (True, 4), (5, True)):
        with pytest.raises(ValueError):
            pw.simulate_null_stats(
                parents,
                m,
                idx,
                B,
                pw.Window(-1.0, 3.0),
                np.random.SeedSequence(3, spawn_key=(0,)),
            )
    for bad in (-1.0, np.nan):
        stats = nulls.stats.copy()
        stats[1, 0] = bad
        with pytest.raises(ValueError):
            pw.NullStatMatrix(stats, idx)


def test_null_stats_single_pair_support():
    # n=1 parent at 0, m=1: the statistic is 1 when the uniform lands in the
    # wavelet support around the parent, else 0
    parents = train([0.0], 0.0, 2.0)
    idx = pw.IndexSet(0)
    nulls = pw.simulate_null_stats(
        parents,
        1,
        idx,
        400,
        pw.Window(-1.0, 3.0),
        np.random.SeedSequence(5, spawn_key=(0,)),
    )
    col = nulls.stats[:, idx.position(pw.WaveletIndex(0, 0))]
    assert set(np.unique(col)) <= {0.0, 1.0}
    assert 0.0 < col.mean() < 1.0


def test_null_stats_degenerate_m_zero():
    parents = train([0.2, 1.0], 0.0, 2.0)
    idx = pw.IndexSet(2)
    nulls = pw.simulate_null_stats(
        parents,
        0,
        idx,
        6,
        pw.Window(-1.0, 3.0),
        np.random.SeedSequence(4, spawn_key=(0,)),
    )
    assert np.all(nulls.stats == 0.0)


def test_null_stats_deterministic():
    parents = train([0.2, 1.0, 1.7], 0.0, 2.0)
    idx = pw.IndexSet(3)
    a = pw.simulate_null_stats(
        parents,
        7,
        idx,
        10,
        pw.Window(-1.0, 3.0),
        np.random.SeedSequence(9, spawn_key=(0,)),
    )
    b = pw.simulate_null_stats(
        parents,
        7,
        idx,
        10,
        pw.Window(-1.0, 3.0),
        np.random.SeedSequence(9, spawn_key=(0,)),
    )
    assert np.array_equal(a.stats, b.stats)


def test_null_rows_match_per_train_statistics():
    # a null row equals the production statistic path on the same sample
    rng = np.random.default_rng(12)
    parents = train(np.sort(rng.uniform(0, 100, 90)), 0.0, 100.0)
    idx = pw.IndexSet(3)
    m, B = 40, 6
    nulls = pw.simulate_null_stats(
        parents,
        m,
        idx,
        B,
        pw.Window(-1.0, 101.0),
        np.random.SeedSequence(33, spawn_key=(0,)),
    )
    draws = np.random.default_rng(
        np.random.SeedSequence(33, spawn_key=(0,))
    ).uniform(-1.0, 101.0, size=(B, m))
    for b in range(B):
        coef = pw.estimate_coefficients(
            parents, train(np.sort(draws[b]), -1.0, 101.0), idx
        )
        assert np.allclose(nulls.stats[b], coef.t_stat, rtol=0, atol=1e-12)


# --- calibration -------------------------------------------------------------


def _null_matrix(rng, B, idx):
    stats = np.abs(rng.normal(size=(B, idx.size)))
    return pw.NullStatMatrix(stats, idx)


def test_calibrated_level_never_below_alpha():
    rng = np.random.default_rng(8)
    idx = pw.IndexSet(2)
    w = pw.aggregation_weights(idx)
    for _ in range(25):
        nulls = _null_matrix(rng, 200, idx)
        u = pw.calibrate_u_alpha(nulls, w, 0.05)
        assert 0.05 <= u <= 1.0


def test_calibration_targets_alpha_on_calibration_half():
    rng = np.random.default_rng(18)
    idx = pw.IndexSet(3)
    w = pw.aggregation_weights(idx)
    nulls = _null_matrix(rng, 4000, idx)
    alpha = 0.05
    u = pw.calibrate_u_alpha(nulls, w, alpha)
    sorted_q = np.sort(nulls.quantile_half, axis=0)
    th = _thresholds(sorted_q, u * np.exp(-w))
    rate = np.mean(np.any(nulls.calibration_half > th, axis=1))
    assert rate <= alpha


def test_calibration_single_index_zero_weight():
    # |Gamma| = 1 with w = 0: u converges near alpha
    rng = np.random.default_rng(28)
    idx = pw.IndexSet(0, pw.NONNEG)
    assert idx.size == 1
    stats = rng.uniform(size=(4000, 1))
    u = pw.calibrate_u_alpha(pw.NullStatMatrix(stats, idx), np.zeros(1), 0.05)
    assert 0.05 <= u <= 0.05 + 0.04


def test_calibration_weights_match_columns():
    rng = np.random.default_rng(48)
    idx = pw.IndexSet(3)
    nulls = _null_matrix(rng, 200, idx)
    for bad in ([3.0], np.zeros(7), np.zeros((idx.size, 1))):
        with pytest.raises(ValueError):
            pw.calibrate_u_alpha(nulls, bad, 0.05)
    for value in (math.nan, math.inf, -math.inf):
        bad = pw.aggregation_weights(idx)
        bad[4] = value
        with pytest.raises(ValueError, match="weights must be finite"):
            pw.calibrate_u_alpha(nulls, bad, 0.05)
    for bad in (True, "0.05"):
        with pytest.raises(ValueError, match="alpha must be a number"):
            pw.calibrate_u_alpha(nulls, pw.aggregation_weights(idx), bad)


def test_calibration_with_underflowing_damping():
    # e^-w is 0 above w ~ 745: only values above the whole quantile-half
    # column are flagged, and they reject at any u (level 0, not 0/0)
    rng = np.random.default_rng(58)
    idx = pw.IndexSet(2)
    for w in (700.0, 746.0, 800.0):
        nulls = _null_matrix(rng, 200, idx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = pw.calibrate_u_alpha(nulls, np.full(idx.size, w), 0.05)
        assert u == 0.05


def _rate(nulls, w, u):
    """Fraction of calibration rows with some index above its threshold at u."""
    th = _thresholds(nulls.sorted_quantile_half, u * np.exp(-w))
    return float(np.mean(np.any(nulls.calibration_half > th, axis=1)))


def _bisection_u_alpha(nulls, w, alpha):
    """The former 25-step dichotomy on [alpha; 1], kept as the reference."""
    if _rate(nulls, w, alpha) > alpha:
        return alpha
    if _rate(nulls, w, 1.0) <= alpha:
        return 1.0
    lo, hi = alpha, 1.0
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        if _rate(nulls, w, mid) <= alpha:
            lo = mid
        else:
            hi = mid
    return lo


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 2000),
    st.sampled_from([0.01, 0.05, 0.3]),
    st.sampled_from([pw.IndexSet(0, pw.NONNEG), pw.IndexSet(2), pw.IndexSet(3)]),
    st.sampled_from([None, 1, 0]),
    st.integers(0, 3),
)
# B = 2 (k = 0 rows admitted at alpha = 0.05)
@example(7, 1, 0.05, pw.IndexSet(3), None, 0)
# one calibration row above every quantile-half value: critical level 0
@example(8, 50, 0.05, pw.IndexSet(3), None, 1)
# three such rows, more than the k = 2 that alpha = 0.05 admits at B = 100
@example(9, 50, 0.05, pw.IndexSet(2), None, 3)
# heavy ties
@example(10, 500, 0.3, pw.IndexSet(2), 0, 0)
# the one-index family
@example(11, 1000, 0.01, pw.IndexSet(0, pw.NONNEG), None, 0)
@settings(max_examples=80, deadline=None)
def test_calibration_is_the_exact_supremum(seed, half, alpha, idx, decimals, lifted):
    # B = 2 * half rows; rounding the statistics to a few decimals makes ties;
    # the first `lifted` calibration rows are set above every quantile-half value
    rng = np.random.default_rng(seed)
    stats = np.abs(rng.normal(size=(2 * half, idx.size)))
    if decimals is not None:
        stats = np.round(stats, decimals)
    stats[half : half + lifted] = stats[:half].max(axis=0) + 1.0
    nulls = pw.NullStatMatrix(stats, idx)
    w = pw.aggregation_weights(idx)
    u = pw.calibrate_u_alpha(nulls, w, alpha)
    assert alpha <= u <= 1.0
    if u > alpha:
        assert _rate(nulls, w, u) <= alpha
    if u < 1.0:
        assert _rate(nulls, w, np.nextafter(u, 1.0)) > alpha
    u_ref = _bisection_u_alpha(nulls, w, alpha)
    assert u_ref <= u <= u_ref + 2.0**-25


def test_thresholds_monotone_in_u():
    rng = np.random.default_rng(38)
    idx = pw.IndexSet(2)
    w = pw.aggregation_weights(idx)
    sorted_q = np.sort(np.abs(rng.normal(size=(500, idx.size))), axis=0)
    prev = None
    for u in (0.05, 0.1, 0.3, 0.7, 1.0):
        th = _thresholds(sorted_q, u * np.exp(-w))
        if prev is not None:
            assert np.all(th <= prev)
        prev = th


# --- the aggregated test -----------------------------------------------------


def quick_config(B=600, **kw):
    return pw.TestConfig(B=B, **kw)


def test_config_validation():
    for bad in (
        dict(alpha=0.0),
        dict(B=3),
        dict(scale=0.0),
        dict(scale=math.nan),
        dict(scale=math.inf),
        dict(j0=-1),
        dict(side="bogus"),
        dict(B=200.0),  # counts must be integers, not integral floats
        dict(j0=2.0),
        dict(B=True),
        dict(alpha="0.05"),  # reals must be numbers, not strings, None or bools
        dict(alpha=None),
        dict(scale=True),
    ):
        with pytest.raises(ValueError):
            pw.TestConfig(**bad)
    assert pw.TestConfig(j0=2, side=pw.NONNEG).index_set == pw.IndexSet(2, pw.NONNEG)
    assert pw.TestConfig(j0=np.int64(2), B=np.int32(200)).index_set == pw.IndexSet(2)
    cfg = pw.TestConfig(alpha=np.float32(0.05), scale=np.float64(50.0))
    assert type(cfg.alpha) is float and type(cfg.scale) is float


def test_outcome_deterministic_and_consistent():
    parents, children = pw.make_dataset(
        pw.DatasetId("Data_80"), 1.0, np.random.SeedSequence(44, spawn_key=(0,))
    )
    cfg = quick_config()
    a = pw.run_multiple_test(
        parents, children, cfg, seed=np.random.SeedSequence(45, spawn_key=(0,))
    )
    b = pw.run_multiple_test(
        parents, children, cfg, seed=np.random.SeedSequence(45, spawn_key=(0,))
    )
    assert a.reject == b.reject
    assert a.u_alpha == b.u_alpha
    assert np.array_equal(a.t_stat, b.t_stat)
    assert np.array_equal(a.thresholds, b.thresholds)
    # aggregation is exactly the OR of the single rejections
    assert a.reject == bool(a.single_reject.any())
    assert a.u_alpha >= cfg.alpha
    assert np.array_equal(a.single_reject, a.t_stat > a.thresholds)
    # the outcome stores its evidence; the statistics and decisions derive from it
    assert [f.name for f in dataclasses.fields(a)] == [
        "u_alpha", "index_set", "beta_hat", "thresholds", "n_parents", "m_children",
        "scale",
    ]
    assert np.array_equal(a.t_stat, np.abs(a.beta_hat))
    assert type(a.reject) is bool and type(a.no_information) is bool
    assert a.single_reject.dtype == bool and a.no_information is False


def test_outcome_positions():
    parents, children = pw.make_dataset(
        pw.DatasetId("Data_80"), 1.0, np.random.SeedSequence(46, spawn_key=(0,))
    )
    out = pw.run_multiple_test(
        parents,
        children,
        quick_config(),
        seed=np.random.SeedSequence(47, spawn_key=(0,)),
    )
    # position k 2^-j and range 2^-j in original time, in the CLI's order of
    # operations, so the printed table is bit for bit these values
    for i, ix in enumerate(out.index_set.indices):
        assert out.positions_original[i] == ix.k * 2.0**-ix.j / 50.0
        assert out.ranges_original[i] == 2.0**-ix.j / 50.0


def assert_no_information(out, cfg, n_parents):
    size = cfg.index_set.size
    assert out.no_information is True and out.reject is False
    assert out.u_alpha == cfg.alpha and out.index_set == cfg.index_set
    assert np.array_equal(out.beta_hat, np.zeros(size))
    assert np.array_equal(out.t_stat, np.zeros(size))
    assert out.thresholds.shape == (size,) and np.isnan(out.thresholds).all()
    assert out.single_reject.dtype == bool
    assert np.array_equal(out.single_reject, np.zeros(size, dtype=bool))
    assert out.n_parents == n_parents and out.m_children == 0
    assert out.scale == cfg.scale


def test_no_information_outcomes():
    cfg = quick_config(alpha=0.1, side=pw.NONNEG)
    empty = train([], 0.0, 2.0)
    some = train([0.5], -1.0, 3.0)
    out = pw.run_multiple_test(
        empty, some, cfg, seed=np.random.SeedSequence(1, spawn_key=(0,))
    )
    assert_no_information(out, cfg, n_parents=0)

    parents = train([0.5, 1.5], 0.0, 2.0)
    out2 = pw.run_multiple_test(parents, train([], -1.0, 3.0), cfg, seed=1)
    assert_no_information(out2, cfg, n_parents=2)

    # children only outside the scaled analysis window: none is kept
    out3 = pw.run_multiple_test(parents, train([-0.9, 2.9], -1.0, 3.0), cfg, seed=1)
    assert_no_information(out3, cfg, n_parents=2)


def test_seed_rule_holds_when_the_data_leave_nothing_to_test():
    cfg = quick_config()
    parents = train([0.5, 1.5], 0.0, 2.0)
    cases = (
        (train([], 0.0, 2.0), train([0.5], -1.0, 3.0)),  # no parent
        (parents, train([-0.9, 2.9], -1.0, 3.0)),  # no child kept
    )
    index = cfg.index_set.indices[0]
    for given, children in cases:
        for bad in (None, True, "x", 1.5):
            with pytest.raises(TypeError):
                pw.run_multiple_test(given, children, cfg, seed=bad)
            with pytest.raises(TypeError):
                pw.run_single_test(index, given, children, cfg, seed=bad)


def test_support_disjoint_children_never_reject():
    # one parent at 0, children far away: every statistic is exactly zero
    parents = train([0.0], 0.0, 30.0)
    rng = np.random.default_rng(58)
    children = train(np.sort(rng.uniform(3, 28, 50)), -1.0, 31.0)
    cfg = pw.TestConfig(B=400, scale=1.0)
    out = pw.run_multiple_test(
        parents, children, cfg, seed=np.random.SeedSequence(59, spawn_key=(0,))
    )
    assert np.all(out.t_stat == 0.0)
    assert not out.reject


def test_single_test_level_under_null():
    cfg = pw.TestConfig(B=400)
    R, rejects = 150, 0
    for r in range(R):
        parents, children = pw.make_dataset(
            pw.DatasetId("Data_0"), 1.0, np.random.SeedSequence(61, spawn_key=(r,))
        )
        rejects += pw.run_single_test(
            pw.WaveletIndex(0, 0),
            parents,
            children,
            cfg,
            seed=np.random.SeedSequence(62, spawn_key=(r,)),
        )
    rate = rejects / R
    assert rate <= 0.05 + 2 * math.sqrt(0.05 * 0.95 / R)


def test_single_test_power_at_signal_index():
    # scaled Data_80 has |beta_(0,0)| = 0.8, far above the null spread
    cfg = pw.TestConfig(B=400)
    R, rejects = 60, 0
    for r in range(R):
        parents, children = pw.make_dataset(
            pw.DatasetId("Data_80"), 2.0, np.random.SeedSequence(71, spawn_key=(r,))
        )
        rejects += pw.run_single_test(
            pw.WaveletIndex(0, 0),
            parents,
            children,
            cfg,
            seed=np.random.SeedSequence(72, spawn_key=(r,)),
        )
    assert rejects / R >= 0.9


@given(
    st.sampled_from(pw.DATASET_NAMES),
    st.integers(0, 2**32 - 1),
    st.integers(0, 3),
    st.integers(0, 15),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_single_test_matches_shared_null_path(name, data_seed, j, k_pos, seed):
    ix = pw.WaveletIndex(j, k_pos % 2 ** (j + 1) - 2**j)
    parents, children = pw.make_dataset(
        pw.DatasetId(name), 1.0, np.random.SeedSequence(data_seed, spawn_key=(0,))
    )
    cfg = quick_config(B=200)
    sp, observed, window = pw.scale_clip(parents, children, cfg.scale)
    m = observed.count()
    expected = False
    if parents.count() and m:
        # The whole j0 = 3 family: the column of ix does not depend on j0.
        idx = pw.IndexSet(3)
        p = idx.position(ix)
        stat = pw.estimate_coefficients(sp, observed, idx).t_stat[p]
        nulls = pw.simulate_null_stats(sp, m, idx, cfg.B, window, seed)
        expected = stat > pw.empirical_quantile(np.sort(nulls.stats[:, p]), cfg.alpha)
    assert pw.run_single_test(ix, parents, children, cfg, seed=seed) == expected


@given(
    st.sampled_from(pw.DATASET_NAMES),
    st.integers(1, 30),
    st.integers(0, 4),
    st.sampled_from([pw.TWO_SIDED, pw.NONNEG]),
    st.sampled_from([1, 16, 2**9, 2**15]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_one_kernel_call_is_the_two_call_composition(
    name, half, j0, side, block, workers, seed
):
    # a test's one kernel call, the observed train as row 0 and the B null
    # rows after it, in blocks of one to many rows on 1 to 3 workers, gives
    # the bits of estimate_coefficients and simulate_null_stats called apart,
    # and leaves a passed Generator where simulate_null_stats leaves it
    parents, children = pw.make_dataset(pw.DatasetId(name), 1.0, seed % 97)
    cfg = pw.TestConfig(j0=j0, side=side, B=2 * half)
    sp, observed, window = pw.scale_clip(parents, children, cfg.scale)
    m, idx = observed.count(), cfg.index_set
    assume(sp.count() > 0 and m > 0)
    ix = idx.indices[seed % idx.size]
    one_call, two_calls = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(coefficients, "_BLOCK_SIZE", block):
        with mock.patch.object(coefficients, "_workers", lambda *args: workers):
            out = pw.run_multiple_test(parents, children, cfg, seed=one_call)
            single = pw.run_single_test(ix, parents, children, cfg, seed=seed)
    beta = pw.estimate_coefficients(sp, observed, idx).beta_hat
    nulls = pw.simulate_null_stats(sp, m, idx, cfg.B, window, two_calls)
    weights = pw.aggregation_weights(idx)
    u_alpha = pw.calibrate_u_alpha(nulls, weights, cfg.alpha)
    thresholds = _thresholds(nulls.sorted_quantile_half, u_alpha * np.exp(-weights))
    assert out.beta_hat.tobytes() == beta.tobytes()
    assert out.u_alpha.hex() == u_alpha.hex()
    assert out.thresholds.tobytes() == thresholds.tobytes()
    assert out.single_reject.tobytes() == (np.abs(beta) > thresholds).tobytes()
    assert one_call.bit_generator.state == two_calls.bit_generator.state
    # the single test's decision as it was made from the two calls
    p = idx.position(ix)
    column = pw.simulate_null_stats(sp, m, idx, cfg.B, window, seed).stats[:, [p]]
    column.sort(axis=0)
    assert single == (np.abs(beta[p]) > _thresholds(column, np.array([cfg.alpha]))[0])


def test_single_test_rejects_an_index_outside_the_family():
    # raised before any work, so also when there is no information
    parents, children = train([0.5], 0.0, 2.0), train([0.6], -1.0, 3.0)
    cfg = quick_config(B=20)
    for ix in (pw.WaveletIndex(2, 4), pw.WaveletIndex(0, -2)):
        for p in (parents, train([], 0.0, 2.0)):
            with pytest.raises(ValueError) as err:
                pw.run_single_test(ix, p, children, cfg, seed=1)
            assert str(err.value) == f"{ix!r} lies outside {cfg.index_set!r}"


def test_single_test_family_is_the_configured_one():
    # (1, -1) is two-sided only and (3, 2) lies above j0 = 1: both raise
    # under such configs, on data that would be tested, and pass under the
    # default family
    parents, children = pw.make_dataset(pw.DatasetId("Data_80"), 1.0, 3)
    cases = (
        (pw.WaveletIndex(1, -1), quick_config(B=200, side=pw.NONNEG, j0=1)),
        (pw.WaveletIndex(3, 2), quick_config(B=200, j0=1)),
    )
    for ix, cfg in cases:
        with pytest.raises(ValueError) as err:
            pw.run_single_test(ix, parents, children, cfg, seed=3)
        assert str(err.value) == f"{ix!r} lies outside {cfg.index_set!r}"
        pw.run_single_test(ix, parents, children, quick_config(B=200), seed=3)


def test_single_test_degenerate_B2_no_crash():
    parents, children = pw.make_dataset(
        pw.DatasetId("Data_10"), 1.0, np.random.SeedSequence(81, spawn_key=(0,))
    )
    cfg = pw.TestConfig(B=2)
    decision = pw.run_single_test(
        pw.WaveletIndex(1, 0),
        parents,
        children,
        cfg,
        seed=np.random.SeedSequence(82, spawn_key=(0,)),
    )
    assert decision in (True, False)


def test_tie_with_threshold_does_not_reject():
    # n=1, m=1: both the observed statistic and most null rows equal 1, so the
    # threshold is 1 and the strict inequality must keep the test accepting
    parents = train([0.0], 0.0, 2.0)
    children = train([0.5], -1.0, 3.0)
    cfg = pw.TestConfig(B=200, scale=1.0)
    out = pw.run_multiple_test(
        parents, children, cfg, seed=np.random.SeedSequence(91, spawn_key=(0,))
    )
    pos = out.index_set.position(pw.WaveletIndex(0, 0))
    assert out.t_stat[pos] == 1.0
    assert out.thresholds[pos] == 1.0
    assert not out.single_reject[pos]
