"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two heavy Monte-Carlo
benchmarks (level at T=2, power at T=1) are shared module-scoped fixtures;
everything is seeded, so the whole gate is deterministic.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

import ppwave as pw
from ppwave.coefficients import _pair_slot_counts  # noqa: F401  (import check only)

MASTER_SEED = 20260810
WORKERS = os.cpu_count() or 1
ALPHA = 0.05


def report(criterion, description, ok):
    print(f"\nCRITERION {criterion}: {description} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {description}"


@pytest.fixture(scope="module")
def level_report():
    cfg = pw.ExperimentConfig(
        datasets=("Data_0",),
        R=1000,
        B=2000,
        T=2.0,
        alpha=ALPHA,
        master_seed=MASTER_SEED,
        workers=WORKERS,
    )
    return pw.run_level_experiment(cfg)


@pytest.fixture(scope="module")
def power_report():
    # T=1 resolves the top of the power ladder; at T=2 both Data_50 and
    # Data_80 saturate near 1 and the ladder gaps collapse below one CI
    # halfwidth.
    cfg = pw.ExperimentConfig(
        datasets=pw.POWER_DATASETS,
        R=500,
        B=2000,
        T=1.0,
        alpha=ALPHA,
        master_seed=MASTER_SEED,
        workers=WORKERS,
    )
    return pw.run_power_experiment(cfg)


def test_criterion_1_wavelet_level(level_report):
    rate = level_report.rate("Data_0", "wavelet")
    report(
        1,
        f"wavelet level on Data_0 = {rate:.4f}, required in [0.03; 0.07]",
        0.03 <= rate <= 0.07,
    )


def test_criterion_2_baseline_levels(level_report):
    ks_rate = level_report.rate("Data_0", "ks")
    per_delta = np.array(level_report.gaue_delta_rates["Data_0"])
    ok = 0.035 <= ks_rate <= 0.065 and bool(
        np.all((per_delta >= 0.03) & (per_delta <= 0.07))
    )
    report(
        2,
        (
            f"KS level = {ks_rate:.4f} in [0.035; 0.065]; coincidence level "
            f"across the delta grid in [{per_delta.min():.4f}; "
            f"{per_delta.max():.4f}], required within [0.03; 0.07]"
        ),
        ok,
    )


def test_criterion_3_power_ladder(power_report):
    names = ("Data_10", "Data_30", "Data_50", "Data_80")
    rates = [power_report.rate(n, "wavelet") for n in names]
    hws = []
    for n in names:
        row = [r for r in power_report.rows if r.dataset == n and r.method == "wavelet"]
        hws.append(row[0].ci_halfwidth)
    gaps_ok = all(
        rates[i + 1] - rates[i] > max(hws[i], hws[i + 1]) for i in range(3)
    )
    top = power_report.rate("Data_80", "wavelet")
    top_r = power_report.rate("Data_80r", "wavelet")
    ok = gaps_ok and top >= 0.90 and top_r >= 0.85
    report(
        3,
        (
            "wavelet power ladder "
            + " < ".join(f"{r:.3f}" for r in rates)
            + f" with gaps above one CI halfwidth; Data_80 = {top:.3f} >= 0.90, "
            f"Data_80r = {top_r:.3f} >= 0.85"
        ),
        ok,
    )


def test_criterion_4_baseline_contrast(power_report):
    wavelet_80r = power_report.rate("Data_80r", "wavelet")
    gaue_median_80r = power_report.rate("Data_80r", "gaue", "median")
    ks_r = {n: power_report.rate(n, "ks") for n in
            ("Data_10r", "Data_30r", "Data_50r", "Data_80r")}
    ok = (wavelet_80r - gaue_median_80r >= 0.2) and all(
        v <= 0.12 for v in ks_r.values()
    )
    report(
        4,
        (
            f"wavelet {wavelet_80r:.3f} vs coincidence median "
            f"{gaue_median_80r:.3f} on Data_80r (margin >= 0.2); KS on the "
            "delayed datasets "
            + ", ".join(f"{k}={v:.3f}" for k, v in ks_r.items())
            + " all <= 0.12"
        ),
        ok,
    )


def _coefficient_replicate(r):
    parents, children = pw.make_dataset(
        pw.DatasetId("Data_80"), 2.0, np.random.SeedSequence(MASTER_SEED, spawn_key=(99, r))
    )
    sp = pw.scale_train(parents, 50.0)
    sc = pw.scale_train(children, 50.0)
    hi = sp.window.hi + 1.0
    keep = (sc.times >= -1.0) & (sc.times <= hi)
    observed = pw.EventTrain(sc.times[keep], pw.Window(-1.0, hi))
    return pw.estimate_coefficients(sp, observed, pw.IndexSet(3)).beta_hat


def test_criterion_5_unbiasedness():
    idx = pw.IndexSet(3)
    closed_form = np.array(
        [
            1.6 * (pw.haar_tent(ix.j, ix.k, 0.5) - pw.haar_tent(ix.j, ix.k, 0.0))
            for ix in idx.indices
        ]
    )
    # cross-check the oracle itself by quadrature
    for pos, ix in enumerate(idx.indices):
        val, _ = quad(
            lambda x: 1.6 * pw.haar_eval(ix, x),
            0.0,
            0.5,
            points=[p for p in np.arange(0.0, 0.51, 0.0625)],
            limit=200,
        )
        assert closed_form[pos] == pytest.approx(val, abs=1e-10)

    R = 10_000
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        draws = np.array(list(pool.map(_coefficient_replicate, range(R), chunksize=200)))
    se = draws.std(axis=0, ddof=1) / np.sqrt(R)
    dev = np.abs(draws.mean(axis=0) - closed_form)
    ok = bool(np.all(dev <= 3 * se))
    report(
        5,
        (
            f"estimator unbiasedness over {R} scaled Data_80 replicates: "
            f"max |mean - analytic| = {dev.max():.5f}, all within 3 SE "
            f"(max dev/SE = {(dev / se).max():.2f})"
        ),
        ok,
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(606)
    idx = pw.IndexSet(3)
    all_equal = True
    for _ in range(100):
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 201))
        par = np.sort(rng.uniform(0, 4, n))
        chi = np.sort(rng.uniform(-1, 5, m))
        # sprinkle exact dyadic boundary differences into the children
        boundary = par[0] + rng.choice(
            [k * 2.0**-4 for k in range(-16, 17)], size=min(m, 5), replace=False
        )
        chi[: boundary.size] = boundary
        chi = np.sort(chi)
        parents = pw.EventTrain(par, pw.Window(0.0, 4.0))
        children = pw.EventTrain(chi, pw.Window(-2.0, 6.0))
        fast = pw.pair_cascade(children, parents, idx)
        diffs = np.subtract.outer(chi, par)
        naive = np.array(
            [math.fsum(pw.haar_eval(ix, diffs).ravel().tolist()) for ix in idx.indices]
        )
        if not np.array_equal(fast, naive):
            all_equal = False
            break

    counts_equal = True
    for _ in range(50):
        n = int(rng.integers(1, 150))
        m = int(rng.integers(1, 150))
        par = np.sort(rng.uniform(0, 2, n))
        chi = np.sort(rng.uniform(-1, 3, m))
        delta = float(rng.uniform(0.001, 0.1))
        fast_count = pw.gaue_test(
            pw.EventTrain(par, pw.Window(0.0, 2.0)),
            pw.EventTrain(chi, pw.Window(-1.0, 3.0)),
            2.0,
            delta,
            ALPHA,
        ).x_t
        inside = chi[(chi >= 0) & (chi <= 2)]
        brute = int((np.abs(np.subtract.outer(inside, par)) <= delta).sum())
        if fast_count != brute:
            counts_equal = False
            break

    report(
        6,
        "pair cascade equals the naive double loop exactly on 100 instances "
        "(boundary differences included); coincidence count equals brute force",
        all_equal and counts_equal,
    )


def test_criterion_7_calibration_invariants():
    cfg = pw.ExperimentConfig(
        datasets=pw.DATASET_NAMES,
        methods=("wavelet",),
        R=112,  # 9 datasets x 112 = 1008 mixed replicates
        B=2000,
        T=2.0,
        alpha=ALPHA,
        master_seed=MASTER_SEED,
        workers=WORKERS,
    )
    rep = pw.run_power_experiment(cfg)
    u_min = min(rep.u_alpha_min.values())

    total = float(np.exp(-pw.aggregation_weights(pw.IndexSet(3))).sum())
    ok = u_min >= ALPHA and abs(total - 0.8655) <= 1e-4 and total <= 1.0
    report(
        7,
        (
            f"u_alpha >= alpha on 1008 mixed replicates (min = {u_min:.4f}); "
            f"sum exp(-w) over the j0=3 family = {total:.6f} = 0.8655 +/- 1e-4"
        ),
        ok,
    )


def test_criterion_8_null_distribution_equality():
    n_draws = 2000
    parents_raw, _ = pw.make_dataset(
        pw.DatasetId("Data_0"), 2.0, np.random.SeedSequence(MASTER_SEED, spawn_key=(88,))
    )
    parents = pw.scale_train(parents_raw, 50.0)
    hi = parents.window.hi + 1.0
    analysis = pw.Window(-1.0, hi)
    m = 100
    idx = pw.IndexSet(2)

    nulls = pw.simulate_null_stats(
        parents,
        m,
        idx,
        n_draws,
        analysis,
        np.random.SeedSequence(MASTER_SEED, spawn_key=(1,)),
    )
    rng = np.random.default_rng(np.random.SeedSequence(MASTER_SEED, spawn_key=(2,)))
    fresh = np.empty((n_draws, idx.size))
    for b in range(n_draws):
        sample = np.sort(rng.uniform(analysis.lo, analysis.hi, size=m))
        fresh[b] = pw.estimate_coefficients(
            parents, pw.EventTrain(sample, analysis), idx
        ).t_stat

    p_values = np.array(
        [
            stats.ks_2samp(nulls.stats[:, c], fresh[:, c]).pvalue
            for c in range(idx.size)
        ]
    )
    ok = bool(np.all(p_values > 0.01))
    report(
        8,
        (
            f"fresh conditional statistics vs null rows, two-sample KS per "
            f"index (j <= 2): min p = {p_values.min():.4f} > 0.01"
        ),
        ok,
    )


def test_criterion_9_determinism_across_thread_counts():
    def run(workers):
        cfg = pw.ExperimentConfig(
            datasets=("Data_0", "Data_80"),
            R=40,
            B=400,
            T=1.0,
            alpha=ALPHA,
            master_seed=MASTER_SEED,
            workers=workers,
        )
        return pw.run_power_experiment(cfg).to_csv()

    serial = run(1)
    parallel = run(4)
    report(
        9,
        "reports are bit-identical for 1 and 4 workers at a fixed master seed",
        serial == parallel,
    )
