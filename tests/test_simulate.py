import numpy as np
import pytest
from scipy import stats

import ppwave as pw
from ppwave.simulate import ORPHAN_RATE, PARENT_RATE


def test_zero_rate_is_empty():
    t = pw.sim_homogeneous_poisson(
        0.0, pw.Window(0.0, 2.0), np.random.SeedSequence(1, spawn_key=(0,))
    )
    assert t.count() == 0
    with pytest.raises(ValueError):
        pw.sim_homogeneous_poisson(
            -1.0, pw.Window(0.0, 2.0), np.random.SeedSequence(1, spawn_key=(0,))
        )
    for bad in (True, "1"):  # not rate 1, not a bare TypeError
        with pytest.raises(ValueError, match="rate must be a number"):
            pw.sim_homogeneous_poisson(bad, pw.Window(0.0, 2.0), 0)


def test_fixed_seed_reproduces():
    seed = np.random.SeedSequence(123, spawn_key=(4,))
    a = pw.sim_homogeneous_poisson(50.0, pw.Window(0.0, 2.0), seed)
    b = pw.sim_homogeneous_poisson(50.0, pw.Window(0.0, 2.0), seed)
    assert np.array_equal(a.times, b.times)

    pa, ca = pw.make_dataset(
        pw.DatasetId("Data_30r"), 2.0, np.random.SeedSequence(7, spawn_key=(0,))
    )
    pb, cb = pw.make_dataset(
        pw.DatasetId("Data_30r"), 2.0, np.random.SeedSequence(7, spawn_key=(0,))
    )
    assert np.array_equal(pa.times, pb.times)
    assert np.array_equal(ca.times, cb.times)
    pc, _ = pw.make_dataset(
        pw.DatasetId("Data_30r"), 2.0, np.random.SeedSequence(8, spawn_key=(0,))
    )
    assert not np.array_equal(pa.times, pc.times)


def test_one_seed_sequence_passed_twice_gives_equal_draws():
    # spawning the two trains' streams must not advance the caller's object
    seq = np.random.SeedSequence(5, spawn_key=(2,))
    first = pw.make_dataset(pw.DatasetId("Data_30r"), 2.0, seq)
    second = pw.make_dataset(pw.DatasetId("Data_30r"), 2.0, seq)
    assert seq.n_children_spawned == 0
    for a, b in zip(first, second):
        assert np.array_equal(a.times, b.times)


def test_poisson_mean_monte_carlo():
    # rate 50 on [0; 2]: mean count over 10^4 seeds within 3 SE of 100
    counts = [
        pw.sim_homogeneous_poisson(
            50.0, pw.Window(0.0, 2.0), np.random.SeedSequence(11, spawn_key=(r,))
        ).count()
        for r in range(10_000)
    ]
    se = np.std(counts, ddof=1) / np.sqrt(len(counts))
    assert abs(np.mean(counts) - 100.0) <= 3 * se


def test_child_process_mean_monte_carlo():
    # mu_c=20, T=2, 100 fixed parents, theta=80, nu=0:
    # E[count] = 20*4 + 100*80*0.01 = 160
    rng = np.random.default_rng(5)
    parents = pw.EventTrain(np.sort(rng.uniform(0, 2, 100)), pw.Window(0.0, 2.0))
    model = pw.InteractionModel(mu_p=50, mu_c=20, theta=80, nu=0.0, T=2.0)
    counts = [
        pw.sim_child_process(
            parents, model, seed=np.random.SeedSequence(13, spawn_key=(r,))
        ).count()
        for r in range(10_000)
    ]
    se = np.std(counts, ddof=1) / np.sqrt(len(counts))
    assert abs(np.mean(counts) - 160.0) <= 3 * se


def test_child_support_constraint():
    # mu_c=0, one parent at 1, theta=100, nu=0.005: children in [1.005; 1.01]
    parents = pw.EventTrain(np.array([1.0]), pw.Window(0.0, 2.0))
    model = pw.InteractionModel(mu_p=50, mu_c=0, theta=100, nu=0.005, T=2.0)
    kids = pw.sim_child_process(
        parents, model, seed=np.random.SeedSequence(2, spawn_key=(0,))
    )
    assert kids.count() > 0
    assert np.all(kids.times >= 1.005) and np.all(kids.times <= 1.01)


def test_child_process_input_validation():
    parents = pw.EventTrain(np.array([2.5]), pw.Window(0.0, 3.0))
    model = pw.InteractionModel(mu_p=50, mu_c=20, theta=0, nu=0.0, T=2.0)
    with pytest.raises(ValueError):
        pw.sim_child_process(
            parents, model, seed=np.random.SeedSequence(0, spawn_key=(0,))
        )  # parent beyond T
    inside = pw.EventTrain(np.array([1.5]), pw.Window(0.0, 2.0))
    with pytest.raises(TypeError):
        pw.sim_child_process(inside, model)  # the seed is required


def test_dataset_catalog():
    assert len(pw.DATASET_NAMES) == 9
    assert pw.DatasetId("Data_80").theta == 80 and pw.DatasetId("Data_80").nu == 0
    assert pw.DatasetId("Data_50r").nu == 0.005
    model = pw.DatasetId("Data_0").model(2.0)
    assert (model.mu_p, model.mu_c, model.b_support) == (PARENT_RATE, ORPHAN_RATE, 0.01)
    with pytest.raises(ValueError):
        pw.DatasetId("Data_99")
    for bad in (True, "2"):  # not T=1, not a bare TypeError
        with pytest.raises(ValueError, match="T must be a number"):
            pw.make_dataset(pw.DatasetId("Data_0"), bad, 1)


def test_data0_child_count_poisson():
    # under the null the child count is Poisson(mu_c * (T + 2))
    R, T = 3000, 2.0
    counts = np.array(
        [
            pw.make_dataset(
                pw.DatasetId("Data_0"), T, np.random.SeedSequence(21, spawn_key=(r,))
            )[1].count()
            for r in range(R)
        ]
    )
    lam = ORPHAN_RATE * (T + 2.0)
    edges = np.arange(50, 115, 5)
    observed, _ = np.histogram(counts, np.concatenate([[0], edges, [10_000]]))
    probs = np.diff(
        np.concatenate([[0.0], stats.poisson.cdf(edges - 1, lam), [1.0]])
    )
    res = stats.chisquare(observed, probs * R)
    assert res.pvalue > 0.01


def test_parents_uniform_given_count():
    # pooled parent times over many replicates against the uniform law
    rng_times = []
    r = 0
    while sum(len(x) for x in rng_times) < 10_000:
        parents, _ = pw.make_dataset(
            pw.DatasetId("Data_0"), 2.0, np.random.SeedSequence(31, spawn_key=(r,))
        )
        rng_times.append(parents.times)
        r += 1
    pooled = np.concatenate(rng_times)
    res = stats.kstest(pooled / 2.0, "uniform")
    assert res.pvalue > 0.01


def test_reproduction_gaps_within_kernel_support():
    # parents far apart so each child has an unambiguous generating parent;
    # with no orphans every gap must land in [nu; b]
    parents = pw.EventTrain(np.array([0.1, 0.7, 1.3, 1.9]), pw.Window(0.0, 2.0))
    model = pw.InteractionModel(mu_p=50, mu_c=0, theta=400, nu=0.005, T=2.0)
    kids = pw.sim_child_process(
        parents, model, seed=np.random.SeedSequence(42, spawn_key=(0,))
    )
    assert kids.count() > 0
    gaps = kids.times[:, None] - parents.times[None, :]
    gaps = np.where(gaps >= 0, gaps, np.inf).min(axis=1)
    assert np.all((gaps >= 0.005) & (gaps <= 0.01))


def test_data0_children_marginally_poisson_rate():
    _, children = pw.make_dataset(
        pw.DatasetId("Data_0"), 2.0, np.random.SeedSequence(51, spawn_key=(0,))
    )
    assert children.window == pw.Window(-1.0, 3.0)


def test_data80_expected_child_count():
    # E[#children] = 20*4 + E[n]*0.8 = 160 with n ~ Poisson(100)
    counts = np.array(
        [
            pw.make_dataset(
                pw.DatasetId("Data_80"), 2.0, np.random.SeedSequence(61, spawn_key=(r,))
            )[1].count()
            for r in range(4000)
        ]
    )
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    assert abs(counts.mean() - 160.0) <= 3 * se


_PARENTS = pw.EventTrain(np.array([0.2, 1.0, 1.7]), pw.Window(0.0, 2.0))
_DATA80 = pw.make_dataset(pw.DatasetId("Data_80"), 1.0, 3)

# Each seeded entry point, reduced to an array that its seed determines.
SEEDED = {
    "sim_homogeneous_poisson": lambda seed: pw.sim_homogeneous_poisson(
        50.0, pw.Window(0.0, 2.0), seed
    ).times,
    "sim_child_process": lambda seed: pw.sim_child_process(
        _PARENTS, pw.DatasetId("Data_80").model(2.0), seed
    ).times,
    "make_dataset": lambda seed: np.concatenate(
        [t.times for t in pw.make_dataset(pw.DatasetId("Data_30r"), 2.0, seed)]
    ),
    "simulate_null_stats": lambda seed: pw.simulate_null_stats(
        _PARENTS, 5, pw.IndexSet(2), 4, pw.Window(-1.0, 3.0), seed
    ).stats,
    "run_multiple_test": lambda seed: pw.run_multiple_test(
        *_DATA80, pw.TestConfig(B=20), seed
    ).thresholds,
}


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED.keys())
def test_every_seeded_call_takes_int_sequence_or_generator(call):
    # one seed rule: s, SeedSequence(s) and default_rng(s) give the same draws,
    # and None (OS entropy) and bools (True is not the seed 1) are refused
    expected = call(5)
    assert np.array_equal(call(np.random.SeedSequence(5)), expected)
    assert np.array_equal(call(np.random.default_rng(5)), expected)
    for bad in (None, True):
        with pytest.raises(TypeError):
            call(bad)
