import contextlib
import dataclasses
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ppwave as pw
from ppwave import coefficients
from ppwave.coefficients import NoParentsError
from ppwave.process import PairTable


def train(times, lo, hi):
    return pw.EventTrain(np.asarray(times, dtype=float), pw.Window(lo, hi))


def scaled_inputs(name, T, seed=7):
    """(scaled parents, kept children, analysis window) of one dataset draw."""
    parents, children = pw.make_dataset(pw.DatasetId(name), T, seed)
    return pw.scale_clip(parents, children, 50.0)


def scaled_data80_coefficients(seed, replicates, idx, dataset="Data_80", T=2.0):
    out = np.empty((replicates, idx.size))
    for r in range(replicates):
        parents, children = pw.make_dataset(
            pw.DatasetId(dataset), T, np.random.SeedSequence(seed, spawn_key=(r,))
        )
        sp = pw.scale_train(parents, 50.0)
        sc = pw.scale_train(children, 50.0)
        hi = sp.window.hi + 1.0
        keep = (sc.times >= -1.0) & (sc.times <= hi)
        observed = pw.EventTrain(sc.times[keep], pw.Window(-1.0, hi))
        out[r] = pw.estimate_coefficients(sp, observed, idx).beta_hat
    return out


def step_kernel_coefficients(idx, theta, nu, scale=50.0):
    """Analytic overlap of the scaled step kernel with each wavelet."""
    height = theta / scale
    lo, hi = nu * scale, 0.01 * scale
    return np.array(
        [
            height
            * (pw.haar_tent(ix.j, ix.k, hi) - pw.haar_tent(ix.j, ix.k, lo))
            for ix in idx.indices
        ]
    )


def test_empty_children_gives_zero():
    parents = train([0.3, 1.2], 0.0, 2.0)
    coef = pw.estimate_coefficients(parents, train([], -1.0, 3.0), pw.IndexSet(3))
    assert np.all(coef.beta_hat == 0.0)
    assert np.all(coef.t_stat == 0.0)


def test_single_parent_has_no_correction():
    # with n=1 the correction weight (n-1)/n vanishes
    parents = train([0.0], 0.0, 7.0)
    children = train([0.75], -1.0, 8.0)
    idx = pw.IndexSet(3)
    coef = pw.estimate_coefficients(parents, children, idx)
    assert coef.beta_hat[idx.position(pw.WaveletIndex(0, 0))] == 1.0


def test_no_parents_error():
    with pytest.raises(NoParentsError):
        pw.estimate_coefficients(
            train([], 0.0, 2.0), train([0.5], -1.0, 3.0), pw.IndexSet(2)
        )


def test_parent_window_must_start_at_zero():
    with pytest.raises(ValueError):
        pw.estimate_coefficients(
            train([0.7], 0.5, 2.0), train([0.5], -1.0, 3.0), pw.IndexSet(2)
        )


def test_t_stat_is_absolute_value():
    parents = train([0.0, 0.4, 1.1], 0.0, 2.0)
    children = train([0.2, 0.3, 0.9], -1.0, 3.0)
    coef = pw.estimate_coefficients(parents, children, pw.IndexSet(3))
    assert np.array_equal(coef.t_stat, np.abs(coef.beta_hat))
    assert [f.name for f in dataclasses.fields(coef)] == ["index_set", "beta_hat"]


def test_relabeling_invariance():
    # the estimate depends on the event sets only: shuffling before sorting
    # reproduces the same trains and the same statistics bit-for-bit
    rng = np.random.default_rng(3)
    par = np.sort(rng.uniform(0, 2, 40))
    chi = np.sort(rng.uniform(-1, 3, 60))
    idx = pw.IndexSet(3)
    a = pw.estimate_coefficients(
        train(par, 0.0, 2.0), train(chi, -1.0, 3.0), idx
    ).beta_hat
    b = pw.estimate_coefficients(
        train(np.sort(par[rng.permutation(40)]), 0.0, 2.0),
        train(np.sort(chi[rng.permutation(60)]), -1.0, 3.0),
        idx,
    ).beta_hat
    assert np.array_equal(a, b)


def test_analytic_coefficients_against_quadrature():
    from scipy.integrate import quad

    idx = pw.IndexSet(3)
    for theta, nu in ((80.0, 0.0), (50.0, 0.005)):
        closed = step_kernel_coefficients(idx, theta, nu)
        lo, hi = nu * 50.0, 0.5
        for pos, ix in enumerate(idx.indices):
            val, _ = quad(
                lambda x: (theta / 50.0) * pw.haar_eval(ix, x),
                lo,
                hi,
                points=[p for p in np.arange(-1, 1.01, 0.0625) if lo < p < hi],
                limit=300,
            )
            assert closed[pos] == pytest.approx(val, abs=1e-10)


def test_unbiasedness_desk_scale():
    # scaled Data_80: only (0, 0) carries signal, beta = -0.8
    idx = pw.IndexSet(3)
    target = step_kernel_coefficients(idx, 80.0, 0.0)
    assert target[idx.position(pw.WaveletIndex(0, 0))] == pytest.approx(-0.8)
    assert np.count_nonzero(target) == 1

    R = 2500
    draws = scaled_data80_coefficients(777, R, idx)
    se = draws.std(axis=0, ddof=1) / np.sqrt(R)
    assert np.all(np.abs(draws.mean(axis=0) - target) <= 3 * se)


def test_mean_zero_under_null():
    idx = pw.IndexSet(3)
    R = 1500
    draws = scaled_data80_coefficients(202, R, idx, dataset="Data_0")
    se = draws.std(axis=0, ddof=1) / np.sqrt(R)
    assert np.all(np.abs(draws.mean(axis=0)) <= 3 * se)


def near_slot_boundaries(rng, parents, shape, j0):
    """Draws at u + g 2^-(j0+1) for random parents u, some one ulp to either side."""
    g = rng.integers(-(2 ** (j0 + 1)), 2 ** (j0 + 1) + 1, shape)
    x = rng.choice(parents, shape) + np.ldexp(g.astype(np.float64), -(j0 + 1))
    return np.nextafter(x, x + rng.integers(-1, 2, shape))


@given(
    st.lists(st.floats(0.0, 6.0), min_size=1, max_size=12),
    st.integers(0, 9),
    st.integers(0, 8),
    st.integers(0, 3),
    st.sampled_from([pw.TWO_SIDED, pw.NONNEG]),
    st.integers(1, 16),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_matrix_rows_equal_one_row_calls(par, rows, m, j0, side, block, seed):
    # the B-row null kernel, walked in row blocks of any size, and the one-row
    # observed call agree bit for bit, on unsorted rows and on draws at or one
    # ulp beside a dyadic slot boundary
    parents = train(np.sort(par), 0.0, 6.0)
    idx = pw.IndexSet(j0, side)
    rng = np.random.default_rng(seed)
    samples = np.where(
        rng.random((rows, m)) < 0.5,
        rng.uniform(-1.5, 7.5, size=(rows, m)),
        near_slot_boundaries(rng, parents.times, (rows, m), j0),
    )
    with mock.patch.object(coefficients, "_BLOCK_SIZE", block):
        batch = pw.coefficient_matrix(parents, samples, idx)
        sorted_batch = pw.coefficient_matrix(parents, np.sort(samples, axis=1), idx)
    assert batch.shape == sorted_batch.shape == (rows, idx.size)
    for b in range(rows):
        one = pw.coefficient_matrix(parents, samples[b][None, :], idx)[0]
        assert np.array_equal(batch[b], one)
        # the correction sums in row order, so estimate_coefficients (sorted
        # times) is the one-row call on the sorted row
        coef = pw.estimate_coefficients(
            parents, train(np.sort(samples[b]), -1.5, 7.5), idx
        )
        assert np.array_equal(sorted_batch[b], coef.beta_hat)


def correction_samples(rng, T, rows, m, j0):
    """(rows, m) times, half uniform on [-1.5; T + 1.5], half on a dyadic
    point of level j0 + 1 or such a point + T, at random moved by one ulp."""
    g = rng.integers(-(2 ** (j0 + 1)), 2 ** (j0 + 1) + 1, (rows, m))
    g = np.ldexp(g.astype(np.float64), -(j0 + 1))
    dyadic = np.where(rng.random((rows, m)) < 0.5, g, g + T)
    dyadic = np.nextafter(dyadic, dyadic + rng.integers(-1, 2, (rows, m)))
    return np.where(
        rng.random((rows, m)) < 0.5, rng.uniform(-1.5, T + 1.5, (rows, m)), dyadic
    )


CORRECTION_HORIZONS = st.sampled_from([2.0**-9, 0.003, 2.0**-5, 0.1, 0.75, 3.0])


@given(
    CORRECTION_HORIZONS,
    st.integers(0, 6),
    st.integers(0, 8),
    st.integers(0, 4),
    st.sampled_from([pw.TWO_SIDED, pw.NONNEG]),
    st.integers(1, 16),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_correction_matches_per_index_sums(T, rows, m, j0, side, block, seed):
    # the kernel's shift-mean correction matches one uniform_shift_mean +
    # bincount column per index to within a few ulp of the term scale 1/T
    # per value; short horizons (T < 2^-j0) make x and x - T meet one
    # support, where the kernel adds their terms apart, and draws on dyadic
    # points or at a dyadic point + T hit the tent corners
    rng = np.random.default_rng(seed)
    parents = train(np.sort(rng.uniform(0.0, T, rng.integers(1, 6))), 0.0, T)
    idx = pw.IndexSet(j0, side)
    samples = correction_samples(rng, T, rows, m, j0)
    n = parents.count()
    row_of = np.repeat(np.arange(rows), m)
    correction = np.stack(
        [
            np.bincount(row_of, pw.uniform_shift_mean(ix, samples.ravel(), T), rows)
            for ix in idx.indices
        ],
        axis=1,
    )
    raw = np.array(
        [
            pw.pair_cascade(train(np.sort(r), -2.0, T + 2.0), parents, idx)
            for r in samples
        ]
    ).reshape(rows, idx.size)
    with mock.patch.object(coefficients, "_BLOCK_SIZE", block):
        beta = pw.coefficient_matrix(parents, samples, idx)
    ref = (raw - (n - 1) * correction) / n
    assert np.all(np.abs(beta - ref) <= 8 * np.finfo(float).eps * max(m, 1) / T)


def clipped_shift_mean_sums(T, idx, block):
    """The correction's sums with both terms of every value at every level.

    Each term x or x - T is clipped to the family's support [lo; 1] and its
    k capped at 2^j - 1, so the terms outside the support are signed zeros;
    they are binned with the rest in the kernel's order: level, then value,
    then x before x - T. block is in units of 2^-(j0+1).
    """
    n_rows, m = block.shape
    j = np.arange(idx.j0 + 1, dtype=np.int32)[:, None, None]
    x = np.ldexp(block.ravel(), -(idx.j0 + 1))
    t = np.clip(np.stack([x, x - T], axis=1), idx.k_range(0).start, 1.0)
    y = np.ldexp(t, j)
    k = np.minimum(np.floor(y), 2**j - 1)
    y -= k
    keys = (k + np.array(idx.offsets)[:, None, None]).astype(np.intp)
    keys += (np.arange(block.size) // m * idx.size)[:, None]
    terms = np.minimum(y, 1.0 - y) * -(2.0 ** (-0.5 * j)) / np.array([T, -T])
    out = np.bincount(keys.ravel(), terms.ravel(), n_rows * idx.size)
    return out.reshape(n_rows, idx.size)


@given(
    CORRECTION_HORIZONS,
    st.integers(0, 6),
    st.integers(0, 8),
    st.integers(0, 4),
    st.sampled_from([pw.TWO_SIDED, pw.NONNEG]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_correction_keeps_the_bits_of_the_clipped_formula(T, rows, m, j0, side, seed):
    # the kernel bins only the live terms, inside the support: the others
    # are signed zeros, which change no bit of a bincount sum, and the live
    # ones keep their order, so the sums equal the clipped formula's bit for
    # bit on the inputs of the per-index test above
    rng = np.random.default_rng(seed)
    idx = pw.IndexSet(j0, side)
    block = correction_samples(rng, T, rows, m, j0) * 2.0 ** (j0 + 1)
    got = coefficients._shift_mean_sums(T, idx)(block)
    assert got.tobytes() == clipped_shift_mean_sums(T, idx, block).tobytes()


@pytest.mark.parametrize("j0", [3, 6])
def test_multi_row_blocks_equal_one_row_calls(j0):
    # at the default block size a block holds many rows (275 at j0=3 and 63
    # at j0=6 for m=119), and each row's estimates are still the bits of its
    # one-row call; a third of the draws sit near the window ends, where the
    # shift-mean correction is nonzero
    parents, children = pw.make_dataset(pw.DatasetId("Data_80"), 2.0, 7)
    sp, observed, window = pw.scale_clip(parents, children, 50.0)
    idx = pw.IndexSet(j0)
    rng = np.random.default_rng(j0)
    draws = rng.uniform(window.lo, window.hi, size=(300, observed.count()))
    draws[:, :20] = rng.uniform(window.lo, window.lo + 2.0, (300, 20))
    draws[:, 20:40] = rng.uniform(window.hi - 2.0, window.hi, (300, 20))
    batch = pw.coefficient_matrix(sp, draws, idx)
    for b in range(0, 300, 3):
        one = pw.coefficient_matrix(sp, draws[b][None, :], idx)[0]
        assert np.array_equal(batch[b], one)


@pytest.mark.parametrize("j0", [3, 6])
def test_kernel_memory_flat_in_rows(j0):
    # beyond its (rows, |idx|) output, the kernel's traced memory is bounded
    # by its row block, not by the number of rows; the null kernel draws each
    # block just before using it, so its memory beyond the (B, |idx|)
    # statistics does not grow with m either (at T=10, m=595, the (B, m)
    # draws alone would be 95 MB)
    idx = pw.IndexSet(j0)

    def traced_peak(call):
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - getattr(out, "stats", out).nbytes

    kept = {}
    for T in (2.0, 10.0):
        sp, observed, window = scaled_inputs("Data_80", T)
        m = observed.count()
        for B in (2000, 20000):
            with mock.patch.object(coefficients, "_WORKSPACES", []) as workspaces:
                null = traced_peak(
                    lambda: pw.simulate_null_stats(sp, m, idx, B, window, B)
                )
            assert null < 16 * 2**20
            kept[T, B] = sum(a.nbytes for a in workspaces[0].values())
            if T == 2.0:
                draws = np.random.default_rng(B).uniform(window.lo, window.hi, (B, m))
                beyond = traced_peak(lambda: pw.coefficient_matrix(sp, draws, idx))
                assert beyond < 16 * 2**20
    # the workspace kept after a call holds one block's buffers: the same for
    # B = 2000 and 20000, and a few MiB for m = 119 and 595
    for T in (2.0, 10.0):
        assert kept[T, 20000] <= 1.25 * kept[T, 2000]
        assert kept[T, 2000] <= 1.25 * kept[T, 20000]
    assert max(kept.values()) < 8 * 2**20


@given(
    st.sampled_from([0, 1, 2, 7, 40]),
    st.integers(1, 30),
    st.integers(0, 3),
    st.sampled_from([pw.TWO_SIDED, pw.NONNEG]),
    st.sampled_from([1, 16, 100, 300, 2**15]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_null_stats_are_the_uniform_matrix_statistics(m, half, j0, side, block, seed):
    # the null kernel draws block by block, in row order, into one buffer;
    # its statistics are the bits of one (B, m) uniform draw through
    # coefficient_matrix, for m = 0 and 1, for row counts that are not a
    # multiple of the block's rows, and for blocks of one to many rows
    parents, children = pw.make_dataset(pw.DatasetId("Data_80"), 1.0, seed % 97)
    sp, _, window = pw.scale_clip(parents, children, 50.0)
    assume(sp.count() > 0)
    idx = pw.IndexSet(j0, side)
    B = 2 * half
    with mock.patch.object(coefficients, "_BLOCK_SIZE", block):
        nulls = pw.simulate_null_stats(sp, m, idx, B, window, seed)
    draws = pw.as_generator(seed).uniform(window.lo, window.hi, (B, m))
    expected = np.abs(pw.coefficient_matrix(sp, draws, idx))
    assert nulls.stats.tobytes() == expected.tobytes()


@pytest.mark.parametrize("j0", [3, 6])
def test_null_stats_match_the_uniform_matrix_at_the_default_block(j0):
    # B = 2000 is not a multiple of the 275 (j0=3) or 63 (j0=6) rows of a
    # default block at m = 119
    parents, children = pw.make_dataset(pw.DatasetId("Data_80"), 2.0, 7)
    sp, observed, window = pw.scale_clip(parents, children, 50.0)
    m, idx = observed.count(), pw.IndexSet(j0)
    nulls = pw.simulate_null_stats(sp, m, idx, 2000, window, 5)
    draws = pw.as_generator(5).uniform(window.lo, window.hi, (2000, m))
    expected = np.abs(pw.coefficient_matrix(sp, draws, idx))
    assert nulls.stats.tobytes() == expected.tobytes()


@pytest.mark.parametrize("j0", [3, 7])
def test_drawn_rows_are_the_uniform_draws_in_kernel_units(j0):
    # one call of given rows, then drawn ones, on a window far from zero,
    # [-1; 10^4 + 1]: the given rows are their own call's bits, the drawn
    # rows those of gen.uniform's (draws, m) matrix given as rows, and of
    # simulate_null_stats on the same generator, which gen ends where that
    # draw leaves it. A kernel that scaled only lo, or only the width, of
    # its draws into kernel units would place them apart from uniform's
    T = 1e4
    rng = np.random.default_rng(j0)
    parents = train(np.sort(rng.uniform(0.0, T, 4000)), 0.0, T)
    window = pw.conditioning_window(T, 1.0)
    idx, m, draws = pw.IndexSet(j0), 40, 300
    given_rows = rng.uniform(window.lo, window.hi, (5, m))
    gen = np.random.default_rng(11)
    rows = pw.coefficient_matrix(
        parents, given_rows, idx, draws=draws, window=window, gen=gen
    )
    assert rows.shape == (5 + draws, idx.size)
    own = pw.coefficient_matrix(parents, given_rows, idx)
    assert rows[:5].tobytes() == own.tobytes()
    reference = np.random.default_rng(11)
    uniform = reference.uniform(window.lo, window.hi, (draws, m))
    assert gen.bit_generator.state == reference.bit_generator.state
    drawn = pw.coefficient_matrix(parents, uniform, idx)
    assert rows[5:].tobytes() == drawn.tobytes()
    assert np.all(np.any(drawn != 0.0, axis=1))  # every row meets parents
    nulls = pw.simulate_null_stats(parents, m, idx, draws, window, 11)
    assert np.abs(rows[5:]).tobytes() == nulls.stats.tobytes()


@contextlib.contextmanager
def counted_workers():
    """Records the worker count of each kernel call made inside the block."""
    counts = []
    rule = coefficients._workers

    def workers(*args):
        counts.append(rule(*args))
        return counts[-1]

    with mock.patch.object(coefficients, "_workers", workers):
        yield counts


# A kernel call that takes helpers on four CPUs: B=20000 rows of m=119 at
# j0=3, 73 blocks of 275 rows.
HELPER_GEOMETRY = (20000, 275, 119, np.zeros((65, 30)))


def workers_on_four_cpus(geometry):
    with mock.patch.object(coefficients, "available_cpus", lambda: 4):
        return coefficients._workers(*geometry)


def test_main_process_with_multiprocessing_loaded_takes_helpers():
    # multiprocessing is loaded, but this process is no pool's
    import multiprocessing  # noqa: F401

    assert workers_on_four_cpus(HELPER_GEOMETRY) == 4


def test_any_process_pool_runs_the_kernel_on_one_thread():
    # a pool's processes fill the CPUs, so the kernel recognises one by
    # itself: this pool sets no initializer
    with ProcessPoolExecutor(1) as pool:
        assert pool.submit(workers_on_four_cpus, HELPER_GEOMETRY).result(60) == 1


def test_a_test_is_one_kernel_call_of_b_plus_one_rows():
    # an informative run_multiple_test or run_single_test makes one kernel
    # call, of the observed row and the B null rows; a test without
    # information makes none. The outcome's beta_hat owns its data, so it
    # does not keep the (B + 1, |idx|) estimates alive
    parents, children = pw.make_dataset(pw.DatasetId("Data_80"), 2.0, 7)
    no_parents, no_children = train([], 0.0, 2.0), train([], -1.0, 3.0)
    cfg, ix = pw.TestConfig(B=200), pw.WaveletIndex(0, 0)
    rows, rule = [], coefficients._workers

    def workers(n_rows, *args):
        rows.append(n_rows)
        return rule(n_rows, *args)

    with mock.patch.object(coefficients, "_workers", workers):
        outcome = pw.run_multiple_test(parents, children, cfg, seed=1)
        assert rows == [cfg.B + 1]
        pw.run_single_test(ix, parents, children, cfg, seed=1)
        assert rows == [cfg.B + 1] * 2
        for p, c in ((no_parents, children), (parents, no_children)):
            assert pw.run_multiple_test(p, c, cfg, seed=1).no_information
            assert not pw.run_single_test(ix, p, c, cfg, seed=1)
        assert rows == [cfg.B + 1] * 2
    assert not outcome.no_information
    assert outcome.beta_hat.base is None


def test_kept_workspace_gives_the_bits_of_a_fresh_one():
    # one kept workspace serves a sequence of kernel calls whose parents, m
    # (0 to 595), j0, side, B and block size change, small calls following
    # large ones; each call equals, bit for bit, the same call made on a
    # fresh workspace, so nothing a call leaves in the buffers reaches the next
    data = {T: scaled_inputs("Data_80", T) for T in (1.0, 2.0, 10.0)}
    calls = (  # T, m (None: the observed count), j0, side, B, block size
        (10.0, None, 3, pw.TWO_SIDED, 2000, 2**15),
        (2.0, None, 6, pw.TWO_SIDED, 600, 2**15),
        (1.0, 0, 3, pw.TWO_SIDED, 20, 2**15),
        (2.0, 1, 0, pw.NONNEG, 40, 16),
        (10.0, None, 6, pw.NONNEG, 300, 2**15),
        (1.0, 7, 2, pw.TWO_SIDED, 100, 100),
        (2.0, None, 3, pw.TWO_SIDED, 2000, 2**15),
        (10.0, 2, 1, pw.NONNEG, 2, 2**12),
        (2.0, None, 3, pw.TWO_SIDED, 2000, 2**12),
    )

    def kernel_calls(T, m, j0, side, B):
        sp, observed, window = data[T]
        m = observed.count() if m is None else m
        idx = pw.IndexSet(j0, side)
        null = pw.simulate_null_stats(sp, m, idx, B, window, B + j0).stats
        return null, pw.estimate_coefficients(sp, observed, idx).beta_hat

    with counted_workers() as workers:
        with mock.patch.object(coefficients, "_WORKSPACES", []) as workspaces:
            for T, m, j0, side, B, block in calls:
                with mock.patch.object(coefficients, "_BLOCK_SIZE", block):
                    kept = kernel_calls(T, m, j0, side, B)
                    with mock.patch.object(coefficients, "_WORKSPACES", []):
                        fresh = kernel_calls(T, m, j0, side, B)
                for got, want in zip(kept, fresh):
                    assert got.tobytes() == want.tobytes()
    # one workspace per worker served every call
    assert 1 <= len(workspaces) <= max(workers)


def test_concurrent_calls_take_their_own_workspace():
    # three threads running the null kernel together and switching often
    # give the sequential results: each call takes a workspace of its own
    # from the free list
    jobs = [
        [("Data_80", 2.0, B, seed) for B, seed in ((2000, 1), (600, 2), (2000, 3))],
        [("Data_0", 10.0, B, seed) for B, seed in ((600, 4), (2000, 5), (200, 6))],
        [("Data_80", 2.0, B, seed) for B, seed in ((200, 7), (2000, 8), (600, 9))],
    ]
    data = {key: scaled_inputs(*key) for key in (("Data_80", 2.0), ("Data_0", 10.0))}
    idx = pw.IndexSet(3)

    def run(job, barrier=None):
        if barrier is not None:
            barrier.wait(timeout=60)
        out = []
        for name, T, B, seed in job:
            sp, observed, window = data[name, T]
            nulls = pw.simulate_null_stats(sp, observed.count(), idx, B, window, seed)
            out.append(nulls.stats)
        return out

    expected = [run(job) for job in jobs]
    barrier = threading.Barrier(len(jobs))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with counted_workers() as workers:
            with mock.patch.object(coefficients, "_WORKSPACES", []) as workspaces:
                with ThreadPoolExecutor(len(jobs)) as pool:
                    futures = [pool.submit(run, job, barrier) for job in jobs]
                    results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    # at most one per worker of each concurrent call
    assert 1 <= len(workspaces) <= len(jobs) * max(workers)
    for got, want in zip(results, expected):
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


@given(
    st.integers(1, 3),
    st.integers(1, 2**15),
    st.integers(1, 400),
    st.integers(0, 130),
    st.integers(0, 3),
    st.sampled_from([pw.TWO_SIDED, pw.NONNEG]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_statistics_identical_for_any_worker_count(
    workers, block, half, m, j0, side, seed
):
    # the workers draw each block under one lock, in row order, and write
    # their own rows, so 1 to 3 workers give the bits of one, for blocks of
    # one row to 2^15 entries and row counts that are not a multiple of them
    sp, _, window = scaled_inputs("Data_80", 1.0, seed % 97)
    assume(sp.count() > 0)
    idx = pw.IndexSet(j0, side)
    stats = {}
    with mock.patch.object(coefficients, "_BLOCK_SIZE", block):
        for count in (1, workers):
            with mock.patch.object(coefficients, "_workers", lambda *args: count):
                nulls = pw.simulate_null_stats(sp, m, idx, 2 * half, window, seed)
            stats[count] = nulls.stats.tobytes()
    assert stats[workers] == stats[1]


class SlowGenerator(np.random.Generator):
    """A Generator that sleeps before each draw, so unlocked draws interleave."""

    def random(self, *args, **kwargs):
        time.sleep(1e-3)
        return super().random(*args, **kwargs)


def test_user_generator_ends_where_one_worker_leaves_it():
    # three workers on two or fewer CPUs, switching often, take the same
    # draws from a caller's Generator as one worker: same statistics, same
    # state afterwards
    sp, observed, window = scaled_inputs("Data_80", 2.0)
    m, idx = observed.count(), pw.IndexSet(3)
    after = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 3):
            gen = SlowGenerator(np.random.PCG64(11))
            with mock.patch.object(coefficients, "_workers", lambda *args: workers):
                stats = pw.simulate_null_stats(sp, m, idx, 2000, window, gen).stats
            after[workers] = stats.tobytes(), gen.bit_generator.state
    finally:
        sys.setswitchinterval(interval)
    assert after[3] == after[1]


def test_failed_block_stops_the_call_and_returns_every_workspace():
    # a NaN in a late row fails one worker's block: the caller raises the
    # ValueError once every helper has joined, and each worker's workspace
    # is back on the free list
    sp, observed, window = scaled_inputs("Data_80", 2.0)
    rng = np.random.default_rng(3)
    draws = rng.uniform(window.lo, window.hi, (2000, observed.count()))
    draws[1900, 5] = np.nan
    workspaces = [{}, {}, {}]
    with mock.patch.object(coefficients, "_WORKSPACES", list(workspaces)) as free:
        with mock.patch.object(coefficients, "_workers", lambda *args: 3):
            with pytest.raises(ValueError, match="finite"):
                pw.coefficient_matrix(sp, draws, pw.IndexSet(3))
    assert [t for t in threading.enumerate() if t.name == "ppwave-kernel"] == []
    assert sorted(map(id, free)) == sorted(map(id, workspaces))


def test_public_pair_results_outlive_kernel_calls():
    # a lookup made with no allocator returns new arrays, not the kernel's
    # workspace buffers, so a later kernel call does not overwrite what it
    # returned, even when the workspace's buffers, sized by an earlier call,
    # would have held it
    sp, observed, window = scaled_inputs("Data_80", 2.0)
    m, idx = observed.count(), pw.IndexSet(3)
    pw.simulate_null_stats(sp, m, idx, 2000, window, 1)
    diffs, order, _ = PairTable(sp.times, 1.0).ranked(observed.times)
    saved = diffs.copy(), order.copy()
    pw.simulate_null_stats(sp, m, idx, 2000, window, 2)
    pw.estimate_coefficients(sp, observed, idx)
    assert np.array_equal(diffs, saved[0]) and np.array_equal(order, saved[1])


@pytest.mark.parametrize("name", ["Data_0", "Data_80"])
def test_repeated_call_allocates_only_its_statistics(name):
    # a second B=2000 call on the same inputs finds its cell-table and draw
    # buffers in the kept workspace: beyond the (B, |idx|) statistics it
    # allocates only the per-block temporaries
    sp, observed, window = scaled_inputs(name, 2.0)
    m, idx = observed.count(), pw.IndexSet(3)
    with mock.patch.object(coefficients, "_WORKSPACES", []):
        pw.simulate_null_stats(sp, m, idx, 2000, window, 1)
        tracemalloc.start()
        try:
            nulls = pw.simulate_null_stats(sp, m, idx, 2000, window, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= nulls.stats.nbytes + 2**20


@given(
    st.sampled_from(pw.DATASET_NAMES),
    st.sampled_from([1.0, 2.0]),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_index_column_independent_of_family(name, T, j0, seed):
    # an index's observed and null columns are the same bits in every
    # IndexSet containing it, whatever j0 and side
    parents, children = pw.make_dataset(pw.DatasetId(name), T, seed)
    sp, observed, window = pw.scale_clip(parents, children, 50.0)
    assume(sp.count() > 0)
    columns = {}
    for j in range(j0 + 1):
        for side in (pw.TWO_SIDED, pw.NONNEG):
            idx = pw.IndexSet(j, side)
            beta = pw.estimate_coefficients(sp, observed, idx).beta_hat
            nulls = pw.simulate_null_stats(sp, observed.count(), idx, 8, window, seed)
            for p, ix in enumerate(idx.indices):
                bits = beta[p].tobytes() + nulls.stats[:, p].tobytes()
                columns.setdefault(ix, set()).add(bits)
    assert all(len(found) == 1 for found in columns.values())


def test_matrix_requires_two_dimensional_samples():
    with pytest.raises(ValueError):
        pw.coefficient_matrix(
            train([0.5], 0.0, 1.0), np.array([0.2, 0.4]), pw.IndexSet(1)
        )


def test_matrix_rejects_non_finite_samples():
    parents = train([0.5], 0.0, 1.0)
    idx = pw.IndexSet(1)
    # a NaN row, a +inf row and a -inf row, one at a time and all together
    bad_rows = [[0.7, np.nan], [np.inf, 0.2], [0.3, -np.inf]]
    for bad in [[row] for row in bad_rows] + [bad_rows]:
        samples = np.array([[0.2, 0.7]] + bad)
        with pytest.raises(ValueError, match="finite"):
            pw.coefficient_matrix(parents, samples, idx)
