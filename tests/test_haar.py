import argparse
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import ppwave as pw
from ppwave import coefficients
from ppwave.cli import _seed
from ppwave.coefficients import _buffer, _pair_slot_counts, _slot_signs
from ppwave.haar import as_number
from ppwave.process import PairTable

SQRT2 = math.sqrt(2.0)


def wix(j, k):
    return pw.WaveletIndex(j, k)


def naive_pair_sums(child_times, parent_times, idx):
    """Independent oracle: direct per-pair evaluation, exact rounded total."""
    diffs = np.subtract.outer(np.asarray(child_times), np.asarray(parent_times))
    return np.array(
        [math.fsum(pw.haar_eval(ix, diffs).ravel().tolist()) for ix in idx.indices]
    )


def test_haar_eval_pointwise():
    assert pw.haar_eval(wix(0, 0), 0.75) == 1.0
    assert pw.haar_eval(wix(1, -1), -0.4) == -SQRT2
    assert pw.haar_eval(wix(2, 3), 0.95) == 2.0
    # half-open conventions: midpoint belongs to the negative half,
    # both outer endpoints carry a value
    assert pw.haar_eval(wix(0, 0), 0.5) == -1.0
    assert pw.haar_eval(wix(0, 0), 0.0) == -1.0
    assert pw.haar_eval(wix(0, 0), 1.0) == 1.0
    assert pw.haar_eval(wix(0, 0), 1.0000001) == 0.0
    assert pw.haar_eval(wix(0, 0), -1e-12) == 0.0


def test_haar_eval_amplitude_and_support():
    for j in range(5):
        for k in (-(2**j), 0, 2**j - 1):
            ix = wix(j, k)
            lo, hi = k * 2.0**-j, (k + 1) * 2.0**-j
            assert hi - lo == pytest.approx(2.0**-j)
            xs = np.linspace(lo, hi, 257)
            vals = pw.haar_eval(ix, xs)
            assert np.max(np.abs(vals)) == 2.0 ** (j / 2)
            assert pw.haar_eval(ix, lo - 1e-9) == 0.0
            assert pw.haar_eval(ix, hi + 1e-9) == 0.0


def test_antiderivative_values():
    assert pw.haar_tent(0, 0, 0.5) == -0.5
    assert pw.haar_tent(0, 0, 1.0) == 0.0
    assert pw.haar_tent(0, 0, -0.2) == 0.0
    # minimum at the midpoint: -2^(-j/2-1)
    for j, k in [(0, 0), (1, -1), (2, 1), (3, -5)]:
        mid = (2 * k + 1) * 2.0 ** -(j + 1)
        assert pw.haar_tent(j, k, mid) == pytest.approx(-(2.0 ** (-j / 2 - 1)), abs=0)


@pytest.mark.parametrize("j,k", [(2, 1), (0, 0), (1, -2), (3, 4)])
def test_antiderivative_matches_quadrature(j, k):
    ix = wix(j, k)
    lo, hi = k * 2.0**-j, (k + 1) * 2.0**-j
    mid = (2 * k + 1) * 2.0 ** -(j + 1)
    for t in np.linspace(lo - 0.1, hi + 0.1, 23):
        val, _ = quad(
            lambda x: pw.haar_eval(ix, x), lo - 0.2, t, points=[lo, mid, hi], limit=200
        )
        assert pw.haar_tent(ix.j, ix.k, t) == pytest.approx(val, abs=1e-10)


def test_zero_integral_exact_over_family():
    for ix in pw.IndexSet(3).indices:
        assert pw.haar_tent(ix.j, ix.k, (ix.k + 1) * 2.0**-ix.j) == 0.0


def test_uniform_shift_mean_basic():
    # support of phi(v - .) inside [0; T] integrates to zero
    assert pw.uniform_shift_mean(wix(0, 0), 5.0, 10.0) == 0.0
    assert pw.uniform_shift_mean(wix(0, 0), 0.5, 10.0) == -0.05
    with pytest.raises(ValueError):
        pw.uniform_shift_mean(wix(0, 0), 0.5, 0.0)
    for bad in (True, "2"):  # not T = 1, not a bare TypeError
        with pytest.raises(ValueError, match="T must be a number"):
            pw.uniform_shift_mean(wix(0, 0), 0.2, bad)


@pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_uniform_shift_mean_rejects_a_nonpositive_or_nonfinite_horizon(T):
    with pytest.raises(ValueError, match=r"T must be > 0 and finite, got "):
        pw.uniform_shift_mean(wix(0, 0), 0.3, T)


def test_as_number_states_the_setting_its_rule_and_the_value():
    cases = [
        ("T", math.nan, float, dict(gt=0), "T must be > 0 and finite, got nan"),
        ("alpha", 1.0, float, dict(gt=0, lt=1), "alpha must be > 0 and < 1 and finite, got 1.0"),
        ("p", 0.0, float, dict(gt=0, le=1), "p must be > 0 and <= 1 and finite, got 0.0"),
        ("lo", -math.inf, float, {}, "lo must be finite, got -inf"),
        ("T", 10**400, float, dict(gt=0), "T must be > 0 and finite, got inf"),
        ("workers", np.int64(0), int, dict(ge=1), "workers must be >= 1, got 0"),
        ("j0", True, int, dict(ge=0), "j0 must be an integer, got True"),
    ]
    for name, value, kind, bounds, message in cases:
        with pytest.raises(ValueError) as err:
            as_number(name, value, kind, **bounds)
        assert str(err.value) == message
    # a bound itself passes where it is inclusive, and the value comes back as kind
    for value, kind, bounds in ((0, float, dict(ge=0)), (np.float32(1.0), float, dict(le=1))):
        assert type(as_number("x", value, kind, **bounds)) is kind
    assert as_number("m", np.int32(0), int, ge=0) == 0


# Tiny trains and one small null matrix for the settings' call sites.
_PARENTS = pw.EventTrain(np.array([0.5, 1.0]), pw.Window(0.0, 2.0))
_CHILDREN = pw.EventTrain(np.array([0.6, 1.2]), pw.Window(-1.0, 3.0))
_NULLS = pw.simulate_null_stats(_PARENTS, 2, pw.IndexSet(1), 4, _CHILDREN.window, 0)
_TINY = 5e-324  # the least positive float: -_TINY lies just below a bound of 0

# Each numeric setting at its call site: (its name, its kind, the call with
# the value, a valid value, values just past its bounds). InteractionModel's
# six fields (test_process.py) and uniform_shift_mean's T (above) have their
# own tests.
NUMERIC_SETTINGS = {
    "TestConfig.alpha": ("alpha", float, lambda v: pw.TestConfig(alpha=v), 0.05, (0.0, 1.0)),
    "TestConfig.scale": ("scale", float, lambda v: pw.TestConfig(scale=v), 50.0, (0.0,)),
    "ExperimentConfig.T": ("T", float, lambda v: pw.ExperimentConfig(T=v), 2.0, (0.0,)),
    "ExperimentConfig.R": ("R", int, lambda v: pw.ExperimentConfig(R=v), 1, (0,)),
    "ExperimentConfig.master_seed": (
        "master_seed", int, lambda v: pw.ExperimentConfig(master_seed=v), 0, (-1,)
    ),
    "ExperimentConfig.workers": (
        "workers", int, lambda v: pw.ExperimentConfig(workers=v), 1, (0,)
    ),
    "Window.lo": ("lo", float, lambda v: pw.Window(v, 2.0), 0.0, ()),
    "Window.hi": ("hi", float, lambda v: pw.Window(-1.0, v), 2.0, ()),
    "WaveletIndex.j": ("j", int, lambda v: pw.WaveletIndex(v, 0), 0, (-1,)),
    "WaveletIndex.k": ("k", int, lambda v: pw.WaveletIndex(0, v), -1, ()),
    "IndexSet.j0": ("j0", int, lambda v: pw.IndexSet(v), 3, (-1,)),
    "scale_train.factor": (
        "factor", float, lambda v: pw.scale_train(_PARENTS, v), 50.0, (0.0,)
    ),
    # the scale is checked before it divides and before the window is built
    "conditioning_window.scale": (
        "scale", float, lambda v: pw.conditioning_window(2.0, v), 50.0, (0, 0.0, -1.0)
    ),
    "conditioning_window.T": (
        "T", float, lambda v: pw.conditioning_window(v, 50.0), 2.0, (0.0,)
    ),
    "scale_clip.scale": (
        "scale", float, lambda v: pw.scale_clip(_PARENTS, _CHILDREN, v), 50.0, (0.0,)
    ),
    "sim_homogeneous_poisson.rate": (
        "rate", float, lambda v: pw.sim_homogeneous_poisson(v, _CHILDREN.window, 0), 1.0,
        (-_TINY,),
    ),
    "simulate_null_stats.m": (
        "m", int,
        lambda v: pw.simulate_null_stats(_PARENTS, v, pw.IndexSet(1), 2, _CHILDREN.window, 0),
        2, (-1,),
    ),
    "coefficient_matrix.draws": (
        "draws", int,
        lambda v: pw.coefficient_matrix(
            _PARENTS, np.empty((0, 2)), pw.IndexSet(1),
            draws=v, window=_CHILDREN.window, seed=np.random.default_rng(0),
        ),
        2, (-1,),
    ),
    "empirical_quantile.p": (
        "p", float, lambda v: pw.empirical_quantile([0.0, 1.0], v), 0.5,
        (0.0, math.nextafter(1.0, 2.0)),
    ),
    "calibrate_u_alpha.alpha": (
        "alpha", float, lambda v: pw.calibrate_u_alpha(_NULLS, np.zeros(6), v), 0.05,
        (0.0, 1.0),
    ),
    "ks_test.alpha": (
        "alpha", float, lambda v: pw.ks_test(_CHILDREN, _CHILDREN.window, v), 0.05,
        (0.0, 1.0),
    ),
    "gaue_test.alpha": (
        "alpha", float, lambda v: pw.gaue_test(_PARENTS, _CHILDREN, 2.0, 0.01, v), 0.05,
        (0.0, 1.0),
    ),
    # T is checked before the delay that it bounds
    "gaue_test.T": (
        "T", float, lambda v: pw.gaue_test(_PARENTS, _CHILDREN, v, 0.01, 0.05), 2.0,
        (0.0, -1.0),
    ),
    "gaue_test.delta": (
        "delta", float, lambda v: pw.gaue_test(_PARENTS, _CHILDREN, 2.0, v, 0.05), 0.01,
        (0.0, 2.0),
    ),
    "gaue_grid.alpha": (
        "alpha", float, lambda v: pw.gaue_grid(_PARENTS, _CHILDREN, 2.0, v), 0.05,
        (0.0, 1.0),
    ),
    "gaue_grid.T": (
        "T", float, lambda v: pw.gaue_grid(_PARENTS, _CHILDREN, v, 0.05), 2.0, (0.0,)
    ),
    "cli --seed": ("--seed", int, lambda v: _seed(argparse.Namespace(seed=v)), 0, (-1,)),
}


@pytest.mark.parametrize(
    "name, kind, call, good, past", NUMERIC_SETTINGS.values(), ids=NUMERIC_SETTINGS.keys()
)
def test_each_numeric_setting_names_itself_when_invalid(name, kind, call, good, past):
    call(good)
    nonfinite = (math.nan, math.inf, -math.inf) if kind is float else ()
    for bad in nonfinite + past + (True, "1"):
        with pytest.raises(ValueError) as err:
            call(bad)
        assert str(err.value).startswith(f"{name} must be "), bad


@pytest.mark.parametrize("j,k,v,T", [(0, 0, 0.5, 10.0), (2, -3, -0.3, 4.0), (1, 1, 3.7, 3.5)])
def test_uniform_shift_mean_monte_carlo(j, k, v, T):
    rng = np.random.default_rng(17)
    u = rng.uniform(0.0, T, size=1_000_000)
    vals = pw.haar_eval(wix(j, k), v - u)
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    exact = pw.uniform_shift_mean(wix(j, k), v, T)
    assert abs(exact - vals.mean()) <= 4 * max(se, 1e-12)


def test_index_set_cardinalities():
    for j0 in range(5):
        assert pw.IndexSet(j0).size == 2 ** (j0 + 2) - 2
        assert pw.IndexSet(j0, pw.NONNEG).size == 2 ** (j0 + 1) - 1
    ids = pw.IndexSet(3)
    assert [ids.position(ix) for ix in ids.indices] == list(range(ids.size))
    for outside in (wix(3, 8), wix(3, -9), wix(4, 0)):
        with pytest.raises(ValueError, match=r"lies outside IndexSet\(j0=3"):
            ids.position(outside)
    assert pw.IndexSet(3, pw.NONNEG).size == 15  # the 15 single tests
    with pytest.raises(ValueError):
        pw.IndexSet(3, "sideways")
    for j0 in (1.0, 2.5, True):
        with pytest.raises(ValueError):
            pw.IndexSet(j0)
    assert pw.IndexSet(np.int64(3)).size == ids.size
    with pytest.raises(ValueError):
        pw.WaveletIndex(-1, 0)
    for j, k in ((0.5, 0), (True, 0), (0, 1.0), (0, "1")):
        with pytest.raises(ValueError, match="must be an integer"):
            pw.WaveletIndex(j, k)
    ix = pw.WaveletIndex(np.int64(2), np.int32(-1))
    assert type(ix.j) is int and type(ix.k) is int


@pytest.mark.parametrize("side", [pw.TWO_SIDED, pw.NONNEG])
def test_index_set_arithmetic_matches_the_enumeration(side):
    for j0 in range(11):
        idx = pw.IndexSet(j0, side)
        members = [wix(j, k) for j in range(j0 + 1) for k in idx.k_range(j)]
        assert type(idx.size) is int and idx.size == len(members)
        assert idx.js.tolist() == [ix.j for ix in members]
        assert idx.ks.tolist() == [ix.k for ix in members]
        assert [idx.position(ix) for ix in members] == list(range(len(members)))
        outside = [wix(j0 + 1, 0), (0, 0)]
        for j in range(j0 + 1):
            outside += [wix(j, 2**j), wix(j, idx.k_range(j).start - 1)]
        for index in outside:
            with pytest.raises(ValueError, match="lies outside"):
                idx.position(index)
        assert idx.indices == tuple(members)


def test_family_constants_leave_indices_unbuilt():
    for side in (pw.TWO_SIDED, pw.NONNEG):
        idx = pw.IndexSet(7, side)
        idx.js, idx.ks, idx.size, idx.position(wix(7, 5))
        with pytest.raises(ValueError):
            idx.position(wix(8, 0))
        assert "indices" not in vars(idx)


def test_pair_cascade_single_pair():
    children = pw.EventTrain(np.array([0.75]), pw.Window(-1.0, 3.0))
    parents = pw.EventTrain(np.array([0.0]), pw.Window(0.0, 2.0))
    idx = pw.IndexSet(3)
    sums = pw.pair_cascade(children, parents, idx)
    assert sums[idx.position(wix(0, 0))] == 1.0
    assert sums[idx.position(wix(1, 1))] == -SQRT2
    # 4*0.75 - 3 = 0 sits in the closed negative half of (2, 3)
    assert sums[idx.position(wix(2, 3))] == -2.0
    assert sums[idx.position(wix(2, 3))] == pw.haar_eval(wix(2, 3), 0.75)


def test_pair_cascade_disjoint_supports():
    children = pw.EventTrain(np.array([5.0, 6.0]), pw.Window(0.0, 10.0))
    parents = pw.EventTrain(np.array([0.0, 1.0]), pw.Window(0.0, 10.0))
    sums = pw.pair_cascade(children, parents, pw.IndexSet(3))
    assert np.all(sums == 0.0)


def test_pair_cascade_matches_naive_on_random_instances():
    rng = np.random.default_rng(23)
    idx = pw.IndexSet(3)
    for _ in range(25):
        n, m = rng.integers(1, 60, size=2)
        par = np.sort(rng.uniform(0, 5, n))
        chi = np.sort(rng.uniform(-1, 6, m))
        parents = pw.EventTrain(par, pw.Window(0.0, 5.0))
        children = pw.EventTrain(chi, pw.Window(-1.0, 6.0))
        fast = pw.pair_cascade(children, parents, idx)
        assert np.array_equal(fast, naive_pair_sums(chi, par, idx))


def test_pair_cascade_boundary_differences_exact():
    # differences placed exactly on k 2^-j and on the midpoints (2k+1) 2^-(j+1)
    parents = pw.EventTrain(np.array([0.0]), pw.Window(0.0, 2.0))
    pts = sorted(
        {k * 2.0**-j for j in range(5) for k in range(-16, 17)}
        | {(2 * k + 1) * 2.0**-4 for k in range(-8, 8)}
    )
    pts = [p for p in pts if -1.0 <= p <= 1.0]
    children = pw.EventTrain(np.array(pts), pw.Window(-1.0, 3.0))
    for side in (pw.TWO_SIDED, pw.NONNEG):
        idx = pw.IndexSet(3, side)
        fast = pw.pair_cascade(children, parents, idx)
        assert np.array_equal(fast, naive_pair_sums(pts, [0.0], idx))


@given(
    st.lists(st.floats(-1.5, 6.5, allow_nan=False), min_size=1, max_size=25),
    st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=1, max_size=25),
    st.integers(0, 7),
    st.sampled_from([pw.TWO_SIDED, pw.NONNEG]),
)
@settings(max_examples=60, deadline=None)
def test_pair_cascade_matches_naive_property(chi, par, j0, side):
    chi, par = np.sort(chi), np.sort(par)
    children = pw.EventTrain(chi, pw.Window(-2.0, 7.0))
    parents = pw.EventTrain(par, pw.Window(0.0, 5.0))
    idx = pw.IndexSet(j0, side)
    fast = pw.pair_cascade(children, parents, idx)
    assert np.array_equal(fast, naive_pair_sums(chi, par, idx))


@st.composite
def dense_pair_problems(draw):
    """Sorted parents on [0; 5] and a (rows, m) sample matrix on [1; 7].

    Half the parent sets pack 300 parents within 0.2 of 2.5, so a value there
    has more than 255 candidates (a 16-bit sort key); others may hold a
    single parent. Samples are uniform, or on a slot boundary about a parent
    or one ulp beside it; those beyond 6 lie beyond every parent, and sparse
    parents leave values with no candidate between them. Above j0 = 3, where
    the naive sums cost up to 510 indices per pair, a matrix holds at most
    2 rows of 6 samples.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j0 = draw(st.integers(0, 7))
    dense = draw(st.booleans())
    sparse = rng.uniform(0.0, 5.0, draw(st.integers(0 if dense else 1, 6)))
    parents = np.sort(np.concatenate([sparse, rng.uniform(2.4, 2.6, 300 * dense)]))
    rows, m = (2, 6) if j0 > 3 else (4, 12)
    shape = (draw(st.integers(1, rows)), draw(st.integers(0, m)))
    g = rng.integers(-(2 ** (j0 + 1)), 2 ** (j0 + 1) + 1, shape)
    grid = rng.choice(parents, shape) + np.ldexp(g.astype(np.float64), -(j0 + 1))
    grid = np.nextafter(grid, grid + rng.integers(-1, 2, shape))
    samples = np.where(rng.random(shape) < 0.5, rng.uniform(1.0, 7.0, shape), grid)
    if dense and shape[1]:
        samples[0, 0] = 2.5
    side = draw(st.sampled_from([pw.TWO_SIDED, pw.NONNEG]))
    return parents, np.clip(samples, 1.0, 7.0), pw.IndexSet(j0, side)


@given(dense_pair_problems(), st.sampled_from([1, 16, 2**15]))
@settings(max_examples=60, deadline=None)
def test_rank_major_pair_sums_match_naive(problem, block):
    # the kernel enumerates pairs rank by rank, values ordered by their
    # candidate count; its slot counts are integers, so pair_cascade and
    # coefficient_matrix give the naive sums bit for bit, whatever the
    # key width, the block size and m (0 included). Samples within [1; T - 1]
    # meet no tent, so the shift-mean correction is exactly zero and a
    # coefficient is the raw sum over n.
    par, samples, idx = problem
    if par.size >= 300:
        sizes = PairTable(par, 1.0).ranked(np.array([2.5]))[2]
        assert len(sizes) > 255
    parents = pw.EventTrain(par, pw.Window(0.0, 8.0))
    naive = np.zeros((samples.shape[0], idx.size))
    for b, row in enumerate(samples):
        naive[b] = naive_pair_sums(row, par, idx)
        children = pw.EventTrain(np.sort(row), pw.Window(-2.0, 10.0))
        assert np.array_equal(pw.pair_cascade(children, parents, idx), naive[b])
    with mock.patch.object(coefficients, "_BLOCK_SIZE", block):
        beta = pw.coefficient_matrix(parents, samples, idx)
    assert np.array_equal(beta, naive / par.size)


def slot_positions(j0):
    """Representatives of the kernel's 2^(j0+3)+1 slots on [-1; 1]: the grid
    points g 2^-(j0+1) at even slots, the bins' midpoints at odd ones."""
    s = np.arange(2 ** (j0 + 3) + 1, dtype=np.float64)
    return np.ldexp(0.5 * s - 2 ** (j0 + 1), -(j0 + 1))


@pytest.mark.parametrize("side", [pw.TWO_SIDED, pw.NONNEG])
def test_slot_signs_are_the_closed_form_signs(side):
    # the kernel's integer slot bounds against haar_eval's float ones
    for j0 in range(10):
        idx = pw.IndexSet(j0, side)
        pos = slot_positions(j0)
        signs = _slot_signs(idx)
        assert signs.shape == (pos.size, idx.size)
        for p, ix in enumerate(idx.indices):
            assert np.array_equal(signs[:, p], np.sign(pw.haar_eval(ix, pos)))


def test_slot_machinery_covers_unit_interval():
    pos = slot_positions(3)
    assert pos[0] == -1.0 and pos[-1] == 1.0
    assert len(pos) == 2 ** (3 + 3) + 1 == len(_slot_signs(pw.IndexSet(3)))
    table = PairTable(np.array([0.0]), 2.0**4)  # in units of the finest slot
    samples = np.ldexp(np.array([[-1.0, 1.0, 0.5]]), 4)
    counts = _pair_slot_counts(table, samples, 3, partial(_buffer, {}))
    assert counts.sum() == 3  # endpoints included, grid hits take even slots
    assert counts[0, 0] == 1 and counts[0, -1] == 1
