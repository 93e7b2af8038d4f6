import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ppwave as pw
from ppwave.coefficients import _buffer
from ppwave.process import PairTable


def train(times, lo, hi):
    return pw.EventTrain(np.asarray(times, dtype=float), pw.Window(lo, hi))


def test_window_validation():
    with pytest.raises(ValueError):
        pw.Window(1.0, 1.0)
    with pytest.raises(ValueError):
        pw.Window(2.0, -1.0)
    for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            pw.Window(lo, hi)
    for bad in (True, "0"):
        with pytest.raises(ValueError, match="lo must be a number"):
            pw.Window(bad, 2.0)
        with pytest.raises(ValueError, match="hi must be a number"):
            pw.Window(-1.0, bad)
    assert type(pw.Window(0, np.float32(2.0)).lo) is float
    w = pw.Window(-1.0, 3.0)
    assert w.length == 4.0
    inside = pw.times_in(train([-1.0, 3.0, 3.0001], -1.0, 4.0), w)
    assert inside.tolist() == [-1.0, 3.0]


def test_event_train_validation():
    with pytest.raises(ValueError):
        train([0.5, 0.2], 0.0, 1.0)  # not sorted
    with pytest.raises(ValueError):
        train([0.5, 1.2], 0.0, 1.0)  # outside window
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            train([0.1, bad], 0.0, 1.0)  # non-finite time
    t = train([0.1, 0.1, 0.9], 0.0, 1.0)  # ties kept
    assert t.count() == 3
    with pytest.raises(ValueError):
        t.times[0] = 0.0  # read-only storage


def test_times_in_examples():
    t = train([0.1, 0.5, 1.9], 0.0, 2.0)
    assert pw.times_in(t, pw.Window(0.0, 2.0)).size == 3
    assert pw.times_in(t, pw.Window(0.2, 1.0)).size == 1
    empty = train([], 0.0, 2.0)
    assert pw.times_in(empty, pw.Window(0.0, 1.0)).size == 0
    # boundary events count inside on both ends
    assert pw.times_in(t, pw.Window(0.5, 1.9)).size == 2


def test_scale_train_examples():
    t = train([0.01, 0.02], 0.0, 2.0)
    s = pw.scale_train(t, 50.0)
    assert np.allclose(s.times, [0.5, 1.0])
    assert (s.window.lo, s.window.hi) == (0.0, 100.0)

    same = pw.scale_train(t, 1.0)
    assert np.array_equal(same.times, t.times)

    neg = pw.scale_train(train([-0.5], -1.0, 3.0), 2.0)
    assert neg.times[0] == -1.0
    assert (neg.window.lo, neg.window.hi) == (-2.0, 6.0)

    with pytest.raises(ValueError):
        pw.scale_train(t, 0.0)
    with pytest.raises(ValueError):
        pw.scale_train(t, -2.0)
    for bad in (True, "2"):
        with pytest.raises(ValueError, match="factor must be a number"):
            pw.scale_train(t, bad)


@st.composite
def trains(draw):
    lo = draw(st.floats(-10, 5))
    hi = draw(st.floats(lo + 0.5, lo + 20))
    times = draw(
        st.lists(st.floats(lo, hi, allow_nan=False, allow_infinity=False), max_size=30)
    )
    return pw.EventTrain(np.sort(np.asarray(times, dtype=float)), pw.Window(lo, hi))


@given(trains(), st.floats(1e-3, 1e3))
# Scaling a subnormal time drops its low bits (a float64 property), hence the
# absolute tolerance, as for the window ends.
@example(pw.EventTrain(np.array([-2.2250738585e-313]), pw.Window(-1.0, 0.0)), 0.25)
@settings(max_examples=80, deadline=None)
def test_scale_roundtrip(t, c):
    back = pw.scale_train(pw.scale_train(t, c), 1.0 / c)
    assert np.allclose(back.times, t.times, rtol=1e-12, atol=1e-300)
    assert np.isclose(back.window.lo, t.window.lo, rtol=1e-12, atol=1e-300)
    assert np.isclose(back.window.hi, t.window.hi, rtol=1e-12, atol=1e-300)


@given(trains(), st.floats(1e-3, 1e3))
@settings(max_examples=80, deadline=None)
def test_count_invariant_under_joint_scaling(t, c):
    w = pw.Window(t.window.lo, t.window.hi)
    scaled = pw.scale_train(t, c)
    assert pw.times_in(scaled, scaled.window).size == pw.times_in(t, w).size


def test_event_file_roundtrip(tmp_path):
    t = train([-0.25, 0.0, 1.5, 1.5, 2.9999999999], -1.0, 3.0)
    path = tmp_path / "events.txt"
    pw.write_events(t, path)
    back = pw.read_events(path)
    assert np.array_equal(back.times, t.times)
    assert back.window == t.window


def test_event_file_requires_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\n0.7\n")
    with pytest.raises(ValueError):
        pw.read_events(path)


def test_event_file_rejects_non_finite(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("# window 0.0 2.0\n0.5\n1.0\nnan\n")
    with pytest.raises(ValueError, match="finite"):
        pw.read_events(path)
    path.write_text("# window 0.0 inf\n0.5\n")
    with pytest.raises(ValueError, match="finite"):
        pw.read_events(path)


def test_interaction_model_validation():
    pw.InteractionModel(mu_p=50, mu_c=20, theta=80, nu=0.005, T=2.0)
    with pytest.raises(ValueError):
        pw.InteractionModel(mu_p=0, mu_c=20, theta=0, nu=0, T=2.0)
    with pytest.raises(ValueError):
        pw.InteractionModel(mu_p=50, mu_c=20, theta=0, nu=0.02, T=2.0)  # nu >= b
    with pytest.raises(ValueError):
        pw.InteractionModel(mu_p=50, mu_c=20, theta=-1, nu=0, T=2.0)
    for T in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="T must be > 0 and finite"):
            pw.InteractionModel(mu_p=50, mu_c=20, theta=0, nu=0, T=T)
    good = dict(mu_p=50, mu_c=20, theta=0, nu=0, T=np.float32(2.0), b_support=0.01)
    # just past each field's bound: > 0 for rates and lengths, >= 0 for the rest
    past = dict(mu_p=0.0, mu_c=-5e-324, theta=-5e-324, nu=-5e-324, T=0.0, b_support=0.0)
    for name in good:
        for bad in (True, "2"):  # not mu_p = 1, not a bare TypeError
            with pytest.raises(ValueError, match=f"^{name} must be a number"):
                pw.InteractionModel(**{**good, name: bad})
        # named, not a numpy error at simulation
        for bad in (math.nan, math.inf, -math.inf, past[name]):
            with pytest.raises(ValueError, match=rf"^{name} must be .*finite, got "):
                pw.InteractionModel(**{**good, name: bad})
    model = pw.InteractionModel(**good)
    assert all(type(getattr(model, name)) is float for name in good)


def differences(table, values, scratch=None):
    """The candidate pairs of table.ranked, value by value: (diffs, owner).

    Pair p is values[owner[p]] - anchor, owner is nondecreasing, and each
    value's candidates take its anchors in ascending order. Both arrays are
    new.
    """
    diffs, order, sizes = table.ranked(values, scratch)
    owner = np.concatenate([order[:size] for size in sizes] + [order[:0]])
    by_value = np.argsort(owner, kind="stable")
    return diffs[by_value], owner[by_value]


def pair_differences(anchors, values, reach):
    """differences of a one-lookup table."""
    return differences(PairTable(anchors, reach), values)


@st.composite
def pair_problems(draw):
    """Anchors (with ties) and values placed uniformly, on the dyadic grid of
    step 2^-9, or at an anchor +- reach, each optionally one ulp aside; some
    values lie beyond every anchor's reach on either side."""
    reach = draw(st.sampled_from([1.0, 0.04]))
    anchors = st.floats(0.0, 5.0) | st.sampled_from([1.0, 2.5])
    anchors = np.sort(np.asarray(draw(st.lists(anchors, max_size=12)), dtype=float))
    values = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["uniform", "grid", "reach"]))
        if kind == "uniform":
            v = draw(st.floats(-3.0, 8.0))
        elif kind == "grid" or anchors.size == 0:
            v = draw(st.integers(-3 * 2**9, 8 * 2**9)) * 2.0**-9
        else:
            v = anchors[draw(st.integers(0, anchors.size - 1))]
            v += draw(st.sampled_from([-reach, reach]))
        values.append(np.nextafter(v, v + draw(st.integers(-1, 1))))
    return anchors, np.asarray(values, dtype=float), reach


@given(pair_problems())
@settings(max_examples=300, deadline=None)
def test_pair_differences_cover_every_pair_within_reach(problem):
    anchors, values, reach = problem
    diffs, owner = pair_differences(anchors, values, reach)
    assert diffs.shape == owner.shape
    assert np.all(np.diff(owner) >= 0)
    assert np.all((owner >= 0) & (owner < values.size))
    for i, v in enumerate(values):
        mine = diffs[owner == i]
        every = v - anchors  # the difference with each anchor, in anchor order
        true = np.flatnonzero(np.abs(every) <= reach)
        if mine.size == 0:
            assert true.size == 0
            continue
        # the candidates are v minus a run of consecutive anchors that holds
        # every pair within reach
        runs = [
            s
            for s in range(anchors.size - mine.size + 1)
            if np.array_equal(every[s : s + mine.size], mine)
        ]
        assert runs
        if true.size:
            assert any(s <= true[0] and true[-1] < s + mine.size for s in runs)


@given(pair_problems())
@settings(max_examples=150, deadline=None)
def test_one_table_serves_many_lookups(problem):
    # the kernel builds the cell table once per call and looks up each row
    # block in buffers it keeps: lookups of growing, shrinking, reversed
    # (strided) and empty value sets on one table and one kept allocator
    # equal one lookup of a fresh table each, bit for bit
    anchors, values, reach = problem
    table = PairTable(anchors, reach)
    scratch = partial(_buffer, {})
    lookups = (
        values,
        values[: values.size // 2],
        np.concatenate([values, values, values]),
        values[::-1],
        values[:0],
        values,
    )
    for v in lookups:
        diffs, owner = differences(table, v, scratch)
        expected = pair_differences(anchors, v, reach)
        assert np.array_equal(diffs, expected[0])
        assert np.array_equal(owner, expected[1])
        assert diffs.dtype == np.float64 and owner.dtype == np.intp


def test_pair_differences_empty_inputs():
    # no pairs without anchors or values, nor for non-finite values
    nonfinite = [np.nan, np.inf, -np.inf]
    for anchors, values in (([], [0.5]), ([0.5], []), ([], []), ([0.5], nonfinite)):
        anchors, values = np.asarray(anchors, float), np.asarray(values, float)
        diffs, owner = pair_differences(anchors, values, 1.0)
        assert diffs.size == owner.size == 0
