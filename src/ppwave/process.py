"""Event trains, observation windows and the parent/child interaction model.

All trains are immutable: times are stored as a read-only, nondecreasing
float64 array together with the closed window that contains them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .haar import as_number

__all__ = [
    "Window",
    "EventTrain",
    "InteractionModel",
    "times_in",
    "scale_train",
    "parent_horizon",
    "conditioning_window",
    "scale_clip",
    "read_events",
    "write_events",
]


@dataclass(frozen=True)
class Window:
    """Closed time interval [lo; hi], lo < hi, both ends finite, stored as float."""

    lo: float
    hi: float

    def __post_init__(self):
        for name in ("lo", "hi"):
            object.__setattr__(self, name, as_number(name, getattr(self, name), float))
        if not self.lo < self.hi:
            raise ValueError(f"window requires lo < hi, got [{self.lo}; {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True, eq=False)
class EventTrain:
    """Sorted event times inside a closed observation window.

    Ties are kept: simulated Poisson samples have none almost surely, but
    file input may contain duplicates.
    """

    times: np.ndarray
    window: Window

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        if times.size and np.any(np.diff(times) < 0):
            raise ValueError("times must be nondecreasing")
        if times.size and (times[0] < self.window.lo or times[-1] > self.window.hi):
            raise ValueError(
                f"times must lie in [{self.window.lo}; {self.window.hi}]"
            )
        times = times.copy()
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    def count(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class InteractionModel:
    """Parent rate, orphan rate and step reproduction kernel theta*1_[nu; b_support].

    T is the recording length of the parent process; children are observed on
    [-1; T+1]. Every field is stored as float.
    """

    mu_p: float
    mu_c: float
    theta: float
    nu: float
    T: float
    b_support: float = 0.01

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            bound = "gt" if name in ("mu_p", "T", "b_support") else "ge"
            value = as_number(name, getattr(self, name), float, **{bound: 0})
            object.__setattr__(self, name, value)
        if not self.nu < self.b_support:
            raise ValueError(f"need nu < b_support, got {self.nu}, {self.b_support}")


def times_in(train: EventTrain, w: Window) -> np.ndarray:
    """The sorted times t with w.lo <= t <= w.hi (both endpoints inside)."""
    lo = np.searchsorted(train.times, w.lo, side="left")
    hi = np.searchsorted(train.times, w.hi, side="right")
    return train.times[lo:hi]


def scale_train(train: EventTrain, factor: float) -> EventTrain:
    """Multiply all times and both window endpoints by a positive factor."""
    factor = as_number("factor", factor, float, gt=0)
    w = train.window
    return EventTrain(train.times * factor, Window(w.lo * factor, w.hi * factor))


def parent_horizon(parents: EventTrain) -> float:
    """Recording length T of a parent train, which must be observed on [0; T]."""
    if parents.window.lo != 0.0:
        raise ValueError("parent train must be observed on [0; T]")
    return parents.window.hi


def conditioning_window(T: float, scale: float) -> Window:
    """Window on which null children are uniform given parents on [0; T].

    In scaled time (factor scale) the window is [-1; T*scale + 1]: children
    farther than 1 from [0; T*scale] meet no wavelet support. The result is
    that window in the time unit of T, [-1/scale; T + 1/scale]; pass the
    scaled T and scale=1 for the scaled window itself.
    """
    T, scale = as_number("T", T, float, gt=0), as_number("scale", scale, float, gt=0)
    return Window(-1.0 / scale, T + 1.0 / scale)


def scale_clip(
    parents: EventTrain, children: EventTrain, scale: float
) -> tuple[EventTrain, EventTrain, Window]:
    """Scale both trains and keep the children inside the conditioning window.

    Returns (scaled parents, kept children, the window), all in scaled time.
    """
    scale = as_number("scale", scale, float, gt=0)
    sp = scale_train(parents, scale)
    sc = scale_train(children, scale)
    window = conditioning_window(parent_horizon(sp), 1.0)
    return sp, EventTrain(times_in(sc, window), window), window


# Relative slack of the reach when pre-selecting pairs. Candidates are then
# filtered on the exact computed difference, so the slack only needs to
# dominate rounding of x - u (~1e-13 of the reach at the magnitudes handled
# here). Being relative, it keeps a table of anchors and reach scaled by a
# power of two the same table, scaled: the same cells and candidates.
_PAIR_MARGIN = 1e-9


class PairTable:
    """Cell table of sorted anchors for repeated searches of pairs within reach.

    Building the table costs O(anchors); each lookup (ranked) then costs
    O(values + pairs), so a caller that pairs many value sets with one anchor
    set builds it once. Values must not be NaN; an infinite one has no
    candidates. The table keeps no buffers: a lookup takes its arrays from
    its caller's allocator, or makes new ones.
    """

    def __init__(self, anchors: np.ndarray, reach: float):
        # Cells [c w; (c+1) w) of power-of-two width w about reach/16 (wider
        # if the anchors' span needs more than O(anchors) cells) each hold the
        # anchors within reach + margin: values of cell c pair with anchors
        # first[c] .. first[c] + count[c] - 1. Values beyond every anchor's
        # reach, infinities included, are clipped into the empty sentinel
        # cells at either end.
        self.anchors = anchors = np.asarray(anchors, dtype=np.float64)
        if anchors.size == 0:
            return
        far = reach * (1.0 + _PAIR_MARGIN)
        span = anchors[-1] - anchors[0] + 2.0 * far
        cells = 16 * anchors.size + 1024
        self._exp = max(math.frexp(reach)[1] - 5, math.frexp(span / cells)[1])
        self._c_lo = math.floor(math.ldexp(anchors[0] - far, -self._exp)) - 1
        self._c_hi = math.floor(math.ldexp(anchors[-1] + far, -self._exp)) + 1
        edges = np.arange(self._c_lo, self._c_hi + 2, dtype=np.float64)
        edges = np.ldexp(edges, self._exp)
        self._first = np.searchsorted(anchors, edges[:-1] - far, side="left")
        count = np.searchsorted(anchors, edges[1:] + far, side="right")
        count -= self._first
        count[[0, -1]] = 0
        # A lookup orders its values by descending count through a stable
        # argsort of key = most - count, which numpy radix-sorts when the key
        # is 8 or 16 bits wide.
        self._most = int(count.max())
        self._key = (self._most - count).astype(np.min_scalar_type(self._most))

    def ranked(
        self, values: np.ndarray, scratch=None
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Differences value - anchor of the candidate pairs, rank by rank.

        values may come in any order. Returns (diffs, order, sizes): order
        lists the positions of values by descending candidate count, ties in
        input order, and sizes[o] > 0 is the number of values with more than
        o candidates. Rank o pairs each value of values[order[:sizes[o]]]
        with its candidate o (counting from 0), a value's candidates taking
        consecutive anchors in ascending order; their differences are
        diffs[start : start + sizes[o]], start being sum(sizes[:o]). The
        candidates include every pair with |difference| <= reach and may
        include pairs beyond it, so callers filter diffs on their exact
        condition.

        scratch(name, size, dtype=np.intp) gives the lookup's working arrays,
        each overwritten freely: by default new ones, or buffers its caller
        keeps between lookups. The lookup takes the names scaled, cell, key,
        first and diffs; once it has returned, only diffs holds its result,
        so a caller may reuse the others. order is a new array.
        """
        n_values = values.size
        if self.anchors.size == 0 or n_values == 0:
            return np.empty(0), np.empty(0, dtype=np.intp), []
        if scratch is None:
            def scratch(name, size, dtype=np.intp):
                return np.empty(size, dtype)
        scaled = scratch("scaled", n_values, np.float64)
        np.ldexp(values, -self._exp, out=scaled)
        np.floor(scaled, out=scaled)
        np.clip(scaled, self._c_lo, self._c_hi, out=scaled)
        cell = scratch("cell", n_values)
        np.copyto(cell, scaled, casting="unsafe")
        cell -= self._c_lo
        # take's default mode copies its out array first; clip does not, and
        # every index is in range.
        key = scratch("key", n_values, self._key.dtype)
        np.take(self._key, cell, out=key, mode="clip")
        order = np.argsort(key, kind="stable")
        # The values with more than o candidates are those of key < most - o;
        # the sorted keys borrow first's buffer before it is filled.
        ranked = scratch("first", n_values, key.dtype)
        np.take(key, order, out=ranked, mode="clip")
        bounds = np.arange(self._most, 0, -1, dtype=key.dtype)
        sizes = [size for size in np.searchsorted(ranked, bounds).tolist() if size]
        first = scratch("first", n_values)
        np.take(self._first, cell, out=first, mode="clip")
        first = np.take(first, order, out=cell, mode="clip")
        ordered = np.take(values, order, out=scaled, mode="clip")
        # Rank o's values are a prefix of the ordered ones, each against the
        # anchor o places after its first: its first in anchors[o:].
        diffs = scratch("diffs", sum(sizes), np.float64)
        start = 0
        for o, size in enumerate(sizes):
            rank = diffs[start : start + size]
            np.take(self.anchors[o:], first[:size], out=rank, mode="clip")
            np.subtract(ordered[:size], rank, out=rank)
            start += size
        return diffs, order, sizes


def write_events(train: EventTrain, path) -> None:
    """Write a train as plain text: header '# window lo hi', one time per line."""
    with open(path, "w") as fh:
        fh.write(f"# window {float(train.window.lo)!r} {float(train.window.hi)!r}\n")
        for t in train.times:
            fh.write(f"{float(t)!r}\n")


def read_events(path) -> EventTrain:
    """Read an event file written by :func:`write_events`; errors name the file."""
    bounds = None
    times = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            try:
                if line.startswith("#"):
                    parts = line[1:].split()
                    if len(parts) == 3 and parts[0] == "window":
                        bounds = float(parts[1]), float(parts[2])
                elif line:
                    times.append(float(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if bounds is None:
        raise ValueError(f"{path}: missing '# window lo hi' header")
    try:
        return EventTrain(np.sort(np.asarray(times, dtype=np.float64)), Window(*bounds))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
