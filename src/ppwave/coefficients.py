"""Unbiased wavelet coefficient estimates for parent/child trains.

This module owns the estimator kernel, whose one entry is coefficient_matrix:
the dyadic-slot pair sums and the exact uniform-shift-mean correction over a
(rows, m) matrix of child samples against one parent set. For each index,

    beta_hat = (S - (n - 1) * sum_x E phi(x - U)) / n,   U ~ Unif[0; T],

where S is the raw pair sum over child-parent differences (closed form, no
extra Monte-Carlo noise). The kernel's rows are given rows, then rows of
uniforms drawn block by block: each row block is drawn from the one
generator just before it is used, so the (B, m) draws are never held. One
loop walks the rows in fixed-size blocks, in any order within a row, and
each row's estimates are the bits of its one-row call. The observed train is
the one-row case (estimate_coefficients; pair_cascade gives its raw sums S),
the conditional null (adaptive.simulate_null_stats) B drawn rows, and a test
both in one call: the observed train, then the null.

The loop is a worker that the calling thread runs, and so do helper
threads, up to the CPUs the process may use. Each worker takes the next row
slice and draws it under one lock, so the draws leave a generator in row
order and the statistics are the same bits for any worker count; it then
computes that block outside the lock and writes its own rows. A helper joins
only where the block geometry makes it pay (_workers): four blocks per
worker, at least 2^13 draws per block, and a sign matmul small enough that
BLAS keeps it on one thread. So B=20000 calls at j0=3 take helpers from
m = 17, while the four-block B=2000 calls of a level run, B=20000 calls
below m = 261, 1058, 4097 and 16385 at j0 = 4 to 7 (131, 529, 2049 and 8193
nonneg) and the processes of any process pool run on the caller alone.
An exception in any worker stops the others at their next block and is
raised in the caller once every helper has joined.

The kernel works in units of the finest slot, 2^-(j0+1). Rows are in these
units from the moment they enter a block: given rows are copied in scaled by
2^(j0+1), and drawn rows are drawn on the scaled window, the bits of scaled
uniform draws, as scaling by a power of two commutes with rounding. The
parents' cell table (process.PairTable), scaled alike, the slot signs and
the amplitudes are built once per call. The table holds no buffers: the
kernel owns every array a block works in, the samples and the table's lookup
arrays included, in a workspace kept between calls, one per worker, so its
memory beyond the statistics is one block's buffers per worker. Per block,
the table's lookup gives the pairs rank by rank, their integer dyadic-slot
counts (which no enumeration order can change) give S through each
wavelet's signs, and the correction takes one bincount over every level's
(row, j, k) bins, the family's own columns (IndexSet.offsets). The signs
come from integer slot bounds; haar.py's float closed forms are only the
kernel's test oracle.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .haar import IndexSet, as_number, haar_amplitude
from .process import EventTrain, PairTable, parent_horizon

__all__ = [
    "NoParentsError",
    "coefficient_matrix",
    "estimate_coefficients",
    "pair_cascade",
]


class NoParentsError(ValueError):
    """The statistic is undefined when the parent train is empty."""


@dataclass(frozen=True)
class CoefficientField:
    """Estimated coefficients beta_hat and test statistics t_stat = |beta_hat|."""

    index_set: IndexSet
    beta_hat: np.ndarray

    @property
    def t_stat(self) -> np.ndarray:
        return np.abs(self.beta_hat)


def _slot_signs(idx: IndexSet) -> np.ndarray:
    """(slots, idx.size) signs -1/0/+1 of each wavelet on the dyadic slots.

    Slot s of the 2^(j0+3)+1 is the grid point (s/2 - 2^(j0+1)) 2^-(j0+1) for
    even s, the open bin between two for odd s; every wavelet with j <= j0 is
    constant on each. With w = 2^(j0+1-j) and lo = 2^(j0+2) + 2kw, index (j, k)
    is -1 on slots lo..mid = lo + w (its closed negative half), +1 on
    mid+1..hi = lo + 2w.
    """
    w = 2 ** (idx.j0 + 1 - idx.js)
    lo = 2 ** (idx.j0 + 2) + 2 * idx.ks * w
    mid, hi = lo + w, lo + 2 * w
    s = np.arange(2 ** (idx.j0 + 3) + 1)[:, None]
    signs = ((s > mid) & (s <= hi)).astype(np.float64)
    signs -= (s >= lo) & (s <= mid)
    return signs


def _pair_slot_counts(
    table: PairTable, samples: np.ndarray, j0: int, scratch
) -> np.ndarray:
    """Histogram of pair differences sample - parent over the dyadic slots.

    table is the parents' cell table at reach 2^(j0+1) and samples is
    (rows, m), both in kernel units, where a difference is its slot
    coordinate, in any order within a row; only pairs with |difference| <=
    2^(j0+1) (1 in time) contribute. scratch is the allocator of the
    kernel's workspace (_buffer). Returns a (rows, n_slots) integer matrix.
    """
    n_rows, m = samples.shape
    n_slots = 2 ** (j0 + 3) + 1
    s, order, sizes = table.ranked(samples.ravel(), scratch)
    # floor(s) + ceil(s) is 2s on a grid point and 2 floor(s) + 1 between
    # two, so it numbers the slots of |s| <= 2^(j0+1) from -2^(j0+2) to
    # 2^(j0+2). Farther pairs are clipped into one trash bin at either end of
    # their row, dropped after the bincount. Slot counts are integers, so
    # the order of the pairs, rank by rank, changes no bit of the result.
    edge = 2 ** (j0 + 2) + 1
    floor = np.floor(s, out=scratch("floor", s.size, np.float64))
    slot = np.ceil(s, out=s)
    slot += floor
    np.clip(slot, -edge, edge, out=slot)
    keys = floor.view(np.intp)  # floor is used up
    np.copyto(keys, slot, casting="unsafe")
    # Row r's histogram takes the n_slots + 2 bins from r (n_slots + 2) on, a
    # trash bin at either end, so a pair in slot s of a value in row r (the
    # value at position order // m) falls in bin r (n_slots + 2) + edge + s.
    base = np.floor_divide(order, m, out=order)
    base *= n_slots + 2
    base += edge
    start = 0
    for size in sizes:  # rank o's values are the first sizes[o] in order
        keys[start : start + size] += base[:size]
        start += size
    del base, order  # freed before the histogram is made
    counts = np.bincount(keys, minlength=n_rows * (n_slots + 2))
    return counts.reshape(n_rows, n_slots + 2)[:, 1:-1]


# Entries per row block of a (rows, m) sample matrix: a block holds about this
# many draws or slot counts, so the kernel's temporaries do not grow with rows.
_BLOCK_SIZE = 2**15


def _pair_sums(parents: EventTrain, idx: IndexSet):
    """(sums, signs): sums(block, scratch) is a block's (rows, idx.size) pair sums.

    The cell table, the slot signs and the amplitudes are built once per
    call. block holds sample rows in kernel units; scratch is a workspace's
    allocator (_buffer). A sum is an integer net slot count times 2^(j/2):
    the matmul accumulates integers only (signs are -1/0/+1), so the result
    is exact up to the single final scaling, matching naive summation.
    """
    scale = 2.0 ** (idx.j0 + 1)
    table = PairTable(parents.times * scale, scale)
    signs, amplitude = _slot_signs(idx), haar_amplitude(idx.js)

    def sums(block: np.ndarray, scratch) -> np.ndarray:
        counts = _pair_slot_counts(table, block, idx.j0, scratch).astype(np.float64)
        return (counts @ signs) * amplitude

    return sums, signs


def _shift_mean_sums(T: float, idx: IndexSet):
    """sums(block): (rows, idx.size) sums of uniform_shift_mean(index, x, T).

    sums adds over each row of block, whose values x are in units of
    2^-(j0+1), as the kernel's samples. One bincount covers every level
    j <= j0, straight into the family's columns. A term, x or x - T, is
    live at t with lo < t < 1, inside the family's support (lo = -1 for
    two-sided families, 0 for nonneg ones), where it meets one support per
    level, k = floor(2^j t) < 2^j. x adds its tent / T and x - T subtracts
    its own in (row, j, k) bins, in row-major value order, so an index's
    sums depend neither on the family nor on the other rows. Where x and
    x - T meet one support, their terms are added apart rather than
    differenced first as in uniform_shift_mean, so such sums agree with the
    per-index ones to a few ulp of 1/T per value; all others are identical.
    """
    # The per-level constants, built once per call. The terms are haar_tent's
    # bits: inside the support a tent is never negative. Outside it and on
    # its ends a term is a signed zero, which adds nothing to a bincount sum
    # (a bin starts at +0 and never becomes -0), so only live terms are binned.
    scale = 2.0 ** (idx.j0 + 1)
    near_lo, near_hi = scale, (T - 1.0) * scale
    lo = idx.k_range(0).start
    j = np.arange(idx.j0 + 1, dtype=np.int32)[:, None]  # int32: ldexp's fast path
    height = -(2.0 ** (-0.5 * j))
    divisor = np.array([T, -T])  # x / (-T) is -(x / T), exactly
    offset = np.array(idx.offsets)[:, None]  # (j, k) is column offset_j + k

    def sums(block: np.ndarray) -> np.ndarray:
        n_rows, m = block.shape
        # Every value with |x| < 1 or |x - T| < 1 (all values when T < 2),
        # and some beyond, which have no live term.
        near = np.flatnonzero((block <= near_lo) | (block >= near_hi))
        x = np.ldexp(block.ravel()[near], -(idx.j0 + 1))
        t = np.stack([x, x - T], axis=1).ravel()
        # Live term i is x (even i) or x - T (odd i) of value near[i // 2].
        live = np.flatnonzero((t > lo) & (t < 1.0))
        y = np.ldexp(t[live], j)
        k = np.floor(y)
        y -= k
        # In place where it can be: each worker of a call holds these at once.
        k += offset
        keys = k.astype(np.intp)
        keys += near[live >> 1] // m * idx.size
        terms = np.subtract(1.0, y, out=k)  # k is used up
        np.minimum(y, terms, out=terms)
        terms *= height
        terms /= divisor[live & 1]
        out = np.bincount(keys.ravel(), terms.ravel(), minlength=n_rows * idx.size)
        return out.reshape(n_rows, idx.size)

    return sums


# Workspaces of the kernel, each a dict of the buffers of one row block: the
# samples, the cell table's lookup arrays and the slot and key arrays. Each
# worker of a call takes one for its duration and hands it back, so the next
# call reuses buffers already sized and touched for one row block; workers of
# concurrent and re-entrant calls each take their own, so one block's worth
# is kept per worker that ever ran at once.
_WORKSPACES: list[dict] = []

# A helper thread joins a call only where it pays (timings on a 2-CPU host).
# Each worker needs _HELPER_BLOCKS row blocks: with a helper on the 4-block
# calls of a B=2000 level run, perfbench level_desk ran at 101 against 121
# replicates/s and peaked at 49.8 against 44.8 MiB. A block needs
# _HELPER_DRAWS draws: at 2520 draws a helper made the kernel 1.09x slower,
# at 10080 0.95x, at 17640 0.83x. And a block's sign matmul, rows x slots x
# |idx| multiply-adds, may not exceed _HELPER_MATMUL, above which OpenBLAS
# runs it on threads of its own that a helper competes with: 1.14x slower at
# 1.02 M (j0=4 nonneg), 1.26x at 8.2 M (j0=6). Two-sided j0=3 blocks have at
# most 0.98 M.
_HELPER_BLOCKS = 4
_HELPER_DRAWS = 2**13
_HELPER_MATMUL = 10**6

def _buffer(workspace: dict, name: str, size: int, dtype=np.intp) -> np.ndarray:
    """size entries of dtype in the buffer name of workspace, overwritten freely.

    A buffer is made, or replaced when too small, with an eighth more room
    than asked, so blocks of similar sizes share it, and it may be taken as
    any dtype.
    """
    itemsize = np.dtype(dtype).itemsize
    raw = workspace.get(name)
    if raw is None or raw.size < size * itemsize:
        # Drop the old buffer before making its successor, so a buffer kept
        # between calls never holds both at once.
        raw = workspace[name] = None
        raw = workspace[name] = np.empty((size + size // 8) * itemsize, np.uint8)
    return raw[: size * itemsize].view(dtype)


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one.

    It caps the kernel's helpers and sizes the experiments' default pool.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(n_rows: int, step: int, m: int, signs: np.ndarray) -> int:
    """Threads that walk a call's row blocks of step rows of m draws each.

    A process that multiprocessing started, such as a pool's, runs on one,
    as the pool fills the CPUs. Such a process has multiprocessing loaded,
    so it is looked up, not imported: the import costs about 20 ms.
    """
    mp = sys.modules.get("multiprocessing")
    in_pool = mp is not None and mp.parent_process() is not None
    if in_pool or step * m < _HELPER_DRAWS or step * signs.size > _HELPER_MATMUL:
        return 1
    return max(1, min(available_cpus(), -(-n_rows // step) // _HELPER_BLOCKS))


def coefficient_matrix(
    parents: EventTrain, samples, idx: IndexSet, *, draws=0, window=None, gen=None
) -> np.ndarray:
    """Signed coefficient estimates for each row of child times against parents.

    samples is a (rows, m) float array, one child sample per row, in any
    order within a row; it may have no rows. Returns (rows + draws, idx.size)
    estimates: the rows of samples, then draws rows of m uniforms on window
    from the Generator gen, the bits of given rows gen.uniform(window.lo,
    window.hi, (draws, m)). Each block's are drawn in row order, under the
    lock of the call's workers, just before it is used, so the (draws, m)
    draws are never held and gen ends where that draw leaves it. parents
    must be observed on [0; T].

    Raises
    ------
    NoParentsError
        If the parent train is empty.
    ValueError
        If samples is not a matrix or holds NaN or an infinity, or draws is
        not an integer >= 0.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError("samples must be a (rows, m) matrix")
    draws = as_number("draws", draws, int, ge=0)
    n = parents.count()
    if n == 0:
        raise NoParentsError("coefficient estimates require at least one parent")
    T = parent_horizon(parents)
    m, n_rows = samples.shape[1], len(samples) + draws
    pair_sums, signs = _pair_sums(parents, idx)
    correction = _shift_mean_sums(T, idx)
    step = max(1, _BLOCK_SIZE // max(m, signs.shape[0]))
    out = np.empty((n_rows, idx.size))
    # Rows enter a block in kernel units: (lo + u (hi - lo)) scale, bit for bit.
    scale = 2.0 ** (idx.j0 + 1)
    if draws:
        width, low = (window.hi - window.lo) * scale, window.lo * scale
    starts = iter(range(0, n_rows, step))
    lock = threading.Lock()
    errors = []

    def work():
        try:
            workspace = _WORKSPACES.pop()
        except IndexError:
            workspace = {}
        scratch = partial(_buffer, workspace)
        try:
            while True:
                with lock:
                    start = n_rows if errors else next(starts, n_rows)
                    if start == n_rows:
                        return
                    stop = min(start + step, n_rows)
                    block = scratch("samples", (stop - start) * m, np.float64)
                    block = block.reshape(stop - start, m)
                    head = samples[start:stop]
                    if not np.isfinite(head).all():
                        raise ValueError("samples must be finite")
                    np.multiply(head, scale, out=block[: len(head)])
                    drawn = block[len(head) :]
                    if len(drawn):
                        gen.random(out=drawn)
                        drawn *= width
                        drawn += low
                sums = pair_sums(block, scratch)
                sums -= (n - 1) * correction(block)
                np.divide(sums, n, out=out[start:stop])
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)
        finally:
            _WORKSPACES.append(workspace)

    helpers = [
        threading.Thread(target=work, name="ppwave-kernel")
        for _ in range(_workers(n_rows, step, m, signs) - 1)
    ]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return out


def estimate_coefficients(
    parents: EventTrain, children: EventTrain, idx: IndexSet
) -> CoefficientField:
    """Estimate all coefficients of the reproduction function over an IndexSet.

    Parameters
    ----------
    parents : EventTrain
        Parent events on [0; T]; the window fixes T. Must be nonempty.
    children : EventTrain
        Child events; points farther than 1 from every parent and from the
        window edges contribute exactly zero.
    idx : IndexSet
        Index family to evaluate.

    Raises
    ------
    NoParentsError
        If the parent train is empty.
    """
    beta = coefficient_matrix(parents, children.times[None, :], idx)[0]
    return CoefficientField(idx, beta)


def pair_cascade(
    children: EventTrain, parents: EventTrain, idx: IndexSet
) -> np.ndarray:
    """All raw sums S_lambda = sum_x sum_u phi_lambda(x - u), in idx order.

    Pairs with |x - u| <= 1 are located through the parents' cell table and
    binned once into dyadic slots, which each wavelet's signs then reduce;
    cost is O(pairs in range + slots * |indices|) instead of the naive
    O(n * m * |indices|).
    """
    sums, _ = _pair_sums(parents, idx)
    samples = children.times[None, :] * 2.0 ** (idx.j0 + 1)
    return sums(samples, partial(_buffer, {}))[0]
