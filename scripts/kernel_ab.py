#!/usr/bin/env python3
"""Interleaved timing of the null kernel in two source trees, in one process.

    python scripts/kernel_ab.py <other tree> [--pairs N]

loads ppwave from <other tree>/src under one module name and from this
checkout's src under another, then times simulate_null_stats,
run_multiple_test, estimate_coefficients and the ops of the benchmark's two
workloads on the same inputs, alternating the two trees call by call (which
tree goes first alternates too), so that both see the same host load.
Timings of one tree in separate processes spread far wider on a shared host
than a ratio taken this way; perfbench/run.py stays the end-to-end measure.

Inputs (T=2, data seed 7, scaled x50 unless noted, null seed 1).
simulate_null_stats: Data_80 (m=119) at B=20000 and Data_0 (m=35) at B=2000
with the two-sided j0=3 family, then Data_80 at B=20000 with the two-sided
j0=6 and j0=7 families and at B=2000 with the nonneg j0=3 family.
run_multiple_test, whose one kernel call adds the observed row to the
null's: Data_0 at B=2000 and Data_80 at B=20000, two-sided j0=3.
estimate_coefficients, one row with a fresh IndexSet per call, so that the
family's per-call constants are most of the call: Data_80, two-sided j0=3
and j0=7. Then a short horizon: simulate_null_stats on Data_80 scaled x0.5
(scaled horizon 1, m=163) at B=200, two-sided j0=3, where a value in
(0; 1) has both of its shift-mean terms, x and x - T, inside the family's
support, so the correction bins both. Last, the benchmark's two ops: the
test_paper mix, run_multiple_test at B=20000 (two-sided j0=3) on the nine
datasets, two inputs each from data seed 20260810, cycled, pair i on input
i mod 18 with null seed i; and the level_desk op, run_level_experiment with
R=1 on Data_0 at B=2000, every method, master seed i. For each case it
prints each tree's median call time over the timed pairs (after one untimed
warm-up pair) next to its median process CPU time (time.process_time, every
thread of the process), the ratio this / other as the median of the
per-pair ratios with their quartiles, and whether the two trees returned the
same values bit for bit in every pair: the statistics, every public value of
an outcome, or a report's rates and u_alpha range (not its wall time). The
median of the per-pair ratios is the headline because on a shared host the
ratio of the two median times can fall outside the middle half of the
pairs' own ratios.

CPU time above wall time means a call ran on more than one CPU: the
kernel's helper threads, or BLAS threads under the sign matmul (at j0=6
both trees read about twice their wall time). Time the host takes away
from the process shows in neither. A kernel with helpers can read a ratio
near 1 in short runs: in episodes of a second or more, at a process's start
or later, the OS kept the caller and its helper on one CPU for whole calls
(/proc/thread-self/stat read after each block) while /proc/stat showed the
other CPU idle. The call's CPU time then equals its wall time. A likely
reason: the two threads mostly take turns holding the interpreter lock, so
the scheduler rarely sees both runnable and does not move the helper. One
such episode covered most of a 10-pair Data_80 B=20000 j0=3 case (about
2.7 s; ratio 0.98, CPU 144 ms against wall 139 ms), while the next run, at
25 pairs, read 0.62 (CPU 161 ms, wall 92 ms). The other tree's OpenBLAS
pool is not the cause: both trees import the one numpy, so they share one
pool, and at j0=3 neither tree's CPU time exceeds its wall time, so BLAS
runs their sign matmuls on one thread.
"""

import argparse
import hashlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# timed call, dataset ("mix": the test_paper inputs), scale, B (rows of an
# estimate_coefficients call), j0, side, timed pairs per --pairs unit
CASES = (
    ("simulate_null_stats", "Data_80", 50.0, 20000, 3, "two_sided", 1),
    ("simulate_null_stats", "Data_0", 50.0, 2000, 3, "two_sided", 10),
    ("simulate_null_stats", "Data_80", 50.0, 20000, 6, "two_sided", 1),
    ("simulate_null_stats", "Data_80", 50.0, 20000, 7, "two_sided", 1),
    ("simulate_null_stats", "Data_80", 50.0, 2000, 3, "nonneg", 10),
    ("run_multiple_test", "Data_0", 50.0, 2000, 3, "two_sided", 10),
    ("run_multiple_test", "Data_80", 50.0, 20000, 3, "two_sided", 1),
    ("estimate_coefficients", "Data_80", 50.0, 1, 3, "two_sided", 100),
    ("estimate_coefficients", "Data_80", 50.0, 1, 7, "two_sided", 10),
    ("simulate_null_stats", "Data_80", 0.5, 200, 3, "two_sided", 2),
    ("run_multiple_test", "mix", 50.0, 20000, 3, "two_sided", 15),
    ("run_level_experiment", "Data_0", 50.0, 2000, 3, "two_sided", 100),
)
MIX_DATA_SEED, MIX_INPUTS_PER_DATASET = 20260810, 2


def load(src: Path, name: str):
    """Import the ppwave package under src as the module name."""
    init = src / "ppwave" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no ppwave sources under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def case_call(pw, call: str, dataset: str, scale: float, B: int, j0: int, side: str):
    """(its inputs, named; a call of pw's call on them, given the pair's number i)."""
    if call == "run_level_experiment":
        cfg = dict(datasets=(dataset,), R=1, B=B, j0=j0, side=side, T=2.0, scale=scale)
        return "R=1, every method", lambda i: pw.run_level_experiment(
            pw.ExperimentConfig(master_seed=i, workers=1, **cfg)
        )
    if dataset == "mix":
        cfg = pw.TestConfig(j0=j0, side=side, B=B, scale=scale)
        inputs = [
            pw.make_dataset(
                pw.DatasetId(name), 2.0, np.random.SeedSequence([MIX_DATA_SEED, d, k])
            )
            for d, name in enumerate(pw.DATASET_NAMES)
            for k in range(MIX_INPUTS_PER_DATASET)
        ]
        return f"{len(inputs)} inputs", lambda i: pw.run_multiple_test(
            *inputs[i % len(inputs)], cfg, seed=i
        )
    parents, children = pw.make_dataset(pw.DatasetId(dataset), 2.0, 7)
    sp, observed, window = pw.scale_clip(parents, children, scale)
    m, idx = observed.count(), pw.IndexSet(j0, side)
    if call == "simulate_null_stats":
        return f"m={m}", lambda i: pw.simulate_null_stats(
            sp, m, idx, B, window, 1
        ).stats
    if call == "estimate_coefficients":
        return f"m={m}", lambda i: pw.estimate_coefficients(
            sp, observed, pw.IndexSet(j0, side)
        ).beta_hat
    cfg = pw.TestConfig(j0=j0, side=side, B=B, scale=scale)
    return f"m={m}", lambda i: pw.run_multiple_test(parents, children, cfg, seed=1)


# A TestOutcome's public values, by name: which of them are stored and which
# derived may differ between the two trees.
OUTCOME_VALUES = (
    "reject", "u_alpha", "beta_hat", "t_stat", "thresholds", "single_reject",
    "n_parents", "m_children", "no_information",
)


def bits(value) -> bytes:
    """value's bytes: an array's data, the public values of an outcome, a
    report's rates and u_alpha range, else its repr."""
    if hasattr(value, "tobytes"):
        return value.tobytes()
    if hasattr(value, "single_reject"):
        return b"".join(bits(getattr(value, name)) for name in OUTCOME_VALUES)
    if hasattr(value, "u_alpha_min"):
        rates = [(r.dataset, r.method, r.delta_summary, r.rate) for r in value.rows]
        ranges = value.gaue_delta_rates, value.u_alpha_min, value.u_alpha_max
        return bits((rates, ranges))
    return repr(value).encode()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the other source tree")
    parser.add_argument(
        "--pairs", type=int, default=20,
        help="timed pairs of a B=20000 null call; each case runs a fixed multiple "
        "of them, shorter calls more (default 20)",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {
        "other": load(args.other.resolve() / "src", "ppwave_other"),
        "this": load(ROOT / "src", "ppwave_this"),
    }
    for call, dataset, scale, B, j0, side, per_unit in CASES:
        calls = {}
        for name, pw in trees.items():
            inputs, calls[name] = case_call(pw, call, dataset, scale, B, j0, side)
        times = {name: [] for name in trees}
        cpu = {name: [] for name in trees}
        same = True
        for pair in range(1 + args.pairs * per_unit):
            digest = {}
            for name in list(trees)[:: 1 if pair % 2 else -1]:
                start, start_cpu = time.perf_counter(), time.process_time()
                value = calls[name](pair)
                elapsed = time.perf_counter() - start
                if pair:
                    times[name].append(elapsed)
                    cpu[name].append(time.process_time() - start_cpu)
                # hashed and dropped before the other tree's call
                digest[name] = hashlib.sha256(bits(value)).digest()
                del value
            same = same and digest["this"] == digest["other"]
        median = {name: 1e3 * statistics.median(t) for name, t in times.items()}
        median_cpu = {name: 1e3 * statistics.median(t) for name, t in cpu.items()}
        ratios = np.divide(times["this"], times["other"])
        q1, ratio, q3 = np.quantile(ratios, [0.25, 0.5, 0.75])
        kinds = {"run_multiple_test": "outcomes", "run_level_experiment": "reports"}
        what = kinds.get(call, "statistics")
        print(
            f"{call} {dataset} x{scale:g} ({inputs}) B={B} j0={j0} {side}, "
            f"{len(times['this'])} pairs: "
            f"other {median['other']:.2f} ms (cpu {median_cpu['other']:.2f}), "
            f"this {median['this']:.2f} ms (cpu {median_cpu['this']:.2f}), "
            f"ratio {ratio:.3f} (median of pair ratios; q1 {q1:.3f}, q3 {q3:.3f}), "
            f"identical {what}: {'yes' if same else 'NO'}"
        )


if __name__ == "__main__":
    main()
