#!/usr/bin/env python3
"""Interleaved timing of the null kernel in two source trees, in one process.

    python scripts/kernel_ab.py <other tree> [--pairs N]

loads ppwave from <other tree>/src under one module name and from this
checkout's src under another, then times simulate_null_stats on the same
inputs, alternating the two trees call by call (which tree goes first
alternates too), so that both see the same host load. Timings of one tree in
separate processes spread far wider on a shared host than a ratio taken this
way; perfbench/run.py stays the end-to-end measure.

Inputs (T=2, data seed 7, scaled x50, null seed 1): Data_80 (m=119) at
B=20000 and Data_0 (m=35) at B=2000 with the two-sided j0=3 family, then
Data_80 at B=20000 with the two-sided j0=6 family and at B=2000 with the
nonneg j0=3 family. For each input it prints each tree's median call time
over the timed pairs (after one untimed warm-up pair), the ratio
this / other, and whether the two trees returned the same statistics bit
for bit.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# dataset, B, j0, side, timed pairs per --pairs unit
CASES = (
    ("Data_80", 20000, 3, "two_sided", 1),
    ("Data_0", 2000, 3, "two_sided", 10),
    ("Data_80", 20000, 6, "two_sided", 1),
    ("Data_80", 2000, 3, "nonneg", 10),
)


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


def null_call(pw, dataset: str, B: int, j0: int, side: str):
    """A zero-argument call of pw's simulate_null_stats on the case's inputs."""
    parents, children = pw.make_dataset(pw.DatasetId(dataset), 2.0, 7)
    sp, observed, window = pw.scale_clip(parents, children, 50.0)
    m, idx = observed.count(), pw.IndexSet(j0, side)
    return m, lambda: pw.simulate_null_stats(sp, m, idx, B, window, 1).stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the other source tree")
    parser.add_argument(
        "--pairs", type=int, default=20,
        help="timed pairs at B=20000; B=2000 runs ten times as many (default 20)",
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {
        "other": load(args.other.resolve() / "src", "ppwave_other"),
        "this": load(ROOT / "src", "ppwave_this"),
    }
    for dataset, B, j0, side, per_unit in CASES:
        calls = {}
        for name, pw in trees.items():
            m, calls[name] = null_call(pw, dataset, B, j0, side)
        times = {name: [] for name in trees}
        out = {}
        for pair in range(1 + args.pairs * per_unit):
            for name in list(trees)[:: 1 if pair % 2 else -1]:
                start = time.perf_counter()
                out[name] = calls[name]()
                elapsed = time.perf_counter() - start
                if pair:
                    times[name].append(elapsed)
        median = {name: 1e3 * statistics.median(t) for name, t in times.items()}
        same = out["this"].tobytes() == out["other"].tobytes()
        print(
            f"{dataset} (m={m}) B={B} j0={j0} {side}, {len(times['this'])} pairs: "
            f"other {median['other']:.2f} ms, this {median['this']:.2f} ms, "
            f"ratio {median['this'] / median['other']:.3f}, "
            f"identical statistics: {'yes' if same else 'NO'}"
        )


if __name__ == "__main__":
    main()
