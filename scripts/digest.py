#!/usr/bin/env python3
"""Seeded SHA-256 digests of the package's numerical outputs.

Prints one line per output: its name, the number of arrays hashed and the
SHA-256 over their shapes, dtypes and bytes. Two source trees print the same
lines exactly when these outputs are byte-identical, so

    diff <(PYTHONPATH=<other tree>/src python scripts/digest.py) \\
         <(PYTHONPATH=src python scripts/digest.py)

checks that a change meant to keep results keeps them. The first line names
the numpy version, since the draws are numpy's. tests/golden/digest.txt holds
the committed output, which tests/test_golden.py regenerates; a change that
moves results on purpose rewrites it with

    PYTHONPATH=src python scripts/digest.py > tests/golden/digest.txt

Inputs: the nine datasets at T in {1, 2} and seeds 0-2, scaled x50, families
j0 in {0, 3, 5} on both sides, plus raw sample matrices with draws on and one
ulp beside the dyadic slot boundaries. The calibrate_u_alpha and thresholds
lines cover the nine datasets (T=2, seed 0) for the two-sided j0=3 and j0=6
and the nonneg j0=3 families at B in {2, 2000, 20000} and alpha in
{0.01, 0.05, 0.3}, so that calibration changes show apart from the kernel's.
The decisions line hashes only reject, single_reject and u_alpha of the
run_multiple_test outcomes, so a change that moves floats but no decision
shows apart from one that flips a decision. The make_dataset line draws the
nine datasets at both horizons from SeedSequence(s, spawn_key=(k,)) seeds,
the form the CLI and the experiments pass.
Takes about 20 s on two cores.
"""

import hashlib

import numpy as np

import ppwave as pw

SCALE = 50.0
SEEDS = (0, 1, 2)
HORIZONS = (1.0, 2.0)
FAMILIES = [
    pw.IndexSet(j0, side) for j0 in (0, 3, 5) for side in (pw.TWO_SIDED, pw.NONNEG)
]
SINGLE_INDICES = tuple(pw.WaveletIndex(j, k) for j, k in ((0, 0), (1, -1), (3, 2)))
# The two-sided ones at B=20000 are also the paper-scale simulate_null_stats.
CALIBRATION_FAMILIES = (pw.IndexSet(3), pw.IndexSet(6), pw.IndexSet(3, pw.NONNEG))
CALIBRATION_BS = (2, 2000, 20000)
CALIBRATION_ALPHAS = (0.01, 0.05, 0.3)


class Digest:
    def __init__(self):
        self.sha = hashlib.sha256()
        self.count = 0

    def add(self, *arrays):
        for a in arrays:
            a = np.ascontiguousarray(a)
            self.sha.update(f"{a.dtype.str}{a.shape}".encode())
            self.sha.update(a.tobytes())
            self.count += 1


def datasets():
    for name in pw.DATASET_NAMES:
        for T in HORIZONS:
            for seed in SEEDS:
                parents, children = pw.make_dataset(pw.DatasetId(name), T, seed)
                yield name, T, seed, parents, children


def boundary_samples(parents, rows, m, j0, rng):
    """Uniform draws mixed with draws at u + g 2^-(j0+1) or one ulp beside them."""
    g = rng.integers(-(2 ** (j0 + 1)), 2 ** (j0 + 1) + 1, (rows, m))
    x = rng.choice(parents, (rows, m)) + np.ldexp(g.astype(np.float64), -j0 - 1)
    x = np.nextafter(x, x + rng.integers(-1, 2, (rows, m)))
    uniform = rng.uniform(-1.0, parents[-1] + 1.0, (rows, m))
    return np.where(rng.random((rows, m)) < 0.5, uniform, x)


def calibrations(nulls):
    """(u_alpha, thresholds) of one null per alpha."""
    w = pw.aggregation_weights(nulls.index_set)
    cols = nulls.sorted_quantile_half.T
    for alpha in CALIBRATION_ALPHAS:
        u = pw.calibrate_u_alpha(nulls, w, alpha)
        probs = u * np.exp(-w)
        thresholds = [pw.empirical_quantile(c, p) for c, p in zip(cols, probs)]
        yield u, np.array(thresholds)


def digest_lines():
    """The numpy version line, then one 'name count sha256' line per output."""
    out = {
        name: Digest()
        for name in (
            "make_dataset",
            "estimate_coefficients",
            "pair_cascade",
            "simulate_null_stats",
            "coefficient_matrix",
            "run_multiple_test",
            "decisions",
            "run_single_test",
            "gaue_grid",
            "calibrate_u_alpha",
            "thresholds",
        )
    }
    for name in pw.DATASET_NAMES:
        for T in HORIZONS:
            for s in SEEDS:
                for k in (0, 1, 7):
                    seq = np.random.SeedSequence(s, spawn_key=(k,))
                    parents, children = pw.make_dataset(pw.DatasetId(name), T, seq)
                    out["make_dataset"].add(parents.times, children.times)
    for name, T, seed, parents, children in datasets():
        grid = pw.gaue_grid(parents, children, T, 0.05)
        out["gaue_grid"].add(
            np.array([g.x_t for g in grid]),
            np.array([(g.m0_hat, g.sigma_hat, g.delta) for g in grid]),
            np.array([g.reject for g in grid]),
        )
        sp, observed, window = pw.scale_clip(parents, children, SCALE)
        if sp.count() == 0:
            continue
        m = observed.count()
        rng = np.random.default_rng(seed)
        for idx in FAMILIES:
            out["estimate_coefficients"].add(
                pw.estimate_coefficients(sp, observed, idx).beta_hat
            )
            out["pair_cascade"].add(pw.pair_cascade(observed, sp, idx))
            for B in (2, 200):
                nulls = pw.simulate_null_stats(sp, m, idx, B, window, seed)
                out["simulate_null_stats"].add(nulls.stats)
            for cols in (0, 7, 40):
                samples = boundary_samples(sp.times, 7, cols, idx.j0, rng)
                beta = pw.coefficient_matrix(sp, samples, idx)
                out["coefficient_matrix"].add(beta)
        if seed == 0 and T == 2.0:
            for idx in CALIBRATION_FAMILIES:
                for B in CALIBRATION_BS:
                    nulls = pw.simulate_null_stats(sp, m, idx, B, window, 1)
                    if B == 20000 and idx.side == pw.TWO_SIDED:
                        out["simulate_null_stats"].add(nulls.stats)
                    for u, thresholds in calibrations(nulls):
                        out["calibrate_u_alpha"].add(np.array([u]))
                        out["thresholds"].add(thresholds)
        cfg = pw.TestConfig(B=2000)
        o = pw.run_multiple_test(parents, children, cfg, seed=seed)
        out["run_multiple_test"].add(
            np.array([o.reject, o.no_information]),
            np.array([o.u_alpha]),
            o.beta_hat,
            o.t_stat,
            o.thresholds,
            o.single_reject,
            np.array([o.n_parents, o.m_children]),
        )
        out["decisions"].add(np.array([o.reject]), o.single_reject, np.array([o.u_alpha]))
        decisions = [
            pw.run_single_test(ix, parents, children, cfg, seed=seed)
            for ix in SINGLE_INDICES
        ]
        out["run_single_test"].add(np.array(decisions))
    # Short horizons, below and around the finest support width 2^-5: x and
    # x - T then meet the same support.
    rng = np.random.default_rng(0)
    for T in (2.0**-7, 0.01, 0.125, 0.75):
        parents = pw.EventTrain(np.sort(rng.uniform(0.0, T, 5)), pw.Window(0.0, T))
        for idx in FAMILIES:
            samples = boundary_samples(parents.times, 50, 30, idx.j0, rng)
            beta = pw.coefficient_matrix(parents, samples, idx)
            out["coefficient_matrix"].add(beta)
    return [f"numpy {np.__version__}"] + [
        f"{name} {d.count} {d.sha.hexdigest()}" for name, d in out.items()
    ]


if __name__ == "__main__":
    print("\n".join(digest_lines()))
