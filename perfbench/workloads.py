"""Benchmark workloads: inputs drawn from the seed, the timed op, and its checks.

Each workload exposes ``op(i)`` (the call that is timed), ``sanity(i, result)``
(cheap output checks run after every op) and ``verify(i, result, tracer)``,
which replays op i step by step through the same public calls that
``run_multiple_test`` and the experiment driver make, recording one span per
call, and compares the replay with the op's output. Parameters live in
``workloads.json`` next to this file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import ppwave as pw
from checks import check_coincidences, check_outcome, naive_beta_hat, scaled_child_count

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())

ROOT_SPAN = "replay"
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def slot_matrix_bytes(B: int, j0: int) -> int:
    """Computed size of one (B, 2^(j0+3)+1) float64 slot-count matrix."""
    return B * (2 ** (j0 + 3) + 1) * 8


def replay_wavelet(parents, children, cfg: pw.TestConfig, seed, tracer, rid) -> dict:
    """run_multiple_test taken apart into its public calls, one span per call."""
    idx = pw.IndexSet(cfg.j0, cfg.side)
    with tracer.span("process.scale_clip", rid):
        sp = pw.scale_train(parents, cfg.scale)
        sc = pw.scale_train(children, cfg.scale)
        analysis = pw.Window(-1.0, sp.window.hi + 1.0)
        keep = (sc.times >= analysis.lo) & (sc.times <= analysis.hi)
        observed = pw.EventTrain(sc.times[keep], analysis)
    m = observed.count()
    if parents.count() == 0 or m == 0:
        return {"reject": False, "u_alpha": cfg.alpha, "no_information": True}
    with tracer.span("coefficients.estimate_coefficients", rid):
        coef = pw.estimate_coefficients(sp, observed, idx)
    with tracer.span(
        "adaptive.simulate_null_stats",
        rid,
        draws=cfg.B * m,
        slot_bytes=slot_matrix_bytes(cfg.B, cfg.j0),
    ):
        nulls = pw.simulate_null_stats(sp, m, idx, cfg.B, analysis, seed)
    with tracer.span("adaptive.aggregation_weights", rid):
        weights = pw.aggregation_weights(idx)
    with tracer.span("adaptive.calibrate_u_alpha", rid) as rec:
        u_alpha = pw.calibrate_u_alpha(nulls, weights, cfg.alpha)
    rec["counts"]["clamped"] = int(u_alpha == cfg.alpha)
    with tracer.span("adaptive.empirical_quantile", rid):
        sorted_q = np.sort(nulls.quantile_half, axis=0)
        probs = u_alpha * np.exp(-weights)
        thresholds = np.array(
            [pw.empirical_quantile(sorted_q[:, p], probs[p]) for p in range(idx.size)]
        )
    return {
        "reject": bool(np.any(coef.t_stat > thresholds)),
        "u_alpha": u_alpha,
        "beta_hat": coef.beta_hat,
        "thresholds": thresholds,
        "no_information": False,
    }


def _test_config(params: dict) -> pw.TestConfig:
    return pw.TestConfig(
        alpha=params["alpha"],
        j0=params["j0"],
        side=params["side"],
        B=params["B"],
        scale=params["scale"],
    )


class ReplicateWorkload:
    """Closed loop over the level or power driver, one R-replicate call per op."""

    def __init__(self, name: str, params: dict, seed: int, tracer):
        self.entry = getattr(pw, SPEC[name]["entry"])
        self.params = params
        self.seed = seed
        self.test_cfg = _test_config(params)
        self.replicates_per_op = len(params["datasets"]) * params["R_per_op"]

    def config(self, i: int) -> pw.ExperimentConfig:
        p = self.params
        master = np.random.SeedSequence([self.seed, i]).generate_state(1, np.uint64)
        return pw.ExperimentConfig(
            datasets=tuple(p["datasets"]),
            methods=tuple(p["methods"]),
            alpha=p["alpha"],
            R=p["R_per_op"],
            B=p["B"],
            j0=p["j0"],
            side=p["side"],
            T=p["T"],
            scale=p["scale"],
            master_seed=int(master[0]),
            workers=p["workers"],
        )

    def op(self, i: int):
        return self.entry(self.config(i))

    def sanity(self, i: int, report) -> list[str]:
        cfg = report.config
        fails = []
        for name in cfg.datasets:
            for method in cfg.methods:
                summaries = ("min", "median", "max") if method == "gaue" else ("",)
                for label in summaries:
                    rate = report.rate(name, method, label)
                    if not 0.0 <= rate <= 1.0:
                        fails.append(f"{name}/{method}{label} rate {rate} outside [0; 1]")
            if "wavelet" in cfg.methods and not (
                cfg.alpha <= report.u_alpha_min[name] <= report.u_alpha_max[name] <= 1.0
            ):
                fails.append(f"{name}: u_alpha range outside [alpha; 1]")
            if "gaue" in cfg.methods and len(report.gaue_delta_rates[name]) != len(
                pw.DELTA_GRID
            ):
                fails.append(f"{name}: coincidence rates do not cover the delay grid")
        return fails

    def verify(self, i: int, report, tracer) -> list[str]:
        """Replay every replicate of op i with spans; compare with the driver."""
        cfg = self.config(i)
        methods = cfg.methods
        ks_window = pw.Window(-1.0 / cfg.scale, cfg.T + 1.0 / cfg.scale)
        fails = []
        for name in cfg.datasets:
            ds_pos = pw.DATASET_NAMES.index(name)
            recs = []
            for r in range(cfg.R):
                rid = f"{i}/{name}/{r}"
                null_key = (ds_pos, r, 1)
                rec = {}
                with tracer.span(ROOT_SPAN, rid):
                    with tracer.span("simulate.make_dataset", rid):
                        parents, children = pw.make_dataset(
                            pw.DatasetId(name),
                            cfg.T,
                            np.random.SeedSequence(cfg.master_seed, spawn_key=(ds_pos, r, 0)),
                        )
                    if "wavelet" in methods:
                        rec["wavelet"] = replay_wavelet(
                            parents,
                            children,
                            self.test_cfg,
                            np.random.SeedSequence(cfg.master_seed, spawn_key=null_key),
                            tracer,
                            rid,
                        )
                    if "ks" in methods:
                        with tracer.span("baselines.ks_test", rid):
                            rec["ks"] = pw.ks_test(children, ks_window, cfg.alpha).reject
                    if "gaue" in methods:
                        with tracer.span("baselines.gaue_grid", rid) as span:
                            grid = pw.gaue_grid(parents, children, cfg.T, cfg.alpha)
                        span["counts"]["pairs"] = sum(g.x_t for g in grid)
                        rec["gaue"] = [g.reject for g in grid]
                if "gaue" in methods:
                    fails += check_coincidences(grid, parents, children, cfg.T)
                if "wavelet" in methods:
                    outcome = pw.run_multiple_test(
                        parents,
                        children,
                        self.test_cfg,
                        seed=np.random.SeedSequence(cfg.master_seed, spawn_key=null_key),
                    )
                    beta_ref = naive_beta_hat(
                        parents, children, outcome.index_set, cfg.scale
                    )
                    fails += check_outcome(outcome, parents, children, cfg.alpha, beta_ref)
                    wav = rec["wavelet"]
                    if outcome.reject != wav["reject"] or outcome.u_alpha != wav["u_alpha"]:
                        fails.append(f"{rid}: replay differs from run_multiple_test")
                recs.append(rec)
            fails += self._compare(report, name, recs)
        return fails

    def _compare(self, report, name: str, recs: list[dict]) -> list[str]:
        """Aggregate the replayed decisions as the driver does and compare exactly."""
        fails = []
        for method in report.config.methods:
            if method == "gaue":
                per_delta = np.array([rec["gaue"] for rec in recs], dtype=float).mean(axis=0)
                if [float(x) for x in per_delta] != report.gaue_delta_rates[name]:
                    fails.append(f"{name}: replayed coincidence rates differ")
                continue
            if method == "wavelet":
                decisions = [rec["wavelet"]["reject"] for rec in recs]
            else:
                decisions = [rec[method] for rec in recs]
            if float(np.mean(decisions)) != report.rate(name, method):
                fails.append(f"{name}: replayed {method} rate differs")
        if "wavelet" in report.config.methods:
            u_values = [rec["wavelet"]["u_alpha"] for rec in recs]
            if (min(u_values), max(u_values)) != (
                report.u_alpha_min[name],
                report.u_alpha_max[name],
            ):
                fails.append(f"{name}: replayed u_alpha range differs")
        return fails


class TestWorkload:
    """Single run_multiple_test calls on inputs generated before timing.

    The datasets come from the fixed ``data_seed``: time and memory per call
    grow with the child count m, and the largest m among freshly drawn inputs
    varies by about 10% between seeds, which would swamp the peak RSS. The
    benchmark seed draws the Monte-Carlo null streams instead. Inputs are
    visited largest m first, then in a golden-ratio stride over the m ranks,
    so the warm-up op reaches the peak memory and every prefix of the loop
    samples the m distribution evenly, whatever number of ops a run completes.
    """

    replicates_per_op = 1

    def __init__(self, name: str, params: dict, seed: int, tracer):
        self.cfg = _test_config(params)
        self.seed = seed
        data_seed = params["data_seed"]
        pool = []
        for ds_name in params["datasets"]:
            ds_pos = pw.DATASET_NAMES.index(ds_name)
            for k in range(params["inputs_per_dataset"]):
                with tracer.span("simulate.make_dataset", f"input/{ds_name}/{k}"):
                    pool.append(
                        pw.make_dataset(
                            pw.DatasetId(ds_name),
                            params["T"],
                            np.random.SeedSequence([data_seed, ds_pos, k]),
                        )
                    )
        by_m = sorted(pool, key=lambda pc: scaled_child_count(*pc, self.cfg.scale))
        n = len(by_m)
        stride = round(n / GOLDEN)
        while math.gcd(stride, n) != 1:
            stride += 1
        self.inputs = [by_m[(n - 1 - i * stride) % n] for i in range(n)]
        self._beta_ref: dict[int, np.ndarray] = {}

    def _null_seed(self, i: int) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, i])

    def op(self, i: int):
        parents, children = self.inputs[i % len(self.inputs)]
        return pw.run_multiple_test(parents, children, self.cfg, seed=self._null_seed(i))

    def sanity(self, i: int, outcome) -> list[str]:
        k = i % len(self.inputs)
        parents, children = self.inputs[k]
        if k not in self._beta_ref:
            self._beta_ref[k] = naive_beta_hat(
                parents, children, outcome.index_set, self.cfg.scale
            )
        return check_outcome(outcome, parents, children, self.cfg.alpha, self._beta_ref[k])

    def verify(self, i: int, outcome, tracer) -> list[str]:
        parents, children = self.inputs[i % len(self.inputs)]
        rid = str(i)
        with tracer.span(ROOT_SPAN, rid):
            wav = replay_wavelet(
                parents, children, self.cfg, self._null_seed(i), tracer, rid
            )
        if wav["no_information"] != outcome.no_information:
            return [f"{rid}: replay and run_multiple_test disagree on no-information"]
        same = outcome.reject == wav["reject"] and outcome.u_alpha == wav["u_alpha"]
        if same and not wav["no_information"]:
            same = np.array_equal(outcome.thresholds, wav["thresholds"]) and np.array_equal(
                outcome.beta_hat, wav["beta_hat"]
            )
        return [] if same else [f"{rid}: replay differs from run_multiple_test"]


def make_workload(name: str, seed: int, tiny: bool, tracer):
    """Build a workload from its workloads.json entry (tiny shrinks it for tests)."""
    spec = SPEC[name]
    params = dict(spec["params"])
    if tiny:
        params.update(spec["tiny"])
    cls = TestWorkload if spec["entry"] == "run_multiple_test" else ReplicateWorkload
    return cls(name, params, seed, tracer), params
