"""Replicate-level driver for the level and power benchmarks.

Each replicate draws a fresh dataset, runs the selected methods, and the
harness aggregates rejection rates with binomial confidence halfwidths.
Per-replicate seeds are pure functions of (master_seed, dataset, replicate),
so reports are bit-identical for any worker count. The coincidence test is
summarized as min/median/max of the per-delta rates over the delay grid.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .adaptive import TestConfig, run_multiple_test
from .baselines import DELTA_GRID, gaue_grid, ks_test
from .coefficients import available_cpus
from .haar import as_number
from .process import conditioning_window
from .simulate import DATASET_NAMES, DatasetId, make_dataset

__all__ = [
    "LEVEL_DATASETS",
    "METHODS",
    "POWER_DATASETS",
    "ExperimentConfig",
    "ExperimentReport",
    "run_level_experiment",
    "run_power_experiment",
    "write_report",
]

LEVEL_DATASETS = ("Data_0",)
POWER_DATASETS = (
    "Data_10",
    "Data_30",
    "Data_50",
    "Data_80",
    "Data_10r",
    "Data_30r",
    "Data_50r",
    "Data_80r",
)

METHODS = ("wavelet", "ks", "gaue")


@dataclass(frozen=True)
class ExperimentConfig(TestConfig):
    """A TestConfig plus the run's own fields; defaults are desk scale.

    Each replicate runs the test under the inherited fields, of which only B
    takes another default here (2000). Stores datasets and methods as tuples,
    T as float, R, master_seed and workers as int (or None, which means
    available_cpus() workers).
    """

    B: int = 2000
    datasets: tuple[str, ...] = LEVEL_DATASETS
    methods: tuple[str, ...] = METHODS
    R: int = 1000
    T: float = 2.0
    master_seed: int = 20260810
    workers: int | None = None

    def __post_init__(self):
        super().__post_init__()
        rules = dict(
            T=(float, dict(gt=0)), R=(int, dict(ge=1)), master_seed=(int, dict(ge=0))
        )
        if self.workers is not None:
            rules["workers"] = (int, dict(ge=1))
        for name, (kind, bounds) in rules.items():
            value = as_number(name, getattr(self, name), kind, **bounds)
            object.__setattr__(self, name, value)
        for name, known in (("datasets", DATASET_NAMES), ("methods", METHODS)):
            names = getattr(self, name)
            valid = isinstance(names, (list, tuple)) and all(n in known for n in names)
            if not valid or not names or len(set(names)) < len(names):
                raise ValueError(f"{name} must be one or more of {known}, each once")
            object.__setattr__(self, name, tuple(names))
        if "gaue" in self.methods and self.T <= max(DELTA_GRID):
            raise ValueError(
                f"T = {self.T} must exceed the largest gaue delay {max(DELTA_GRID)}"
            )


@dataclass(frozen=True)
class ReportRow:
    dataset: str
    method: str
    delta_summary: str
    rate: float
    R: int

    @property
    def ci_halfwidth(self) -> float:
        """The rate's binomial 95% confidence halfwidth."""
        return float(1.96 * np.sqrt(self.rate * (1.0 - self.rate) / self.R))


@dataclass
class ExperimentReport:
    """Aggregated rates plus sidecar detail (per-delta rates, u_alpha range)."""

    rows: list[ReportRow]
    config: ExperimentConfig
    wall_time_s: float
    gaue_delta_rates: dict[str, list[float]] = field(default_factory=dict)
    u_alpha_min: dict[str, float] = field(default_factory=dict)
    u_alpha_max: dict[str, float] = field(default_factory=dict)

    def rate(self, dataset: str, method: str, delta_summary: str = "") -> float:
        for row in self.rows:
            if (
                row.dataset == dataset
                and row.method == method
                and row.delta_summary == delta_summary
            ):
                return row.rate
        raise KeyError((dataset, method, delta_summary))

    def to_csv(self) -> str:
        lines = ["dataset,method,delta_summary,rate,ci_halfwidth,R"]
        for row in self.rows:
            lines.append(
                f"{row.dataset},{row.method},{row.delta_summary},"
                f"{row.rate:.6f},{row.ci_halfwidth:.6f},{row.R}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "config": asdict(self.config),
            "rows": [asdict(row) | {"ci_halfwidth": row.ci_halfwidth} for row in self.rows],
            "delta_grid": list(DELTA_GRID),
            "gaue_delta_rates": self.gaue_delta_rates,
            "u_alpha_min": self.u_alpha_min,
            "u_alpha_max": self.u_alpha_max,
            "wall_time_s": self.wall_time_s,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _replicate(task: tuple[ExperimentConfig, str, int]) -> dict:
    """One dataset draw plus every requested method; pure in its arguments."""
    cfg, name, r = task
    ds_pos = DATASET_NAMES.index(name)
    data_seq = np.random.SeedSequence(cfg.master_seed, spawn_key=(ds_pos, r, 0))
    parents, children = make_dataset(DatasetId(name), cfg.T, data_seq)
    out = {}
    if "wavelet" in cfg.methods:
        null_seq = np.random.SeedSequence(cfg.master_seed, spawn_key=(ds_pos, r, 1))
        outcome = run_multiple_test(parents, children, cfg, seed=null_seq)
        out["wavelet"] = outcome.reject
        out["u_alpha"] = outcome.u_alpha
    if "ks" in cfg.methods:
        # KS runs on the conditioning window, where null children are exactly
        # uniform.
        ks_window = conditioning_window(cfg.T, cfg.scale)
        out["ks"] = ks_test(children, ks_window, cfg.alpha).reject
    if "gaue" in cfg.methods:
        out["gaue"] = [
            g.reject for g in gaue_grid(parents, children, cfg.T, cfg.alpha)
        ]
    return out


def run_power_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical power run over the configured (usually non-null) datasets.

    Starts at most one pool process per replicate, and none for one replicate.
    """
    start = time.perf_counter()
    tasks = [(cfg, name, r) for name in cfg.datasets for r in range(cfg.R)]
    workers = min(cfg.workers or available_cpus(), len(tasks))
    if workers <= 1:
        results = [_replicate(t) for t in tasks]
    else:
        # Imported here: a process pool costs every import of ppwave about
        # 20 ms, and single-worker runs never use one. The kernel recognises
        # the pool's processes and runs on one thread in each (_workers).
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(workers) as pool:
            results = list(pool.map(_replicate, tasks, chunksize=chunk))

    report = ExperimentReport([], cfg, 0.0)
    for pos, name in enumerate(cfg.datasets):
        recs = results[pos * cfg.R : (pos + 1) * cfg.R]
        for method in cfg.methods:
            rate = np.mean([rec[method] for rec in recs], axis=0)  # per delay for gaue
            summary = {"": rate}
            if method == "gaue":
                report.gaue_delta_rates[name] = rate.tolist()
                summary = dict(min=rate.min(), median=np.median(rate), max=rate.max())
            for label, value in summary.items():
                report.rows.append(ReportRow(name, method, label, float(value), cfg.R))
        if "wavelet" in cfg.methods:
            report.u_alpha_min[name] = min(rec["u_alpha"] for rec in recs)
            report.u_alpha_max[name] = max(rec["u_alpha"] for rec in recs)
    report.wall_time_s = time.perf_counter() - start
    return report


def run_level_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical type-I error run; requires the null dataset Data_0."""
    if "Data_0" not in cfg.datasets:
        raise ValueError("a level experiment must include Data_0")
    return run_power_experiment(cfg)


def write_report(report: ExperimentReport, out_path: str) -> tuple[str, str]:
    """Write the CSV table and its JSON sidecar; returns both paths."""
    base = out_path[:-4] if out_path.endswith(".csv") else out_path
    csv_path = base + ".csv"
    json_path = base + ".json"
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv())
    with open(json_path, "w") as fh:
        fh.write(report.to_json())
    return csv_path, json_path
