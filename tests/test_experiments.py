import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import ppwave as pw
from ppwave import coefficients


def tiny_config(**kw):
    base = dict(
        datasets=("Data_0",),
        R=12,
        B=100,
        T=1.0,
        master_seed=7,
        workers=1,
    )
    base.update(kw)
    return pw.ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(R=0)
    with pytest.raises(ValueError):
        tiny_config(B=101)
    with pytest.raises(ValueError):
        tiny_config(alpha=1.0)
    with pytest.raises(ValueError):
        tiny_config(datasets=("Data_5",))
    with pytest.raises(ValueError):
        tiny_config(methods=("wavelet", "anova"))
    with pytest.raises(ValueError):
        tiny_config(methods=())
    for bad in (
        dict(scale=0.0),
        dict(T=0.0),
        dict(T=-1.0),
        dict(T=float("nan")),
        dict(T=float("inf")),
        dict(scale=float("inf")),
        dict(j0=-1),
        dict(side="bogus"),
        dict(workers=0),
        dict(workers=-3),
        dict(master_seed=-1),
        dict(R=1.5),  # counts must be integers, not floats or bools
        dict(R=12.0),
        dict(R=True),
        dict(B=100.0),
        dict(j0=3.0),
        dict(master_seed=7.0),
        dict(workers=1.0),
        dict(alpha="0.05"),  # reals must be numbers, not strings, None or bools
        dict(alpha=None),
        dict(scale=True),
        dict(T=True),
        dict(T="2"),
        dict(datasets="Data_0"),  # names: a list or tuple of distinct known names
        dict(datasets=[5]),
        dict(datasets=[]),
        dict(methods=("ks", "ks")),
        dict(datasets=("Data_0", "Data_0")),
    ):
        with pytest.raises(ValueError):
            tiny_config(**bad)
    # numpy integers are accepted and stored as int, as JSON needs them
    counts = dict(
        R=np.int64(12), B=np.int32(100), j0=np.int64(2), master_seed=np.int64(7),
        workers=np.int8(1),
    )
    cfg = tiny_config(**counts)
    assert cfg.R == 12
    for name in counts:
        assert type(getattr(cfg, name)) is int, name
    assert type(cfg.B) is int and type(cfg.j0) is int
    assert type(pw.TestConfig(B=np.int64(200)).B) is int
    # numpy reals are accepted and stored as float
    reals = dict(alpha=np.float32(0.05), T=np.float32(2.0), scale=np.float64(50.0))
    cfg = tiny_config(**reals)
    for name in reals:
        assert type(getattr(cfg, name)) is float, name
    assert type(pw.TestConfig(j0=np.int64(2)).j0) is int
    assert type(pw.IndexSet(np.int64(2)).j0) is int


def test_config_rejects_horizon_within_the_delay_grid():
    # the coincidence test needs every delay of the grid inside (0; T)
    with pytest.raises(ValueError, match="T = 0.035"):
        tiny_config(T=0.035)
    with pytest.raises(ValueError, match="T = 0.04"):
        tiny_config(T=max(pw.DELTA_GRID))
    assert tiny_config(T=0.035, methods=("wavelet", "ks")).T == 0.035


def test_config_is_a_test_config():
    cfg = tiny_config(alpha=0.1, j0=2, side=pw.NONNEG, B=40, scale=25.0)
    assert isinstance(cfg, pw.TestConfig)
    test = pw.TestConfig(alpha=0.1, j0=2, side=pw.NONNEG, B=40, scale=25.0)
    for f in dataclasses.fields(pw.TestConfig):
        assert getattr(cfg, f.name) == getattr(test, f.name), f.name
    config = json.loads(pw.ExperimentReport([], cfg, 0.0).to_json())["config"]
    assert "test_config" not in config and "index_set" not in config


def test_level_requires_null_dataset():
    with pytest.raises(ValueError):
        pw.run_level_experiment(tiny_config(datasets=("Data_10",)))


def test_report_structure():
    report = pw.run_level_experiment(tiny_config())
    methods = [(r.method, r.delta_summary) for r in report.rows]
    assert methods == [
        ("wavelet", ""),
        ("ks", ""),
        ("gaue", "min"),
        ("gaue", "median"),
        ("gaue", "max"),
    ]
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "dataset,method,delta_summary,rate,ci_halfwidth,R"
    assert len(lines) == 6
    assert len(report.gaue_delta_rates["Data_0"]) == 40
    for row in report.rows:
        assert 0.0 <= row.rate <= 1.0
        assert row.ci_halfwidth == pytest.approx(
            1.96 * np.sqrt(row.rate * (1 - row.rate) / row.R)
        )
    assert report.u_alpha_min["Data_0"] >= 0.05


def test_rates_reduce_the_records(tmp_path):
    cfg = tiny_config(datasets=("Data_0", "Data_80"), R=5, B=40)
    report = pw.run_power_experiment(cfg)
    for row in report.rows:
        if row.method == "gaue":
            per_delta = report.gaue_delta_rates[row.dataset]
            summary = dict(
                min=min(per_delta), median=np.median(per_delta), max=max(per_delta)
            )
            assert row.rate == summary[row.delta_summary]
        else:  # a count of rejections over R
            assert row.rate == round(row.rate * cfg.R) / cfg.R
    keys = ("gaue_delta_rates", "u_alpha_min", "u_alpha_max")
    sidecar = tuple(getattr(report, key) for key in keys)
    for per_dataset in sidecar:
        assert set(per_dataset) == set(cfg.datasets)
    assert all(len(r) == 40 for r in report.gaue_delta_rates.values())
    floats = [x for r in report.gaue_delta_rates.values() for x in r]
    floats += [*report.u_alpha_min.values(), *report.u_alpha_max.values()]
    assert all(type(x) is float for x in floats)
    _, json_path = pw.write_report(report, str(tmp_path / "out.csv"))
    payload = json.loads(Path(json_path).read_text())
    assert tuple(payload[key] for key in keys) == sidecar


def test_report_json_sidecar_roundtrip(tmp_path):
    report = pw.run_level_experiment(tiny_config())
    csv_path, json_path = pw.write_report(report, str(tmp_path / "out.csv"))
    payload = json.loads(Path(json_path).read_text())
    assert payload["config"]["R"] == 12
    assert payload["rows"][0]["dataset"] == "Data_0"
    assert "wall_time_s" in payload
    assert Path(csv_path).read_text() == report.to_csv()
    # each JSON row holds the CSV's six columns, the derived halfwidth included
    columns = report.to_csv().split("\n")[0].split(",")
    assert [f.name for f in dataclasses.fields(report.rows[0])] == [
        "dataset", "method", "delta_summary", "rate", "R"
    ]
    assert len(payload["rows"]) == len(report.rows) == 5
    for row, sidecar in zip(report.rows, payload["rows"]):
        assert sidecar == {name: getattr(row, name) for name in columns}
        assert type(row.ci_halfwidth) is float


def test_report_json_with_numpy_counts(tmp_path):
    cfg = tiny_config(
        R=np.int64(2), B=np.int32(100), j0=np.int64(2), master_seed=np.int64(7),
        workers=np.int64(1), methods=["wavelet", "ks"], datasets=["Data_0"],
        alpha=np.float32(0.05), T=np.float32(1.0), scale=np.float32(50.0),
    )
    report = pw.run_level_experiment(cfg)
    _, json_path = pw.write_report(report, str(tmp_path / "out.csv"))
    config = json.loads(Path(json_path).read_text())["config"]
    assert {k: config[k] for k in ("R", "B", "j0", "master_seed", "workers")} == {
        "R": 2, "B": 100, "j0": 2, "master_seed": 7, "workers": 1
    }
    assert config["T"] == 1.0 and config["scale"] == 50.0
    assert config["alpha"] == float(np.float32(0.05))
    assert pw.ExperimentConfig(**config) == cfg
    assert hash(pw.ExperimentConfig(**config)) == hash(cfg)


def test_thread_count_does_not_change_report():
    a = pw.run_level_experiment(tiny_config(workers=1))
    b = pw.run_level_experiment(tiny_config(workers=3))
    assert a.to_csv() == b.to_csv()


def test_pool_processes_run_the_kernel_on_one_thread():
    # the pool fills the CPUs, so a kernel call that would take helpers in
    # a process of its own (73 blocks at B=20000, m=119, j0=3) takes none in
    # a pool process
    geometry = (20000, 275, 119, np.zeros((65, 30)))
    seen = []

    class Pool(ProcessPoolExecutor):
        def map(self, *args, **kwargs):
            seen.append(self.submit(coefficients._workers, *geometry).result(60))
            return super().map(*args, **kwargs)

    with mock.patch.object(coefficients, "available_cpus", lambda: 4):
        assert coefficients._workers(*geometry) == 4
        with mock.patch("concurrent.futures.ProcessPoolExecutor", Pool):
            pw.run_level_experiment(tiny_config(workers=2))
    assert seen == [1]


def test_default_pool_has_one_process_per_cpu_of_the_affinity_mask():
    # os.cpu_count() counts the host's CPUs, not those this process may use
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started for a single worker")

    one_cpu = mock.patch("os.sched_getaffinity", lambda pid: {0}, create=True)
    with one_cpu, mock.patch("concurrent.futures.ProcessPoolExecutor", no_pool):
        report = pw.run_level_experiment(tiny_config(workers=None))
    assert report.to_csv() == pw.run_level_experiment(tiny_config()).to_csv()

    # and no more processes than replicates: none for one replicate
    sizes = []

    class Pool:  # records its size, then runs the tasks in this process
        def __init__(self, workers):
            sizes.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    for R, pool in ((1, no_pool), (2, Pool)):
        with mock.patch("concurrent.futures.ProcessPoolExecutor", pool):
            report = pw.run_level_experiment(tiny_config(R=R, workers=4))
        assert report.to_csv() == pw.run_level_experiment(tiny_config(R=R)).to_csv()
    assert sizes == [2]


def test_replicate_seeds_independent_of_dataset_list():
    a = pw.run_power_experiment(
        tiny_config(datasets=("Data_80",), methods=("wavelet",))
    )
    b = pw.run_power_experiment(
        tiny_config(datasets=("Data_30", "Data_80"), methods=("wavelet",))
    )
    assert a.rate("Data_80", "wavelet") == b.rate("Data_80", "wavelet")


def test_rate_lookup_raises_on_missing():
    report = pw.run_level_experiment(tiny_config(methods=("ks",)))
    assert 0.0 <= report.rate("Data_0", "ks") <= 1.0
    with pytest.raises(KeyError):
        report.rate("Data_0", "wavelet")


def test_power_experiment_runs_signal_dataset():
    report = pw.run_power_experiment(
        pw.ExperimentConfig(
            datasets=("Data_80",),
            methods=("wavelet",),
            R=20,
            B=200,
            T=1.0,
            master_seed=11,
            workers=1,
        )
    )
    assert report.rate("Data_80", "wavelet") >= 0.8
