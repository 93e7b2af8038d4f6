import json
from pathlib import Path

import numpy as np
import pytest

import ppwave as pw
from ppwave.cli import _experiment_config, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def simulate_files(tmp_path, capsys, dataset="Data_80", T="2", seed="7"):
    pfile = str(tmp_path / "p.txt")
    cfile = str(tmp_path / "c.txt")
    run_cli(
        capsys,
        "simulate",
        "--dataset",
        dataset,
        "--T",
        T,
        "--seed",
        seed,
        "--out-parents",
        pfile,
        "--out-children",
        cfile,
    )
    return pfile, cfile


def test_simulate_writes_event_files(tmp_path, capsys):
    pfile, cfile = simulate_files(tmp_path, capsys)
    parents = pw.read_events(pfile)
    children = pw.read_events(cfile)
    assert parents.window == pw.Window(0.0, 2.0)
    assert children.window == pw.Window(-1.0, 3.0)
    ref_p, ref_c = pw.make_dataset(
        pw.DatasetId("Data_80"), 2.0, np.random.SeedSequence(7, spawn_key=(0,))
    )
    assert np.array_equal(parents.times, ref_p.times)
    assert np.array_equal(children.times, ref_c.times)


def test_wavelet_test_output(tmp_path, capsys):
    pfile, cfile = simulate_files(tmp_path, capsys)
    out = run_cli(
        capsys,
        "test",
        "--parents",
        pfile,
        "--children",
        cfile,
        "--B",
        "600",
        "--seed",
        "3",
    )
    lines = out.strip().split("\n")
    assert lines[0] == "decision: reject"  # Data_80 at T=2 is a strong signal
    assert lines[1].startswith("u_alpha: ")
    assert lines[2] == (
        "j,k,beta_hat,t_stat,threshold,reject,"
        "position_original_time,range_original_time"
    )
    assert len(lines) == 3 + 30
    first = lines[3].split(",")
    assert first[0] == "0" and first[1] == "-1"


def test_coeffs_only_output(tmp_path, capsys):
    pfile, cfile = simulate_files(tmp_path, capsys)
    out = run_cli(
        capsys, "test", "--parents", pfile, "--children", cfile, "--coeffs-only"
    )
    lines = out.strip().split("\n")
    assert lines[0] == "j,k,beta_hat,t_stat"
    assert len(lines) == 1 + 30
    # beta_hat for (0, 0) should be close to -0.8 on this dataset
    row = [l for l in lines[1:] if l.startswith("0,0,")][0]
    assert float(row.split(",")[2]) < -0.4


def test_ks_and_gaue_methods(tmp_path, capsys):
    pfile, cfile = simulate_files(tmp_path, capsys, dataset="Data_0")
    out = run_cli(
        capsys, "test", "--method", "ks", "--parents", pfile, "--children", cfile
    )
    assert "d_stat:" in out and "p_value:" in out and "decision:" in out

    out = run_cli(
        capsys,
        "test",
        "--method",
        "gaue",
        "--delta",
        "0.01",
        "--parents",
        pfile,
        "--children",
        cfile,
    )
    lines = out.strip().split("\n")
    assert lines[0] == "delta,x_t,m0_hat,sigma_hat,reject"
    assert len(lines) == 3  # header, one delta row, decision

    out = run_cli(
        capsys,
        "test",
        "--method",
        "gaue",
        "--parents",
        pfile,
        "--children",
        cfile,
    )
    assert len(out.strip().split("\n")) == 42


@pytest.mark.parametrize(
    "mode",
    [
        ("--method", "wavelet"),
        ("--coeffs-only",),
        ("--method", "ks"),
        ("--method", "gaue"),
    ],
)
def test_parent_window_must_start_at_zero(tmp_path, capsys, mode):
    pfile, cfile = simulate_files(tmp_path, capsys)
    bad = tmp_path / "p_shifted.txt"
    bad.write_text("# window 0.5 2.0\n0.7\n1.2\n")
    code = main(["test", "--parents", str(bad), "--children", cfile, *mode])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "ppwave test: error: parent train must be observed on [0; T]\n"
    )


# Invalid settings and unreadable files -> (invocation, part of the message);
# {name} fields are filled per test.
INVALID_INVOCATIONS = {
    "odd-B": ("test --parents {p} --children {c} --B 3", "B must be an even"),
    "ks-odd-B": (
        "test --parents {p} --children {c} --method ks --B 3",
        "B must be an even",
    ),
    "missing-file": ("test --parents {missing} --children {c}", "No such file"),
    "gaue-delta": (
        "test --parents {p} --children {c} --method gaue --delta 5",
        "delta must be > 0 and < 2.0 and finite, got 5.0",
    ),
    "delta-without-gaue": (
        "test --parents {p} --children {c} --delta 0.01",
        "--delta applies only to --method gaue",
    ),
    "coeffs-only-ks": (
        "test --parents {p} --children {c} --coeffs-only --method ks",
        "--coeffs-only applies only to --method wavelet",
    ),
    "coeffs-only-gaue": (
        "test --parents {p} --children {c} --coeffs-only --method gaue",
        "--coeffs-only applies only to --method wavelet",
    ),
    "ks-alpha": (
        "test --parents {p} --children {c} --method ks --alpha 1.5",
        "alpha must be > 0 and < 1 and finite, got 1.5",
    ),
    "level-T": ("level --R 1 --T 0", "T must be > 0"),
    "level-T-nan": ("level --R 1 --T nan", "T must be > 0 and finite, got nan"),
    "simulate-T-nan": (
        "simulate --dataset Data_0 --T nan --out-parents {p} --out-children {c}",
        "T must be > 0 and finite, got nan",
    ),
    "test-scale-inf": (
        "test --parents {p} --children {c} --scale inf",
        "scale must be > 0 and finite, got inf",
    ),
    "level-gaue-T": ("level --R 1 --T 0.035", "T = 0.035 must exceed"),
    "level-workers": ("level --R 1 --workers -3", "workers must be >= 1"),
    "simulate-seed": (
        "simulate --dataset Data_0 --seed -1 --out-parents {p} --out-children {c}",
        "--seed must be >= 0, got -1",
    ),
    "test-seed": (
        "test --parents {p} --children {c} --seed -1",
        "--seed must be >= 0, got -1",
    ),
    "level-seed": ("level --R 1 --seed -1", "master_seed must be >= 0, got -1"),
    "level-no-null": ("level --R 1 --datasets Data_80", "must include Data_0"),
    "config-key": ("level --config {bogus}", "unknown config keys ['bogus', 'extra']"),
    "config-not-object": ("level --config {scalar}", "config must be a JSON object"),
    "config-alpha-list": ("level --config {alpha_list}", "alpha must be a number"),
    "config-R-string": ("power --config {R_string}", "R must be an integer"),
    "missing-config": ("power --config {missing}", "No such file"),
    "unwritable-out": (
        "level --R 1 --B 100 --workers 1 --methods ks --out {missing}/level.csv",
        "No such file",
    ),
    "events-two-per-line": (
        "test --parents {p} --children {two_per_line}",
        "two_per_line.txt:3: could not convert string to float: '1.0 2.0'",
    ),
    "events-non-finite": (
        "test --parents {p} --children {non_finite}",
        "non_finite.txt: times must be finite",
    ),
    "events-outside-window": (
        "test --parents {outside_window} --children {c}",
        "outside_window.txt: times must lie in [0.0; 2.0]",
    ),
    # the parsers' own errors take the same one-line path
    "B-not-int": (
        "test --parents {p} --children {c} --B abc",
        "argument --B: invalid int value: 'abc'",
    ),
    "level-T-not-float": ("level --R 1 --T x", "argument --T: invalid float value: 'x'"),
    "level-dataset-choice": (
        "level --R 1 --datasets Data_9",
        "argument --datasets: invalid choice: 'Data_9'",
    ),
    "test-side-choice": (
        "test --parents {p} --children {c} --side both",
        "argument --side: invalid choice: 'both'",
    ),
    "test-method-choice": (
        "test --parents {p} --children {c} --method foo",
        "argument --method: invalid choice: 'foo'",
    ),
    "simulate-dataset-choice": (
        "simulate --dataset X --out-parents {p} --out-children {c}",
        "argument --dataset: invalid choice: 'X'",
    ),
    "test-missing-children": (
        "test --parents {p}",
        "the following arguments are required: --children",
    ),
    "level-unknown-flag": ("level --R 1 --bogus", "unrecognized arguments: --bogus"),
}


# --config file contents, written per test under their {name}.
CONFIG_FILES = {
    "bogus": {"R": 2, "extra": 2, "bogus": 1},
    "scalar": 5,
    "alpha_list": {"alpha": [1]},
    "R_string": {"R": "5"},
}

# Malformed event files, written per test under their {name}.
EVENT_FILES = {
    "two_per_line": "# window -1.0 3.0\n0.5\n1.0 2.0\n",
    "non_finite": "# window -1.0 3.0\n0.5\ninf\n",
    "outside_window": "# window 0.0 2.0\n0.5\n2.5\n",
}


@pytest.mark.parametrize(
    "invocation, message",
    INVALID_INVOCATIONS.values(),
    ids=INVALID_INVOCATIONS.keys(),
)
def test_invalid_settings_exit_2_with_one_error_line(
    tmp_path, capsys, invocation, message
):
    pfile, cfile = simulate_files(tmp_path, capsys)
    paths = {"p": pfile, "c": cfile, "missing": tmp_path / "missing"}
    for name, config in CONFIG_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(config))
    for name, text in EVENT_FILES.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    argv = [arg.format(**paths) for arg in invocation.split()]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"ppwave {argv[0]}: error: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
    ],
    ids=["no-command", "unknown-command"],
)
def test_parser_errors_without_a_command_name_the_program(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"ppwave: error: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_level_command_with_config_and_out(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "R": 6,
                "B": 100,
                "T": 1.0,
                "master_seed": 5,
                "workers": 1,
                "methods": ["wavelet", "ks"],
            }
        )
    )
    out_path = str(tmp_path / "level.csv")
    out = run_cli(capsys, "level", "--config", str(cfg_path), "--out", out_path)
    assert out.startswith("dataset,method,delta_summary,rate,ci_halfwidth,R")
    written = Path(out_path).read_text()
    assert written == out
    sidecar = json.loads((tmp_path / "level.json").read_text())
    assert sidecar["config"]["B"] == 100
    # the sidecar's config is itself a --config file for the same run
    sidecar_path = tmp_path / "sidecar.json"
    sidecar_path.write_text(json.dumps(sidecar["config"]))
    assert run_cli(capsys, "level", "--config", str(sidecar_path)) == out


def test_power_command_flags(tmp_path, capsys):
    out = run_cli(
        capsys,
        "power",
        "--datasets",
        "Data_80",
        "--methods",
        "wavelet",
        "--R",
        "5",
        "--B",
        "100",
        "--T",
        "1",
        "--seed",
        "9",
        "--workers",
        "1",
        "--j0",
        "2",
        "--side",
        "nonneg",
        "--alpha",
        "0.1",
        "--out",
        str(tmp_path / "power.csv"),
    )
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("Data_80,wavelet,")
    # every flag reaches the ExperimentConfig field of its name
    config = json.loads((tmp_path / "power.json").read_text())["config"]
    expected = dict(
        datasets=["Data_80"],
        methods=["wavelet"],
        R=5,
        B=100,
        T=1.0,
        master_seed=9,
        workers=1,
        j0=2,
        side="nonneg",
        alpha=0.1,
    )
    assert {name: config[name] for name in expected} == expected


def test_paper_scale_preset_plumbing():
    class Args:
        config = None
        R = None
        B = None
        j0 = None
        side = None
        T = None
        alpha = None
        seed = None
        datasets = None
        methods = None
        workers = None
        paper_scale = True
        out = None

    level_cfg = _experiment_config(Args(), "level")
    assert level_cfg.R == 5000 and level_cfg.B == 20000
    power_cfg = _experiment_config(Args(), "power")
    assert power_cfg.R == 1000 and power_cfg.B == 20000
    assert power_cfg.datasets == pw.POWER_DATASETS

    Args.paper_scale = False
    Args.R = 77
    assert _experiment_config(Args(), "level").R == 77
