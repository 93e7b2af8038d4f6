"""Command-line interface: simulate, test, level, power."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .adaptive import TestConfig, run_multiple_test
from .baselines import gaue_grid, gaue_test, ks_test
from .coefficients import estimate_coefficients
from .experiments import (
    LEVEL_DATASETS,
    METHODS,
    POWER_DATASETS,
    ExperimentConfig,
    run_level_experiment,
    run_power_experiment,
    write_report,
)
from .haar import NONNEG, TWO_SIDED, as_number
from .process import (
    conditioning_window,
    parent_horizon,
    read_events,
    scale_clip,
    write_events,
)
from .simulate import DATASET_NAMES, DatasetId, make_dataset


def _seed(args) -> np.random.SeedSequence:
    """Stream 0 of --seed.

    The spawn key (0,) is fixed: a given --seed must keep giving the same
    simulate files and test output.
    """
    seed = as_number("--seed", args.seed, int, ge=0)
    return np.random.SeedSequence(seed, spawn_key=(0,))


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="draw one (parents, children) dataset")
    p.add_argument("--dataset", required=True, choices=DATASET_NAMES)
    p.add_argument("--T", type=float, default=2.0, help="recording length (default 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-parents", required=True)
    p.add_argument("--out-children", required=True)
    p.set_defaults(func=_cmd_simulate)


def _cmd_simulate(args) -> int:
    parents, children = make_dataset(DatasetId(args.dataset), args.T, _seed(args))
    write_events(parents, args.out_parents)
    write_events(children, args.out_children)
    print(
        f"wrote {parents.count()} parents to {args.out_parents}, "
        f"{children.count()} children to {args.out_children}"
    )
    return 0


def _add_test(sub):
    p = sub.add_parser("test", help="test h = 0 on event files")
    p.add_argument("--parents", required=True, help="parent events on [0; T]")
    p.add_argument("--children", required=True)
    p.add_argument("--method", choices=METHODS, default="wavelet")
    p.add_argument("--alpha", type=float, default=TestConfig.alpha)
    p.add_argument("--j0", type=int, default=TestConfig.j0)
    p.add_argument("--side", choices=(TWO_SIDED, NONNEG), default=TestConfig.side)
    p.add_argument("--B", type=int, default=TestConfig.B)
    p.add_argument("--scale", type=float, default=TestConfig.scale)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, help="one gaue delay (default: the grid)")
    p.add_argument(
        "--coeffs-only",
        action="store_true",
        help="print only the coefficient table (j, k, beta_hat, t_stat)",
    )
    p.set_defaults(func=_cmd_test)


def _cmd_test(args) -> int:
    if args.delta is not None and args.method != "gaue":
        raise ValueError("--delta applies only to --method gaue")
    if args.coeffs_only and args.method != "wavelet":
        raise ValueError("--coeffs-only applies only to --method wavelet")
    seed = _seed(args)
    fields = dataclasses.fields(TestConfig)  # each stored under its field's name
    cfg = TestConfig(**{f.name: getattr(args, f.name) for f in fields})
    parents = read_events(args.parents)
    children = read_events(args.children)
    T = parent_horizon(parents)

    if args.method == "ks":
        res = ks_test(children, conditioning_window(T, cfg.scale), cfg.alpha)
        print(f"d_stat: {res.d_stat:.6f}")
        print(f"p_value: {res.p_value:.6g}")
        print(f"decision: {'reject' if res.reject else 'accept'}")
        return 0

    if args.method == "gaue":
        if args.delta is None:
            results = gaue_grid(parents, children, T, cfg.alpha)
        else:
            results = [gaue_test(parents, children, T, args.delta, cfg.alpha)]
        print("delta,x_t,m0_hat,sigma_hat,reject")
        for g in results:
            print(
                f"{g.delta:.3f},{g.x_t},{g.m0_hat:.6f},{g.sigma_hat:.6f},{int(g.reject)}"
            )
        print(f"decision: {'reject' if any(g.reject for g in results) else 'accept'}")
        return 0

    if args.coeffs_only:
        scaled_parents, observed, _ = scale_clip(parents, children, cfg.scale)
        coef = estimate_coefficients(scaled_parents, observed, cfg.index_set)
        print("j,k,beta_hat,t_stat")
        for ix, b, t in zip(
            coef.index_set.indices, coef.beta_hat, coef.t_stat
        ):
            print(f"{ix.j},{ix.k},{b:.10g},{t:.10g}")
        return 0

    outcome = run_multiple_test(parents, children, cfg, seed=seed)
    print(f"decision: {'reject' if outcome.reject else 'accept'}")
    print(f"u_alpha: {outcome.u_alpha:.6g}")
    if outcome.no_information:
        print("note: no informative events (empty parents or children)")
        return 0
    print(
        "j,k,beta_hat,t_stat,threshold,reject,"
        "position_original_time,range_original_time"
    )
    for ix, b, t, th, rej, pos, rng in zip(
        outcome.index_set.indices,
        outcome.beta_hat,
        outcome.t_stat,
        outcome.thresholds,
        outcome.single_reject,
        outcome.positions_original,
        outcome.ranges_original,
    ):
        print(
            f"{ix.j},{ix.k},{b:.10g},{t:.10g},{th:.10g},{int(rej)},"
            f"{pos:.10g},{rng:.10g}"
        )
    return 0


# command -> (help, runner, datasets, default R, paper-scale R); the
# paper-scale preset also sets B to the TestConfig default.
_EXPERIMENTS = {
    "level": ("empirical type-I error benchmark", run_level_experiment,
              LEVEL_DATASETS, 1000, 5000),
    "power": ("empirical power benchmark", run_power_experiment,
              POWER_DATASETS, 500, 1000),
}


def _add_experiment(sub, name):
    help_text, _, _, _, paper_R = _EXPERIMENTS[name]
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", help="JSON file of ExperimentConfig fields")
    # Each ExperimentConfig flag is stored under its field's name.
    p.add_argument("--R", type=int)
    p.add_argument("--B", type=int)
    p.add_argument("--j0", type=int)
    p.add_argument("--side", choices=(TWO_SIDED, NONNEG))
    p.add_argument("--T", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--seed", type=int, dest="master_seed")
    p.add_argument("--datasets", nargs="+", choices=DATASET_NAMES)
    p.add_argument("--methods", nargs="+", choices=METHODS)
    p.add_argument("--workers", type=int)
    p.add_argument(
        "--paper-scale",
        action="store_true",
        help=f"table-scale preset: R={paper_R}, B={TestConfig.B}",
    )
    p.add_argument("--out", help="output path; writes CSV plus a JSON sidecar")
    p.set_defaults(func=_cmd_experiment)


def _experiment_config(args, kind: str) -> ExperimentConfig:
    """Preset, then --config, then flags (later wins); ExperimentConfig checks them."""
    _, _, datasets, R, paper_R = _EXPERIMENTS[kind]
    names = [f.name for f in dataclasses.fields(ExperimentConfig)]
    fields: dict = {"datasets": datasets, "R": R}
    if args.paper_scale:
        fields.update(R=paper_R, B=TestConfig.B)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(loaded) - set(names))
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {unknown}")
        fields.update(loaded)
    for name in names:
        if (value := getattr(args, name, None)) is not None:
            fields[name] = value
    return ExperimentConfig(**fields)


def _cmd_experiment(args) -> int:
    run = _EXPERIMENTS[args.command][1]
    report = run(_experiment_config(args, args.command))
    if args.out:
        csv_path, json_path = write_report(report, args.out)
        print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
    sys.stdout.write(report.to_csv())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ppwave",
        description="Interaction tests for parent/child point processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_test(sub)
    for name in _EXPERIMENTS:
        _add_experiment(sub, name)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"ppwave {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
