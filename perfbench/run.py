"""ppwave replicate benchmark.

    python3 perfbench/run.py --workload level_desk --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

Runs one workload of ``perfbench/workloads.json`` as a closed loop in this
process (``workers=1``) for ``--seconds`` and prints a report whose last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``,
measured with tracing off. With ``--trace 1`` every op is followed by a
replay through the public ppwave calls, one span per call, and the metrics are
the per-layer ones; the spans are written to ``perfbench/out/`` at the end.
The share of ops failing an output check is printed as ``failed_frac``.

The benchmark imports ppwave from ``src/`` of the checkout it sits in and
exits with an error when that source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "workloads.json").read_text())

# Spans of layers the replay calls directly, in call order.
LAYERS = (
    "simulate.make_dataset",
    "process.scale_clip",
    "coefficients.estimate_coefficients",
    "adaptive.simulate_null_stats",
    "adaptive.aggregation_weights",
    "adaptive.calibrate_u_alpha",
    "adaptive.empirical_quantile",
    "baselines.ks_test",
    "baselines.gaue_grid",
)


def _import_ppwave():
    """Import ppwave from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import ppwave

    if Path(ppwave.__file__).resolve().parent != SRC / "ppwave":
        raise SystemExit(f"error: ppwave imported from {ppwave.__file__}, not {SRC}")


def _setup(args, tracer_enabled: bool):
    """Import ppwave, build the workload's inputs and run one warm-up op."""
    start = time.perf_counter()
    _import_ppwave()
    from spans import Tracer
    from workloads import make_workload

    tracer = Tracer(enabled=tracer_enabled)
    workload, params = make_workload(args.workload, args.seed, args.tiny, tracer)
    workload.op(0)
    return time.perf_counter() - start, workload, params, tracer


def _setup_probe_s(args) -> float:
    """Set-up time measured in a fresh interpreter, so the import is included."""
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _caches() -> dict:
    """Cache sizes of CPU 0 as the kernel lists them, e.g. {"L1d": "48K"}."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[f"L{level}{suffix}"] = size
    return caches


def _context() -> dict:
    """Where the numbers come from; recorded with every run, never compared."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    revision = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            )
            revision = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    import numpy
    import ppwave

    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "src_files": len(files),
        "ppwave": ppwave.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _caches(),
    }


def _p90(lat: list[float]) -> float:
    return statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]


def _end_to_end(lat: list[float], replicates: int, setup: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "replicates_per_s": replicates / sum(lat),
        "test_latency_p50_ms": statistics.median(lat) * 1e3,
        "test_latency_p90_ms": _p90(lat) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(tracer, lat: list[float], replicates: int) -> dict:
    """Per-layer figures from the replay spans.

    ``<layer>.ms`` is the mean time per call; every layer is called once per
    replicate except make_dataset on test_paper, which runs at set-up. The
    residual is the untraced time per replicate minus the layer spans in it.
    """
    from workloads import ROOT_SPAN

    summary = tracer.summary()

    def layer(name):
        return summary.get(name, {"calls": 0, "total_ns": 0, "counts": {}})

    def per_call(name, value):
        calls = layer(name)["calls"]
        return value / calls if calls else 0.0

    roots = {s["id"] for s in tracer.spans if s["name"] == ROOT_SPAN}
    replay_ns = sum(s["end_ns"] - s["start_ns"] for s in tracer.spans if s["id"] in roots)
    in_replay_ns = sum(
        s["end_ns"] - s["start_ns"] for s in tracer.spans if s["parent"] in roots
    )
    untraced_ms = sum(lat) * 1e3 / replicates
    traced_ms = replay_ns / 1e6 / replicates
    sim = layer("adaptive.simulate_null_stats")
    draws = sim["counts"].get("draws", 0)
    out = {f"{name}.ms": per_call(name, layer(name)["total_ns"] / 1e6) for name in LAYERS}
    out.update(
        {
            "adaptive.simulate_null_stats.ns_per_draw": sim["total_ns"] / draws if draws else 0.0,
            "adaptive.null_draws": per_call("adaptive.simulate_null_stats", draws),
            "haar.slot_matrix_bytes": per_call(
                "adaptive.simulate_null_stats", sim["counts"].get("slot_bytes", 0)
            ),
            "adaptive.u_alpha_clamped_frac": per_call(
                "adaptive.calibrate_u_alpha",
                layer("adaptive.calibrate_u_alpha")["counts"].get("clamped", 0),
            ),
            "baselines.gaue_grid.pairs": per_call(
                "baselines.gaue_grid", layer("baselines.gaue_grid")["counts"].get("pairs", 0)
            ),
            "experiments.ms_per_replicate": untraced_ms,
            "experiments.residual_ms_per_replicate": untraced_ms - in_replay_ns / 1e6 / replicates,
            "trace.traced_ms_per_replicate": traced_ms,
            "trace.overhead_frac": traced_ms / untraced_ms - 1.0,
        }
    )
    return out


def _shares(tracer, lat: list[float], replicates: int) -> list[str]:
    """Self time per span name and its share of the untraced time per replicate."""
    untraced_ns = sum(lat) * 1e9 / replicates
    rows = [f"# {'span':38s} {'calls':>7s} {'self ms/call':>12s} {'share':>7s}"]
    for name, agg in sorted(tracer.summary().items()):
        share = agg["self_ns"] / replicates / untraced_ns
        rows.append(
            f"# {name:38s} {agg['calls']:7d} {agg['self_ns'] / agg['calls'] / 1e6:12.4f} "
            f"{share:7.1%}"
        )
    return rows


def _run_all(args) -> int:
    """Run every workload in a child process; print each report, then all results."""
    results = {}
    for name in SPEC:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(SPEC) + ["all"],
        help="one workload, or all of them, each in its own process",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink B and set-up repeats (smoke test)"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ppwave" / "__init__.py").is_file():
        print(f"error: no ppwave sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": _setup(args, False)[0]}))
        return 0
    if args.workload == "all":
        return _run_all(args)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    own_setup_s, workload, params, tracer = _setup(args, bool(args.trace))
    setup = [_setup_probe_s(args) for _ in range(params["setup_repeats"])]

    lat: list[float] = []
    failed = 0
    messages: list[str] = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        result = workload.op(i)
        lat.append(time.perf_counter() - t0)
        fails = workload.sanity(i, result)
        if args.trace or i < params["verify_ops"]:
            fails += workload.verify(i, result, tracer)
        if fails:
            failed += 1
            messages = (messages + fails)[:5]
        i += 1
        if time.perf_counter() >= deadline:
            break
    replicates = i * workload.replicates_per_op

    if args.trace:
        values = _per_layer(tracer, lat, replicates)
        declared = bench["per_layer"]
    else:
        values = _end_to_end(lat, replicates, setup)
        declared = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    context = _context()
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} tiny={args.tiny}")
    print(f"# params {json.dumps(params, sort_keys=True)}")
    print(f"# context {json.dumps(context, sort_keys=True)}")
    print(f"# op: {SPEC[args.workload]['op']}")
    p90 = _p90(lat)
    beyond = sum(x > p90 for x in lat)
    print(f"# ops={i} replicates={replicates} latency samples={len(lat)} "
          f"beyond p90={beyond} own set-up={own_setup_s:.4f} s "
          f"set-up samples={[round(s, 4) for s in setup]}")
    if args.trace:
        lines = _shares(tracer, lat, replicates)
        print("\n".join(lines))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        out_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(out_path, {"context": context, "params": params, "metrics": values})
        print(f"# spans written to {out_path.relative_to(ROOT)}")
    print(f"# {'metric':42s} {'value':>14s} {'unit':8s} better")
    for m in declared:
        print(f"# {m['name']:42s} {values[m['name']]:14.6g} {m['unit']:8s} {m['better']}")
    print(f"# {'failed_frac':42s} {failed / i:14.6g} {'1':8s} lower ({failed} of {i} ops)")
    for msg in messages:
        print(f"# check failed: {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": i, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
