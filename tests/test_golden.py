"""scripts/digest.py and scripts/cli_golden.py regenerated against their output.

tests/golden/digest.txt holds the numpy version line and one SHA-256 line per
seeded numerical output; tests/golden/cli.txt holds the numpy version line
and the stdout of a fixed set of CLI calls. A change that moves results on
purpose rewrites the file in the same commit (see those scripts).
"""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden(name):
    """The committed lines of tests/golden/<name>.txt, after its numpy line."""
    golden_version, *golden = (GOLDEN / f"{name}.txt").read_text().splitlines()
    installed = f"numpy {np.__version__}"
    assert golden_version == installed, (
        f"golden lines are from {golden_version}, installed is {installed}"
    )
    return golden


def test_digest_matches_the_golden_lines():
    golden = _golden("digest")
    _, *lines = _script("digest").digest_lines()
    assert [g.split()[0] for g in golden] == [line.split()[0] for line in lines]
    for line, want in zip(lines, golden):
        assert line == want, f"digest line {want.split()[0]!r} moved: {line!r}"


def test_cli_output_matches_the_golden_lines():
    golden = _golden("cli")
    _, *lines = _script("cli_golden").golden_lines()
    command = None
    for n, (line, want) in enumerate(zip(lines, golden), start=2):
        if want.startswith("$ "):
            command = want
        assert line == want, f"line {n} of cli.txt, under {command!r}, moved: {line!r}"
    assert len(lines) == len(golden), (
        f"cli.txt has {len(golden)} output lines, the CLI now writes {len(lines)}"
    )
