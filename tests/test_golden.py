"""scripts/digest.py regenerated against its committed output.

tests/golden/digest.txt holds the numpy version line and one SHA-256 line per
seeded numerical output. A change that moves results on purpose rewrites the
file in the same commit (see scripts/digest.py).
"""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "digest.txt"


def _digest_lines():
    path = ROOT / "scripts" / "digest.py"
    spec = importlib.util.spec_from_file_location("digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest.digest_lines()


def test_digest_matches_the_golden_lines():
    golden_version, *golden = GOLDEN.read_text().splitlines()
    installed = f"numpy {np.__version__}"
    assert golden_version == installed, (
        f"golden lines are from {golden_version}, installed is {installed}"
    )
    _, *lines = _digest_lines()
    assert [g.split()[0] for g in golden] == [line.split()[0] for line in lines]
    for line, want in zip(lines, golden):
        assert line == want, f"digest line {want.split()[0]!r} moved: {line!r}"
