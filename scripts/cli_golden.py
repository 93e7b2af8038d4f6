#!/usr/bin/env python3
"""The stdout of a fixed set of seeded ppwave CLI calls.

Prints the numpy version line, then for each call a '$ ppwave ...' line
followed by the lines that call writes to stdout: simulate one dataset, test
it with the wavelet method, --coeffs-only, --method ks and --method gaue at
B=2000, and a small level run's CSV. The calls run in a temporary directory,
so the event file names in the output are relative. tests/golden/cli.txt
holds the committed output, which tests/test_golden.py regenerates; a change
that moves a CLI output on purpose rewrites it with

    PYTHONPATH=src python scripts/cli_golden.py > tests/golden/cli.txt

Takes about 1 s.
"""

import contextlib
import io
import os
import tempfile

import numpy as np

from ppwave.cli import main

FILES = ["--parents", "parents.txt", "--children", "children.txt"]
TEST = ["test", *FILES, "--B", "2000", "--seed", "3"]
CALLS = (
    ["simulate", "--dataset", "Data_80", "--T", "2", "--seed", "7",
     "--out-parents", "parents.txt", "--out-children", "children.txt"],
    [*TEST, "--method", "wavelet"],
    [*TEST, "--coeffs-only"],
    [*TEST, "--method", "ks"],
    [*TEST, "--method", "gaue"],
    ["level", "--R", "40", "--B", "200", "--T", "2", "--seed", "11",
     "--datasets", "Data_0", "Data_80", "--workers", "1"],
)


def golden_lines():
    """The numpy version line, then each call's '$ ppwave ...' line and stdout."""
    lines = [f"numpy {np.__version__}"]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in CALLS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                if code != 0:
                    raise RuntimeError(f"ppwave {' '.join(argv)} exited {code}")
                lines.append("$ ppwave " + " ".join(argv))
                lines.extend(out.getvalue().splitlines())
        finally:
            os.chdir(cwd)
    return lines


if __name__ == "__main__":
    print("\n".join(golden_lines()))
