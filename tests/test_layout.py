"""Package layout rules checked on the source itself."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import ppwave

PACKAGE = Path(ppwave.__file__).parent


def test_no_module_imports_another_modules_private_name():
    # each module reaches the others through public names only
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith("ppwave")
            for alias in node.names:
                if internal and alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert offenders == []


def test_package_exports_the_union_of_module_export_lists():
    # each module's __all__ is its one export list; the package adds no other
    declared = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"ppwave.{path.stem}")
            declared.update(getattr(module, "__all__", ()))
    exported = {
        name
        for name, value in vars(ppwave).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == declared
    assert sorted(ppwave.__all__) == sorted(declared)


def test_every_export_has_a_user():
    # an exported name must be used outside its own module: by another
    # module, a test, a script, the benchmark or README
    root = Path(__file__).resolve().parents[1]
    corpus = [root / "README.md"] + [
        path
        for top in ("tests", "scripts", "perfbench")
        for path in (root / top).rglob("*.py")
    ]
    texts = [path.read_text() for path in corpus]
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"ppwave.{path.stem}")
        elsewhere = texts + [
            other.read_text() for other in PACKAGE.glob("*.py") if other != path
        ]
        for name in getattr(module, "__all__", ()):
            if not any(re.search(rf"\b{name}\b", text) for text in elsewhere):
                unused.append(f"{path.stem}.{name}")
    assert unused == []


def test_every_export_has_a_caller_outside_tests():
    # an exported name must be loaded, as a name or an attribute, by code
    # outside the tests: the package itself, a script or the benchmark. A
    # name only tests call is dead code
    root = Path(__file__).resolve().parents[1]
    loaded = set()
    for top in (PACKAGE, root / "scripts", root / "perfbench"):
        for path in top.rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                if isinstance(node, ast.Name):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute):
                    loaded.add(node.attr)
    assert sorted(set(ppwave.__all__) - loaded) == []


def test_only_as_number_words_a_numeric_range():
    # haar.as_number is the one rule of numeric settings: no other ValueError
    # message in the package words a bound or the finiteness of one value
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rule = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "as_number"
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            call = getattr(node, "exc", None)
            if not (isinstance(node, ast.Raise) and isinstance(call, ast.Call)):
                continue
            if getattr(call.func, "id", None) != "ValueError" or id(node) in rule:
                continue
            text = "".join(
                part.value
                for part in ast.walk(call)
                if isinstance(part, ast.Constant) and isinstance(part.value, str)
            )
            if any(word in text for word in ("must be >", "must be <", "and finite")):
                offenders.append(f"{path.name}:{node.lineno}: {text}")
    assert offenders == []


def test_import_loads_no_process_pool():
    # the process pool is imported where a run uses more than one worker, so
    # an import of ppwave and a kernel call, paid by every CLI call and
    # benchmark set-up, load neither multiprocessing nor concurrent.futures
    # (numpy loads neither)
    code = (
        "import sys, numpy, ppwave as pw; "
        "w = pw.Window(0.0, 2.0); "
        "pw.estimate_coefficients(pw.EventTrain(numpy.array([0.5]), w), "
        "pw.EventTrain(numpy.array([0.7]), w), pw.IndexSet(3)); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert run.stdout.strip() == "[]"
