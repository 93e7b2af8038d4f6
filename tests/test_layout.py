"""Package layout rules checked on the source itself."""

import ast
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
