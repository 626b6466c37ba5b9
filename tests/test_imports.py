"""lassokit depends on the standard library only."""

import ast
import pathlib
import sys

import lassokit

SOURCES = sorted(pathlib.Path(lassokit.__file__).parent.glob("*.py"))


def test_absolute_imports_are_stdlib():
    assert len(SOURCES) > 1
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []
