"""lassokit depends on the standard library only and keeps no unreferenced
private code."""

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


def test_private_top_level_code_is_referenced():
    # a module-level _name function or class that no source refers to is
    # dead code
    defined, used = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                defined.append((path.name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(defined) > 10
    assert [f"{file}: {name}" for file, name in defined if name not in used] == []
