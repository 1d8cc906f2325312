"""The core package stays pure standard library."""

import ast
import sys
from pathlib import Path

import ppshift

SOURCES = sorted(Path(ppshift.__file__).parent.glob("*.py"))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_core_imports_only_relative_or_stdlib_modules():
    assert SOURCES
    outside = [
        (path.name, lineno, name)
        for path in SOURCES
        for lineno, name in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
