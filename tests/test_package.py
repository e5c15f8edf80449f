"""The package's public names and source layout."""

from __future__ import annotations

import ast
from pathlib import Path

import prototta

# the longest line any module of the package may have
MAX_LINE = 123


def test_every_exported_name_resolves_once():
    names = prototta.__all__
    assert len(set(names)) == len(names), sorted({n for n in names if names.count(n) > 1})
    assert [n for n in names if not hasattr(prototta, n)] == []
    namespace: dict = {}
    exec("from prototta import *", namespace)
    assert set(names) <= set(namespace)


def test_no_source_line_is_longer_than_the_limit():
    sources = sorted(Path(prototta.__file__).parent.glob("*.py"))
    assert sources
    long = [
        f"{path.name}:{number} ({len(line)})"
        for path in sources
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long == []


def test_no_unused_imports():
    sources = [p for p in sorted(Path(prototta.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    assert sources
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} ({name})")
    assert unused == []
