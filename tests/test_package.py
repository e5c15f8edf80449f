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


def test_every_public_autodiff_function_has_a_caller():
    # an op nothing in the package calls is surface to keep and test for no use: delete it instead
    package = Path(prototta.__file__).parent
    autodiff = ast.parse((package / "autodiff.py").read_text(encoding="utf-8"))
    public = {n.name: n for n in autodiff.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")}
    called = set()
    for path in sorted(package.glob("*.py")):
        tree = autodiff if path.name == "autodiff.py" else ast.parse(path.read_text(encoding="utf-8"))
        # names bound to autodiff's functions, and names bound to the module itself
        direct = {name: name for name in public} if tree is autodiff else {}
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "autodiff":
                direct.update({alias.asname or alias.name: alias.name for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names if alias.name == "autodiff")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = direct.get(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
                name = func.attr
            else:
                continue
            own = public.get(name)
            if own is not None and not (tree is autodiff and own.lineno <= node.lineno <= own.end_lineno):
                called.add(name)
    assert sorted(set(public) - called) == []
