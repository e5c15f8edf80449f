"""The package's public names and source layout."""

from __future__ import annotations

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
