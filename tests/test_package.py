"""The package's public names."""

from __future__ import annotations

import prototta


def test_every_exported_name_resolves_once():
    names = prototta.__all__
    assert len(set(names)) == len(names), sorted({n for n in names if names.count(n) > 1})
    assert [n for n in names if not hasattr(prototta, n)] == []
    namespace: dict = {}
    exec("from prototta import *", namespace)
    assert set(names) <= set(namespace)
