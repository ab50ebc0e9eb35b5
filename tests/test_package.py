"""The package's public surface: every exported name resolves."""

import gridshave


def test_every_export_resolves():
    missing = [name for name in gridshave.__all__ if not hasattr(gridshave, name)]
    assert missing == []
    assert len(set(gridshave.__all__)) == len(gridshave.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from gridshave import *", namespace)
    assert set(gridshave.__all__) <= set(namespace)
