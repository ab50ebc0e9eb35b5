"""The package's public surface: every exported name resolves."""

import os
import subprocess
import sys

import gridshave


def test_every_export_resolves():
    missing = [name for name in gridshave.__all__ if not hasattr(gridshave, name)]
    assert missing == []
    assert len(set(gridshave.__all__)) == len(gridshave.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from gridshave import *", namespace)
    assert set(gridshave.__all__) <= set(namespace)


def test_cli_import_loads_every_traced_layer():
    # a tracer that imports only gridshave.cli wraps these modules through
    # sys.modules, so importing the CLI must load each of them
    src = os.path.dirname(os.path.dirname(gridshave.__file__))
    code = ("import sys, gridshave.cli; print([m for m in ('gridshave.scenario', "
            "'gridshave.optimizer', 'gridshave.run', 'gridshave.report') "
            "if m not in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
