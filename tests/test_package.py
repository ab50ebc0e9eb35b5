"""The package's public surface: every exported name resolves."""

import ast
import importlib
import inspect
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


def test_cold_commands_load_no_dataclasses_inspect_or_numpy(tmp_path):
    # every command is a cold process, so what its imports load is paid on each run
    from gridshave.cooling import DEFAULT_COP_MODEL, cop_values
    from gridshave.regression import SAMPLES_HEADER
    from gridshave.tableio import write_table

    plr = [i / 19 for i in range(20)]
    twb = [(12.0, 20.0, 28.0)[i % 3] for i in range(20)]
    write_table(str(tmp_path / "samples.csv"), SAMPLES_HEADER,
                [plr, twb, [cop_values(p, w, DEFAULT_COP_MODEL) for p, w in zip(plr, twb)]])
    src = os.path.dirname(os.path.dirname(gridshave.__file__))
    code = ("import sys\n"
            "from gridshave.cli import cli_main\n"
            "codes = [cli_main(['synth', '--out', 'day.csv']),\n"
            "         cli_main(['fit', '--samples', 'samples.csv', '--out', 'cop.cfg'])]\n"
            "print(codes, [m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0] []"
    assert (tmp_path / "day.csv").exists() and (tmp_path / "cop.cfg").exists()


def _perfbench_names(filename, *variables):
    """The dotted names bound to `variables` in a perfbench module, read from
    its source without importing it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", filename)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and len(node.targets) == 1
             and isinstance(node.targets[0], ast.Name) and node.targets[0].id in variables}
    assert sorted(found) == sorted(variables), filename
    return [name for v in variables for name in found[v]]


def test_benchmark_traced_names_are_public_functions():
    # the benchmark's tracer wraps functions by name; a renamed one would read 0
    names = (_perfbench_names("workloads.py", "_CALLED", "_BUSY")
             + _perfbench_names("tracer.py", "WRITERS"))
    assert names
    unresolved = []
    for dotted in names:
        layer, name = dotted.split(".")
        module = importlib.import_module(f"gridshave.{layer}")
        obj = getattr(module, name, None)
        if not (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")):
            unresolved.append(dotted)
    assert unresolved == []
