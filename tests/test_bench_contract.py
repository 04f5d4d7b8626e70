"""The names the benchmark harness under bench/ reaches into the package for.

bench/run.py --trace 1 wraps every function listed in bench/layers.TRACED
and records sweep._worker_count(), which is 1 because rows run on the
calling thread; a rename in src/ would otherwise surface only in
``python -m pytest bench``.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    """Import a module of bench/ by name, as bench/run.py does."""
    monkeypatch.syspath_prepend(str(BENCH))

    def load(name):
        monkeypatch.delitem(sys.modules, name, raising=False)
        return importlib.import_module(name)

    return load


def test_every_traced_function_exists(bench):
    layers = bench("layers")
    missing = [
        f"{layer}.{name}"
        for layer, names in layers.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"interferolab.{layer}"), name, None))
    ]
    assert missing == []
    for module in layers.MODULES:
        importlib.import_module(f"interferolab.{module}")


def test_traced_cli_entry_points_exist():
    sweep = importlib.import_module("interferolab.sweep")
    cli = importlib.import_module("interferolab.cli")
    assert sweep._worker_count() == 1
    assert callable(cli.main)


def test_verify_imports(bench):
    verify = bench("verify")
    assert callable(verify.check_csv)
