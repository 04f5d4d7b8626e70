"""The names the benchmark harness under bench/ reaches into the package for.

bench/run.py --trace 1 wraps every function listed in bench/layers.TRACED
and records sweep._worker_count(), which is 1 because rows run on the
calling thread; bench/verify.py checks every benchmark CSV against the
package's public outputs.  A rename or signature change in src/ would
otherwise surface only in ``python -m pytest bench``.
"""

import importlib
import sys
from pathlib import Path

import pytest

from interferolab.cli import main

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
GOLDEN = ROOT / "tests" / "golden" / "optimal_vs_n_eta09_default.csv"


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


# the checker reads baselines(), so it agrees with the empty noon cell of a
# half-integer row
@pytest.mark.parametrize("args", [
    ["--family", "optimal", "--n-min", "2", "--n-max", "4", "--validate"],
    ["--family", "mm", "--n-min", "5", "--n-max", "7", "--validate"],
    ["--family", "optimal", "--n-min", "1.5", "--n-max", "6", "--n-step", "0.5"],
    ["--family", "mm", "--m-prime", "0", "--n-min", "1.5", "--n-max", "6", "--n-step", "0.5"],
], ids=["optimal", "mm", "optimal-half-integer", "mm-half-integer"])
def test_verify_accepts_cli_csv(bench, tmp_path, args):
    verify = bench("verify")
    out = tmp_path / "s.csv"
    assert main([*args, "--out", str(out)]) == 0
    assert verify.check_csv(out.read_text(encoding="utf-8"), verify.sweep_config(args)) == {}


def test_verify_accepts_the_default_golden(bench):
    verify = bench("verify")
    golden = GOLDEN.read_text(encoding="utf-8")
    assert verify.check_csv(golden, verify.sweep_config([]), golden) == {}


def test_every_workload_command_line_runs_and_verifies(bench, tmp_path):
    # the benchmark's own command lines, seeds 0-3: a flag or family value that
    # a workload sends and the CLI no longer accepts fails here, not only in
    # the benchmark's own tests; default-sweep at seed 0 is checked against
    # the default golden, as bench/run.py checks it
    workloads, verify = bench("workloads"), bench("verify")
    for name, workload in workloads.WORKLOADS.items():
        for seed in range(4):
            args = workload.argv(seed)
            out = tmp_path / f"{name}-{seed}.csv"
            assert main([*args, "--out", str(out)]) == 0, (name, seed)
            golden = GOLDEN.read_text(encoding="utf-8") if (name, seed) == ("default-sweep", 0) else None
            problems = verify.check_csv(out.read_text(encoding="utf-8"), verify.sweep_config(args), golden)
            assert problems == {}, (name, seed)
