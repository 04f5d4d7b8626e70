"""Tests of the benchmark itself: tracer arithmetic, workload configs and
the CSV correctness check.  Run with ``python3 -m pytest -q bench``."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from interferolab.sweep import CSV_HEADER, SweepConfig, run_sweep  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "optimal_vs_n_eta09_default.csv"


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _by_thread(spans) -> dict:
    out: dict = {}
    for s in spans:
        out.setdefault(s.thread, []).append(s)
    return out


def test_self_times_sum_to_root_wall_in_nested_tree():
    tr = tracing.Tracer()
    leaf = tr.wrap(lambda: _busy(0.002), "a.leaf")
    mid = tr.wrap(lambda: (leaf(), _busy(0.001), leaf()), "a.mid")
    with tr.span("root"):
        mid()
        leaf()
        _busy(0.001)
    own = tracing.self_times(tr.spans)
    (root,) = [s for s in tr.spans if s.name == "root"]
    assert sum(own.values()) == root.end - root.start
    assert all(v >= 0 for v in own.values())
    assert [s.name for s in tr.spans].count("a.leaf") == 3


def test_self_times_are_per_thread_under_a_pool():
    tr = tracing.Tracer()
    leaf = tr.wrap(lambda: _busy(0.002), "a.leaf")
    row = tr.wrap(lambda i: (leaf(), _busy(0.001)), "a.row")
    with tr.span("root"):
        with tr.pool_class()(max_workers=3) as pool:
            list(pool.map(row, range(7)))
    own = tracing.self_times(tr.spans)
    assert all(v >= 0 for v in own.values())
    (root,) = [s for s in tr.spans if s.name == "root"]
    for thread_spans in _by_thread(tr.spans).values():
        tops = [s for s in thread_spans if not s.nested]
        assert sum(own[s.id] for s in thread_spans) == sum(s.end - s.start for s in tops)
    rows = [s for s in tr.spans if s.name == "a.row"]
    assert len(rows) == 7
    # rows run in worker threads but are caused by the root span
    assert all(s.parent == root.id and not s.nested and s.thread != root.thread for s in rows)
    # cross-thread children are not subtracted from the submitter
    assert own[root.id] == root.end - root.start


def test_counting_wrapper_counts_callback_calls():
    tr = tracing.Tracer()

    def scan(fn, n):
        return sum(fn(x) for x in range(n))

    traced = tr.wrap_counting_callback(scan, "e.scan", "e.evals")
    assert traced(lambda x: x, 5) == 10
    assert traced(lambda x: 1, 3) == 3
    assert [s.attrs for s in tr.spans] == [{"e.evals": 5}, {"e.evals": 3}]


def test_layer_metrics_of_synthetic_sweep():
    ms = 1_000_000
    S = tracing.Span
    spans = [
        S(1, None, False, "cli.main", 1, 0, 100 * ms, None),
        S(2, 1, True, "sweep.run_sweep", 1, 10 * ms, 90 * ms, None),
        S(3, 2, False, "sweep.row", 2, 10 * ms, 50 * ms, None),
        S(4, 3, True, "protocol.optimal_state_output", 2, 10 * ms, 40 * ms,
          {"protocol.optimal_state_output.bytes_computed": 56}),
        S(5, 2, False, "sweep.row", 3, 10 * ms, 90 * ms, None),
    ]
    m = layers.layer_metrics(spans, import_s=0.5, workers=2)
    assert m["cli.main.self_s"] == pytest.approx(0.020)
    assert m["sweep.run_sweep.wall_s"] == pytest.approx(0.080)
    assert m["sweep.busy_s"] == pytest.approx(0.120)
    assert m["sweep.parallel_efficiency"] == pytest.approx(0.120 / (0.080 * 2))
    assert m["protocol.optimal_state_output.calls"] == 1
    assert m["protocol.optimal_state_output.self_s"] == pytest.approx(0.030)
    assert m["protocol.optimal_state_output.bytes_computed"] == 56
    assert m["cli.import_s"] == 0.5
    assert set(m) == set(layers.PER_LAYER) - {"trace.overhead_s"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 1, 2, 7, 123, 99991])
def test_workload_configs_pass_check(name, seed):
    cfg = verify.sweep_config(WORKLOADS[name].argv(seed))
    cfg.check()
    assert cfg.phi_grid_points == 720
    assert 0.85 <= cfg.fixed_eta <= 0.95
    assert cfg.mm_m_prime in (2, 3, 4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_to_config_is_deterministic(name):
    wl = WORKLOADS[name]
    assert [wl.argv(s) for s in range(20)] == [wl.argv(s) for s in range(20)]
    assert len({tuple(wl.argv(s)) for s in range(20)}) > 1
    seed0 = verify.sweep_config(wl.argv(0))
    assert seed0.fixed_eta == 0.9 and seed0.mm_m_prime == 3
    assert seed0.n_range == tuple(float(x) for x in wl.n_range)


def test_default_sweep_seed0_is_the_golden_configuration():
    cfg = verify.sweep_config(WORKLOADS["default-sweep"].argv(0))
    assert cfg == SweepConfig(output_path=cfg.output_path)


def _sweep_csv(tmp_path, **kw) -> tuple:
    cfg = SweepConfig(output_path=str(tmp_path / "s.csv"), **kw)
    run_sweep(cfg)
    return cfg, (tmp_path / "s.csv").read_text(encoding="utf-8")


def _corrupt(text: str, row: int, column: str, fn) -> str:
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    i = CSV_HEADER.split(",").index(column)
    cells[i] = fn(cells[i])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _scale(cell: str, factor: float = 1.0 + 1e-6) -> str:
    return repr(float(cell) * factor)


@pytest.mark.parametrize(
    "kw, column",
    [
        (dict(n_range=(2.0, 6.0, 1.0), phi_grid_points=90), "min_rms"),
        (dict(state_family="mm", n_range=(5.0, 9.0, 1.0), phi_grid_points=90), "mm_error"),
    ],
)
def test_check_rejects_a_corrupted_row(tmp_path, kw, column):
    cfg, text = _sweep_csv(tmp_path, **kw)
    assert verify.check_csv(text, cfg) == {}
    assert set(verify.check_csv(_corrupt(text, 2, column, _scale), cfg)) == {2}
    assert set(verify.check_csv(_corrupt(text, 1, "shot_noise", _scale), cfg)) == {1}
    assert set(verify.check_csv(_corrupt(text, 3, "sweep", lambda c: "9"), cfg)) == {3}
    dropped = "\n".join(text.splitlines()[:-1]) + "\n"
    assert set(verify.check_csv(dropped, cfg)) == {len(cfg.values()) - 1}
    assert len(verify.check_csv(text.replace("sweep,", "x,", 1), cfg)) == len(cfg.values())


def test_check_against_golden_ignores_only_argmin_phi():
    cfg = verify.sweep_config(WORKLOADS["default-sweep"].argv(0))
    golden = GOLDEN.read_text(encoding="utf-8")
    assert verify.check_csv(golden, cfg, golden) == {}
    # another of the d equal minima (N = 10, d = 21) is accepted
    other_min = _corrupt(golden, 8, "argmin_phi", lambda c: repr(float(c) + 2 * math.pi / 21))
    assert verify.check_csv(other_min, cfg, golden) == {}
    # a column checked only against the golden file
    assert set(verify.check_csv(_corrupt(golden, 5, "avg_rms", _scale), cfg, golden)) == {5}
    assert set(verify.check_csv(_corrupt(golden, 6, "holevo", _scale), cfg, golden)) == {6}


def test_traced_cli_matches_untraced_output_and_counts(tmp_path):
    args = ["--family", "mm", "--n-min", "5", "--n-max", "7", "--phi-grid", "60", "--validate"]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    plain, traced, spans = tmp_path / "p.csv", tmp_path / "t.csv", tmp_path / "spans.json"
    subprocess.run([sys.executable, "-m", "interferolab", *args, "--out", str(plain)],
                   env=env, check=True, capture_output=True, timeout=120)
    subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(spans), *args,
                    "--out", str(traced)], env=env, check=True, capture_output=True, timeout=120)
    assert traced.read_bytes() == plain.read_bytes()
    data = json.loads(spans.read_text(encoding="utf-8"))
    m = layers.layer_metrics(tracing.from_json(data["spans"]), data["import_s"], data["workers"])
    assert m["estimation.phase_error_summary.calls"] == 3
    assert m["estimation.error_fn.evals"] > 3 * 60
    # mm coefficients: once inside mm_state_output, once directly, per row
    assert m["protocol.mm_output_coefficients.calls"] >= 2 * 3
    assert m["protocol.roundtrip_oracle.calls"] > 0
    assert m["fock.apply_channel.calls"] == 2 * m["protocol.roundtrip_oracle.calls"]
    assert m["states.calls"] == m["protocol.roundtrip_oracle.calls"]
    assert [s.name for s in tracing.from_json(data["spans"])].count("sweep.row") == 3
    assert all(v >= 0 for k, v in m.items() if k.endswith("self_s"))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER.items())
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
