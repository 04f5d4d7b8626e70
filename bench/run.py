"""interferolab benchmark: time to a verified sweep CSV, set-up time and peak memory.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each run of the CLI is a fresh
``python -m interferolab ...`` process started after the previous one
exited, and runs repeat until S seconds have passed.  INTERF_THREADS is
removed from the program's environment, so it picks its default of
min(8, nproc) row workers; the BLAS thread variables are pinned to 1
(PROGRAM_ENV; README.md says why).  Every CSV is checked row by row
(verify.py) after the measured window.

--trace 0 reports the end-to-end metrics: wall_s (median process wall
time of one CLI run), setup_s (median wall time of a process that only
imports the package and resolves the configuration) and peak_rss_mb
(median over runs of the CLI process's maximum resident set).
--trace 1 alternates untraced runs with runs of traced_cli.py and
reports the per-layer metrics of layers.py; trace.overhead_s is the
traced minus the untraced median wall time.

The last line of standard output is one JSON object; the same result,
with the environment and every sample, is written to
.bench_out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "optimal_vs_n_eta09_default.csv"
OUT_DIR = ROOT / ".bench_out"

THREAD_VARS = ("INTERF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# With BLAS threads left to default, each row worker drives a BLAS pool as
# wide as the machine, and run times swing with any outside CPU load.
PROGRAM_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBE_EVERY_S = 3.0  # one set-up probe per started 3 s of CLI run time
MIN_RUNS = 2  # loop iterations (a traced iteration is an untraced plus a traced run)
DEADLINE_S = 165.0  # stop starting runs that could end after this
CHECK_RESERVE_S = 15.0  # left for the row checks after the window

SETUP_SNIPPET = (
    "import sys\n"
    "from interferolab.cli import build_parser, resolve_config\n"
    "resolve_config(build_parser().parse_args(sys.argv[1:]))[0].check()\n"
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(PROGRAM_ENV, PYTHONPATH=str(SRC))
    return env


def run_child(cmd, log_path, timeout: float):
    """Run ``cmd`` to completion; returns (wall_s, exit_code, max_rss_mb)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log
        )
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Checker:
    """Row-by-row CSV verification; a CSV byte-identical to one already
    verified gets that verdict without recomputation."""

    def __init__(self, cfg, golden):
        self.cfg, self.golden = cfg, golden
        self.rows = len(cfg.values())
        self.verdicts: dict = {}
        self.problems: list = []

    def failed_rows(self, csv_path: Path) -> int:
        if not csv_path.is_file():
            self.problems.append(f"{csv_path.name}: no CSV written")
            return self.rows
        text = csv_path.read_text(encoding="utf-8")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self.verdicts:
            problems = verify.check_csv(text, self.cfg, self.golden)
            self.problems += [f"{csv_path.name} row {i}: {p}" for i, p in sorted(problems.items())]
            self.verdicts[digest] = len(problems)
        return self.verdicts[digest]


def _git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def environment(workload: str, seed: int, cli_args: list) -> dict:
    import numpy

    nproc = os.cpu_count() or 1
    return {
        "workload": workload,
        "seed": seed,
        "cli_args": cli_args,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "nproc": nproc,
        "program_thread_env": {k: PROGRAM_ENV.get(k, "unset") for k in THREAD_VARS},
        "program_row_workers": min(8, nproc),
        "machine": platform.machine(),
    }


def _tail(path: Path, lines: int = 3) -> str:
    text = path.read_text(encoding="utf-8", errors="replace").splitlines()
    return " | ".join(text[-lines:])


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _quartiles(xs) -> str:
    if len(xs) < 2:
        return "n/a"
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"{q1:.4f}..{q3:.4f}"


def measure(args, cli_args, checker, work: Path, t0: float) -> dict:
    """The measured window, then the checks; returns the result record
    (without the environment)."""
    attempted = failed = 0
    walls, rss, setups, traced_walls, layer_runs = [], [], [], [], []
    outputs = []  # (csv, log, spans or None, exit code) of every CLI run

    def remaining():
        return DEADLINE_S - (time.perf_counter() - t0)

    def cli_run(k: int, traced: bool):
        name = f"run{k}{'t' if traced else ''}"
        out, log = work / f"{name}.csv", work / f"{name}.log"
        spans = work / f"{name}.spans.json" if traced else None
        if traced:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans)]
        else:
            cmd = [sys.executable, "-m", "interferolab"]
        wall, code, peak = run_child(cmd + cli_args + ["--out", str(out)], log, remaining())
        outputs.append((out, log, spans, code))
        return wall, peak

    def setup_probe():
        nonlocal attempted, failed
        log = work / "setup.log"
        wall, code, _ = run_child([sys.executable, "-c", SETUP_SNIPPET] + cli_args, log, remaining())
        setups.append(wall)
        attempted += 1
        if code != 0:
            failed += 1
            checker.problems.append(f"setup probe: exit code {code}: {_tail(log)}")

    loop_start = time.perf_counter()
    k = 0
    while True:
        wall, peak = cli_run(k, traced=False)
        walls.append(wall)
        rss.append(peak)
        if not args.trace:
            # spread over the window, so the median sees the same machine states
            for _ in range(1 + int(wall // SETUP_PROBE_EVERY_S)):
                setup_probe()
        else:
            wall, _ = cli_run(k, traced=True)
            traced_walls.append(wall)
        k += 1
        per_iter = (time.perf_counter() - loop_start) / k
        if k >= MIN_RUNS and time.perf_counter() - loop_start >= args.seconds:
            break
        if remaining() < 1.5 * per_iter + CHECK_RESERVE_S:
            break

    for out, log, spans, code in outputs:
        attempted += 1 + checker.rows
        failed += (code != 0) + checker.failed_rows(out)
        if code != 0:
            checker.problems.append(f"{out.name}: exit code {code}: {_tail(log)}")
        elif spans is not None:
            data = json.loads(spans.read_text(encoding="utf-8"))
            spans_list = tracing.from_json(data["spans"])
            layer_runs.append(layers.layer_metrics(spans_list, data["import_s"], data["workers"]))

    return {
        "attempted": attempted,
        "failed": failed,
        "samples": {
            "wall_s": walls,
            "peak_rss_mb": rss,
            "setup_s": setups,
            "traced_wall_s": traced_walls,
        },
        "layer_runs": layer_runs,
    }


def end_to_end(rec) -> dict:
    s = rec["samples"]
    return {
        "wall_s": {"value": _median(s["wall_s"]), "unit": "s"},
        "setup_s": {"value": _median(s["setup_s"]), "unit": "s"},
        "peak_rss_mb": {"value": _median(s["peak_rss_mb"]), "unit": "MiB"},
    }


def per_layer(rec, problems: list) -> dict:
    runs = rec["layer_runs"]
    out = {}
    for name, unit in layers.PER_LAYER.items():
        if name == "trace.overhead_s":
            value = _median(rec["samples"]["traced_wall_s"]) - _median(rec["samples"]["wall_s"])
        elif name in layers.COUNTS:
            values = {r[name] for r in runs}
            if len(values) > 1:
                problems.append(f"{name} differs between traced runs: {sorted(values)}")
            value = runs[0][name] if runs else 0
        else:
            value = _median([r[name] for r in runs])
        out[name] = {"value": value, "unit": unit}
    negative = [k for k, v in out.items() if k.endswith("self_s") and v["value"] < 0]
    if negative:
        problems.append(f"negative self time: {negative}")
    if not runs:
        problems.append("no traced run completed")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t0 = time.perf_counter()

    cli_args = WORKLOADS[args.workload].argv(args.seed)
    cfg = verify.sweep_config(cli_args)
    cfg.check()
    golden = None
    if args.workload == "default-sweep" and args.seed == 0:
        golden = GOLDEN.read_text(encoding="utf-8")
    checker = Checker(cfg, golden)

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        rec = measure(args, cli_args, checker, work, t0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = checker.problems
    metrics = per_layer(rec, problems) if args.trace else end_to_end(rec)
    correct = rec["failed"] == 0 and not problems
    result = {
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    env = environment(args.workload, args.seed, cli_args)
    record = dict(result, environment=env, samples=rec["samples"], problems=problems)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    s = rec["samples"]
    print(f"workload {args.workload} seed {args.seed}: interferolab {' '.join(cli_args)}")
    print("environment " + json.dumps(env))
    print(f"wall_s median {_median(s['wall_s']):.4f} s, quartiles {_quartiles(s['wall_s'])}, "
          f"{len(s['wall_s'])} runs")
    if not args.trace:
        print(f"setup_s median {_median(s['setup_s']):.4f} s over {len(s['setup_s'])} probes; "
              f"peak_rss_mb median {_median(s['peak_rss_mb']):.1f} MiB")
    print(f"failed_ratio {rec['failed']}/{rec['attempted']} = "
          f"{rec['failed'] / max(rec['attempted'], 1):.6g}")
    for line in problems:
        print("problem: " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "interferolab" / "__init__.py").is_file():
        print(f"benchmark: no interferolab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path[:0] = [str(SRC)]
    # imported only once the package sources are known to be there
    import layers
    import tracing
    import verify
    from workloads import WORKLOADS

    sys.exit(main())
