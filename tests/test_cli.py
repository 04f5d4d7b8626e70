import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import interferolab.sweep as sweep_mod
from interferolab.cli import KEYS, build_parser, load_config_file, main, resolve_config
from interferolab.sweep import UsageError


def run(args):
    return main(args)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = run([
            "--family", "optimal", "--axis", "n",
            "--n-min", "2", "--n-max", "3", "--n-step", "1",
            "--eta", "0.9", "--phi-grid", "90", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "wrote 2 rows" in capsys.readouterr().out

    def test_usage_error_from_bad_flag(self, capsys):
        assert run(["--family", "squeezed"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_from_bad_combination(self, tmp_path, capsys):
        code = run([
            "--family", "mm", "--m-prime", "3",
            "--n-min", "2", "--n-max", "3", "--n-step", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "m_prime" in capsys.readouterr().err

    def test_validation_failure_exit(self, tmp_path, capsys, monkeypatch):
        from interferolab.protocol import ValidationCell, ValidationReport

        bad = ValidationReport(
            (ValidationCell("rho", 2, -1, 0.9, 0.3, 0.5, (1, 0)),), 1e-10
        )
        monkeypatch.setattr(sweep_mod, "validate_closed_forms", lambda *a, **k: bad)
        code = run([
            "--n-min", "2", "--n-max", "3", "--n-step", "1",
            "--phi-grid", "90", "--validate", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "validation failure" in capsys.readouterr().err

    # binomials of 1030 and above overflow double
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("family, n, top", [("optimal", 515, 1030), ("mm", 520, 1037)])
    def test_non_finite_row_is_a_validation_failure(self, family, n, top, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run([
            "--family", family, "--m-prime", "3", "--eta", "0.9",
            "--n-min", str(n), "--n-max", str(n), "--phi-grid", "8", "--out", str(out),
        ])
        assert code == 2
        assert f"validation failure: sweep={n} (top index {top})" in capsys.readouterr().err
        assert not out.exists()

    def test_io_error_on_unwritable_output(self, tmp_path, capsys):
        code = run([
            "--n-min", "2", "--n-max", "2", "--n-step", "1",
            "--phi-grid", "90", "--out", str(tmp_path / "missing" / "x.csv"),
        ])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err

    def test_io_error_on_missing_external(self, tmp_path, capsys):
        code = run([
            "--n-min", "2", "--n-max", "2", "--n-step", "1",
            "--phi-grid", "90", "--out", str(tmp_path / "x.csv"),
            "--external", str(tmp_path / "absent.csv"),
        ])
        assert code == 3
        assert not (tmp_path / "x.csv").exists()

    def test_io_error_on_malformed_external(self, tmp_path, capsys):
        comp = tmp_path / "comp.csv"
        comp.write_text("2,0.5\n3\n")
        code = run([
            "--n-min", "2", "--n-max", "3", "--phi-grid", "90",
            "--out", str(tmp_path / "x.csv"), "--external", str(comp),
        ])
        assert code == 3
        assert f"{comp}:2: expected two comma-separated columns" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unmatched_external_is_listed_in_the_summary(self, tmp_path, capsys):
        comp = tmp_path / "comp.csv"
        comp.write_text("2,0.5\n99,0.25\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([
                "--n-min", "2", "--n-max", "3", "--phi-grid", "90",
                "--out", str(tmp_path / "x.csv"), "--external", str(comp),
            ])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        assert "comparison values matching no sweep value: 99.0" in out.splitlines()

    @pytest.mark.parametrize("argv", [
        ["--n-step", "nan"],
        ["--n-max", "inf"],
        ["--axis", "eta", "--eta-min", "nan"],
        ["--axis", "eta", "--n", "1e308", "--eta-min", "0.5", "--eta-max", "0.5"],  # 2n overflows
    ])
    def test_usage_error_from_non_finite_setting(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run([*argv, "--phi-grid", "8", "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


class TestConfigResolution:
    def test_file_then_flags_precedence(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "family=mm\nm-prime=2\nn-min=4\nn-max=8\nn-step=2\nphi-grid=90\n"
            f"out={tmp_path / 'file.csv'}\n"
        )
        args = build_parser().parse_args(
            ["--config", str(conf), "--n-max", "6", "--out", str(tmp_path / "flag.csv")]
        )
        cfg, emit_plot = resolve_config(args)
        assert cfg.state_family == "mm"
        assert cfg.mm_m_prime == 2
        assert cfg.n_range == (4.0, 6.0, 2.0)  # flag overrode the max only
        assert cfg.output_path == str(tmp_path / "flag.csv")
        assert emit_plot is False

    def test_defaults_without_any_input(self):
        cfg, emit_plot = resolve_config(build_parser().parse_args([]))
        assert cfg.state_family == "optimal"
        assert cfg.sweep_axis == "n"
        assert cfg.fixed_eta == 0.9
        assert cfg.n_range == (2.0, 30.0, 1.0)
        assert cfg.phi_grid_points == 720

    def test_config_file_booleans_and_comments(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# comment\n\nvalidate=true\nemit-plot=yes\n")
        updates = load_config_file(conf)
        assert updates == {"validate": True, "emit_plot": True}

    @pytest.mark.parametrize("line", ["n-min=abc", "phi-grid=2.5", "validate=maybe"])
    def test_config_file_rejects_bad_value(self, line, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(f"# comment\n{line}\n")
        key, _, raw = line.partition("=")
        with pytest.raises(UsageError, match=re.escape(f"{conf}:2: bad value for {key}: {raw!r}")):
            load_config_file(conf)

    # one value per key; booleans are bare flags on the command line
    SAMPLES = {
        "family": "mm", "axis": "eta", "eta": "0.8", "n": "7", "n-min": "4", "n-max": "9",
        "n-step": "0.5", "eta-min": "0.6", "eta-max": "0.95", "eta-step": "0.05",
        "m-prime": "2", "phi-grid": "90", "validate": None, "external": "comp.csv",
        "out": "x.csv", "emit-plot": None,
    }

    @pytest.mark.parametrize("key", list(KEYS))
    def test_flag_and_config_key_agree(self, key, tmp_path):
        value = self.SAMPLES[key]
        flag = [f"--{key}"] if value is None else [f"--{key}", value]
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key}={'true' if value is None else value}\n")
        from_flag = resolve_config(build_parser().parse_args(flag))
        from_file = resolve_config(build_parser().parse_args(["--config", str(conf)]))
        assert from_flag == from_file
        assert from_flag != resolve_config(build_parser().parse_args([]))

    def test_config_file_rejects_unknown_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("frobnicate=1\n")
        with pytest.raises(UsageError, match="unknown key"):
            load_config_file(conf)

    def test_config_file_rejects_bad_line(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("just-a-word\n")
        with pytest.raises(UsageError, match="key=value"):
            load_config_file(conf)

    def test_noon_baseline_spelling_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("family=noon-baseline\n")
        assert run(["--config", str(conf), "--out", str(tmp_path / "x.csv")]) == 1
        assert "noon-baseline" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestSingleRoundOnly:
    # two round trips cancel phi (see test_protocol), so there is no
    # multi-round sweep to ask for
    def test_rounds_flag_rejected(self, tmp_path, capsys):
        assert run(["--rounds", "2", "--out", str(tmp_path / "x.csv")]) == 1
        assert "--rounds" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_rounds_config_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("rounds=2\n")
        assert run(["--config", str(conf), "--out", str(tmp_path / "x.csv")]) == 1
        assert "unknown key 'rounds'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestPlotFlag:
    def test_emit_plot_writes_script(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = run([
            "--n-min", "2", "--n-max", "3", "--n-step", "1",
            "--phi-grid", "90", "--out", str(out), "--emit-plot",
        ])
        assert code == 0
        assert (tmp_path / "run.gp").exists()
        assert "plot script" in capsys.readouterr().out

    def test_csv_named_like_the_script_rejected(self, tmp_path, capsys):
        # the script goes to the CSV path with suffix .gp, which would be the CSV itself
        out = tmp_path / "run.gp"
        code = run([
            "--n-min", "2", "--n-max", "3", "--n-step", "1",
            "--phi-grid", "90", "--out", str(out), "--emit-plot",
        ])
        assert code == 1
        assert "would overwrite" in capsys.readouterr().err
        assert not out.exists()


class TestModuleEntryPoint:
    ROOT = Path(__file__).resolve().parent.parent

    def run_module(self, args, cwd):
        env = dict(os.environ)
        src = str(self.ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        return subprocess.run(
            [sys.executable, "-m", "interferolab", *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_import_loads_only_numpy_and_stdlib(self, tmp_path):
        # every CLI run pays for what the import loads (setup_s in bench/)
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import interferolab.cli\n"
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "interferolab" in loaded
        assert loaded - {"interferolab", "numpy"} <= set(sys.stdlib_module_names)
        assert "concurrent" not in loaded  # rows run on the calling thread

    # (max - min) / step overflows to inf, so the row count is not a number
    @pytest.mark.parametrize("argv", [
        ["--n-step", "1e-320"],
        ["--axis", "eta", "--eta-step", "1e-320"],
    ], ids=["n", "eta"])
    def test_tiny_range_step_is_a_usage_error(self, argv, tmp_path):
        proc = self.run_module([*argv, "--phi-grid", "8", "--out", "x.csv"], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage error:")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    def test_help_lists_every_key(self, tmp_path):
        proc = self.run_module(["--help"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        flags = set(re.findall(r"--[a-z-]+", proc.stdout))
        assert {f"--{key}" for key in KEYS} | {"--config"} <= flags

    def test_small_sweep_writes_csv(self, tmp_path):
        proc = self.run_module(["--n-min", "2", "--n-max", "3", "--phi-grid", "90"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "wrote 2 rows -> sweep.csv" in proc.stdout
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == sweep_mod.CSV_HEADER
        assert [row.split(",")[0] for row in lines[1:]] == ["2", "3"]
